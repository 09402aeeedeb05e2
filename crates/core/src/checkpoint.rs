//! Checkpointed, resumable fixpoint runs.
//!
//! A checkpoint is the pair the fixpoint loop actually needs to
//! continue: the **states** `x` after some hop, and the **residual
//! frontier** — the vertices whose last change their neighbors have not
//! absorbed yet. By skip-exactness (the argument the frontier schedule
//! is built on: a vertex outside the closed neighborhood of the
//! frontier provably recomputes to its current value bit for bit), any
//! *superset* of the residual frontier is a sound resume seed, and the
//! exact recorded frontier reproduces the uninterrupted run's schedule.
//! Resumed runs are therefore **bit-identical** to uninterrupted ones —
//! same states, same hop counts, same fixpoint flags — across the
//! owned, arena, dense, and switching backends and every `MTE_THREADS`
//! (asserted by `tests/checkpoint_resume.rs`).
//!
//! The drivers here are *sink-generic*: a [`CheckpointPolicy`] decides
//! **when** to capture, and a caller-supplied closure decides **where**
//! the capture goes — clone into memory, encode through `mte_persist`'s
//! crash-safe snapshot writer, or both. Core never depends on the
//! persistence crate; the dependency points the other way.
//!
//! Resume entry points validate the checkpoint before touching any
//! engine (state count, frontier range): a checkpoint that came from
//! disk is attacker-shaped data, and a malformed one must surface as
//! [`RunError::SnapshotCorrupt`], never a panic. The
//! [`crate::error::Supervisor`] composes these drivers into the
//! recovery ladder.

use crate::arena::{storage_work, ArenaMbfAlgorithm};
use crate::dense::{
    initial_block, DenseEngine, DenseMbfAlgorithm, SwitchThresholds, SwitchingEngine,
};
use crate::engine::{initial_states, EngineStrategy, MbfAlgorithm, MbfEngine, MbfRun};
use crate::error::{check_states, run_guarded, RunError, RunReport};
use crate::oracle::{level_loop, OracleRun, OwnedLane};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use crate::ArenaEngine;
use mte_algebra::dense::{DenseBlock, DenseKernel, DenseState};
use mte_algebra::store::EpochStore;
use mte_algebra::{DistanceMap, MinPlus, NodeId};
use mte_graph::Graph;

/// When the checkpointed drivers capture. `0` disables a trigger; the
/// default is fully disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Engine drivers: capture after every `n`-th hop (never after the
    /// confirming fixpoint hop — a checkpoint always carries the
    /// frontier of a run still in flight).
    pub every_n_hops: u64,
    /// Oracle drivers: capture after every `n`-th simulated
    /// `H`-iteration (the oracle's "level rounds").
    pub every_n_levels: u64,
}

impl CheckpointPolicy {
    /// Never capture.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Capture after every `n`-th engine hop.
    pub fn every_hops(n: u64) -> Self {
        CheckpointPolicy {
            every_n_hops: n,
            every_n_levels: 0,
        }
    }

    /// Capture after every `n`-th simulated oracle round.
    pub fn every_levels(n: u64) -> Self {
        CheckpointPolicy {
            every_n_hops: 0,
            every_n_levels: n,
        }
    }

    /// `true` iff an engine hop numbered `hop` (1-based) is a capture
    /// point.
    pub fn hop_due(&self, hop: u64) -> bool {
        self.every_n_hops != 0 && hop.is_multiple_of(self.every_n_hops)
    }

    /// `true` iff an oracle round numbered `round` (1-based) is a
    /// capture point.
    pub fn level_due(&self, round: u64) -> bool {
        self.every_n_levels != 0 && round.is_multiple_of(self.every_n_levels)
    }
}

/// A resumable capture of a run mid-flight. The oracle records an empty
/// frontier: its resume path re-primes every level wholesale, which the
/// carry-over schedule proves bit-identical to continuing.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<M> {
    /// Hops (engine) or simulated rounds (oracle) already executed.
    pub hop: u64,
    /// The residual frontier at capture time: ascending, no duplicates.
    pub frontier: Vec<NodeId>,
    /// The full state vector after hop `hop`.
    pub states: Vec<M>,
}

/// Pre-engine validation of a checkpoint against the graph it claims to
/// resume: every failure is a typed [`RunError::SnapshotCorrupt`], so
/// decoded-from-disk checkpoints can never panic an engine.
fn validate_checkpoint<M>(ckpt: &Checkpoint<M>, n: usize) -> Result<(), RunError> {
    if ckpt.states.len() != n {
        return Err(RunError::SnapshotCorrupt {
            detail: format!(
                "checkpoint holds {} states for a graph of {n} vertices",
                ckpt.states.len()
            ),
        });
    }
    let mut prev: Option<NodeId> = None;
    for &v in &ckpt.frontier {
        if (v as usize) >= n {
            return Err(RunError::SnapshotCorrupt {
                detail: format!("frontier vertex {v} out of range for {n} vertices"),
            });
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(RunError::SnapshotCorrupt {
                detail: "frontier not strictly ascending".to_string(),
            });
        }
        prev = Some(v);
    }
    Ok(())
}

fn report_of<M>(run: &MbfRun<M>) -> RunReport {
    RunReport {
        converged: run.fixpoint,
        hops: run.iterations as u64,
        degradations: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Owned backend.
// ---------------------------------------------------------------------

/// Guarded owned-backend fixpoint run with checkpoint capture: the
/// loop of [`crate::engine::try_run_to_fixpoint_with`], calling `sink`
/// at every hop [`CheckpointPolicy::hop_due`] marks. A sink failure
/// (e.g. a snapshot write that could not complete) aborts the run with
/// its error.
pub fn try_run_checkpointed_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    let run = run_guarded(|| -> Result<MbfRun<A::M>, RunError> {
        let mut states = initial_states(alg, g.n());
        let mut engine = MbfEngine::new(strategy);
        engine.mark_all_dirty(g);
        let mut work = WorkStats::new();
        let mut iterations = 0;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut states, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
            if policy.hop_due(iterations as u64) {
                sink(&Checkpoint {
                    hop: iterations as u64,
                    frontier: engine.frontier().to_vec(),
                    states: states.clone(),
                })?;
            }
        }
        Ok(MbfRun {
            states,
            iterations,
            fixpoint,
            work,
        })
    })??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

/// Guarded resume of an owned-backend run from a checkpoint: re-enters
/// the fixpoint loop at the recorded hop with exactly the recorded
/// residual frontier (empty schedule priming + `mark_dirty`).
/// Bit-identical to the uninterrupted run.
pub fn try_resume_run_to_fixpoint_with<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    validate_checkpoint(ckpt, g.n())?;
    let run = run_guarded(|| {
        let mut states = ckpt.states.clone();
        let mut engine = MbfEngine::new(strategy);
        engine.prime(g);
        engine.mark_dirty(g, ckpt.frontier.iter().copied());
        let mut work = WorkStats::new();
        let mut iterations = ckpt.hop as usize;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut states, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
        }
        MbfRun {
            states,
            iterations,
            fixpoint,
            work,
        }
    })?;
    check_states::<A::S, A::M>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

// ---------------------------------------------------------------------
// Arena backend.
// ---------------------------------------------------------------------

/// Guarded arena-backend fixpoint run with checkpoint capture (cf.
/// [`try_run_checkpointed_with`]). Captures read the pool through the
/// raw span accessor, so they record the true epoch state without
/// consuming `arena_span_read` fault arrivals.
pub fn try_run_checkpointed_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<DistanceMap>) -> Result<(), RunError>,
) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
    let run = run_guarded(|| -> Result<MbfRun<DistanceMap>, RunError> {
        let mut store = crate::arena::initial_store(alg, g.n());
        let mut work = storage_work(store.stats());
        let mut engine = ArenaEngine::new(strategy);
        engine.mark_all_dirty(g);
        let mut iterations = 0;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut store, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
            if policy.hop_due(iterations as u64) {
                sink(&Checkpoint {
                    hop: iterations as u64,
                    frontier: engine.frontier().to_vec(),
                    states: store.export_raw(),
                })?;
            }
        }
        Ok(MbfRun {
            states: store.export(),
            iterations,
            fixpoint,
            work,
        })
    })??;
    check_states::<MinPlus, DistanceMap>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

/// Guarded resume of an arena-backend run from a checkpoint: the states
/// bulk-load into a fresh epoch pool and the recorded frontier seeds the
/// schedule. The seeded vertices are tainted (their pool spans were
/// written externally), which forces full merges but never changes
/// states — resumed **states** are bit-identical to the uninterrupted
/// run's; work counters may differ by the taint-forced merges.
pub fn try_resume_run_to_fixpoint_arena_with<A: ArenaMbfAlgorithm>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<DistanceMap>,
) -> Result<(MbfRun<DistanceMap>, RunReport), RunError> {
    validate_checkpoint(ckpt, g.n())?;
    let run = run_guarded(|| {
        let mut store = EpochStore::with_rank_column(g.n(), A::USES_RANK_COLUMN);
        store.import(&ckpt.states, |u| alg.entry_aux(u));
        let mut work = storage_work(store.stats());
        let mut engine = ArenaEngine::new(strategy);
        engine.prime(g);
        engine.mark_dirty(g, ckpt.frontier.iter().copied());
        let mut iterations = ckpt.hop as usize;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut store, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
        }
        MbfRun {
            states: store.export(),
            iterations,
            fixpoint,
            work,
        }
    })?;
    check_states::<MinPlus, DistanceMap>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

// ---------------------------------------------------------------------
// Dense backend.
// ---------------------------------------------------------------------

/// Guarded dense-backend fixpoint run with checkpoint capture (cf.
/// [`crate::dense::try_run_to_fixpoint_dense_with`], including its
/// pre-allocation budget check).
pub fn try_run_checkpointed_dense_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    budget_bytes: Option<u64>,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    let n = g.n();
    let requested = DenseBlock::<A::S>::bytes_for(n, n);
    if let Some(budget) = budget_bytes {
        if requested > budget {
            return Err(RunError::DenseBudgetExceeded {
                requested_bytes: requested,
                budget_bytes: budget,
            });
        }
    }
    assert!(
        alg.advertises_dense(),
        "algorithm instance does not advertise dense states"
    );
    let run = run_guarded(|| -> Result<MbfRun<A::M>, RunError> {
        let mut block = initial_block(alg, n);
        let mut engine = DenseEngine::new(strategy);
        engine.mark_all_dirty(g);
        let mut work = WorkStats::new();
        let mut iterations = 0;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut block, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
            if policy.hop_due(iterations as u64) {
                sink(&Checkpoint {
                    hop: iterations as u64,
                    frontier: engine.frontier().to_vec(),
                    states: block.export(),
                })?;
            }
        }
        Ok(MbfRun {
            states: block.export(),
            iterations,
            fixpoint,
            work,
        })
    })??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

/// Guarded resume of a dense-backend run from a checkpoint: the states
/// convert into a fresh block and the recorded frontier seeds the
/// schedule. Bit-identical to the uninterrupted run.
pub fn try_resume_run_to_fixpoint_dense_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    validate_checkpoint(ckpt, g.n())?;
    assert!(
        alg.advertises_dense(),
        "algorithm instance does not advertise dense states"
    );
    let run = run_guarded(|| {
        let mut block = DenseBlock::from_states(&ckpt.states, g.n());
        let mut engine = DenseEngine::new(strategy);
        engine.ensure_sized(g);
        engine.mark_dirty(g, ckpt.frontier.iter().copied());
        let mut work = WorkStats::new();
        let mut iterations = ckpt.hop as usize;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, &mut block, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
        }
        MbfRun {
            states: block.export(),
            iterations,
            fixpoint,
            work,
        }
    })?;
    check_states::<A::S, A::M>(&run.states)?;
    let report = report_of(&run);
    Ok((run, report))
}

// ---------------------------------------------------------------------
// Switching backend.
// ---------------------------------------------------------------------

/// Guarded switching-backend fixpoint run with checkpoint capture (cf.
/// [`crate::dense::try_run_to_fixpoint_switching_with`]). Captures
/// export from whichever representation is active — the two are
/// bit-identical by the engine's conversion contract.
pub fn try_run_checkpointed_switching_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    thresholds: SwitchThresholds,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    let (run, degradations) = run_guarded(|| -> Result<(MbfRun<A::M>, Vec<_>), RunError> {
        let mut engine = SwitchingEngine::new(alg, g, strategy, thresholds);
        let mut work = WorkStats::new();
        let mut iterations = 0;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
            if policy.hop_due(iterations as u64) {
                sink(&Checkpoint {
                    hop: iterations as u64,
                    frontier: engine.frontier().to_vec(),
                    states: engine.export_states(),
                })?;
            }
        }
        let run = MbfRun {
            states: engine.export_states(),
            iterations,
            fixpoint,
            work,
        };
        Ok((run, engine.degradations().to_vec()))
    })??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = RunReport {
        converged: run.fixpoint,
        hops: run.iterations as u64,
        degradations,
    };
    Ok((run, report))
}

/// Guarded resume of a switching-backend run. The engine starts with
/// every vertex dirty — a sound *superset* of the recorded frontier, so
/// the resumed states stay bit-identical (extra recomputations are
/// provable identities) — and checkpoint states that differ from the
/// fresh initial states are assigned in before the first hop.
pub fn try_resume_run_to_fixpoint_switching_with<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
    strategy: EngineStrategy,
    thresholds: SwitchThresholds,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: DenseMbfAlgorithm,
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    validate_checkpoint(ckpt, g.n())?;
    let (run, degradations) = run_guarded(|| {
        let mut engine = SwitchingEngine::new(alg, g, strategy, thresholds);
        let fresh = initial_states(alg, g.n());
        for (v, (state, init)) in ckpt.states.iter().zip(&fresh).enumerate() {
            if state != init {
                engine.assign_dirty(alg, g, v as NodeId, state);
            }
        }
        let mut work = WorkStats::new();
        let mut iterations = ckpt.hop as usize;
        let mut fixpoint = false;
        while iterations < cap {
            let (w, changed) = engine.step(alg, g, 1.0);
            work += w;
            iterations += 1;
            if !changed {
                fixpoint = true;
                break;
            }
        }
        let run = MbfRun {
            states: engine.export_states(),
            iterations,
            fixpoint,
            work,
        };
        (run, engine.degradations().to_vec())
    })?;
    check_states::<A::S, A::M>(&run.states)?;
    let report = RunReport {
        converged: run.fixpoint,
        hops: run.iterations as u64,
        degradations,
    };
    Ok((run, report))
}

// ---------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------

fn oracle_report<M>(run: &OracleRun<M>) -> RunReport {
    RunReport {
        converged: run.converged,
        hops: run.hops,
        degradations: Vec::new(),
    }
}

/// Guarded oracle run with checkpoint capture (cf.
/// [`crate::oracle::try_oracle_run_with`]): `sink` fires after every
/// simulated round [`CheckpointPolicy::level_due`] marks, with an empty
/// frontier — the oracle's resume path re-primes its levels wholesale,
/// which the carry-over schedule proves bit-identical to continuing.
pub fn try_oracle_run_checkpointed_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(OracleRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let run = run_guarded(|| {
        let n = sim.augmented().n();
        let lane = || OwnedLane::new(strategy, n);
        let capture = |round: usize, states: &Vec<A::M>| {
            if policy.level_due(round as u64) {
                sink(&Checkpoint {
                    hop: round as u64,
                    frontier: Vec::new(),
                    states: states.to_vec(),
                })?;
            }
            Ok(())
        };
        level_loop(alg, sim, h, true, lane, initial_states(alg, n), 0, capture)
    })??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = oracle_report(&run);
    Ok((run, report))
}

/// Guarded resume of an oracle run from a checkpoint: re-enters the
/// simulated-iteration loop at the recorded round with the recorded
/// aggregate states and fresh level scratch. Bit-identical states and
/// round counts.
pub fn try_resume_oracle_run_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    strategy: EngineStrategy,
    ckpt: &Checkpoint<A::M>,
) -> Result<(OracleRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    validate_checkpoint(ckpt, sim.augmented().n())?;
    let run = run_guarded(|| {
        let lane = || OwnedLane::new(strategy, sim.augmented().n());
        let (states, round) = (ckpt.states.clone(), ckpt.hop as usize);
        level_loop(alg, sim, h, true, lane, states, round, |_, _| Ok(()))
    })??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = oracle_report(&run);
    Ok((run, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::run_to_fixpoint_with;

    fn fixture() -> Graph {
        // Deterministic small graph with enough hops to checkpoint
        // mid-run.
        mte_graph::generators::path_graph(24, 1.0)
    }

    #[test]
    fn policy_triggers() {
        let p = CheckpointPolicy::every_hops(3);
        assert!(!p.hop_due(1) && !p.hop_due(2) && p.hop_due(3) && p.hop_due(6));
        assert!(!p.level_due(3));
        assert!(!CheckpointPolicy::disabled().hop_due(1));
        let l = CheckpointPolicy::every_levels(2);
        assert!(l.level_due(2) && !l.level_due(3) && !l.hop_due(2));
    }

    #[test]
    fn every_checkpoint_resumes_bit_identically() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let cap = g.n() + 1;
        let strategy = EngineStrategy::Frontier;
        let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);
        let mut checkpoints = Vec::new();
        let (run, _) = try_run_checkpointed_with(
            &alg,
            &g,
            cap,
            strategy,
            CheckpointPolicy::every_hops(1),
            |c| {
                checkpoints.push(c.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(run.states, reference.states);
        assert_eq!(run.iterations, reference.iterations);
        assert!(!checkpoints.is_empty());
        for ckpt in &checkpoints {
            let (resumed, report) =
                try_resume_run_to_fixpoint_with(&alg, &g, cap, strategy, ckpt).unwrap();
            assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
            assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
            assert_eq!(resumed.fixpoint, reference.fixpoint);
            assert!(report.converged);
        }
    }

    #[test]
    fn malformed_checkpoints_are_typed_errors() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let short = Checkpoint {
            hop: 1,
            frontier: vec![0],
            states: initial_states(&alg, g.n() - 1),
        };
        let wild = Checkpoint {
            hop: 1,
            frontier: vec![g.n() as NodeId + 7],
            states: initial_states(&alg, g.n()),
        };
        let unsorted = Checkpoint {
            hop: 1,
            frontier: vec![3, 3],
            states: initial_states(&alg, g.n()),
        };
        for ckpt in [short, wild, unsorted] {
            let err =
                try_resume_run_to_fixpoint_with(&alg, &g, g.n(), EngineStrategy::Frontier, &ckpt)
                    .unwrap_err();
            assert!(
                matches!(err, RunError::SnapshotCorrupt { .. }),
                "wrong error: {err:?}"
            );
        }
    }

    #[test]
    fn failing_sink_aborts_the_run_with_its_error() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let err = try_run_checkpointed_with(
            &alg,
            &g,
            g.n() + 1,
            EngineStrategy::Frontier,
            CheckpointPolicy::every_hops(2),
            |_| {
                Err(RunError::SnapshotCorrupt {
                    detail: "sink refused".to_string(),
                })
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::SnapshotCorrupt {
                detail: "sink refused".to_string()
            }
        );
    }

    #[test]
    fn disabled_policy_never_calls_the_sink() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let mut calls = 0;
        let (run, _) = try_run_checkpointed_with(
            &alg,
            &g,
            g.n() + 1,
            EngineStrategy::Frontier,
            CheckpointPolicy::disabled(),
            |_| {
                calls += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(calls, 0);
        assert!(run.fixpoint);
    }
}
