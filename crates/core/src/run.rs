//! One fixpoint driver over every state backend.
//!
//! An MBF-like algorithm is defined once, `A^h(G) = r^V A^h x⁽⁰⁾`,
//! iterated until `x⁽ⁱ⁺¹⁾ = x⁽ⁱ⁾` (Definition 2.11, Eq. (2.17)); how
//! the state vector `x ∈ M^V` is stored does not enter the definition.
//! [`StateBackend`] is that storage question: a state vector paired with
//! the engine that hops over it. Four backends implement it —
//! [`crate::engine::LiteralBackend`] (`Vec<A::M>` advanced by the
//! one-shot `iterate` kernel; every state type),
//! [`crate::arena::ArenaBackend`] (an epoch-arena pool hopped by the
//! frontier schedule; distance maps), [`crate::dense::DenseBackend`]
//! (a dense block hopped by the same schedule, with its memory budget;
//! APSP) and [`crate::oracle::OracleBackend`] (the aggregate of the
//! oracle on `H`, one simulated `H`-iteration per hop, over an arena or
//! dense lane per level) — and the
//! hop-until-fixpoint loop is written once, here, over the trait:
//!
//! * [`run_to_fixpoint_on`] — the plain run,
//! * [`try_run_on`] — guarded, capturing [`Checkpoint`]s whenever the
//!   [`CheckpointPolicy`] asks,
//! * [`try_resume_on`] — guarded resume from a checkpoint.
//!
//! The guarded drivers run backend start and resume *inside*
//! [`run_guarded`], so a backend that refuses its input (a dense budget
//! overrun, an algorithm that does not advertise dense states) surfaces
//! as a [`RunError`], never an unwind.
//!
//! # Checkpoints
//!
//! A checkpoint is the pair the fixpoint loop actually needs to
//! continue: the **states** `x` after some hop, and the **residual
//! frontier** — the vertices whose last change their neighbors have not
//! absorbed yet. By skip-exactness (the argument the frontier schedule
//! is built on: a vertex outside the closed neighborhood of the
//! frontier provably recomputes to its current value bit for bit), any
//! *superset* of the residual frontier is a sound resume seed, and the
//! exact recorded frontier reproduces the uninterrupted run's schedule.
//! The literal backend records the vertices its last hop changed, the
//! same set, so a checkpoint resumes on any backend that runs the
//! algorithm. The oracle records an empty frontier: its resume re-primes
//! every level wholesale.
//! Resumed runs are therefore **bit-identical** to uninterrupted ones —
//! same states, same hop counts, same fixpoint flags — on every backend
//! and every `MTE_THREADS` (asserted by the resume check of the
//! conformance matrix, `tests/common/matrix.rs`).
//!
//! The drivers are *sink-generic*: a [`CheckpointPolicy`] decides
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
//!
//! The reference every backend is differential-tested against is the
//! literal loop: [`crate::engine::iterate`] from `r^V x⁽⁰⁾` until the
//! first hop that changes nothing.

use crate::engine::{MbfAlgorithm, MbfRun};
use crate::error::{check_states, run_guarded, RunError, RunReport};
use crate::work::WorkStats;
use mte_algebra::{NodeId, Semimodule, Semiring};
use mte_graph::Graph;

/// A state vector `x ∈ M^V` paired with the engine that hops over it —
/// the one thing the backends differ in. The fixpoint drivers of this
/// module and the oracle's level loop are written once over it (the
/// level loop's external rewrites go through
/// [`crate::oracle::Lane`]).
pub trait StateBackend<A: MbfAlgorithm> {
    /// Loads `r^V x⁽⁰⁾` with every vertex dirty. Returns the storage
    /// work the load itself cost.
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError>;
    /// Loads a validated checkpoint's states and seeds its recorded
    /// frontier (or a superset). Returns the storage work of the load.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError>;
    /// One hop `x ← r^V A x` with all edge weights multiplied by
    /// `scale`. Returns the work spent and whether any state changed.
    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool);
    /// The residual frontier: ascending, no duplicates.
    fn frontier(&self) -> &[NodeId];
    /// The current states, for a checkpoint capture.
    fn export_states(&self) -> Vec<A::M>;
    /// The final states, once the run ends.
    fn into_states(self) -> Vec<A::M>
    where
        Self: Sized,
    {
        self.export_states()
    }
}

/// When the checkpointed driver captures. The default, `0`, never does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture after every `n`-th hop — for the oracle, every `n`-th
    /// simulated `H`-iteration — never after the confirming fixpoint
    /// hop: a checkpoint always carries a run still in flight.
    pub every_n_hops: u64,
}

impl CheckpointPolicy {
    /// Never capture.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Capture after every `n`-th hop.
    pub fn every_hops(n: u64) -> Self {
        CheckpointPolicy { every_n_hops: n }
    }

    /// `true` iff the hop numbered `hop` (1-based) is a capture point.
    pub fn hop_due(&self, hop: u64) -> bool {
        self.every_n_hops != 0 && hop.is_multiple_of(self.every_n_hops)
    }
}

/// A resumable capture of a run mid-flight. The oracle records an empty
/// frontier: its resume path re-primes every level wholesale, which the
/// carry-over schedule proves bit-identical to continuing.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<M> {
    /// Hops already executed (for the oracle, simulated rounds).
    pub hop: u64,
    /// The residual frontier at capture time: ascending, no duplicates.
    pub frontier: Vec<NodeId>,
    /// The full state vector after hop `hop`.
    pub states: Vec<M>,
}

/// Pre-engine validation of a checkpoint against the graph it claims to
/// resume: every failure is a typed [`RunError::SnapshotCorrupt`], so
/// decoded-from-disk checkpoints can never panic an engine.
pub(crate) fn validate_checkpoint<M>(ckpt: &Checkpoint<M>, n: usize) -> Result<(), RunError> {
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

/// Rejects a state vector in which some state names a vertex outside
/// `0..states.len()` — a decoded checkpoint the storage backends and
/// algorithms index by vertex — as [`RunError::SnapshotCorrupt`].
pub(crate) fn check_vertices<S, M>(states: &[M]) -> Result<(), RunError>
where
    S: Semiring,
    M: Semimodule<S>,
{
    let n = states.len();
    match states.iter().position(|x| !x.fits(n)) {
        Some(v) => Err(RunError::SnapshotCorrupt {
            detail: format!("state of vertex {v} names a vertex out of range for {n} vertices"),
        }),
        None => Ok(()),
    }
}

/// The hop-until-fixpoint loop, the only one: hops from `iterations`
/// already executed up to `cap` total, calling `on_hop(hop, backend)`
/// after every hop that changed something. The confirming hop (the one
/// that changes nothing) is counted, matching the literal loop's
/// semantics.
fn fixpoint_loop<A, B>(
    mut backend: B,
    alg: &A,
    g: &Graph,
    cap: usize,
    mut iterations: usize,
    mut work: WorkStats,
    mut on_hop: impl FnMut(usize, &B) -> Result<(), RunError>,
) -> Result<MbfRun<A::M>, RunError>
where
    A: MbfAlgorithm,
    B: StateBackend<A>,
{
    let mut fixpoint = false;
    while iterations < cap {
        let (w, changed) = backend.step(alg, g, 1.0);
        work += w;
        iterations += 1;
        if !changed {
            fixpoint = true;
            break;
        }
        on_hop(iterations, &backend)?;
    }
    Ok(MbfRun {
        states: backend.into_states(),
        iterations,
        fixpoint,
        work,
    })
}

/// Iterates `backend` from `r^V x⁽⁰⁾` to the fixpoint `x⁽ⁱ⁺¹⁾ = x⁽ⁱ⁾`,
/// reached after at most `SPD(G) < n` hops (Definition 2.11), or until
/// `cap` hops. Panics where the guarded [`try_run_on`] returns an
/// error (e.g. a dense backend over its budget).
pub fn run_to_fixpoint_on<A, B>(mut backend: B, alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M>
where
    A: MbfAlgorithm,
    B: StateBackend<A>,
{
    let run = backend
        .start(alg, g)
        .and_then(|work| fixpoint_loop(backend, alg, g, cap, 0, work, |_, _| Ok(())));
    match run {
        Ok(run) => run,
        Err(e) => panic!("backend refused the run: {e}"),
    }
}

/// Guarded [`run_to_fixpoint_on`]: panics become typed errors, injected
/// faults are audited, and final states are scanned. `sink` receives a
/// [`Checkpoint`] after every hop [`CheckpointPolicy::hop_due`] marks; a
/// sink failure (e.g. a snapshot write that could not complete) aborts
/// the run with its error. A run that exhausts `cap` without reaching
/// the fixpoint is *not* an error; it reports `converged: false`.
pub fn try_run_on<A, B>(
    mut backend: B,
    alg: &A,
    g: &Graph,
    cap: usize,
    policy: CheckpointPolicy,
    mut sink: impl FnMut(&Checkpoint<A::M>) -> Result<(), RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm,
    B: StateBackend<A>,
{
    guarded::<A>(|| {
        let work = backend.start(alg, g)?;
        fixpoint_loop(backend, alg, g, cap, 0, work, |hop, backend| {
            if !policy.hop_due(hop as u64) {
                return Ok(());
            }
            sink(&Checkpoint {
                hop: hop as u64,
                frontier: backend.frontier().to_vec(),
                states: backend.export_states(),
            })
        })
    })
}

/// Guarded resume from a checkpoint: validates it, loads it into
/// `backend` with its recorded frontier, and re-enters the fixpoint
/// loop at the recorded hop. Bit-identical states, hop counts and
/// fixpoint flags to the uninterrupted run.
pub fn try_resume_on<A, B>(
    mut backend: B,
    alg: &A,
    g: &Graph,
    cap: usize,
    ckpt: &Checkpoint<A::M>,
) -> Result<(MbfRun<A::M>, RunReport), RunError>
where
    A: MbfAlgorithm,
    B: StateBackend<A>,
{
    validate_checkpoint(ckpt, g.n())?;
    guarded::<A>(|| {
        let work = backend.resume(alg, g, ckpt)?;
        let hop = ckpt.hop as usize;
        fixpoint_loop(backend, alg, g, cap, hop, work, |_, _| Ok(()))
    })
}

/// Runs `f` under [`run_guarded`], scans the final states, and builds
/// the report.
fn guarded<A: MbfAlgorithm>(
    f: impl FnOnce() -> Result<MbfRun<A::M>, RunError>,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    let run = run_guarded(f)??;
    check_states::<A::S, A::M>(&run.states)?;
    let report = RunReport {
        converged: run.fixpoint,
        hops: run.iterations as u64,
        degradations: Vec::new(),
    };
    Ok((run, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaBackend;
    use crate::catalog::SourceDetection;
    use crate::dense::DenseBackend;
    use crate::engine::{initial_states, LiteralBackend};
    use crate::oracle::OracleBackend;
    use crate::simgraph::SimulatedGraph;
    use mte_algebra::{Dist, DistanceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> Graph {
        // Deterministic small graph with enough hops to checkpoint
        // mid-run.
        mte_graph::generators::path_graph(24, 1.0)
    }

    fn literal() -> LiteralBackend<SourceDetection> {
        LiteralBackend::new()
    }

    #[test]
    fn policy_triggers() {
        let p = CheckpointPolicy::every_hops(3);
        assert!(!p.hop_due(1) && !p.hop_due(2) && p.hop_due(3) && p.hop_due(6));
        assert!(!CheckpointPolicy::disabled().hop_due(1));
    }

    #[test]
    fn every_checkpoint_resumes_bit_identically() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let cap = g.n() + 1;
        let reference = run_to_fixpoint_on(literal(), &alg, &g, cap);
        let mut checkpoints = Vec::new();
        let policy = CheckpointPolicy::every_hops(1);
        let (run, _) = try_run_on(literal(), &alg, &g, cap, policy, |c| {
            checkpoints.push(c.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(run.states, reference.states);
        assert_eq!(run.iterations, reference.iterations);
        assert!(!checkpoints.is_empty());
        for ckpt in &checkpoints {
            let (resumed, report) = try_resume_on(literal(), &alg, &g, cap, ckpt).unwrap();
            assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
            assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
            assert_eq!(resumed.fixpoint, reference.fixpoint);
            assert!(report.converged);
        }
    }

    /// Resuming `alg` over `g` on a fresh `backend()` from each checkpoint
    /// fails with [`RunError::SnapshotCorrupt`].
    fn assert_corrupt<B: StateBackend<SourceDetection>>(
        backend: impl Fn() -> B,
        alg: &SourceDetection,
        g: &Graph,
        ckpts: &[Checkpoint<DistanceMap>],
    ) {
        for ckpt in ckpts {
            let err = try_resume_on(backend(), alg, g, g.n(), ckpt).unwrap_err();
            assert!(
                matches!(err, RunError::SnapshotCorrupt { .. }),
                "wrong error: {err:?}"
            );
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
        let mut states = initial_states(&alg, g.n());
        states[2] = DistanceMap::from_entries(vec![(g.n() as NodeId + 5, Dist::new(1.0))]);
        let out_of_range = Checkpoint {
            hop: 1,
            frontier: vec![2],
            states,
        };
        let ckpts = [short, wild, unsorted, out_of_range];
        assert_corrupt(literal, &alg, &g, &ckpts);
        assert_corrupt(ArenaBackend::new, &alg, &g, &ckpts);
        // The dense backend and lane run APSP only.
        let apsp = SourceDetection::apsp(g.n());
        assert_corrupt(|| DenseBackend::new(None), &apsp, &g, &ckpts);
        let sim = SimulatedGraph::without_hopset(&g, 4, 0.1, &mut StdRng::seed_from_u64(26));
        let h = sim.augmented();
        assert_corrupt(
            || OracleBackend::<_, ArenaBackend>::new(&sim),
            &apsp,
            h,
            &ckpts,
        );
        assert_corrupt(
            || OracleBackend::<_, DenseBackend>::new(&sim),
            &apsp,
            h,
            &ckpts,
        );
    }

    #[test]
    fn failing_sink_aborts_the_run_with_its_error() {
        let g = fixture();
        let alg = SourceDetection::sssp(g.n(), 0);
        let policy = CheckpointPolicy::every_hops(2);
        let err = try_run_on(literal(), &alg, &g, g.n() + 1, policy, |_| {
            Err(RunError::SnapshotCorrupt {
                detail: "sink refused".to_string(),
            })
        })
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
        let policy = CheckpointPolicy::disabled();
        let (run, _) = try_run_on(literal(), &alg, &g, g.n() + 1, policy, |_| {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, 0);
        assert!(run.fixpoint);
    }
}
