//! Differential fault-injection harness (PR 6 tentpole §4).
//!
//! The contract under test: **a fault either surfaces as a typed
//! [`RunError`] or it does not exist** — whenever a guarded run returns
//! `Ok`, its states must be bit-identical to the clean run's, for every
//! wired injection site × fault kind × thread count in {1, 4}. No third
//! outcome (silent corruption, torn state, hung pool) is acceptable.
//!
//! The engine sweep runs over the conformance table (`common::CELLS`),
//! each cell on a graph of its own with algorithms sized for it. The
//! fault registry is process-global, so every test that installs a plan
//! holds `common::FaultGuard`, which serializes the tests, clears the
//! registry and silences the expected injected panics.

mod common;

use common::{
    through_snapshot, with_threads, Case, Cell, FaultGuard, Fixture, State, Visit, CELLS,
};
use metric_tree_embedding::core::arena::ArenaBackend;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{LiteralBackend, MbfAlgorithm, MbfRun};
use metric_tree_embedding::core::frt::le_list::LeListAlgorithm;
use metric_tree_embedding::core::oracle::OracleBackend;
use metric_tree_embedding::core::run::{
    try_resume_on, try_run_on, Checkpoint, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::{Degradation, RunError, RunReport};
use metric_tree_embedding::faults::{self, FaultKind, FaultPlan, FaultSite};
use metric_tree_embedding::graph::io::{read_gr, GraphParseError};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Mutex;

/// A guarded run of `backend` to the fixpoint that captures nothing.
fn try_run<A: MbfAlgorithm, B: StateBackend<A>>(
    backend: B,
    alg: &A,
    g: &Graph,
    cap: usize,
) -> Result<(MbfRun<A::M>, RunReport), RunError> {
    try_run_on(backend, alg, g, cap, CheckpointPolicy::disabled(), |_| {
        Ok(())
    })
}

/// The guarded run of a conformance cell, returning its states.
fn try_case<A: MbfAlgorithm, B: StateBackend<A>>(
    case: &Case<'_, A, B>,
) -> Result<(Vec<A::M>, RunReport), RunError> {
    try_run((case.backend)(), case.alg, case.g, case.cap).map(|(run, report)| (run.states, report))
}

/// Large enough (`n > 2 × min_chunk_len`) that per-vertex parallel
/// operations decompose into multiple chunks and actually enter the
/// worker pool; the single-chunk inline regime is covered by the
/// oracle fixture's smaller graph.
fn fixture_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0xFA01);
    gnm_graph(150, 430, 1.0..9.0, &mut rng)
}

/// The oracle cells' `H`, over a 40-vertex graph; its LE lists are
/// ranked by the seed `0xFA03`.
fn oracle_fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(0xFA02);
    let g = gnm_graph(40, 110, 1.0..8.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.2, &mut rng);
    Fixture::oracle("gnm 40", (g, sim), 0xFA03)
}

/// Hands every conformance cell to `v` on its fault fixture: the
/// 150-vertex graph for the fixpoint backends, the oracle fixture's `H`
/// for the oracle, each with algorithms sized for its own graph.
fn for_every_cell(v: &mut impl Visit) {
    let graph = Fixture::graph("gnm 150", fixture_graph(), 0xFA03);
    let oracle = oracle_fixture();
    for cell in CELLS {
        cell.visit(if cell.is_oracle() { &oracle } else { &graph }, v);
    }
}

/// The (site, kind) pairs wired into the hop loop of a cell's backend.
fn wired_faults(cell: Cell) -> Vec<(FaultSite, FaultKind)> {
    match cell {
        Cell::LiteralWidestPaths | Cell::LiteralConnectivity | Cell::LiteralKSsp => vec![
            (FaultSite::EngineHopCommit, FaultKind::Panic),
            (FaultSite::EngineHopCommit, FaultKind::PoisonNan),
            (FaultSite::WorkerChunk, FaultKind::Panic),
        ],
        Cell::ArenaSssp | Cell::ArenaKSsp | Cell::ArenaLe | Cell::ArenaMaskedLe(_) => vec![
            (FaultSite::EngineHopCommit, FaultKind::Panic),
            (FaultSite::ArenaSpanRead, FaultKind::Panic),
            (FaultSite::ArenaSpanRead, FaultKind::TruncateSpan),
            (FaultSite::WorkerChunk, FaultKind::Panic),
        ],
        Cell::DenseApsp => vec![
            (FaultSite::EngineHopCommit, FaultKind::Panic),
            (FaultSite::EngineHopCommit, FaultKind::PoisonNan),
            (FaultSite::DenseRowKernel, FaultKind::Panic),
            (FaultSite::DenseRowKernel, FaultKind::PoisonNan),
            (FaultSite::WorkerChunk, FaultKind::Panic),
        ],
        Cell::OracleArenaLe | Cell::OracleArenaKSsp | Cell::OracleDenseApsp => vec![
            (FaultSite::OracleLevelLoop, FaultKind::Panic),
            (FaultSite::OracleLevelLoop, FaultKind::PoisonNan),
            (FaultSite::WorkerChunk, FaultKind::Panic),
        ],
    }
}

/// Every wired (site, kind) × arrival index × thread count on one cell
/// either errors typed or matches the clean run bit for bit.
/// Every `(site, kind)` of `wired` × arrival index × thread count:
/// `run` either fails with an error `typed` accepts or returns the clean
/// run's output bit for bit. At `nth = 0` the fault fires on the first
/// arrival, which every run reaches, so the fire must be on record; a
/// large `nth` is never reached, exercising the armed-but-silent path.
fn sweep<T: PartialEq + Debug + Send>(
    label: &str,
    wired: &[(FaultSite, FaultKind)],
    typed: fn(&RunError) -> bool,
    run: impl Fn() -> Result<(T, RunReport), RunError> + Sync,
) {
    // Clean baseline per thread count (they must agree anyway, but
    // compare like with like).
    let baselines = [1, 4].map(|threads| {
        with_threads(threads, &run)
            .unwrap_or_else(|e| panic!("clean {label} run failed: {e}"))
            .0
    });
    assert_eq!(
        baselines[0], baselines[1],
        "{label}: clean thread divergence"
    );
    for &(site, kind) in wired {
        for nth in [0u64, 3, 1_000_000] {
            for (ti, threads) in [1usize, 4].into_iter().enumerate() {
                let at = format!("{label}/{site}/{kind}/nth={nth}/t={threads}");
                faults::install(FaultPlan::single(site, kind, nth));
                let since = faults::fired_serial();
                let outcome = with_threads(threads, &run);
                let fired = faults::fired_since(since);
                faults::clear();
                assert!(
                    nth != 0 || fired.iter().any(|f| (f.site, f.kind) == (site, kind)),
                    "{at}: the fault never fired"
                );
                match outcome {
                    Err(e) => assert!(typed(&e), "{at}: unexpected error class {e:?}"),
                    Ok((out, _)) => assert_eq!(
                        out, baselines[ti],
                        "{at}: Ok run diverged from clean baseline"
                    ),
                }
            }
        }
    }
}

/// Runs [`sweep`] over a cell's wired engine faults.
struct Sweep;

impl Visit for Sweep {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        let wired = wired_faults(case.cell);
        let typed = |e: &RunError| {
            matches!(
                e,
                RunError::InjectedFault { .. }
                    | RunError::Panicked { .. }
                    | RunError::CorruptState { .. }
            )
        };
        sweep(&case.label, &wired, typed, || try_case(case));
    }
}

/// The tentpole sweep: every conformance cell × wired (site, kind) ×
/// arrival index × thread count either errors typed or matches the
/// clean run bit for bit.
#[test]
fn every_injected_fault_errors_typed_or_leaves_output_bit_identical() {
    let _guard = FaultGuard::acquire();
    for_every_cell(&mut Sweep);
}

/// A first-arrival panic at the level-loop site stops the oracle cell.
struct LevelLoopPanic;

impl Visit for LevelLoopPanic {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        if !case.cell.is_oracle() {
            return;
        }
        let site = FaultSite::OracleLevelLoop;
        faults::install(FaultPlan::single(site, FaultKind::Panic, 0));
        let out = try_case(case);
        faults::clear();
        match out {
            Err(RunError::InjectedFault { site: fired, .. }) => {
                assert_eq!(fired, site, "{}", case.label)
            }
            other => panic!("{}: expected InjectedFault, got {other:?}", case.label),
        }
    }
}

/// The level-loop site sits in the loop every oracle lane shares: a
/// first-arrival panic stops the arena and dense oracles alike.
#[test]
fn oracle_level_loop_site_fires_on_every_lane() {
    let _guard = FaultGuard::acquire();
    for_every_cell(&mut LevelLoopPanic);
}

/// An injected panic at a specific arrival index maps to the
/// `InjectedFault` variant carrying its site — not a generic panic.
#[test]
fn injected_panics_carry_their_site_in_the_typed_error() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    faults::install(FaultPlan::single(
        FaultSite::EngineHopCommit,
        FaultKind::Panic,
        0,
    ));
    let out = try_run(LiteralBackend::new(), &alg, &g, g.n() + 1);
    faults::clear();
    match out {
        Err(RunError::InjectedFault { site, kind }) => {
            assert_eq!(site, FaultSite::EngineHopCommit);
            assert_eq!(kind, FaultKind::Panic);
        }
        other => panic!("expected InjectedFault, got {other:?}"),
    }
}

/// A worker-chunk panic is isolated at the chunk boundary: the pool
/// survives, and the *same* pool completes a clean run afterwards.
#[test]
fn worker_pool_survives_a_chunk_panic() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let (g, alg) = (&g, &alg);
    with_threads(4, move || {
        let clean = try_run(LiteralBackend::new(), alg, g, g.n() + 1).expect("clean run");
        faults::install(FaultPlan::single(
            FaultSite::WorkerChunk,
            FaultKind::Panic,
            0,
        ));
        let faulted = try_run(LiteralBackend::new(), alg, g, g.n() + 1);
        faults::clear();
        assert!(faulted.is_err(), "chunk panic must surface as an error");
        // Same pool, same workers: the panic did not wedge or kill them.
        let after = try_run(LiteralBackend::new(), alg, g, g.n() + 1)
            .expect("post-fault run on the surviving pool");
        assert_eq!(after.0.states, clean.0.states);
        assert_eq!(after.1, clean.1);
    });
}

/// The first checkpoint of an unbudgeted dense run (the resume input of
/// the budget tests below).
fn first_dense_checkpoint(alg: &SourceDetection, g: &Graph, cap: usize) -> Checkpoint<DistanceMap> {
    let mut first = None;
    let policy = CheckpointPolicy::every_hops(1);
    try_run_on(DenseBackend::new(None), alg, g, cap, policy, |c| {
        first.get_or_insert_with(|| c.clone());
        Ok(())
    })
    .expect("unbudgeted run");
    first.expect("run too short to checkpoint")
}

/// A dense run has no sparse fallback: the budget violation is the
/// typed `DenseBudgetExceeded` error, raised before any allocation — on
/// resume too, so a supervisor retry rung cannot bypass the budget the
/// primary rung enforced.
#[test]
fn dense_only_budget_violation_is_a_typed_error() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let budgeted = || DenseBackend::new(Some(8));
    let ckpt = first_dense_checkpoint(&alg, &g, cap);
    let run = try_run(budgeted(), &alg, &g, cap);
    let resume = try_resume_on(budgeted(), &alg, &g, cap, &ckpt);
    for out in [run.map(|_| ()), resume.map(|_| ())] {
        match out {
            Err(RunError::DenseBudgetExceeded {
                requested_bytes,
                budget_bytes,
            }) => {
                assert_eq!(budget_bytes, Some(8));
                assert!(requested_bytes > 8);
            }
            other => panic!("expected DenseBudgetExceeded, got {other:?}"),
        }
    }
}

/// An injected allocation failure at the dense block load is answered
/// by the same typed error, with no budget in force: `try_run_on` and
/// `try_resume_on` return `DenseBudgetExceeded { budget_bytes: None }`,
/// nothing unwinds, and the fire is logged as handled (the audit does
/// not turn it into `InjectedFault`).
#[test]
fn injected_alloc_failure_at_the_dense_load_is_a_typed_error() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let unbudgeted = || DenseBackend::new(None);
    let ckpt = first_dense_checkpoint(&alg, &g, cap);
    for resume in [false, true] {
        faults::install(FaultPlan::single(
            FaultSite::DenseRowKernel,
            FaultKind::AllocFail,
            0,
        ));
        let since = faults::fired_serial();
        let out = if resume {
            try_resume_on(unbudgeted(), &alg, &g, cap, &ckpt).map(|_| ())
        } else {
            try_run(unbudgeted(), &alg, &g, cap).map(|_| ())
        };
        let fired = faults::fired_since(since);
        faults::clear();
        match out {
            Err(RunError::DenseBudgetExceeded {
                requested_bytes,
                budget_bytes: None,
            }) => assert_eq!(requested_bytes, (g.n() * g.n() * 8) as u64),
            other => panic!("resume={resume}: expected DenseBudgetExceeded, got {other:?}"),
        }
        assert_eq!(fired.len(), 1, "resume={resume}: {fired:?}");
        assert!(fired[0].handled, "resume={resume}: fire not logged handled");
    }
}

/// A run that exhausts its iteration cap is not an error — it reports
/// `converged: false` with the hops it used — on the literal backend and
/// on the oracle, whose hops are rounds.
#[test]
fn cap_exhaustion_reports_converged_false() {
    let _guard = FaultGuard::acquire();
    let g = path_graph(40, 1.0);
    let alg = SourceDetection::sssp(g.n(), 0);
    assert_cap_exhausts(LiteralBackend::new, &alg, &g, 3, g.n() + 1);
    let fx = oracle_fixture();
    let sim = fx.sim.as_ref().unwrap();
    let oracle = || OracleBackend::<_, ArenaBackend>::new(sim);
    let le = LeListAlgorithm::new(fx.ranks());
    assert_cap_exhausts(oracle, &le, sim.augmented(), 2, 4 * fx.g.n());
}

/// A run of `backend()` capped at `cap` hops reports `converged: false`
/// and `cap` hops; the run capped at `full` converges, and says so.
fn assert_cap_exhausts<A: MbfAlgorithm, B: StateBackend<A>>(
    backend: impl Fn() -> B,
    alg: &A,
    g: &Graph,
    cap: usize,
    full: usize,
) {
    let (run, report) = try_run(backend(), alg, g, cap).expect("cap exhaustion is not an error");
    assert!(!report.converged);
    assert_eq!(report.hops, cap as u64);
    assert!(!run.fixpoint);
    let (_, full) = try_run(backend(), alg, g, full).expect("full run");
    assert!(full.converged);
    assert!(full.hops > cap as u64);
}

/// The injected parser I/O fault surfaces as the typed
/// `GraphParseError::Io`, not a panic — and is logged handled, so a
/// subsequent guarded engine run is not polluted by the stale fire.
#[test]
fn injected_parser_io_failure_is_a_typed_parse_error() {
    let _guard = FaultGuard::acquire();
    let doc = "p sp 3 2\na 1 2 1.5\na 2 3 2.0\n";
    faults::install(FaultPlan::single(FaultSite::GrParser, FaultKind::Io, 0));
    let out = read_gr(doc.as_bytes());
    faults::clear();
    assert!(
        matches!(out, Err(GraphParseError::Io(_))),
        "expected Io error, got {out:?}"
    );
    // The fire was handled: a fresh guarded run sees a clean audit.
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    try_run(LiteralBackend::new(), &alg, &g, g.n() + 1)
        .expect("stale handled fire must not fail a later run");
}

/// `MTE_FAULT_PLAN`-style specs parse into the same plans the builder
/// produces, and bad specs are rejected with a message.
#[test]
fn fault_plan_spec_round_trip() {
    let parsed = FaultPlan::parse("engine_hop_commit:panic:0;gr_parser:io:2:3").expect("valid");
    let built = FaultPlan::new()
        .inject(FaultSite::EngineHopCommit, FaultKind::Panic, 0)
        .inject(FaultSite::GrParser, FaultKind::Io, 2);
    // Hit counts differ (3 vs default), so compare debug forms loosely:
    // both must list the same sites in order.
    let (p, b) = (format!("{parsed:?}"), format!("{built:?}"));
    assert!(p.contains("EngineHopCommit") && p.contains("GrParser"));
    assert!(b.contains("EngineHopCommit") && b.contains("GrParser"));
    // analyze: fault-spec-ok(negative parse test)
    assert!(FaultPlan::parse("no_such_site:panic:0").is_err());
    // analyze: fault-spec-ok(negative parse test)
    assert!(FaultPlan::parse("engine_hop_commit:no_such_kind:0").is_err());
}

// ---------------------------------------------------------------------
// Snapshot fault sites (PR 8): `snapshot_write` corrupts the encoded
// image, `snapshot_read` injects a load failure. Same contract as the
// engine sites — typed error or bit-identical — plus the recovery
// ladder must absorb them within its budget.
// ---------------------------------------------------------------------

use metric_tree_embedding::core::{RecoveryPolicy, Supervisor};
use std::cell::RefCell;

/// A run that round-trips every checkpoint through the full persistence
/// stack (encode → decode), then re-verifies the last good checkpoint by
/// resuming from it. Exercises both snapshot sites once per capture.
fn checkpointed_roundtrip_run(g: &Graph) -> Result<(Vec<DistanceMap>, RunReport), RunError> {
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let last_good: RefCell<Option<Checkpoint<DistanceMap>>> = RefCell::new(None);
    let (run, report) = try_run_on(
        LiteralBackend::new(),
        &alg,
        g,
        cap,
        CheckpointPolicy::every_hops(1),
        |ckpt| {
            *last_good.borrow_mut() = Some(through_snapshot(ckpt)?);
            Ok(())
        },
    )?;
    if let Some(ckpt) = last_good.into_inner() {
        let (resumed, _) = try_resume_on(LiteralBackend::new(), &alg, g, cap, &ckpt)?;
        assert_eq!(
            resumed.states, run.states,
            "resume from a decoded checkpoint diverged"
        );
        assert_eq!(resumed.iterations, run.iterations);
    }
    Ok((run.states, report))
}

/// The snapshot-site sweep: both sites × kinds × arrival index × thread
/// count either error typed or leave the checkpointed run bit-identical
/// to the clean baseline.
#[test]
fn snapshot_faults_error_typed_or_leave_output_bit_identical() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let wired = [
        (FaultSite::SnapshotWrite, FaultKind::Panic),
        (FaultSite::SnapshotWrite, FaultKind::Io),
        (FaultSite::SnapshotRead, FaultKind::Panic),
        (FaultSite::SnapshotRead, FaultKind::Io),
    ];
    let typed = |e: &RunError| {
        matches!(
            e,
            RunError::InjectedFault { .. }
                | RunError::Panicked { .. }
                | RunError::SnapshotCorrupt { .. }
        )
    };
    sweep("checkpointed", &wired, typed, || {
        checkpointed_roundtrip_run(&g)
    });
}

/// The supervisor's retry rung: a one-shot fault kills the primary
/// attempt after checkpoints were captured; the retry resumes from the
/// last good checkpoint and must reproduce the clean run bit for bit,
/// within the policy's attempt budget, with the ladder recorded — on the
/// literal backend and on the oracle's production LE-list lane.
#[test]
fn supervisor_recovers_from_checkpoint_within_budget() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    // The 4th hop commit: the primary attempt has checkpoints from hops
    // 1–3 in hand when it dies.
    let plan = FaultPlan::single(FaultSite::EngineHopCommit, FaultKind::Panic, 3);
    assert_supervisor_recovers(LiteralBackend::new, &alg, &g, g.n() + 1, plan);
    // A level task of round 3 (every round checks each of the Λ+1
    // levels once): rounds 1 and 2 are captured.
    let fx = oracle_fixture();
    let sim = fx.sim.as_ref().unwrap();
    let round_3 = 2 * (u64::from(sim.levels().lambda()) + 1);
    let plan = FaultPlan::single(FaultSite::OracleLevelLoop, FaultKind::Panic, round_3);
    let oracle = || OracleBackend::<_, ArenaBackend>::new(sim);
    let le = LeListAlgorithm::new(fx.ranks());
    assert_supervisor_recovers(oracle, &le, sim.augmented(), 4 * fx.g.n(), plan);
}

/// Runs `backend()` behind the supervisor with `plan` armed, at every
/// thread count, capturing every hop through the snapshot codec, and
/// requires the clean run's states with `RecoveredFromCheckpoint`
/// recorded.
fn assert_supervisor_recovers<A, B>(
    backend: impl Fn() -> B + Sync,
    alg: &A,
    g: &Graph,
    cap: usize,
    plan: FaultPlan,
) where
    A: MbfAlgorithm<M = DistanceMap> + Sync,
    B: StateBackend<A>,
{
    let clean = try_run(backend(), alg, g, cap).expect("clean run");
    for threads in [1usize, 4] {
        faults::install(plan.clone());
        let last_good: Mutex<Option<Checkpoint<DistanceMap>>> = Mutex::new(None);
        let (backend, last_good) = (&backend, &last_good);
        let outcome = with_threads(threads, move || {
            Supervisor::new(RecoveryPolicy::default()).run(|attempt| {
                use metric_tree_embedding::core::RecoveryAttempt;
                match attempt {
                    RecoveryAttempt::Primary => try_run_on(
                        backend(),
                        alg,
                        g,
                        cap,
                        CheckpointPolicy::every_hops(1),
                        |ckpt| {
                            *last_good.lock().unwrap() = Some(through_snapshot(ckpt)?);
                            Ok(())
                        },
                    )
                    .map(|(run, report)| (run.states, report)),
                    RecoveryAttempt::RetryFromCheckpoint { .. } => {
                        let ckpt = last_good.lock().unwrap();
                        let ckpt = ckpt.as_ref().expect("primary captured checkpoints");
                        try_resume_on(backend(), alg, g, cap, ckpt)
                            .map(|(run, report)| (run.states, report))
                    }
                    RecoveryAttempt::Scratch => {
                        try_run(backend(), alg, g, cap).map(|(run, report)| (run.states, report))
                    }
                }
            })
        });
        faults::clear();
        let (states, report) = outcome.expect("supervisor must recover a one-shot fault");
        assert_eq!(states, clean.0.states, "t={threads}: recovery diverged");
        assert!(
            report
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::RecoveredFromCheckpoint { attempt, .. } if *attempt <= RecoveryPolicy::default().max_retries)),
            "t={threads}: ladder not recorded: {report:?}"
        );
    }
}

/// The supervisor's scratch rung: a corrupt snapshot load poisons both
/// the primary attempt and the checkpoint store, so the ladder skips
/// the retry rung and recomputes from scratch — still bit-identical.
#[test]
fn supervisor_falls_back_to_scratch_on_snapshot_corruption() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let clean = try_run(LiteralBackend::new(), &alg, &g, cap).expect("clean run");

    // Every snapshot decode fails: checkpoints are unusable for the
    // whole test.
    faults::install(FaultPlan::parse("snapshot_read:io:0:1000000").expect("valid plan"));
    let result = Supervisor::new(RecoveryPolicy::default()).run(|attempt| {
        use metric_tree_embedding::core::RecoveryAttempt;
        match attempt {
            RecoveryAttempt::Primary => try_run_on(
                LiteralBackend::new(),
                &alg,
                &g,
                cap,
                CheckpointPolicy::every_hops(1),
                |ckpt| through_snapshot(ckpt).map(drop),
            )
            .map(|(run, report)| (run.states, report)),
            RecoveryAttempt::RetryFromCheckpoint { .. } => {
                panic!("retry rung must be skipped when the snapshot store is corrupt")
            }
            // Scratch runs without checkpoint sinks, so the armed
            // snapshot_read plan is never consulted again.
            RecoveryAttempt::Scratch => try_run(LiteralBackend::new(), &alg, &g, cap)
                .map(|(run, report)| (run.states, report)),
        }
    });
    faults::clear();
    let (states, report) = result.expect("scratch rung must succeed");
    assert_eq!(states, clean.0.states);
    assert!(
        report
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::RecomputedFromScratch { .. })),
        "scratch rung not recorded: {report:?}"
    );
}

/// Runs a cell behind the recovery supervisor with `plan` armed and
/// requires the clean run's states or a typed error.
struct PreArmed {
    plan: FaultPlan,
}

impl Visit for PreArmed {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        let label = &case.label;
        let clean = try_case(case).unwrap_or_else(|e| panic!("clean {label} run failed: {e}"));
        faults::install(self.plan.clone());
        let supervisor = Supervisor::new(RecoveryPolicy::default());
        let out = supervisor.run(|_| try_case(case));
        faults::clear();
        match out {
            Ok((states, _)) => assert_eq!(
                states, clean.0,
                "{label}: pre-armed run diverged from the clean run"
            ),
            Err(
                RunError::InjectedFault { .. }
                | RunError::Panicked { .. }
                | RunError::CorruptState { .. }
                | RunError::RetriesExhausted { .. },
            ) => {}
            Err(other) => panic!("{label}: unexpected error class {other:?}"),
        }
    }
}

/// The operator-armed entry point: when `MTE_FAULT_PLAN` is set, run
/// every conformance cell (the literal, arena and dense backends and
/// both oracle lanes) under it, each behind the recovery supervisor,
/// and require the absorb-or-typed-error contract. Without the variable
/// this is a no-op (the sweeps above cover the in-process plans).
#[test]
fn pre_armed_env_plan_is_absorbed_or_typed() {
    let Some(plan) = FaultPlan::from_env() else {
        return;
    };
    let _guard = FaultGuard::acquire();
    for_every_cell(&mut PreArmed { plan });
}
