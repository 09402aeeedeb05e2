//! Differential fault-injection harness (PR 6 tentpole §4).
//!
//! The contract under test: **a fault either surfaces as a typed
//! [`RunError`] or it does not exist** — whenever a guarded run returns
//! `Ok`, its states must be bit-identical to the clean run's, for every
//! wired injection site × fault kind × thread count in {1, 4}. No third
//! outcome (silent corruption, torn state, hung pool) is acceptable.
//!
//! The fault registry is process-global, so every test that installs a
//! plan serializes on [`FAULT_LOCK`] and clears the registry before
//! releasing it. Expected injected panics are silenced with a no-op
//! panic hook for the duration of the sweep.

use metric_tree_embedding::core::arena::ArenaBackend;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{LiteralBackend, MbfAlgorithm, MbfRun};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::oracle::OracleBackend;
use metric_tree_embedding::core::run::{
    try_resume_on, try_run_on, Checkpoint, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::{Degradation, RunError, RunReport};
use metric_tree_embedding::faults::{self, FaultKind, FaultPlan, FaultSite};
use metric_tree_embedding::graph::io::{read_gr, GraphParseError};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes every test that touches the global fault registry.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the registry lock, silences the default panic hook (injected
/// panics are expected noise here), and guarantees `faults::clear()` +
/// hook restoration on drop — even when an assertion fails mid-sweep.
struct FaultGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl FaultGuard {
    fn acquire() -> FaultGuard {
        let lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::clear();
        std::panic::set_hook(Box::new(|_| {}));
        FaultGuard { _lock: lock }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
        // The hook registry cannot be touched from a panicking thread
        // (it would abort the process, masking the assertion failure);
        // a failing test then leaves the no-op hook for the next guard
        // to replace, losing nothing but one backtrace.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook();
        }
    }
}

/// Runs `f` on a dedicated pool of the given total parallelism.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

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

/// Large enough (`n > 2 × min_chunk_len`) that per-vertex parallel
/// operations decompose into multiple chunks and actually enter the
/// worker pool; the single-chunk inline regime is covered by the
/// oracle fixture's smaller graph.
fn fixture_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0xFA01);
    gnm_graph(150, 430, 1.0..9.0, &mut rng)
}

fn oracle_fixture() -> (Graph, SimulatedGraph) {
    let mut rng = StdRng::seed_from_u64(0xFA02);
    let g = gnm_graph(40, 110, 1.0..8.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.2, &mut rng);
    (g, sim)
}

/// The pipelines a fault plan can be pointed at, each pairing a guarded
/// entry point with the sites it exercises.
#[derive(Clone, Copy, Debug)]
enum Pipeline {
    /// k-SSP on the literal backend.
    Literal,
    Arena,
    Dense,
    /// k-SSP on the arena lane.
    ArenaOracle,
    /// LE lists on the arena lane: the production FRT path.
    LeOracle,
    /// APSP on the dense lane.
    DenseOracle,
}

impl Pipeline {
    /// The (site, kind) pairs wired into this pipeline's hop loop.
    fn wired_faults(self) -> Vec<(FaultSite, FaultKind)> {
        match self {
            Pipeline::Literal => vec![
                (FaultSite::EngineHopCommit, FaultKind::Panic),
                (FaultSite::EngineHopCommit, FaultKind::PoisonNan),
                (FaultSite::WorkerChunk, FaultKind::Panic),
            ],
            Pipeline::Arena => vec![
                (FaultSite::EngineHopCommit, FaultKind::Panic),
                (FaultSite::ArenaSpanRead, FaultKind::Panic),
                (FaultSite::ArenaSpanRead, FaultKind::TruncateSpan),
                (FaultSite::WorkerChunk, FaultKind::Panic),
            ],
            Pipeline::Dense => vec![
                (FaultSite::EngineHopCommit, FaultKind::Panic),
                (FaultSite::EngineHopCommit, FaultKind::PoisonNan),
                (FaultSite::DenseRowKernel, FaultKind::Panic),
                (FaultSite::DenseRowKernel, FaultKind::PoisonNan),
                (FaultSite::WorkerChunk, FaultKind::Panic),
            ],
            Pipeline::ArenaOracle | Pipeline::LeOracle | Pipeline::DenseOracle => vec![
                (FaultSite::OracleLevelLoop, FaultKind::Panic),
                (FaultSite::OracleLevelLoop, FaultKind::PoisonNan),
                (FaultSite::WorkerChunk, FaultKind::Panic),
            ],
        }
    }

    /// Runs the pipeline guarded, returning the state vector on success.
    /// Every pipeline funnels into `Result<(states, report), RunError>`
    /// so one sweep loop covers all of them.
    fn run(
        self,
        g: &Graph,
        sim: &SimulatedGraph,
    ) -> Result<(Vec<DistanceMap>, RunReport), RunError> {
        let (cap, h, oracle_cap) = (g.n() + 1, sim.augmented(), 4 * g.n());
        let kssp = SourceDetection::k_ssp(g.n(), 4);
        let apsp = SourceDetection::apsp(g.n());
        let run = match self {
            Pipeline::Literal => try_run(LiteralBackend::new(), &kssp, g, cap),
            Pipeline::Arena => try_run(ArenaBackend::new(), &kssp, g, cap),
            Pipeline::Dense => try_run(DenseBackend::new(None), &apsp, g, cap),
            Pipeline::ArenaOracle => try_run(
                OracleBackend::<_, ArenaBackend>::new(sim),
                &kssp,
                h,
                oracle_cap,
            ),
            Pipeline::LeOracle => {
                let oracle = OracleBackend::<_, ArenaBackend>::new(sim);
                try_run(oracle, &le_lists(g), h, oracle_cap)
            }
            Pipeline::DenseOracle => try_run(
                OracleBackend::<_, DenseBackend>::new(sim),
                &apsp,
                h,
                oracle_cap,
            ),
        };
        run.map(|(run, report)| (run.states, report))
    }
}

/// The LE-list algorithm of the `LeOracle` pipeline.
fn le_lists(g: &Graph) -> LeListAlgorithm {
    let ranks = Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0xFA03));
    LeListAlgorithm::new(std::sync::Arc::new(ranks))
}

const PIPELINES: [Pipeline; 6] = [
    Pipeline::Literal,
    Pipeline::Arena,
    Pipeline::Dense,
    Pipeline::ArenaOracle,
    Pipeline::LeOracle,
    Pipeline::DenseOracle,
];

/// The tentpole sweep: every pipeline × wired (site, kind) × arrival
/// index × thread count either errors typed or matches the clean run
/// bit for bit.
#[test]
fn every_injected_fault_errors_typed_or_leaves_output_bit_identical() {
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let (_og, sim) = oracle_fixture();

    for pipeline in PIPELINES {
        // Clean baseline per thread count (they must agree anyway, but
        // compare like with like).
        let mut baselines = Vec::new();
        for threads in [1usize, 4] {
            let (g, sim) = (&g, &sim);
            let clean = with_threads(threads, move || pipeline.run(g, sim))
                .unwrap_or_else(|e| panic!("clean {pipeline:?} run failed: {e}"));
            baselines.push(clean.0);
        }
        assert_eq!(
            baselines[0], baselines[1],
            "{pipeline:?}: clean thread divergence"
        );

        for (site, kind) in pipeline.wired_faults() {
            // nth 0 fires on the first arrival (always reached, so the
            // fire must be on record); a large nth is never reached,
            // exercising the armed-but-silent path.
            for nth in [0u64, 3, 1_000_000] {
                for (ti, threads) in [1usize, 4].into_iter().enumerate() {
                    faults::install(FaultPlan::single(site, kind, nth));
                    let since = faults::fired_serial();
                    let (g, sim) = (&g, &sim);
                    let outcome = with_threads(threads, move || pipeline.run(g, sim));
                    let fired = faults::fired_since(since);
                    faults::clear();
                    assert!(
                        nth != 0 || fired.iter().any(|f| (f.site, f.kind) == (site, kind)),
                        "{pipeline:?}/{site}/{kind}/nth=0/t={threads}: the fault never fired"
                    );
                    match outcome {
                        Err(RunError::InjectedFault { .. })
                        | Err(RunError::Panicked { .. })
                        | Err(RunError::CorruptState { .. }) => {}
                        Err(other) => panic!(
                            "{pipeline:?}/{site}/{kind}/nth={nth}/t={threads}: \
                             unexpected error class {other:?}"
                        ),
                        Ok((states, _)) => assert_eq!(
                            states, baselines[ti],
                            "{pipeline:?}/{site}/{kind}/nth={nth}/t={threads}: \
                             Ok run diverged from clean baseline"
                        ),
                    }
                }
            }
        }
    }
}

/// The level-loop site sits in the loop every oracle lane shares: a
/// first-arrival panic stops the arena and dense oracles alike.
#[test]
fn oracle_level_loop_site_fires_on_every_lane() {
    let _guard = FaultGuard::acquire();
    let (g, sim) = oracle_fixture();
    for pipeline in [
        Pipeline::ArenaOracle,
        Pipeline::LeOracle,
        Pipeline::DenseOracle,
    ] {
        faults::install(FaultPlan::single(
            FaultSite::OracleLevelLoop,
            FaultKind::Panic,
            0,
        ));
        let out = pipeline.run(&g, &sim);
        faults::clear();
        match out {
            Err(RunError::InjectedFault { site, .. }) => {
                assert_eq!(site, FaultSite::OracleLevelLoop, "{pipeline:?}")
            }
            other => panic!("{pipeline:?}: expected InjectedFault, got {other:?}"),
        }
    }
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
    let mut checkpoints = Vec::new();
    try_run_on(
        DenseBackend::new(None),
        alg,
        g,
        cap,
        CheckpointPolicy::every_hops(1),
        |c| {
            checkpoints.push(c.clone());
            Ok(())
        },
    )
    .expect("unbudgeted run");
    checkpoints
        .into_iter()
        .next()
        .expect("run too short to checkpoint")
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
    let (og, sim) = oracle_fixture();
    let oracle = || OracleBackend::<_, ArenaBackend>::new(&sim);
    assert_cap_exhausts(oracle, &le_lists(&og), sim.augmented(), 2, 4 * og.n());
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
use metric_tree_embedding::persist::{SnapshotReader, SnapshotWriter};
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
            let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
            let decoded = SnapshotReader::decode(&image)
                .and_then(|r| r.checkpoint())
                .map_err(|e| RunError::SnapshotCorrupt {
                    detail: e.to_string(),
                })?;
            *last_good.borrow_mut() = Some(decoded);
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

    let mut baselines = Vec::new();
    for threads in [1usize, 4] {
        let g = &g;
        let clean = with_threads(threads, move || checkpointed_roundtrip_run(g))
            .unwrap_or_else(|e| panic!("clean checkpointed run failed: {e}"));
        baselines.push(clean.0);
    }
    assert_eq!(baselines[0], baselines[1], "clean thread divergence");

    let wired = [
        (FaultSite::SnapshotWrite, FaultKind::Panic),
        (FaultSite::SnapshotWrite, FaultKind::Io),
        (FaultSite::SnapshotRead, FaultKind::Panic),
        (FaultSite::SnapshotRead, FaultKind::Io),
    ];
    for (site, kind) in wired {
        for nth in [0u64, 3, 1_000_000] {
            for (ti, threads) in [1usize, 4].into_iter().enumerate() {
                faults::install(FaultPlan::single(site, kind, nth));
                let g = &g;
                let outcome = with_threads(threads, move || checkpointed_roundtrip_run(g));
                faults::clear();
                match outcome {
                    Err(RunError::InjectedFault { .. })
                    | Err(RunError::Panicked { .. })
                    | Err(RunError::SnapshotCorrupt { .. }) => {}
                    Err(other) => panic!(
                        "{site}/{kind}/nth={nth}/t={threads}: unexpected error class {other:?}"
                    ),
                    Ok((states, _)) => assert_eq!(
                        states, baselines[ti],
                        "{site}/{kind}/nth={nth}/t={threads}: Ok run diverged"
                    ),
                }
            }
        }
    }
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
    let (og, sim) = oracle_fixture();
    let round_3 = 2 * (u64::from(sim.levels().lambda()) + 1);
    let plan = FaultPlan::single(FaultSite::OracleLevelLoop, FaultKind::Panic, round_3);
    let oracle = || OracleBackend::<_, ArenaBackend>::new(&sim);
    assert_supervisor_recovers(oracle, &le_lists(&og), sim.augmented(), 4 * og.n(), plan);
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
                            let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
                            let decoded = SnapshotReader::decode(&image)
                                .and_then(|r| r.checkpoint())
                                .map_err(|e| RunError::SnapshotCorrupt {
                                    detail: e.to_string(),
                                })?;
                            *last_good.lock().unwrap() = Some(decoded);
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
                |ckpt| {
                    let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
                    SnapshotReader::decode(&image)
                        .and_then(|r| r.checkpoint())
                        .map_err(|e| RunError::SnapshotCorrupt {
                            detail: e.to_string(),
                        })?;
                    Ok(())
                },
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

/// The operator-armed entry point: when `MTE_FAULT_PLAN` is set, run
/// the literal and arena backends and the production oracle lanes (LE
/// lists on the arena lane, APSP on the dense lane) under it, each
/// behind the recovery supervisor, and require the absorb-or-typed-error
/// contract. Without the variable this is a no-op (the sweeps above
/// cover the in-process plans).
#[test]
fn pre_armed_env_plan_is_absorbed_or_typed() {
    let Some(plan) = FaultPlan::from_env() else {
        return;
    };
    let _guard = FaultGuard::acquire();
    let g = fixture_graph();
    let (og, sim) = oracle_fixture();
    let supervisor = Supervisor::new(RecoveryPolicy::default());
    for (pipeline, g) in [
        (Pipeline::Literal, &g),
        (Pipeline::Arena, &g),
        (Pipeline::LeOracle, &og),
        (Pipeline::DenseOracle, &og),
    ] {
        let clean = pipeline
            .run(g, &sim)
            .unwrap_or_else(|e| panic!("clean {pipeline:?} run failed: {e}"));
        faults::install(plan.clone());
        let out = supervisor.run(|_| pipeline.run(g, &sim));
        faults::clear();
        match out {
            Ok((states, _)) => assert_eq!(
                states, clean.0,
                "{pipeline:?}: pre-armed run diverged from the clean run"
            ),
            Err(
                RunError::InjectedFault { .. }
                | RunError::Panicked { .. }
                | RunError::CorruptState { .. }
                | RunError::RetriesExhausted { .. },
            ) => {}
            Err(other) => panic!("{pipeline:?}: unexpected error class {other:?}"),
        }
    }
}
