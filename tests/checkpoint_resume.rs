//! Checkpoint/resume differential suite (PR 8 tentpole): a run
//! interrupted at *any* hop and resumed from its checkpoint is
//! **bit-identical** to the uninterrupted run — same states, same hop
//! counts, same fixpoint flags — on every backend (literal, arena, dense,
//! and the oracle over its arena LE-list and dense APSP lanes), at every
//! thread count, and whether the checkpoint stayed in memory or
//! roundtripped through the crash-safe snapshot store; a checkpoint also resumes
//! across the literal and arena backends, both ways. The
//! recovery-ladder variants of these assertions
//! (resume after an injected fault) live in `tests/fault_harness.rs`.

use metric_tree_embedding::core::arena::ArenaBackend;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{LiteralBackend, MbfAlgorithm};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::oracle::OracleBackend;
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, try_run_on, Checkpoint, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::persist::{SnapshotReader, SnapshotWriter};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::sync::Mutex;

/// Runs `f` on a dedicated pool of the given total parallelism — the
/// `MTE_THREADS` sweep without process-global state.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

const THREADS: [usize; 2] = [1, 4];

fn fixture_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0xC4E0);
    gnm_graph(70, 170, 1.0..9.0, &mut rng)
}

/// Collects a checkpoint after every hop of a checkpointed run via the
/// given driver, panicking if the run itself fails.
fn capture_all<M, R>(run: impl FnOnce(&Mutex<Vec<Checkpoint<M>>>) -> R) -> (R, Vec<Checkpoint<M>>) {
    let checkpoints = Mutex::new(Vec::new());
    let result = run(&checkpoints);
    (result, checkpoints.into_inner().unwrap())
}

/// The backend-generic resume check, at every thread count: the run
/// from `backend()` to the fixpoint (within `cap` hops) is the
/// reference; a checkpointed run capturing every `every`-th hop
/// reproduces it, and resuming a fresh `backend()` from each capture
/// (one of them through the snapshot store) reproduces its states,
/// iteration count and fixpoint flag. Asserts the reference states
/// agree across thread counts.
fn assert_every_checkpoint_resumes<A, B>(
    backend: impl Fn() -> B + Sync,
    alg: &A,
    g: &Graph,
    cap: usize,
    every: u64,
) where
    A: MbfAlgorithm<M = DistanceMap> + Sync,
    B: StateBackend<A>,
{
    let per_thread_states: Vec<Vec<DistanceMap>> = THREADS
        .iter()
        .map(|&threads| {
            with_threads(threads, || {
                let reference = run_to_fixpoint_on(backend(), alg, g, cap);
                assert!(reference.fixpoint);
                let policy = CheckpointPolicy::every_hops(every);
                let ((run, _), checkpoints) = capture_all(|sink| {
                    try_run_on(backend(), alg, g, cap, policy, |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    })
                    .unwrap()
                });
                assert_eq!(run.states, reference.states);
                assert!(checkpoints.len() >= 2, "run too short to checkpoint");
                let on_disk = checkpoints.len() / 2;
                for (i, ckpt) in checkpoints.iter().enumerate() {
                    let decoded;
                    let ckpt = if i == on_disk {
                        decoded = through_snapshot(ckpt);
                        &decoded
                    } else {
                        ckpt
                    };
                    let (resumed, report) = try_resume_on(backend(), alg, g, cap, ckpt).unwrap();
                    assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                    assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                    assert_eq!(resumed.fixpoint, reference.fixpoint, "hop {}", ckpt.hop);
                    assert!(report.converged);
                }
                reference.states
            })
        })
        .collect();
    assert_eq!(
        per_thread_states[0], per_thread_states[1],
        "thread counts disagree"
    );
}

/// A checkpoint after its round trip through the snapshot store.
fn through_snapshot(ckpt: &Checkpoint<DistanceMap>) -> Checkpoint<DistanceMap> {
    let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
    let decoded = SnapshotReader::decode(&image)
        .expect("snapshot decodes")
        .checkpoint()
        .expect("checkpoint section decodes");
    assert_eq!(&decoded, ckpt, "roundtrip changed the checkpoint");
    decoded
}

#[test]
fn literal_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let backend = || LiteralBackend::new();
    assert_every_checkpoint_resumes(backend, &alg, &g, g.n() + 1, 1);
}

#[test]
fn arena_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0xC4E1)));
    let backend = || ArenaBackend::new();
    // k-SSP exercises the unranked pool, the LE lists the rank column.
    let (kssp, le) = (
        SourceDetection::k_ssp(g.n(), 4),
        LeListAlgorithm::new(ranks),
    );
    assert_every_checkpoint_resumes(backend, &kssp, &g, g.n() + 1, 1);
    assert_every_checkpoint_resumes(backend, &le, &g, g.n() + 1, 2);
}

/// Every checkpoint captured on backend `from` resumes on backend `to`
/// bit-identically to the uninterrupted `from` run, at every thread
/// count: the literal backend's frontier (the vertices its last hop
/// changed) is the arena's residual frontier, and the other way round.
fn assert_checkpoints_resume_across<A, F, T>(
    from: impl Fn() -> F + Sync,
    to: impl Fn() -> T + Sync,
    alg: &A,
    g: &Graph,
) where
    A: MbfAlgorithm,
    A::M: Send,
    F: StateBackend<A>,
    T: StateBackend<A>,
{
    let cap = g.n() + 1;
    for threads in THREADS {
        with_threads(threads, || {
            let reference = run_to_fixpoint_on(from(), alg, g, cap);
            let (_, checkpoints) = capture_all(|sink| {
                try_run_on(from(), alg, g, cap, CheckpointPolicy::every_hops(1), |c| {
                    sink.lock().unwrap().push(c.clone());
                    Ok(())
                })
                .unwrap()
            });
            assert!(!checkpoints.is_empty(), "run too short to checkpoint");
            for ckpt in &checkpoints {
                let (resumed, _) = try_resume_on(to(), alg, g, cap, ckpt).unwrap();
                let hop = ckpt.hop;
                assert_eq!(resumed.states, reference.states, "t={threads} hop {hop}");
                assert_eq!(
                    resumed.iterations, reference.iterations,
                    "t={threads} hop {hop}"
                );
                assert_eq!(
                    resumed.fixpoint, reference.fixpoint,
                    "t={threads} hop {hop}"
                );
            }
        })
    }
}

#[test]
fn checkpoints_resume_across_literal_and_arena_backends() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    assert_checkpoints_resume_across(LiteralBackend::new, ArenaBackend::new, &alg, &g);
    assert_checkpoints_resume_across(ArenaBackend::new, LiteralBackend::new, &alg, &g);
}

#[test]
fn dense_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E2);
    let g = gnm_graph(40, 100, 1.0..7.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let backend = || DenseBackend::new(None);
    assert_every_checkpoint_resumes(backend, &alg, &g, g.n() + 1, 1);
}

#[test]
fn oracle_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E4);
    let g = gnm_graph(60, 150, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.15, &mut rng);
    let cap = 4 * g.n();
    // The production lanes: LE lists on the arena lane, APSP on the
    // dense one.
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
    let h = sim.augmented();
    let arena = || OracleBackend::<_, ArenaBackend>::new(&sim);
    assert_every_checkpoint_resumes(arena, &le, h, cap, 1);
    let apsp = SourceDetection::apsp(g.n());
    let dense = || OracleBackend::<_, DenseBackend>::new(&sim);
    assert_every_checkpoint_resumes(dense, &apsp, h, cap, 1);
}

// ---------------------------------------------------------------------
// Through the snapshot store: a checkpoint that went to disk and back
// resumes exactly like the in-memory one.
// ---------------------------------------------------------------------

#[test]
fn persist_roundtripped_checkpoints_resume_bit_identically() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let reference = run_to_fixpoint_on(LiteralBackend::new(), &alg, &g, cap);
    let (_, checkpoints) = capture_all(|sink| {
        try_run_on(
            LiteralBackend::new(),
            &alg,
            &g,
            cap,
            CheckpointPolicy::every_hops(1),
            |c| {
                sink.lock().unwrap().push(c.clone());
                Ok(())
            },
        )
        .unwrap()
    });
    assert!(!checkpoints.is_empty());
    for ckpt in &checkpoints {
        let decoded = through_snapshot(ckpt);
        let (resumed, _) = try_resume_on(LiteralBackend::new(), &alg, &g, cap, &decoded).unwrap();
        assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
        assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
        assert_eq!(resumed.fixpoint, reference.fixpoint);
    }
}

/// A crash after *writing* but before the run finished: the snapshot on
/// disk is the only artifact. Resume from the file alone.
#[test]
fn resume_from_disk_after_simulated_crash() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let reference = run_to_fixpoint_on(LiteralBackend::new(), &alg, &g, cap);

    let dir = std::env::temp_dir().join(format!("mte_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.mte");

    // The "crashing" process: checkpoint to disk every hop, abandon the
    // run by erroring out of the sink after the second capture.
    let mut captures = 0;
    let aborted = try_run_on(
        LiteralBackend::new(),
        &alg,
        &g,
        cap,
        CheckpointPolicy::every_hops(1),
        |c| {
            SnapshotWriter::new()
                .put_checkpoint(c)
                .write_to(&path)
                .map_err(|e| metric_tree_embedding::core::RunError::SnapshotCorrupt {
                    detail: e.to_string(),
                })?;
            captures += 1;
            if captures == 2 {
                return Err(metric_tree_embedding::core::RunError::Panicked {
                    message: "simulated crash".to_string(),
                });
            }
            Ok(())
        },
    );
    assert!(aborted.is_err(), "the simulated crash must abort the run");

    // The "recovering" process: all it has is the file.
    let ckpt = SnapshotReader::read_from(&path)
        .expect("snapshot survives the crash")
        .checkpoint()
        .expect("checkpoint section intact");
    assert_eq!(ckpt.hop, 2);
    let (resumed, _) = try_resume_on(LiteralBackend::new(), &alg, &g, cap, &ckpt).unwrap();
    assert_eq!(resumed.states, reference.states);
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.fixpoint, reference.fixpoint);
    std::fs::remove_dir_all(&dir).unwrap();
}
