//! Checkpoint/resume differential suite (PR 8 tentpole): a run
//! interrupted at *any* hop and resumed from its checkpoint is
//! **bit-identical** to the uninterrupted run — same states, same hop
//! counts, same fixpoint flags — on every backend (owned, arena, dense,
//! switching, oracle), at every thread count, and whether the
//! checkpoint stayed in memory or roundtripped through the crash-safe
//! snapshot store. The recovery-ladder variants of these assertions
//! (resume after an injected fault) live in `tests/fault_harness.rs`.

use metric_tree_embedding::core::arena::run_to_fixpoint_arena_with;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::checkpoint::{
    try_oracle_run_checkpointed_with, try_resume_oracle_run_with,
    try_resume_run_to_fixpoint_arena_with, try_resume_run_to_fixpoint_dense_with,
    try_resume_run_to_fixpoint_switching_with, try_resume_run_to_fixpoint_with,
    try_run_checkpointed_arena_with, try_run_checkpointed_dense_with,
    try_run_checkpointed_switching_with, try_run_checkpointed_with, Checkpoint, CheckpointPolicy,
};
use metric_tree_embedding::core::dense::SwitchThresholds;
use metric_tree_embedding::core::engine::{run_to_fixpoint_with, EngineStrategy};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::oracle::oracle_run_with;
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

// ---------------------------------------------------------------------
// Owned backend.
// ---------------------------------------------------------------------

#[test]
fn owned_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    let mut per_thread_states = Vec::new();
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        let states = with_threads(threads, move || {
            let reference = run_to_fixpoint_with(alg, g, cap, strategy);
            let ((run, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    CheckpointPolicy::every_hops(1),
                    |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    },
                )
                .unwrap()
            });
            assert_eq!(run.states, reference.states);
            assert!(!checkpoints.is_empty(), "run too short to checkpoint");
            for ckpt in &checkpoints {
                let (resumed, report) =
                    try_resume_run_to_fixpoint_with(alg, g, cap, strategy, ckpt).unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint, "hop {}", ckpt.hop);
                assert!(report.converged);
            }
            reference.states
        });
        per_thread_states.push(states);
    }
    assert_eq!(
        per_thread_states[0], per_thread_states[1],
        "thread counts disagree"
    );
}

// ---------------------------------------------------------------------
// Arena backend (ranked and unranked stores).
// ---------------------------------------------------------------------

#[test]
fn arena_every_checkpoint_resumes_bit_identically_across_threads() {
    let g = fixture_graph();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0xC4E1)));
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    // k-SSP exercises the unranked pool, the LE lists the rank column.
    let kssp = SourceDetection::k_ssp(g.n(), 4);
    let lelist = LeListAlgorithm::new(Arc::clone(&ranks));
    for threads in THREADS {
        let (g, kssp, lelist) = (&g, &kssp, &lelist);
        with_threads(threads, move || {
            {
                let reference = run_to_fixpoint_arena_with(kssp, g, cap, strategy);
                let (_, checkpoints) = capture_all(|sink| {
                    try_run_checkpointed_arena_with(
                        kssp,
                        g,
                        cap,
                        strategy,
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
                    let (resumed, _) =
                        try_resume_run_to_fixpoint_arena_with(kssp, g, cap, strategy, ckpt)
                            .unwrap();
                    assert_eq!(resumed.states, reference.states, "k-SSP hop {}", ckpt.hop);
                    assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                    assert_eq!(resumed.fixpoint, reference.fixpoint);
                }
            }
            {
                let reference = run_to_fixpoint_arena_with(lelist, g, cap, strategy);
                let (_, checkpoints) = capture_all(|sink| {
                    try_run_checkpointed_arena_with(
                        lelist,
                        g,
                        cap,
                        strategy,
                        CheckpointPolicy::every_hops(2),
                        |c| {
                            sink.lock().unwrap().push(c.clone());
                            Ok(())
                        },
                    )
                    .unwrap()
                });
                assert!(!checkpoints.is_empty());
                for ckpt in &checkpoints {
                    let (resumed, _) =
                        try_resume_run_to_fixpoint_arena_with(lelist, g, cap, strategy, ckpt)
                            .unwrap();
                    assert_eq!(resumed.states, reference.states, "LE hop {}", ckpt.hop);
                    assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                    assert_eq!(resumed.fixpoint, reference.fixpoint);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Dense and switching backends.
// ---------------------------------------------------------------------

#[test]
fn dense_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E2);
    let g = gnm_graph(40, 100, 1.0..7.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        with_threads(threads, move || {
            let ((reference, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_dense_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    None,
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
                let (resumed, _) =
                    try_resume_run_to_fixpoint_dense_with(alg, g, cap, strategy, ckpt).unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint);
            }
        });
    }
}

#[test]
fn switching_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E3);
    let g = gnm_graph(40, 100, 1.0..7.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    let strategy = EngineStrategy::default();
    // Aggressive thresholds so the run actually flips representation
    // mid-flight — checkpoints land on both sides of the switch.
    let thresholds = SwitchThresholds {
        row_density: 0.1,
        saturation: 0.1,
        revert: 0.01,
        budget_bytes: None,
    };
    for threads in THREADS {
        let (g, alg) = (&g, &alg);
        with_threads(threads, move || {
            let ((reference, _), checkpoints) = capture_all(|sink| {
                try_run_checkpointed_switching_with(
                    alg,
                    g,
                    cap,
                    strategy,
                    thresholds,
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
                let (resumed, _) = try_resume_run_to_fixpoint_switching_with(
                    alg, g, cap, strategy, thresholds, ckpt,
                )
                .unwrap();
                assert_eq!(resumed.states, reference.states, "hop {}", ckpt.hop);
                assert_eq!(resumed.iterations, reference.iterations, "hop {}", ckpt.hop);
                assert_eq!(resumed.fixpoint, reference.fixpoint);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------

#[test]
fn oracle_every_checkpoint_resumes_bit_identically_across_threads() {
    let mut rng = StdRng::seed_from_u64(0xC4E4);
    let g = gnm_graph(60, 150, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.15, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 4);
    let cap = 4 * g.n();
    let strategy = EngineStrategy::default();
    for threads in THREADS {
        let (sim, alg) = (&sim, &alg);
        with_threads(threads, move || {
            let reference = oracle_run_with(alg, sim, cap, strategy);
            let (_, checkpoints) = capture_all(|sink| {
                try_oracle_run_checkpointed_with(
                    alg,
                    sim,
                    cap,
                    strategy,
                    CheckpointPolicy::every_levels(1),
                    |c| {
                        sink.lock().unwrap().push(c.clone());
                        Ok(())
                    },
                )
                .unwrap()
            });
            assert!(
                !checkpoints.is_empty(),
                "oracle run too short to checkpoint"
            );
            for ckpt in &checkpoints {
                let (resumed, report) =
                    try_resume_oracle_run_with(alg, sim, cap, strategy, ckpt).unwrap();
                assert_eq!(resumed.states, reference.states, "round {}", ckpt.hop);
                assert_eq!(
                    resumed.h_iterations, reference.h_iterations,
                    "round {}",
                    ckpt.hop
                );
                assert_eq!(resumed.fixpoint, reference.fixpoint);
                assert_eq!(report.converged, reference.converged);
            }
        });
    }
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
    let strategy = EngineStrategy::default();
    let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);
    let (_, checkpoints) = capture_all(|sink| {
        try_run_checkpointed_with(
            &alg,
            &g,
            cap,
            strategy,
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
        let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
        let decoded = SnapshotReader::decode(&image)
            .expect("snapshot decodes")
            .checkpoint()
            .expect("checkpoint section decodes");
        assert_eq!(&decoded, ckpt, "roundtrip changed the checkpoint");
        let (resumed, _) =
            try_resume_run_to_fixpoint_with(&alg, &g, cap, strategy, &decoded).unwrap();
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
    let strategy = EngineStrategy::default();
    let reference = run_to_fixpoint_with(&alg, &g, cap, strategy);

    let dir = std::env::temp_dir().join(format!("mte_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.mte");

    // The "crashing" process: checkpoint to disk every hop, abandon the
    // run by erroring out of the sink after the second capture.
    let mut captures = 0;
    let aborted = try_run_checkpointed_with(
        &alg,
        &g,
        cap,
        strategy,
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
    let (resumed, _) = try_resume_run_to_fixpoint_with(&alg, &g, cap, strategy, &ckpt).unwrap();
    assert_eq!(resumed.states, reference.states);
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.fixpoint, reference.fixpoint);
    std::fs::remove_dir_all(&dir).unwrap();
}
