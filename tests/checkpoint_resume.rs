//! Checkpoint/resume differential suite: a run interrupted at *any* hop
//! and resumed from its checkpoint is **bit-identical** to the
//! uninterrupted run — same states, same hop counts, same fixpoint flags
//! — on every backend (literal, arena, dense, and the oracle over its
//! arena and dense lanes), resumed on another thread count than the run
//! was captured on, with the distance-map checkpoints roundtripped
//! through the snapshot codec. Those tests run their slices of the
//! conformance matrix (`tests/common/matrix.rs`); the last one resumes
//! from the snapshot file alone after a simulated crash. The
//! recovery-ladder variants (resume after an injected fault) live in
//! `tests/fault_harness.rs`.

mod common;

use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::engine::LiteralBackend;
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, try_run_on, CheckpointPolicy,
};
use metric_tree_embedding::persist::{SnapshotReader, SnapshotWriter};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

crate::slice_tests! {
    literal_every_checkpoint_resumes_bit_identically_across_threads,
    arena_every_checkpoint_resumes_bit_identically_across_threads,
    dense_every_checkpoint_resumes_bit_identically_across_threads,
    oracle_every_checkpoint_resumes_bit_identically_across_threads,
    persist_roundtripped_checkpoints_resume_bit_identically,
}

/// A crash after *writing* but before the run finished: the snapshot on
/// disk is the only artifact. Resume from the file alone.
#[test]
fn resume_from_disk_after_simulated_crash() {
    let g = gnm_graph(70, 170, 1.0..9.0, &mut StdRng::seed_from_u64(0xC4E0));
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
