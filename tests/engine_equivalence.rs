//! Differential tests for the engine: the frontier-driven sparse
//! schedule must be **bit-identical** to the literal Eq. (2.17) loop
//! (`iterate` until the first unchanged hop) while never relaxing more
//! edges. The strategy and thread tests run their slices of the
//! conformance matrix (`tests/common/matrix.rs`); the rest check runs
//! capped short of convergence against the exact-`h` literal `run`, the
//! FRT pipeline across thread counts, and random (possibly
//! disconnected) graphs.

mod common;

use common::{assert_narrowed_work, literal_fixpoint, with_threads};
use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::arena::{ArenaBackend, ArenaMbfAlgorithm};
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::engine::run;
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::run::run_to_fixpoint_on;
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs `alg` to the fixpoint on the arena and asserts exact state
/// equality, identical iteration counts and fixpoint flags against the
/// literal loop, with no more work.
fn assert_matches_literal<A: ArenaMbfAlgorithm>(alg: &A, g: &Graph) {
    let cap = g.n() + 1;
    let literal = literal_fixpoint(alg, g, cap);
    let frontier = run_to_fixpoint_on(ArenaBackend::new(), alg, g, cap);
    assert_eq!(
        frontier.states, literal.states,
        "the frontier schedule diverged from the literal loop"
    );
    assert_eq!(frontier.iterations, literal.iterations, "iteration count");
    assert_eq!(frontier.fixpoint, literal.fixpoint, "fixpoint flag");
    assert_narrowed_work(&literal.work, &frontier.work, "arena");
}

crate::slice_tests! {
    sssp_strategies_bit_identical_on_workloads,
    apsp_restricted_strategies_bit_identical_on_workloads,
    le_list_strategies_bit_identical_on_workloads,
    widest_paths_and_connectivity_strategies_agree,
    engine_outputs_bit_identical_across_thread_counts,
    oracle_outputs_bit_identical_across_thread_counts,
}

#[test]
fn fixed_iteration_runs_agree_before_convergence() {
    // Runs capped at h hops must match the literal exact-h `run` (no
    // fixpoint shortcut) hop for hop, including h far beyond
    // convergence.
    let g = grid_graph(6, 6, 1.0..4.0, &mut StdRng::seed_from_u64(0xEF13));
    let alg = SourceDetection::apsp(g.n());
    for h in [0, 1, 2, 5, 40] {
        let exact = run(&alg, &g, h);
        let capped = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, h);
        assert_eq!(capped.states, exact.states, "h = {h}");
    }
}

/// Thread-count determinism end to end: the shim's fixed-shape
/// reduction trees and thread-count-independent chunk layout make the
/// whole FRT pipeline bit-identical across pool sizes. The graph is
/// sized ≥ 2 × the chunking granularity so the multi-threaded runs
/// genuinely split work across chunks.
#[test]
fn frt_pipeline_bit_identical_across_thread_counts() {
    use metric_tree_embedding::core::frt::{FrtConfig, FrtEmbedding};
    let mut rng = StdRng::seed_from_u64(0xD373);
    let g = gnm_graph(180, 520, 1.0..8.0, &mut rng);
    let sample = |threads: usize| {
        with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(0xBEE);
            FrtEmbedding::sample(&g, &FrtConfig::default(), &mut rng)
        })
    };
    let e1 = sample(1);
    let e4 = sample(4);
    assert_eq!(e1.beta().to_bits(), e4.beta().to_bits());
    assert_eq!(e1.h_iterations(), e4.h_iterations());
    assert_eq!(e1.work(), e4.work());
    assert_eq!(e1.tree().len(), e4.tree().len());
    for v in 0..g.n() as NodeId {
        assert_eq!(
            e1.le_lists()[v as usize].entries(),
            e4.le_lists()[v as usize].entries(),
            "LE list of node {v} differs"
        );
        assert_eq!(e1.tree().leaf(v), e4.tree().leaf(v));
    }
    for u in (0..g.n() as NodeId).step_by(7) {
        for v in (0..g.n() as NodeId).step_by(11) {
            assert_eq!(
                e1.distance(u, v).to_bits(),
                e4.distance(u, v).to_bits(),
                "embedded distance ({u},{v}) differs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random-graph differential fuzz: SSSP, 3-SSP, and LE lists on the
    /// arena against the literal loop on arbitrary (possibly
    /// disconnected) graphs.
    #[test]
    fn random_graphs_all_strategies_agree(
        n in 2usize..28,
        extra in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Two independent components (the second offset past the first)
        // keep the disconnected case — the degenerate one worth fuzzing —
        // in every batch.
        let n2 = 1 + n / 3;
        let mut edges: Vec<(NodeId, NodeId, f64)> =
            gnm_graph(n, (n - 1 + extra).min(n * (n - 1) / 2), 1.0..9.0, &mut rng)
                .edges()
                .collect();
        if n2 >= 2 {
            edges.extend(
                gnm_graph(n2, n2 - 1, 1.0..9.0, &mut rng)
                    .edges()
                    .map(|(u, v, w)| (u + n as NodeId, v + n as NodeId, w)),
            );
        }
        let g = Graph::from_edges(n + n2, edges);

        assert_matches_literal(&SourceDetection::sssp(g.n(), (seed % n as u64) as NodeId), &g);
        assert_matches_literal(&SourceDetection::k_ssp(g.n(), 3), &g);
        let le = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
        assert_matches_literal(&le, &g);
    }

    /// The frontier engine's relaxation count never exceeds the literal
    /// loop's, on any random graph.
    #[test]
    fn frontier_work_never_exceeds_dense(
        n in 2usize..24,
        extra in 0usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnm_graph(n, (n - 1 + extra).min(n * (n - 1) / 2), 1.0..9.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let frontier = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        prop_assert!(frontier.work.edge_relaxations <= literal.work.edge_relaxations);
        prop_assert!(frontier.work.touched_vertices <= literal.work.touched_vertices);
    }
}
