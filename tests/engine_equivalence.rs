//! Differential tests for the engine: the frontier-driven sparse
//! schedule must be **bit-identical** to the literal Eq. (2.17) loop
//! (`iterate` until the first unchanged hop) on every workload — the
//! skip criterion ("no input of `v` changed, so `x_v` cannot change")
//! is exact, not approximate — while doing strictly less relaxation
//! work whenever convergence leaves vertices quiescent before the run
//! ends.

mod common;

use common::literal_fixpoint;
use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::catalog::{Connectivity, SourceDetection, WidestPaths};
use metric_tree_embedding::core::engine::{run, MbfAlgorithm, MbfRun, OwnedBackend};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::run::run_to_fixpoint_on;
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs `alg` to the fixpoint on the owned engine and asserts exact
/// state equality, identical iteration counts and fixpoint flags
/// against the literal loop. Returns (literal, frontier) runs for work
/// assertions.
fn assert_matches_literal<A>(
    alg: &A,
    g: &Graph,
    cap: usize,
) -> (
    MbfRun<<A as MbfAlgorithm>::M>,
    MbfRun<<A as MbfAlgorithm>::M>,
)
where
    A: MbfAlgorithm,
    A::M: PartialEq + std::fmt::Debug,
{
    let literal = literal_fixpoint(alg, g, cap);
    let frontier = run_to_fixpoint_on(OwnedBackend::new(), alg, g, cap);
    assert_eq!(
        frontier.states, literal.states,
        "the frontier schedule diverged from the literal loop"
    );
    assert_eq!(frontier.iterations, literal.iterations, "iteration count");
    assert_eq!(frontier.fixpoint, literal.fixpoint, "fixpoint flag");
    (literal, frontier)
}

/// The workload families named by the engine issue: sparse random
/// graphs, grids, and disconnected graphs.
fn workload_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xEF11);
    let mut disconnected: Vec<(NodeId, NodeId, f64)> =
        gnm_graph(20, 40, 1.0..8.0, &mut rng).edges().collect();
    // A second component, offset by 20, plus two isolated vertices.
    disconnected.extend(
        gnm_graph(14, 25, 1.0..8.0, &mut rng)
            .edges()
            .map(|(u, v, w)| (u + 20, v + 20, w)),
    );
    vec![
        ("gnm sparse", gnm_graph(60, 140, 1.0..10.0, &mut rng)),
        ("grid 8x8", grid_graph(8, 8, 1.0..5.0, &mut rng)),
        ("path", path_graph(48, 1.0)),
        ("disconnected", Graph::from_edges(36, disconnected)),
    ]
}

#[test]
fn sssp_strategies_bit_identical_on_workloads() {
    for (name, g) in workload_graphs() {
        let alg = SourceDetection::sssp(g.n(), 0);
        let (literal, frontier) = assert_matches_literal(&alg, &g, g.n() + 1);
        // Convergent instances must see strictly fewer relaxations.
        assert!(
            frontier.work.edge_relaxations < literal.work.edge_relaxations,
            "{name}: frontier {} !< literal {}",
            frontier.work.edge_relaxations,
            literal.work.edge_relaxations
        );
    }
}

#[test]
fn apsp_restricted_strategies_bit_identical_on_workloads() {
    for (name, g) in workload_graphs() {
        // k-SSP: APSP restricted to the 4 closest sources per node.
        let alg = SourceDetection::k_ssp(g.n(), 4);
        let (literal, frontier) = assert_matches_literal(&alg, &g, g.n() + 1);
        assert!(
            frontier.work.edge_relaxations < literal.work.edge_relaxations,
            "{name}: frontier {} !< literal {}",
            frontier.work.edge_relaxations,
            literal.work.edge_relaxations
        );
    }
}

#[test]
fn le_list_strategies_bit_identical_on_workloads() {
    let mut rng = StdRng::seed_from_u64(0xEF12);
    for (name, g) in workload_graphs() {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let alg = LeListAlgorithm::new(ranks);
        let (literal, frontier) = assert_matches_literal(&alg, &g, g.n() + 1);
        assert!(
            frontier.work.edge_relaxations < literal.work.edge_relaxations,
            "{name}: frontier {} !< literal {}",
            frontier.work.edge_relaxations,
            literal.work.edge_relaxations
        );
    }
}

#[test]
fn widest_paths_and_connectivity_strategies_agree() {
    // Non-min-plus semirings exercise the generic pull-recompute path.
    for (_, g) in workload_graphs() {
        assert_matches_literal(&WidestPaths::apwp(g.n()), &g, g.n() + 1);
        assert_matches_literal(&Connectivity::all_pairs(g.n()), &g, g.n() + 1);
    }
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
        let capped = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, h);
        assert_eq!(capped.states, exact.states, "h = {h}");
    }
}

// ---------------------------------------------------------------------
// Thread-count determinism: under the real thread-parallel rayon
// backend, every output must be bit-identical across `MTE_THREADS`
// values. The shim guarantees this by construction (fixed-shape
// reduction trees, thread-count-independent chunk layout); these tests
// pin the guarantee end to end for the engine, the oracle, and the FRT
// pipeline. Graphs are sized ≥ 2 × the chunking granularity so the
// multi-threaded runs genuinely split work across chunks.
// ---------------------------------------------------------------------

/// Runs `f` on a dedicated pool of the given total parallelism.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

#[test]
fn engine_outputs_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xD371);
    let g = gnm_graph(400, 1200, 1.0..9.0, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 6);
    let fixpoint = || run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
    let r1 = with_threads(1, fixpoint);
    let r4 = with_threads(4, fixpoint);
    assert_eq!(r1.states, r4.states, "states differ");
    assert_eq!(r1.work, r4.work, "work counters differ");
    assert_eq!(r1.iterations, r4.iterations);
    assert_eq!(r1.fixpoint, r4.fixpoint);
}

#[test]
fn oracle_outputs_bit_identical_across_thread_counts() {
    use metric_tree_embedding::core::oracle::oracle_run;
    use metric_tree_embedding::core::simgraph::SimulatedGraph;
    let mut rng = StdRng::seed_from_u64(0xD372);
    let g = gnm_graph(160, 420, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 24, 0.15, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 5);
    let r1 = with_threads(1, || oracle_run(&alg, &sim, 4 * g.n()));
    let r4 = with_threads(4, || oracle_run(&alg, &sim, 4 * g.n()));
    assert_eq!(r1.states, r4.states, "states differ");
    assert_eq!(r1.work, r4.work, "work counters differ");
    assert_eq!(r1.h_iterations, r4.h_iterations);
    assert_eq!(r1.fixpoint, r4.fixpoint);
}

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

    /// Random-graph differential fuzz: SSSP, 3-SSP, and LE lists against
    /// the literal loop on arbitrary (possibly disconnected) graphs.
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
        let cap = g.n() + 1;

        let sssp = SourceDetection::sssp(g.n(), (seed % n as u64) as NodeId);
        assert_matches_literal(&sssp, &g, cap);

        let kssp = SourceDetection::k_ssp(g.n(), 3);
        assert_matches_literal(&kssp, &g, cap);

        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        assert_matches_literal(&LeListAlgorithm::new(ranks), &g, cap);
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
        let frontier = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
        prop_assert!(frontier.work.edge_relaxations <= literal.work.edge_relaxations);
        prop_assert!(frontier.work.touched_vertices <= literal.work.touched_vertices);
    }
}
