//! Randomized cross-validation: the paper's equivalences checked on
//! proptest-generated graphs (sizes kept small so shrinking stays fast).

use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::arena::oracle_run_arena_with_schedule;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::oracle_run_dense_with_schedule;
use metric_tree_embedding::core::engine::run_to_fixpoint;
use metric_tree_embedding::core::frt::le_list::{
    le_lists_approx_eq, le_lists_direct, le_lists_oracle, Ranks,
};
use metric_tree_embedding::core::oracle::oracle_run;
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::graph::algorithms::{apsp_by_squaring, shortest_path_diameter, sssp};
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A small random connected graph described by (n, extra edges, seed).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..24, 0usize..30, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gnm_graph(n, n - 1 + extra, 1.0..10.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 5.2 on random graphs, through every lane of the oracle's
    /// level loop: owned and dense APSP, and arena k-SSP (a truncating
    /// filter), each ≡ the same algorithm run on the explicit H.
    #[test]
    fn oracle_equals_explicit_h(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.1, &mut rng);
        let (h, cap) = (sim.explicit_h(), 4 * g.n());
        let apsp = SourceDetection::apsp(g.n());
        let kssp = SourceDetection::k_ssp(g.n(), 3);
        let lanes = [
            (oracle_run(&apsp, &sim, cap), run_to_fixpoint(&apsp, &h, cap)),
            (
                oracle_run_dense_with_schedule(&apsp, &sim, cap, true),
                run_to_fixpoint(&apsp, &h, cap),
            ),
            (
                oracle_run_arena_with_schedule(&kssp, &sim, cap, true),
                run_to_fixpoint(&kssp, &h, cap),
            ),
        ];
        for (via_oracle, via_h) in lanes {
            prop_assert!(via_oracle.fixpoint);
            for v in 0..g.n() {
                prop_assert!(via_oracle.states[v].approx_eq(&via_h.states[v], 1e-9));
            }
        }
    }

    /// Lemma 7.5 + Definition 7.3 on random graphs: oracle LE lists agree
    /// with direct LE lists on the explicit H.
    #[test]
    fn oracle_le_lists_equal_h_le_lists(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.2, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (a, _, _) = le_lists_oracle(&sim, &ranks, Some(4 * g.n()));
        let (b, _, _) = le_lists_direct(&sim.explicit_h(), &ranks);
        prop_assert!(le_lists_approx_eq(&a, &b, 1e-9));
    }

    /// Section 1.1: matrix squaring and Dijkstra agree on all pairs.
    #[test]
    fn squaring_equals_dijkstra(g in arb_graph()) {
        let (sq, _) = apsp_by_squaring(&g);
        for u in 0..g.n() as NodeId {
            let sp = sssp(&g, u);
            for v in 0..g.n() {
                let (a, b) = (sq[u as usize][v].value(), sp.dist(v as NodeId).value());
                prop_assert!((a - b).abs() <= 1e-9 * a.max(b).max(1.0));
            }
        }
    }

    /// FRT dominance on random graphs, through the exact sampler.
    #[test]
    fn frt_dominance_random(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = metric_tree_embedding::core::frt::sample_direct(&g, &mut rng);
        for u in 0..g.n() as NodeId {
            let sp = sssp(&g, u);
            for v in 0..g.n() as NodeId {
                prop_assert!(s.tree.leaf_distance(u, v) >= sp.dist(v).value() - 1e-9);
            }
        }
    }

    /// Distributed (Khan) LE lists equal centralized ones on random
    /// graphs.
    #[test]
    fn khan_equals_centralized(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (distributed, _) =
            metric_tree_embedding::congest::khan::khan_le_lists(&g, &ranks);
        let (central, _, _) = le_lists_direct(&g, &ranks);
        prop_assert!(le_lists_approx_eq(&distributed, &central, 1e-9));
    }
}
