//! Cross-crate integration tests: the full pipelines of the paper, run
//! end to end on small instances and validated against exact references.

use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::apps::buyatbulk::{
    is_feasible, lower_bound, solve_buy_at_bulk, BuyAtBulkInstance, CableType, Demand,
};
use metric_tree_embedding::apps::kmedian::{kmedian_exhaustive, solve_kmedian};
use metric_tree_embedding::congest::khan::khan_frt;
use metric_tree_embedding::congest::skeleton::{skeleton_frt, SkeletonConfig};
use metric_tree_embedding::core::frt::paths::embed_all_tree_edges;
use metric_tree_embedding::core::metric::{approximate_metric, MetricConfig};
use metric_tree_embedding::graph::HopsetConfig;
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_hopset() -> HopsetConfig {
    HopsetConfig {
        d: 7,
        epsilon: 0.0,
        oversample: 3.0,
    }
}

/// G → hop set → H → oracle LE lists → FRT tree: dominance against exact
/// distances and sane structure.
#[test]
fn full_frt_pipeline_on_random_graph() {
    let mut rng = StdRng::seed_from_u64(201);
    let g = gnm_graph(48, 120, 1.0..15.0, &mut rng);
    let exact = apsp(&g);
    let config = FrtConfig {
        hopset: small_hopset(),
        eps_hat: 0.05,
        spanner_k: None,
        max_iterations: None,
    };
    let emb = FrtEmbedding::sample(&g, &config, &mut rng);
    let tree = emb.tree();
    for u in 0..g.n() as NodeId {
        assert_eq!(tree.nodes()[tree.leaf(u)].level, 0);
        for v in 0..g.n() as NodeId {
            let dt = emb.distance(u, v);
            let dg = exact[u as usize][v as usize].value();
            assert!(dt >= dg - 1e-9, "dominance violated at ({u},{v})");
        }
    }
    // LE lists are short.
    let max_le = emb.le_lists().iter().map(|l| l.len()).max().unwrap();
    assert!(max_le <= 6 * (g.n() as f64).ln().ceil() as usize);
}

/// Tree edges map back to real G-paths within the Section 7.5 bound —
/// through the full (hop set + oracle) pipeline.
#[test]
fn pipeline_tree_edges_embed_back() {
    let mut rng = StdRng::seed_from_u64(202);
    let g = gnm_graph(40, 100, 1.0..8.0, &mut rng);
    let config = FrtConfig {
        hopset: small_hopset(),
        eps_hat: 0.05,
        spanner_k: None,
        max_iterations: None,
    };
    let emb = FrtEmbedding::sample(&g, &config, &mut rng);
    for edge in embed_all_tree_edges(&g, emb.tree()) {
        let tree_weight = emb.tree().nodes()[edge.child].parent_weight;
        assert!(edge.weight <= 3.0 * tree_weight + 1e-9);
        for hop in edge.path.windows(2) {
            assert!(g.weight(hop[0], hop[1]).is_some() || hop[0] == hop[1]);
        }
    }
}

/// Theorem 6.1 through the whole stack, including the hop set.
#[test]
fn approximate_metric_pipeline() {
    let mut rng = StdRng::seed_from_u64(203);
    let g = gnm_graph(40, 100, 1.0..10.0, &mut rng);
    let exact = apsp(&g);
    let cfg = MetricConfig {
        hopset: small_hopset(),
        eps_hat: 0.03,
    };
    let metric = approximate_metric(&g, &cfg, &mut rng);
    for u in 0..g.n() {
        for v in 0..g.n() {
            let a = exact[u][v].value();
            let b = metric.dist(u as NodeId, v as NodeId).value();
            assert!(b >= a - 1e-9);
            if a > 0.0 {
                assert!(b / a <= 1.6, "ratio {} at ({u},{v})", b / a);
            }
        }
    }
}

/// The expected stretch across several pipeline samples is O(log n) with
/// a small constant on a 2D grid.
#[test]
fn pipeline_expected_stretch_grid() {
    let mut rng = StdRng::seed_from_u64(204);
    let g = grid_graph(6, 8, 1.0..4.0, &mut rng);
    let exact = apsp(&g);
    let config = FrtConfig {
        hopset: small_hopset(),
        eps_hat: 0.05,
        spanner_k: None,
        max_iterations: None,
    };
    let trees = 10;
    let mut acc = vec![vec![0.0f64; g.n()]; g.n()];
    for t in 0..trees {
        let mut r = StdRng::seed_from_u64(2000 + t);
        let emb = FrtEmbedding::sample(&g, &config, &mut r);
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                acc[u][v] += emb.distance(u as NodeId, v as NodeId);
            }
        }
    }
    let mut worst: f64 = 0.0;
    for u in 0..g.n() {
        for v in (u + 1)..g.n() {
            worst = worst.max(acc[u][v] / trees as f64 / exact[u][v].value());
        }
    }
    // O(log n) with a generous constant (single-digit trials).
    assert!(
        worst <= 10.0 * (g.n() as f64).log2(),
        "max expected stretch {worst}"
    );
}

/// The distributed pipelines agree with the guarantees: Khan's tree and
/// the skeleton tree both dominate; the whole thing runs end to end.
#[test]
fn congest_pipelines_run_end_to_end() {
    let mut rng = StdRng::seed_from_u64(205);
    let g = gnm_graph(36, 90, 1.0..6.0, &mut rng);
    let exact = apsp(&g);

    let (khan_tree, _, khan_cost) = khan_frt(&g, &mut rng);
    assert!(khan_cost.rounds > 0);
    let skel = skeleton_frt(&g, &SkeletonConfig::default(), &mut rng);
    for u in 0..g.n() as NodeId {
        for v in 0..g.n() as NodeId {
            let dg = exact[u as usize][v as usize].value();
            assert!(khan_tree.leaf_distance(u, v) >= dg - 1e-9);
            assert!(skel.tree.leaf_distance(u, v) >= dg - 1e-9);
        }
    }
}

/// k-median through the full stack stays within a small factor of the
/// exhaustive optimum.
#[test]
fn kmedian_end_to_end_quality() {
    let mut rng = StdRng::seed_from_u64(206);
    let g = grid_graph(4, 5, 1.0..3.0, &mut rng);
    let opt = kmedian_exhaustive(&g, 3);
    let sol = solve_kmedian(
        &g,
        &KMedianConfig {
            k: 3,
            oversample: 4.0,
            trees: 6,
        },
        &mut rng,
    );
    assert!(sol.centers.len() <= 3);
    assert!(
        sol.cost <= 3.0 * opt.cost + 1e-9,
        "{} vs opt {}",
        sol.cost,
        opt.cost
    );
}

/// Buy-at-bulk through the full stack: feasible, above the lower bound,
/// within the expected O(log n) factor.
#[test]
fn buyatbulk_end_to_end_quality() {
    let mut rng = StdRng::seed_from_u64(207);
    let g = grid_graph(5, 5, 2.0..10.0, &mut rng);
    let inst = BuyAtBulkInstance {
        cables: vec![
            CableType {
                capacity: 1.0,
                cost: 1.0,
            },
            CableType {
                capacity: 8.0,
                cost: 3.0,
            },
        ],
        demands: vec![
            Demand {
                s: 0,
                t: 24,
                amount: 2.0,
            },
            Demand {
                s: 4,
                t: 20,
                amount: 5.0,
            },
            Demand {
                s: 2,
                t: 22,
                amount: 1.0,
            },
        ],
    };
    let sol = solve_buy_at_bulk(&g, &inst, &mut rng);
    assert!(is_feasible(&inst, &sol));
    let lb = lower_bound(&g, &inst);
    assert!(sol.total_cost >= lb - 1e-9);
    assert!(sol.total_cost <= 20.0 * (g.n() as f64).log2() * lb);
}

/// Determinism: the same seed yields the same embedding.
#[test]
fn sampling_is_deterministic_given_seed() {
    let g = gnm_graph(30, 80, 1.0..9.0, &mut StdRng::seed_from_u64(208));
    let config = FrtConfig {
        hopset: small_hopset(),
        eps_hat: 0.05,
        spanner_k: None,
        max_iterations: None,
    };
    let a = FrtEmbedding::sample(&g, &config, &mut StdRng::seed_from_u64(209));
    let b = FrtEmbedding::sample(&g, &config, &mut StdRng::seed_from_u64(209));
    assert_eq!(a.beta(), b.beta());
    for u in 0..g.n() as NodeId {
        for v in 0..g.n() as NodeId {
            assert_eq!(a.distance(u, v), b.distance(u, v));
        }
    }
}

/// Section 6's closing remark: combining Theorem 6.2's O(1)-approximate
/// metric with the Blelloch et al. metric-input FRT sampler yields a tree
/// of the same asymptotic expected stretch.
#[test]
fn frt_from_approximate_metric_composes() {
    use metric_tree_embedding::core::frt::sample_from_metric;
    use metric_tree_embedding::core::metric::approximate_metric_with_spanner;

    let mut rng = StdRng::seed_from_u64(210);
    let g = gnm_graph(40, 160, 1.0..8.0, &mut rng);
    let exact = apsp(&g);
    let cfg = MetricConfig {
        hopset: small_hopset(),
        eps_hat: 0.03,
    };
    let metric = approximate_metric_with_spanner(&g, 2, &cfg, &mut rng);
    let sample = sample_from_metric(metric.matrix(), g.min_weight(), &mut rng);
    for u in 0..g.n() as NodeId {
        for v in 0..g.n() as NodeId {
            // Dominance survives the composition: tree ≥ approx metric ≥ exact.
            assert!(
                sample.tree.leaf_distance(u, v) >= exact[u as usize][v as usize].value() - 1e-9
            );
        }
    }
}
