//! Baseline FRT samplers the paper compares against (Section 1.1).
//!
//! * [`sample_from_metric`] — Blelloch et al. \[10\]: the input is an
//!   explicit metric (`Θ(n²)` work just to read it); a metric is a
//!   complete graph of SPD 1, so one MBF-like iteration produces the LE
//!   lists.
//! * [`sample_direct`] — Khan et al. \[26\] run on `G` itself:
//!   `SPD(G) + 1` filtered iterations; exact but `Θ(SPD(G))` depth.

use crate::frt::le_list::{le_lists_direct, le_lists_from_metric, LeList, Ranks};
use crate::frt::tree::FrtTree;
use crate::work::WorkStats;
use mte_algebra::Dist;
use mte_graph::Graph;
use rand::Rng;
use std::sync::Arc;

/// An FRT sample together with its provenance and cost.
#[derive(Clone, Debug)]
pub struct BaselineSample {
    /// The sampled tree.
    pub tree: FrtTree,
    /// The random order used.
    pub ranks: Arc<Ranks>,
    /// The LE lists backing the tree.
    pub le_lists: Vec<LeList>,
    /// MBF-like iterations executed.
    pub iterations: usize,
    /// Work accounting.
    pub work: WorkStats,
}

/// Samples an FRT tree from an explicit metric, given as a full distance
/// matrix, following Blelloch et al. \[10\]. `omega_min` must lower-bound
/// the minimum positive pairwise distance.
pub fn sample_from_metric(
    dist: &[Vec<Dist>],
    omega_min: f64,
    rng: &mut impl Rng,
) -> BaselineSample {
    let n = dist.len();
    let ranks = Arc::new(Ranks::sample(n, rng));
    let beta = rng.gen_range(1.0..2.0);
    let (le_lists, work) = le_lists_from_metric(dist, &ranks);
    let tree = FrtTree::from_le_lists(&le_lists, &ranks, beta, omega_min);
    BaselineSample {
        tree,
        ranks,
        le_lists,
        iterations: 1,
        work,
    }
}

/// Samples an FRT tree of the exact metric of `G` by direct LE-list
/// iteration on `G` (Khan et al. \[26\]).
pub fn sample_direct(g: &Graph, rng: &mut impl Rng) -> BaselineSample {
    let ranks = Arc::new(Ranks::sample(g.n(), rng));
    let beta = rng.gen_range(1.0..2.0);
    let (le_lists, iterations, work) = le_lists_direct(g, &ranks);
    let tree = FrtTree::from_le_lists(&le_lists, &ranks, beta, g.min_weight());
    BaselineSample {
        tree,
        ranks,
        le_lists,
        iterations,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn metric_and_direct_baselines_agree_given_same_randomness() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = gnm_graph(25, 60, 1.0..8.0, &mut rng);
        let exact = apsp(&g);
        // Same seed stream for both samplers ⇒ identical permutation & β
        // ⇒ identical trees.
        let mut rng_a = StdRng::seed_from_u64(72);
        let mut rng_b = StdRng::seed_from_u64(72);
        let a = sample_from_metric(&exact, g.min_weight(), &mut rng_a);
        let b = sample_direct(&g, &mut rng_b);
        assert!(crate::frt::le_list::le_lists_approx_eq(
            &a.le_lists,
            &b.le_lists,
            1e-9
        ));
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                let (x, y) = (a.tree.leaf_distance(u, v), b.tree.leaf_distance(u, v));
                assert!(
                    (x - y).abs() <= 1e-9 * x.max(y).max(1.0),
                    "({u},{v}): {x} vs {y}"
                );
            }
        }
        // The metric baseline pays Θ(n²) reads; direct pays per-iteration
        // sparse work.
        assert!(a.work.entries_processed >= (g.n() * g.n()) as u64 / 2);
    }

    #[test]
    fn forest_mean_distance_estimates_expected_stretch() {
        // Definition 7.1: every tree dominates the metric, and the mean
        // over independent samples estimates the expected tree distance,
        // which is within O(log n) of the graph distance for every pair.
        let mut rng = StdRng::seed_from_u64(501);
        let g = gnm_graph(40, 100, 1.0..10.0, &mut rng);
        let exact = apsp(&g);
        let trees: Vec<FrtTree> = (0..16).map(|_| sample_direct(&g, &mut rng).tree).collect();
        let mut worst: f64 = 0.0;
        for u in 0..g.n() as u32 {
            for v in (u + 1)..g.n() as u32 {
                let dg = exact[u as usize][v as usize].value();
                for t in &trees {
                    assert!(t.leaf_distance(u, v) >= dg - 1e-9, "dominance ({u},{v})");
                }
                let mean = trees.iter().map(|t| t.leaf_distance(u, v)).sum::<f64>() / 16.0;
                worst = worst.max(mean / dg);
            }
        }
        // Expected stretch O(log n); 16 samples tame the variance.
        assert!(
            worst <= 10.0 * (g.n() as f64).log2(),
            "worst mean stretch {worst}"
        );
    }

    #[test]
    fn direct_iterations_bounded_by_spd_plus_one() {
        // Definition 2.11 guarantees a fixpoint after ≤ SPD(G) + 1
        // iterations; the LE filter typically converges even earlier
        // (once every surviving entry has propagated).
        let mut rng = StdRng::seed_from_u64(73);
        let g = mte_graph::generators::path_graph(32, 1.0);
        let s = sample_direct(&g, &mut rng);
        assert!(s.iterations <= 32, "took {} iterations", s.iterations);
        assert!(s.iterations >= 2);
    }
}
