//! Sampling from the FRT distribution (Section 7 of the paper) — the
//! main result: a metric tree embedding of expected stretch `O(log n)`
//! computed at polylog depth with `Õ(m^{1+ε})` work (Theorem 7.9,
//! Corollary 7.10), or `Õ(m + n^{1+1/k+ε})` work and `O(k log n)` stretch
//! with spanner preprocessing (Corollary 7.11).
//!
//! Pipeline (Sections 4–7):
//!
//! ```text
//! G  ──(optional Baswana–Sen spanner)──▶ G_k
//!    ──(hop set, Cohen \[13\] / hub substitute)──▶ G'
//!    ──(levels + penalties, Section 4)──▶ H   (implicit!)
//!    ──(oracle LE-list computation, Sections 5, 7.2–7.3)──▶ LE lists
//!    ──(Lemma 7.2)──▶ FRT tree
//! ```

pub mod baseline;
pub mod le_list;
pub mod paths;
pub mod tree;

pub use baseline::{sample_direct, sample_from_metric, BaselineSample};
pub use le_list::{
    le_filter_entries, le_lists_direct, le_lists_from_metric, le_lists_oracle, LeFilter, LeList,
    LeListAlgorithm, Ranks,
};
pub use paths::{embed_all_tree_edges, embed_tree_edge, EmbeddedTreeEdge};
pub use tree::{FrtNode, FrtTree};

use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_graph::hopset::HopsetConfig;
use mte_graph::spanner::baswana_sen_spanner;
use mte_graph::Graph;
use rand::Rng;
use std::sync::Arc;

/// Configuration of the FRT sampling pipeline.
#[derive(Clone, Debug)]
pub struct FrtConfig {
    /// Hop-set parameters for building `G'` (docs/DESIGN.md §3 substitution 2).
    pub hopset: HopsetConfig,
    /// Level penalty base `ε̂` of the simulated graph (Section 4); the
    /// paper uses `ε̂ ∈ 1/polylog n`.
    pub eps_hat: f64,
    /// Optional Baswana–Sen spanner preprocessing with parameter `k`
    /// (Corollary 7.11): reduces work on dense graphs at the cost of a
    /// `(2k−1)` stretch factor.
    pub spanner_k: Option<usize>,
    /// Cap on simulated `H`-iterations (`None` = automatic `O(log² n)`).
    pub max_iterations: Option<usize>,
}

impl Default for FrtConfig {
    fn default() -> Self {
        FrtConfig {
            hopset: HopsetConfig::default(),
            eps_hat: 0.05,
            spanner_k: None,
            max_iterations: None,
        }
    }
}

/// A sample from the FRT distribution of (the `(1+o(1))`-approximation
/// `H` of) `G`, with full provenance.
#[derive(Clone, Debug)]
pub struct FrtEmbedding {
    tree: FrtTree,
    ranks: Arc<Ranks>,
    le_lists: Vec<LeList>,
    beta: f64,
    h_iterations: usize,
    work: WorkStats,
}

impl FrtEmbedding {
    /// Samples one tree via the paper's main pipeline
    /// (Theorem 7.9 / Corollaries 7.10 and 7.11).
    pub fn sample(g: &Graph, config: &FrtConfig, rng: &mut impl Rng) -> FrtEmbedding {
        let preprocessed;
        let input = match config.spanner_k {
            Some(k) if k > 1 => {
                preprocessed = baswana_sen_spanner(g, k, rng);
                &preprocessed
            }
            _ => g,
        };
        let sim = SimulatedGraph::build(input, &config.hopset, config.eps_hat, rng);
        Self::sample_on(&sim, config, rng)
    }

    /// Samples one tree on a pre-built simulated graph.
    fn sample_on(sim: &SimulatedGraph, config: &FrtConfig, rng: &mut impl Rng) -> FrtEmbedding {
        let n = sim.base().n();
        let ranks = Arc::new(Ranks::sample(n, rng));
        let beta = rng.gen_range(1.0..2.0);
        let (le_lists, h_iterations, work) = le_lists_oracle(sim, &ranks, config.max_iterations);
        let tree = FrtTree::from_le_lists(&le_lists, &ranks, beta, sim.base().min_weight());
        FrtEmbedding {
            tree,
            ranks,
            le_lists,
            beta,
            h_iterations,
            work,
        }
    }

    /// The sampled tree.
    #[inline]
    pub fn tree(&self) -> &FrtTree {
        &self.tree
    }

    /// The random node order.
    #[inline]
    pub fn ranks(&self) -> &Ranks {
        &self.ranks
    }

    /// The LE lists the tree was built from.
    #[inline]
    pub fn le_lists(&self) -> &[LeList] {
        &self.le_lists
    }

    /// The sampled `β ∈ [1, 2)`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Simulated `H`-iterations until fixpoint.
    #[inline]
    pub fn h_iterations(&self) -> usize {
        self.h_iterations
    }

    /// Work spent by the LE-list computation.
    #[inline]
    pub fn work(&self) -> WorkStats {
        self.work
    }

    /// Embedded distance between two graph vertices.
    #[inline]
    pub fn distance(&self, u: mte_algebra::NodeId, v: mte_algebra::NodeId) -> f64 {
        self.tree.leaf_distance(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_algebra::NodeId;
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_pipeline_dominates_and_has_bounded_average_stretch() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = gnm_graph(60, 150, 1.0..20.0, &mut rng);
        let dist = apsp(&g);
        let config = FrtConfig {
            hopset: HopsetConfig {
                d: 7,
                epsilon: 0.0,
                oversample: 3.0,
            },
            eps_hat: 0.05,
            spanner_k: None,
            max_iterations: None,
        };
        let trials = 8;
        let mut total = 0.0;
        let mut count = 0usize;
        for t in 0..trials {
            let mut trial_rng = StdRng::seed_from_u64(900 + t);
            let emb = FrtEmbedding::sample(&g, &config, &mut trial_rng);
            for u in 0..g.n() as NodeId {
                for v in (u + 1)..g.n() as NodeId {
                    let dt = emb.distance(u, v);
                    let dg = dist[u as usize][v as usize].value();
                    assert!(dt >= dg - 1e-9, "dominance violated ({u},{v})");
                    total += dt / dg;
                    count += 1;
                }
            }
        }
        let avg = total / count as f64;
        // Expected stretch O(log n): log₂ 60 ≈ 5.9; generous constant.
        assert!(avg < 8.0 * 5.9, "average stretch {avg}");
    }

    #[test]
    fn spanner_preprocessing_still_dominates() {
        let mut rng = StdRng::seed_from_u64(82);
        let g = gnm_graph(50, 300, 1.0..10.0, &mut rng);
        let dist = apsp(&g);
        let config = FrtConfig {
            hopset: HopsetConfig {
                d: 7,
                epsilon: 0.0,
                oversample: 3.0,
            },
            eps_hat: 0.05,
            spanner_k: Some(2),
            max_iterations: None,
        };
        let emb = FrtEmbedding::sample(&g, &config, &mut rng);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                assert!(emb.distance(u, v) >= dist[u as usize][v as usize].value() - 1e-9);
            }
        }
    }
}
