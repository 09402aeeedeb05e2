//! `(d, ε̂)`-hop sets: extra edges `E'` such that the `d`-hop distances of
//! the augmented graph `(1+ε̂)`-approximate the true distances
//! (Equation (1.3) of the paper).
//!
//! The paper plugs in Cohen's polylog-depth construction \[13\]; its *only*
//! property consumed downstream is Equation (1.3). We substitute a
//! **sampled-hub hop set** in the spirit of Ullman–Yannakakis /
//! Klein–Subramanian (documented in docs/DESIGN.md §3): sample each vertex as a
//! hub with probability `Θ(log n / d)`; connect every pair of hubs by a
//! shortcut edge of weight `dist(h, h', G)` (optionally inflated by
//! `(1+ε̂)` to exercise the approximate code paths downstream).
//!
//! **Why this is a `(d, ε̂)`-hop set (w.h.p.):** fix for each node pair a
//! canonical min-hop shortest path. If it has `≤ d` hops nothing is
//! needed. Otherwise both its prefix of `⌊(d−1)/2⌋` vertices and suffix of
//! `⌊(d−1)/2⌋` vertices contain a hub w.h.p.; replacing the stretch
//! between the first and last such hub by one shortcut edge yields a path
//! with `≤ 2⌊(d−1)/2⌋ + 1 ≤ d` hops and weight at most
//! `(1+ε̂)·dist(v,w,G)` (the shortcut weight is at most `(1+ε̂)` times the
//! weight of the subpath it replaces).
//!
//! # Parallel structure
//!
//! The hub sample is drawn sequentially, in vertex order, from the
//! caller's rng. The shortcut clique is then one task per hub
//! (`with_min_len(1)`: the few hundred hub searches are coarse and
//! skewed, so every hub is its own unit of load balancing). A task runs
//! the shared Dijkstra kernel ([`crate::algorithms`]) and returns only
//! its `O(|hubs|)` shortcut edges, so the transient footprint is one
//! search's buffers per in-flight task rather than a `|hubs| × n`
//! distance table. The output is deterministic: each task's edges
//! depend only on its hub and on `g`, and the parallel collect returns
//! them in hub order regardless of which thread ran which hub.

use crate::algorithms::DijkstraRun;
use crate::graph::Graph;
use mte_algebra::NodeId;
use rand::Rng;
use rayon::prelude::*;

/// Configuration for the hop-set construction.
#[derive(Clone, Debug)]
pub struct HopsetConfig {
    /// The hop budget `d ≥ 3`. Smaller `d` means more hubs and more
    /// shortcut edges.
    pub d: usize,
    /// Weight inflation `ε̂ ≥ 0` applied to shortcut edges. `0` yields an
    /// exact `(d, 0)`-hop set; positive values exercise the
    /// approximation-tolerant downstream pipeline (Observation 1.1).
    pub epsilon: f64,
    /// Oversampling factor for the hub probability `c·ln n / ⌊(d−1)/2⌋`.
    pub oversample: f64,
}

impl Default for HopsetConfig {
    fn default() -> Self {
        HopsetConfig {
            d: 17,
            epsilon: 0.0,
            oversample: 2.0,
        }
    }
}

impl HopsetConfig {
    /// A hop budget balancing the two work terms of the oracle pipeline:
    /// `d·m` (iterating `G'`) against `d·|hubs|²` with
    /// `|hubs| ≈ 2·c·n·ln n/d`, minimized at `d* ≈ 2c·n·ln n/√m`.
    /// The asymptotic `Õ(m^{1+ε})` regime corresponds to `d = n^ε`; this
    /// constructor picks the sweet spot for concrete instance sizes.
    pub fn for_scale(n: usize, m: usize) -> HopsetConfig {
        let c = 2.0;
        let d_star =
            2.0 * c * (n.max(2) as f64) * (n.max(2) as f64).ln() / (m.max(1) as f64).sqrt();
        let d = (d_star as usize).clamp(9, n.max(9));
        HopsetConfig {
            d,
            epsilon: 0.0,
            oversample: c,
        }
    }
}

/// A computed hop set: the shortcut edges plus the parameters they realize.
#[derive(Clone, Debug)]
pub struct Hopset {
    /// Shortcut edges to add to `G`.
    pub edges: Vec<(NodeId, NodeId, f64)>,
    /// The hop budget the construction targets.
    pub d: usize,
    /// The approximation parameter `ε̂`.
    pub epsilon: f64,
    /// The sampled hubs.
    pub hubs: Vec<NodeId>,
}

impl Hopset {
    /// Builds the hop set for `g`.
    ///
    /// Panics unless `d ≥ 3`, `oversample` is finite and positive, and
    /// `epsilon` is finite and non-negative.
    pub fn build(g: &Graph, config: &HopsetConfig, rng: &mut impl Rng) -> Hopset {
        assert!(config.d >= 3, "hop budget must be at least 3");
        assert!(
            config.oversample.is_finite() && config.oversample > 0.0,
            "oversampling factor must be finite and positive, got {}",
            config.oversample
        );
        assert!(
            config.epsilon.is_finite() && config.epsilon >= 0.0,
            "epsilon must be finite and non-negative, got {}",
            config.epsilon
        );
        let n = g.n();
        let segment = ((config.d - 1) / 2).max(1);
        let p = (config.oversample * (n.max(2) as f64).ln() / segment as f64).min(1.0);

        let hubs: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.gen_bool(p)).collect();

        // Shortcut clique over the hubs: one task per hub (see "Parallel
        // structure" in the module docs), each keeping only the shortcut
        // edges to later hubs.
        let inflate = 1.0 + config.epsilon;
        let hubs_ref: &[NodeId] = &hubs;
        let per_hub: Vec<Vec<(NodeId, NodeId, f64)>> = hubs
            .par_iter()
            .enumerate()
            .with_min_len(1)
            .map(|(i, &h)| {
                let run = DijkstraRun::new(g, &[h]);
                hubs_ref[i + 1..]
                    .iter()
                    .filter_map(|&h2| {
                        let d = run.dist(h2);
                        (d.is_finite() && d.value() > 0.0).then(|| (h, h2, d.value() * inflate))
                    })
                    .collect()
            })
            .collect();
        Hopset {
            edges: per_hub.concat(),
            d: config.d,
            epsilon: config.epsilon,
            hubs,
        }
    }

    /// Number of shortcut edges `|E'|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff no shortcuts were added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// `G' = G + E'`: the augmented graph on which `d`-hop distances
    /// `(1+ε̂)`-approximate `dist(·,·,G)`.
    pub fn augment(&self, g: &Graph) -> Graph {
        g.augment(self.edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{sssp, sssp_hop_limited};
    use crate::generators::{gnm_graph, path_graph};
    use crate::testkit::{edge_digest, fnv1a, pinned_family, with_threads};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks Equation (1.3) on all pairs.
    fn check_hopset_property(g: &Graph, hs: &Hopset) {
        let aug = hs.augment(g);
        let bound = 1.0 + hs.epsilon + 1e-9;
        for s in 0..g.n() as NodeId {
            let exact = sssp(g, s);
            let hop = sssp_hop_limited(&aug, s, hs.d);
            for v in 0..g.n() {
                let e = exact.dist(v as NodeId).value();
                let h = hop[v].value();
                assert!(h >= e - 1e-9, "hop set may not shorten distances");
                assert!(
                    h <= e * bound + 1e-9,
                    "hop-set property violated at ({s},{v}): {h} > {bound}·{e}"
                );
            }
        }
    }

    #[test]
    fn path_graph_hopset_exact() {
        // SPD = n−1 without shortcuts; the hop set must compress it.
        let g = path_graph(64, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let hs = Hopset::build(
            &g,
            &HopsetConfig {
                d: 9,
                epsilon: 0.0,
                oversample: 3.0,
            },
            &mut rng,
        );
        check_hopset_property(&g, &hs);
    }

    #[test]
    fn random_graph_hopset_exact() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gnm_graph(80, 160, 1.0..20.0, &mut rng);
        let hs = Hopset::build(
            &g,
            &HopsetConfig {
                d: 7,
                epsilon: 0.0,
                oversample: 3.0,
            },
            &mut rng,
        );
        check_hopset_property(&g, &hs);
    }

    #[test]
    fn inflated_hopset_respects_epsilon() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnm_graph(60, 150, 1.0..10.0, &mut rng);
        let hs = Hopset::build(
            &g,
            &HopsetConfig {
                d: 7,
                epsilon: 0.25,
                oversample: 3.0,
            },
            &mut rng,
        );
        check_hopset_property(&g, &hs);
    }

    fn build_with(oversample: f64, epsilon: f64) -> Hopset {
        let g = path_graph(16, 1.0);
        let config = HopsetConfig {
            d: 5,
            epsilon,
            oversample,
        };
        Hopset::build(&g, &config, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    #[should_panic(expected = "oversampling factor must be finite and positive")]
    fn nan_oversample_rejected() {
        build_with(f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "oversampling factor must be finite and positive")]
    fn infinite_oversample_rejected() {
        build_with(f64::INFINITY, 0.0);
    }

    #[test]
    #[should_panic(expected = "oversampling factor must be finite and positive")]
    fn negative_oversample_rejected() {
        build_with(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn infinite_epsilon_rejected() {
        build_with(2.0, f64::INFINITY);
    }

    /// Hop-set digests per `(family, ε)`, recorded on the `BinaryHeap`
    /// Dijkstra with the default chunking that the shared kernel and
    /// per-hub tasks replaced. Each folds three seeds; a seed contributes
    /// the [`edge_digest`] of the shortcut edges (in output order), the
    /// hub list, and the next rng word after the call.
    const PINNED: [(&str, f64, u64); 6] = [
        ("gnm_real", 0.0, 0x505543319c10ef98),
        ("gnm_real", 0.1, 0x931b6d57cc521528),
        ("gnm_int", 0.0, 0x05ead99970bf3b8e),
        ("gnm_int", 0.1, 0xa6260281110de03d),
        ("disconnected", 0.0, 0xc17042adec92b8fc),
        ("disconnected", 0.1, 0x4d8133542a37f306),
    ];

    fn hopset_digest(family: &str, epsilon: f64) -> u64 {
        let config = HopsetConfig {
            d: 65,
            epsilon,
            oversample: 2.0,
        };
        fnv1a((1..=3u64).flat_map(|seed| {
            let g = pinned_family(family, seed);
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let hs = Hopset::build(&g, &config, &mut rng);
            [
                edge_digest(hs.edges.iter().copied()),
                fnv1a(hs.hubs.iter().map(|&h| u64::from(h))),
                rng.gen::<u64>(),
            ]
        }))
    }

    #[test]
    fn hopset_edges_match_pinned_digests() {
        for threads in [1, 4] {
            let got: Vec<_> = with_threads(threads, || {
                PINNED
                    .iter()
                    .map(|&(family, eps, _)| (family, eps, hopset_digest(family, eps)))
                    .collect()
            });
            assert_eq!(got, PINNED, "hop-set digests drifted at {threads} threads");
        }
    }
}
