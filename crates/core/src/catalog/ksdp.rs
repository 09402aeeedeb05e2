//! The k-Shortest Distance Problem (k-SDP) and its distinct-weights
//! variant (k-DSDP) over the all-paths semiring (Section 3.3,
//! Definition 3.21, Examples 3.23/3.24).
//!
//! Each node determines the weights (and, as a bonus of the formulation,
//! the actual paths) of the `k` lightest **walks** to a designated target
//! `s` — something no semimodule over `S_{min,+}` can express
//! (Observation 3.16), which is why the all-paths semiring exists.
//! (Walk rather than simple-path semantics is required for the filter to
//! be a congruence — see the discussion in [`mte_algebra::allpaths`].)

use crate::engine::MbfAlgorithm;
use mte_algebra::allpaths::{AllPaths, Path};
use mte_algebra::{Dist, Filter, NodeId};
use std::collections::BTreeMap;

/// k-SDP / k-DSDP as an MBF-like algorithm with `S = M = P_{min,+}`.
#[derive(Clone, Debug)]
pub struct KShortestDistances {
    target: NodeId,
    k: usize,
    /// `true` for k-DSDP: the `k` best weights must be pairwise distinct.
    distinct: bool,
}

impl KShortestDistances {
    /// k-SDP towards target `s` (Example 3.23).
    pub fn new(target: NodeId, k: usize) -> Self {
        KShortestDistances {
            target,
            k,
            distinct: false,
        }
    }

    /// k-DSDP: `k` distinct shortest distances (Example 3.24).
    pub fn distinct(target: NodeId, k: usize) -> Self {
        KShortestDistances {
            target,
            k,
            distinct: true,
        }
    }

    /// The representative projection of Equations (3.24)/(3.26)/(3.27):
    /// for each start node `v`, keep (the representatives of) the `k`
    /// lightest `v`-target paths contained in `x`; drop everything else.
    fn project(&self, x: &mut AllPaths) {
        let mut entries: Vec<(Path, Dist)> = x.entries().to_vec();
        // The identity flag stands for all (v)-paths at weight 0; only (s)
        // ends at the target, so materialize exactly that one.
        if x.contains_identity() {
            entries.push((Path::single(self.target), Dist::ZERO));
        }
        entries.retain(|(p, _)| p.last() == self.target);

        // Ordered by start node: the `kept` concatenation below follows
        // map iteration order, which must not depend on hash state.
        let mut by_start: BTreeMap<NodeId, Vec<(Path, Dist)>> = BTreeMap::new();
        for (p, w) in entries {
            by_start.entry(p.first()).or_default().push((p, w));
        }
        let mut kept: Vec<(Path, Dist)> = Vec::new();
        for (_, mut group) in by_start {
            // Sort by (weight, path); the path order breaks ties
            // deterministically (the paper's "ties broken by an arbitrary
            // ordering on P" / lexicographic order for k-DSDP).
            group.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
            if self.distinct {
                let mut last_weight: Option<Dist> = None;
                for (p, w) in group {
                    if kept_count_for_distinct(&mut last_weight, w) {
                        kept.push((p, w));
                        if count_start(&kept, self.k) {
                            break;
                        }
                    }
                }
            } else {
                group.truncate(self.k);
                kept.extend(group);
            }
        }
        *x = AllPaths::normalize(false, kept);
    }
}

/// Helper for the distinct-weights rule: accept `w` iff it differs from
/// the previously accepted weight.
fn kept_count_for_distinct(last: &mut Option<Dist>, w: Dist) -> bool {
    if *last == Some(w) {
        false
    } else {
        *last = Some(w);
        true
    }
}

/// `true` once `kept`'s current group reached `k` entries. Groups are
/// appended contiguously, so counting the suffix with equal start works.
fn count_start(kept: &[(Path, Dist)], k: usize) -> bool {
    let Some(start) = kept.last().map(|(p, _)| p.first()) else {
        return false;
    };
    kept.iter()
        .rev()
        .take_while(|(p, _)| p.first() == start)
        .count()
        >= k
}

impl MbfAlgorithm for KShortestDistances {
    type S = AllPaths;
    type M = AllPaths;

    /// Adjacency per Equation (3.18): the edge `{v,w}` contributes the
    /// single path `(v, w)`.
    fn edge_coeff(&self, v: NodeId, w: NodeId, weight: f64) -> AllPaths {
        AllPaths::edge(v, w, Dist::new(weight))
    }

    fn filter(&self, x: &mut AllPaths) {
        self.project(x);
    }

    /// Initialization per Equation (3.19): node `v` knows the zero-hop
    /// path `(v)`.
    fn init(&self, v: NodeId) -> AllPaths {
        AllPaths::source(v)
    }

    fn state_size(&self, x: &AllPaths) -> usize {
        x.entries().len().max(1)
    }
}

/// The k-SDP projection as a standalone [`Filter`] for congruence
/// property tests (Lemma 3.22).
#[derive(Clone, Debug)]
pub struct KsdpFilter(pub KShortestDistances);

impl Filter<AllPaths, AllPaths> for KsdpFilter {
    fn apply(&self, x: &mut AllPaths) {
        self.0.project(x);
    }
}

/// Reference implementation: the weights of the `k` shortest `v`→`target`
/// walks, by the classic pop-at-most-k-times-per-node heap search
/// (for validating the MBF-like formulation on small graphs).
#[cfg(test)]
fn k_shortest_walk_weights(g: &mte_graph::Graph, v: NodeId, target: NodeId, k: usize) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut counts = vec![0usize; g.n()];
    let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
    heap.push(Reverse((Dist::ZERO, v)));
    let mut out = Vec::new();
    while let Some(Reverse((d, u))) = heap.pop() {
        if counts[u as usize] >= k {
            continue;
        }
        counts[u as usize] += 1;
        if u == target {
            out.push(d.value());
            if out.len() == k {
                break;
            }
        }
        for &(w, ew) in g.neighbors(u) {
            if counts[w as usize] < k {
                heap.push(Reverse((d + Dist::new(ew), w)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_to_fixpoint;
    use mte_graph::generators::gnm_graph;
    use mte_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weights_at(state: &AllPaths, v: NodeId) -> Vec<f64> {
        let mut w: Vec<f64> = state
            .entries()
            .iter()
            .filter(|(p, _)| p.first() == v)
            .map(|(_, d)| d.value())
            .collect();
        w.sort_by(f64::total_cmp);
        w
    }

    #[test]
    fn k_shortest_weights_match_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = gnm_graph(9, 16, 1.0..5.0, &mut rng);
        let target = 0;
        let k = 3;
        let alg = KShortestDistances::new(target, k);
        let res = run_to_fixpoint(&alg, &g, 8 * g.n());
        for v in 1..g.n() as NodeId {
            let expect = k_shortest_walk_weights(&g, v, target, k);
            let got = weights_at(&res.states[v as usize], v);
            assert_eq!(got.len(), expect.len(), "node {v}");
            for (a, b) in got.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-9, "node {v}: {got:?} vs {expect:?}");
            }
        }
    }

    #[test]
    fn distinct_variant_skips_equal_weights() {
        // Two parallel-ish routes of equal weight 2 (via 1 and via 2):
        // plain 2-SDP reports {2, 2}; k-DSDP must skip the duplicate and
        // report the next *distinct* weight — 4, realized by the walk
        // 4→1→4→1→0 (walk semantics; the next simple path would be 10).
        let g = Graph::from_edges(
            5,
            vec![
                (4, 1, 1.0),
                (1, 0, 1.0),
                (4, 2, 1.0),
                (2, 0, 1.0),
                (4, 3, 5.0),
                (3, 0, 5.0),
            ],
        );
        let alg = KShortestDistances::distinct(0, 2);
        let res = run_to_fixpoint(&alg, &g, 8 * g.n());
        let got = weights_at(&res.states[4], 4);
        assert_eq!(got, vec![2.0, 4.0]);

        let plain = KShortestDistances::new(0, 2);
        let res2 = run_to_fixpoint(&plain, &g, 8 * g.n());
        assert_eq!(weights_at(&res2.states[4], 4), vec![2.0, 2.0]);
    }

    #[test]
    fn reported_paths_are_real_paths() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = gnm_graph(8, 14, 1.0..4.0, &mut rng);
        let alg = KShortestDistances::new(2, 2);
        let res = run_to_fixpoint(&alg, &g, 4 * g.n());
        for state in &res.states {
            for (p, w) in state.entries() {
                let nodes = p.nodes();
                let mut total = 0.0;
                for win in nodes.windows(2) {
                    let ew = g.weight(win[0], win[1]).expect("path must use graph edges");
                    total += ew;
                }
                assert!((total - w.value()).abs() < 1e-9);
                assert_eq!(p.last(), 2);
            }
        }
    }
}
