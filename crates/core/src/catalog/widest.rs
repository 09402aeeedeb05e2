//! Widest-path problems over the max-min semiring (Section 3.2,
//! Examples 3.13–3.15): SSWP, APWP and MSWP.

use crate::engine::MbfAlgorithm;
use mte_algebra::{NodeId, Width, WidthMap};

/// Multi-source widest paths: every node computes, for each source `s`,
/// `width^h(v, s, G)` — the best bottleneck capacity of an `≤ h`-hop
/// path (Definition 3.8). `S = S_{max,min}`, `M = W`, `r = id`.
#[derive(Clone, Debug)]
pub struct WidestPaths {
    is_source: Vec<bool>,
}

impl WidestPaths {
    /// Widest paths towards the given sources (MSWP, Example 3.15).
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        let mut is_source = vec![false; n];
        for &s in sources {
            is_source[s as usize] = true;
        }
        WidestPaths { is_source }
    }

    /// All-pairs widest paths (APWP, Example 3.14).
    pub fn apwp(n: usize) -> Self {
        WidestPaths {
            is_source: vec![true; n],
        }
    }

    /// Single-source widest paths (SSWP, Example 3.13).
    pub fn sswp(n: usize, s: NodeId) -> Self {
        Self::new(n, &[s])
    }
}

impl MbfAlgorithm for WidestPaths {
    type S = Width;
    type M = WidthMap;

    /// Adjacency per Equation (3.9): an edge contributes its capacity.
    #[inline]
    fn edge_coeff(&self, _v: NodeId, _w: NodeId, weight: f64) -> Width {
        Width::new(weight)
    }

    /// `r = id` — widest-path states are already small.
    fn filter(&self, _x: &mut WidthMap) {}

    /// Equation (3.10): each source knows the unbounded-width trivial path
    /// to itself.
    fn init(&self, v: NodeId) -> WidthMap {
        if self.is_source[v as usize] {
            WidthMap::singleton(v, Width::INF)
        } else {
            WidthMap::new()
        }
    }

    #[inline]
    fn propagate_into(&self, acc: &mut WidthMap, state: &WidthMap, coeff: &Width) {
        acc.merge_scaled(state, *coeff);
    }

    #[inline]
    fn state_size(&self, x: &WidthMap) -> usize {
        x.len().max(1)
    }
}

/// Reference implementation: widest path from `s` by a max-bottleneck
/// Dijkstra variant (used only for testing the MBF-like formulation).
#[cfg(test)]
fn widest_path_reference(g: &mte_graph::Graph, s: NodeId) -> Vec<Width> {
    use std::collections::BinaryHeap;
    let n = g.n();
    let mut width = vec![Width::new(0.0); n];
    width[s as usize] = Width::INF;
    let mut heap: BinaryHeap<(Width, NodeId)> = BinaryHeap::new();
    heap.push((Width::INF, s));
    while let Some((wd, v)) = heap.pop() {
        if wd < width[v as usize] {
            continue;
        }
        for &(u, ew) in g.neighbors(v) {
            let cand = Width(wd.0.min(mte_algebra::Dist::new(ew)));
            if cand > width[u as usize] {
                width[u as usize] = cand;
                heap.push((cand, u));
            }
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_to_fixpoint};
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sswp_matches_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnm_graph(40, 110, 1.0..10.0, &mut rng);
        let alg = WidestPaths::sswp(g.n(), 0);
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert!(res.fixpoint);
        let reference = widest_path_reference(&g, 0);
        for v in 0..g.n() {
            assert_eq!(res.states[v].get(0), reference[v], "node {v}");
        }
    }

    #[test]
    fn apwp_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gnm_graph(20, 50, 1.0..9.0, &mut rng);
        let alg = WidestPaths::apwp(g.n());
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                assert_eq!(res.states[u as usize].get(v), res.states[v as usize].get(u));
            }
        }
    }

    #[test]
    fn hop_limited_widths_are_monotone_in_h() {
        // Lemma 3.12: x^{(h)} = width^h, which can only grow with h.
        let g = path_graph(6, 3.0);
        let alg = WidestPaths::sswp(g.n(), 0);
        let r1 = run(&alg, &g, 1);
        let r3 = run(&alg, &g, 3);
        for v in 0..g.n() {
            assert!(r3.states[v].get(0) >= r1.states[v].get(0));
        }
        // Node 2 is unreachable within 1 hop: width 0.
        assert_eq!(r1.states[2].get(0), Width::new(0.0));
        assert_eq!(r3.states[2].get(0), Width::new(3.0));
    }

    #[test]
    fn bottleneck_picks_wider_detour() {
        // 0-1 capacity 1; 0-2 capacity 10, 2-1 capacity 9: widest 0→1 is 9.
        let g = mte_graph::Graph::from_edges(3, vec![(0, 1, 1.0), (0, 2, 10.0), (2, 1, 9.0)]);
        let alg = WidestPaths::sswp(g.n(), 0);
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert_eq!(res.states[1].get(0), Width::new(9.0));
    }
}
