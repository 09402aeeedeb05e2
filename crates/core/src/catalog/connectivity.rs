//! Connectivity over the Boolean semiring (Section 3.4, Example 3.25):
//! which pairs of nodes are connected by `≤ h`-hop paths?

use crate::engine::MbfAlgorithm;
use mte_algebra::{Bool, NodeId, NodeSet};

/// Multi-source connectivity: `S = B`, `M = B^V`, `r = id`.
/// After `h` iterations, node `v`'s state contains source `s` iff
/// `P^h(v, s, G) ≠ ∅` (Equation (3.30)).
#[derive(Clone, Debug)]
pub struct Connectivity {
    is_source: Vec<bool>,
}

impl Connectivity {
    /// Connectivity towards the given sources.
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        let mut is_source = vec![false; n];
        for &s in sources {
            is_source[s as usize] = true;
        }
        Connectivity { is_source }
    }

    /// All-pairs connectivity.
    pub fn all_pairs(n: usize) -> Self {
        Connectivity {
            is_source: vec![true; n],
        }
    }
}

impl MbfAlgorithm for Connectivity {
    type S = Bool;
    type M = NodeSet;

    /// Adjacency per Equation (3.28): every edge is `1`.
    #[inline]
    fn edge_coeff(&self, _v: NodeId, _w: NodeId, _weight: f64) -> Bool {
        Bool(true)
    }

    fn filter(&self, _x: &mut NodeSet) {}

    /// Initialization per Equation (3.29): each source is connected to
    /// itself.
    fn init(&self, v: NodeId) -> NodeSet {
        if self.is_source[v as usize] {
            NodeSet::singleton(v)
        } else {
            NodeSet::new()
        }
    }

    /// `1 ⊙ x = x`: union the neighbor state directly instead of
    /// materializing the scaled copy the default would clone.
    #[inline]
    fn propagate_into(&self, acc: &mut NodeSet, state: &NodeSet, coeff: &Bool) {
        if coeff.0 {
            use mte_algebra::Semimodule;
            acc.add_assign(state);
        }
    }

    fn state_size(&self, x: &NodeSet) -> usize {
        x.len().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_to_fixpoint};
    use mte_graph::algorithms::bfs_hops;
    use mte_graph::Graph;

    /// Two disconnected components (Section 3.4 drops the connectivity
    /// assumption for this problem).
    fn two_components() -> Graph {
        Graph::from_edges(6, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    }

    #[test]
    fn components_are_separated() {
        let g = two_components();
        let alg = Connectivity::all_pairs(g.n());
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert!(res.states[0].contains(2));
        assert!(!res.states[0].contains(3));
        assert!(res.states[5].contains(3));
        assert!(!res.states[5].contains(0));
    }

    #[test]
    fn h_hop_connectivity_matches_bfs() {
        let g = two_components();
        let h = 1;
        let alg = Connectivity::all_pairs(g.n());
        let res = run(&alg, &g, h);
        for v in 0..g.n() as NodeId {
            let hops = bfs_hops(&g, v);
            for s in 0..g.n() as NodeId {
                let connected = hops[s as usize] != u32::MAX && hops[s as usize] <= h as u32;
                assert_eq!(res.states[v as usize].contains(s), connected, "({v},{s})");
            }
        }
    }
}
