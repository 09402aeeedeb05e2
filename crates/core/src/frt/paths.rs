//! Mapping tree edges back to graph paths (Section 7.5 of the paper).
//!
//! A tree edge `e = {child, parent}` (child at level `i`) maps to a real
//! path in `G` through a common descendant leaf `v₀`: the child's leader
//! `a` satisfies `dist_H(v₀, a) ≤ r_i` and the parent's leader `b`
//! satisfies `dist_H(v₀, b) ≤ r_{i+1}`, so the concatenated `a⇝v₀⇝b`
//! path has weight `≤ r_i + r_{i+1} ≤ 1.5·r_{i+1} ≤ 3·ω_T(e)` — the
//! bound of Section 7.5 (`dist_G ≤ dist_H` makes the `G`-path only
//! cheaper).
//!
//! The paper traces these paths through stored MBF states to stay at
//! polylog depth; this implementation recomputes them with two Dijkstra
//! runs (see docs/DESIGN.md §3, substitution 3 — the output contract is
//! identical).

use crate::frt::tree::FrtTree;
use mte_algebra::NodeId;
use mte_graph::algorithms::sssp;
use mte_graph::Graph;

/// A tree edge realized as a path in `G`.
#[derive(Clone, Debug)]
pub struct EmbeddedTreeEdge {
    /// Child tree-node index.
    pub child: usize,
    /// Parent tree-node index.
    pub parent: usize,
    /// The realizing walk in `G` (node sequence from the child's leader to
    /// the parent's leader; consecutive nodes are adjacent in `G`).
    pub path: Vec<NodeId>,
    /// Total weight of the walk in `G`.
    pub weight: f64,
}

/// Maps the tree edge above `child` to a path in `g`
/// (`g` must be the graph the embedding was sampled from).
pub fn embed_tree_edge(g: &Graph, tree: &FrtTree, child: usize) -> EmbeddedTreeEdge {
    assert!(child != 0, "the root has no parent edge");
    let node = &tree.nodes()[child];
    let parent = node.parent;
    let a = node.leader;
    let b = tree.nodes()[parent].leader;
    let v0 = node.repr_leaf;

    let sp = sssp(g, v0);
    let to_a = sp.path_to(a).expect("leader must be reachable");
    let to_b = sp.path_to(b).expect("parent leader must be reachable");
    // Walk a → v0 → b.
    let mut path: Vec<NodeId> = to_a.into_iter().rev().collect();
    path.extend(to_b.into_iter().skip(1));
    let weight = (sp.dist(a) + sp.dist(b)).value();
    EmbeddedTreeEdge {
        child,
        parent,
        path,
        weight,
    }
}

/// Maps every tree edge to a `G`-path, reusing one Dijkstra per distinct
/// representative leaf.
pub fn embed_all_tree_edges(g: &Graph, tree: &FrtTree) -> Vec<EmbeddedTreeEdge> {
    use std::collections::BTreeMap;
    let mut cache: BTreeMap<NodeId, mte_graph::algorithms::ShortestPaths> = BTreeMap::new();
    (1..tree.len())
        .map(|child| {
            let node = &tree.nodes()[child];
            let v0 = node.repr_leaf;
            let sp = cache.entry(v0).or_insert_with(|| sssp(g, v0));
            let a = node.leader;
            let b = tree.nodes()[node.parent].leader;
            let to_a = sp.path_to(a).expect("leader must be reachable");
            let to_b = sp.path_to(b).expect("parent leader must be reachable");
            let mut path: Vec<NodeId> = to_a.into_iter().rev().collect();
            path.extend(to_b.into_iter().skip(1));
            let weight = (sp.dist(a) + sp.dist(b)).value();
            EmbeddedTreeEdge {
                child,
                parent: node.parent,
                path,
                weight,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frt::le_list::{le_lists_direct, Ranks};
    use crate::frt::tree::FrtTree;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn embedded_edges_are_real_paths_within_3x() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = gnm_graph(30, 75, 1.0..6.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let beta = rng.gen_range(1.0..2.0);
        let tree = FrtTree::from_le_lists(&lists, &ranks, beta, g.min_weight());

        for edge in embed_all_tree_edges(&g, &tree) {
            // It is a contiguous walk in G with matching weight.
            let mut total = 0.0;
            for win in edge.path.windows(2) {
                if win[0] == win[1] {
                    continue; // degenerate hop when leader == leaf
                }
                total += g.weight(win[0], win[1]).expect("walk must follow G edges");
            }
            assert!((total - edge.weight).abs() < 1e-6);
            // Section 7.5 bound: ω(path) ≤ 3 · ω_T(e).
            let tree_weight = tree.nodes()[edge.child].parent_weight;
            assert!(
                edge.weight <= 3.0 * tree_weight + 1e-9,
                "path weight {} exceeds 3·{}",
                edge.weight,
                tree_weight
            );
            // Endpoints are the leaders.
            assert_eq!(
                edge.path.first().copied(),
                Some(tree.nodes()[edge.child].leader)
            );
            assert_eq!(
                edge.path.last().copied(),
                Some(tree.nodes()[edge.parent].leader)
            );
        }
    }
}
