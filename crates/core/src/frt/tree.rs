//! FRT tree construction from LE lists (Section 7.1 step (4), Lemma 7.2).
//!
//! Sample `β ∈ [1, 2)`. With cut radii `r_i = β·2^{i+i₀}` (where
//! `2^{i₀+1} ≤ ω_min` so that the innermost ball around any node contains
//! only the node itself), node `v`'s **sequence** is
//! `(v_0, v_1, …, v_k)` with `v_i = min{w | dist(v, w) ≤ r_i}` — read off
//! the LE list in O(1) per level. The tree's nodes are the distinct
//! suffixes; `(v_0, …, v_k)` is the leaf of `v`, `(v_k)` the root.
//!
//! The edge between a level-`i` node and its level-`(i+1)` parent gets
//! weight `r_{i+1}`; this choice makes tree distances **dominate** the
//! underlying metric (`dist_T(u, v) ≥ dist(u, v)`, property-tested), while
//! the random `β` and random order give the `O(log n)` expected stretch of
//! Fakcharoenphol, Rao & Talwar \[19\].

use crate::frt::le_list::{LeList, Ranks};
use mte_algebra::{Dist, NodeId};
use std::collections::BTreeMap;

/// A node of the FRT tree.
#[derive(Clone, Debug)]
pub struct FrtNode {
    /// The level `i` of this node (leaves at 0, root at `num_levels−1`).
    pub level: u32,
    /// The "leading" graph vertex `v_i` of the suffix this node
    /// represents (the center of its cluster).
    pub leader: NodeId,
    /// Parent index; the root points to itself.
    pub parent: usize,
    /// Weight of the edge to the parent (`r_{level+1}`); 0 for the root.
    pub parent_weight: f64,
    /// A graph vertex whose leaf lies below this node (used for path
    /// reconstruction, Section 7.5).
    pub repr_leaf: NodeId,
}

/// A tree embedding sampled from the FRT distribution, with `V` embedded
/// as the leaves.
#[derive(Clone, Debug)]
pub struct FrtTree {
    nodes: Vec<FrtNode>,
    leaf: Vec<usize>,
    radii: Vec<f64>,
    beta: f64,
}

impl FrtTree {
    /// Builds the tree from LE lists (Lemma 7.2).
    ///
    /// `omega_min` must lower-bound the minimum **positive** pairwise
    /// distance of the underlying metric (the minimum edge weight of `G`
    /// works: every path has at least one edge, and `H` only stretches
    /// distances). Metrics with duplicate points (zero-distance pairs)
    /// may pass `omega_min = 0`: the radius computation then floors at
    /// the smallest positive distance occurring in the LE lists, and
    /// zero-distance pairs collapse into a shared leaf (their embedded
    /// distance is 0, which is exact).
    pub fn from_le_lists(lists: &[LeList], ranks: &Ranks, beta: f64, omega_min: f64) -> FrtTree {
        assert!((1.0..2.0).contains(&beta), "β must lie in [1, 2)");
        assert!(omega_min >= 0.0, "ω_min must be non-negative");
        let n = lists.len();
        assert!(n > 0, "cannot embed the empty graph");

        // Guard against duplicate/zero-distance point pairs: ω_min = 0
        // would make `log2` yield −∞ and poison every radius with
        // NaN/−∞ levels. Any positive lower bound on the positive
        // distances is sound — zero-distance pairs end up inside the
        // innermost ball together, i.e. in the same leaf.
        let omega_min = if omega_min > 0.0 && omega_min.is_finite() {
            omega_min
        } else {
            let smallest_positive = lists
                .iter()
                .flat_map(|l| l.entries().iter())
                .map(|&(_, d)| d.value())
                .filter(|&d| d > 0.0 && d.is_finite())
                .fold(f64::INFINITY, f64::min);
            if smallest_positive.is_finite() {
                smallest_positive
            } else {
                // All points coincide (or n = 1): any radius works.
                1.0
            }
        };

        // r_0 = β·2^{i0} with 2^{i0+1} ≤ ω_min  ⇒  r_0 < ω_min.
        let i0 = (omega_min.log2() - 1.0).floor();
        let r0 = beta * (2f64).powf(i0);
        debug_assert!(r0 < omega_min);
        // Radii grow by doubling until they cover the largest LE distance
        // (then every ball contains the global minimum-rank node).
        let max_dist = lists
            .iter()
            .map(|l| l.max_dist().value())
            .fold(0.0f64, f64::max);
        let mut radii = vec![r0];
        while *radii.last().unwrap() < max_dist {
            let next = radii.last().unwrap() * 2.0;
            radii.push(next);
        }
        let top = radii.len() - 1;

        // Sequences (v_0, …, v_top) per vertex, read from the LE lists.
        let sequences: Vec<Vec<NodeId>> = (0..n)
            .map(|v| {
                radii
                    .iter()
                    .map(|&r| {
                        lists[v]
                            .min_node_within(Dist::new(r))
                            .expect("ball always contains the owner")
                    })
                    .collect()
            })
            .collect();

        // Deduplicate suffixes top-down. Key: (level, leader, parent id).
        let root = FrtNode {
            level: top as u32,
            leader: sequences[0][top],
            parent: 0,
            parent_weight: 0.0,
            repr_leaf: 0,
        };
        let mut nodes = vec![root];
        // Ordered map: node indices are assigned in first-encounter order
        // either way, but the deduplication structure itself must never
        // be a nondeterministic-iteration hazard (determinism lint).
        let mut index: BTreeMap<(u32, NodeId, usize), usize> = BTreeMap::new();
        let mut leaf = vec![0usize; n];
        for (v, seq) in sequences.iter().enumerate() {
            assert_eq!(
                seq[top],
                ranks.min_rank_node(),
                "vertex {v}'s outermost ball misses the global minimum-rank \
                 node — the underlying graph must be connected"
            );
            let mut parent = 0usize; // the root
            for i in (0..top).rev() {
                let key = (i as u32, seq[i], parent);
                let idx = *index.entry(key).or_insert_with(|| {
                    nodes.push(FrtNode {
                        level: i as u32,
                        leader: seq[i],
                        parent,
                        parent_weight: radii[i + 1],
                        repr_leaf: v as NodeId,
                    });
                    nodes.len() - 1
                });
                parent = idx;
            }
            leaf[v] = parent;
        }

        FrtTree {
            nodes,
            leaf,
            radii,
            beta,
        }
    }

    /// Reassembles a tree from its raw parts, validating every structural
    /// invariant `from_le_lists` establishes by construction. The
    /// snapshot decoder goes through here: bytes from disk must never be
    /// able to materialize a tree whose traversals panic or loop, so a
    /// violated invariant is a typed `Err(reason)`, not an assert.
    pub fn from_parts(
        nodes: Vec<FrtNode>,
        leaf: Vec<usize>,
        radii: Vec<f64>,
        beta: f64,
    ) -> Result<FrtTree, String> {
        if !(1.0..2.0).contains(&beta) {
            return Err(format!("β = {beta} outside [1, 2)"));
        }
        if nodes.is_empty() {
            return Err("empty node list".to_string());
        }
        if radii.is_empty() {
            return Err("empty radius list".to_string());
        }
        for (i, &r) in radii.iter().enumerate() {
            if !r.is_finite() || r <= 0.0 {
                return Err(format!("radius {i} is {r}"));
            }
            if i > 0 && r <= radii[i - 1] {
                return Err(format!("radii not strictly increasing at {i}"));
            }
        }
        let top = (radii.len() - 1) as u32;
        if nodes[0].level != top || nodes[0].parent != 0 || nodes[0].parent_weight != 0.0 {
            return Err("node 0 is not a root at the top level".to_string());
        }
        for (i, node) in nodes.iter().enumerate().skip(1) {
            // Parents precede children, as `from_le_lists` appends them:
            // consumers visit parents before children in index order.
            if node.parent >= i {
                return Err(format!(
                    "node {i} parent {} does not precede it",
                    node.parent
                ));
            }
            // Parent strictly one level up: traversals terminate because
            // every parent step increases the level towards the root.
            if node.level >= top || nodes[node.parent].level != node.level + 1 {
                return Err(format!("node {i} breaks the level ladder"));
            }
            if !node.parent_weight.is_finite() || node.parent_weight <= 0.0 {
                return Err(format!("node {i} parent weight {}", node.parent_weight));
            }
        }
        for (v, &idx) in leaf.iter().enumerate() {
            if idx >= nodes.len() || nodes[idx].level != 0 {
                return Err(format!("vertex {v} leaf index invalid"));
            }
        }
        Ok(FrtTree {
            nodes,
            leaf,
            radii,
            beta,
        })
    }

    /// The sampled `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Cut radii `r_0 < r_1 < …` (the root sits at level `radii.len()−1`).
    #[inline]
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// All tree nodes; index 0 is the root, and every other node's
    /// parent has a smaller index.
    #[inline]
    pub fn nodes(&self) -> &[FrtNode] {
        &self.nodes
    }

    /// Number of tree nodes (`≤ n·levels + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the tree has no nodes (never happens for `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of levels (= tree depth + 1 counting nodes).
    pub fn num_levels(&self) -> usize {
        self.radii.len()
    }

    /// Index of the leaf embedding graph vertex `v`.
    #[inline]
    pub fn leaf(&self, v: NodeId) -> usize {
        self.leaf[v as usize]
    }

    /// Number of embedded graph vertices (= length of the leaf table).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.leaf.len()
    }

    /// Tree distance between two tree nodes (sum of edge weights along
    /// the unique path).
    pub fn node_distance(&self, mut a: usize, mut b: usize) -> f64 {
        let mut total = 0.0;
        // Climb the deeper node first (levels are aligned for leaves, but
        // support arbitrary nodes).
        while self.nodes[a].level < self.nodes[b].level {
            total += self.nodes[a].parent_weight;
            a = self.nodes[a].parent;
        }
        while self.nodes[b].level < self.nodes[a].level {
            total += self.nodes[b].parent_weight;
            b = self.nodes[b].parent;
        }
        while a != b {
            total += self.nodes[a].parent_weight + self.nodes[b].parent_weight;
            a = self.nodes[a].parent;
            b = self.nodes[b].parent;
        }
        total
    }

    /// Tree distance between the leaves of graph vertices `u` and `v`:
    /// the embedded metric `dist(u, v, T)`.
    pub fn leaf_distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.node_distance(self.leaf[u as usize], self.leaf[v as usize])
    }

    /// The children lists (computed on demand; index 0 = root).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if i != 0 {
                children[node.parent].push(i);
            }
        }
        children
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frt::le_list::{le_lists_direct, Ranks};
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::{cycle_graph, gnm_graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn build_tree(g: &mte_graph::Graph, seed: u64) -> (FrtTree, Vec<Vec<Dist>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(g, &ranks);
        let beta = rng.gen_range(1.0..2.0);
        let tree = FrtTree::from_le_lists(&lists, &ranks, beta, g.min_weight());
        (tree, apsp(g))
    }

    #[test]
    fn leaves_are_distinct_and_at_level_zero() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = gnm_graph(30, 70, 1.0..9.0, &mut rng);
        let (tree, _) = build_tree(&g, 52);
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..g.n() as NodeId {
            let leaf = tree.leaf(v);
            assert_eq!(tree.nodes()[leaf].level, 0);
            assert_eq!(tree.nodes()[leaf].leader, v, "leaf leader must be v itself");
            assert!(seen.insert(leaf), "two vertices share a leaf");
        }
    }

    #[test]
    fn tree_distances_dominate_graph_distances() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(60 + seed);
            let g = gnm_graph(25, 60, 1.0..7.0, &mut rng);
            let (tree, dist) = build_tree(&g, 70 + seed);
            for u in 0..g.n() as NodeId {
                for v in 0..g.n() as NodeId {
                    let dt = tree.leaf_distance(u, v);
                    let dg = dist[u as usize][v as usize].value();
                    assert!(
                        dt >= dg - 1e-9,
                        "dominance violated at ({u},{v}): {dt} < {dg} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_is_zero_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = gnm_graph(20, 45, 1.0..5.0, &mut rng);
        let (tree, _) = build_tree(&g, 54);
        for u in 0..g.n() as NodeId {
            assert_eq!(tree.leaf_distance(u, u), 0.0);
            for v in 0..g.n() as NodeId {
                assert_eq!(tree.leaf_distance(u, v), tree.leaf_distance(v, u));
            }
        }
    }

    #[test]
    fn tree_distance_satisfies_hst_structure() {
        // Edge weights double level by level; a child's parent edge is
        // half its grandparent edge.
        let mut rng = StdRng::seed_from_u64(55);
        let g = gnm_graph(20, 45, 1.0..5.0, &mut rng);
        let (tree, _) = build_tree(&g, 56);
        for (i, node) in tree.nodes().iter().enumerate() {
            if i == 0 {
                continue;
            }
            let parent = &tree.nodes()[node.parent];
            assert_eq!(parent.level, node.level + 1);
            if node.parent != 0 {
                assert!((parent.parent_weight - 2.0 * node.parent_weight).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cycle_average_stretch_is_reasonable() {
        // On a cycle, any single tree stretches some edge by Ω(n), but the
        // per-pair expectation stays O(log n). Average over trees here.
        let n = 24;
        let g = cycle_graph(n, 1.0);
        let dist = apsp(&g);
        let trials = 30;
        let mut total = 0.0;
        let mut count = 0usize;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(500 + t);
            let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
            let (lists, _, _) = le_lists_direct(&g, &ranks);
            let beta = rng.gen_range(1.0..2.0);
            let tree = FrtTree::from_le_lists(&lists, &ranks, beta, g.min_weight());
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    total += tree.leaf_distance(u, v) / dist[u as usize][v as usize].value();
                    count += 1;
                }
            }
        }
        let avg = total / count as f64;
        // O(log n) with a moderate constant; log₂ 24 ≈ 4.6.
        assert!(avg < 8.0 * 4.6, "average stretch {avg} too large");
        assert!(avg >= 1.0);
    }

    #[test]
    fn duplicate_points_embed_without_nan_levels() {
        // Regression: a metric with duplicate points has ω_min = 0, and
        // the root-radius computation `ω_min.log2()` used to produce
        // −∞/NaN radii (and the old assert rejected ω_min = 0 outright).
        // Duplicates must instead collapse into a shared leaf.
        use crate::frt::le_list::le_lists_from_metric;
        let d = |x: f64| Dist::new(x);
        // Points 0 and 1 coincide; 2 and 3 are genuinely distinct.
        let metric = vec![
            vec![d(0.0), d(0.0), d(1.0), d(4.0)],
            vec![d(0.0), d(0.0), d(1.0), d(4.0)],
            vec![d(1.0), d(1.0), d(0.0), d(3.0)],
            vec![d(4.0), d(4.0), d(3.0), d(0.0)],
        ];
        let ranks = Ranks::from_order(vec![2, 0, 3, 1]);
        let (lists, _) = le_lists_from_metric(&metric, &ranks);
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.5, 0.0);

        for &r in tree.radii() {
            assert!(r.is_finite() && r > 0.0, "bad radius {r}");
        }
        // The zero-distance pair shares a leaf and embeds at distance 0.
        assert_eq!(tree.leaf(0), tree.leaf(1));
        assert_eq!(tree.leaf_distance(0, 1), 0.0);
        // Distinct points keep dominating the metric.
        for u in 0..4u32 {
            for v in 0..4u32 {
                let dt = tree.leaf_distance(u, v);
                let dg = metric[u as usize][v as usize].value();
                assert!(dt.is_finite());
                assert!(dt >= dg - 1e-9, "dominance violated at ({u},{v})");
            }
        }
    }

    #[test]
    fn single_node_graph_embeds() {
        let g = mte_graph::Graph::from_edges(1, Vec::new());
        let ranks = Ranks::from_order(vec![0]);
        let lists = vec![LeList::from_distance_map(
            &mte_algebra::DistanceMap::singleton(0, Dist::ZERO),
            &ranks,
        )];
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.5, 1.0);
        assert_eq!(tree.leaf_distance(0, 0), 0.0);
        let _ = g;
    }
}
