//! Weighted undirected graphs in compressed sparse row (CSR) layout.

use mte_algebra::NodeId;

/// An edge list: `(u, v, weight)` triples with `u ≠ v` and `weight > 0`.
pub type EdgeList = Vec<(NodeId, NodeId, f64)>;

/// An edge list violated the graph invariants (checked construction,
/// [`Graph::try_from_edges`]). Reports the first offending edge in
/// input order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphBuildError {
    /// Edge `index` is a loop on `node`.
    Loop { index: usize, node: NodeId },
    /// Edge `index` references `node`, outside `0..n`.
    EndpointOutOfRange {
        index: usize,
        node: NodeId,
        n: usize,
    },
    /// Edge `index` carries a weight that is not positive and finite
    /// (zero, negative, NaN or `∞`).
    BadWeight { index: usize, weight: f64 },
}

impl std::fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphBuildError::Loop { index, node } => {
                write!(f, "edge {index} is a loop on node {node}")
            }
            GraphBuildError::EndpointOutOfRange { index, node, n } => {
                write!(f, "edge {index} endpoint {node} out of range for n = {n}")
            }
            GraphBuildError::BadWeight { index, weight } => {
                write!(f, "edge {index} weight {weight} is not positive and finite")
            }
        }
    }
}

impl std::error::Error for GraphBuildError {}

/// A weighted undirected graph `G = (V, E, ω)` (paper Section 1.2):
/// no loops, no parallel edges, `ω : E → R_{>0}`.
///
/// Stored as CSR adjacency (every undirected edge appears in both endpoint
/// rows), which makes the MBF-like propagate/aggregate step a cache-friendly
/// scan.
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Vec<usize>,
    adjacency: Vec<(NodeId, f64)>,
    m: usize,
}

impl Graph {
    /// Builds a graph on `n` nodes from an edge list.
    ///
    /// Loops are rejected; parallel edges are merged keeping the minimum
    /// weight (the only weight relevant to any distance-like semiring);
    /// weights must be positive and finite. Invariants are checked by
    /// debug assertions only — callers handling untrusted input use
    /// [`Graph::try_from_edges`].
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Graph {
        let normalized: EdgeList = edges.into_iter().collect();
        if cfg!(debug_assertions) {
            for &(u, v, w) in &normalized {
                assert!(u != v, "loops are not allowed (node {u})");
                assert!(
                    w > 0.0 && w.is_finite(),
                    "edge weights must be positive and finite, got {w}"
                );
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge endpoint out of range"
                );
            }
        }
        Graph::build_unchecked(n, normalized)
    }

    /// Checked [`Graph::from_edges`]: validates every edge (in input
    /// order) and reports the first violation as a typed error instead
    /// of panicking. This is the boundary for untrusted input — the
    /// `.gr` parser and the generators route through it.
    pub fn try_from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Result<Graph, GraphBuildError> {
        let normalized: EdgeList = edges.into_iter().collect();
        for (index, &(u, v, w)) in normalized.iter().enumerate() {
            if u == v {
                return Err(GraphBuildError::Loop { index, node: u });
            }
            let weight_ok = w > 0.0 && w.is_finite();
            if !weight_ok {
                return Err(GraphBuildError::BadWeight { index, weight: w });
            }
            let node = if (u as usize) >= n {
                Some(u)
            } else if (v as usize) >= n {
                Some(v)
            } else {
                None
            };
            if let Some(node) = node {
                return Err(GraphBuildError::EndpointOutOfRange { index, node, n });
            }
        }
        Ok(Graph::build_unchecked(n, normalized))
    }

    /// CSR construction on a validated edge list.
    fn build_unchecked(n: usize, mut normalized: EdgeList) -> Graph {
        for e in &mut normalized {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        normalized.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        normalized.dedup_by(|next, prev| prev.0 == next.0 && prev.1 == next.1);

        let m = normalized.len();
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &normalized {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![(0 as NodeId, 0.0f64); 2 * m];
        for &(u, v, w) in &normalized {
            adjacency[cursor[u as usize]] = (v, w);
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = (u, w);
            cursor[v as usize] += 1;
        }
        // Sort each row by neighbor id for deterministic iteration and
        // binary-searchable `weight` lookups.
        for v in 0..n {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable_by_key(|a| a.0);
        }
        Graph {
            offsets,
            adjacency,
            m,
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Neighbors of `v` with edge weights, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Weight of edge `{u, v}` if present.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let row = self.neighbors(u);
        row.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| row[i].1)
    }

    /// Iterates over each undirected edge once (`u < v`).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&(v, _)| u < v)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Minimum edge weight `ω_min` (`∞` for edgeless graphs).
    pub fn min_weight(&self) -> f64 {
        self.adjacency
            .iter()
            .map(|&(_, w)| w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum edge weight `ω_max` (`0` for edgeless graphs).
    pub fn max_weight(&self) -> f64 {
        self.adjacency.iter().map(|&(_, w)| w).fold(0.0, f64::max)
    }

    /// A new graph with the given extra edges added (parallel edges merged
    /// by minimum weight). Used to augment `G` with hop-set or spanner
    /// shortcut edges.
    pub fn augment(&self, extra: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Graph {
        let mut edges: EdgeList = self.edges().collect();
        edges.extend(extra);
        Graph::from_edges(self.n(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    }

    #[test]
    fn csr_construction_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let g = Graph::from_edges(2, vec![(0, 1, 5.0), (1, 0, 2.0), (0, 1, 7.0)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.weight(0, 1), Some(2.0));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn weight_lookup() {
        let g = triangle();
        assert_eq!(g.weight(2, 0), Some(4.0));
        assert_eq!(g.weight(0, 0), None);
    }

    #[test]
    fn augment_merges_and_adds() {
        let g = triangle().augment(vec![(0, 2, 1.0)]);
        assert_eq!(g.weight(0, 2), Some(1.0));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn min_max_weight() {
        let g = triangle();
        assert_eq!(g.min_weight(), 1.0);
        assert_eq!(g.max_weight(), 4.0);
    }

    // `from_edges` checks its invariants with debug assertions only;
    // `try_from_edges_reports_first_violation` covers release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn loops_rejected() {
        let _ = Graph::from_edges(2, vec![(1, 1, 1.0)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn nonpositive_weight_rejected() {
        let _ = Graph::from_edges(2, vec![(0, 1, 0.0)]);
    }

    #[test]
    fn try_from_edges_accepts_valid_input() {
        let g = Graph::try_from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn try_from_edges_reports_first_violation() {
        assert_eq!(
            Graph::try_from_edges(2, vec![(0, 1, 1.0), (1, 1, 1.0)]).unwrap_err(),
            GraphBuildError::Loop { index: 1, node: 1 }
        );
        assert!(matches!(
            Graph::try_from_edges(2, vec![(0, 1, f64::NAN)]),
            Err(GraphBuildError::BadWeight { index: 0, weight }) if weight.is_nan()
        ));
        assert_eq!(
            Graph::try_from_edges(2, vec![(0, 1, -3.0)]).unwrap_err(),
            GraphBuildError::BadWeight {
                index: 0,
                weight: -3.0
            }
        );
        assert_eq!(
            Graph::try_from_edges(2, vec![(0, 2, 1.0)]).unwrap_err(),
            GraphBuildError::EndpointOutOfRange {
                index: 0,
                node: 2,
                n: 2
            }
        );
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, Vec::new());
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(0).is_empty());
    }
}
