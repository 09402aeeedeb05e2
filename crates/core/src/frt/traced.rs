//! Predecessor-carrying LE lists (Section 7.5 of the paper).
//!
//! "A leaf v₀ has an LE entry (dist(v₀,v₁,H), v₁) and we can trace the
//! shortest v₀-v₁-path … based on the LE lists (nodes locally store the
//! predecessor of shortest paths just like in APSP)."
//!
//! This module computes LE lists where every entry also records the
//! neighbor it arrived from, and reconstructs the corresponding paths in
//! the iterated graph without re-running any shortest-path computation —
//! the paper's variant (a) of path reconstruction (docs/DESIGN.md §3,
//! substitution 3; the Dijkstra-based variant for oracle-built trees
//! lives in [`crate::frt::paths`]).

use crate::frt::le_list::Ranks;
use mte_algebra::{Dist, NodeId};
use mte_graph::Graph;
use std::sync::Arc;

/// An LE entry with provenance: `node` is reachable at `dist`; the entry
/// arrived over the edge to `via` (`via == owner` for the self-entry).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracedEntry {
    /// The remote node (the LE-list source).
    pub node: NodeId,
    /// Distance from the list owner to `node`.
    pub dist: Dist,
    /// The owner's neighbor the entry was received from.
    pub via: NodeId,
}

/// A predecessor-carrying LE list, sorted by ascending distance.
#[derive(Clone, Debug, Default)]
pub struct TracedLeList {
    entries: Vec<TracedEntry>,
}

impl TracedLeList {
    /// The entries, ascending by distance (ranks strictly decreasing).
    pub fn entries(&self) -> &[TracedEntry] {
        &self.entries
    }

    /// Looks up the entry for `node`.
    pub fn get(&self, node: NodeId) -> Option<TracedEntry> {
        self.entries.iter().find(|e| e.node == node).copied()
    }
}

fn le_filter_traced(entries: &mut Vec<TracedEntry>, ranks: &Ranks) {
    entries.sort_unstable_by_key(|e| (e.dist, ranks.rank(e.node), e.via));
    let mut kept: Vec<TracedEntry> = Vec::new();
    let mut best_rank = u32::MAX;
    for e in entries.drain(..) {
        let r = ranks.rank(e.node);
        if r < best_rank {
            kept.push(e);
            best_rank = r;
        }
    }
    *entries = kept;
}

/// Computes predecessor-carrying LE lists of the exact metric of `g` by
/// filtered MBF iteration to the fixpoint (Definition 7.3 plus
/// provenance).
pub fn traced_le_lists(g: &Graph, ranks: &Arc<Ranks>) -> Vec<TracedLeList> {
    let n = g.n();
    let mut lists: Vec<TracedLeList> = (0..n as NodeId)
        .map(|v| TracedLeList {
            entries: vec![TracedEntry {
                node: v,
                dist: Dist::ZERO,
                via: v,
            }],
        })
        .collect();
    loop {
        let mut changed = false;
        let next: Vec<TracedLeList> = (0..n as NodeId)
            .map(|v| {
                let mut acc: Vec<TracedEntry> = lists[v as usize].entries.clone();
                for &(w, ew) in g.neighbors(v) {
                    for e in &lists[w as usize].entries {
                        acc.push(TracedEntry {
                            node: e.node,
                            dist: e.dist + Dist::new(ew),
                            via: w,
                        });
                    }
                }
                le_filter_traced(&mut acc, ranks);
                TracedLeList { entries: acc }
            })
            .collect();
        for v in 0..n {
            // Compare the (node, dist) content; `via` ties may flap
            // without affecting the fixpoint.
            let same = next[v].entries.len() == lists[v].entries.len()
                && next[v]
                    .entries
                    .iter()
                    .zip(&lists[v].entries)
                    .all(|(a, b)| a.node == b.node && a.dist == b.dist);
            if !same {
                changed = true;
            }
        }
        lists = next;
        if !changed {
            break;
        }
    }
    lists
}

/// Traces the path for the LE entry `(target, dist)` of `start` by
/// following the stored predecessors: at each node, hop to the `via`
/// neighbor and look the target up in *its* list. Returns the node
/// sequence `start ⇝ target`, or `None` if the lists are inconsistent
/// (cannot happen at a fixpoint; defended anyway).
pub fn trace_le_path(
    g: &Graph,
    lists: &[TracedLeList],
    start: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    let mut path = vec![start];
    let mut cur = start;
    let mut remaining = lists[start as usize].get(target)?.dist;
    let mut guard = g.n() + 1;
    while cur != target {
        guard = guard.checked_sub(1)?;
        let entry = lists[cur as usize].get(target)?;
        let via = entry.via;
        debug_assert_ne!(via, cur, "only the self-entry points to itself");
        let ew = Dist::new(g.weight(cur, via)?);
        path.push(via);
        remaining = Dist::new((remaining.value() - ew.value()).max(0.0));
        cur = via;
        // Consistency: the next node's entry must account for the rest.
        let next_entry = lists[cur as usize].get(target)?;
        if (next_entry.dist.value() - remaining.value()).abs() > 1e-6 * remaining.value().max(1.0) {
            return None;
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_core_test_helpers::*;

    mod mte_core_test_helpers {
        pub use crate::frt::le_list::le_lists_direct;
        pub use mte_graph::algorithms::sssp;
        pub use mte_graph::generators::{gnm_graph, path_graph};
        pub use rand::rngs::StdRng;
        pub use rand::SeedableRng;
    }

    #[test]
    fn traced_lists_match_plain_le_lists() {
        let mut rng = StdRng::seed_from_u64(401);
        let g = gnm_graph(40, 100, 1.0..9.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let traced = traced_le_lists(&g, &ranks);
        let (plain, _, _) = le_lists_direct(&g, &ranks);
        for v in 0..g.n() {
            let a: Vec<(NodeId, Dist)> = traced[v]
                .entries()
                .iter()
                .map(|e| (e.node, e.dist))
                .collect();
            let b: Vec<(NodeId, Dist)> = plain[v].entries().to_vec();
            assert_eq!(a.len(), b.len(), "node {v}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert!((x.1.value() - y.1.value()).abs() <= 1e-9 * x.1.value().max(1.0));
            }
        }
    }

    #[test]
    fn every_entry_traces_to_a_real_shortest_path() {
        let mut rng = StdRng::seed_from_u64(402);
        let g = gnm_graph(35, 90, 1.0..7.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let lists = traced_le_lists(&g, &ranks);
        for v in 0..g.n() as NodeId {
            let exact = sssp(&g, v);
            for e in lists[v as usize].entries() {
                let path = trace_le_path(&g, &lists, v, e.node)
                    .unwrap_or_else(|| panic!("trace failed for ({v} → {})", e.node));
                assert_eq!(path.first().copied(), Some(v));
                assert_eq!(path.last().copied(), Some(e.node));
                let mut total = 0.0;
                for hop in path.windows(2) {
                    total += g.weight(hop[0], hop[1]).expect("path must follow edges");
                }
                // The traced path realizes the entry's distance, which is
                // the exact shortest distance.
                assert!((total - e.dist.value()).abs() <= 1e-6 * total.max(1.0));
                assert!((total - exact.dist(e.node).value()).abs() <= 1e-6 * total.max(1.0));
            }
        }
    }

    #[test]
    fn trace_on_path_graph_walks_the_path() {
        let g = path_graph(6, 2.0);
        let ranks = Arc::new(Ranks::from_order(vec![5, 0, 1, 2, 3, 4]));
        let lists = traced_le_lists(&g, &ranks);
        // Node 0's list contains node 5 (rank 0) at distance 10.
        let p = trace_le_path(&g, &lists, 0, 5).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5]);
    }
}
