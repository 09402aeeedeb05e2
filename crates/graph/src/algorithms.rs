//! Sequential reference algorithms: Dijkstra, hop-limited
//! Moore-Bellman-Ford, BFS, shortest-path diameter.
//!
//! These are the ground truth the MBF-like framework is tested against,
//! and the building blocks of the hop-set and spanner substrates.
//!
//! # The Dijkstra kernel
//!
//! [`sssp`], [`multi_source_dijkstra`], [`apsp`] and the hop set's
//! per-hub searches all run one kernel, `DijkstraRun`: an indexed 4-ary
//! min-heap keyed by `(dist, node)` with decrease-key.
//!
//! **Why its outputs are bit-identical to the textbook lazy-deletion
//! `BinaryHeap<Reverse<(Dist, NodeId)>>` loop** (kept verbatim in the test
//! module as the reference). With positive weights, `d + w ≥ d` in
//! floating point, so a settled node is never improved again: each node
//! is settled exactly once, and the lazy heap's live entries are exactly
//! one `(dist[v], v)` per reached, unsettled node (stale entries carry a
//! larger `d` and are skipped). Both heaps therefore pop the minimum
//! `(dist[v], v)` over the same set at every step. Keys are unique, so
//! the heap's shape cannot break ties differently. Same settle order,
//! same relaxations in the same order, same strict `<` test: `dist` and
//! `pred` come out bit-identical, and so does the multi-source
//! `nearest` label, which is a function of the `pred` tree.
//!
//! Each run owns its buffers and frees them when it ends: per-thread
//! buffers kept alive between runs measured no faster on the hop set
//! (the search, not its allocation, dominates), and they would pin
//! heap memory for the rest of the process.

use crate::graph::Graph;
use mte_algebra::{Dist, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Dist>,
    pred: Vec<NodeId>,
}

impl ShortestPaths {
    /// The source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.dist[v as usize]
    }

    /// All distances, indexed by node.
    #[inline]
    pub fn all(&self) -> &[Dist] {
        &self.dist
    }

    /// Reconstructs a shortest path from the source to `v`
    /// (node sequence source..=v), or `None` if unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist[v as usize].is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.pred[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Heap slot of a node that is not queued: never reached, or already
/// settled.
const NOT_QUEUED: u32 = u32::MAX;

/// One finished run of the Dijkstra kernel (see the module docs).
pub(crate) struct DijkstraRun {
    dist: Vec<Dist>,
    /// The node that last improved each reached node (a source is its
    /// own predecessor); `NodeId::MAX` for unreached nodes.
    pred: Vec<NodeId>,
    /// Heap slot of each queued node, [`NOT_QUEUED`] otherwise.
    pos: Vec<u32>,
    /// 4-ary min-heap of `(dist, node)` keys.
    heap: Vec<(Dist, NodeId)>,
    /// Reached nodes in settle order (increasing `(dist, node)`).
    settled: Vec<NodeId>,
}

/// Strict `(dist, node)` order of heap keys.
#[inline]
fn key_less(a: (Dist, NodeId), b: (Dist, NodeId)) -> bool {
    let (da, db) = (a.0.value(), b.0.value());
    da < db || (da == db && a.1 < b.1)
}

impl DijkstraRun {
    /// Dijkstra on `g` from every node of `sources` at distance 0.
    pub(crate) fn new(g: &Graph, sources: &[NodeId]) -> DijkstraRun {
        let n = g.n();
        let mut run = DijkstraRun {
            dist: vec![Dist::INF; n],
            pred: vec![NodeId::MAX; n],
            pos: vec![NOT_QUEUED; n],
            heap: Vec::new(),
            settled: Vec::with_capacity(n),
        };
        for &s in sources {
            if run.pred[s as usize] == NodeId::MAX {
                run.dist[s as usize] = Dist::ZERO;
                run.pred[s as usize] = s;
                run.push(s);
            }
        }
        while let Some((d, v)) = run.pop() {
            run.settled.push(v);
            for &(w, ew) in g.neighbors(v) {
                let nd = d + Dist::new(ew);
                if nd < run.dist[w as usize] {
                    run.dist[w as usize] = nd;
                    run.pred[w as usize] = v;
                    match run.pos[w as usize] {
                        NOT_QUEUED => run.push(w),
                        slot => run.sift_up(slot as usize),
                    }
                }
            }
        }
        run
    }

    /// Distance of `v` from the nearest source (`∞` if unreached).
    #[inline]
    pub(crate) fn dist(&self, v: NodeId) -> Dist {
        self.dist[v as usize]
    }

    fn push(&mut self, v: NodeId) {
        self.heap.push((self.dist[v as usize], v));
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<(Dist, NodeId)> {
        let top = *self.heap.first()?;
        self.pos[top.1 as usize] = NOT_QUEUED;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Moves the node at `slot` up after its distance decreased (or it
    /// was appended), refreshing its key from `dist`.
    fn sift_up(&mut self, mut slot: usize) {
        let v = self.heap[slot].1;
        let item = (self.dist[v as usize], v);
        while slot > 0 {
            let parent = (slot - 1) / 4;
            let p = self.heap[parent];
            if !key_less(item, p) {
                break;
            }
            self.heap[slot] = p;
            self.pos[p.1 as usize] = slot as u32;
            slot = parent;
        }
        self.heap[slot] = item;
        self.pos[v as usize] = slot as u32;
    }

    fn sift_down(&mut self, mut slot: usize) {
        let item = self.heap[slot];
        let len = self.heap.len();
        loop {
            let first = 4 * slot + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + 4).min(len) {
                if key_less(self.heap[c], self.heap[best]) {
                    best = c;
                }
            }
            let child = self.heap[best];
            if !key_less(child, item) {
                break;
            }
            self.heap[slot] = child;
            self.pos[child.1 as usize] = slot as u32;
            slot = best;
        }
        self.heap[slot] = item;
        self.pos[item.1 as usize] = slot as u32;
    }
}

/// Dijkstra's algorithm from `s`: exact distances `dist(s, ·, G)`.
pub fn sssp(g: &Graph, s: NodeId) -> ShortestPaths {
    let run = DijkstraRun::new(g, &[s]);
    let pred = run
        .pred
        .into_iter()
        .map(|p| if p == NodeId::MAX { s } else { p })
        .collect();
    ShortestPaths {
        source: s,
        dist: run.dist,
        pred,
    }
}

/// Multi-source Dijkstra: for every node, the distance to the nearest
/// source and that source's id. Returns `(dist, nearest_source)`;
/// unreachable nodes carry `(∞, NodeId::MAX)`.
pub fn multi_source_dijkstra(g: &Graph, sources: &[NodeId]) -> (Vec<Dist>, Vec<NodeId>) {
    let run = DijkstraRun::new(g, sources);
    // Settle order lists every predecessor before its successors.
    let mut near = vec![NodeId::MAX; g.n()];
    for &v in &run.settled {
        let p = run.pred[v as usize];
        near[v as usize] = if p == v { v } else { near[p as usize] };
    }
    (run.dist, near)
}

/// All-pairs shortest paths by one Dijkstra per source, parallelized over
/// sources. Returns the `n × n` distance matrix in row-major order
/// (`result[u][v] = dist(u, v, G)`).
pub fn apsp(g: &Graph) -> Vec<Vec<Dist>> {
    (0..g.n() as NodeId)
        .into_par_iter()
        .map(|s| DijkstraRun::new(g, &[s]).dist)
        .collect()
}

/// Hop-limited Moore-Bellman-Ford: `dist^h(s, ·, G)` — the minimum weight
/// of an `≤ h`-hop path (Section 1.2). The classic MBF algorithm the
/// paper's framework generalizes; used as ground truth for `h`-hop claims.
/// Stops at the first sweep that changes nothing: every later sweep
/// would repeat it, so the result is exactly `dist^h`.
pub fn sssp_hop_limited(g: &Graph, s: NodeId, h: usize) -> Vec<Dist> {
    let n = g.n();
    let mut cur = vec![Dist::INF; n];
    cur[s as usize] = Dist::ZERO;
    let mut next = cur.clone();
    for _ in 0..h {
        let mut changed = false;
        for v in 0..n {
            let mut best = cur[v];
            for &(w, ew) in g.neighbors(v as NodeId) {
                best = best.min(cur[w as usize] + Dist::new(ew));
            }
            changed |= best != cur[v];
            next[v] = best;
        }
        std::mem::swap(&mut cur, &mut next);
        if !changed {
            break;
        }
    }
    cur
}

/// BFS hop counts from `s` (unweighted distances), `u32::MAX` if
/// unreachable.
pub fn bfs_hops(g: &Graph, s: NodeId) -> Vec<u32> {
    let n = g.n();
    let mut hops = vec![u32::MAX; n];
    hops[s as usize] = 0;
    let mut frontier = vec![s];
    let mut next = Vec::new();
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        for &v in &frontier {
            for &(w, _) in g.neighbors(v) {
                if hops[w as usize] == u32::MAX {
                    hops[w as usize] = level;
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    hops
}

/// The unweighted hop diameter `D(G)` (Section 1.2); `u32::MAX` if `G` is
/// disconnected. Computed by one BFS per node, parallelized.
pub fn hop_diameter(g: &Graph) -> u32 {
    (0..g.n() as NodeId)
        .into_par_iter()
        .map(|s| bfs_hops(g, s).into_iter().max().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

/// Lexicographic Dijkstra from `s`: for each node, the pair
/// `(dist(s, v), hop(s, v))` where `hop` is the minimum hop count among
/// shortest `s`-`v` paths (Section 1.2's `hop(v, w, G)`).
pub fn sssp_with_hops(g: &Graph, s: NodeId) -> (Vec<Dist>, Vec<u32>) {
    let n = g.n();
    let mut dist = vec![Dist::INF; n];
    let mut hops = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(Dist, u32, NodeId)>> = BinaryHeap::new();
    dist[s as usize] = Dist::ZERO;
    hops[s as usize] = 0;
    heap.push(Reverse((Dist::ZERO, 0, s)));
    while let Some(Reverse((d, h, v))) = heap.pop() {
        if (d, h) > (dist[v as usize], hops[v as usize]) {
            continue;
        }
        for &(w, ew) in g.neighbors(v) {
            let nd = d + Dist::new(ew);
            let nh = h + 1;
            if (nd, nh) < (dist[w as usize], hops[w as usize]) {
                dist[w as usize] = nd;
                hops[w as usize] = nh;
                heap.push(Reverse((nd, nh, w)));
            }
        }
    }
    (dist, hops)
}

/// The shortest-path diameter
/// `SPD(G) = max_{v,w} hop(v, w, G)` (Section 1.2): the number of
/// MBF-like iterations until a fixpoint. `u32::MAX` if disconnected.
pub fn shortest_path_diameter(g: &Graph) -> u32 {
    (0..g.n() as NodeId)
        .into_par_iter()
        .map(|s| sssp_with_hops(g, s).1.into_iter().max().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

/// The paper's classic algebraic APSP baseline (Section 1.1): square the
/// min-plus adjacency matrix until the fixpoint,
/// `A^{(i+1)} = A^{(i)} A^{(i)}` — polylog depth but `Ω(n³)` work even on
/// sparse graphs. Returns the distance matrix and the number of
/// squarings (`≤ ⌈log₂ SPD(G)⌉ + 1`).
pub fn apsp_by_squaring(g: &Graph) -> (Vec<Vec<Dist>>, usize) {
    use mte_algebra::{MinPlus, Semiring, SemiringMatrix};
    let n = g.n();
    let mut a = SemiringMatrix::<MinPlus>::zeros(n);
    for i in 0..n {
        a.set(i, i, MinPlus::one());
    }
    for (u, v, w) in g.edges() {
        a.set(u as usize, v as usize, MinPlus::new(w));
        a.set(v as usize, u as usize, MinPlus::new(w));
    }
    let (fix, squarings) = a.square_to_fixpoint(n);
    let dist = (0..n)
        .map(|i| (0..n).map(|j| fix.get(i, j).dist()).collect())
        .collect();
    (dist, squarings)
}

/// Whether `G` is connected (true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs_hops(g, 0).iter().all(|&h| h != u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnm_graph, grid_graph, path_graph};
    use crate::testkit::{gnm_int, two_components};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The lazy-deletion Dijkstra `sssp` ran before the shared kernel,
    /// verbatim: the literal reference of the kernel's bit-identity claim.
    fn reference_sssp(g: &Graph, s: NodeId) -> ShortestPaths {
        let n = g.n();
        let mut dist = vec![Dist::INF; n];
        let mut pred = vec![s; n];
        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        dist[s as usize] = Dist::ZERO;
        heap.push(Reverse((Dist::ZERO, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(w, ew) in g.neighbors(v) {
                let nd = d + Dist::new(ew);
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    pred[w as usize] = v;
                    heap.push(Reverse((nd, w)));
                }
            }
        }
        ShortestPaths {
            source: s,
            dist,
            pred,
        }
    }

    /// The lazy-deletion `multi_source_dijkstra` that preceded the shared
    /// kernel, verbatim.
    fn reference_multi_source(g: &Graph, sources: &[NodeId]) -> (Vec<Dist>, Vec<NodeId>) {
        let n = g.n();
        let mut dist = vec![Dist::INF; n];
        let mut near = vec![NodeId::MAX; n];
        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        for &s in sources {
            dist[s as usize] = Dist::ZERO;
            near[s as usize] = s;
            heap.push(Reverse((Dist::ZERO, s)));
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(w, ew) in g.neighbors(v) {
                let nd = d + Dist::new(ew);
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    near[w as usize] = near[v as usize];
                    heap.push(Reverse((nd, w)));
                }
            }
        }
        (dist, near)
    }

    /// The kernel's five test families on about `n` nodes: real and
    /// integer weights (many ties), unit-weight grids and paths, and a
    /// disconnected graph.
    fn family(kind: u32, n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => gnm_graph(n, 3 * n, 1.0..10.0, &mut rng),
            1 => gnm_int(n, 3 * n, &mut rng),
            2 => grid_graph(n.div_ceil(8), 8, 1.0..1.0, &mut rng),
            3 => path_graph(n, 1.0),
            _ => two_components(n.div_ceil(2), n, &mut rng),
        }
    }

    fn bits(d: &[Dist]) -> Vec<u64> {
        d.iter().map(|d| d.value().to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernel_matches_lazy_reference(kind in 0u32..5, n in 2usize..90, seed in any::<u64>()) {
            let g = family(kind, n, seed);
            let n = g.n();
            for s in [0, n / 2, n - 1].map(|v| v as NodeId) {
                let got = sssp(&g, s);
                let want = reference_sssp(&g, s);
                prop_assert_eq!(bits(&got.dist), bits(&want.dist));
                prop_assert_eq!(&got.pred, &want.pred);
                for v in 0..n as NodeId {
                    prop_assert_eq!(got.path_to(v), want.path_to(v));
                }
                let anchor = sssp_hop_limited(&g, s, n);
                prop_assert_eq!(bits(&got.dist), bits(&anchor));
            }
            let sources: Vec<NodeId> = [n - 1, 0, n / 3, 0].map(|v| v as NodeId).to_vec();
            prop_assert_eq!(
                multi_source_dijkstra(&g, &sources),
                reference_multi_source(&g, &sources)
            );
            prop_assert_eq!(apsp(&g)[n / 2].clone(), reference_sssp(&g, (n / 2) as NodeId).dist);
        }
    }

    /// 0 -1- 1 -2- 2, plus a heavy direct edge 0-2 (weight 4): the
    /// shortest 0→2 route goes through 1.
    fn triangle() -> Graph {
        Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    }

    #[test]
    fn dijkstra_prefers_two_hop_route() {
        let sp = sssp(&triangle(), 0);
        assert_eq!(sp.dist(2), Dist::new(3.0));
        assert_eq!(sp.path_to(2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn hop_limited_mbf_respects_hop_budget() {
        let g = triangle();
        let d1 = sssp_hop_limited(&g, 0, 1);
        assert_eq!(d1[2], Dist::new(4.0)); // only the direct edge in 1 hop
        let d2 = sssp_hop_limited(&g, 0, 2);
        assert_eq!(d2[2], Dist::new(3.0));
        let d0 = sssp_hop_limited(&g, 0, 0);
        assert_eq!(d0[2], Dist::INF);
        assert_eq!(d0[0], Dist::ZERO);
    }

    #[test]
    fn hop_limited_matches_dijkstra_at_n_hops() {
        let g = crate::generators::gnm_graph(40, 100, 1.0..10.0, &mut rand_rng(3));
        let exact = sssp(&g, 0);
        let mbf = sssp_hop_limited(&g, 0, g.n());
        for v in 0..g.n() {
            assert_eq!(mbf[v], exact.dist(v as NodeId));
        }
    }

    fn rand_rng(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bfs_and_hop_diameter() {
        let g = crate::generators::path_graph(5, 1.0);
        assert_eq!(bfs_hops(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(hop_diameter(&g), 4);
    }

    #[test]
    fn spd_of_path_is_n_minus_1() {
        let g = crate::generators::path_graph(6, 1.0);
        assert_eq!(shortest_path_diameter(&g), 5);
    }

    #[test]
    fn spd_counts_min_hop_shortest_paths() {
        // 0-2 direct (weight 3) ties the 0-1-2 route (1+2): SPD must use
        // the min-hop one, so hop(0,2) = 1.
        let g = Graph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let (dist, hops) = sssp_with_hops(&g, 0);
        assert_eq!(dist[2], Dist::new(3.0));
        assert_eq!(hops[2], 1);
        assert_eq!(shortest_path_diameter(&g), 1);
    }

    #[test]
    fn multi_source_assigns_nearest() {
        let g = crate::generators::path_graph(7, 1.0);
        let (dist, near) = multi_source_dijkstra(&g, &[0, 6]);
        assert_eq!(dist[3], Dist::new(3.0));
        assert_eq!(near[1], 0);
        assert_eq!(near[5], 6);
    }

    #[test]
    fn apsp_is_symmetric() {
        let g = triangle();
        let d = apsp(&g);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(d[u][v], d[v][u]);
            }
        }
        assert_eq!(d[0][2], Dist::new(3.0));
    }

    #[test]
    fn squaring_apsp_matches_dijkstra() {
        let g = crate::generators::gnm_graph(30, 80, 1.0..9.0, &mut rand_rng(9));
        let (sq, squarings) = apsp_by_squaring(&g);
        let reference = apsp(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                let (a, b) = (sq[u][v].value(), reference[u][v].value());
                assert!(
                    (a - b).abs() <= 1e-9 * a.max(b).max(1.0),
                    "({u},{v}): {a} vs {b}"
                );
            }
        }
        // ⌈log₂ SPD⌉ + 1 squarings suffice.
        let spd = shortest_path_diameter(&g) as f64;
        assert!(squarings <= spd.log2().ceil() as usize + 2);
    }

    #[test]
    fn connectivity() {
        let g = Graph::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(!is_connected(&g));
        assert!(is_connected(&crate::generators::path_graph(4, 1.0)));
    }
}
