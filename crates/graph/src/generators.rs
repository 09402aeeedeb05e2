//! Reproducible graph generators for tests, examples and experiments.
//!
//! All random generators take an explicit RNG; all weights are drawn from a
//! caller-supplied range, keeping the paper's assumption of a polynomially
//! bounded weight ratio under the caller's control. Every generator returns
//! a *connected* graph (the paper assumes connectivity, Section 1.2).

use crate::graph::Graph;
use mte_algebra::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

fn rand_weight(range: &Range<f64>, rng: &mut impl Rng) -> f64 {
    if range.start == range.end {
        range.start
    } else {
        rng.gen_range(range.clone())
    }
}

/// A uniformly random spanning tree skeleton: node `i ≥ 1` attaches to a
/// uniformly random earlier node. (A random recursive tree — cheap,
/// connected, and with logarithmic expected depth.)
fn random_attachment_edges(n: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
    (1..n)
        .map(|i| (rng.gen_range(0..i) as NodeId, i as NodeId))
        .collect()
}

/// Connected Erdős–Rényi-style `G(n, m)`: a random recursive tree plus
/// `m − (n−1)` additional uniformly random edges (duplicates merged, so
/// the realized edge count can be slightly below `m` on dense requests).
pub fn gnm_graph(n: usize, m: usize, weights: Range<f64>, rng: &mut impl Rng) -> Graph {
    assert!(n >= 1);
    assert!(m + 1 >= n, "need m ≥ n − 1 for connectivity");
    let mut edges: Vec<(NodeId, NodeId, f64)> = random_attachment_edges(n, rng)
        .into_iter()
        .map(|(u, v)| (u, v, rand_weight(&weights, rng)))
        .collect();
    let extra = m.saturating_sub(n.saturating_sub(1));
    for _ in 0..extra {
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n) as NodeId;
        let mut v = rng.gen_range(0..n) as NodeId;
        while v == u {
            v = rng.gen_range(0..n) as NodeId;
        }
        edges.push((u, v, rand_weight(&weights, rng)));
    }
    Graph::try_from_edges(n, edges).expect("generator produced an invalid edge list")
}

/// Path `0 − 1 − … − (n−1)` with uniform weight: SPD(G) = n − 1, the
/// paper's worst case for plain MBF iteration counts.
pub fn path_graph(n: usize, weight: f64) -> Graph {
    Graph::try_from_edges(
        n,
        (0..n.saturating_sub(1)).map(|i| (i as NodeId, (i + 1) as NodeId, weight)),
    )
    .expect("generator produced an invalid edge list")
}

/// Cycle on `n ≥ 3` nodes with uniform weight: the paper's example of a
/// graph where every *deterministic* tree embedding stretches some edge by
/// `Ω(n)` (Section 1.1, Metric Tree Embeddings).
pub fn cycle_graph(n: usize, weight: f64) -> Graph {
    assert!(n >= 3);
    Graph::try_from_edges(
        n,
        (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId, weight)),
    )
    .expect("generator produced an invalid edge list")
}

/// `rows × cols` grid with unit-range random weights.
pub fn grid_graph(rows: usize, cols: usize, weights: Range<f64>, rng: &mut impl Rng) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), rand_weight(&weights, rng)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), rand_weight(&weights, rng)));
            }
        }
    }
    Graph::try_from_edges(rows * cols, edges).expect("generator produced an invalid edge list")
}

/// Star: node 0 is the hub. SPD(G) = 2 — the easy case for MBF.
pub fn star_graph(n: usize, weights: Range<f64>, rng: &mut impl Rng) -> Graph {
    assert!(n >= 2);
    Graph::try_from_edges(
        n,
        (1..n).map(|i| (0, i as NodeId, rand_weight(&weights, rng))),
    )
    .expect("generator produced an invalid edge list")
}

/// Uniformly random recursive tree with random weights.
// analyze: dead-pub-ok(a graph family of the crate prelude, beside the other generators)
pub fn tree_graph(n: usize, weights: Range<f64>, rng: &mut impl Rng) -> Graph {
    let edges: Vec<_> = random_attachment_edges(n, rng)
        .into_iter()
        .map(|(u, v)| (u, v, rand_weight(&weights, rng)))
        .collect();
    Graph::try_from_edges(n, edges).expect("generator produced an invalid edge list")
}

/// Caterpillar: a spine path of `spine` nodes (weight `spine_weight`) with
/// `legs` leaf nodes hanging off random spine nodes. Large SPD with extra
/// volume — the adversarial family for iteration-count experiments.
pub fn caterpillar_graph(
    spine: usize,
    legs: usize,
    spine_weight: f64,
    leg_weights: Range<f64>,
    rng: &mut impl Rng,
) -> Graph {
    assert!(spine >= 2);
    let mut edges: Vec<(NodeId, NodeId, f64)> = (0..spine - 1)
        .map(|i| (i as NodeId, (i + 1) as NodeId, spine_weight))
        .collect();
    for l in 0..legs {
        let attach = rng.gen_range(0..spine) as NodeId;
        edges.push((
            attach,
            (spine + l) as NodeId,
            rand_weight(&leg_weights, rng),
        ));
    }
    Graph::try_from_edges(spine + legs, edges).expect("generator produced an invalid edge list")
}

/// "Highway" graph: a unit-weight spine path of `spine` nodes plus heavy
/// hub edges (weight `hub_weight ≫ spine`) from node 0 to every node.
/// Hop diameter `D(G) = 2`, but every shortest path still follows the
/// spine, so `SPD(G) = spine − 1`. This is the regime where the
/// skeleton-based Congest algorithm (Theorem 8.1) beats Khan et al.:
/// `√n + D(G) ≪ SPD(G)`.
pub fn highway_graph(spine: usize, hub_weight: f64) -> Graph {
    assert!(spine >= 3);
    assert!(
        hub_weight > spine as f64,
        "hub edges must never shortcut the spine"
    );
    let mut edges: Vec<(NodeId, NodeId, f64)> = (0..spine - 1)
        .map(|i| (i as NodeId, (i + 1) as NodeId, 1.0))
        .collect();
    for v in 2..spine {
        edges.push((0, v as NodeId, hub_weight));
    }
    Graph::try_from_edges(spine, edges).expect("generator produced an invalid edge list")
}

/// Random geometric graph: `n` points in the unit square, edges between
/// points at Euclidean distance `≤ radius` (weight = distance, scaled by
/// `weight_scale`), made connected by chaining consecutive points of a
/// random ordering where necessary. A road-network-like family.
pub fn random_geometric_graph(
    n: usize,
    radius: f64,
    weight_scale: f64,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 1 && radius > 0.0 && weight_scale > 0.0);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let dist = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let d = dist(points[i], points[j]);
            if d <= radius && d > 0.0 {
                edges.push((i as NodeId, j as NodeId, d * weight_scale));
            }
        }
    }
    // Connectivity patch: connect each node to its nearest point among the
    // earlier ones (like a Euclidean minimum insertion tree).
    for i in 1..n {
        let (j, d) = (0..i)
            .map(|j| (j, dist(points[i], points[j])))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        edges.push((j as NodeId, i as NodeId, d.max(1e-9) * weight_scale));
    }
    Graph::try_from_edges(n, edges).expect("generator produced an invalid edge list")
}

/// Expander-like random regular multigraph: the union of `deg/2` random
/// permutation cycles (duplicates merged). Expanders witness the
/// optimality of the O(log n) stretch bound (Section 1.1).
pub fn expander_graph(n: usize, deg: usize, weights: Range<f64>, rng: &mut impl Rng) -> Graph {
    assert!(n >= 3 && deg >= 2);
    let mut edges = Vec::with_capacity(n * deg / 2);
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..deg.div_ceil(2) {
        perm.shuffle(rng);
        for i in 0..n {
            let u = perm[i];
            let v = perm[(i + 1) % n];
            if u != v {
                edges.push((u, v, rand_weight(&weights, rng)));
            }
        }
    }
    // A cycle through all nodes is part of the union, so it is connected.
    Graph::try_from_edges(n, edges).expect("generator produced an invalid edge list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnm_is_connected_with_requested_size() {
        let g = gnm_graph(50, 120, 1.0..10.0, &mut rng(1));
        assert_eq!(g.n(), 50);
        assert!(g.m() >= 49 && g.m() <= 120);
        assert!(is_connected(&g));
    }

    #[test]
    fn generators_produce_connected_graphs() {
        let mut r = rng(2);
        assert!(is_connected(&path_graph(10, 1.0)));
        assert!(is_connected(&cycle_graph(10, 1.0)));
        assert!(is_connected(&grid_graph(4, 6, 1.0..2.0, &mut r)));
        assert!(is_connected(&star_graph(9, 1.0..2.0, &mut r)));
        assert!(is_connected(&tree_graph(20, 1.0..2.0, &mut r)));
        assert!(is_connected(&caterpillar_graph(
            8,
            12,
            1.0,
            1.0..2.0,
            &mut r
        )));
        assert!(is_connected(&random_geometric_graph(
            40, 0.2, 100.0, &mut r
        )));
        assert!(is_connected(&expander_graph(30, 4, 1.0..2.0, &mut r)));
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = gnm_graph(30, 60, 1.0..5.0, &mut rng(42));
        let g2 = gnm_graph(30, 60, 1.0..5.0, &mut rng(42));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn grid_dimensions() {
        let g = grid_graph(3, 4, 1.0..1.0000001, &mut rng(3));
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
    }

    #[test]
    fn highway_graph_has_small_diameter_large_spd() {
        let g = highway_graph(50, 1e5);
        assert!(is_connected(&g));
        assert_eq!(crate::algorithms::hop_diameter(&g), 2);
        assert_eq!(crate::algorithms::shortest_path_diameter(&g), 49);
    }

    #[test]
    fn uniform_weight_range_is_allowed() {
        let g = gnm_graph(10, 20, 1.0..1.0, &mut rng(4));
        assert!(g.edges().all(|(_, _, w)| w == 1.0));
    }
}
