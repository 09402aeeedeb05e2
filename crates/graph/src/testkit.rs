//! Test-only graph families and output digests shared by the unit tests
//! of [`crate::algorithms`], [`crate::spanner`] and [`crate::hopset`].

use crate::generators::gnm_graph;
use crate::graph::Graph;
use mte_algebra::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of an edge list: its length, then every `(u, v, w.to_bits())`
/// in list order.
pub fn edge_digest(edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> u64 {
    let edges: Vec<_> = edges.into_iter().collect();
    fnv1a(
        std::iter::once(edges.len() as u64).chain(
            edges
                .into_iter()
                .flat_map(|(u, v, w)| [u64::from(u), u64::from(v), w.to_bits()]),
        ),
    )
}

/// Connected `G(n, m)` with integer weights in `1..=4`: many equal-length
/// paths, so tie-breaking decides the outputs.
pub fn gnm_int(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let g = gnm_graph(n, m, 1.0..5.0, rng);
    Graph::from_edges(n, g.edges().map(|(u, v, w)| (u, v, w.floor())))
}

/// Two disjoint real-weight `G(n, m)` components, the second on ids
/// `n..2n`.
pub fn two_components(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let a = gnm_graph(n, m, 1.0..10.0, rng);
    let b = gnm_graph(n, m, 1.0..10.0, rng);
    let shift = n as NodeId;
    Graph::from_edges(
        2 * n,
        a.edges()
            .chain(b.edges().map(|(u, v, w)| (u + shift, v + shift, w))),
    )
}

/// The graph families the spanner and hop-set digests are pinned on,
/// by name, each drawn from `seed`.
pub fn pinned_family(name: &str, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "gnm_real" => gnm_graph(300, 3000, 1.0..10.0, &mut rng),
        "gnm_int" => gnm_int(300, 3000, &mut rng),
        "disconnected" => two_components(150, 900, &mut rng),
        _ => panic!("unknown pinned family {name}"),
    }
}

/// Runs `f` inside a dedicated pool of `threads` workers.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}
