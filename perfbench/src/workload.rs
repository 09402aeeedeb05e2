//! The three workloads and their seeded set-up.
//!
//! Every input — the graph, the fixed pair sample the stretch and
//! dominance checks use, the query universe and each client's Zipf
//! stream — is generated from the workload seed. The set-up also runs
//! the reference Dijkstra (`sssp`, outside the engine) for the pair
//! sample.

use mte_graph::algorithms::sssp;
use mte_graph::generators::{gnm_graph, highway_graph};
use mte_graph::hopset::HopsetConfig;
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the LE lists of a tree are computed.
#[derive(Clone, Debug)]
pub enum LeStage {
    /// The paper's pipeline: hop set, implicit `H`, oracle LE lists
    /// (`FrtEmbedding::sample`).
    Oracle { hopset: HopsetConfig, eps_hat: f64 },
    /// Direct filtered iteration on `G` (`sample_direct`): exact lists of
    /// `G` itself.
    Direct,
}

#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    Highway { spine: usize, hub_weight: f64 },
    Gnm { n: usize, m: usize, max_weight: f64 },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    /// Baswana–Sen spanner parameter `k` (Corollary 7.11), if any.
    pub spanner_k: Option<usize>,
    pub le: LeStage,
    /// Seconds budgeted per tree build, above its time on a busy 2-core
    /// host. It fixes how many trees a run of a given length builds, so
    /// that both sides of a comparison build the same trees whatever
    /// their speed.
    pub tree_seconds: f64,
    /// Share of the run given to the serving phase.
    pub serve_share: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "embed_highway",
        graph: GraphSpec::Highway {
            spine: 512,
            hub_weight: 1e6,
        },
        spanner_k: None,
        // d = 2·√n | 1, as in the E16 table of `exp_baseline`.
        le: LeStage::Oracle {
            hopset: HopsetConfig {
                d: 45,
                epsilon: 0.0,
                oversample: 1.0,
            },
            eps_hat: 0.05,
        },
        tree_seconds: 1.5,
        serve_share: 0.2,
    },
    Workload {
        name: "embed_dense_spanner",
        graph: GraphSpec::Gnm {
            n: 1000,
            m: 40_000,
            max_weight: 50.0,
        },
        spanner_k: Some(3),
        // `HopsetConfig::for_scale(1000, 40_000)`: d = 138.
        le: LeStage::Oracle {
            hopset: HopsetConfig {
                d: 138,
                epsilon: 0.0,
                oversample: 2.0,
            },
            eps_hat: 0.05,
        },
        tree_seconds: 1.7,
        serve_share: 0.1,
    },
    Workload {
        name: "serve_zipf",
        graph: GraphSpec::Gnm {
            n: 4000,
            m: 12_000,
            max_weight: 50.0,
        },
        spanner_k: None,
        le: LeStage::Direct,
        tree_seconds: 0.06,
        serve_share: 0.95,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).cloned()
}

/// Rounds per run; each rebuilds every tree and then serves.
pub const ROUNDS: u64 = 4;

/// Distinct trees a run of `seconds` builds after its warm-up tree (each
/// built once per round).
pub fn tree_count(w: &Workload, seconds: f64) -> usize {
    let per_round = seconds * (1.0 - w.serve_share) / ROUNDS as f64;
    ((per_round / w.tree_seconds).round() as usize).max(1)
}

/// Sub-seed for one named stream of a run (splitmix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const STREAM_GRAPH: u64 = 1;
pub const STREAM_PAIRS: u64 = 2;
pub const STREAM_QUERIES: u64 = 3;
pub const STREAM_CLIENT: u64 = 2 << 32;

/// Seed of the sampler's random bits for tree `index` of every run.
///
/// The workload seed generates the inputs; the sampler's own coin flips
/// (spanner clusters, hubs, levels, order, `β`) come from a fixed stream
/// per tree index, so a run measures the same trees whatever its seed.
/// Per-tree cost varies about 2× with these coin flips, and a run builds
/// too few trees for that to average out across seeds.
pub fn tree_seed(index: u64) -> u64 {
    sub_seed(0x4652_5453, index)
}

/// Query-universe size, Zipf exponent, and the length of each client's
/// pre-drawn stream (cycled).
pub const UNIVERSE: usize = 65_536;
pub const ZIPF_S: f64 = 1.0;
pub const STREAM_LEN: usize = 1 << 20;
pub const CLIENTS: usize = 2;
/// Reference sources and targets per source of the stretch sample.
const SAMPLE_SOURCES: usize = 256;
const SAMPLE_TARGETS: usize = 64;

/// Everything a run needs before its first tree.
pub struct Setup {
    pub graph: Graph,
    /// `(u, v, dist_G(u, v))`, from Dijkstra.
    pub sample: Vec<(u32, u32, f64)>,
    /// The query universe; Zipf rank `r` asks for `universe[r]`.
    pub universe: Vec<(u32, u32)>,
    /// Per client: universe indices, Zipf-distributed.
    pub streams: Vec<Vec<u32>>,
}

impl Setup {
    pub fn build(w: &Workload, seed: u64) -> Setup {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_GRAPH));
        let graph = match w.graph {
            GraphSpec::Highway { spine, hub_weight } => highway_graph(spine, hub_weight),
            GraphSpec::Gnm { n, m, max_weight } => gnm_graph(n, m, 1.0..max_weight, &mut rng),
        };
        let n = graph.n() as u32;

        let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_PAIRS));
        let mut sample = Vec::with_capacity(SAMPLE_SOURCES * SAMPLE_TARGETS);
        for _ in 0..SAMPLE_SOURCES {
            let s = rng.gen_range(0..n);
            let dist = sssp(&graph, s);
            for _ in 0..SAMPLE_TARGETS {
                let t = (s + rng.gen_range(1..n)) % n;
                sample.push((s, t, dist.dist(t).value()));
            }
        }

        let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_QUERIES));
        let universe = (0..UNIVERSE)
            .map(|_| {
                let u = rng.gen_range(0..n);
                (u, (u + rng.gen_range(1..n)) % n)
            })
            .collect();
        let mut cdf: Vec<f64> = (1..=UNIVERSE)
            .scan(0.0, |acc, r| {
                *acc += (r as f64).powf(-ZIPF_S);
                Some(*acc)
            })
            .collect();
        let total = cdf[UNIVERSE - 1];
        cdf.iter_mut().for_each(|c| *c /= total);
        let streams = (0..CLIENTS as u64)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_CLIENT + c));
                (0..STREAM_LEN)
                    .map(|_| {
                        let x: f64 = rng.gen_range(0.0..1.0);
                        cdf.partition_point(|&c| c < x).min(UNIVERSE - 1) as u32
                    })
                    .collect()
            })
            .collect();
        Setup {
            graph,
            sample,
            universe,
            streams,
        }
    }
}
