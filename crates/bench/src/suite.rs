//! Experiment implementations, one per reproduced claim, and the
//! [`CLAIMS`] table that names them (docs/DESIGN.md §4 is its
//! human-readable map).

use crate::tables::{f, Table};
use mte_algebra::{Dist, NodeId};
use mte_core::frt::le_list::{le_lists_direct, le_lists_oracle, Ranks};
use mte_core::frt::{sample_direct, sample_from_metric, FrtConfig, FrtEmbedding};
use mte_core::metric::{approximate_metric, approximate_metric_with_spanner, MetricConfig};
use mte_core::simgraph::{LevelAssignment, SimulatedGraph};
use mte_core::MbfRun;
use mte_graph::algorithms::{apsp, hop_diameter, shortest_path_diameter, sssp_hop_limited};
use mte_graph::generators::*;
use mte_graph::hopset::{Hopset, HopsetConfig};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// A reproduced claim: its id in docs/DESIGN.md §4 and the experiment
/// that builds its table. The paper reference is in the table's title.
pub type Claim = (&'static str, fn() -> Table);

/// Every reproduced claim, in docs/DESIGN.md §4's order.
pub const CLAIMS: &[Claim] = &[
    ("E1", exp_levels),
    ("E2", exp_spd),
    ("E3", exp_h_stretch),
    ("E4", exp_triangle),
    ("E5", exp_oracle_work),
    ("E6", exp_hopset),
    ("E7", exp_le_lists),
    ("E8", exp_frt_stretch),
    ("E9", exp_spanner_frt),
    ("E10", exp_metric),
    ("E11/E12", exp_congest),
    ("E13", exp_kmedian),
    ("E14", exp_buyatbulk),
    ("E15", exp_catalog),
    ("E16", exp_baseline),
    ("ablation", exp_ablation),
];

/// The [`CLAIMS`] rows that `ids` name, in argument order; every row
/// when `ids` is empty. An unknown id is an error that lists the valid
/// ones.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<Claim>, String> {
    if ids.is_empty() {
        return Ok(CLAIMS.to_vec());
    }
    ids.iter()
        .map(|id| {
            let id = id.as_ref();
            CLAIMS.iter().find(|c| c.0 == id).copied().ok_or_else(|| {
                let valid: Vec<&str> = CLAIMS.iter().map(|c| c.0).collect();
                format!("unknown claim id `{id}`; valid ids: {}", valid.join(" "))
            })
        })
        .collect()
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// E1 — Lemma 4.1: the maximum sampled level Λ is O(log n) w.h.p.
fn exp_levels() -> Table {
    let mut t = Table::new(
        "E1 (Lemma 4.1): level sampling, Λ vs log₂ n over 200 trials",
        &["n", "log2(n)", "mean Λ", "max Λ"],
    );
    for e in [8, 10, 12, 14, 16] {
        let n = 1usize << e;
        let mut r = rng(1000 + e as u64);
        let (mut sum, mut max) = (0u64, 0u32);
        let trials = 200;
        for _ in 0..trials {
            let la = LevelAssignment::sample(n, &mut r);
            sum += la.lambda() as u64;
            max = max.max(la.lambda());
        }
        t.push(vec![
            n.to_string(),
            f(e as f64, 0),
            f(sum as f64 / trials as f64, 2),
            max.to_string(),
        ]);
    }
    t
}

/// E2 — Theorem 4.5: SPD(H) ∈ O(log² n) even when SPD(G) = n − 1.
fn exp_spd() -> Table {
    let mut t = Table::new(
        "E2 (Theorem 4.5): SPD(H) vs SPD(G), ε̂ = 0.1 (mean over 5 level samples)",
        &[
            "graph",
            "n",
            "SPD(G)",
            "mean SPD(H)",
            "max SPD(H)",
            "log2²(n)",
        ],
    );
    let cases: Vec<(&str, Graph)> = vec![
        ("path", path_graph(128, 1.0)),
        ("path", path_graph(256, 1.0)),
        ("path", path_graph(512, 1.0)),
        ("cycle", cycle_graph(256, 1.0)),
        ("gnm m=3n", gnm_graph(256, 768, 1.0..10.0, &mut rng(2))),
        (
            "caterpillar",
            caterpillar_graph(192, 64, 1.0, 1.0..2.0, &mut rng(3)),
        ),
    ];
    for (name, g) in cases {
        let spd_g = shortest_path_diameter(&g);
        let mut r = rng(100);
        let (mut sum, mut max) = (0u64, 0u32);
        let trials = 5;
        for _ in 0..trials {
            let sim = SimulatedGraph::without_hopset(&g, spd_g as usize, 0.1, &mut r);
            let h = sim.explicit_h();
            let spd_h = shortest_path_diameter(&h);
            sum += spd_h as u64;
            max = max.max(spd_h);
        }
        let log2n = (g.n() as f64).log2();
        t.push(vec![
            name.into(),
            g.n().to_string(),
            spd_g.to_string(),
            f(sum as f64 / trials as f64, 1),
            max.to_string(),
            f(log2n * log2n, 0),
        ]);
    }
    t
}

/// E3 — Theorem 4.5 / Eq. (4.16): H's distances sandwich G's.
fn exp_h_stretch() -> Table {
    let mut t = Table::new(
        "E3 (Theorem 4.5): stretch of H over G vs the (1+ε̂)^{Λ+1} bound",
        &["ε̂", "Λ", "max stretch", "mean stretch", "bound (1+ε̂)^{Λ+1}"],
    );
    let g = gnm_graph(192, 576, 1.0..10.0, &mut rng(4));
    let spd = shortest_path_diameter(&g) as usize;
    let dg = apsp(&g);
    for eps in [0.02, 0.05, 0.1, 0.3] {
        let mut r = rng(5);
        let sim = SimulatedGraph::without_hopset(&g, spd, eps, &mut r);
        let dh = apsp(&sim.explicit_h());
        let (mut max_s, mut sum_s, mut cnt) = (1.0f64, 0.0, 0u64);
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                let s = dh[u][v].value() / dg[u][v].value();
                max_s = max_s.max(s);
                sum_s += s;
                cnt += 1;
            }
        }
        let bound = (1.0 + eps).powi(sim.levels().lambda() as i32 + 1);
        t.push(vec![
            f(eps, 2),
            sim.levels().lambda().to_string(),
            f(max_s, 4),
            f(sum_s / cnt as f64, 4),
            f(bound, 4),
        ]);
    }
    t
}

/// E4 — Observation 1.1: hop-set d-hop "distances" violate the triangle
/// inequality (unless exact); H's metric never does.
fn exp_triangle() -> Table {
    let mut t = Table::new(
        "E4 (Observation 1.1): triangle-inequality violations, sampled triples",
        &["metric", "d", "violated triples", "of", "max violation"],
    );
    let g = path_graph(96, 1.0);
    let mut r = rng(6);
    let hs = Hopset::build(
        &g,
        &HopsetConfig {
            d: 9,
            epsilon: 0.25,
            oversample: 3.0,
        },
        &mut r,
    );
    let aug = hs.augment(&g);
    // d-hop distances on G' as a pseudo-metric.
    let dd: Vec<Vec<Dist>> = (0..g.n() as NodeId)
        .map(|s| sssp_hop_limited(&aug, s, hs.d))
        .collect();
    let sim = SimulatedGraph::without_hopset(&aug, hs.d, 0.1, &mut r);
    let dh = apsp(&sim.explicit_h());

    for (name, m) in [("dist^d on G+hopset", &dd), ("dist on H", &dh)] {
        let (mut violated, mut total, mut worst) = (0u64, 0u64, 0.0f64);
        for u in (0..g.n()).step_by(5) {
            for v in (0..g.n()).step_by(7) {
                for w in (0..g.n()).step_by(3) {
                    if u == v || v == w || u == w {
                        continue;
                    }
                    total += 1;
                    let lhs = m[u][v].value();
                    let rhs = m[u][w].value() + m[w][v].value();
                    if lhs > rhs + 1e-9 {
                        violated += 1;
                        worst = worst.max(lhs / rhs);
                    }
                }
            }
        }
        t.push(vec![
            name.into(),
            hs.d.to_string(),
            violated.to_string(),
            total.to_string(),
            f(worst, 4),
        ]);
    }
    t
}

/// E5 — Theorem 5.2: the oracle reproduces explicit-H results at sparse
/// cost.
fn exp_oracle_work() -> Table {
    let mut t = Table::new(
        "E5 (Theorem 5.2): oracle vs explicit H — identical LE lists, sparse work",
        &[
            "n",
            "m",
            "identical",
            "oracle entries",
            "explicit-H entries",
            "n²·SPD(H)",
        ],
    );
    // n caps at 384: the dense explicit-H baseline needs minutes beyond
    // that (n−1 entries per row to merge — the cost the oracle avoids).
    for n in [96, 192, 384] {
        let mut r = rng(7 + n as u64);
        let g = gnm_graph(n, 3 * n, 1.0..10.0, &mut r);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd, 0.1, &mut r);
        let ranks = Arc::new(Ranks::sample(n, &mut r));
        let (via_oracle, h_iters, oracle_work) = le_lists_oracle(&sim, &ranks, Some(4 * n));
        let h = sim.explicit_h();
        let (via_h, _, h_work) = le_lists_direct(&h, &ranks);
        let identical = mte_core::frt::le_list::le_lists_approx_eq(&via_oracle, &via_h, 1e-9);
        t.push(vec![
            n.to_string(),
            g.m().to_string(),
            identical.to_string(),
            oracle_work.entries_processed.to_string(),
            h_work.entries_processed.to_string(),
            ((n * n) as u64 * h_iters as u64).to_string(),
        ]);
    }
    t
}

/// E6 — the hop-set property (Equation (1.3)) of the Cohen substitute.
fn exp_hopset() -> Table {
    let mut t = Table::new(
        "E6 (hop sets, Eq. 1.3): dist^d(G+E') vs (1+ε̂)·dist(G)",
        &["n", "d", "ε̂", "hubs", "added edges", "max ratio", "ok"],
    );
    let g = gnm_graph(384, 1152, 1.0..20.0, &mut rng(8));
    let exact = apsp(&g);
    for (d, eps) in [(17, 0.0), (33, 0.0), (65, 0.0), (129, 0.0), (33, 0.25)] {
        let mut r = rng(9);
        let hs = Hopset::build(
            &g,
            &HopsetConfig {
                d,
                epsilon: eps,
                oversample: 1.0,
            },
            &mut r,
        );
        let aug = hs.augment(&g);
        let mut max_ratio: f64 = 1.0;
        for s in (0..g.n() as NodeId).step_by(4) {
            let limited = sssp_hop_limited(&aug, s, d);
            for v in 0..g.n() {
                let e = exact[s as usize][v].value();
                if e > 0.0 {
                    max_ratio = max_ratio.max(limited[v].value() / e);
                }
            }
        }
        let ok = max_ratio <= 1.0 + eps + 1e-9;
        t.push(vec![
            g.n().to_string(),
            d.to_string(),
            f(eps, 2),
            hs.hubs.len().to_string(),
            hs.len().to_string(),
            f(max_ratio, 4),
            ok.to_string(),
        ]);
    }
    t
}

/// E7 — Lemma 7.6: LE lists have length O(log n) w.h.p.
fn exp_le_lists() -> Table {
    let mut t = Table::new(
        "E7 (Lemma 7.6): LE-list lengths vs ln n (direct computation, exact metric)",
        &["n", "m", "mean |LE|", "max |LE|", "ln n", "H_n"],
    );
    for e in [7, 8, 9, 10, 11, 12] {
        let n = 1usize << e;
        let mut r = rng(10 + e as u64);
        let g = gnm_graph(n, 3 * n, 1.0..50.0, &mut r);
        let ranks = Arc::new(Ranks::sample(n, &mut r));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let max = lists.iter().map(|l| l.len()).max().unwrap();
        let harmonic: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        t.push(vec![
            n.to_string(),
            g.m().to_string(),
            f(total as f64 / n as f64, 2),
            max.to_string(),
            f((n as f64).ln(), 2),
            f(harmonic, 2),
        ]);
    }
    t
}

/// Mean / max per-pair expected stretch over `trees` independent samples
/// produced by `sampler`.
fn stretch_profile(
    g: &Graph,
    dist: &[Vec<Dist>],
    trees: usize,
    mut sampler: impl FnMut(usize) -> Vec<Vec<f64>>,
) -> (f64, f64) {
    let n = g.n();
    let mut acc = vec![vec![0.0f64; n]; n];
    for t in 0..trees {
        let td = sampler(t);
        for u in 0..n {
            for v in (u + 1)..n {
                acc[u][v] += td[u][v];
            }
        }
    }
    let (mut sum, mut max, mut cnt) = (0.0f64, 0.0f64, 0u64);
    for u in 0..n {
        for v in (u + 1)..n {
            let expected = acc[u][v] / trees as f64;
            let s = expected / dist[u][v].value();
            sum += s;
            max = max.max(s);
            cnt += 1;
        }
    }
    (sum / cnt as f64, max)
}

fn tree_distance_matrix(tree: &mte_core::frt::FrtTree, n: usize) -> Vec<Vec<f64>> {
    let mut td = vec![vec![0.0f64; n]; n];
    for u in 0..n {
        for v in (u + 1)..n {
            td[u][v] = tree.leaf_distance(u as NodeId, v as NodeId);
        }
    }
    td
}

/// E8 — Theorem 7.9 / Corollary 7.10: expected stretch O(log n).
fn exp_frt_stretch() -> Table {
    let mut t = Table::new(
        "E8 (Thm 7.9/Cor 7.10): per-pair expected stretch vs log₂ n (32 trees; \
         'pipeline' = hop set + H + oracle, 8 trees)",
        &[
            "family",
            "n",
            "sampler",
            "mean E[stretch]",
            "max E[stretch]",
            "log2 n",
        ],
    );
    let mut families: Vec<(&str, Graph)> = vec![
        ("gnm m=4n", gnm_graph(256, 1024, 1.0..20.0, &mut rng(11))),
        ("grid 16×16", grid_graph(16, 16, 1.0..5.0, &mut rng(12))),
        ("cycle", cycle_graph(128, 1.0)),
        (
            "expander d=4",
            expander_graph(256, 4, 1.0..3.0, &mut rng(13)),
        ),
    ];
    for (name, g) in families.drain(..) {
        let dist = apsp(&g);
        let n = g.n();
        let (mean_s, max_s) = stretch_profile(&g, &dist, 32, |i| {
            let mut r = rng(4000 + i as u64);
            let s = sample_direct(&g, &mut r);
            tree_distance_matrix(&s.tree, n)
        });
        t.push(vec![
            name.into(),
            n.to_string(),
            "direct (exact)".into(),
            f(mean_s, 2),
            f(max_s, 2),
            f((n as f64).log2(), 1),
        ]);
    }
    // Full pipeline on one family to confirm the oracle path matches.
    let g = gnm_graph(256, 1024, 1.0..20.0, &mut rng(11));
    let dist = apsp(&g);
    let config = FrtConfig {
        hopset: HopsetConfig {
            d: 65,
            epsilon: 0.0,
            oversample: 2.0,
        },
        eps_hat: 0.05,
        spanner_k: None,
        max_iterations: None,
    };
    let (mean_s, max_s) = stretch_profile(&g, &dist, 8, |i| {
        let mut r = rng(5000 + i as u64);
        let emb = FrtEmbedding::sample(&g, &config, &mut r);
        tree_distance_matrix(emb.tree(), g.n())
    });
    t.push(vec![
        "gnm m=4n".into(),
        g.n().to_string(),
        "pipeline (H)".into(),
        f(mean_s, 2),
        f(max_s, 2),
        f((g.n() as f64).log2(), 1),
    ]);
    t
}

/// E9 — Corollary 7.11: spanner preprocessing trades stretch for work.
fn exp_spanner_frt() -> Table {
    let mut t = Table::new(
        "E9 (Cor 7.11): Baswana–Sen preprocessing — edges & work down, stretch ×(2k−1)",
        &[
            "k",
            "input edges",
            "LE work (entries)",
            "mean E[stretch]",
            "log2 n",
        ],
    );
    let g = gnm_graph(256, 4096, 1.0..10.0, &mut rng(14));
    let dist = apsp(&g);
    for k in [1usize, 2, 3] {
        let mut work_total = 0u64;
        let mut edges_used = 0usize;
        let (mean_s, _) = stretch_profile(&g, &dist, 12, |i| {
            let mut r = rng(6000 + 37 * k as u64 + i as u64);
            let input = if k == 1 {
                g.clone()
            } else {
                mte_graph::spanner::baswana_sen_spanner(&g, k, &mut r)
            };
            edges_used = input.m();
            let s = sample_direct(&input, &mut r);
            work_total += s.work.entries_processed;
            tree_distance_matrix(&s.tree, g.n())
        });
        t.push(vec![
            k.to_string(),
            edges_used.to_string(),
            (work_total / 12).to_string(),
            f(mean_s, 2),
            f((g.n() as f64).log2(), 1),
        ]);
    }
    t
}

/// E10 — Theorems 6.1/6.2: approximate metrics.
fn exp_metric() -> Table {
    let mut t = Table::new(
        "E10 (Thm 6.1/6.2): approximate metric quality and work",
        &[
            "variant",
            "n",
            "max ratio",
            "triangle ok",
            "oracle entries",
            "naive n²·SPD",
        ],
    );
    let g = gnm_graph(160, 480, 1.0..10.0, &mut rng(15));
    let exact = apsp(&g);
    let cfg = MetricConfig {
        hopset: HopsetConfig {
            d: 33,
            epsilon: 0.0,
            oversample: 2.0,
        },
        eps_hat: 0.05,
    };
    for (name, k) in [("Thm 6.1 (1+o(1))", 0usize), ("Thm 6.2 spanner k=2", 2)] {
        let mut r = rng(16);
        let metric = if k == 0 {
            approximate_metric(&g, &cfg, &mut r)
        } else {
            approximate_metric_with_spanner(&g, k, &cfg, &mut r)
        };
        let mut max_ratio: f64 = 1.0;
        for u in 0..g.n() {
            for v in 0..g.n() {
                if u != v {
                    max_ratio = max_ratio
                        .max(metric.dist(u as NodeId, v as NodeId).value() / exact[u][v].value());
                }
            }
        }
        // Spot-check the triangle inequality on a sample of triples.
        let mut triangle_ok = true;
        for u in (0..g.n() as NodeId).step_by(7) {
            for v in (0..g.n() as NodeId).step_by(5) {
                for w in (0..g.n() as NodeId).step_by(11) {
                    if metric.dist(u, v).value()
                        > metric.dist(u, w).value() + metric.dist(w, v).value() + 1e-6
                    {
                        triangle_ok = false;
                    }
                }
            }
        }
        let spd = shortest_path_diameter(&g) as u64;
        t.push(vec![
            name.into(),
            g.n().to_string(),
            f(max_ratio, 3),
            triangle_ok.to_string(),
            metric.work.entries_processed.to_string(),
            ((g.n() * g.n()) as u64 * spd).to_string(),
        ]);
    }
    t
}

/// E11/E12 — Section 8: Congest round complexity, Khan vs skeleton.
fn exp_congest() -> Table {
    let mut t = Table::new(
        "E11/E12 (Sec. 8): simulated Congest rounds — Khan et al. vs skeleton",
        &[
            "graph",
            "n",
            "SPD",
            "D",
            "√n",
            "khan rounds",
            "skel rounds",
            "winner",
        ],
    );
    let mut r = rng(17);
    let cases: Vec<(&str, Graph)> = vec![
        ("gnm m=3n", gnm_graph(768, 2304, 1.0..10.0, &mut r)),
        ("grid 24×32", grid_graph(24, 32, 1.0..5.0, &mut r)),
        ("highway", highway_graph(2500, 1e5)),
        (
            "caterpillar",
            caterpillar_graph(2000, 500, 1.0, 1.0..3.0, &mut r),
        ),
    ];
    for (name, g) in cases {
        let spd = shortest_path_diameter(&g);
        let d = hop_diameter(&g);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut r));
        let (_, khan) = mte_congest::khan::khan_le_lists(&g, &ranks);
        // ℓ = n/10 keeps the skeleton sparse enough that the spanner
        // broadcast does not dominate at simulation scales (the paper's
        // ℓ = √n is the n → ∞ choice).
        let config = mte_congest::skeleton::SkeletonConfig {
            ell: Some((g.n() / 10).max(16)),
            oversample: 1.0,
            spanner_k: 3,
        };
        let skel = mte_congest::skeleton::skeleton_frt(&g, &config, &mut r);
        let winner = if skel.cost.rounds < khan.rounds {
            "skeleton"
        } else {
            "khan"
        };
        t.push(vec![
            name.into(),
            g.n().to_string(),
            spd.to_string(),
            d.to_string(),
            f((g.n() as f64).sqrt(), 0),
            khan.rounds.to_string(),
            skel.cost.rounds.to_string(),
            winner.into(),
        ]);
    }
    t
}

/// E13 — Theorem 9.2: k-median quality vs baselines.
fn exp_kmedian() -> Table {
    use mte_apps::kmedian::*;
    let mut t = Table::new(
        "E13 (Thm 9.2): k-median — FRT+DP vs local search and random centers",
        &[
            "graph",
            "n",
            "k",
            "FRT+DP",
            "local search",
            "random",
            "ratio vs LS",
        ],
    );
    let mut r = rng(18);
    let cases: Vec<(&str, Graph)> = vec![
        ("grid 10×10", grid_graph(10, 10, 1.0..5.0, &mut r)),
        ("gnm m=3n", gnm_graph(200, 600, 1.0..10.0, &mut r)),
        (
            "geometric",
            random_geometric_graph(200, 0.11, 100.0, &mut r),
        ),
    ];
    for (name, g) in cases {
        for k in [2usize, 4, 8] {
            let ours = solve_kmedian(&g, &KMedianConfig::new(k), &mut r);
            let ls = kmedian_local_search(&g, k, 25, &mut r);
            let random = kmedian_random_baseline(&g, k, &mut r);
            t.push(vec![
                name.into(),
                g.n().to_string(),
                k.to_string(),
                f(ours.cost, 0),
                f(ls.cost, 0),
                f(random.cost, 0),
                f(ours.cost / ls.cost, 2),
            ]);
        }
    }
    t
}

/// E14 — Theorem 10.2: buy-at-bulk quality vs lower bound and direct
/// routing.
fn exp_buyatbulk() -> Table {
    use mte_apps::buyatbulk::*;
    let mut t = Table::new(
        "E14 (Thm 10.2): buy-at-bulk — tree aggregation vs per-demand routing",
        &[
            "instance",
            "demands",
            "ours (best of 5)",
            "direct",
            "lower bound",
            "ours/LB",
        ],
    );
    let mut r = rng(19);
    // Mesh with random demands.
    let g1 = grid_graph(8, 8, 5.0..40.0, &mut r);
    let demands1: Vec<Demand> = (0..30)
        .map(|i| Demand {
            s: (i * 7 % g1.n()) as NodeId,
            t: (i * 13 + 5) as NodeId % g1.n() as NodeId,
            amount: 1.0 + (i % 5) as f64,
        })
        .filter(|d| d.s != d.t)
        .collect();
    // Trunk-heavy path instance.
    let g2 = path_graph(40, 1.0);
    let demands2: Vec<Demand> = (0..16)
        .map(|i| Demand {
            s: (i % 4) as NodeId,
            t: (39 - (i % 4)) as NodeId,
            amount: 1.0,
        })
        .collect();
    let cables = vec![
        CableType {
            capacity: 1.0,
            cost: 1.0,
        },
        CableType {
            capacity: 10.0,
            cost: 4.0,
        },
        CableType {
            capacity: 100.0,
            cost: 14.0,
        },
    ];
    for (name, g, demands) in [("mesh 8×8", g1, demands1), ("trunk path", g2, demands2)] {
        let inst = BuyAtBulkInstance {
            cables: cables.clone(),
            demands,
        };
        let mut best = f64::INFINITY;
        for seed in 0..5 {
            let mut rr = rng(800 + seed);
            let sol = solve_buy_at_bulk(&g, &inst, &mut rr);
            assert!(is_feasible(&inst, &sol));
            best = best.min(sol.total_cost);
        }
        let direct = direct_routing_cost(&g, &inst);
        let lb = lower_bound(&g, &inst);
        t.push(vec![
            name.into(),
            inst.demands.len().to_string(),
            f(best, 0),
            f(direct, 0),
            f(lb, 0),
            f(best / lb, 2),
        ]);
    }
    t
}

/// E16 — Section 1.1: the oracle pipeline vs the Ω(n²) explicit-metric
/// baseline (Blelloch et al.) and the Õ(SPD) direct iteration.
pub fn exp_baseline() -> Table {
    let mut t = Table::new(
        "E16 (Sec. 1.1): work, wall time & depth — metric baseline vs direct vs oracle \
         pipeline (highway graphs: SPD = n−1, the regime the pipeline targets)",
        &[
            "n",
            "sampler",
            "entries processed",
            "wall ms",
            "depth proxy (rounds)",
        ],
    );
    for n in [256usize, 512, 1024] {
        let mut r = rng(20 + n as u64);
        let g = highway_graph(n, 1e6);

        // (a) Blelloch: APSP first, then 1 MBF-like iteration on the
        // metric. Work has an Ω(n²) floor (reading the metric); the
        // sequential Dijkstras have depth Ω(n).
        let t0 = Instant::now();
        let exact = apsp(&g);
        let s = sample_from_metric(&exact, g.min_weight(), &mut r);
        let metric_ms = t0.elapsed().as_secs_f64() * 1e3;
        let metric_entries = s.work.entries_processed + (n * n) as u64;
        t.push(vec![
            n.to_string(),
            "from-metric (Ω(n²) work)".into(),
            metric_entries.to_string(),
            f(metric_ms, 1),
            n.to_string(), // Dijkstra settles one vertex at a time
        ]);

        // (b) Khan-style direct iteration: depth = Θ(SPD) rounds.
        let t0 = Instant::now();
        let s = sample_direct(&g, &mut r);
        let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
        t.push(vec![
            n.to_string(),
            "direct (Õ(SPD) depth)".into(),
            s.work.entries_processed.to_string(),
            f(direct_ms, 1),
            s.iterations.to_string(),
        ]);

        // (c) The paper's pipeline: the h simulated H-iterations each run
        // the Λ levels in parallel, d G'-iterations deep ⇒ depth ∝ h·d.
        // (With Cohen's hop set d would be polylog; our hub substitute
        // pays d ≈ n/√m — see docs/DESIGN.md §3.)
        let d = (2.0 * (n as f64).sqrt()) as usize | 1;
        let config = FrtConfig {
            hopset: HopsetConfig {
                d,
                epsilon: 0.0,
                oversample: 1.0,
            },
            eps_hat: 0.05,
            spanner_k: None,
            max_iterations: None,
        };
        let t0 = Instant::now();
        let emb = FrtEmbedding::sample(&g, &config, &mut r);
        let oracle_ms = t0.elapsed().as_secs_f64() * 1e3;
        t.push(vec![
            n.to_string(),
            "oracle pipeline (h·d depth)".into(),
            emb.work().entries_processed.to_string(),
            f(oracle_ms, 1),
            (emb.h_iterations() * d).to_string(),
        ]);
    }
    t
}

/// Ablation — the level promotion probability `p` (the paper fixes 1/2):
/// small `p` means fewer levels (cheaper oracle iterations) but larger
/// SPD(H); large `p` the reverse. `p = 1/2` balances the product.
fn exp_ablation() -> Table {
    let mut t = Table::new(
        "Ablation (Sec. 4 design choice): level promotion probability p",
        &["p", "mean Λ", "mean SPD(H)", "Λ·SPD(H)", "max stretch of H"],
    );
    let g = path_graph(192, 1.0);
    let spd = shortest_path_diameter(&g) as usize;
    let dg = apsp(&g);
    for p in [0.2, 0.35, 0.5, 0.65, 0.8] {
        let trials = 5;
        let (mut lam_sum, mut spd_sum, mut stretch_max) = (0u64, 0u64, 1.0f64);
        for i in 0..trials {
            let mut r = rng(7000 + (p * 100.0) as u64 + i);
            let levels = LevelAssignment::sample_with_p(g.n(), p, &mut r);
            lam_sum += levels.lambda() as u64;
            let sim = SimulatedGraph::with_levels(&g, spd, 0.1, levels);
            let h = sim.explicit_h();
            spd_sum += shortest_path_diameter(&h) as u64;
            let dh = apsp(&h);
            for u in 0..g.n() {
                for v in (u + 1)..g.n() {
                    stretch_max = stretch_max.max(dh[u][v].value() / dg[u][v].value());
                }
            }
        }
        let lam = lam_sum as f64 / trials as f64;
        let spd_h = spd_sum as f64 / trials as f64;
        t.push(vec![
            f(p, 2),
            f(lam, 1),
            f(spd_h, 1),
            f(lam * spd_h, 0),
            f(stretch_max, 3),
        ]);
    }
    t
}

/// E15 — Section 3 catalog: per-iteration work of each MBF-like algorithm
/// (correctness is covered by the test suite; this tabulates cost).
fn exp_catalog() -> Table {
    use mte_core::catalog::*;
    use mte_core::engine::run_to_fixpoint;
    let mut t = Table::new(
        "E15 (Sec. 3): MBF-like catalog on gnm n=256 m=768 — iterations to fixpoint & work",
        &["algorithm", "semiring", "iterations", "entries processed"],
    );
    let mut r = rng(21);
    let g = gnm_graph(256, 768, 1.0..10.0, &mut r);
    let n = g.n();
    let cap = n + 1;

    let run = run_to_fixpoint(&SourceDetection::sssp(n, 0), &g, cap);
    catalog_row(&mut t, "SSSP (Ex. 3.3)", "min-plus", run);
    let run = run_to_fixpoint(&SourceDetection::k_ssp(n, 4), &g, cap);
    catalog_row(&mut t, "4-SSP (Ex. 3.4)", "min-plus", run);
    let run = run_to_fixpoint(&SourceDetection::apsp(n), &g, cap);
    catalog_row(&mut t, "APSP (Ex. 3.5)", "min-plus", run);
    let run = run_to_fixpoint(&ForestFire::new(n, &[0, 1, 2], Dist::new(8.0)), &g, cap);
    catalog_row(&mut t, "forest fire (Ex. 3.7)", "min-plus", run);
    let run = run_to_fixpoint(&WidestPaths::apwp(n), &g, cap);
    catalog_row(&mut t, "APWP (Ex. 3.14)", "max-min", run);
    let run = run_to_fixpoint(&Connectivity::all_pairs(n), &g, cap);
    catalog_row(&mut t, "connectivity (Ex. 3.25)", "boolean", run);
    let small = gnm_graph(32, 64, 1.0..5.0, &mut r);
    let run = run_to_fixpoint(&KShortestDistances::new(0, 3), &small, 4 * small.n());
    catalog_row(&mut t, "3-SDP on n=32 (Ex. 3.23)", "all-paths", run);
    let ranks = Arc::new(Ranks::sample(n, &mut r));
    let run = run_to_fixpoint(&mte_core::frt::LeListAlgorithm::new(ranks), &g, cap);
    catalog_row(&mut t, "LE lists (Def. 7.3)", "min-plus", run);
    t
}

/// One E15 row: an algorithm's iterations to fixpoint and its work.
fn catalog_row<M>(t: &mut Table, name: &str, semiring: &str, run: MbfRun<M>) {
    t.push(vec![
        name.into(),
        semiring.into(),
        run.iterations.to_string(),
        run.work.entries_processed.to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(claims: &[Claim]) -> Vec<&str> {
        claims.iter().map(|c| c.0).collect()
    }

    #[test]
    fn select_returns_known_ids_in_argument_order() {
        assert_eq!(ids(&select(&["E16", "E5"]).unwrap()), ["E16", "E5"]);
    }

    #[test]
    fn select_rejects_an_unknown_id_and_names_the_valid_ones() {
        let err = select(&["E5", "E99"]).unwrap_err();
        assert!(err.contains("`E99`"), "{err}");
        assert!(err.ends_with(&ids(CLAIMS).join(" ")), "{err}");
    }

    #[test]
    fn select_without_ids_returns_every_claim() {
        assert_eq!(ids(&select::<&str>(&[]).unwrap()), ids(CLAIMS));
    }

    #[test]
    fn design_doc_lists_the_claims_in_order() {
        // docs/DESIGN.md §4 is the human-readable map of CLAIMS: the Id
        // column of its table, row by row.
        let design = include_str!("../../../docs/DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("4. Experiments"))
            .expect("DESIGN.md has a section 4. Experiments");
        let doc_ids: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with('|'))
            .skip(2) // header and separator
            .map(|l| l.split('|').nth(1).unwrap().trim())
            .collect();
        assert_eq!(doc_ids, ids(CLAIMS));
    }
}
