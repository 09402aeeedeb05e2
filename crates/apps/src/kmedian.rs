//! The k-median problem (Section 9 of the paper, Definition 9.1):
//! choose `F ⊆ V`, `|F| ≤ k`, minimizing `Σ_v dist(v, F, G)`.
//!
//! Following Blelloch et al. \[10\] adapted to graph inputs (Theorem 9.2):
//!
//! 1. **Candidate sampling** (Mettu–Plaxton style): iteratively sample
//!    `O(k)` candidates and discard the half of the remaining vertices
//!    closest to the sample; `O(log(n/k))` iterations leave a candidate
//!    set `Q` of size `O(k log(n/k))` that contains a constant-factor
//!    solution,
//! 2. **FRT embedding of the submetric on `Q`** via LE lists with
//!    initialization restricted to `Q`,
//! 3. an **exact dynamic program** on the sampled HST (`O(|T|·k²)`),
//! 4. mapping back: the chosen tree leaves *are* graph vertices; the
//!    final cost is evaluated exactly in `G`.

use mte_algebra::{Dist, NodeId};
use mte_core::arena::ArenaBackend;
use mte_core::frt::le_list::{LeList, LeListAlgorithm, Ranks};
use mte_core::frt::tree::FrtTree;
use mte_core::run::run_to_fixpoint_on;
use mte_graph::algorithms::multi_source_dijkstra;
use mte_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Configuration for the k-median solver.
#[derive(Clone, Debug)]
pub struct KMedianConfig {
    /// Number of medians `k ≥ 1`.
    pub k: usize,
    /// Candidates sampled per pruning round, as a multiple of `k`.
    pub oversample: f64,
    /// Number of independent FRT trees sampled; the best resulting
    /// solution is kept (amplification, Section 1: repeating `log(1/ε)`
    /// times boosts the approximation guarantee to hold w.h.p.).
    pub trees: usize,
}

impl KMedianConfig {
    /// Default configuration for a given `k`.
    pub fn new(k: usize) -> Self {
        KMedianConfig {
            k,
            oversample: 3.0,
            trees: 3,
        }
    }
}

/// A k-median solution: centers and their exact cost in `G`.
#[derive(Clone, Debug)]
pub struct KMedianSolution {
    /// The chosen centers (`|centers| ≤ k`).
    pub centers: Vec<NodeId>,
    /// `Σ_v dist(v, centers, G)`, evaluated exactly.
    pub cost: f64,
}

/// Exact cost of a center set: `Σ_v dist(v, F, G)` by multi-source
/// Dijkstra.
pub fn kmedian_cost(g: &Graph, centers: &[NodeId]) -> f64 {
    assert!(!centers.is_empty(), "need at least one center");
    let (dist, _) = multi_source_dijkstra(g, centers);
    dist.iter().map(|d| d.value()).sum()
}

/// Mettu–Plaxton-style candidate sampling (step (1) of \[10\] as
/// summarized in Section 9): returns `Q` with `|Q| ∈ O(k log(n/k))`
/// containing a constant-factor-optimal center set.
pub fn kmedian_candidates(g: &Graph, k: usize, oversample: f64, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = g.n();
    let per_round = ((oversample * k as f64).ceil() as usize).max(1);
    let mut remaining: Vec<NodeId> = (0..n as NodeId).collect();
    let mut candidates: Vec<NodeId> = Vec::new();
    while remaining.len() > 4 * per_round {
        remaining.shuffle(rng);
        let sample: Vec<NodeId> = remaining[..per_round.min(remaining.len())].to_vec();
        candidates.extend_from_slice(&sample);
        // Distance of every remaining vertex to the sample (the paper
        // phrases this as the forest-fire MBF-like query on H; the
        // output — distance to the nearest sample point — is identical).
        let (dist, _) = multi_source_dijkstra(g, &sample);
        // Drop the closest half.
        let mut by_dist: Vec<NodeId> = remaining.clone();
        by_dist.sort_unstable_by(|&a, &b| dist[a as usize].cmp(&dist[b as usize]));
        remaining = by_dist[by_dist.len() / 2..].to_vec();
    }
    candidates.extend_from_slice(&remaining);
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// LE lists with sources restricted to `Q`, then an FRT tree over the
/// submetric spanned by `Q` (step (2)).
fn frt_tree_on_subset(g: &Graph, subset: &[NodeId], rng: &mut impl Rng) -> (FrtTree, Vec<NodeId>) {
    // Global random order; LE initialization only at subset nodes, so
    // every surviving entry refers to a `Q`-node.
    let ranks = Arc::new(Ranks::sample(g.n(), rng));
    let alg = LeListAlgorithm::new(Arc::clone(&ranks)).with_sources(subset);
    let run = run_to_fixpoint_on(ArenaBackend::new(), &alg, g, g.n() + 1);

    // Re-index Q to 0..|Q| and build the tree over Q's lists only.
    let mut index = vec![u32::MAX; g.n()];
    for (i, &q) in subset.iter().enumerate() {
        index[q as usize] = i as u32;
    }
    let sub_ranks = {
        let mut order: Vec<NodeId> = (0..subset.len() as NodeId).collect();
        order.sort_unstable_by_key(|&i| ranks.rank(subset[i as usize]));
        Ranks::from_order(order)
    };
    let lists: Vec<LeList> = subset
        .iter()
        .map(|&q| {
            let entries: Vec<(NodeId, Dist)> = run.states[q as usize]
                .iter()
                .map(|(w, d)| (index[w as usize], d))
                .collect();
            debug_assert!(entries.iter().all(|&(w, _)| w != u32::MAX));
            LeList::from_entries_sorted({
                let mut e = entries;
                e.sort_unstable_by_key(|&(_, d)| d);
                e
            })
        })
        .collect();
    let beta = rng.gen_range(1.0..2.0);
    let tree = FrtTree::from_le_lists(&lists, &sub_ranks, beta, g.min_weight());
    (tree, subset.to_vec())
}

/// Exact k-median on an HST with medians restricted to leaves
/// (step (3); the `O(k³)`-work dynamic program of Blelloch et al. \[10\]
/// specialized to our FRT trees). Returns the chosen leaf indices.
pub fn hst_kmedian_dp(tree: &FrtTree, k: usize) -> Vec<NodeId> {
    assert!(k >= 1);
    let children = tree.children();
    // Cumulative leaf-to-ancestor distance per level:
    // up[ℓ] = Σ_{i=1..ℓ} r_i (the edge from level i−1 to level i has
    // weight r_i).
    let radii = tree.radii();
    let mut up = vec![0.0; radii.len()];
    for i in 1..radii.len() {
        up[i] = up[i - 1] + radii[i];
    }

    // Post-order DP. dp[u][j] = optimal cost of serving all leaves below
    // u with exactly j medians inside u's subtree (j ≥ 1 serves
    // everything internally; j = 0 defers all leaves upward at cost 0
    // here, paid by the ancestor where they meet a median).
    let num_nodes = tree.len();
    let mut dp: Vec<Vec<f64>> = vec![Vec::new(); num_nodes];
    let mut choice: Vec<Vec<Vec<usize>>> = vec![Vec::new(); num_nodes];
    let mut leaf_count = vec![0usize; num_nodes];

    // Iterative post-order (children indices are always larger than the
    // parent's creation index? Not guaranteed — use explicit stack).
    let mut order = Vec::with_capacity(num_nodes);
    let mut stack = vec![0usize];
    while let Some(u) = stack.pop() {
        order.push(u);
        stack.extend_from_slice(&children[u]);
    }
    for &u in order.iter().rev() {
        if children[u].is_empty() {
            leaf_count[u] = 1;
            dp[u] = vec![0.0, 0.0]; // j = 0 defers; j = 1 serves itself.
            choice[u] = vec![Vec::new(), Vec::new()];
            continue;
        }
        let level = tree.nodes()[u].level as usize;
        let meet_cost = 2.0 * up[level];
        let mut acc: Vec<f64> = vec![0.0];
        let mut acc_choice: Vec<Vec<usize>> = vec![Vec::new()];
        let mut leaves_so_far = 0usize;
        for &c in &children[u] {
            leaves_so_far += leaf_count[c];
            let cap = leaves_so_far.min(k);
            let mut next = vec![f64::INFINITY; cap + 1];
            let mut next_choice: Vec<Vec<usize>> = vec![Vec::new(); cap + 1];
            for (j_acc, &cost_acc) in acc.iter().enumerate() {
                if !cost_acc.is_finite() {
                    continue;
                }
                let child_cap = leaf_count[c].min(k);
                for j_child in 0..=child_cap {
                    let j = j_acc + j_child;
                    if j > cap {
                        break;
                    }
                    // A child given 0 medians defers its leaves to this
                    // node, where they meet a median (if any ends up in
                    // the subtree) at cost meet_cost each.
                    let child_cost = if j_child == 0 {
                        leaf_count[c] as f64 * meet_cost
                    } else {
                        dp[c][j_child]
                    };
                    let total = cost_acc + child_cost;
                    if total < next[j] {
                        next[j] = total;
                        let mut ch = acc_choice[j_acc].clone();
                        ch.push(j_child);
                        next_choice[j] = ch;
                    }
                }
            }
            acc = next;
            acc_choice = next_choice;
        }
        // Only now that all children are merged: j = 0 means *no* median
        // anywhere below u, so every leaf defers upward at cost 0 here
        // (paid by the ancestor where it meets a median). During the
        // accumulation, j_acc = 0 had to keep charging meet_cost because
        // later children could still contribute the medians.
        acc[0] = 0.0;
        acc_choice[0] = vec![0; children[u].len()];
        leaf_count[u] = leaves_so_far;
        dp[u] = acc;
        choice[u] = acc_choice;
    }

    // Best root allocation with at most k medians (cost is non-increasing
    // in the number of medians).
    let root_dp = &dp[0];
    let mut best_j = 1.min(root_dp.len() - 1);
    for j in 1..root_dp.len().min(k + 1) {
        if root_dp[j] < root_dp[best_j] {
            best_j = j;
        }
    }

    // Walk down the recorded choices to collect the median leaves.
    let mut medians = Vec::new();
    let mut walk = vec![(0usize, best_j)];
    while let Some((u, j)) = walk.pop() {
        if j == 0 {
            continue;
        }
        if children[u].is_empty() {
            medians.push(tree.nodes()[u].leader);
            continue;
        }
        for (c, jc) in children[u].iter().zip(choice[u][j].iter()) {
            walk.push((*c, *jc));
        }
    }
    medians
}

/// The full pipeline of Theorem 9.2. Returns the best solution across
/// `config.trees` independent FRT samples.
pub fn solve_kmedian(g: &Graph, config: &KMedianConfig, rng: &mut impl Rng) -> KMedianSolution {
    let k = config.k.max(1);
    if k >= g.n() {
        let centers: Vec<NodeId> = (0..g.n() as NodeId).collect();
        return KMedianSolution { cost: 0.0, centers };
    }
    let candidates = kmedian_candidates(g, k, config.oversample, rng);
    let mut best: Option<KMedianSolution> = None;
    for _ in 0..config.trees.max(1) {
        let (tree, subset) = frt_tree_on_subset(g, &candidates, rng);
        let leaf_medians = hst_kmedian_dp(&tree, k);
        let centers: Vec<NodeId> = leaf_medians
            .iter()
            .map(|&leaf| subset[leaf as usize])
            .collect();
        let cost = kmedian_cost(g, &centers);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(KMedianSolution { centers, cost });
        }
    }
    best.expect("at least one tree is sampled")
}

/// Baseline: `k` uniformly random centers.
pub fn kmedian_random_baseline(g: &Graph, k: usize, rng: &mut impl Rng) -> KMedianSolution {
    let mut nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
    nodes.shuffle(rng);
    nodes.truncate(k.max(1));
    let cost = kmedian_cost(g, &nodes);
    KMedianSolution {
        centers: nodes,
        cost,
    }
}

/// Baseline: local search with single swaps (Arya et al.), a strong
/// (5-approximate at convergence) sequential reference.
pub fn kmedian_local_search(
    g: &Graph,
    k: usize,
    max_rounds: usize,
    rng: &mut impl Rng,
) -> KMedianSolution {
    let mut current = kmedian_random_baseline(g, k, rng);
    for _ in 0..max_rounds {
        let mut improved = false;
        'outer: for i in 0..current.centers.len() {
            for cand in 0..g.n() as NodeId {
                if current.centers.contains(&cand) {
                    continue;
                }
                let mut trial = current.centers.clone();
                trial[i] = cand;
                let cost = kmedian_cost(g, &trial);
                if cost + 1e-12 < current.cost {
                    current = KMedianSolution {
                        centers: trial,
                        cost,
                    };
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }
    current
}

/// Exhaustive optimum (tiny instances only — `O(n^k)`).
pub fn kmedian_exhaustive(g: &Graph, k: usize) -> KMedianSolution {
    fn recurse(
        g: &Graph,
        k: usize,
        start: NodeId,
        chosen: &mut Vec<NodeId>,
        best: &mut KMedianSolution,
    ) {
        if chosen.len() == k {
            let cost = kmedian_cost(g, chosen);
            if cost < best.cost {
                *best = KMedianSolution {
                    centers: chosen.clone(),
                    cost,
                };
            }
            return;
        }
        for v in start..g.n() as NodeId {
            chosen.push(v);
            recurse(g, k, v + 1, chosen, best);
            chosen.pop();
        }
    }
    let mut best = KMedianSolution {
        centers: vec![0],
        cost: f64::INFINITY,
    };
    recurse(g, k.max(1).min(g.n()), 0, &mut Vec::new(), &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn candidates_contain_reasonable_set() {
        let mut rng = StdRng::seed_from_u64(111);
        let g = gnm_graph(120, 300, 1.0..9.0, &mut rng);
        let q = kmedian_candidates(&g, 3, 3.0, &mut rng);
        assert!(q.len() >= 3);
        assert!(q.len() < g.n());
        let mut sorted = q.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), q.len(), "candidates must be distinct");
    }

    #[test]
    fn dp_on_path_picks_spread_out_medians() {
        // Path of 9 nodes, k = 3: the optimum spreads the medians out;
        // cost must match the exhaustive optimum on the *tree* metric…
        // here we simply check the end-to-end ratio vs the graph optimum.
        let g = path_graph(9, 1.0);
        let mut rng = StdRng::seed_from_u64(112);
        let sol = solve_kmedian(
            &g,
            &KMedianConfig {
                k: 3,
                oversample: 3.0,
                trees: 5,
            },
            &mut rng,
        );
        let opt = kmedian_exhaustive(&g, 3);
        assert!(sol.centers.len() <= 3);
        assert!(
            sol.cost <= 3.0 * opt.cost + 1e-9,
            "cost {} vs optimum {}",
            sol.cost,
            opt.cost
        );
    }

    #[test]
    fn solver_beats_random_baseline_on_average() {
        let mut rng = StdRng::seed_from_u64(113);
        let g = grid_graph(7, 7, 1.0..3.0, &mut rng);
        let k = 4;
        let mut ours = 0.0;
        let mut random = 0.0;
        for seed in 0..5 {
            let mut r1 = StdRng::seed_from_u64(300 + seed);
            let mut r2 = StdRng::seed_from_u64(400 + seed);
            ours += solve_kmedian(&g, &KMedianConfig::new(k), &mut r1).cost;
            random += kmedian_random_baseline(&g, k, &mut r2).cost;
        }
        assert!(
            ours < random,
            "FRT solution {ours} not better than random {random}"
        );
    }

    #[test]
    fn approximation_vs_exhaustive_small() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(114 + seed);
            let g = gnm_graph(14, 30, 1.0..5.0, &mut rng);
            let k = 2;
            let opt = kmedian_exhaustive(&g, k);
            let sol = solve_kmedian(
                &g,
                &KMedianConfig {
                    k,
                    oversample: 4.0,
                    trees: 6,
                },
                &mut rng,
            );
            assert!(
                sol.cost <= 4.0 * opt.cost + 1e-9,
                "seed {seed}: {} vs opt {}",
                sol.cost,
                opt.cost
            );
        }
    }

    /// `solve_kmedian`'s centers and exact cost on two seeded graphs,
    /// pinned bit for bit: the candidate LE lists may change backend,
    /// never the solution.
    #[test]
    fn solve_kmedian_pinned_on_seeded_graphs() {
        let mut rng = StdRng::seed_from_u64(117);
        let gnm = gnm_graph(200, 600, 1.0..9.0, &mut rng);
        let grid = grid_graph(12, 12, 1.0..4.0, &mut rng);
        let pins: [(&str, &Graph, u64, [NodeId; 5], u64); 2] = [
            (
                "gnm",
                &gnm,
                118,
                [157, 175, 123, 197, 146],
                0x409a_8298_fffc_3969,
            ),
            (
                "grid",
                &grid,
                119,
                [143, 134, 126, 47, 39],
                0x408e_68b1_1c53_4e8a,
            ),
        ];
        for (name, g, seed, centers, cost_bits) in pins {
            let mut rng = StdRng::seed_from_u64(seed);
            let sol = solve_kmedian(g, &KMedianConfig::new(5), &mut rng);
            assert_eq!(sol.centers, centers, "{name}: centers");
            assert_eq!(sol.cost.to_bits(), cost_bits, "{name}: cost {}", sol.cost);
        }
    }

    #[test]
    fn k_geq_n_is_free() {
        let g = path_graph(5, 1.0);
        let mut rng = StdRng::seed_from_u64(115);
        let sol = solve_kmedian(&g, &KMedianConfig::new(10), &mut rng);
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn local_search_converges() {
        let mut rng = StdRng::seed_from_u64(116);
        let g = gnm_graph(20, 50, 1.0..4.0, &mut rng);
        let ls = kmedian_local_search(&g, 2, 50, &mut rng);
        let opt = kmedian_exhaustive(&g, 2);
        assert!(ls.cost <= 5.0 * opt.cost + 1e-9);
    }
}
