//! The simulated graph `H` (Section 4 of the paper).
//!
//! Given `G'` (the input graph augmented with a `(d, ε̂)`-hop set), `H` is
//! the complete graph on `V` whose edge `{v, w}` of *level*
//! `λ(v, w) = min{λ(v), λ(w)}` has weight
//! `ω_Λ({v,w}) = (1+ε̂)^{Λ−λ(v,w)} · dist^d(v, w, G')`
//! (Definition 4.2). Levels are sampled geometrically, so `Λ ∈ O(log n)`
//! w.h.p. (Lemma 4.1); the exponential penalty makes high-level edges
//! "more attractive", which bounds `SPD(H) ∈ O(log² n)` w.h.p. and the
//! stretch of `H` over `G` by `(1+ε̂)^{Λ+1}` (Theorem 4.5).
//!
//! `H` is **never materialized** by the production pipeline (that would
//! cost `Ω(n²)` work); the [`crate::oracle`] simulates MBF-like iterations
//! on `H` using only `G'`'s edges. [`SimulatedGraph::explicit_h`] builds
//! `H` explicitly for testing and for the SPD/stretch experiments on
//! small inputs.

use mte_algebra::{Dist, NodeId};
use mte_graph::algorithms::sssp_hop_limited;
use mte_graph::hopset::{Hopset, HopsetConfig};
use mte_graph::Graph;
use rand::Rng;
use rayon::prelude::*;

/// Geometrically sampled vertex levels (Section 4): every vertex starts at
/// level 0; in each step, each vertex of level `λ−1` is raised to `λ` with
/// probability 1/2, until a step raises no vertex. `Λ` is the maximum
/// attained level.
#[derive(Clone, Debug)]
pub struct LevelAssignment {
    levels: Vec<u32>,
    lambda: u32,
}

impl LevelAssignment {
    /// Samples levels for `n` vertices with the paper's promotion
    /// probability 1/2.
    pub fn sample(n: usize, rng: &mut impl Rng) -> LevelAssignment {
        Self::sample_with_p(n, 0.5, rng)
    }

    /// Samples levels with promotion probability `p ∈ (0, 1)`. The paper
    /// fixes `p = 1/2`; the `ablation` experiment (`exp_all ablation`) varies `p`
    /// to expose the trade-off it balances: small `p` gives few levels
    /// (cheaper oracle) but weaker shortcutting (larger SPD(H)); large
    /// `p` the reverse.
    pub fn sample_with_p(n: usize, p: f64, rng: &mut impl Rng) -> LevelAssignment {
        assert!(
            p > 0.0 && p < 1.0,
            "promotion probability must be in (0, 1)"
        );
        let mut levels = vec![0u32; n];
        let mut alive: Vec<usize> = (0..n).collect();
        let mut lambda = 0;
        while !alive.is_empty() {
            alive.retain(|&v| {
                if rng.gen_bool(p) {
                    levels[v] += 1;
                    true
                } else {
                    false
                }
            });
            if !alive.is_empty() {
                lambda += 1;
            }
        }
        LevelAssignment { levels, lambda }
    }

    /// A fixed assignment.
    #[cfg(test)]
    fn from_levels(levels: Vec<u32>) -> LevelAssignment {
        let lambda = levels.iter().copied().max().unwrap_or(0);
        LevelAssignment { levels, lambda }
    }

    /// `λ(v)`.
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.levels[v as usize]
    }

    /// `Λ`, the maximum level.
    #[inline]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// `λ(e) = min{λ(v) | v ∈ e}` (edge level).
    #[inline]
    pub fn edge_level(&self, u: NodeId, v: NodeId) -> u32 {
        self.level(u).min(self.level(v))
    }

    /// Number of vertices with level `≥ λ` (the paper's `V_λ`).
    #[cfg(test)]
    fn count_at_least(&self, lambda: u32) -> usize {
        self.levels.iter().filter(|&&l| l >= lambda).count()
    }
}

/// The simulated graph `H`, represented implicitly by `G' = G + hop set`,
/// the level assignment, the hop budget `d` and the penalty base `1+ε̂`.
#[derive(Clone, Debug)]
pub struct SimulatedGraph {
    base: Graph,
    aug: Graph,
    levels: LevelAssignment,
    d: usize,
    eps_hat: f64,
}

impl SimulatedGraph {
    /// Builds `H` for `g`: constructs a `(d, ε̂_hopset)`-hop set, augments,
    /// and samples levels. `eps_hat` is the penalty base of
    /// Definition 4.2 (the paper uses the same `ε̂ ∈ 1/polylog n` for
    /// both).
    ///
    /// Panics unless `eps_hat` is finite and non-negative and the
    /// heaviest penalized edge `(1+ε̂)^Λ · ω_max(G')` is a finite `f64`
    /// (a negative `ε̂` shrinks `H` below `G`'s distances, an overflow
    /// drops edges from `H`). The same holds for every constructor.
    pub fn build(
        g: &Graph,
        hopset_config: &HopsetConfig,
        eps_hat: f64,
        rng: &mut impl Rng,
    ) -> SimulatedGraph {
        let hopset = Hopset::build(g, hopset_config, rng);
        let aug = hopset.augment(g);
        let levels = LevelAssignment::sample(g.n(), rng);
        SimulatedGraph::new(g.clone(), aug, levels, hopset.d, eps_hat)
    }

    /// Builds `H` without a hop set (`G' = G`); the caller supplies the
    /// hop budget `d` (use `d ≥ SPD(G)` for exact behaviour). Used by
    /// tests and by inputs that are already of small SPD.
    pub fn without_hopset(g: &Graph, d: usize, eps_hat: f64, rng: &mut impl Rng) -> SimulatedGraph {
        let levels = LevelAssignment::sample(g.n(), rng);
        SimulatedGraph::new(g.clone(), g.clone(), levels, d, eps_hat)
    }

    /// As [`SimulatedGraph::without_hopset`] but with fixed levels (tests).
    pub fn with_levels(
        g: &Graph,
        d: usize,
        eps_hat: f64,
        levels: LevelAssignment,
    ) -> SimulatedGraph {
        assert_eq!(levels.levels.len(), g.n());
        SimulatedGraph::new(g.clone(), g.clone(), levels, d, eps_hat)
    }

    /// The one constructor body: checks `ε̂` and that the largest level
    /// multiplier keeps `G'`'s heaviest edge in `f64` range.
    fn new(base: Graph, aug: Graph, levels: LevelAssignment, d: usize, eps_hat: f64) -> Self {
        assert!(
            eps_hat.is_finite() && eps_hat >= 0.0,
            "penalty parameter ε̂ must be finite and non-negative, got {eps_hat}"
        );
        let sim = SimulatedGraph {
            base,
            aug,
            levels,
            d,
            eps_hat,
        };
        let heaviest = sim.level_scale(0) * sim.aug.max_weight();
        assert!(
            heaviest.is_finite(),
            "penalized edge weights overflow f64: (1+ε̂)^Λ · ω_max = {heaviest} \
             (ε̂ = {eps_hat}, Λ = {})",
            sim.levels.lambda()
        );
        sim
    }

    /// The original graph `G`.
    #[inline]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The augmented graph `G'` the oracle iterates on.
    #[inline]
    pub fn augmented(&self) -> &Graph {
        &self.aug
    }

    /// The level assignment.
    #[inline]
    pub fn levels(&self) -> &LevelAssignment {
        &self.levels
    }

    /// The hop budget `d`.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The penalty parameter `ε̂`.
    #[inline]
    pub fn eps_hat(&self) -> f64 {
        self.eps_hat
    }

    /// The level-λ weight multiplier `(1+ε̂)^{Λ−λ}` (Lemma 5.1's `A_λ`).
    pub fn level_scale(&self, lambda: u32) -> f64 {
        (1.0 + self.eps_hat).powi((self.levels.lambda() - lambda) as i32)
    }

    /// Materializes `H` explicitly (Definition 4.2) — `Θ(n·d·m)` work in
    /// the worst case and `Θ(n²)` space; only for tests and small-scale
    /// experiments. Each row is `dist^d(s, ·, G')` from the
    /// hop-limited Moore-Bellman-Ford sweep (Definition 2.11).
    pub fn explicit_h(&self) -> Graph {
        let n = self.aug.n();
        let rows: Vec<Vec<Dist>> = (0..n as NodeId)
            .into_par_iter()
            .map(|s| sssp_hop_limited(&self.aug, s, self.d))
            .collect();
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                let dd = rows[u as usize][v as usize];
                if dd.is_finite() && dd.value() > 0.0 {
                    let scale = self.level_scale(self.levels.edge_level(u, v));
                    edges.push((u, v, dd.value() * scale));
                }
            }
        }
        Graph::from_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_graph::algorithms::{apsp, shortest_path_diameter};
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn levels_are_geometric_and_lambda_logarithmic() {
        // Lemma 4.1: Λ ∈ O(log n) w.h.p. With n = 4096 and 40 trials,
        // Λ ≤ 4·log₂(n) is a conservative w.h.p. bound.
        let n = 4096;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let la = LevelAssignment::sample(n, &mut rng);
            assert!(la.lambda() <= 48, "Λ = {} too large", la.lambda());
            // Roughly half the nodes are at level ≥ 1.
            let frac = la.count_at_least(1) as f64 / n as f64;
            assert!((0.4..0.6).contains(&frac), "level-1 fraction {frac}");
        }
    }

    #[test]
    fn edge_level_is_min_of_endpoints() {
        let la = LevelAssignment::from_levels(vec![0, 2, 1]);
        assert_eq!(la.lambda(), 2);
        assert_eq!(la.edge_level(1, 2), 1);
        assert_eq!(la.edge_level(0, 1), 0);
    }

    #[test]
    fn explicit_h_distances_sandwich_g_distances() {
        // Theorem 4.5 / Eq. (4.14): dist_G ≤ dist_H ≤ (1+ε̂)^{Λ+1} dist_G
        // (with an exact hop set, i.e. d ≥ SPD).
        let mut rng = StdRng::seed_from_u64(12);
        let g = gnm_graph(40, 90, 1.0..8.0, &mut rng);
        let spd = shortest_path_diameter(&g) as usize;
        let eps = 0.1;
        let sim = SimulatedGraph::without_hopset(&g, spd, eps, &mut rng);
        let h = sim.explicit_h();
        let dg = apsp(&g);
        let dh = apsp(&h);
        let bound = (1.0 + eps).powi(sim.levels().lambda() as i32 + 1) + 1e-9;
        for u in 0..g.n() {
            for v in 0..g.n() {
                let a = dg[u][v].value();
                let b = dh[u][v].value();
                assert!(b >= a - 1e-9, "H must not shorten distances ({u},{v})");
                assert!(
                    b <= a * bound,
                    "H stretch violated ({u},{v}): {b} > {bound}·{a}"
                );
            }
        }
    }

    #[test]
    fn spd_of_h_is_small() {
        // Theorem 4.5: SPD(H) ∈ O(log² n) w.h.p. — here against a path,
        // whose own SPD is n − 1.
        let g = path_graph(128, 1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let sim = SimulatedGraph::without_hopset(&g, 127, 0.1, &mut rng);
        let h = sim.explicit_h();
        let spd_h = shortest_path_diameter(&h);
        // log₂²(128) = 49; allow a constant factor.
        assert!(spd_h <= 4 * 49, "SPD(H) = {spd_h} too large");
    }

    #[test]
    #[should_panic(expected = "ε̂ must be finite and non-negative, got -0.5")]
    fn negative_eps_hat_is_rejected() {
        let g = path_graph(8, 1.0);
        let config = HopsetConfig {
            d: 3,
            oversample: 1.0,
            epsilon: 0.0,
        };
        SimulatedGraph::build(&g, &config, -0.5, &mut StdRng::seed_from_u64(14));
    }

    #[test]
    #[should_panic(expected = "ε̂ must be finite and non-negative, got NaN")]
    fn nan_eps_hat_is_rejected() {
        let g = path_graph(3, 1.0);
        SimulatedGraph::without_hopset(&g, 2, f64::NAN, &mut StdRng::seed_from_u64(15));
    }

    #[test]
    #[should_panic(expected = "penalized edge weights overflow f64")]
    fn overflowing_penalty_is_rejected() {
        // Λ = 2: (1 + 1e300)² overflows although 1e300 itself is finite.
        let g = path_graph(3, 1.0);
        let la = LevelAssignment::from_levels(vec![0, 1, 2]);
        SimulatedGraph::with_levels(&g, 2, 1e300, la);
    }

    #[test]
    fn level_scale_decreases_with_level() {
        let la = LevelAssignment::from_levels(vec![0, 1, 2]);
        let g = path_graph(3, 1.0);
        let sim = SimulatedGraph::with_levels(&g, 2, 0.5, la);
        assert!(sim.level_scale(0) > sim.level_scale(1));
        assert_eq!(sim.level_scale(2), 1.0);
    }
}
