//! Approximate metric construction (Section 6 of the paper).
//!
//! * [`approximate_metric`] — Theorem 6.1: querying the oracle with APSP
//!   yields a `(1+o(1))`-approximate metric of `G` at polylog depth and
//!   `Õ(n(m + n^{1+ε}))` work,
//! * [`approximate_metric_with_spanner`] — Theorem 6.2: preprocessing with
//!   a Baswana–Sen `(2k−1)`-spanner trades the approximation for
//!   near-`n²` work on dense graphs.

use crate::catalog::SourceDetection;
use crate::dense::oracle_run_dense_with_schedule;
use crate::oracle::{default_iteration_cap, oracle_run};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::{Dist, NodeId};
use mte_graph::hopset::HopsetConfig;
use mte_graph::spanner::baswana_sen_spanner;
use mte_graph::Graph;
use rand::Rng;

/// Configuration for the approximate-metric pipeline.
#[derive(Clone, Debug)]
pub struct MetricConfig {
    /// Hop-set parameters for building `G'`.
    pub hopset: HopsetConfig,
    /// Level penalty base `ε̂` of the simulated graph `H`.
    pub eps_hat: f64,
    /// Iteration cap for the oracle fixpoint loop (`None` = automatic,
    /// `O(log² n)`).
    pub max_iterations: Option<usize>,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            hopset: HopsetConfig::default(),
            eps_hat: 0.05,
            max_iterations: None,
        }
    }
}

/// The result of an approximate-metric computation: a full `n × n` matrix
/// with constant-time query access, plus cost accounting.
#[derive(Clone, Debug)]
pub struct ApproximateMetric {
    dist: Vec<Vec<Dist>>,
    /// Simulated `H`-iterations until the fixpoint.
    pub h_iterations: usize,
    /// Work spent by the oracle.
    pub work: WorkStats,
}

impl ApproximateMetric {
    /// Queries `dist(u, v)` in constant time.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> Dist {
        self.dist[u as usize][v as usize]
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.dist.len()
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &[Vec<Dist>] {
        &self.dist
    }
}

/// Theorem 6.1: a `(1+o(1))`-approximate metric on `V` from the oracle
/// answering the APSP query on `H`. The multiplicative error is at most
/// `(1+ε̂_{hopset})·(1+ε̂)^{Λ+1}` (Equation (4.14)).
pub fn approximate_metric(
    g: &Graph,
    config: &MetricConfig,
    rng: &mut impl Rng,
) -> ApproximateMetric {
    let sim = SimulatedGraph::build(g, &config.hopset, config.eps_hat, rng);
    approximate_metric_on(&sim, config)
}

/// As [`approximate_metric`], on a pre-built simulated graph.
pub fn approximate_metric_on(sim: &SimulatedGraph, config: &MetricConfig) -> ApproximateMetric {
    let n = sim.base().n();
    let cap = config
        .max_iterations
        .unwrap_or_else(|| default_iteration_cap(n));
    let alg = SourceDetection::apsp(n);
    // APSP advertises dense states and its output *is* an n × n matrix:
    // route the oracle levels through the dense-block backend
    // (bit-identical to the owned oracle, differential-tested by
    // `tests/schedule_equivalence.rs`). The dense oracle keeps ~2(Λ+2)
    // full n×n blocks live (per-level vector + engine shadow, the
    // aggregate, and the changed rows staged for it) — a Λ× footprint
    // over the sparse oracle's per-level state lists — so large
    // instances stay on the owned sparse route instead of trading
    // speed for an OOM.
    const DENSE_ORACLE_BYTE_BUDGET: usize = 4 << 30; // 4 GiB
    let lambda = sim.levels().lambda() as usize;
    let dense_bytes = (2 * lambda + 4)
        .saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(std::mem::size_of::<f64>());
    let run = if dense_bytes <= DENSE_ORACLE_BYTE_BUDGET {
        oracle_run_dense_with_schedule(&alg, sim, cap, true)
    } else {
        oracle_run(&alg, sim, cap)
    };
    let mut dist = vec![vec![Dist::INF; n]; n];
    for (v, state) in run.states.iter().enumerate() {
        for (w, d) in state.iter() {
            dist[v][w as usize] = d;
        }
    }
    ApproximateMetric {
        dist,
        h_iterations: run.h_iterations,
        work: run.work,
    }
}

/// Theorem 6.2: an `O(1)`-approximate metric via Baswana–Sen
/// `(2k−1)`-spanner preprocessing followed by [`approximate_metric`] on
/// the spanner. The stretch is `(2k−1)(1+o(1))`.
pub fn approximate_metric_with_spanner(
    g: &Graph,
    k: usize,
    config: &MetricConfig,
    rng: &mut impl Rng,
) -> ApproximateMetric {
    let spanner = baswana_sen_spanner(g, k, rng);
    approximate_metric(&spanner, config, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn max_ratio(g: &Graph, metric: &ApproximateMetric) -> f64 {
        let exact = apsp(g);
        let mut worst: f64 = 1.0;
        for u in 0..g.n() {
            for v in 0..g.n() {
                if u == v {
                    assert_eq!(metric.dist(u as NodeId, v as NodeId), Dist::ZERO);
                    continue;
                }
                let a = exact[u][v].value();
                let b = metric.dist(u as NodeId, v as NodeId).value();
                assert!(b >= a - 1e-9, "metric may not shorten ({u},{v})");
                worst = worst.max(b / a);
            }
        }
        worst
    }

    #[test]
    fn metric_approximates_distances() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gnm_graph(60, 150, 1.0..10.0, &mut rng);
        let config = MetricConfig {
            hopset: HopsetConfig {
                d: 9,
                epsilon: 0.0,
                oversample: 3.0,
            },
            eps_hat: 0.02,
            max_iterations: None,
        };
        let metric = approximate_metric(&g, &config, &mut rng);
        let ratio = max_ratio(&g, &metric);
        // (1+ε̂)^{Λ+1} with Λ ≈ log₂ 60 ≈ 6: ratio ≤ 1.02^12 ≈ 1.27.
        assert!(ratio <= 1.5, "approximation ratio {ratio} too large");
    }

    #[test]
    fn metric_satisfies_triangle_inequality() {
        // The whole point of H (Observation 1.1): the returned distances
        // form a metric, exactly.
        let mut rng = StdRng::seed_from_u64(32);
        let g = gnm_graph(30, 70, 1.0..10.0, &mut rng);
        let config = MetricConfig {
            hopset: HopsetConfig {
                d: 7,
                epsilon: 0.0,
                oversample: 3.0,
            },
            eps_hat: 0.1,
            max_iterations: None,
        };
        let metric = approximate_metric(&g, &config, &mut rng);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                for w in 0..g.n() as NodeId {
                    let duv = metric.dist(u, v).value();
                    let duw = metric.dist(u, w).value();
                    let dwv = metric.dist(w, v).value();
                    assert!(
                        duv <= duw + dwv + 1e-6,
                        "triangle violated: d({u},{v}) > d({u},{w}) + d({w},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn spanner_variant_has_bounded_stretch() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = gnm_graph(50, 300, 1.0..5.0, &mut rng);
        let k = 2;
        let config = MetricConfig {
            hopset: HopsetConfig {
                d: 7,
                epsilon: 0.0,
                oversample: 3.0,
            },
            eps_hat: 0.02,
            max_iterations: None,
        };
        let metric = approximate_metric_with_spanner(&g, k, &config, &mut rng);
        let ratio = max_ratio(&g, &metric);
        // (2k−1)·(1+o(1)) = 3·(1+o(1)).
        assert!(ratio <= 3.0 * 1.5, "spanner metric ratio {ratio}");
    }
}
