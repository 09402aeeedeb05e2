//! The serving benchmark suite: point queries and batched sweeps
//! against the frozen distance oracle, with machine-readable output.
//!
//! Each catalog graph gets three rows: `point` draws uniform pairs over
//! all `n²`, `point-zipf` draws Zipf(1) ranks over a fixed universe of
//! pairs (skewed traffic that revisits a few pairs often), and `batch`
//! sweeps `k` sources to every vertex. Both point rows time the exact
//! tree climb every query takes.
//!
//! Run via `exp_serving`; emits `BENCH_serving.json` so successive
//! changes can track the serving layer's trajectory: queries per second, the
//! p99 of per-query *work units* (the deterministic deadline currency —
//! stable across machines, unlike wall time), and
//! the shed/degraded counts from a deliberately hostile segment
//! (zero-capacity admission, floor-budget deadlines). Every measured
//! answer is cross-checked against [`FrtTree::leaf_distance`] before a
//! number is recorded — a benchmark of a wrong answer is worthless.
//!
//! The shed and degraded counts are not measurements: the hostile
//! segment is the first 512 point pairs, every one of which a
//! zero-capacity oracle sheds and a 2-unit oracle answers from a
//! non-exact rung (two units are too few for the exact tree climb on
//! the catalog trees), so every row reads
//! `shed = degraded = 512` by construction. They pin that the typed
//! paths stay typed, nothing more.

use crate::tables::{f, Table};
use mte_core::frt::{le_lists_direct, FrtTree, Ranks};
use mte_graph::generators::{gnm_graph, grid_graph};
use mte_graph::Graph;
use mte_serving::{CancelToken, Oracle, OracleArtifact, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// One measured (graph, mode) cell.
#[derive(Clone, Debug)]
pub struct ServingCase {
    /// Graph family label.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// `point`, `point-zipf` or `batch`.
    pub mode: String,
    /// Distance answers served.
    pub answers: usize,
    /// Answers flagged exact (every batch answer is). Not written to
    /// the JSON: the suite's own test requires it to equal `answers`.
    pub exact: usize,
    /// Wall time of the serving run, in milliseconds.
    pub wall_ms: f64,
    /// Answers per second.
    pub qps: f64,
    /// 99th percentile of per-query work units (per-source units for
    /// batch sweeps).
    pub p99_work: u64,
    /// Queries shed typed by the zero-capacity admission segment.
    pub shed: u64,
    /// Non-exact answers produced by the floor-budget segment, each
    /// with its ladder falls recorded.
    pub degraded: u64,
}

/// The serving catalog: the engine suite's sparse workload plus the
/// grid (shallow tree, long lists — the opposite serving profile).
pub fn serving_catalog() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x5E4B);
    vec![
        (
            "gnm n=2000 m=6000".into(),
            gnm_graph(2000, 6000, 1.0..50.0, &mut rng),
        ),
        ("grid 40x40".into(), grid_graph(40, 40, 1.0..5.0, &mut rng)),
    ]
}

fn freeze(g: &Graph, seed: u64) -> OracleArtifact {
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(seed)));
    let (lists, _, _) = le_lists_direct(g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
    OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree).expect("parts are valid")
}

fn p99(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1).min(samples.len() * 99 / 100)]
}

/// The hostile segment shared by both modes: a zero-capacity oracle
/// sheds everything typed, a floor-budget oracle degrades everything —
/// both countable, neither allowed to panic or answer wrong.
fn stress_counts(artifact: &OracleArtifact, pairs: &[(u32, u32)]) -> (u64, u64) {
    let shed_all = Oracle::with_config(
        artifact.clone(),
        ServeConfig {
            max_in_flight: 0,
            ..ServeConfig::default()
        },
    );
    let mut shed = 0u64;
    for &(u, v) in pairs {
        match shed_all.distance(u, v) {
            Err(ServeError::Overloaded { .. }) => shed += 1,
            other => panic!("zero capacity must shed typed, got {other:?}"),
        }
    }
    let floor = Oracle::with_config(
        artifact.clone(),
        ServeConfig {
            query_budget: 2,
            ..ServeConfig::default()
        },
    );
    let mut degraded = 0u64;
    for &(u, v) in pairs {
        match floor.distance(u, v) {
            Ok(answer) => {
                assert!(!answer.exact, "2 work units cannot buy an exact answer");
                assert!(!answer.degradations.is_empty(), "ladder falls unrecorded");
                degraded += 1;
            }
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("floor budget must degrade or deadline, got {other:?}"),
        }
    }
    (shed, degraded)
}

/// Distinct pairs the `point-zipf` rows draw from; rank `r` is asked
/// with probability proportional to `1 / (r + 1)`.
const ZIPF_UNIVERSE: usize = 4096;

/// `count` Zipf(1) draws over a universe of [`ZIPF_UNIVERSE`] uniform
/// pairs of `0..n`.
fn zipf_pairs(n: u32, count: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let universe: Vec<(u32, u32)> = (0..ZIPF_UNIVERSE)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut cdf: Vec<f64> = (1..=ZIPF_UNIVERSE)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[ZIPF_UNIVERSE - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    (0..count)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..1.0);
            universe[cdf.partition_point(|&c| c < x).min(ZIPF_UNIVERSE - 1)]
        })
        .collect()
}

/// One point-mode row: `pairs` through a fresh default oracle, timed,
/// then spot-checked against the reference.
fn point_case(
    label: &str,
    g: &Graph,
    artifact: &OracleArtifact,
    mode: &str,
    pairs: &[(u32, u32)],
    (shed, degraded): (u64, u64),
) -> ServingCase {
    let oracle = Oracle::new(artifact.clone());
    let mut work = Vec::with_capacity(pairs.len());
    let mut exact = 0;
    let start = Instant::now();
    for &(u, v) in pairs {
        let answer = oracle.distance(u, v).expect("default budget serves");
        work.push(answer.work);
        exact += usize::from(answer.exact);
    }
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for &(u, v) in &pairs[..pairs.len().min(256)] {
        let served = oracle.distance(u, v).expect("recheck").value;
        assert!(
            served == artifact.tree().leaf_distance(u, v),
            "point answer diverged from leaf_distance"
        );
    }
    ServingCase {
        graph: label.to_string(),
        n: g.n(),
        m: g.m(),
        mode: mode.into(),
        answers: pairs.len(),
        exact,
        wall_ms: wall,
        qps: pairs.len() as f64 / (wall / 1e3),
        p99_work: p99(work),
        shed,
        degraded,
    }
}

/// Measures every mode on every catalog graph.
pub fn serving_suite() -> Vec<ServingCase> {
    serving_suite_sized(20_000, 64)
}

/// Parameterized core (small sizes keep the self-test fast).
pub fn serving_suite_sized(point_queries: usize, batch_sources: usize) -> Vec<ServingCase> {
    let mut cases = Vec::new();
    for (label, g) in serving_catalog() {
        let artifact = freeze(&g, 0x5E4C);
        let n = g.n() as u32;
        let mut rng = StdRng::seed_from_u64(0x5E4D);
        let pairs: Vec<(u32, u32)> = (0..point_queries)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let stress_pairs = &pairs[..pairs.len().min(512)];
        let (shed, degraded) = stress_counts(&artifact, stress_pairs);

        cases.push(point_case(
            &label,
            &g,
            &artifact,
            "point",
            &pairs,
            (shed, degraded),
        ));
        let zipf = zipf_pairs(n, point_queries, &mut rng);
        cases.push(point_case(
            &label,
            &g,
            &artifact,
            "point-zipf",
            &zipf,
            (shed, degraded),
        ));

        // Batch mode: k sources × all n targets, one row per source.
        let sources: Vec<u32> = (0..batch_sources as u32).map(|i| (i * 37) % n).collect();
        let oracle = Oracle::new(artifact.clone());
        let start = Instant::now();
        let batch = oracle
            .batch_distances(&sources, &CancelToken::new())
            .expect("batch budget serves");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        for (i, &s) in sources.iter().enumerate().take(8) {
            for v in (0..n).step_by(97) {
                assert!(
                    batch.distances[i][v as usize] == artifact.tree().leaf_distance(s, v),
                    "batch answer diverged from leaf_distance"
                );
            }
        }
        let answers = sources.len() * g.n();
        cases.push(ServingCase {
            graph: label,
            n: g.n(),
            m: g.m(),
            mode: "batch".into(),
            answers,
            exact: answers,
            wall_ms: wall,
            qps: answers as f64 / (wall / 1e3),
            p99_work: batch.work / sources.len().max(1) as u64,
            shed,
            degraded,
        });
    }
    cases
}

/// Renders the human-readable table.
pub fn serving_suite_table(cases: &[ServingCase]) -> Table {
    let mut table = Table::new(
        "serving suite: frozen-oracle queries (point ladder, uniform and Zipf; batch rows)",
        &[
            "graph", "n", "m", "mode", "answers", "wall ms", "qps", "p99 work", "shed", "degraded",
        ],
    );
    for c in cases {
        table.push(vec![
            c.graph.clone(),
            c.n.to_string(),
            c.m.to_string(),
            c.mode.clone(),
            c.answers.to_string(),
            f(c.wall_ms, 2),
            f(c.qps, 0),
            c.p99_work.to_string(),
            c.shed.to_string(),
            c.degraded.to_string(),
        ]);
    }
    table
}

/// Serializes the suite to the `BENCH_serving.json` schema (hand-rolled;
/// the workspace carries no serialization dependency).
pub fn serving_suite_json(cases: &[ServingCase]) -> String {
    use crate::engine_suite::json_escape;
    let mut out = String::from("{\n  \"suite\": \"serving\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, \"mode\": \"{}\", ",
                "\"answers\": {}, \"wall_ms\": {:.3}, \"qps\": {:.1}, ",
                "\"p99_work\": {}, ",
                "\"shed\": {}, \"degraded\": {}}}{}\n"
            ),
            json_escape(&c.graph),
            c.n,
            c.m,
            json_escape(&c.mode),
            c.answers,
            c.wall_ms,
            c.qps,
            c.p99_work,
            c.shed,
            c.degraded,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature suite run exercising measurement, stress counting,
    /// table, and JSON paths end to end.
    #[test]
    fn mini_suite_measures_and_serializes() {
        let cases = serving_suite_sized(200, 4);
        assert_eq!(cases.len(), 3 * serving_catalog().len());
        for c in &cases {
            assert!(c.answers > 0);
            assert!(c.qps > 0.0);
            assert!(c.shed > 0, "{}: stress segment shed nothing", c.graph);
            assert!(
                c.degraded > 0,
                "{}: stress segment degraded nothing",
                c.graph
            );
        }
        let point = cases.iter().find(|c| c.mode == "point").expect("point row");
        assert!(point.p99_work > 0);
        for c in cases.iter().filter(|c| c.mode.starts_with("point")) {
            assert_eq!(
                c.exact, c.answers,
                "{} {}: a default-budget point answer was not exact",
                c.graph, c.mode
            );
        }
        let json = serving_suite_json(&cases);
        assert!(json.contains("\"suite\": \"serving\""));
        assert!(json.contains("\"mode\": \"batch\""));
        let table = serving_suite_table(&cases).render();
        assert!(table.contains("qps"));
    }
}
