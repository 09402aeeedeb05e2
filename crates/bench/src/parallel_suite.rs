//! The thread-scaling benchmark suite: the same engine workload swept
//! across thread counts `{1, 2, 4, max}`, with machine-readable output.
//!
//! Run via `exp_baseline`; emits `BENCH_parallel.json` so successive PRs
//! can track the parallel speedup of the iteration core next to the
//! relaxation counts of `BENCH_engine.json`. Every measurement first
//! cross-checks that the run's states are **bit-identical** to the
//! 1-thread reference — the deterministic-reduction-tree guarantee of
//! the rayon backend — before recording a time; a speedup on a wrong (or
//! thread-count-dependent) answer is worthless.
//!
//! The workload is the APSP fixpoint sweep on the standard catalog,
//! measured on two backends per graph: the owned sparse store under
//! the dense schedule (`apsp dense` — the historical rows) and the flat
//! matrix backend (`apsp dense-block` — `mte_core::dense`, the
//! contiguous row kernels). The dense-block rows are additionally cross-checked bit-identical against the owned rows,
//! so the trajectory never compares different answers. Speedups saturate
//! at the machine's physical parallelism — on a single-core host every
//! thread count measures ≈ 1×, which the JSON flags via `host_threads`
//! and `speedups_valid: false` (plus an explanatory `note`) so
//! trajectory tooling never mistakes a one-core artifact for a scaling
//! regression.

use crate::engine_suite::json_escape;
use crate::tables::{f, Table};
use mte_algebra::DistanceMap;
use mte_core::catalog::SourceDetection;
use mte_core::dense::DenseBackend;
use mte_core::engine::{EngineStrategy, MbfRun, OwnedBackend};
use mte_core::run::run_to_fixpoint_on;
use mte_graph::generators::{gnm_graph, grid_graph};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::time::Instant;

/// One measured (graph, thread-count) cell.
#[derive(Clone, Debug)]
pub struct ParallelCase {
    /// Graph family label.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// Algorithm label.
    pub algorithm: String,
    /// Total parallelism of the pool the run executed on.
    pub threads: usize,
    /// Wall time of the full fixpoint run, in milliseconds.
    pub wall_ms: f64,
    /// Wall-time speedup over the 1-thread run of the same workload.
    pub speedup: f64,
}

/// The thread counts the suite sweeps: `{1, 2, 4, max}`, deduplicated
/// and sorted (on hosts with ≤ 4 cores, `max` folds into the fixed
/// points).
pub fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The catalog the thread sweep runs on: sized so a dense APSP fixpoint
/// run takes long enough to time meaningfully but keeps the whole sweep
/// in seconds.
pub fn parallel_catalog() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xFA12);
    vec![
        (
            "gnm n=800 m=3200".into(),
            gnm_graph(800, 3200, 1.0..50.0, &mut rng),
        ),
        ("grid 28x28".into(), grid_graph(28, 28, 1.0..5.0, &mut rng)),
    ]
}

/// Measures one workload's fixpoint run on `g` across `counts`,
/// asserting bit-identical states against the 1-thread reference (and
/// against `cross_check`, the states of another backend's sweep, when
/// given — different backends of the same workload must agree exactly).
/// `counts` must start with 1 — `speedup` (serialized as
/// `speedup_vs_1`) is relative to that run. Returns the 1-thread
/// states for cross-backend checks.
pub fn measure_thread_sweep_with<R>(
    graph_label: &str,
    g: &Graph,
    counts: &[usize],
    algorithm: &str,
    cross_check: Option<&[DistanceMap]>,
    run: R,
    out: &mut Vec<ParallelCase>,
) -> Vec<DistanceMap>
where
    R: Fn() -> MbfRun<DistanceMap> + Sync,
{
    assert_eq!(
        counts.first(),
        Some(&1),
        "thread sweep must lead with the 1-thread reference run"
    );
    let mut reference: Option<(Vec<DistanceMap>, f64)> = None;
    for &threads in counts {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool build cannot fail");
        let t0 = Instant::now();
        let result = pool.install(&run);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let baseline_ms = match &reference {
            None => {
                if let Some(expect) = cross_check {
                    assert_eq!(
                        result.states, expect,
                        "{graph_label}/{algorithm}: backend diverged from the reference sweep"
                    );
                }
                let ms = wall_ms;
                reference = Some((result.states, wall_ms));
                ms
            }
            Some((states, ms)) => {
                assert_eq!(
                    &result.states, states,
                    "{graph_label}/{algorithm}: {threads} threads changed the result"
                );
                *ms
            }
        };
        out.push(ParallelCase {
            graph: graph_label.to_string(),
            n: g.n(),
            m: g.m(),
            algorithm: algorithm.to_string(),
            threads,
            wall_ms,
            speedup: baseline_ms / wall_ms.max(1e-9),
        });
    }
    reference.expect("counts is non-empty").0
}

/// The historical entry point: the owned-backend dense APSP sweep
/// (`apsp dense` rows). Returns the 1-thread states.
pub fn measure_thread_sweep(
    graph_label: &str,
    g: &Graph,
    counts: &[usize],
    out: &mut Vec<ParallelCase>,
) -> Vec<DistanceMap> {
    let alg = SourceDetection::apsp(g.n());
    let cap = g.n() + 1;
    measure_thread_sweep_with(
        graph_label,
        g,
        counts,
        "apsp dense",
        None,
        || run_to_fixpoint_on(OwnedBackend::new(EngineStrategy::Dense), &alg, g, cap),
        out,
    )
}

/// Runs the sweep on the full catalog: the owned `apsp dense` rows
/// (the trajectory baseline) and the flat-matrix `apsp dense-block`
/// rows, cross-checked bit-identical against the owned states.
pub fn parallel_suite() -> Vec<ParallelCase> {
    let counts = thread_counts();
    let mut cases = Vec::new();
    for (label, g) in parallel_catalog() {
        let alg = SourceDetection::apsp(g.n());
        let cap = g.n() + 1;
        let reference = measure_thread_sweep(&label, &g, &counts, &mut cases);
        // Frontier schedule: for the dense backend a Ligra-style dense
        // fallback only re-relaxes quiescent full rows, so the frontier
        // list is its production schedule.
        measure_thread_sweep_with(
            &label,
            &g,
            &counts,
            "apsp dense-block",
            Some(&reference),
            || {
                run_to_fixpoint_on(
                    DenseBackend::new(EngineStrategy::Frontier, None),
                    &alg,
                    &g,
                    cap,
                )
            },
            &mut cases,
        );
    }
    cases
}

/// Renders the sweep as a table.
pub fn parallel_suite_table(cases: &[ParallelCase]) -> Table {
    let mut t = Table::new(
        "Thread sweep: APSP fixpoint runs, owned/dense-block backends (states cross-checked bit-identical)",
        &["graph", "algorithm", "threads", "wall ms", "speedup vs 1"],
    );
    for case in cases {
        t.push(vec![
            case.graph.clone(),
            case.algorithm.clone(),
            case.threads.to_string(),
            f(case.wall_ms, 1),
            format!("{:.2}x", case.speedup),
        ]);
    }
    t
}

/// Serializes the sweep to the `BENCH_parallel.json` schema
/// (hand-rolled; the workspace carries no serialization dependency).
pub fn parallel_suite_json(cases: &[ParallelCase]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "{{\n  \"suite\": \"parallel\",\n  \"host_threads\": {host},\n  \"speedups_valid\": {},\n",
        host > 1
    );
    if host == 1 {
        out.push_str(
            "  \"note\": \"single-core host: every pool size measures ~1x, \
             so speedup_vs_1 says nothing about the backend's scaling\",\n",
        );
    }
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, ",
                "\"algorithm\": \"{}\", \"threads\": {}, ",
                "\"wall_ms\": {:.3}, \"speedup_vs_1\": {:.3}}}{}\n"
            ),
            json_escape(&c.graph),
            c.n,
            c.m,
            json_escape(&c.algorithm),
            c.threads,
            c.wall_ms,
            c.speedup,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep (small graph, two thread counts) exercising the
    /// measurement, cross-check, table, and JSON paths end to end.
    #[test]
    fn mini_sweep_measures_and_serializes() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnm_graph(48, 110, 1.0..9.0, &mut rng);
        let mut cases = Vec::new();
        let reference = measure_thread_sweep("mini", &g, &[1, 2], &mut cases);
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].threads, 1);
        assert!((cases[0].speedup - 1.0).abs() < 1e-12);

        // The dense-block sweep rides the same harness and is
        // cross-checked against the owned states.
        let alg = SourceDetection::apsp(g.n());
        measure_thread_sweep_with(
            "mini",
            &g,
            &[1, 2],
            "apsp dense-block",
            Some(&reference),
            || {
                run_to_fixpoint_on(
                    DenseBackend::new(EngineStrategy::Dense, None),
                    &alg,
                    &g,
                    g.n() + 1,
                )
            },
            &mut cases,
        );
        assert_eq!(cases.len(), 4);
        assert!(cases.iter().any(|c| c.algorithm == "apsp dense-block"));

        let json = parallel_suite_json(&cases);
        assert!(json.contains("\"suite\": \"parallel\""));
        assert!(json.contains("\"host_threads\""));
        // Speedups are flagged invalid on single-core hosts (and only
        // there): downstream trajectory tooling must not read a 1.0x
        // column as "the backend does not scale".
        let single_core = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            == 1;
        assert!(json.contains(&format!("\"speedups_valid\": {}", !single_core)));
        assert_eq!(json.contains("\"note\""), single_core);
        assert_eq!(json.matches("\"threads\"").count(), cases.len());

        let table = parallel_suite_table(&cases).render();
        assert!(table.contains("mini") && table.contains("speedup"));
    }

    #[test]
    fn thread_counts_are_sorted_unique_and_start_at_one() {
        let counts = thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert!(counts.contains(&2) && counts.contains(&4));
    }
}
