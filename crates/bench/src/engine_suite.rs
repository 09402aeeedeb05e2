//! The engine benchmark suite: dense vs frontier scheduling on the
//! standard graph catalog, with machine-readable output.
//!
//! Run via `exp_baseline` (or `cargo bench --bench bench_engine` for the
//! criterion timings); emits `BENCH_engine.json` so successive PRs can
//! track the performance trajectory of the iteration core. Every case
//! cross-checks that the sparse strategies reproduce the dense states
//! bit-identically before recording numbers — a benchmark of a wrong
//! answer is worthless.
//!
//! Rows measure the **production path** of each workload: for the LE
//! lists that is the epoch-arena backend (`le_lists_direct` routes
//! through [`mte_core::arena::ArenaEngine`] since the arena rework), so
//! the `frontier` rows time the arena engine and the `…+owned` rows
//! keep the owned `Vec<DistanceMap>` backend visible for comparison.
//! SSSP keeps its owned rows (the generic engine is its production
//! path) plus `…+arena` rows. APSP rows on the dense catalog measure
//! the flat-matrix backend (`dense-block`) against the owned sparse
//! reference. Every row carries the storage counters (`bytes_copied`,
//! `alloc_count`, `arena_bytes`) and the matrix-mode hop count
//! (`dense_hops`) so the copy-on-write and matrix-mode wins show up in
//! the trajectory, not just wall time; arena rows also carry the
//! semi-naive handover volume (`handover_entries`).

use crate::tables::{f, Table};
use mte_algebra::DistanceMap;
use mte_core::arena::{ArenaBackend, ArenaMbfAlgorithm};
use mte_core::catalog::SourceDetection;
use mte_core::dense::DenseBackend;
use mte_core::engine::{EngineStrategy, MbfAlgorithm, MbfRun, OwnedBackend};
use mte_core::frt::le_list::{LeListAlgorithm, Ranks};
use mte_core::run::run_to_fixpoint_on;
use mte_core::work::WorkStats;
use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One measured (graph, algorithm, strategy) cell.
#[derive(Clone, Debug)]
pub struct EngineCase {
    /// Graph family label.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// Algorithm label.
    pub algorithm: String,
    /// Strategy label.
    pub strategy: String,
    /// Wall time of the full fixpoint run, in milliseconds.
    pub wall_ms: f64,
    /// Iterations to fixpoint.
    pub iterations: usize,
    /// Work counters of the run.
    pub work: WorkStats,
    /// Largest final state (`max_v |x_v|`). For LE lists, Lemma 7.6
    /// bounds this by `O(log n)` w.h.p. — recording it makes the bound
    /// empirically visible in the perf trajectory.
    pub max_list_len: usize,
    /// Mean final state size (`Σ_v |x_v| / n`).
    pub mean_list_len: f64,
}

/// The standard catalog the engine suite runs on. The first two are the
/// sparse-convergence workloads the engine issue names as acceptance
/// targets; the path is the extreme SPD = n − 1 regime.
pub fn engine_catalog() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xE16E);
    vec![
        (
            "gnm n=2000 m=6000".into(),
            gnm_graph(2000, 6000, 1.0..50.0, &mut rng),
        ),
        ("grid 50x50".into(), grid_graph(50, 50, 1.0..5.0, &mut rng)),
        ("path n=1024".into(), path_graph(1024, 1.0)),
    ]
}

/// The APSP-class dense catalog: smaller graphs (the workload's state
/// volume is Θ(n²)) on which the dense-block backend is measured
/// against the owned sparse reference.
pub fn dense_catalog() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xDE45);
    vec![
        (
            "gnm n=400 m=1600".into(),
            gnm_graph(400, 1600, 1.0..50.0, &mut rng),
        ),
        ("grid 20x20".into(), grid_graph(20, 20, 1.0..5.0, &mut rng)),
    ]
}

fn strategy_label(s: EngineStrategy) -> String {
    match s {
        EngineStrategy::Dense => "dense".into(),
        EngineStrategy::Frontier => "frontier".into(),
    }
}

/// The strategies each workload is measured under.
pub fn measured_strategies() -> [EngineStrategy; 2] {
    [EngineStrategy::Dense, EngineStrategy::Frontier]
}

/// Records one timed fixpoint run as a case row, after cross-checking
/// its states against the dense reference.
#[allow(clippy::too_many_arguments)]
fn record<A>(
    graph_label: &str,
    g: &Graph,
    alg_label: &str,
    alg: &A,
    strategy_name: String,
    run: MbfRun<A::M>,
    wall_ms: f64,
    reference: &MbfRun<A::M>,
    out: &mut Vec<EngineCase>,
) where
    A: MbfAlgorithm,
    A::M: PartialEq + std::fmt::Debug,
{
    assert_eq!(
        run.states, reference.states,
        "{graph_label}/{alg_label}: {strategy_name} diverged from dense"
    );
    let max_list_len = run
        .states
        .iter()
        .map(|x| alg.state_size(x))
        .max()
        .unwrap_or(0);
    let total_len: usize = run.states.iter().map(|x| alg.state_size(x)).sum();
    out.push(EngineCase {
        graph: graph_label.to_string(),
        n: g.n(),
        m: g.m(),
        algorithm: alg_label.to_string(),
        strategy: strategy_name,
        wall_ms,
        iterations: run.iterations,
        work: run.work,
        max_list_len,
        mean_list_len: total_len as f64 / g.n().max(1) as f64,
    });
}

/// Measures the owned (`Vec<M>`) backend under every strategy, with the
/// given label suffix (`""` when the owned backend is the workload's
/// production path).
#[allow(clippy::too_many_arguments)]
fn measure_owned<A>(
    graph_label: &str,
    g: &Graph,
    alg_label: &str,
    alg: &A,
    suffix: &str,
    skip_dense: bool,
    reference: &MbfRun<A::M>,
    out: &mut Vec<EngineCase>,
) where
    A: MbfAlgorithm,
    A::M: PartialEq + std::fmt::Debug,
{
    let cap = g.n() + 1;
    for strategy in measured_strategies() {
        if skip_dense && strategy == EngineStrategy::Dense {
            continue;
        }
        let t0 = Instant::now();
        let run = run_to_fixpoint_on(OwnedBackend::new(strategy), alg, g, cap);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let label = format!("{}{suffix}", strategy_label(strategy));
        record(
            graph_label,
            g,
            alg_label,
            alg,
            label,
            run,
            wall_ms,
            reference,
            out,
        );
    }
}

/// Measures the epoch-arena backend under the frontier strategy (a
/// dense+arena row would time pool churn the production paths never
/// exhibit), with the given label suffix.
fn measure_arena<A>(
    graph_label: &str,
    g: &Graph,
    alg_label: &str,
    alg: &A,
    suffix: &str,
    reference: &MbfRun<DistanceMap>,
    out: &mut Vec<EngineCase>,
) where
    A: ArenaMbfAlgorithm,
{
    let strategy = EngineStrategy::Frontier;
    let t0 = Instant::now();
    let run = run_to_fixpoint_on(ArenaBackend::new(strategy), alg, g, g.n() + 1);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let label = format!("{}{suffix}", strategy_label(strategy));
    record(
        graph_label,
        g,
        alg_label,
        alg,
        label,
        run,
        wall_ms,
        reference,
        out,
    );
}

/// Runs the suite: SSSP and LE lists to fixpoint on every catalog graph
/// under every strategy and both storage backends. For LE lists the
/// plain `frontier` row times the arena backend (the
/// production path of `le_lists_direct`); `…+owned` rows keep the owned
/// backend in the trajectory. For SSSP the plain rows stay owned (its
/// production path) and `…+arena` rows ride along.
pub fn engine_suite() -> Vec<EngineCase> {
    let mut cases = Vec::new();
    for (label, g) in engine_catalog() {
        let cap = g.n() + 1;
        // Each workload's dense reference sweep is run (and timed) once
        // — it is the suite's slowest case — and doubles as its own
        // `dense` row.
        let sssp = SourceDetection::sssp(g.n(), 0);
        let t0 = Instant::now();
        let reference =
            run_to_fixpoint_on(OwnedBackend::new(EngineStrategy::Dense), &sssp, &g, cap);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record(
            &label,
            &g,
            "sssp",
            &sssp,
            "dense".into(),
            reference.clone(),
            wall_ms,
            &reference,
            &mut cases,
        );
        measure_owned(&label, &g, "sssp", &sssp, "", true, &reference, &mut cases);
        measure_arena(&label, &g, "sssp", &sssp, "+arena", &reference, &mut cases);

        let mut rng = StdRng::seed_from_u64(0x1E11);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le = LeListAlgorithm::new(ranks);
        let t0 = Instant::now();
        let reference = run_to_fixpoint_on(OwnedBackend::new(EngineStrategy::Dense), &le, &g, cap);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record(
            &label,
            &g,
            "le_lists",
            &le,
            "dense".into(),
            reference.clone(),
            wall_ms,
            &reference,
            &mut cases,
        );
        measure_arena(&label, &g, "le_lists", &le, "", &reference, &mut cases);
        measure_owned(
            &label, &g, "le_lists", &le, "+owned", true, &reference, &mut cases,
        );
    }

    // APSP-class rows: owned sparse reference vs the dense-block matrix
    // backend, on the dense catalog.
    for (label, g) in dense_catalog() {
        let cap = g.n() + 1;
        let apsp = SourceDetection::apsp(g.n());
        let t0 = Instant::now();
        let reference =
            run_to_fixpoint_on(OwnedBackend::new(EngineStrategy::Dense), &apsp, &g, cap);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record(
            &label,
            &g,
            "apsp",
            &apsp,
            "dense".into(),
            reference.clone(),
            wall_ms,
            &reference,
            &mut cases,
        );
        let t0 = Instant::now();
        let run = run_to_fixpoint_on(
            DenseBackend::new(EngineStrategy::Dense, None),
            &apsp,
            &g,
            cap,
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record(
            &label,
            &g,
            "apsp",
            &apsp,
            "dense-block".into(),
            run,
            wall_ms,
            &reference,
            &mut cases,
        );
    }
    cases
}

/// Renders the suite as a table, with the per-workload dense/frontier
/// relaxation ratio (the headline number of the engine rework).
pub fn engine_suite_table(cases: &[EngineCase]) -> Table {
    let mut t = Table::new(
        "Engine suite: dense vs frontier, owned vs arena (fixpoint runs, states cross-checked)",
        &[
            "graph",
            "algorithm",
            "strategy",
            "wall ms",
            "iters",
            "edge relax",
            "touched",
            "copied KiB",
            "allocs",
            "vs dense",
        ],
    );
    for case in cases {
        let dense_relax = cases
            .iter()
            .find(|c| {
                c.graph == case.graph && c.algorithm == case.algorithm && c.strategy == "dense"
            })
            .map(|c| c.work.edge_relaxations)
            .unwrap_or(case.work.edge_relaxations);
        let ratio = dense_relax as f64 / case.work.edge_relaxations.max(1) as f64;
        t.push(vec![
            case.graph.clone(),
            case.algorithm.clone(),
            case.strategy.clone(),
            f(case.wall_ms, 1),
            case.iterations.to_string(),
            case.work.edge_relaxations.to_string(),
            case.work.touched_vertices.to_string(),
            f(case.work.bytes_copied as f64 / 1024.0, 0),
            case.work.alloc_count.to_string(),
            format!("{:.2}x", ratio),
        ]);
    }
    t
}

pub(crate) fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serializes the suite to the `BENCH_engine.json` schema (hand-rolled;
/// the workspace carries no serialization dependency).
pub fn engine_suite_json(cases: &[EngineCase]) -> String {
    let mut out = String::from("{\n  \"suite\": \"engine\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, ",
                "\"algorithm\": \"{}\", \"strategy\": \"{}\", ",
                "\"wall_ms\": {:.3}, \"iterations\": {}, ",
                "\"entries_processed\": {}, \"edge_relaxations\": {}, ",
                "\"handover_entries\": {}, \"touched_vertices\": {}, ",
                "\"bytes_copied\": {}, \"alloc_count\": {}, \"arena_bytes\": {}, ",
                "\"dense_hops\": {}, ",
                "\"max_list_len\": {}, \"mean_list_len\": {:.3}}}{}\n"
            ),
            json_escape(&c.graph),
            c.n,
            c.m,
            json_escape(&c.algorithm),
            json_escape(&c.strategy),
            c.wall_ms,
            c.iterations,
            c.work.entries_processed,
            c.work.edge_relaxations,
            c.work.handover_entries,
            c.work.touched_vertices,
            c.work.bytes_copied,
            c.work.alloc_count,
            c.work.arena_bytes,
            c.work.dense_hops,
            c.max_list_len,
            c.mean_list_len,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature suite run (small graphs) exercising the measurement,
    /// table, and JSON paths end to end — both storage backends.
    #[test]
    fn mini_suite_measures_and_serializes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gnm_graph(40, 90, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let reference = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::Dense),
            &alg,
            &g,
            g.n() + 1,
        );
        let mut cases = Vec::new();
        measure_owned("mini", &g, "sssp", &alg, "", false, &reference, &mut cases);
        measure_arena("mini", &g, "sssp", &alg, "+arena", &reference, &mut cases);
        assert_eq!(cases.len(), measured_strategies().len() + 1);
        let dense = &cases[0];
        let frontier = &cases[1];
        assert_eq!(dense.strategy, "dense");
        assert!(frontier.work.edge_relaxations < dense.work.edge_relaxations);
        // The arena rows carry the storage counters the owned rows lack.
        let arena_frontier = cases
            .iter()
            .find(|c| c.strategy == "frontier+arena")
            .expect("arena row present");
        assert!(arena_frontier.work.arena_bytes > 0);
        assert!(
            arena_frontier.work.edge_relaxations <= frontier.work.edge_relaxations,
            "identical schedule; arena may skip absorbed merges"
        );
        assert!(arena_frontier.work.bytes_copied < frontier.work.bytes_copied);

        let json = engine_suite_json(&cases);
        assert!(json.contains("\"suite\": \"engine\""));
        assert!(json.contains("\"edge_relaxations\""));
        // Storage counters ride along in every row.
        assert_eq!(json.matches("\"bytes_copied\"").count(), cases.len());
        assert_eq!(json.matches("\"alloc_count\"").count(), cases.len());
        assert_eq!(json.matches("\"arena_bytes\"").count(), cases.len());
        // The matrix-mode hop count too.
        assert_eq!(json.matches("\"dense_hops\"").count(), cases.len());
        // The Lemma 7.6 list-length statistics ride along in every row.
        assert_eq!(json.matches("\"max_list_len\"").count(), cases.len());
        assert_eq!(json.matches("\"mean_list_len\"").count(), cases.len());
        assert_eq!(json.matches("\"graph\"").count(), cases.len());

        let table = engine_suite_table(&cases).render();
        assert!(table.contains("dense") && table.contains("frontier"));
    }
}
