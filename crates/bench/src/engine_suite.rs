//! The engine benchmark suite: the frontier schedule on the standard
//! graph catalog, per storage backend, with machine-readable output.
//!
//! Run via `exp_baseline`; emits `BENCH_engine.json` so successive PRs
//! can track the work counters of the iteration core. Every workload
//! cross-checks each row's states and hop count against the literal
//! Eq. (2.17) reference (`mte_core::engine::run`, `h` applications of
//! the one-shot `iterate` kernel; untimed, not a row) before recording
//! numbers — a benchmark of a wrong answer is worthless.
//!
//! Rows measure the **production path** of each workload: for the LE
//! lists that is the epoch-arena backend (`le_lists_direct` routes
//! through [`mte_core::arena::ArenaEngine`]), so the `frontier` rows
//! time the arena engine and the `…+owned` rows keep the owned
//! `Vec<DistanceMap>` backend visible for comparison. SSSP keeps its
//! owned rows (the generic engine is its production path) plus
//! `…+arena` rows. APSP rows on the dense catalog measure the
//! flat-matrix backend (`dense-block`). Every row carries the storage
//! counters (`bytes_copied`, `alloc_count`, `arena_bytes`) and the
//! matrix-mode hop count (`dense_hops`) so the copy-on-write and
//! matrix-mode wins show up in the trajectory, not just wall time;
//! arena rows also carry the semi-naive handover volume
//! (`handover_entries`).

use crate::tables::{f, Table};
use mte_core::arena::ArenaBackend;
use mte_core::catalog::SourceDetection;
use mte_core::dense::DenseBackend;
use mte_core::engine::{run, MbfAlgorithm, MbfRun, OwnedBackend};
use mte_core::frt::le_list::{LeListAlgorithm, Ranks};
use mte_core::run::run_to_fixpoint_on;
use mte_core::work::WorkStats;
use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One measured (graph, algorithm, backend) cell.
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
    /// Row label: the schedule plus, off the production path, the
    /// storage backend (`frontier+owned`, `frontier+arena`,
    /// `dense-block`).
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
/// volume is Θ(n²)) on which the dense-block backend is measured.
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

/// Times one run, in milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// A labelled row: one fixpoint run and its wall time in milliseconds.
type Row<'a, M> = (&'a str, (MbfRun<M>, f64));

/// Records a workload's timed fixpoint runs as case rows, after
/// cross-checking each run's states and hop count against the literal
/// reference: [`run`] over as many hops as the first row ran.
fn record<A>(
    graph_label: &str,
    g: &Graph,
    alg_label: &str,
    alg: &A,
    rows: Vec<Row<'_, A::M>>,
    out: &mut Vec<EngineCase>,
) where
    A: MbfAlgorithm,
    A::M: PartialEq + std::fmt::Debug,
{
    let hops = rows.first().map_or(0, |(_, (r, _))| r.iterations);
    let reference = run(alg, g, hops);
    for (label, (fixpoint, wall_ms)) in rows {
        assert_eq!(
            fixpoint.states, reference.states,
            "{graph_label}/{alg_label}: {label} diverged from the literal reference"
        );
        assert_eq!(
            fixpoint.iterations, hops,
            "{graph_label}/{alg_label}: {label}"
        );
        let max_list_len = fixpoint
            .states
            .iter()
            .map(|x| alg.state_size(x))
            .max()
            .unwrap_or(0);
        let total_len: usize = fixpoint.states.iter().map(|x| alg.state_size(x)).sum();
        out.push(EngineCase {
            graph: graph_label.to_string(),
            n: g.n(),
            m: g.m(),
            algorithm: alg_label.to_string(),
            strategy: label.to_string(),
            wall_ms,
            iterations: fixpoint.iterations,
            work: fixpoint.work,
            max_list_len,
            mean_list_len: total_len as f64 / g.n().max(1) as f64,
        });
    }
}

/// Runs the suite: SSSP and LE lists to fixpoint on every catalog graph
/// on both sparse storage backends, and APSP on the dense-block backend
/// over the dense catalog. For LE lists the plain `frontier` row times
/// the arena backend (the production path of `le_lists_direct`);
/// `…+owned` rows keep the owned backend in the trajectory. For SSSP
/// the plain rows stay owned (its production path) and `…+arena` rows
/// ride along.
pub fn engine_suite() -> Vec<EngineCase> {
    let mut cases = Vec::new();
    for (label, g) in engine_catalog() {
        let cap = g.n() + 1;
        let sssp = SourceDetection::sssp(g.n(), 0);
        let rows = vec![
            (
                "frontier",
                timed(|| run_to_fixpoint_on(OwnedBackend::new(), &sssp, &g, cap)),
            ),
            (
                "frontier+arena",
                timed(|| run_to_fixpoint_on(ArenaBackend::new(), &sssp, &g, cap)),
            ),
        ];
        record(&label, &g, "sssp", &sssp, rows, &mut cases);

        let mut rng = StdRng::seed_from_u64(0x1E11);
        let le = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
        let rows = vec![
            (
                "frontier",
                timed(|| run_to_fixpoint_on(ArenaBackend::new(), &le, &g, cap)),
            ),
            (
                "frontier+owned",
                timed(|| run_to_fixpoint_on(OwnedBackend::new(), &le, &g, cap)),
            ),
        ];
        record(&label, &g, "le_lists", &le, rows, &mut cases);
    }

    for (label, g) in dense_catalog() {
        let apsp = SourceDetection::apsp(g.n());
        let dense_block =
            timed(|| run_to_fixpoint_on(DenseBackend::new(None), &apsp, &g, g.n() + 1));
        record(
            &label,
            &g,
            "apsp",
            &apsp,
            vec![("dense-block", dense_block)],
            &mut cases,
        );
    }
    cases
}

/// Renders the suite as a table, with each row's relaxation ratio
/// against the literal reference over the same hops (`2m` relaxations
/// per hop) — the headline number of the frontier schedule.
pub fn engine_suite_table(cases: &[EngineCase]) -> Table {
    let mut t = Table::new(
        "Engine suite: frontier schedule, owned vs arena vs dense-block (fixpoint runs, states cross-checked)",
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
            "vs literal",
        ],
    );
    for case in cases {
        let literal_relax = (case.iterations * 2 * case.m) as f64;
        let ratio = literal_relax / case.work.edge_relaxations.max(1) as f64;
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

    /// A miniature suite run (small graph) exercising the measurement,
    /// table, and JSON paths end to end — both storage backends.
    #[test]
    fn mini_suite_measures_and_serializes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gnm_graph(40, 90, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let cap = g.n() + 1;
        let rows = vec![
            (
                "frontier",
                timed(|| run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, cap)),
            ),
            (
                "frontier+arena",
                timed(|| run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, cap)),
            ),
        ];
        let mut cases = Vec::new();
        record("mini", &g, "sssp", &alg, rows, &mut cases);
        assert_eq!(cases.len(), 2);
        let (frontier, arena) = (&cases[0], &cases[1]);
        assert_eq!(frontier.strategy, "frontier");
        assert!(
            (frontier.work.edge_relaxations as usize) < frontier.iterations * 2 * g.m(),
            "the frontier skip relaxes less than the literal sweep"
        );
        // The arena rows carry the storage counters the owned rows lack.
        assert_eq!(arena.strategy, "frontier+arena");
        assert!(arena.work.arena_bytes > 0);
        assert!(
            arena.work.edge_relaxations <= frontier.work.edge_relaxations,
            "identical schedule; arena may skip absorbed merges"
        );
        assert!(arena.work.bytes_copied < frontier.work.bytes_copied);

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
        assert!(table.contains("frontier+arena") && table.contains("vs literal"));
    }
}
