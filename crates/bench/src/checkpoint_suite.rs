//! Checkpoint overhead suite: what does durability cost?
//!
//! For each workload the suite times the uninterrupted fixpoint run,
//! the same run with periodic checkpoint capture through the crash-safe
//! snapshot encoder, and a resume from a mid-run snapshot — recording
//! the snapshot size and the fraction of the checkpointed run's wall
//! time spent encoding. The rows ride along in `BENCH_engine.json`
//! (`"checkpoint"` section) so the durability tax is part of the
//! tracked performance trajectory. States are cross-checked against the
//! uninterrupted run before any number is recorded: a benchmark of a
//! recovery path that loses data is worthless.

use crate::engine_suite::json_escape;
use crate::tables::{f, Table};
use mte_core::arena::{ArenaBackend, ArenaMbfAlgorithm};
use mte_core::catalog::SourceDetection;
use mte_core::engine::{MbfAlgorithm, OwnedBackend};
use mte_core::frt::le_list::{LeListAlgorithm, Ranks};
use mte_core::run::{run_to_fixpoint_on, try_resume_on, try_run_on, CheckpointPolicy};
use mte_graph::generators::{gnm_graph, grid_graph};
use mte_graph::Graph;
use mte_persist::{SnapshotReader, SnapshotWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One measured workload: plain run vs checkpointed run vs resume.
#[derive(Clone, Debug)]
pub struct CheckpointCase {
    /// Graph family label.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// Algorithm + backend label.
    pub algorithm: String,
    /// Wall time of the uninterrupted run, in milliseconds.
    pub run_wall_ms: f64,
    /// Wall time of the run with checkpoint capture, in milliseconds.
    pub checkpointed_wall_ms: f64,
    /// Number of checkpoints captured.
    pub checkpoints: usize,
    /// Encoded size of the last (largest-state) snapshot, in bytes.
    pub snapshot_bytes: usize,
    /// Total time spent encoding snapshots, in milliseconds.
    pub encode_ms: f64,
    /// Time to decode the mid-run snapshot back, in milliseconds.
    pub decode_ms: f64,
    /// Wall time of the resume from the mid-run snapshot, in
    /// milliseconds.
    pub resume_wall_ms: f64,
    /// `encode_ms / checkpointed_wall_ms` — the durability tax.
    pub write_fraction: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Capture cadence: ~8 snapshots per run, at least one per hop.
fn cadence(iterations: usize) -> u64 {
    ((iterations as u64) / 8).max(1)
}

/// The owned-backend measurement (SSSP-class workloads).
fn measure_owned<A>(graph_label: &str, g: &Graph, alg_label: &str, alg: &A) -> CheckpointCase
where
    A: MbfAlgorithm<M = mte_algebra::DistanceMap>,
{
    let cap = g.n() + 1;
    let t0 = Instant::now();
    let reference = run_to_fixpoint_on(OwnedBackend::new(), alg, g, cap);
    let run_wall_ms = ms(t0);

    let policy = CheckpointPolicy::every_hops(cadence(reference.iterations));
    let mut encode_ms = 0.0;
    let mut images: Vec<Vec<u8>> = Vec::new();
    let t0 = Instant::now();
    let (run, _) = try_run_on(OwnedBackend::new(), alg, g, cap, policy, |c| {
        let te = Instant::now();
        let image = SnapshotWriter::new().put_checkpoint(c).encode();
        encode_ms += ms(te);
        images.push(image);
        Ok(())
    })
    .expect("clean checkpointed run cannot fail");
    let checkpointed_wall_ms = ms(t0);
    assert_eq!(run.states, reference.states, "{graph_label}/{alg_label}");
    assert!(!images.is_empty(), "run too short to checkpoint");

    let mid = &images[images.len() / 2];
    let td = Instant::now();
    let ckpt = SnapshotReader::decode(mid)
        .expect("own snapshot decodes")
        .checkpoint()
        .expect("checkpoint section present");
    let decode_ms = ms(td);
    let tr = Instant::now();
    let (resumed, _) = try_resume_on(OwnedBackend::new(), alg, g, cap, &ckpt)
        .expect("resume from own snapshot cannot fail");
    let resume_wall_ms = ms(tr);
    assert_eq!(
        resumed.states, reference.states,
        "{graph_label}/{alg_label}"
    );

    CheckpointCase {
        graph: graph_label.to_string(),
        n: g.n(),
        m: g.m(),
        algorithm: alg_label.to_string(),
        run_wall_ms,
        checkpointed_wall_ms,
        checkpoints: images.len(),
        snapshot_bytes: images.last().map(Vec::len).unwrap_or(0),
        encode_ms,
        decode_ms,
        resume_wall_ms,
        write_fraction: encode_ms / checkpointed_wall_ms.max(f64::MIN_POSITIVE),
    }
}

/// The arena-backend measurement (LE lists' production path).
fn measure_arena<A>(graph_label: &str, g: &Graph, alg_label: &str, alg: &A) -> CheckpointCase
where
    A: ArenaMbfAlgorithm,
{
    let cap = g.n() + 1;
    let t0 = Instant::now();
    let reference = run_to_fixpoint_on(ArenaBackend::new(), alg, g, cap);
    let run_wall_ms = ms(t0);

    let policy = CheckpointPolicy::every_hops(cadence(reference.iterations));
    let mut encode_ms = 0.0;
    let mut images: Vec<Vec<u8>> = Vec::new();
    let t0 = Instant::now();
    let (run, _) = try_run_on(ArenaBackend::new(), alg, g, cap, policy, |c| {
        let te = Instant::now();
        let image = SnapshotWriter::new().put_checkpoint(c).encode();
        encode_ms += ms(te);
        images.push(image);
        Ok(())
    })
    .expect("clean checkpointed run cannot fail");
    let checkpointed_wall_ms = ms(t0);
    assert_eq!(run.states, reference.states, "{graph_label}/{alg_label}");
    assert!(!images.is_empty(), "run too short to checkpoint");

    let mid = &images[images.len() / 2];
    let td = Instant::now();
    let ckpt = SnapshotReader::decode(mid)
        .expect("own snapshot decodes")
        .checkpoint()
        .expect("checkpoint section present");
    let decode_ms = ms(td);
    let tr = Instant::now();
    let (resumed, _) = try_resume_on(ArenaBackend::new(), alg, g, cap, &ckpt)
        .expect("resume from own snapshot cannot fail");
    let resume_wall_ms = ms(tr);
    assert_eq!(
        resumed.states, reference.states,
        "{graph_label}/{alg_label}"
    );

    CheckpointCase {
        graph: graph_label.to_string(),
        n: g.n(),
        m: g.m(),
        algorithm: alg_label.to_string(),
        run_wall_ms,
        checkpointed_wall_ms,
        checkpoints: images.len(),
        snapshot_bytes: images.last().map(Vec::len).unwrap_or(0),
        encode_ms,
        decode_ms,
        resume_wall_ms,
        write_fraction: encode_ms / checkpointed_wall_ms.max(f64::MIN_POSITIVE),
    }
}

/// The checkpoint catalog: one sparse-convergence graph and one grid,
/// sized so the whole suite stays a small fraction of `exp_baseline`.
fn checkpoint_catalog() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xC4E5);
    vec![
        (
            "gnm n=1000 m=3000".into(),
            gnm_graph(1000, 3000, 1.0..50.0, &mut rng),
        ),
        ("grid 30x30".into(), grid_graph(30, 30, 1.0..5.0, &mut rng)),
    ]
}

/// Runs the suite: SSSP (owned backend) and LE lists (arena backend)
/// with periodic snapshot capture and a mid-run resume.
pub fn checkpoint_suite() -> Vec<CheckpointCase> {
    let mut cases = Vec::new();
    for (label, g) in checkpoint_catalog() {
        let sssp = SourceDetection::sssp(g.n(), 0);
        cases.push(measure_owned(&label, &g, "sssp", &sssp));
        let mut rng = StdRng::seed_from_u64(0xC4E6);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le = LeListAlgorithm::new(ranks);
        cases.push(measure_arena(&label, &g, "le_lists+arena", &le));
    }
    cases
}

/// Renders the suite as a table.
pub fn checkpoint_suite_table(cases: &[CheckpointCase]) -> Table {
    let mut t = Table::new(
        "Checkpoint overhead: run vs checkpointed run vs resume (states cross-checked)",
        &[
            "graph",
            "algorithm",
            "run ms",
            "ckpt ms",
            "ckpts",
            "snap KiB",
            "enc ms",
            "dec ms",
            "resume ms",
            "write frac",
        ],
    );
    for c in cases {
        t.push(vec![
            c.graph.clone(),
            c.algorithm.clone(),
            f(c.run_wall_ms, 1),
            f(c.checkpointed_wall_ms, 1),
            c.checkpoints.to_string(),
            f(c.snapshot_bytes as f64 / 1024.0, 1),
            f(c.encode_ms, 2),
            f(c.decode_ms, 2),
            f(c.resume_wall_ms, 1),
            format!("{:.1}%", c.write_fraction * 100.0),
        ]);
    }
    t
}

/// The `"checkpoint"` JSON array (rows only, no enclosing object).
pub fn checkpoint_suite_json_rows(cases: &[CheckpointCase]) -> String {
    let mut out = String::new();
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, \"algorithm\": \"{}\", ",
                "\"run_wall_ms\": {:.3}, \"checkpointed_wall_ms\": {:.3}, ",
                "\"checkpoints\": {}, \"snapshot_bytes\": {}, ",
                "\"encode_ms\": {:.3}, \"decode_ms\": {:.3}, \"resume_wall_ms\": {:.3}, ",
                "\"write_fraction\": {:.4}}}{}\n"
            ),
            json_escape(&c.graph),
            c.n,
            c.m,
            json_escape(&c.algorithm),
            c.run_wall_ms,
            c.checkpointed_wall_ms,
            c.checkpoints,
            c.snapshot_bytes,
            c.encode_ms,
            c.decode_ms,
            c.resume_wall_ms,
            c.write_fraction,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out
}

/// Splices the checkpoint section into an `engine_suite_json` document:
/// `{"suite": "engine", "cases": […], "checkpoint": […]}`.
pub fn with_checkpoint_section(engine_json: &str, cases: &[CheckpointCase]) -> String {
    let trimmed = engine_json
        .strip_suffix("}\n")
        .expect("engine_suite_json ends with its enclosing brace");
    let trimmed = trimmed
        .strip_suffix("  ]\n")
        .expect("engine_suite_json closes its cases array");
    let mut out = trimmed.to_owned();
    out.push_str("  ],\n  \"checkpoint\": [\n");
    out.push_str(&checkpoint_suite_json_rows(cases));
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature suite run exercising both backends, the table, and
    /// the JSON splice end to end.
    #[test]
    fn mini_checkpoint_suite_measures_and_serializes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gnm_graph(60, 140, 1.0..9.0, &mut rng);
        let sssp = SourceDetection::sssp(g.n(), 0);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le = LeListAlgorithm::new(ranks);
        let cases = vec![
            measure_owned("mini", &g, "sssp", &sssp),
            measure_arena("mini", &g, "le_lists+arena", &le),
        ];
        for c in &cases {
            assert!(c.checkpoints > 0);
            assert!(c.snapshot_bytes > 0);
            assert!((0.0..=1.0).contains(&c.write_fraction));
        }

        let engine_json = "{\n  \"suite\": \"engine\",\n  \"cases\": [\n  ]\n}\n";
        let json = with_checkpoint_section(engine_json, &cases);
        assert!(json.contains("\"checkpoint\": ["));
        assert_eq!(json.matches("\"snapshot_bytes\"").count(), cases.len());
        assert_eq!(json.matches("\"write_fraction\"").count(), cases.len());
        assert!(json.trim_end().ends_with('}'));

        let table = checkpoint_suite_table(&cases).render();
        assert!(table.contains("sssp") && table.contains("le_lists+arena"));
    }
}
