//! Pipeline benchmark: graph → (spanner) → hop set and `H` → oracle LE
//! lists → FRT tree → frozen artifact → served query.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload embed_highway --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `embed_highway`, `embed_dense_spanner`, `serve_zipf` (see
//! `perfbench/README.md`). With `--trace 0` the last line of standard
//! output is a JSON object with the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics instead, taken from a run that
//! records a span around every public call and writes the spans to
//! `perfbench/out/trace-<workload>.jsonl`. `--counters` prints only the deterministic
//! per-tree counters (used by the exact-counter gate in `tests/`).

mod embed;
mod serve;
mod stats;
mod trace;
mod workload;

use embed::{Built, EmbedPhase, Indexed};
use serve::{ServeOutcome, Served};
use stats::{mean, median, peak_rss_mb, CpuTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{self_times, Span, Tracer};
use workload::{Setup, Workload, ROUNDS};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    counters: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut counters = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--counters" => counters = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        counters,
    })
}

/// An ordered metric list rendered as the result's `metrics` object.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records a metric; a value that could not be measured (NaN) reads 0.
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--counters]");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let epoch = Instant::now();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        setup = Some(Setup::build(&w, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let trees = workload::tree_count(&w, args.seconds);
    let mut tracer = Tracer::new(epoch, 0, args.trace, usize::MAX);
    let (mut embed_phase, built) = EmbedPhase::first(&w, &setup, trees, &mut tracer);

    if args.counters {
        println!("{}", counters_json(&built));
        std::process::exit(if embed_phase.failed == 0 { 0 } else { 1 });
    }

    // Rounds interleave tree builds with serving, so that a slow spell of
    // a shared host hits a round rather than a phase; each timing is the
    // median of its per-round values.
    let served = Served::new(
        &setup,
        built.iter().map(|(_, b)| (&b.tree, b.bytes.as_slice())),
    );
    let serve_for = Duration::from_secs_f64(args.seconds * w.serve_share / ROUNDS as f64);
    let mut timings: Vec<[f64; 6]> = Vec::with_capacity(ROUNDS as usize);
    let mut serving = ServeOutcome::new();
    let run_start = CpuTimes::now();
    for round in 0..ROUNDS {
        let round_start = CpuTimes::now();
        let tree_s = if round == 0 {
            built.iter().map(|(_, b)| b.embed_s).collect()
        } else {
            embed_phase.repeat(&built, &w, &setup, &mut tracer)
        };
        let r = serve::run(
            &setup, &served, args.seed, round, serve_for, args.trace, epoch,
        );
        let t = [
            median(&tree_s) * 1e3,
            r.point_qps,
            r.latency_ns.quantile(0.50) / 1e3,
            r.latency_ns.quantile(0.99) / 1e3,
            r.sweep_answers as f64 / r.sweep_s.iter().sum::<f64>(),
            median(&r.load_s) * 1e3,
        ];
        eprintln!(
            "  round {round}: embed p50 {:.1} ms; point {:.0}/s p50 {:.3} us p99 {:.3} us; batch {:.3e}/s; reload {:.3} ms; steal {:.1}%",
            t[0], t[1], t[2], t[3], t[4], t[5],
            CpuTimes::now().steal_since(&round_start) * 100.0
        );
        timings.push(t);
        serving.merge(r);
    }
    // A round without a sweep or a reload has no value for it (NaN).
    let timings: [f64; 6] = std::array::from_fn(|i| {
        let values: Vec<f64> = timings
            .iter()
            .map(|t| t[i])
            .filter(|v| v.is_finite())
            .collect();
        median(&values)
    });

    let attempted = embed_phase.attempted + serving.attempted;
    let failed = embed_phase.failed + serving.failed;
    let (embed_spans, _) = tracer.into_parts();

    let metrics = if args.trace {
        let mut spans = embed_spans.clone();
        spans.append(&mut serving.spans);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", w.name));
        match trace::write_jsonl(&path, &mut spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {} ({} past the buffer cap not kept)",
                spans.len(),
                path.display(),
                serving.spans_dropped
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        let steal = CpuTimes::now().steal_since(&run_start);
        per_layer(&w, &built, &embed_spans, &serving, steal)
    } else {
        end_to_end(&built, timings, &setup_s)
    };

    eprintln!(
        "perfbench: workload {} seed {}: {} trees (+1 warm-up) x {} rounds, {:.1}s serving per round; nproc {} MTE_THREADS {}",
        w.name,
        args.seed,
        trees,
        ROUNDS,
        serve_for.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("MTE_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<28} {value:>16.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
}

fn counter_mean(built: &[Indexed], f: impl Fn(&Built) -> f64) -> f64 {
    mean(&built.iter().map(|(_, b)| f(b)).collect::<Vec<_>>())
}

/// `timings`: medians over rounds of the per-tree embed time (ms), point
/// qps, point p50 and p99 latency (µs), batch answers per second, and
/// reload time (ms).
fn end_to_end(built: &[Indexed], timings: [f64; 6], setup_s: &[f64]) -> Metrics {
    let [embed_ms, qps, p50, p99, batch, reload] = timings;
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put("embed_p50_ms", embed_ms, "ms");
    m.put(
        "work_entries",
        counter_mean(built, |b| b.counters.work.entries_processed as f64),
        "count",
    );
    m.put(
        "depth_rounds",
        counter_mean(built, |b| b.counters.depth_rounds as f64),
        "rounds",
    );
    m.put(
        "stretch_mean",
        counter_mean(built, |b| b.counters.stretch_mean),
        "ratio",
    );
    m.put("point_qps", qps, "1/s");
    m.put("point_p50_us", p50, "us");
    m.put("point_p99_us", p99, "us");
    m.put("batch_answers_per_s", batch, "1/s");
    m.put("reload_p50_ms", reload, "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// Per tree (root `embed` span): self time of each stage, in ns.
fn stage_self_times(spans: &[Span]) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
    let self_ns = self_times(spans);
    let mut per_tree: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> = spans
        .iter()
        .filter(|s| s.name == "embed")
        .map(|s| (s.id, (s.duration_ns(), BTreeMap::new())))
        .collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some((_, stages)) = per_tree.get_mut(&s.parent) {
            *stages.entry(s.name).or_default() += self_ns[&s.id];
        }
    }
    per_tree.into_values().collect()
}

fn per_layer(
    w: &Workload,
    built: &[Indexed],
    embed_spans: &[Span],
    serving: &ServeOutcome,
    steal: f64,
) -> Metrics {
    // The warm-up tree's spans are recorded but not reported.
    let warmup_key = 0;
    let timed: Vec<Span> = embed_spans
        .iter()
        .copied()
        .filter(|s| s.key != warmup_key)
        .collect();
    let trees = stage_self_times(&timed);
    let stage_ms = |name: &str| {
        median(
            &trees
                .iter()
                .filter_map(|(_, st)| st.get(name).map(|&ns| ns as f64 / 1e6))
                .collect::<Vec<_>>(),
        )
    };
    let share = |names: &[&str]| {
        median(
            &trees
                .iter()
                .map(|(total, st)| {
                    names.iter().filter_map(|n| st.get(n)).sum::<u64>() as f64 / *total as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let c = |f: fn(&Built) -> f64| counter_mean(built, f);
    let oracle = matches!(w.le, workload::LeStage::Oracle { .. });
    let if_oracle = |v: f64| if oracle { v } else { 0.0 };

    let mut m = Metrics::default();
    m.put("spanner.busy_ms", stage_ms("spanner"), "ms");
    m.put(
        "spanner.edges_kept_ratio",
        c(|b| b.counters.spanner_kept_ratio),
        "ratio",
    );
    m.put("simgraph.busy_ms", stage_ms("simgraph"), "ms");
    m.put(
        "simgraph.shortcut_edges",
        c(|b| b.counters.shortcut_edges as f64),
        "count",
    );
    m.put(
        "simgraph.hop_budget_d",
        c(|b| b.counters.hop_budget_d as f64),
        "hops",
    );
    m.put("simgraph.lambda", c(|b| b.counters.lambda as f64), "levels");
    m.put("graph.share", share(&["spanner", "simgraph"]), "ratio");
    m.put("oracle.busy_ms", stage_ms("oracle"), "ms");
    m.put("oracle.share", share(&["oracle"]), "ratio");
    m.put(
        "oracle.h_iterations",
        if_oracle(c(|b| b.counters.iterations as f64)),
        "count",
    );
    let work = |f: fn(&Built) -> f64| if_oracle(c(f));
    m.put(
        "oracle.entries_processed",
        work(|b| b.counters.work.entries_processed as f64),
        "count",
    );
    m.put(
        "oracle.edge_relaxations",
        work(|b| b.counters.work.edge_relaxations as f64),
        "count",
    );
    m.put(
        "oracle.touched_vertices",
        work(|b| b.counters.work.touched_vertices as f64),
        "count",
    );
    m.put(
        "oracle.bytes_copied",
        work(|b| b.counters.work.bytes_copied as f64),
        "bytes",
    );
    m.put(
        "oracle.alloc_count",
        work(|b| b.counters.work.alloc_count as f64),
        "count",
    );
    m.put(
        "oracle.arena_bytes",
        work(|b| b.counters.work.arena_bytes as f64),
        "bytes",
    );
    let entries: u64 = built
        .iter()
        .map(|(_, b)| b.counters.work.entries_processed)
        .sum();
    let listed: u64 = built.iter().map(|(_, b)| b.counters.list_entries).sum();
    m.put(
        "oracle.list_yield",
        if_oracle(listed as f64 / entries as f64),
        "ratio",
    );
    m.put("le_direct.busy_ms", stage_ms("le_direct"), "ms");
    m.put("tree.busy_ms", stage_ms("tree"), "ms");
    m.put("tree.nodes", c(|b| b.counters.tree_nodes as f64), "count");
    m.put("tree.levels", c(|b| b.counters.tree_levels as f64), "count");
    m.put("artifact.freeze_ms", stage_ms("artifact.freeze"), "ms");
    m.put("artifact.encode_ms", stage_ms("artifact.encode"), "ms");
    m.put(
        "artifact.bytes",
        c(|b| b.counters.artifact_bytes as f64),
        "bytes",
    );

    m.put("load.busy_ms", median(&serving.load_s) * 1e3, "ms");
    m.put(
        "load.mb_per_s",
        serving.load_bytes as f64 / 1e6 / serving.load_s.iter().sum::<f64>(),
        "MB/s",
    );
    let answers: u64 = serving.rungs.iter().sum();
    m.put(
        "point.cache_hit_ratio",
        serving.rungs[0] as f64 / answers as f64,
        "ratio",
    );
    m.put("point.rung_cache", serving.rungs[0] as f64, "count");
    m.put("point.rung_tree_lca", serving.rungs[1] as f64, "count");
    m.put("point.rung_intersection", serving.rungs[2] as f64, "count");
    m.put("point.rung_truncated", serving.rungs[3] as f64, "count");
    m.put("point.work_p50", serving.work.quantile(0.50), "units");
    m.put("point.work_p99", serving.work.quantile(0.99), "units");
    m.put("point.shed", serving.shed as f64, "count");
    m.put("point.errors", serving.errors as f64, "count");
    m.put("batch.busy_ms", median(&serving.sweep_s) * 1e3, "ms");
    m.put("batch.work_units", median(&serving.sweep_work), "units");
    m.put("batch.sweeps", serving.sweep_s.len() as f64, "count");

    let coverage = median(
        &trees
            .iter()
            .map(|(total, st)| st.values().sum::<u64>() as f64 / *total as f64)
            .collect::<Vec<_>>(),
    );
    m.put("trace.tree_coverage", coverage, "ratio");
    m.put("trace.overhead_pct", serving.trace_overhead_pct(), "%");
    m.put("host.steal_pct", steal * 100.0, "%");
    m
}

/// The deterministic per-tree outputs, one JSON object per tree.
fn counters_json(built: &[Indexed]) -> String {
    let mut out = String::from("{\"trees\": [");
    for (i, (_, b)) in built.iter().enumerate() {
        let c = &b.counters;
        let w = &c.work;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"spanner_kept_ratio\": {}, \"shortcut_edges\": {}, \"hop_budget_d\": {}, \
             \"lambda\": {}, \"iterations\": {}, \"depth_rounds\": {}, \"entries_processed\": {}, \
             \"edge_relaxations\": {}, \"touched_vertices\": {}, \"bytes_copied\": {}, \
             \"alloc_count\": {}, \"arena_bytes\": {}, \"list_entries\": {}, \"tree_nodes\": {}, \
             \"tree_levels\": {}, \"artifact_bytes\": {}, \"stretch_mean\": {}}}",
            c.spanner_kept_ratio,
            c.shortcut_edges,
            c.hop_budget_d,
            c.lambda,
            c.iterations,
            c.depth_rounds,
            w.entries_processed,
            w.edge_relaxations,
            w.touched_vertices,
            w.bytes_copied,
            w.alloc_count,
            w.arena_bytes,
            c.list_entries,
            c.tree_nodes,
            c.tree_levels,
            c.artifact_bytes,
            c.stretch_mean,
        );
    }
    out.push_str("]}");
    out
}
