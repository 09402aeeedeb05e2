//! Serving-layer experiment driver. See `docs/SERVING.md`.
//!
//! Freezes an oracle artifact per catalog graph and measures the query
//! side: point queries through the full answer ladder (admission →
//! tree LCA) on uniform and on Zipf(1) pairs, and batched
//! sweeps that fill one row per source over the artifact's leaf-DFS
//! vertex order, plus a hostile segment counting typed sheds and
//! recorded degradations. Writes the machine-readable
//! `BENCH_serving.json` trajectory artifact.

use mte_bench::serving_suite::{serving_suite, serving_suite_json, serving_suite_table};

fn main() {
    let cases = serving_suite();
    serving_suite_table(&cases).print();

    let path = "BENCH_serving.json";
    match std::fs::write(path, serving_suite_json(&cases)) {
        Ok(()) => println!("wrote {path} ({} cases)", cases.len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
