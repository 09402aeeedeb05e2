//! Experiment driver. See docs/DESIGN.md §4.
//!
//! Runs the Section 1.1 sampler comparison (E16), the engine suite
//! (the frontier schedule on the arena and dense-block backends
//! over the standard catalog, states cross-checked against the literal
//! `engine::run`) and the checkpoint-overhead suite (snapshot write/load
//! cost as a fraction of run wall time), and writes the
//! machine-readable `BENCH_engine.json` whose counters CI gates.

use mte_bench::checkpoint_suite::{
    checkpoint_suite, checkpoint_suite_table, with_checkpoint_section,
};
use mte_bench::engine_suite::{engine_suite, engine_suite_json, engine_suite_table};

fn main() {
    mte_bench::suite::exp_baseline().print();

    let cases = engine_suite();
    engine_suite_table(&cases).print();

    let checkpoint_cases = checkpoint_suite();
    checkpoint_suite_table(&checkpoint_cases).print();

    let path = "BENCH_engine.json";
    let json = with_checkpoint_section(&engine_suite_json(&cases), &checkpoint_cases);
    match std::fs::write(path, json) {
        Ok(()) => println!(
            "wrote {path} ({} engine + {} checkpoint cases)",
            cases.len(),
            checkpoint_cases.len()
        ),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
