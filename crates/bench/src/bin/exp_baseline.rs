//! Experiment driver. See DESIGN.md §4 and EXPERIMENTS.md.
//!
//! Runs the Section 1.1 sampler comparison (E16), the engine suite
//! (the frontier schedule on the owned, arena and dense-block backends
//! over the standard catalog, states cross-checked against the literal
//! `engine::run`), the checkpoint-overhead suite (snapshot write/load
//! cost as a fraction of run wall time), and the thread-scaling sweep
//! (APSP on the owned and dense-block backends across
//! `MTE_THREADS`-style pool sizes {1, 2, 4, max}), and writes the
//! machine-readable `BENCH_engine.json` / `BENCH_parallel.json` pair
//! that tracks the engine's performance trajectory across PRs.

use mte_bench::checkpoint_suite::{
    checkpoint_suite, checkpoint_suite_table, with_checkpoint_section,
};
use mte_bench::engine_suite::{engine_suite, engine_suite_json, engine_suite_table};
use mte_bench::parallel_suite::{parallel_suite, parallel_suite_json, parallel_suite_table};

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

    let parallel_cases = parallel_suite();
    parallel_suite_table(&parallel_cases).print();

    let path = "BENCH_parallel.json";
    match std::fs::write(path, parallel_suite_json(&parallel_cases)) {
        Ok(()) => println!("wrote {path} ({} cases)", parallel_cases.len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
