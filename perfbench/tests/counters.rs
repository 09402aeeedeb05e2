//! Exact-counter gate: for a fixed seed, every deterministic output of the
//! benchmark — work, depth and stretch, and the oracle, simgraph,
//! spanner, tree and artifact counters of every tree — repeats bit for bit
//! across runs and across `MTE_THREADS` 1 and 2.
//!
//! Builds full-size trees; run it optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn counters(workload: &str, threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", "0", "--counters"])
        .env("MTE_THREADS", threads)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a counters line").to_string()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds full-size trees; run with --release"
)]
fn deterministic_counters_repeat_across_runs_and_thread_counts() {
    for workload in ["embed_highway", "embed_dense_spanner", "serve_zipf"] {
        let first = counters(workload, "2");
        assert!(first.contains("\"entries_processed\""), "{first}");
        assert_eq!(
            first,
            counters(workload, "2"),
            "{workload}: two runs differ"
        );
        assert_eq!(
            first,
            counters(workload, "1"),
            "{workload}: MTE_THREADS 1 and 2 differ"
        );
    }
}
