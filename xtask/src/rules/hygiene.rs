//! Rule family 4: **determinism hygiene**.
//!
//! Engine/oracle/kernel code must not read wall clocks, spawn ad-hoc
//! threads, draw non-shim randomness, or read environment variables:
//! all four smuggle run-to-run-varying inputs into computations whose
//! outputs the test suite pins bit-for-bit. Threading goes through the
//! pool shim (`rayon`), randomness through the seeded `rand` shim,
//! timing belongs in `crates/bench` / the criterion shim only, and
//! engine options enter through constructors (the pool size and the
//! fault plan are read by the shim and `mte_faults`, outside this
//! scope).
//!
//! `Ordering::Relaxed` is flagged *workspace-wide* unless the file is
//! listed in `xtask/relaxed-allowlist.txt`: relaxed atomics are fine for
//! monotonic flags and claim counters whose protocols have been argued
//! through (pool chunk claiming, fault-arming status), but each new use
//! should force that argument, not inherit it silently.

use super::Finding;
use crate::lexer::{has_word, waived, Scan};

pub const RULE: &str = "hygiene";

/// Crates holding engine/oracle/kernel code (scope of the wall-clock /
/// threading / randomness bans). `crates/bench` and the criterion shim
/// are deliberately outside: timing is their job.
const ENGINE_SCOPE: [&str; 5] = [
    "crates/core/",
    "crates/algebra/",
    "crates/graph/",
    "crates/congest/",
    "crates/serving/",
];

const BANNED: [(&str, &str); 8] = [
    (
        "thread::spawn",
        "ad-hoc threads bypass the pool shim's deterministic chunking",
    ),
    (
        "Instant::now",
        "wall-clock reads belong in crates/bench, not engine code",
    ),
    (
        "SystemTime",
        "wall-clock reads belong in crates/bench, not engine code",
    ),
    (
        "thread_rng",
        "non-shim randomness: use the seeded generators from the rand shim",
    ),
    (
        "from_entropy",
        "non-shim randomness: use the seeded generators from the rand shim",
    ),
    (
        "rand::random",
        "non-shim randomness: use the seeded generators from the rand shim",
    ),
    (
        "env::var",
        "engine options enter through constructors, not the environment",
    ),
    (
        "env::var_os",
        "engine options enter through constructors, not the environment",
    ),
];

fn in_engine_scope(path: &str) -> bool {
    ENGINE_SCOPE.iter().any(|prefix| path.starts_with(prefix))
}

pub fn check(path: &str, scan: &Scan, relaxed_allowlist: &[String], out: &mut Vec<Finding>) {
    if in_engine_scope(path) {
        for (idx, code) in scan.code.iter().enumerate() {
            for (needle, why) in BANNED {
                if has_word(code, needle) && !waived(scan, idx, "hygiene") {
                    out.push(Finding::new(
                        RULE,
                        path,
                        idx,
                        format!("`{needle}` in engine/oracle/kernel code: {why}"),
                    ));
                }
            }
        }
    }
    if !relaxed_allowlist.iter().any(|allowed| allowed == path) {
        for (idx, code) in scan.code.iter().enumerate() {
            if has_word(code, "Ordering::Relaxed") {
                out.push(Finding::new(
                    RULE,
                    path,
                    idx,
                    "`Ordering::Relaxed` outside the allowlist \
                     (xtask/relaxed-allowlist.txt): argue the protocol and add \
                     the file, or use Acquire/Release"
                        .to_owned(),
                ));
            }
        }
    }
}

/// Allowlist hygiene: entries must name files that exist and still use
/// relaxed atomics — stale entries would quietly widen the waiver.
pub fn check_allowlist(
    relaxed_allowlist: &[String],
    scans: &[(String, Scan)],
    out: &mut Vec<Finding>,
) {
    for allowed in relaxed_allowlist {
        match scans.iter().find(|(path, _)| path == allowed) {
            None => out.push(Finding::new(
                RULE,
                "xtask/relaxed-allowlist.txt",
                0,
                format!("allowlist entry `{allowed}` matches no scanned file"),
            )),
            Some((_, scan)) => {
                if !scan.code.iter().any(|c| has_word(c, "Ordering::Relaxed")) {
                    out.push(Finding::new(
                        RULE,
                        "xtask/relaxed-allowlist.txt",
                        0,
                        format!(
                            "stale allowlist entry: `{allowed}` no longer uses \
                             `Ordering::Relaxed`"
                        ),
                    ));
                }
            }
        }
    }
}
