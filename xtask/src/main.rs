//! `cargo xtask analyze` — the project lint pass. See `docs/ANALYSIS.md`
//! and the crate docs in `lib.rs` for the rule families.

use std::path::{Path, PathBuf};

use xtask::lexer::{self, Scan};
use xtask::rules::{self, Finding};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => std::process::exit(analyze()),
        _ => {
            eprintln!("usage: cargo xtask analyze");
            std::process::exit(2);
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives directly under the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

/// Directories never scanned (build output, VCS, lint fixtures — the
/// fixtures *intentionally* violate every rule).
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel.ends_with("/target")
        || rel.starts_with('.')
        || rel.contains("/.")
        || rel == "xtask/tests/fixtures"
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(read) => read.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => return,
    };
    // Deterministic walk order — the pass practices what it preaches.
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if !skip_dir(&rel) {
                collect_rs(root, &path, out);
            }
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn load_relaxed_allowlist(root: &Path) -> Vec<String> {
    std::fs::read_to_string(root.join("xtask/relaxed-allowlist.txt"))
        .unwrap_or_default()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// Member crate manifests that must opt into the shared lint policy.
fn member_manifests(root: &Path) -> Vec<String> {
    let mut out = vec!["Cargo.toml".to_owned()];
    for dir in ["crates", "crates/shims"] {
        let Ok(read) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        let mut entries: Vec<_> = read.filter_map(Result::ok).map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.join("Cargo.toml").is_file() {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(format!("{rel}/Cargo.toml"));
            }
        }
    }
    out.push("xtask/Cargo.toml".to_owned());
    out.retain(|m| m != "crates/shims/Cargo.toml"); // not a crate
    out
}

fn analyze() -> i32 {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs(&root, &root, &mut files);

    let scans: Vec<(String, Scan)> = files
        .iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(path).ok()?;
            Some((rel, lexer::scan(&src)))
        })
        .collect();

    let relaxed_allowlist = load_relaxed_allowlist(&root);
    let mut findings: Vec<Finding> = Vec::new();

    // Per-file rules.
    for (rel, scan) in &scans {
        rules::nondet_iter::check(rel, scan, &mut findings);
        rules::unsafe_safety::check(rel, scan, &mut findings);
        rules::hygiene::check(rel, scan, &relaxed_allowlist, &mut findings);
        rules::atomic_write::check(rel, scan, &mut findings);
        rules::serving::check(rel, scan, &mut findings);
    }

    // Fault registry: parse the shared name tables, then validate specs
    // per file and reference coverage globally.
    const FAULTS: &str = "crates/faults/src/lib.rs";
    match scans.iter().find(|(rel, _)| rel == FAULTS) {
        Some((_, faults_scan)) => {
            let reg = rules::fault_registry::load(faults_scan);
            rules::fault_registry::check_registry(&reg, FAULTS, &mut findings);
            for (rel, scan) in &scans {
                rules::fault_registry::check_specs(&reg, rel, scan, &mut findings);
            }
            rules::fault_registry::check_dead_sites(&reg, &scans, FAULTS, &mut findings);
        }
        None => findings.push(Finding::new(
            rules::fault_registry::RULE,
            FAULTS,
            0,
            "fault registry source not found".to_owned(),
        )),
    }

    rules::dead_pub::check(&scans, &mut findings);
    rules::unsafe_safety::check_manifests(&root, &member_manifests(&root), &mut findings);
    rules::hygiene::check_allowlist(&relaxed_allowlist, &scans, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    for finding in &findings {
        eprintln!("{finding}");
    }
    if findings.is_empty() {
        println!("analyze: {} files checked, 0 findings", scans.len());
        0
    } else {
        eprintln!(
            "analyze: {} files checked, {} finding(s)",
            scans.len(),
            findings.len()
        );
        1
    }
}
