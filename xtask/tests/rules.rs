//! Fixture-based self-tests for the analyze rules: each rule family must
//! fire on its bad fixture and stay silent on the good/waived one.

use std::path::Path;

use xtask::lexer::{self, Scan};
use xtask::rules::{
    atomic_write, fault_registry, hygiene, nondet_iter, serving, shard_isolation, unsafe_safety,
    Finding,
};

fn fixture(name: &str) -> Scan {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lexer::scan(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("reading fixture {}: {e}", path.display());
    }))
}

/// Fixtures are checked as-if they lived in a determinism-critical crate.
const AS_IF: &str = "crates/core/src/fixture.rs";

#[test]
fn nondet_iteration_fires_on_bad_fixture() {
    let scan = fixture("nondet_iter_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    nondet_iter::check(AS_IF, &scan, &mut findings);
    // use-import, aliased import, `let counts`, `Seen::new`, `.keys()`.
    assert!(
        findings.len() >= 4,
        "expected ≥4 findings, got: {findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.msg.contains("HashMap") || f.msg.contains("HashSet")));
}

#[test]
fn nondet_iteration_respects_waivers() {
    let scan = fixture("nondet_iter_waived.rs");
    let mut findings: Vec<Finding> = Vec::new();
    nondet_iter::check(AS_IF, &scan, &mut findings);
    assert!(findings.is_empty(), "waived fixture tripped: {findings:?}");
}

#[test]
fn nondet_iteration_catches_iteration_of_waived_binding() {
    let scan = fixture("nondet_iter_waived_binding_iterated.rs");
    let mut findings: Vec<Finding> = Vec::new();
    nondet_iter::check(AS_IF, &scan, &mut findings);
    assert_eq!(
        findings.len(),
        1,
        "exactly the iteration site should trip: {findings:?}"
    );
    assert!(findings[0].msg.contains("counts"));
}

#[test]
fn nondet_iteration_scoped_to_det_critical_crates() {
    let scan = fixture("nondet_iter_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    nondet_iter::check("crates/bench/src/fixture.rs", &scan, &mut findings);
    assert!(findings.is_empty(), "bench is out of scope: {findings:?}");
}

#[test]
fn unsafe_safety_fires_on_bad_fixture() {
    let scan = fixture("unsafe_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    unsafe_safety::check(AS_IF, &scan, &mut findings);
    // `unsafe impl`, `unsafe fn` without # Safety, two bare blocks.
    assert_eq!(findings.len(), 4, "got: {findings:?}");
}

#[test]
fn unsafe_safety_accepts_documented_forms() {
    let scan = fixture("unsafe_good.rs");
    let mut findings: Vec<Finding> = Vec::new();
    unsafe_safety::check(AS_IF, &scan, &mut findings);
    assert!(findings.is_empty(), "good fixture tripped: {findings:?}");
}

fn toy_registry() -> fault_registry::Registry {
    let src = r#"
pub enum FaultSite {
    EngineHopCommit,
    GrParser,
}
pub enum FaultKind {
    Panic,
    Io,
}
pub const SITE_NAMES: [(FaultSite, &str); 2] = [
    (FaultSite::EngineHopCommit, "engine_hop_commit"),
    (FaultSite::GrParser, "gr_parser"),
];
pub const KIND_NAMES: [(FaultKind, &str); 2] = [
    (FaultKind::Panic, "panic"),
    (FaultKind::Io, "io"),
];
"#;
    fault_registry::load(&lexer::scan(src))
}

#[test]
fn fault_registry_parses_tables_and_variants() {
    let reg = toy_registry();
    assert_eq!(reg.site_variants, vec!["EngineHopCommit", "GrParser"]);
    assert_eq!(reg.kind_variants, vec!["Panic", "Io"]);
    assert_eq!(reg.sites[0].1, "engine_hop_commit");
    assert_eq!(reg.kinds[1].1, "io");
    let mut findings: Vec<Finding> = Vec::new();
    fault_registry::check_registry(&reg, "toy.rs", &mut findings);
    assert!(
        findings.is_empty(),
        "consistent registry tripped: {findings:?}"
    );
}

#[test]
fn fault_registry_flags_missing_table_row() {
    let mut reg = toy_registry();
    reg.sites.pop();
    let mut findings: Vec<Finding> = Vec::new();
    fault_registry::check_registry(&reg, "toy.rs", &mut findings);
    assert!(
        findings.iter().any(|f| f.msg.contains("GrParser")),
        "got: {findings:?}"
    );
}

#[test]
fn fault_registry_fires_on_bad_specs_and_respects_waiver() {
    let reg = toy_registry();
    let scan = fixture("fault_spec_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    fault_registry::check_specs(&reg, AS_IF, &scan, &mut findings);
    // Unknown site `no_such_site`, unknown kind `panik`; the waived
    // literal stays silent.
    assert_eq!(findings.len(), 2, "got: {findings:?}");
    assert!(findings.iter().any(|f| f.msg.contains("no_such_site")));
    assert!(findings.iter().any(|f| f.msg.contains("panik")));
}

#[test]
fn fault_registry_flags_dead_sites() {
    let reg = toy_registry();
    // Only gr_parser referenced anywhere outside the registry.
    let user = lexer::scan("fn f() { trigger(FaultSite::GrParser); }\n");
    let scans = vec![("crates/core/src/user.rs".to_owned(), user)];
    let mut findings: Vec<Finding> = Vec::new();
    fault_registry::check_dead_sites(&reg, &scans, "toy.rs", &mut findings);
    assert_eq!(findings.len(), 1, "got: {findings:?}");
    assert!(findings[0].msg.contains("engine_hop_commit"));
}

#[test]
fn plan_spec_shape_detection() {
    // analyze: fault-spec-ok(shape-detection test data)
    assert!(fault_registry::looks_like_plan_spec("a_site:panic:0"));
    assert!(fault_registry::looks_like_plan_spec(
        "engine_hop_commit:panic:1;gr_parser:io:2:3"
    ));
    assert!(!fault_registry::looks_like_plan_spec("a plain sentence"));
    assert!(!fault_registry::looks_like_plan_spec("key:value"));
    assert!(!fault_registry::looks_like_plan_spec("a:b:c"));
}

#[test]
fn hygiene_fires_on_bad_fixture() {
    let scan = fixture("hygiene_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    hygiene::check(AS_IF, &scan, &[], &mut findings);
    let relaxed = findings
        .iter()
        .filter(|f| f.msg.contains("Ordering::Relaxed"))
        .count();
    assert_eq!(relaxed, 2, "both Relaxed uses flagged: {findings:?}");
    for needle in [
        "Instant::now",
        "SystemTime",
        "thread::spawn",
        "thread_rng",
        "env::var",
        "env::var_os",
    ] {
        assert!(
            findings
                .iter()
                .any(|f| f.msg.contains(&format!("`{needle}`"))),
            "missing `{needle}` finding in: {findings:?}"
        );
    }
}

#[test]
fn hygiene_allowlist_and_scope() {
    let scan = fixture("hygiene_bad.rs");
    // Allowlisted file: Relaxed is fine; engine bans don't apply outside
    // the engine scope.
    let mut findings: Vec<Finding> = Vec::new();
    hygiene::check(
        "crates/bench/src/fixture.rs",
        &scan,
        &["crates/bench/src/fixture.rs".to_owned()],
        &mut findings,
    );
    assert!(findings.is_empty(), "got: {findings:?}");
}

#[test]
fn atomic_write_fires_on_bad_fixture_and_respects_waiver() {
    let scan = fixture("atomic_write_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    atomic_write::check(AS_IF, &scan, &mut findings);
    // The `use` line (File::create is absent there, but OpenOptions is
    // imported), plus the three raw-write sites; the waived `fs::write`
    // and the string mention stay silent.
    for needle in ["fs::write", "File::create", "OpenOptions"] {
        assert!(
            findings.iter().any(|f| f.msg.contains(needle)),
            "missing `{needle}` finding in: {findings:?}"
        );
    }
    let waived_line = scan
        .lines
        .iter()
        .position(|l| l.contains("debug.txt"))
        .unwrap()
        + 1;
    assert!(
        findings.iter().all(|f| f.line != waived_line),
        "waived write tripped: {findings:?}"
    );
}

#[test]
fn atomic_write_scoped_outside_persist_and_bench() {
    let scan = fixture("atomic_write_bad.rs");
    for out_of_scope in ["crates/persist/src/lib.rs", "crates/bench/src/fixture.rs"] {
        let mut findings: Vec<Finding> = Vec::new();
        atomic_write::check(out_of_scope, &scan, &mut findings);
        assert!(findings.is_empty(), "{out_of_scope} tripped: {findings:?}");
    }
}

#[test]
fn serving_no_panic_fires_on_bad_fixture_and_respects_waiver() {
    let scan = fixture("serving_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    serving::check("crates/serving/src/fixture.rs", &scan, &mut findings);
    // Exactly the bare `unwrap()` and `expect()`; the combinators
    // (`unwrap_or_default`, `unwrap_or_else`, `unwrap_or`) and the
    // waived occurrence stay silent.
    assert_eq!(findings.len(), 2, "got: {findings:?}");
    assert!(findings.iter().any(|f| f.msg.contains("`unwrap`")));
    assert!(findings.iter().any(|f| f.msg.contains("`expect`")));
}

#[test]
fn serving_no_panic_scoped_to_serving_library_code() {
    let scan = fixture("serving_bad.rs");
    // Out of scope: engine crates (other rules own those), serving's
    // own integration tests, and benches.
    for out_of_scope in [
        "crates/core/src/fixture.rs",
        "tests/serving_corpus.rs",
        "crates/bench/src/serving_suite.rs",
    ] {
        let mut findings: Vec<Finding> = Vec::new();
        serving::check(out_of_scope, &scan, &mut findings);
        assert!(findings.is_empty(), "{out_of_scope} tripped: {findings:?}");
    }
}

#[test]
fn shard_isolation_fires_on_mirror_access_outside_the_seam() {
    let scan = fixture("shard_isolation_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    shard_isolation::check(AS_IF, &scan, &mut findings);
    // Outside the seam every `.mirror` access fires: the local poke and
    // the cross-shard read; the waived line and the comment-only
    // mention stay silent.
    assert_eq!(findings.len(), 2, "got: {findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.msg.contains("outside the shard seam")));
}

#[test]
fn shard_isolation_inside_the_seam_flags_only_cross_shard_lines() {
    let scan = fixture("shard_isolation_bad.rs");
    let mut findings: Vec<Finding> = Vec::new();
    shard_isolation::check("crates/core/src/shard.rs", &scan, &mut findings);
    // Inside the seam a shard may touch its own mirror; only the
    // unwaived `shards[…].mirror` line is a cross-shard read.
    assert_eq!(findings.len(), 1, "got: {findings:?}");
    assert!(findings[0].msg.contains("cross-shard"));
    let cross_line = scan
        .lines
        .iter()
        .position(|l| l.contains("stolen"))
        .unwrap()
        + 1;
    assert_eq!(findings[0].line, cross_line);
}

#[test]
fn shard_isolation_scoped_to_crates() {
    let scan = fixture("shard_isolation_bad.rs");
    // Tests and xtask code assert on run results, never live mirrors.
    for out_of_scope in ["tests/shard_equivalence.rs", "xtask/src/rules/fixture.rs"] {
        let mut findings: Vec<Finding> = Vec::new();
        shard_isolation::check(out_of_scope, &scan, &mut findings);
        assert!(findings.is_empty(), "{out_of_scope} tripped: {findings:?}");
    }
}

/// Regression pins for the analyze *scope tables* (the gap this PR
/// closes): `crates/congest` is determinism-critical — its Kahn
/// topological order and skeleton construction feed the simulated
/// graph — so both the nondet-iteration and hygiene families must
/// cover its files. A scope regression would silently un-lint them.
#[test]
fn congest_files_are_in_nondet_iteration_scope() {
    let scan = fixture("nondet_iter_bad.rs");
    for path in [
        "crates/congest/src/khan.rs",
        "crates/congest/src/skeleton.rs",
    ] {
        let mut findings: Vec<Finding> = Vec::new();
        nondet_iter::check(path, &scan, &mut findings);
        assert!(
            !findings.is_empty(),
            "{path} fell out of the nondet-iteration scope"
        );
    }
}

#[test]
fn congest_files_are_in_hygiene_scope() {
    let scan = fixture("hygiene_bad.rs");
    for path in [
        "crates/congest/src/khan.rs",
        "crates/congest/src/skeleton.rs",
    ] {
        let mut findings: Vec<Finding> = Vec::new();
        hygiene::check(path, &scan, &[], &mut findings);
        assert!(!findings.is_empty(), "{path} fell out of the hygiene scope");
    }
}

#[test]
fn hygiene_flags_stale_allowlist_entries() {
    let clean = lexer::scan("fn f() {}\n");
    let scans = vec![("crates/core/src/clean.rs".to_owned(), clean)];
    let mut findings: Vec<Finding> = Vec::new();
    hygiene::check_allowlist(
        &[
            "crates/core/src/clean.rs".to_owned(),
            "crates/core/src/gone.rs".to_owned(),
        ],
        &scans,
        &mut findings,
    );
    assert_eq!(findings.len(), 2, "got: {findings:?}");
}
