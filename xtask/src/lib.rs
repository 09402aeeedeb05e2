//! Project lint pass for the metric-tree-embedding workspace.
//!
//! `cargo xtask analyze` enforces determinism and soundness rules that
//! rustc/clippy cannot express (see `docs/ANALYSIS.md`):
//!
//! 1. **nondet-iteration** — no `HashMap`/`HashSet` in the
//!    determinism-critical crates unless waived with
//!    `// analyze: ordered-ok(reason)`;
//! 2. **unsafe-safety** — every `unsafe` block/fn/impl carries a
//!    `// SAFETY:` comment (or a `# Safety` doc contract), and the
//!    workspace manifests pin the supporting rustc/clippy lints;
//! 3. **fault-registry** — fault-plan spec literals use registered
//!    site/kind names, the shared name tables cover every enum variant,
//!    and no registered site or kind is dead;
//! 4. **hygiene** — no wall-clock, ad-hoc threading, or non-shim
//!    randomness in engine/oracle/kernel code, and `Ordering::Relaxed`
//!    only in allowlisted files;
//! 5. **atomic-write** — no raw `fs::write`/`File::create`/`OpenOptions`
//!    in engine crates: durable state goes through the crash-safe
//!    snapshot writer in `crates/persist` (or is waived with
//!    `// analyze: atomic-write-ok(reason)`);
//! 6. **serving-no-panic** — no `unwrap()`/`expect()` in
//!    `crates/serving/src`: the serving layer's contract is typed
//!    `ServeError`s, never panics (waiver:
//!    `// analyze: serve-ok(reason)`);
//! 7. **dead-pub** — no `pub fn` in a library crate that nothing names
//!    outside its definition and its own file's tests (waiver:
//!    `// analyze: dead-pub-ok(reason)`).

pub mod lexer;
pub mod rules;
