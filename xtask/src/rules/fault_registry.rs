//! Rule family 3: **fault-registry**.
//!
//! The fault-injection harness addresses sites and kinds by *name* in
//! `MTE_FAULT_PLAN` specs (`site:kind:nth[:hits][;…]`). A misspelled
//! name in a test or doc silently arms nothing, and a site or kind
//! registered but never referenced is dead weight that suggests a hook
//! was removed without cleaning up. This rule parses the shared name tables
//! (`SITE_NAMES` / `KIND_NAMES` in `crates/faults/src/lib.rs` — the
//! single source of truth the runtime `name()`/`parse()` functions also
//! read) and checks:
//!
//! * the tables cover every enum variant exactly once, with unique names;
//! * every string literal shaped like a plan spec uses registered
//!   site/kind names (waiver: `// analyze: fault-spec-ok(reason)` for
//!   intentional negative-parse tests);
//! * every registered site and kind is referenced outside the faults
//!   crate (as `FaultSite::Variant` / `FaultKind::Variant`, or by name
//!   as a `:`-separated field of some literal).

use super::Finding;
use crate::lexer::{has_word, waived, Scan};

pub const RULE: &str = "fault-registry";

/// The parsed name tables plus enum variant lists.
pub struct Registry {
    /// `(variant, name)` rows of `SITE_NAMES`.
    pub sites: Vec<(String, String)>,
    /// `(variant, name)` rows of `KIND_NAMES`.
    pub kinds: Vec<(String, String)>,
    /// Variants of `enum FaultSite` in declaration order.
    pub site_variants: Vec<String>,
    /// Variants of `enum FaultKind` in declaration order.
    pub kind_variants: Vec<String>,
}

fn enum_variants(scan: &Scan, enum_name: &str) -> Vec<String> {
    let header = format!("pub enum {enum_name}");
    let mut variants = Vec::new();
    let mut inside = false;
    for code in &scan.code {
        let t = code.trim();
        if !inside {
            if t.contains(&header) {
                inside = true;
            }
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        if t.starts_with("#[") || t.is_empty() {
            continue;
        }
        let name: String = t
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.chars().next().map(char::is_uppercase).unwrap_or(false) {
            variants.push(name);
        }
    }
    variants
}

fn table_rows(scan: &Scan, table: &str, enum_name: &str) -> Vec<(String, String)> {
    let header = format!("{table}:");
    let variant_prefix = format!("{enum_name}::");
    let mut rows = Vec::new();
    let mut inside = false;
    for (idx, code) in scan.code.iter().enumerate() {
        let t = code.trim();
        if !inside {
            if t.contains(&header) {
                inside = true;
            }
            continue;
        }
        if t.starts_with("];") || t == "]" {
            break;
        }
        let Some(pos) = t.find(&variant_prefix) else {
            continue;
        };
        let variant: String = t[pos + variant_prefix.len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        // The row's name is the string literal starting on this line.
        let name = scan
            .strings
            .iter()
            .find(|(line, _)| *line == idx)
            .map(|(_, s)| s.clone());
        if let (false, Some(name)) = (variant.is_empty(), name) {
            rows.push((variant, name));
        }
    }
    rows
}

/// Parses the registry out of the faults crate's source scan.
pub fn load(faults_scan: &Scan) -> Registry {
    Registry {
        sites: table_rows(faults_scan, "SITE_NAMES", "FaultSite"),
        kinds: table_rows(faults_scan, "KIND_NAMES", "FaultKind"),
        site_variants: enum_variants(faults_scan, "FaultSite"),
        kind_variants: enum_variants(faults_scan, "FaultKind"),
    }
}

/// Whether `s` is shaped like a fault-plan spec: `site:kind:nth[:hits]`
/// segments joined by `;`.
pub fn looks_like_plan_spec(s: &str) -> bool {
    let s = s.trim();
    if s.is_empty() {
        return false;
    }
    s.split(';').all(|seg| {
        let parts: Vec<&str> = seg.trim().split(':').collect();
        (parts.len() == 3 || parts.len() == 4)
            && parts[..2]
                .iter()
                .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
            && parts[2..]
                .iter()
                .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
    })
}

/// Registry self-consistency: tables total, names unique.
pub fn check_registry(reg: &Registry, faults_path: &str, out: &mut Vec<Finding>) {
    for (variants, rows, what) in [
        (&reg.site_variants, &reg.sites, "FaultSite/SITE_NAMES"),
        (&reg.kind_variants, &reg.kinds, "FaultKind/KIND_NAMES"),
    ] {
        for v in variants.iter() {
            let n = rows.iter().filter(|(rv, _)| rv == v).count();
            if n != 1 {
                out.push(Finding::new(
                    RULE,
                    faults_path,
                    0,
                    format!("{what}: variant `{v}` has {n} table rows (want exactly 1)"),
                ));
            }
        }
        for (rv, _) in rows.iter() {
            if !variants.contains(rv) {
                out.push(Finding::new(
                    RULE,
                    faults_path,
                    0,
                    format!("{what}: table row `{rv}` is not an enum variant"),
                ));
            }
        }
        let mut names: Vec<&str> = rows.iter().map(|(_, n)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != rows.len() {
            out.push(Finding::new(
                RULE,
                faults_path,
                0,
                format!("{what}: duplicate names in the table"),
            ));
        }
    }
}

/// Per-file half: plan-spec literals must use registered names.
pub fn check_specs(reg: &Registry, path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    for (line, lit) in &scan.strings {
        if !looks_like_plan_spec(lit) || waived(scan, *line, "fault-spec") {
            continue;
        }
        for seg in lit.split(';') {
            let parts: Vec<&str> = seg.trim().split(':').collect();
            let (site, kind) = (parts[0], parts[1]);
            if !reg.sites.iter().any(|(_, n)| n == site) {
                out.push(Finding::new(
                    RULE,
                    path,
                    *line,
                    format!(
                        "fault-plan spec names unknown site `{site}` (registered: {}); \
                         waive negative tests with `// analyze: fault-spec-ok(reason)`",
                        reg.sites
                            .iter()
                            .map(|(_, n)| n.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            }
            if !reg.kinds.iter().any(|(_, n)| n == kind) {
                out.push(Finding::new(
                    RULE,
                    path,
                    *line,
                    format!(
                        "fault-plan spec names unknown kind `{kind}` (registered: {})",
                        reg.kinds
                            .iter()
                            .map(|(_, n)| n.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            }
        }
    }
}

/// Global half: every registered site and kind is referenced outside
/// the faults crate, by variant or by name. A name counts only as a
/// whole `:`/`;`-separated field of a string literal (as in
/// `"gr_parser:io:1"` or `"{site}:panic:1"`), so a short kind name like
/// `io` is not found inside `"ratio"`.
pub fn check_dead_sites(
    reg: &Registry,
    scans: &[(String, Scan)],
    faults_path: &str,
    out: &mut Vec<Finding>,
) {
    for (enum_name, what, rows) in [
        ("FaultSite", "site", &reg.sites),
        ("FaultKind", "kind", &reg.kinds),
    ] {
        for (variant, name) in rows {
            let token = format!("{enum_name}::{variant}");
            let referenced = scans.iter().any(|(path, scan)| {
                if path.starts_with("crates/faults/") {
                    return false;
                }
                scan.code
                    .iter()
                    .any(|code| code.contains(&token) && has_word(code, variant))
                    || scan.strings.iter().any(|(_, s)| {
                        s.split([':', ';'])
                            .any(|field| field.trim() == name.as_str())
                    })
            });
            if !referenced {
                out.push(Finding::new(
                    RULE,
                    faults_path,
                    0,
                    format!(
                        "registered fault {what} `{name}` ({token}) is never referenced \
                         outside the registry — dead {what} or missing hook"
                    ),
                ));
            }
        }
    }
}
