//! Rule family 7: **dead-pub**.
//!
//! A `pub fn` in a library crate that nothing reaches is code the
//! workspace builds, documents and reviews for no caller. The rule
//! flags a `pub fn` under `crates/*/src` whose name appears in no other
//! scanned `.rs` file and in no non-test line of its own file besides
//! its definition. Matching is by name, the same cross-file approach
//! the fault-registry rule uses for dead sites: a common name (`new`,
//! `len`) used anywhere counts as reached, so the rule misses some dead
//! items but never flags a called one.
//!
//! Not counted as uses: comments (doc links included) and `pub use`
//! re-export statements, which name an item without calling it.
//! Skipped definitions: binaries (`bin/`), items under `#[cfg(test)]`,
//! and `crates/shims`, whose functions mirror the published `rayon` and
//! `loom` APIs on purpose. Deliberate API without a caller in the
//! workspace carries an `// analyze: dead-pub-ok(reason)` waiver on the
//! `pub fn` line or the comment line directly above it.

use std::collections::BTreeMap;

use super::Finding;
use crate::lexer::{waived, Scan};

pub const RULE: &str = "dead-pub";

/// Whether definitions in `path` are in scope: library sources of the
/// workspace crates, without binaries and the API-mirroring shims.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && !path.starts_with("crates/shims/")
        && path.contains("/src/")
        && !path.contains("/bin/")
}

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The function name if `code` defines a `pub fn` (plain `pub` only, so
/// `pub(crate) fn` is not one), allowing `const`/`unsafe`/`async`/
/// `extern` qualifiers between `pub` and `fn`.
fn pub_fn_name(code: &str) -> Option<&str> {
    let t = code.trim_start();
    let rest = t.strip_prefix("pub")?;
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = idents(rest);
    loop {
        match words.next()? {
            "const" | "unsafe" | "async" | "extern" => {}
            "fn" => return words.next(),
            _ => return None,
        }
    }
}

/// Per line: whether it belongs to an item under `#[cfg(test)]`. The
/// item runs from the attribute to the `}` that closes its first `{`, or
/// to a `;` outside brackets before any `{` (`#[cfg(test)] use …;`).
fn test_lines(scan: &Scan) -> Vec<bool> {
    let mut test = vec![false; scan.code.len()];
    let mut idx = 0;
    while idx < scan.code.len() {
        let Some(start) = scan.code[idx].find("#[cfg(test)]") else {
            idx += 1;
            continue;
        };
        let (mut braces, mut brackets, mut opened) = (0i32, 0i32, false);
        let mut col = start + "#[cfg(test)]".len();
        let mut line = idx;
        'item: while line < scan.code.len() {
            test[line] = true;
            for c in scan.code[line][col..].chars() {
                match c {
                    '{' => {
                        braces += 1;
                        opened = true;
                    }
                    '}' => braces -= 1,
                    '(' | '[' => brackets += 1,
                    ')' | ']' => brackets -= 1,
                    ';' if !opened && brackets == 0 => break 'item,
                    _ => {}
                }
                if opened && braces == 0 {
                    break 'item;
                }
            }
            line += 1;
            col = 0;
        }
        idx = line + 1;
    }
    test
}

/// Per line: whether it belongs to a `pub use` statement, which may span
/// several lines up to its `;`.
fn reexport_lines(scan: &Scan) -> Vec<bool> {
    let mut reexport = vec![false; scan.code.len()];
    let mut inside = false;
    for (idx, code) in scan.code.iter().enumerate() {
        inside |= code.trim_start().starts_with("pub use ");
        reexport[idx] = inside;
        if code.contains(';') {
            inside = false;
        }
    }
    reexport
}

/// Flags every in-scope `pub fn` that nothing outside its definition
/// and its own file's tests names.
pub fn check(scans: &[(String, Scan)], out: &mut Vec<Finding>) {
    let masks: Vec<(Vec<bool>, Vec<bool>)> = scans
        .iter()
        .map(|(_, scan)| (test_lines(scan), reexport_lines(scan)))
        .collect();
    // (file, line, name) of each candidate definition.
    let mut defs: Vec<(usize, usize, &str)> = Vec::new();
    for (file, (path, scan)) in scans.iter().enumerate() {
        if !in_scope(path) {
            continue;
        }
        for (line, code) in scan.code.iter().enumerate() {
            if masks[file].0[line] || waived(scan, line, "dead-pub") {
                continue;
            }
            if let Some(name) = pub_fn_name(code) {
                defs.push((file, line, name));
            }
        }
    }

    // Candidate name -> every (file, line) that names it outside a
    // comment or a `pub use`.
    let mut uses: BTreeMap<&str, Vec<(usize, usize)>> = defs
        .iter()
        .map(|&(_, _, name)| (name, Vec::new()))
        .collect();
    for (file, (_, scan)) in scans.iter().enumerate() {
        for (line, code) in scan.code.iter().enumerate() {
            if masks[file].1[line] {
                continue;
            }
            for word in idents(code) {
                if let Some(at) = uses.get_mut(word) {
                    at.push((file, line));
                }
            }
        }
    }

    for &(file, line, name) in &defs {
        let reached = uses[name]
            .iter()
            .any(|&(f, l)| f != file || (l != line && !masks[f].0[l]));
        if !reached {
            out.push(Finding::new(
                RULE,
                &scans[file].0,
                line,
                format!(
                    "`pub fn {name}` is named nowhere outside its definition and this \
                     file's tests: delete it, move it under #[cfg(test)], or waive \
                     deliberate API with `// analyze: dead-pub-ok(reason)`"
                ),
            ));
        }
    }
}
