//! The seven rule families of `cargo xtask analyze`.

pub mod atomic_write;
pub mod dead_pub;
pub mod fault_registry;
pub mod hygiene;
pub mod nondet_iter;
pub mod serving;
pub mod unsafe_safety;

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Rule family identifier (e.g. `nondet-iteration`).
    pub rule: &'static str,
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line0: usize, msg: String) -> Self {
        Finding {
            rule,
            file: file.to_owned(),
            line: line0 + 1,
            msg,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}
