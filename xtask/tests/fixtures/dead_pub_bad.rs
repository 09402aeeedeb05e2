//! Bad fixture for the dead-pub rule: two `pub fn`s nothing reaches
//! must fire; the reached, waived, crate-private and test-only ones
//! must stay silent.

pub use self::never_called as reexported_name;

/// Must fire: no caller at all. A doc mention of `never_called()` and
/// the `pub use` above do not count.
pub fn never_called() {}

/// Must fire: only this file's tests call it.
pub fn only_own_tests() -> u32 {
    1
}

/// Must stay silent: this file's own code calls it.
pub fn called_here() -> u32 {
    2
}

/// Must stay silent: another file names it.
pub fn called_elsewhere() {}

/// Must stay silent: deliberate API.
// analyze: dead-pub-ok(fixture demonstrates the waiver form)
pub fn waived_api() {}

/// Must stay silent: not `pub`.
pub(crate) fn crate_private() -> u32 {
    called_here()
}

#[cfg(test)]
mod tests {
    /// Must stay silent: under `#[cfg(test)]`.
    pub fn test_helper() -> u32 {
        super::only_own_tests()
    }

    #[test]
    fn uses_helpers() {
        assert_eq!(test_helper(), 1);
    }
}
