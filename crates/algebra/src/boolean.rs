//! The Boolean semiring `B = ({0,1}, ∨, ∧)` (Section 3.4), used for
//! connectivity queries.

use crate::semiring::Semiring;

/// Element of the Boolean semiring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Bool(pub bool);

impl Semiring for Bool {
    #[inline]
    fn zero() -> Self {
        Bool(false)
    }

    #[inline]
    fn one() -> Self {
        Bool(true)
    }

    /// Logical or.
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        Bool(self.0 || rhs.0)
    }

    /// Logical and.
    #[inline]
    fn mul(&self, rhs: &Self) -> Self {
        Bool(self.0 && rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_table() {
        assert_eq!(Bool(true).add(&Bool(false)), Bool(true));
        assert_eq!(Bool(false).add(&Bool(false)), Bool(false));
        assert_eq!(Bool(true).mul(&Bool(false)), Bool(false));
        assert_eq!(Bool(true).mul(&Bool(true)), Bool(true));
    }

    #[test]
    fn neutral_and_annihilator() {
        assert_eq!(Bool::zero(), Bool(false));
        assert_eq!(Bool::one(), Bool(true));
        assert_eq!(Bool::zero().mul(&Bool(true)), Bool::zero());
    }
}
