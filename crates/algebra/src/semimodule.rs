//! The [`Semimodule`] trait (Definition A.3 of the paper).

use crate::semiring::Semiring;
use std::fmt::Debug;

/// A zero-preserving semimodule `M = (M, ⊕, ⊙)` over a semiring `S`.
///
/// `⊕ : M × M → M` models **aggregation** of node states and
/// `⊙ : S × M → M` models **propagation** of a node state over an edge.
/// Requirements (Definition A.3, Equations (2.1)–(2.5)):
///
/// * `(M, ⊕)` is a semigroup with neutral element `⊥` ([`zero`](Semimodule::zero)),
/// * `1 ⊙ x = x`, `s ⊙ (x ⊕ y) = sx ⊕ sy`, `(s ⊕ t)x = sx ⊕ tx`,
///   `(s ⊙ t)x = s(tx)`,
/// * zero-preservation: `0 ⊙ x = ⊥` (Equation (2.2): propagating over a
///   non-edge loses the information).
///
/// Like the semiring laws, these are verified by property tests via
/// [`crate::laws`].
pub trait Semimodule<S: Semiring>: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The neutral element `⊥` of aggregation ("no information").
    fn zero() -> Self;
    /// In-place aggregation `self ← self ⊕ rhs`.
    fn add_assign(&mut self, rhs: &Self);
    /// Propagation `s ⊙ self`.
    fn scale(&self, s: &S) -> Self;

    /// Out-of-place aggregation.
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// Returns `true` iff `self` equals `⊥`.
    #[inline]
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Returns `false` iff `self` contains a value no semimodule operation
    /// can produce (e.g. a NaN distance injected by the fault harness).
    ///
    /// Defense-in-depth for the robustness audit; the fault registry's
    /// fired log remains the primary detector, since poisoned entries can
    /// be overwritten by later aggregations.
    #[inline]
    fn is_sane(&self) -> bool {
        true
    }

    /// Corrupts `self` with an insane value if the representation has one.
    /// Fault-injection only; the default is a no-op.
    #[inline]
    fn poison(&mut self) {}

    /// Whether every vertex the state names as a coordinate lies in
    /// `0..n`, i.e. a state read back from a checkpoint can be indexed
    /// by vertex (and written into a dense row of `n` columns). The
    /// default is `true`: a state that names no vertex always fits.
    #[inline]
    fn fits(&self, _n: usize) -> bool {
        true
    }
}

/// Every semiring is a zero-preserving semimodule over itself
/// (used by the paper for SSSP and the forest-fire example, Section 3.1).
impl<S: Semiring> Semimodule<S> for S {
    #[inline]
    fn zero() -> Self {
        S::zero()
    }

    #[inline]
    fn add_assign(&mut self, rhs: &Self) {
        *self = Semiring::add(self, rhs);
    }

    #[inline]
    fn scale(&self, s: &S) -> Self {
        s.mul(self)
    }

    #[inline]
    fn is_sane(&self) -> bool {
        Semiring::is_sane(self)
    }

    #[inline]
    fn poison(&mut self) {
        Semiring::poison(self);
    }
}
