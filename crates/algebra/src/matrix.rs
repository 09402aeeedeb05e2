//! Dense square matrices over a semiring: the Simple Linear Functions
//! (SLFs) of Section 2.4 made explicit.
//!
//! Lemma 2.14: SLFs (with function addition and concatenation) are
//! isomorphic to the matrix semiring over `S` — `(A ⊕ B)(x) = (A⊕B)x`
//! and `(A ∘ B)(x) = ABx`. This module provides that matrix semiring,
//! which also powers the paper's classic `Ω(n³)`-work baseline: the
//! fixpoint iteration `A^{(i+1)} = A^{(i)} A^{(i)}` reaching all-pairs
//! distances after `⌈log SPD(G)⌉` squarings (Section 1.1).

use crate::semimodule::Semimodule;
use crate::semiring::Semiring;
use rayon::prelude::*;

/// A dense `n × n` matrix over the semiring `S`, stored row-major.
#[derive(Clone, PartialEq, Debug)]
pub struct SemiringMatrix<S> {
    n: usize,
    data: Vec<S>,
}

impl<S: Semiring> SemiringMatrix<S> {
    /// The all-zero matrix (the zero of the matrix semiring).
    pub fn zeros(n: usize) -> Self {
        SemiringMatrix {
            n,
            data: vec![S::zero(); n * n],
        }
    }

    /// The identity matrix (ones on the diagonal).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, S::one());
        }
        m
    }

    /// Builds from a row-major element vector.
    #[cfg(test)]
    fn from_rows(n: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), n * n);
        SemiringMatrix { n, data }
    }

    /// Dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> &S {
        &self.data[i * self.n + j]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        self.data[i * self.n + j] = v;
    }

    /// Matrix addition: `(A ⊕ B)_{ij} = a_{ij} ⊕ b_{ij}`
    /// (Equation (1.5)).
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.n, rhs.n);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a.add(b))
            .collect();
        SemiringMatrix { n: self.n, data }
    }

    /// Matrix product `(AB)_{ij} = ⊕_u a_{iu} ⊙ b_{uj}` (Equation (1.6)),
    /// parallelized over rows.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.n, rhs.n);
        let n = self.n;
        let data: Vec<S> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                (0..n).map(move |j| {
                    let mut acc = S::zero();
                    for (u, a) in row.iter().enumerate() {
                        acc = acc.add(&a.mul(&rhs.data[u * n + j]));
                    }
                    acc
                })
            })
            .collect();
        SemiringMatrix { n, data }
    }

    /// Matrix–vector product over a semimodule: the SLF application
    /// `A(x)_v = ⊕_w a_{vw} ⊙ x_w` of Definition 2.12.
    pub fn apply<M: Semimodule<S>>(&self, x: &[M]) -> Vec<M> {
        assert_eq!(x.len(), self.n);
        let n = self.n;
        (0..n)
            .into_par_iter()
            .map(|i| {
                let mut acc = M::zero();
                for (w, coeff) in self.data[i * n..(i + 1) * n].iter().enumerate() {
                    acc.add_assign(&x[w].scale(coeff));
                }
                acc
            })
            .collect()
    }

    /// `A^{2^k}` by repeated squaring until the fixpoint `A² = A` is
    /// reached (at most `⌈log₂ cap⌉ + 1` squarings). Returns the fixpoint
    /// matrix and the number of squarings performed.
    pub fn square_to_fixpoint(&self, cap: usize) -> (Self, usize) {
        let mut cur = self.clone();
        let mut squarings = 0;
        let max = (cap.max(2) as f64).log2().ceil() as usize + 1;
        while squarings < max {
            let next = cur.mul(&cur);
            squarings += 1;
            if next == cur {
                break;
            }
            cur = next;
        }
        (cur, squarings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minplus::MinPlus;

    fn mp(v: f64) -> MinPlus {
        MinPlus::new(v)
    }

    #[test]
    fn identity_is_neutral() {
        let a = SemiringMatrix::from_rows(2, vec![mp(0.0), mp(3.0), mp(3.0), mp(0.0)]);
        let id = SemiringMatrix::<MinPlus>::identity(2);
        assert_eq!(id.mul(&a), a);
        assert_eq!(a.mul(&id), a);
    }

    #[test]
    fn minplus_product_is_shortest_two_hop() {
        // Path 0-1-2 with weights 1 and 2: A² must contain dist(0,2)=3.
        let inf = <MinPlus as Semiring>::zero();
        let a = SemiringMatrix::from_rows(
            3,
            vec![
                mp(0.0),
                mp(1.0),
                inf,
                mp(1.0),
                mp(0.0),
                mp(2.0),
                inf,
                mp(2.0),
                mp(0.0),
            ],
        );
        let a2 = a.mul(&a);
        assert_eq!(*a2.get(0, 2), mp(3.0));
    }

    #[test]
    fn squaring_reaches_fixpoint() {
        let inf = <MinPlus as Semiring>::zero();
        // Path of 4 nodes: SPD = 3 ⇒ 2 squarings suffice.
        let mut a = SemiringMatrix::zeros(4);
        for i in 0..4 {
            a.set(i, i, mp(0.0));
        }
        for i in 0..3 {
            a.set(i, i + 1, mp(1.0));
            a.set(i + 1, i, mp(1.0));
        }
        let (fix, squarings) = a.square_to_fixpoint(4);
        assert_eq!(*fix.get(0, 3), mp(3.0));
        assert!(squarings <= 3);
        let _ = inf;
    }

    #[test]
    fn apply_matches_manual_slf() {
        use crate::dist::Dist;
        use crate::distance_map::DistanceMap;
        let inf = <MinPlus as Semiring>::zero();
        let a = SemiringMatrix::from_rows(2, vec![mp(0.0), mp(5.0), mp(5.0), inf]);
        let x = vec![
            DistanceMap::singleton(0, Dist::ZERO),
            DistanceMap::singleton(1, Dist::ZERO),
        ];
        let y = a.apply(&x);
        assert_eq!(y[0].get(0), Dist::ZERO);
        assert_eq!(y[0].get(1), Dist::new(5.0));
        // Row 1 has an ∞ diagonal: node 1 forgets its own entry.
        assert_eq!(y[1].get(1), Dist::INF);
        assert_eq!(y[1].get(0), Dist::new(5.0));
    }
}
