//! The width-map semimodule `W = ((R≥0 ∪ {∞})^V, ⊕, ⊙)` over the max-min
//! semiring (Corollary 3.11 of the paper), used for all-pairs /
//! multi-source widest path computations.

use crate::dist::Dist;
use crate::maxmin::Width;
use crate::semimodule::Semimodule;
use crate::NodeId;

/// Sparse width map: non-zero coordinates of a vector in
/// `(R≥0 ∪ {∞})^V`, sorted by node id. The neutral element `⊥` is the
/// all-zero vector (Corollary 3.11), so zero-width entries are dropped.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WidthMap {
    entries: Vec<(NodeId, Width)>,
}

impl WidthMap {
    /// The all-zero map `⊥`.
    #[inline]
    pub fn new() -> Self {
        WidthMap {
            entries: Vec::new(),
        }
    }

    /// Map with a single entry, typically `{v ↦ ∞}` (Equation (3.10)).
    pub fn singleton(v: NodeId, w: Width) -> Self {
        if w == Width::zero_value() {
            WidthMap::new()
        } else {
            WidthMap {
                entries: vec![(v, w)],
            }
        }
    }

    /// Builds from arbitrary entries; duplicates resolved by maximum,
    /// zero entries dropped.
    pub fn from_entries(mut entries: Vec<(NodeId, Width)>) -> Self {
        entries.retain(|&(_, w)| w != Width::zero_value());
        entries.sort_unstable_by(|a, b| {
            (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1)))
        });
        entries.dedup_by(|next, prev| prev.0 == next.0); // keeps first = max width
        WidthMap { entries }
    }

    /// Number of non-zero entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the map is `⊥`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the width for `v` (`0` if absent).
    pub fn get(&self, v: NodeId) -> Width {
        match self.entries.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.entries[i].1,
            Err(_) => Width(Dist::ZERO),
        }
    }

    /// Iterates over non-zero entries in node-id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Width)> + '_ {
        self.entries.iter().copied()
    }

    /// Fused propagate-and-aggregate: `self ← self ⊕ (s ⊙ other)`
    /// (coordinate-wise `max(self_v, min(s, other_v))`) without
    /// materializing the scaled copy — the max-min analogue of
    /// [`crate::DistanceMap::merge_scaled`], merged through this
    /// thread's scratch buffer.
    pub fn merge_scaled(&mut self, other: &WidthMap, s: Width) {
        if s == Width::zero_value() || other.entries.is_empty() {
            return; // 0 ⊙ x = ⊥
        }
        if self.entries.is_empty() {
            self.entries
                .extend(other.entries.iter().map(|&(v, w)| (v, Width(w.0.min(s.0)))));
            return;
        }
        if self.entries.last().unwrap().0 < other.entries[0].0 {
            self.entries
                .extend(other.entries.iter().map(|&(v, w)| (v, Width(w.0.min(s.0)))));
            return;
        }
        crate::merge::with_width_scratch(|scratch| {
            crate::merge::merge_sorted_into(
                &self.entries,
                &other.entries,
                |w| Width(w.0.min(s.0)),
                |a, b| Width(a.0.max(b.0)),
                scratch,
            );
            std::mem::swap(&mut self.entries, scratch);
        });
    }
}

impl Width {
    #[inline]
    fn zero_value() -> Width {
        Width(Dist::ZERO)
    }
}

impl Semimodule<Width> for WidthMap {
    #[inline]
    fn zero() -> Self {
        WidthMap::new()
    }

    /// Coordinate-wise maximum (Equation (3.7)), merged through this
    /// thread's scratch buffer (allocation-free in steady state, see
    /// [`crate::merge`]).
    fn add_assign(&mut self, rhs: &Self) {
        if rhs.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            self.entries.extend_from_slice(&rhs.entries);
            return;
        }
        if self.entries.last().unwrap().0 < rhs.entries[0].0 {
            self.entries.extend_from_slice(&rhs.entries);
            return;
        }
        crate::merge::with_width_scratch(|scratch| {
            crate::merge::merge_sorted_into(
                &self.entries,
                &rhs.entries,
                |w| w,
                |a, b| Width(a.0.max(b.0)),
                scratch,
            );
            std::mem::swap(&mut self.entries, scratch);
        });
    }

    /// Coordinate-wise `min{s, x_v}` (Equation (3.8)); scaling by the
    /// semiring zero (width 0) yields `⊥`.
    fn scale(&self, s: &Width) -> Self {
        if *s == Width::zero_value() {
            return WidthMap::new();
        }
        WidthMap {
            entries: self
                .entries
                .iter()
                .map(|&(v, w)| (v, Width(w.0.min(s.0))))
                .collect(),
        }
    }

    #[inline]
    fn is_sane(&self) -> bool {
        self.entries.iter().all(|&(_, w)| !w.0.is_poisoned())
    }

    fn poison(&mut self) {
        match self.entries.first_mut() {
            Some(entry) => entry.1 = Width(Dist::poisoned()),
            None => self.entries.push((0, Width(Dist::poisoned()))),
        }
    }

    fn fits(&self, n: usize) -> bool {
        self.entries.iter().all(|&(u, _)| (u as usize) < n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;

    fn wm(pairs: &[(NodeId, f64)]) -> WidthMap {
        WidthMap::from_entries(pairs.iter().map(|&(v, w)| (v, Width::new(w))).collect())
    }

    #[test]
    fn add_is_coordinatewise_max() {
        let mut a = wm(&[(1, 2.0), (3, 5.0)]);
        a.add_assign(&wm(&[(1, 3.0), (2, 1.0)]));
        assert_eq!(a, wm(&[(1, 3.0), (2, 1.0), (3, 5.0)]));
    }

    #[test]
    fn scale_is_coordinatewise_min() {
        let a = wm(&[(1, 2.0), (3, 5.0)]);
        assert_eq!(a.scale(&Width::new(3.0)), wm(&[(1, 2.0), (3, 3.0)]));
        // Scaling by the semiring one (∞) is the identity.
        assert_eq!(a.scale(&<Width as Semiring>::one()), a);
        // Scaling by the semiring zero (0) collapses to ⊥.
        assert!(a.scale(&<Width as Semiring>::zero()).is_empty());
    }

    #[test]
    fn zero_entries_are_not_stored() {
        let a = WidthMap::from_entries(vec![(4, Width::new(0.0)), (5, Width::new(1.0))]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(4), Width::new(0.0));
    }
}
