//! The distance-map semimodule `D = ((R≥0 ∪ {∞})^V, ⊕, ⊙)` over the
//! min-plus semiring (Definition 2.1 of the paper).
//!
//! A distance map conceptually assigns a distance to *every* node of `V`;
//! the sparse representation stores only the non-`∞` entries (the paper's
//! `|x|`), sorted by node id, which makes aggregation a linear merge —
//! the parallel-sort argument of Lemma 2.3 collapses to merging here.

use crate::dist::Dist;
use crate::merge;
use crate::minplus::MinPlus;
use crate::semimodule::Semimodule;
use crate::NodeId;

/// A sparse distance map: the non-`∞` coordinates of a vector in
/// `(R≥0 ∪ {∞})^V`, sorted by node id.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DistanceMap {
    entries: Vec<(NodeId, Dist)>,
}

impl DistanceMap {
    /// The empty map `⊥ = (∞, …, ∞)`.
    #[inline]
    pub fn new() -> Self {
        DistanceMap {
            entries: Vec::new(),
        }
    }

    /// Map with a single entry, typically `{v ↦ 0}` for initialization
    /// (Equation (3.1)).
    #[inline]
    pub fn singleton(v: NodeId, d: Dist) -> Self {
        if d.is_finite() {
            DistanceMap {
                entries: vec![(v, d)],
            }
        } else {
            DistanceMap::new()
        }
    }

    /// Builds a map from arbitrary entries; later duplicates are resolved
    /// by minimum, `∞` entries are dropped.
    pub fn from_entries(mut entries: Vec<(NodeId, Dist)>) -> Self {
        entries.retain(|(_, d)| d.is_finite());
        entries.sort_unstable_by_key(|&(v, d)| (v, d));
        entries.dedup_by(|next, prev| prev.0 == next.0); // keeps first = min dist
        DistanceMap { entries }
    }

    /// Number of non-`∞` entries (the paper's `|x|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the map is `⊥`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the distance for node `v` (`∞` if absent).
    pub fn get(&self, v: NodeId) -> Dist {
        match self.entries.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.entries[i].1,
            Err(_) => Dist::INF,
        }
    }

    /// Iterates over the non-`∞` entries in node-id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Dist)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted entry slice.
    #[inline]
    pub fn entries(&self) -> &[(NodeId, Dist)] {
        &self.entries
    }

    /// Retains only entries satisfying the predicate (used by filters).
    pub fn retain(&mut self, mut f: impl FnMut(NodeId, Dist) -> bool) {
        self.entries.retain(|&(v, d)| f(v, d));
    }

    /// Approximate equality: same node sets, distances within relative
    /// tolerance `rel`. Floating-point sums accumulated in different
    /// orders (e.g. MBF iteration vs. Dijkstra) differ in the last ulps;
    /// tests and cross-validation compare with this instead of `==`.
    pub fn approx_eq(&self, other: &DistanceMap, rel: f64) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(&(v, d), &(w, e))| v == w && dist_close(d, e, rel))
    }

    /// Overwrites `self` with an already node-sorted, key-unique entry
    /// slice — the borrowed-view counterpart of `clone_from` (the arena
    /// paths seed their scratch accumulator from a span with this).
    pub fn assign_from_entries(&mut self, entries: &[(NodeId, Dist)]) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be node-sorted with unique keys"
        );
        self.entries.clear();
        self.entries.extend_from_slice(entries);
    }

    /// Fused propagate-and-aggregate: `self ← self ⊕ (s ⊙ other)` without
    /// materializing the scaled copy. This is the hot operation of every
    /// MBF-like iteration over the distance-map semimodule; it merges via
    /// this thread's reusable scratch buffer, so steady-state calls
    /// allocate nothing (see [`crate::merge`]).
    pub fn merge_scaled(&mut self, other: &DistanceMap, s: Dist) {
        merge::with_dist_scratch(|scratch| {
            self.merge_scaled_entries_with(&other.entries, s, scratch)
        });
    }

    /// The borrowed-view, explicit-scratch kernel every `merge_scaled*`
    /// variant bottoms out in — owned maps and arena spans share one
    /// code path, which is what makes the two storage backends
    /// bit-identical by construction. For callers that manage their own
    /// buffer instead of borrowing the thread-local one: after the call
    /// `scratch` holds the accumulator's previous entries (the buffers
    /// are swapped); its contents are otherwise unspecified.
    pub fn merge_scaled_entries_with(
        &mut self,
        other: &[(NodeId, Dist)],
        s: Dist,
        scratch: &mut Vec<(NodeId, Dist)>,
    ) {
        if !s.is_finite() || other.is_empty() {
            return; // ∞ ⊙ x = ⊥ (Equation (2.2))
        }
        if self.entries.is_empty() {
            self.entries.extend(other.iter().map(|&(v, d)| (v, d + s)));
            return;
        }
        // Disjoint tails append in place without touching the scratch.
        if self.entries.last().unwrap().0 < other[0].0 {
            self.entries.extend(other.iter().map(|&(v, d)| (v, d + s)));
            return;
        }
        merge::merge_sorted_into(&self.entries, other, |d| d + s, Dist::min, scratch);
        std::mem::swap(&mut self.entries, scratch);
    }

    /// [`DistanceMap::merge_scaled_entries_with`] with an admission
    /// predicate: `admit(v, x_v + s)` is consulted for every entry of
    /// `other` whose node is **absent** from `self`; rejected entries are
    /// never inserted, collisions always take the minimum. See
    /// [`crate::merge`]'s module docs for the contract a predicate must
    /// satisfy so a downstream filter makes the prune lossless (the
    /// top-k threshold of source detection's arena recompute is the
    /// instance; the LE lists batch their admitted entries and combine
    /// them with one [`DistanceMap::assign_merged_min_entries`]
    /// instead). Unpruned [`DistanceMap::merge_scaled_entries_with`] stays the
    /// semantics reference.
    pub fn merge_scaled_pruned_entries(
        &mut self,
        other: &[(NodeId, Dist)],
        s: Dist,
        admit: &mut impl FnMut(NodeId, Dist) -> bool,
    ) {
        merge::with_dist_scratch(|scratch| {
            self.merge_scaled_pruned_entries_with(other, s, admit, scratch)
        });
    }

    /// The explicit-scratch kernel underlying
    /// [`DistanceMap::merge_scaled_pruned_entries`] (cf.
    /// [`DistanceMap::merge_scaled_entries_with`]). The append fast paths
    /// consult the predicate entry-by-entry too, so admission behavior
    /// never depends on which code path a merge takes.
    pub fn merge_scaled_pruned_entries_with(
        &mut self,
        other: &[(NodeId, Dist)],
        s: Dist,
        admit: &mut impl FnMut(NodeId, Dist) -> bool,
        scratch: &mut Vec<(NodeId, Dist)>,
    ) {
        if !s.is_finite() || other.is_empty() {
            return; // ∞ ⊙ x = ⊥ (Equation (2.2))
        }
        // Disjoint tails (or an empty accumulator) append in place
        // without touching the scratch.
        if self
            .entries
            .last()
            .is_none_or(|&(last, _)| last < other[0].0)
        {
            self.entries.extend(
                other
                    .iter()
                    .map(|&(v, d)| (v, d + s))
                    .filter(|&(v, d)| admit(v, d)),
            );
            return;
        }
        merge::merge_sorted_pruned_into(&self.entries, other, |d| d + s, Dist::min, admit, scratch);
        std::mem::swap(&mut self.entries, scratch);
    }

    /// `self ← base ⊕ extra`, overwriting `self`'s previous contents:
    /// one sorted merge of a node-sorted base list (a span-backed
    /// state) with an **already node-sorted, key-deduplicated** entry
    /// slice, written directly into `self`'s buffer (no scratch, no
    /// re-sort). Collisions take the minimum. The single-merge fast path
    /// for callers that batch their admitted entries before combining
    /// (the LE-list arena recompute gathers all neighbors' surviving
    /// entries, then merges once).
    pub fn assign_merged_min_entries(&mut self, base: &[(NodeId, Dist)], extra: &[(NodeId, Dist)]) {
        debug_assert!(
            extra.windows(2).all(|w| w[0].0 < w[1].0),
            "extra must be node-sorted with unique keys"
        );
        merge::merge_sorted_into(base, extra, |d| d, Dist::min, &mut self.entries);
    }

    /// In-place `self ← self ⊕ other` where `⊕` is the coordinate-wise
    /// minimum (Equation (2.6)): a sorted merge in `O(|self| + |other|)`
    /// through this thread's scratch buffer (allocation-free in steady
    /// state).
    pub fn merge_min(&mut self, other: &DistanceMap) {
        self.merge_min_entries(&other.entries);
    }

    /// [`DistanceMap::merge_min`] over a borrowed entry slice (cf.
    /// [`DistanceMap::merge_scaled_entries_with`]).
    pub fn merge_min_entries(&mut self, other: &[(NodeId, Dist)]) {
        if other.is_empty() {
            return;
        }
        if self
            .entries
            .last()
            .is_none_or(|&(last, _)| last < other[0].0)
        {
            self.entries.extend_from_slice(other);
            return;
        }
        merge::with_dist_scratch(|scratch| {
            merge::merge_sorted_into(&self.entries, other, |d| d, Dist::min, scratch);
            std::mem::swap(&mut self.entries, scratch);
        });
    }

    /// Runs `edit` on the raw entry vector, then restores the node-sorted
    /// min-deduplicated no-`∞` invariant. Lets filters rewrite a map in
    /// its own buffer instead of building a replacement map (the LE
    /// filter sorts by distance, filters, and hands the buffer back).
    pub fn edit_entries(&mut self, edit: impl FnOnce(&mut Vec<(NodeId, Dist)>)) {
        edit(&mut self.entries);
        self.entries.retain(|(_, d)| d.is_finite());
        self.entries.sort_unstable_by_key(|&(v, d)| (v, d));
        self.entries.dedup_by(|next, prev| prev.0 == next.0); // keeps first = min dist
    }
}

/// `true` iff `a` and `b` agree within relative tolerance `rel`
/// (infinities must match exactly).
pub fn dist_close(a: Dist, b: Dist, rel: f64) -> bool {
    match (a.is_finite(), b.is_finite()) {
        (true, true) => {
            let (x, y) = (a.value(), b.value());
            (x - y).abs() <= rel * x.abs().max(y.abs()).max(1.0)
        }
        (false, false) => true,
        _ => false,
    }
}

impl Semimodule<MinPlus> for DistanceMap {
    #[inline]
    fn zero() -> Self {
        DistanceMap::new()
    }

    #[inline]
    fn add_assign(&mut self, rhs: &Self) {
        self.merge_min(rhs);
    }

    /// `(s ⊙ x)_v = s + x_v` (Equation (2.7)); `∞ ⊙ x = ⊥` (zero
    /// preservation, Equation (2.2)).
    fn scale(&self, s: &MinPlus) -> Self {
        let d = s.0;
        if !d.is_finite() {
            return DistanceMap::new();
        }
        if d == Dist::ZERO {
            return self.clone();
        }
        DistanceMap {
            entries: self.entries.iter().map(|&(v, x)| (v, x + d)).collect(),
        }
    }

    #[inline]
    fn is_sane(&self) -> bool {
        self.entries.iter().all(|&(_, d)| !d.is_poisoned())
    }

    fn poison(&mut self) {
        match self.entries.first_mut() {
            Some(entry) => entry.1 = Dist::poisoned(),
            None => self.entries.push((0, Dist::poisoned())),
        }
    }

    fn fits(&self, n: usize) -> bool {
        self.entries.iter().all(|&(u, _)| (u as usize) < n)
    }
}

impl FromIterator<(NodeId, Dist)> for DistanceMap {
    fn from_iter<T: IntoIterator<Item = (NodeId, Dist)>>(iter: T) -> Self {
        DistanceMap::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(pairs: &[(NodeId, f64)]) -> DistanceMap {
        DistanceMap::from_entries(pairs.iter().map(|&(v, d)| (v, Dist::new(d))).collect())
    }

    #[test]
    fn from_entries_sorts_dedups_and_drops_infinite() {
        let m = DistanceMap::from_entries(vec![
            (3, Dist::new(1.0)),
            (1, Dist::new(2.0)),
            (3, Dist::new(0.5)),
            (2, Dist::INF),
        ]);
        assert_eq!(m.entries(), &[(1, Dist::new(2.0)), (3, Dist::new(0.5))]);
    }

    #[test]
    fn get_returns_infinity_for_missing() {
        let m = dm(&[(1, 2.0)]);
        assert_eq!(m.get(1), Dist::new(2.0));
        assert_eq!(m.get(7), Dist::INF);
    }

    #[test]
    fn merge_min_is_coordinatewise_min() {
        let mut a = dm(&[(1, 2.0), (3, 5.0)]);
        let b = dm(&[(1, 3.0), (2, 1.0), (3, 4.0)]);
        a.merge_min(&b);
        assert_eq!(a, dm(&[(1, 2.0), (2, 1.0), (3, 4.0)]));
    }

    #[test]
    fn merge_scaled_matches_scale_then_merge() {
        let mut acc = dm(&[(1, 2.0), (3, 5.0), (7, 1.0)]);
        let other = dm(&[(1, 0.5), (2, 1.0), (9, 3.0)]);
        let mut expected = acc.clone();
        expected.merge_min(&other.scale(&MinPlus::new(1.5)));
        acc.merge_scaled(&other, Dist::new(1.5));
        assert_eq!(acc, expected);
    }

    #[test]
    fn merge_scaled_entries_with_swaps_caller_scratch() {
        let mut acc = dm(&[(1, 2.0), (3, 5.0)]);
        let other = dm(&[(2, 1.0), (3, 1.0)]);
        let mut scratch: Vec<(NodeId, Dist)> = Vec::with_capacity(64);
        acc.merge_scaled_entries_with(other.entries(), Dist::new(1.0), &mut scratch);
        assert_eq!(acc, dm(&[(1, 2.0), (2, 2.0), (3, 2.0)]));
        // The buffers were swapped: the scratch now carries the
        // accumulator's previous entries (and its old capacity moved
        // into the accumulator), so repeated merges reuse allocations.
        assert_eq!(scratch, vec![(1, Dist::new(2.0)), (3, Dist::new(5.0))]);
        // Appending fast path leaves the scratch untouched.
        let tail = dm(&[(9, 1.0)]);
        scratch.clear();
        acc.merge_scaled_entries_with(tail.entries(), Dist::ZERO, &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(acc.get(9), Dist::new(1.0));
    }

    #[test]
    fn merge_scaled_pruned_always_admit_matches_unpruned() {
        let cases = [
            (
                dm(&[(1, 2.0), (3, 5.0), (7, 1.0)]),
                dm(&[(1, 0.5), (2, 1.0), (9, 3.0)]),
            ),
            (dm(&[]), dm(&[(2, 1.0), (9, 3.0)])), // empty-accumulator fast path
            (dm(&[(1, 2.0)]), dm(&[(5, 1.0), (9, 3.0)])), // disjoint-tail fast path
        ];
        for (acc0, other) in cases {
            let mut plain = acc0.clone();
            plain.merge_scaled(&other, Dist::new(1.5));
            let mut pruned = acc0.clone();
            pruned.merge_scaled_pruned_entries(other.entries(), Dist::new(1.5), &mut |_, _| true);
            assert_eq!(plain, pruned);
        }
    }

    #[test]
    fn merge_scaled_pruned_rejects_absent_keys_only() {
        let mut acc = dm(&[(1, 2.0), (3, 5.0)]);
        let other = dm(&[(1, 0.5), (2, 1.0), (9, 3.0)]);
        // Reject everything: collisions still combine, absent keys dropped.
        acc.merge_scaled_pruned_entries(other.entries(), Dist::new(1.0), &mut |_, _| false);
        assert_eq!(acc, dm(&[(1, 1.5), (3, 5.0)]));
    }

    #[test]
    fn merge_scaled_pruned_fast_paths_consult_predicate() {
        // Empty accumulator.
        let mut acc = DistanceMap::new();
        let other = dm(&[(2, 1.0), (4, 2.0)]);
        acc.merge_scaled_pruned_entries(other.entries(), Dist::new(1.0), &mut |v, _| v == 4);
        assert_eq!(acc, dm(&[(4, 3.0)]));
        // Disjoint tail append.
        let mut acc = dm(&[(1, 1.0)]);
        acc.merge_scaled_pruned_entries(other.entries(), Dist::new(1.0), &mut |v, _| v == 2);
        assert_eq!(acc, dm(&[(1, 1.0), (2, 2.0)]));
    }

    #[test]
    fn assign_merged_min_overwrites_with_single_merge() {
        let base = dm(&[(1, 2.0), (3, 5.0), (7, 1.0)]);
        let mut out = dm(&[(9, 9.0)]); // stale contents must vanish
        let extra = [
            (2, Dist::new(1.5)),
            (3, Dist::new(4.0)), // collision: min wins
            (8, Dist::new(0.5)),
        ];
        out.assign_merged_min_entries(base.entries(), &extra);
        assert_eq!(out, dm(&[(1, 2.0), (2, 1.5), (3, 4.0), (7, 1.0), (8, 0.5)]));
        // Empty extra reproduces `base` exactly.
        out.assign_merged_min_entries(base.entries(), &[]);
        assert_eq!(out, base);
    }

    #[test]
    fn scale_adds_uniformly_and_preserves_zero() {
        use crate::semiring::Semiring;
        let a = dm(&[(1, 2.0), (2, 0.0)]);
        let scaled = a.scale(&MinPlus::new(1.5));
        assert_eq!(scaled, dm(&[(1, 3.5), (2, 1.5)]));
        assert_eq!(a.scale(&<MinPlus as Semiring>::zero()), DistanceMap::new());
        assert_eq!(a.scale(&<MinPlus as Semiring>::one()), a);
    }

    #[test]
    fn semimodule_add_matches_merge() {
        let a = dm(&[(0, 1.0)]);
        let b = dm(&[(0, 0.5), (9, 2.0)]);
        let sum = Semimodule::<MinPlus>::add(&a, &b);
        assert_eq!(sum, dm(&[(0, 0.5), (9, 2.0)]));
    }
}
