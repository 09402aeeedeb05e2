//! The all-paths semiring `P_{min,+}` (Definition 3.17 of the paper),
//! required for problems that must distinguish different paths of equal
//! weight, such as the k-Shortest Distance Problem (k-SDP, Section 3.3).
//!
//! An element assigns a weight from `R≥0 ∪ {∞}` to every non-empty
//! directed **walk** over `V`; we say it *contains* the walks with finite
//! weight. `⊕` takes the walk-wise minimum; `⊙` concatenates contained
//! walks (Equations (3.14)/(3.15)).
//!
//! **Why walks rather than simple paths:** the paper states `P` as the
//! loop-free paths, but with that reading the k-SDP projection is *not* a
//! representative projection — filtering can discard a suboptimal simple
//! path whose extension stays simple while the kept optimum's extension
//! closes a loop and vanishes, breaking Equation (2.12). (Counterexample:
//! keep `(3,2,0)` over `(3,0)`, then multiply by `(2,3)`.) Lemma 3.22's
//! proof implicitly assumes every concatenation `π₁ ∘ π₂` exists, i.e.
//! walk semantics, which is what this implementation uses — our
//! congruence property tests found the discrepancy and verify the walk
//! version. k-SDP consequently reports the k shortest *walks* (Eppstein
//! semantics); with positive weights the shortest walk is a simple path.
//!
//! The multiplicative identity `1` contains *every* single-vertex path
//! `(v)` with weight 0 (Equation (3.17)) — a global object. We represent it
//! symbolically with the `has_identity` flag instead of materializing `V`.

use crate::dist::Dist;
use crate::semiring::Semiring;
use crate::NodeId;

/// A directed walk, stored as its vertex sequence (non-empty;
/// consecutive vertices distinct).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Path(Box<[NodeId]>);

impl Path {
    /// The zero-hop path `(v)`.
    pub fn single(v: NodeId) -> Path {
        Path(Box::new([v]))
    }

    /// The one-hop path `(v, w)`; panics if `v == w` (graphs have no
    /// self-loops).
    pub fn edge(v: NodeId, w: NodeId) -> Path {
        assert_ne!(v, w, "graphs have no self-loops");
        Path(Box::new([v, w]))
    }

    /// Builds a walk from a vertex sequence, returning `None` if it is
    /// empty or stutters (repeats a vertex consecutively).
    pub fn from_nodes(nodes: &[NodeId]) -> Option<Path> {
        if nodes.is_empty() || nodes.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(Path(nodes.into()))
    }

    /// Vertex sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }

    /// First vertex.
    #[inline]
    pub fn first(&self) -> NodeId {
        self.0[0]
    }

    /// Last vertex.
    #[inline]
    pub fn last(&self) -> NodeId {
        *self.0.last().unwrap()
    }

    /// Number of hops (`|p|` in the paper's notation).
    #[inline]
    pub fn hops(&self) -> usize {
        self.0.len() - 1
    }

    /// Concatenation `self ◦ other` (Equation (3.13)): defined iff
    /// `self.last() == other.first()`. Walks may revisit vertices (see
    /// the module docs on why this is required for the congruence laws).
    pub fn concat(&self, other: &Path) -> Option<Path> {
        if self.last() != other.first() {
            return None;
        }
        let mut nodes = Vec::with_capacity(self.0.len() + other.0.len() - 1);
        nodes.extend_from_slice(&self.0);
        nodes.extend_from_slice(&other.0[1..]);
        Some(Path(nodes.into_boxed_slice()))
    }
}

/// Element of the all-paths semiring `P_{min,+}`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AllPaths {
    /// If set, every single-vertex path `(v)` implicitly has weight 0.
    has_identity: bool,
    /// Explicitly contained paths with their weights, sorted by path,
    /// unique; all weights finite; no single-vertex entries while
    /// `has_identity` holds (they are dominated by the implicit 0).
    entries: Vec<(Path, Dist)>,
}

impl AllPaths {
    /// Element containing exactly one path.
    pub fn from_path(p: Path, w: Dist) -> AllPaths {
        AllPaths::normalize(false, vec![(p, w)])
    }

    /// The adjacency coefficient `a_vw` for an edge of weight `ω`
    /// (Equation (3.18)): contains only the path `(v, w)`.
    pub fn edge(v: NodeId, w: NodeId, weight: Dist) -> AllPaths {
        AllPaths::from_path(Path::edge(v, w), weight)
    }

    /// The initialization value for node `v` (Equation (3.19)): contains
    /// only the zero-hop path `(v)` with weight 0.
    pub fn source(v: NodeId) -> AllPaths {
        AllPaths::normalize(false, vec![(Path::single(v), Dist::ZERO)])
    }

    /// Weight assigned to `π` (`∞` when not contained).
    #[cfg(test)]
    fn weight_of(&self, p: &Path) -> Dist {
        if self.has_identity && p.hops() == 0 {
            return Dist::ZERO;
        }
        match self.entries.binary_search_by(|(q, _)| q.cmp(p)) {
            Ok(i) => self.entries[i].1,
            Err(_) => Dist::INF,
        }
    }

    /// Explicit entries (does not enumerate the identity's implicit
    /// single-vertex paths).
    #[inline]
    pub fn entries(&self) -> &[(Path, Dist)] {
        &self.entries
    }

    /// Whether all single-vertex paths are implicitly contained at 0.
    #[inline]
    pub fn contains_identity(&self) -> bool {
        self.has_identity
    }

    /// Rebuilds an element from possibly unsorted/duplicated entries.
    pub fn normalize(has_identity: bool, mut entries: Vec<(Path, Dist)>) -> AllPaths {
        // When the identity flag holds, every (v) already has weight
        // min(0, w) = 0; explicit single-vertex entries are redundant.
        entries.retain(|(p, w)| w.is_finite() && !(has_identity && p.hops() == 0));
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        entries.dedup_by(|next, prev| prev.0 == next.0); // keeps min weight
        AllPaths {
            has_identity,
            entries,
        }
    }
}

impl Semiring for AllPaths {
    /// `0 = (∞, …, ∞)` — contains no path (Equation (3.16)).
    fn zero() -> Self {
        AllPaths {
            has_identity: false,
            entries: Vec::new(),
        }
    }

    /// `1` — contains every `(v)` at weight 0 (Equation (3.17)).
    fn one() -> Self {
        AllPaths {
            has_identity: true,
            entries: Vec::new(),
        }
    }

    /// Path-wise minimum (Equation (3.14)).
    fn add(&self, rhs: &Self) -> Self {
        let mut entries = Vec::with_capacity(self.entries.len() + rhs.entries.len());
        entries.extend_from_slice(&self.entries);
        entries.extend_from_slice(&rhs.entries);
        AllPaths::normalize(self.has_identity || rhs.has_identity, entries)
    }

    /// Concatenation product (Equation (3.15)): the lightest two-split
    /// `π = π1 ◦ π2` with `π1` from `self` and `π2` from `rhs`.
    fn mul(&self, rhs: &Self) -> Self {
        let mut entries = Vec::new();
        for (p1, w1) in &self.entries {
            for (p2, w2) in &rhs.entries {
                if let Some(p) = p1.concat(p2) {
                    entries.push((p, *w1 + *w2));
                }
            }
        }
        if self.has_identity {
            // π1 = (first(π2)) at weight 0 ⇒ π2 carries over unchanged.
            entries.extend_from_slice(&rhs.entries);
        }
        if rhs.has_identity {
            entries.extend_from_slice(&self.entries);
        }
        AllPaths::normalize(self.has_identity && rhs.has_identity, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: f64) -> Dist {
        Dist::new(v)
    }

    #[test]
    fn concat_requires_matching_endpoint() {
        let ab = Path::edge(0, 1);
        let bc = Path::edge(1, 2);
        let ca = Path::edge(2, 0);
        assert_eq!(ab.concat(&bc).unwrap().nodes(), &[0, 1, 2]);
        assert!(ab.concat(&ca).is_none()); // endpoints do not match
        let abc = ab.concat(&bc).unwrap();
        // Walks may close cycles (required for the congruence laws).
        assert_eq!(abc.concat(&ca).unwrap().nodes(), &[0, 1, 2, 0]);
    }

    #[test]
    fn identity_is_neutral() {
        let x = AllPaths::edge(0, 1, d(2.0));
        assert_eq!(AllPaths::one().mul(&x), x);
        assert_eq!(x.mul(&AllPaths::one()), x);
    }

    #[test]
    fn zero_annihilates_and_is_neutral_for_add() {
        let x = AllPaths::edge(0, 1, d(2.0));
        assert_eq!(AllPaths::zero().mul(&x), AllPaths::zero());
        assert_eq!(x.mul(&AllPaths::zero()), AllPaths::zero());
        assert_eq!(AllPaths::zero().add(&x), x);
    }

    #[test]
    fn mul_concatenates_paths_and_adds_weights() {
        let ab = AllPaths::edge(0, 1, d(2.0));
        let bc = AllPaths::edge(1, 2, d(3.0));
        let prod = ab.mul(&bc);
        let p = Path::from_nodes(&[0, 1, 2]).unwrap();
        assert_eq!(prod.weight_of(&p), d(5.0));
        assert_eq!(prod.entries().len(), 1);
    }

    #[test]
    fn add_keeps_minimum_weight_per_path() {
        let p = Path::from_nodes(&[0, 1]).unwrap();
        let a = AllPaths::from_path(p.clone(), d(5.0));
        let b = AllPaths::from_path(p.clone(), d(2.0));
        assert_eq!(a.add(&b).weight_of(&p), d(2.0));
    }

    #[test]
    fn source_times_edge_builds_two_hop_path() {
        // a_vw ⊙ x_w with x_w = source(w): contains (v, w) at ω.
        let a = AllPaths::edge(7, 8, d(1.5));
        let x = AllPaths::source(8);
        let res = a.mul(&x);
        assert_eq!(res.weight_of(&Path::edge(7, 8)), d(1.5));
    }

    #[test]
    fn identity_single_vertex_weight_is_zero() {
        let one = AllPaths::one();
        assert_eq!(one.weight_of(&Path::single(42)), Dist::ZERO);
        assert_eq!(one.weight_of(&Path::edge(0, 1)), Dist::INF);
    }
}
