//! The reachability semimodule `B^V` over the Boolean semiring
//! (Section 3.4 of the paper): node states are sets of reachable nodes.

use crate::boolean::Bool;
use crate::semimodule::Semimodule;
use crate::NodeId;
use std::cell::RefCell;

thread_local! {
    /// Per-thread merge scratch for set unions (see [`crate::merge`] for
    /// the rationale).
    static NODE_SCRATCH: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

/// A sparse set of node ids (sorted, deduplicated): an element of `B^V`
/// with the listed coordinates set to 1.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NodeSet {
    nodes: Vec<NodeId>,
}

impl NodeSet {
    /// The empty set `⊥`.
    #[inline]
    pub fn new() -> Self {
        NodeSet { nodes: Vec::new() }
    }

    /// A one-element set.
    pub fn singleton(v: NodeId) -> Self {
        NodeSet { nodes: vec![v] }
    }

    /// Builds a set from arbitrary ids.
    pub fn from_nodes(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        NodeSet { nodes }
    }

    /// Membership test.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sorted elements.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Union fallback allocating a fresh output (used when the scratch
    /// buffer is unavailable to a re-entrant merge).
    fn union_into_fresh(&mut self, rhs: &NodeSet) {
        let mut out = Vec::with_capacity(self.nodes.len() + rhs.nodes.len());
        let (a, b) = (&self.nodes, &rhs.nodes);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.nodes = out;
    }
}

impl Semimodule<Bool> for NodeSet {
    #[inline]
    fn zero() -> Self {
        NodeSet::new()
    }

    /// Union (coordinate-wise `∨`), merged through a thread-local
    /// scratch buffer (allocation-free in steady state).
    fn add_assign(&mut self, rhs: &Self) {
        if rhs.nodes.is_empty() {
            return;
        }
        if self.nodes.is_empty() {
            self.nodes.extend_from_slice(&rhs.nodes);
            return;
        }
        if *self.nodes.last().unwrap() < rhs.nodes[0] {
            self.nodes.extend_from_slice(&rhs.nodes);
            return;
        }
        NODE_SCRATCH.with(|cell| {
            let mut scratch = match cell.try_borrow_mut() {
                Ok(s) => s,
                Err(_) => return self.union_into_fresh(rhs),
            };
            scratch.clear();
            scratch.reserve(self.nodes.len() + rhs.nodes.len());
            let (a, b) = (&self.nodes, &rhs.nodes);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        scratch.push(a[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        scratch.push(b[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        scratch.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            scratch.extend_from_slice(&a[i..]);
            scratch.extend_from_slice(&b[j..]);
            std::mem::swap(&mut self.nodes, &mut scratch);
        });
    }

    /// `1 ⊙ x = x`, `0 ⊙ x = ∅` (coordinate-wise `∧` with a constant).
    fn scale(&self, s: &Bool) -> Self {
        if s.0 {
            self.clone()
        } else {
            NodeSet::new()
        }
    }

    fn fits(&self, n: usize) -> bool {
        self.nodes.iter().all(|&u| (u as usize) < n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;

    #[test]
    fn union_and_scale() {
        let a = NodeSet::from_nodes(vec![3, 1, 3]);
        let b = NodeSet::from_nodes(vec![2, 3]);
        let mut u = a.clone();
        u.add_assign(&b);
        assert_eq!(u.nodes(), &[1, 2, 3]);
        assert_eq!(a.scale(&Bool(true)), a);
        assert!(a.scale(&<Bool as Semiring>::zero()).is_empty());
    }

    #[test]
    fn contains_works() {
        let a = NodeSet::from_nodes(vec![5, 9]);
        assert!(a.contains(5));
        assert!(!a.contains(6));
    }
}
