//! The per-query answer ladder and its deterministic deadline.
//!
//! A deadline is a **work-unit budget**, never a wall clock: one unit
//! per tree-climb step, one per LE-list entry touched; a batch sweep
//! pays per source one unit per chain node on the source's leaf-to-root
//! path plus one per 64 row writes (`num_levels + ⌈n/64⌉`). Identical
//! queries therefore take identical ladder paths on every run and every
//! thread count — which is what lets the fault sweep and the
//! differential suite pin the ladder bit for bit.
//!
//! The ladder (cheapest first, each rung *skipped* when the remaining
//! budget cannot cover its worst-case cost, the fall recorded in the
//! response):
//!
//! 1. **tree LCA** — leaf-to-leaf climb, bit-identical to
//!    [`FrtTree::leaf_distance`]; the canonical exact answer, at most
//!    `num_levels − 1` steps;
//! 2. **LE-list intersection** — `min_w (d_u(w) + d_v(w))` over common
//!    list nodes, a certified upper bound on the graph distance (both
//!    lists always contain the global minimum-rank node, so the
//!    intersection is never empty);
//! 3. **truncated-list upper bound** — the `Degraded` rung: the shared
//!    tail node plus a budget-capped list prefix, `O(1)` in the worst
//!    case.
//!
//! Only when even rung 3's two-unit floor is unaffordable does the
//! query fail, with [`crate::error::ServeError::DeadlineExceeded`].

use mte_core::frt::{FrtTree, LeList};
use mte_faults::{check_for, trigger_panic, FaultKind, FaultSite};

/// Marker: a [`Meter::charge`] would overdraw the budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted;

/// A query's deterministic deadline: a work-unit budget drawn down by
/// every rung.
#[derive(Clone, Debug)]
pub struct Meter {
    budget: u64,
    spent: u64,
}

impl Meter {
    /// A fresh meter with `budget` work units.
    pub fn new(budget: u64) -> Meter {
        Meter { budget, spent: 0 }
    }

    /// Draws `units` from the budget.
    ///
    /// This is the `serve_query_budget` fault site: every charge is an
    /// arrival, and an injected panic kind aborts the query mid-ladder
    /// (absorbed into a typed error by the guarded front-end).
    pub fn charge(&mut self, units: u64) -> Result<(), BudgetExhausted> {
        if check_for(FaultSite::ServeQueryBudget, &[FaultKind::Panic]).is_some() {
            trigger_panic(FaultSite::ServeQueryBudget);
        }
        self.spent = self.spent.saturating_add(units);
        if self.spent > self.budget {
            Err(BudgetExhausted)
        } else {
            Ok(())
        }
    }

    /// Work units spent so far.
    #[inline]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Work units left before the deadline.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.spent)
    }

    /// The budget this meter was created with.
    #[inline]
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// Which rung of the answer ladder produced a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Never produced: point queries have no cache, so every exact
    /// answer is [`Rung::TreeLca`]. Kept because the pipeline benchmark
    /// matches every variant of this enum.
    CacheHit,
    /// Leaf-LCA tree distance — the canonical exact answer.
    TreeLca,
    /// LE-list intersection — an upper bound on the graph distance.
    ListIntersection,
    /// Truncated-list upper bound — the degraded rung.
    Truncated,
}

/// One recorded fall down the answer ladder (the serving twin of
/// `RunReport.degradations`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDegradation {
    /// The remaining budget could not cover a worst-case leaf-LCA
    /// climb; fell to the intersection rung.
    TreeLcaSkipped,
    /// The remaining budget could not cover a full list intersection;
    /// fell to the truncated rung.
    IntersectionSkipped,
}

/// A served distance answer with its full ladder provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The distance. Exact tree distance for the tree-LCA rung; a
    /// certified upper bound on the graph distance for the list rungs.
    pub value: f64,
    /// The rung that produced `value`.
    pub rung: Rung,
    /// `true` iff `value` is the exact embedded tree distance.
    pub exact: bool,
    /// Work units the query consumed.
    pub work: u64,
    /// Every ladder fall, in the order it happened.
    pub degradations: Vec<ServeDegradation>,
}

/// Worst-case work units of a leaf-LCA climb: one unit per level the
/// two climbers ascend together.
pub(crate) fn tree_climb_bound(tree: &FrtTree) -> u64 {
    tree.num_levels().saturating_sub(1) as u64
}

/// Metered leaf-LCA climb, bit-identical to
/// [`FrtTree::leaf_distance`]: the same loop, the same accumulation
/// order, one work unit per iteration. The caller checks the budget
/// bound up front, so the mid-climb charge only trips if an injected
/// budget fault rewrote the arithmetic — in which case abandoning is
/// the safe answer.
pub(crate) fn tree_distance_metered(
    tree: &FrtTree,
    u: u32,
    v: u32,
    meter: &mut Meter,
) -> Result<f64, BudgetExhausted> {
    let nodes = tree.nodes();
    let mut a = tree.leaf(u);
    let mut b = tree.leaf(v);
    let mut total = 0.0;
    while nodes[a].level < nodes[b].level {
        meter.charge(1)?;
        total += nodes[a].parent_weight;
        a = nodes[a].parent;
    }
    while nodes[b].level < nodes[a].level {
        meter.charge(1)?;
        total += nodes[b].parent_weight;
        b = nodes[b].parent;
    }
    while a != b {
        meter.charge(1)?;
        total += nodes[a].parent_weight + nodes[b].parent_weight;
        a = nodes[a].parent;
        b = nodes[b].parent;
    }
    Ok(total)
}

/// Exact work units a full intersection of `lu` and `lv` costs.
pub(crate) fn intersection_cost(lu: &LeList, lv: &LeList) -> u64 {
    (lu.len() + lv.len()) as u64
}

/// Metered LE-list intersection: `min_w (d_u(w) + d_v(w))` over the
/// nodes common to both lists — an upper bound on the graph distance
/// (the two shortest paths through `w` concatenate). Never infinite on
/// a validated artifact: both lists end at the global minimum-rank
/// node. One work unit per entry touched.
pub(crate) fn list_intersection_metered(
    lu: &LeList,
    lv: &LeList,
    meter: &mut Meter,
) -> Result<f64, BudgetExhausted> {
    let (short, long) = if lu.len() <= lv.len() {
        (lu, lv)
    } else {
        (lv, lu)
    };
    meter.charge(short.len() as u64)?;
    let mut probe: Vec<(u32, f64)> = short
        .entries()
        .iter()
        .map(|&(w, d)| (w, d.value()))
        .collect();
    probe.sort_unstable_by_key(|&(w, _)| w);
    meter.charge(long.len() as u64)?;
    let mut best = f64::INFINITY;
    for &(w, d) in long.entries() {
        if let Ok(i) = probe.binary_search_by_key(&w, |&(node, _)| node) {
            let candidate = d.value() + probe[i].1;
            if candidate < best {
                best = candidate;
            }
        }
    }
    Ok(best)
}

/// LE-list prefix length the degraded rung may inspect.
const TRUNCATE_LEN: usize = 8;

/// The degraded rung: an upper bound from *truncated* lists. The
/// guaranteed two-unit floor reads the shared tail node (the global
/// minimum-rank node closes every LE list, so `d_u(z) + d_v(z)` is
/// always available in `O(1)`); whatever prefix the remaining budget
/// affords — at most [`TRUNCATE_LEN`] entries per list — can only
/// tighten it.
pub(crate) fn truncated_upper_bound(
    lu: &LeList,
    lv: &LeList,
    meter: &mut Meter,
) -> Result<f64, BudgetExhausted> {
    meter.charge(2)?;
    let mut best = match (lu.entries().last(), lv.entries().last()) {
        (Some(&(zu, du)), Some(&(zv, dv))) if zu == zv => du.value() + dv.value(),
        // Unreachable on a validated artifact; infinity keeps the
        // bound sound rather than guessing.
        _ => f64::INFINITY,
    };
    let tu = TRUNCATE_LEN.min(lu.len());
    let tv = TRUNCATE_LEN.min(lv.len());
    if tu > 0 && tv > 0 && meter.charge((tu + tv) as u64).is_ok() {
        let mut probe: Vec<(u32, f64)> = lu.entries()[..tu]
            .iter()
            .map(|&(w, d)| (w, d.value()))
            .collect();
        probe.sort_unstable_by_key(|&(w, _)| w);
        for &(w, d) in &lv.entries()[..tv] {
            if let Ok(i) = probe.binary_search_by_key(&w, |&(node, _)| node) {
                let candidate = d.value() + probe[i].1;
                if candidate < best {
                    best = candidate;
                }
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_trips_exactly_at_the_budget() {
        let mut m = Meter::new(3);
        assert_eq!(m.charge(2), Ok(()));
        assert_eq!(m.charge(1), Ok(()));
        assert_eq!(m.remaining(), 0);
        assert_eq!(m.charge(1), Err(BudgetExhausted));
        // Once overdrawn, every later charge fails too.
        assert_eq!(m.charge(0), Err(BudgetExhausted));
        assert_eq!(m.spent(), 4);
    }
}
