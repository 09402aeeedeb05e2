//! The oracle for MBF-like queries on `H` (Section 5 of the paper).
//!
//! By Lemma 5.1 the adjacency matrix of `H` decomposes as
//! `A_H = ⊕_{λ=0}^{Λ} P_λ A_λ^d P_λ`, where `P_λ` projects onto nodes of
//! level `≥ λ` and `A_λ` is `G'`'s adjacency matrix with weights scaled by
//! `(1+ε̂)^{Λ−λ}`. Because filters may be applied at any time without
//! changing the output class (Corollary 2.17, Equation (5.9)), one
//! iteration of any MBF-like algorithm on `H` is simulated as
//!
//! ```text
//! x ← r^V ( ⊕_λ  P_λ (r^V A_λ)^d P_λ x )
//! ```
//!
//! using only `G'`'s `O(m)` edges — `Λ·d ∈ polylog n` cheap iterations
//! instead of one `Ω(n²)` dense product (Theorem 5.2).
//!
//! # One level loop, two lanes, one backend
//!
//! One oracle round is one MBF-like iteration on `H`, so the oracle is a
//! [`StateBackend`], [`OracleBackend`], whose hop is a simulated
//! `H`-iteration: [`crate::run`]'s drivers run it over `sim.augmented()`
//! like any other backend, and its hops and checkpoints count rounds.
//! The simulation is written once, as the level loop of this module,
//! over the sealed [`Lane`] trait. A lane is a [`StateBackend`] — one
//! level's vector `y_λ` and the engine hopping over it — plus the
//! projection and aggregation hooks; the loop owns everything else. Two
//! backends are lanes:
//!
//! * arena ([`crate::arena::ArenaBackend`]) — every level vector an
//!   epoch-arena store; the production path of the LE lists,
//! * dense ([`crate::dense::DenseBackend`]) — every level vector and the
//!   aggregate a dense block; the APSP route of `approximate_metric`.
//!
//! The lane contract: [`Lane::lane`] builds one level's `⊥` vector with
//! its schedule's change log on; [`Lane::import`] / [`Lane::export`] /
//! [`Lane::into_export`] convert the aggregate to and from owned states;
//! [`Lane::project`]
//! compare-and-assigns one slot of the projection `y_λ[v] ← P_λ x[v]`
//! and reports whether it rewrote; [`Lane::mark_all_dirty`] and
//! [`Lane::mark_dirty`] seed the rewrites into the lane's frontier; the
//! hops go through the backend, and [`Lane::drain_change_log`] hands
//! over the slots they changed;
//! [`Lane::fold`] aggregates one vertex over the lanes of levels
//! `0..=level(v)` in ascending-`λ` order, filter fused in, and
//! [`Lane::commit`] writes a changed fold back into `x`; [`Lane::poison`]
//! corrupts a slot for the `oracle_level_loop` fault site;
//! [`Lane::book`] books lane-held counters once per round. Both
//! lanes compute the same states, so they are bit-identical in states,
//! iteration counts and fixpoint flags, and in `work.iterations` (the hop
//! schedule is shared); the other counters are in each backend's own
//! currency.
//!
//! The reference is the **literal oracle loop** of the test suites
//! (`tests/common/mod.rs::literal_oracle`): each round projects `x` for
//! every `λ`, applies the one-shot [`crate::engine::iterate_scaled`]
//! kernel `d` times, folds the levels in ascending order and filters,
//! and stops at the first round that changes nothing. It shares no code
//! with the lanes, the carry-over schedule below or the level loop, and
//! both lanes are asserted bit-identical to it by the conformance matrix
//! (`tests/common/matrix.rs`).
//!
//! # Carry-over
//!
//! The inner `(r^V A_λ)^d` loops run on persistent engines with
//! **frontier carry-over across simulated `H`-iterations**: instead of
//! rewriting `y ← P_λ x` wholesale and restarting all-dirty, each level
//! diffs the projection against its own buffer from the previous round,
//! rewrites only the vertices whose projected state actually changed,
//! and seeds exactly those into the engine (on top of the engine's
//! residual frontier — changes from its own last hop that neighbors have
//! not yet absorbed). A vertex outside the closed neighborhood of
//! (residual ∪ changed) provably recomputes to its current value, so the
//! carry-over schedule is **bit-identical** to the all-dirty restart
//! (asserted against the literal oracle loop). Only a level's very first
//! round (no previous buffer to diff against) sweeps all-dirty. Hops
//! after the level's fixpoint are skipped outright — the iteration map
//! is deterministic, so an
//! unchanged state vector can never change again, and the result is
//! bit-identical to running all `d` hops.
//!
//! The **diff itself is frontier-sized**, not `O(n)` per round: the
//! slots where `y_λ` can disagree with the fresh projection `P_λ x` are
//! contained in `moved_λ ∪ C`, where `moved_λ` is the set of `y`-slots
//! the level itself touched in its last executed round (projection
//! rewrites plus the engine's change log of its inner hops) and `C` is
//! the set of vertices of `x` the previous aggregation changed. Every
//! other slot satisfies `y_λ[v] = P_λ x_prev[v] = P_λ x[v]`, or is a
//! relay a settled level kept (below), and is skipped without being
//! read. The aggregation is frontier-sized by the
//! same argument: `x[v] = r(⊕_λ P_λ y_λ[v])` holds for every vertex at
//! the end of a round, so only vertices some level moved this round can
//! aggregate to a new value — its per-round cost follows the moved sets
//! instead of staying `Θ(Λ·n)`. (Only the round after a wholesale
//! rewrite pays one full diff: a wholesale round has no moved set.)
//!
//! **Relay slots** are what keeps a round's work from shrinking to what
//! the projection moved: a vertex `v` with `level(v) < λ` projects to
//! `⊥`, yet after the hops its `y_λ[v]` holds the non-`⊥` value it
//! relays. A round that resets relays rewrites each such slot in the
//! diff back to `⊥` and replays the relay waves, even when `x` changed
//! at only a handful of vertices. Only **unsettled** levels still do so.
//!
//! **Settled levels** keep their relays. A level is settled when its
//! last executed round's hop loop stopped on a hop that changed nothing,
//! not on running out of `d` hops, so its `y` is a fixpoint:
//! `r^V A_λ y = y`. Its next round rewrites only the projected slots
//! (`level(v) ≥ λ`) of the diff to `P_λ x'` and leaves every relay slot
//! as it is; the seeding, the hops and the moved bookkeeping are
//! unchanged. A wholesale round (the unprimed first one) rewrites every
//! slot as before. This is exact:
//!
//! * the start vector is `s₀ = P_λ x' ⊕ y`: at a projected slot the
//!   aggregation already folded `y[v]` into `x'[v]`, so
//!   `x'[v] ~ x'[v] ⊕ y[v]`; at a relay slot `s₀[v] = y[v]`;
//! * by linearity (Corollary 2.17),
//!   `(r^V A_λ)^d s₀ ~ (r^V A_λ)^d P_λ x' ⊕ (r^V A_λ)^d y = y' ⊕ y`,
//!   where `y'` is the reset round's output;
//! * `y' ⊕ y ~ y'`: `x' ≤ x` (`a_vv = 1`), so every walk behind `y`
//!   has a walk of the same length behind `y'` that dominates it;
//! * so `r^V` picks the same representative, and the floats agree too:
//!   they rest only on `fl(a+s) ≤ fl(b+s)` for `a ≤ b`, which the
//!   frontier skip already relies on.
//!
//! An unsettled `y` must still reset: a kept entry would start up to `d`
//! hops early and could reach what only hop `d+1` would reach. The reset
//! diff leaves relays outside `moved_λ ∪ C` alone; such a slot was last
//! written by a settled round, so the argument above covers it: its
//! value belongs to a fixpoint that every later output dominates. A
//! round whose `oracle_level_loop` fault site poisoned it resets and
//! ends unsettled: the poison wrote into `y` behind the engine's back.
//!
//! **Idle levels** skip the round altogether. If no vertex of `C` has
//! `level ≥ λ`, then `P_λ x` equals the projection the level last
//! executed on, so its output `(r^V A_λ)^d P_λ x` is the `y_λ` it
//! already holds: the round returns at once and touches nothing — not
//! `y`, the engine's residual frontier and deltas, nor `moved_λ`. The
//! next executed round's diff stays exact: the skipped rounds' changes
//! all lie below `λ` and leave the projection alone, so `moved_λ` of
//! the last executed round plus the latest `C` still cover every slot
//! that can disagree. The aggregation ignores idle levels (they moved
//! nothing). A level never idles unprimed (its first round, also after
//! a checkpoint resume) or in a round its `oracle_level_loop` fault site
//! poisoned it.
//!
//! # Parallel structure
//!
//! The `Λ + 1` level contributions `P_λ (r^V A_λ)^d P_λ x` are mutually
//! independent — they all read the same input vector `x` — so the level
//! loop runs **in parallel** (one task per level, each with its own
//! lane, reused across simulated `H`-iterations). The aggregation
//! `⊕_λ P_λ y_λ` then runs parallel over *vertices*, each folding its
//! level contributions in ascending-`λ` order — a fixed combination
//! order independent of the thread count, so oracle outputs are
//! bit-identical for every `MTE_THREADS` (asserted by the determinism
//! suite). Per-level `WorkStats` merge through the same fixed-shape
//! reduction tree.

use crate::engine::{initial_states, MbfAlgorithm};
use crate::error::RunError;
use crate::run::{Checkpoint, StateBackend};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::{MinPlus, NodeId};
use mte_faults::{FaultKind, FaultSite};
use mte_graph::Graph;
use rayon::prelude::*;

pub(crate) mod sealed {
    /// Keeps [`super::Lane`] implemented by this crate's backends only.
    pub trait Sealed {}
}

/// One level's vector `y_λ`: a state backend plus the projection and
/// aggregation the level loop needs. Sealed: implemented by
/// [`crate::arena::ArenaBackend`] and [`crate::dense::DenseBackend`].
/// See the module docs for the contract.
pub trait Lane<A: MbfAlgorithm<S = MinPlus>>:
    sealed::Sealed + StateBackend<A> + Send + Sync
{
    /// The aggregate state vector `x` the levels project from.
    type X: Sync;
    /// One vertex's new aggregate, staged between [`Lane::fold`] and
    /// [`Lane::commit`].
    type Folded: Send;

    /// One level's lane over `n` vertices: every slot `⊥`, with its
    /// schedule's change log on.
    fn lane(n: usize) -> Self;
    /// The aggregate holding `states` (the initial `r^V x⁽⁰⁾` or a
    /// checkpoint's). A state naming a vertex `≥ states.len()` is
    /// [`RunError::SnapshotCorrupt`].
    fn import(alg: &A, states: &[A::M]) -> Result<Self::X, RunError>;
    /// The aggregate as owned states, for a checkpoint capture.
    fn export(x: &Self::X) -> Vec<A::M>;
    /// The final states, once the run ends.
    fn into_export(x: Self::X) -> Vec<A::M> {
        Self::export(&x)
    }
    /// Declares every vertex dirty: `y` was rewritten wholesale.
    fn mark_all_dirty(&mut self, g: &Graph);
    /// Seeds `vs` into the frontier (their slots were rewritten outside
    /// the engine), keeping the residual frontier.
    fn mark_dirty(&mut self, g: &Graph, vs: &[NodeId]);
    /// Appends the vertices the hops changed since the last drain —
    /// sorted, deduplicated — to `out`.
    fn drain_change_log(&mut self, out: &mut Vec<NodeId>);
    /// Compare-and-assign `y[v] ← keep ? x[v] : ⊥`; returns whether the
    /// slot was rewritten.
    fn project(&mut self, alg: &A, x: &Self::X, v: NodeId, keep: bool) -> bool;
    /// `r(⊕ y_λ[v])` over `lanes` (levels `0..=level(v)`, ascending),
    /// or `None` if it equals `x[v]`.
    fn fold<'a>(
        alg: &A,
        lanes: impl Iterator<Item = &'a Self>,
        x: &Self::X,
        v: NodeId,
    ) -> Option<Self::Folded>
    where
        Self: 'a;
    /// Writes a fold that differed into `x[v]`.
    fn commit(x: &mut Self::X, v: NodeId, folded: Self::Folded);
    /// Corrupts one slot of `y` (the `oracle_level_loop` fault site).
    fn poison(&mut self, alg: &A);
    /// Books the counters the lanes hold rather than their hops into
    /// one round's `work`, once per round.
    fn book<'a>(_lanes: impl Iterator<Item = &'a mut Self>, _work: &mut WorkStats)
    where
        Self: 'a,
    {
    }
}

/// A lane plus its carry-over bookkeeping. `primed` flips once the level
/// has run its first round — from then on the lane's `y` holds the
/// level's own `(r^V A_λ)^d P_λ x` from the previous simulated
/// iteration, the baseline the next projection is diffed against.
struct Level<L> {
    lane: L,
    primed: bool,
    /// `y`-slots this level changed during its last executed round —
    /// projection rewrites plus the engine's inner-hop change log —
    /// sorted ascending, deduplicated; an idle round keeps it. The
    /// frontier-sized diff of the next executed round only examines
    /// `moved ∪ C`. Meaningless while `moved_all`.
    moved: Vec<NodeId>,
    /// The last executed round rewrote `y` wholesale (the priming
    /// round): the next diff must examine every slot and the aggregation
    /// cannot skip anything.
    moved_all: bool,
    /// This round was skipped because the projected input did not
    /// change: everything above still describes the last executed round,
    /// and the aggregation ignores the level.
    idle: bool,
    /// The last executed round's hop loop stopped on a hop that changed
    /// nothing (not on running out of `d` hops) and was not poisoned: `y`
    /// is a fixpoint of `r^V A_λ`, so the next round may keep its relay
    /// slots.
    settled: bool,
    /// Scratch: this round's projection-rewrite seeds.
    seeds: Vec<NodeId>,
}

impl<L> Level<L> {
    /// One level's share of a simulated `H`-iteration: rewrite the
    /// projection baseline, run `(r^V A_λ)^d` on the lane, and record
    /// the moved `y`-slots. `x_changed` is the set of `x`-slots the
    /// previous aggregation changed (`None` = unknown, diff everything).
    fn round<A>(
        &mut self,
        alg: &A,
        sim: &SimulatedGraph,
        lambda: u32,
        x: &L::X,
        x_changed: Option<&[NodeId]>,
    ) -> WorkStats
    where
        A: MbfAlgorithm<S = MinPlus>,
        L: Lane<A>,
    {
        // Fault-injection site: one level task fails (`panic`) or
        // corrupts its level state (`poison_nan`) while the sibling
        // levels keep running.
        let site = FaultSite::OracleLevelLoop;
        let fired = mte_faults::check_for(site, &[FaultKind::Panic, FaultKind::PoisonNan]);
        match fired {
            Some(FaultKind::Panic) => mte_faults::trigger_panic(site),
            Some(FaultKind::PoisonNan) => self.lane.poison(alg),
            _ => {}
        }
        let keep = |v: NodeId| sim.levels().level(v) >= lambda;
        // Idle level (module docs): no vertex of level ≥ λ changed in
        // `x`, so `y` already holds this round's output. A poisoned
        // level runs, so the corruption is never parked in `y`.
        self.idle = self.primed
            && fired.is_none()
            && x_changed.is_some_and(|c| !c.iter().any(|&v| keep(v)));
        if self.idle {
            return WorkStats::new();
        }
        let aug = sim.augmented();
        let wholesale = !self.primed;
        // Settled level (module docs): `y` is a fixpoint, so only the
        // projected slots are rewritten and the relays keep their values.
        let keep_relays = !wholesale && self.settled && fired.is_none();
        // The previous round left `moved` (or `moved_all`); this round's
        // diff may only skip slots both unmoved and outside `x_changed`.
        // A wholesale previous round (always the case before a wholesale
        // round: an unprimed level is `moved_all`) or an unknown
        // `x_changed` forces one full diff.
        let full_diff = self.moved_all || x_changed.is_none();
        let Level {
            lane, moved, seeds, ..
        } = self;
        seeds.clear();
        // A slot can disagree with the fresh projection only if this
        // level moved it last round or the aggregation changed its `x`
        // source — everything else still equals `P_λ x` (or is a relay a
        // settled round kept) and is skipped without being read.
        let visit = |v: NodeId| {
            let projected = keep(v);
            if (projected || !keep_relays) && lane.project(alg, x, v, projected) {
                seeds.push(v);
            }
        };
        if full_diff {
            (0..aug.n() as NodeId).for_each(visit);
        } else {
            for_each_sorted_union(moved, x_changed.unwrap_or(&[]), visit);
        }
        if wholesale {
            // First round: the frontier restarts full.
            lane.mark_all_dirty(aug);
            self.primed = true;
        } else {
            lane.mark_dirty(aug, seeds);
        }
        // y ← (r^V A_λ)^d y : d filtered hops on the scaled G'; once a
        // hop changes nothing the level is at its fixpoint and the
        // remaining hops are identity.
        let scale = sim.level_scale(lambda);
        let mut work = WorkStats::new();
        let settled = (0..sim.d()).any(|_| {
            let (w, changed) = lane.step(alg, aug, scale);
            work += w;
            !changed
        });
        // A poisoned `y` was written behind the engine's back.
        self.settled = settled && fired.is_none();
        // Record what this round moved, for the next round's diff and
        // this round's aggregation: rewrites plus hop changes.
        moved.clear();
        lane.drain_change_log(moved);
        self.moved_all = wholesale;
        if wholesale {
            moved.clear();
        } else {
            moved.extend_from_slice(seeds);
            moved.sort_unstable();
            moved.dedup();
        }
        work
    }
}

/// Visits the sorted union of two ascending, duplicate-free vertex
/// lists exactly once per vertex, in ascending order. The co-walk under
/// the frontier-sized carry-over diff, kept in one place because its
/// boundary behavior is correctness-critical.
fn for_each_sorted_union(a: &[NodeId], b: &[NodeId], mut f: impl FnMut(NodeId)) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        f(v);
    }
}

/// The oracle as a [`StateBackend`] on lane `L`: one hop is one
/// simulated `H`-iteration (Theorem 5.2 (1)) over the driver graph
/// `sim.augmented()` at weight scale `1` (the levels scale their own
/// hops); `work.iterations` counts the `G'`-hops of every level. W.h.p.
/// the fixpoint arrives after `SPD(H) ∈ O(log² n)` rounds (Theorems 4.5
/// and 5.2 (2)); see [`default_iteration_cap`].
///
/// `start` and `resume` import the aggregate and build fresh, unprimed
/// levels, whose first round rewrites wholesale — which the carry-over
/// schedule proves bit-identical to continuing, so a checkpoint needs
/// no frontier.
pub struct OracleBackend<'s, A: MbfAlgorithm<S = MinPlus>, L: Lane<A>> {
    sim: &'s SimulatedGraph,
    /// The aggregate `x`, once started or resumed.
    x: Option<L::X>,
    levels: Vec<Level<L>>,
    /// `x`-slots the previous aggregation changed; `None` = unknown (no
    /// previous round), forcing full diffs.
    prev_changed: Option<Vec<NodeId>>,
}

impl<'s, A, L> OracleBackend<'s, A, L>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    /// The oracle on `sim`, loaded by the driver's `start` or `resume`.
    pub fn new(sim: &'s SimulatedGraph) -> Self {
        OracleBackend {
            sim,
            x: None,
            levels: Vec::new(),
            prev_changed: None,
        }
    }

    /// Imports `states` as the aggregate, with fresh levels.
    fn load(&mut self, alg: &A, g: &Graph, states: &[A::M]) -> Result<WorkStats, RunError> {
        self.x = Some(L::import(alg, states)?);
        self.levels = std::iter::repeat_with(|| L::lane(g.n()))
            .take(self.sim.levels().lambda() as usize + 1)
            .map(|lane| Level {
                lane,
                primed: false,
                moved: Vec::new(),
                moved_all: true,
                idle: false,
                settled: false,
                seeds: Vec::new(),
            })
            .collect();
        self.prev_changed = None;
        Ok(WorkStats::new())
    }
}

impl<A, L> StateBackend<A> for OracleBackend<'_, A, L>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.load(alg, g, &initial_states(alg, g.n()))
    }

    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError> {
        self.load(alg, g, &ckpt.states)
    }

    /// One simulated `H`-iteration: the parallel level rounds, then the
    /// frontier-sized aggregation.
    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool) {
        debug_assert!(
            std::ptr::eq(g, self.sim.augmented()) && scale == 1.0,
            "the oracle runs on sim.augmented() at scale 1"
        );
        let OracleBackend {
            sim,
            x,
            levels,
            prev_changed,
        } = self;
        let sim: &SimulatedGraph = sim;
        let x = x.as_mut().expect("oracle backend not started");
        // The Λ+1 level contributions are independent: one parallel
        // task per level (`with_min_len(1)`: Λ is small but each task
        // is heavy). Per-level work tallies merge through the
        // fixed-shape reduction tree.
        let x_ref: &L::X = x;
        let x_changed = prev_changed.as_deref();
        let mut work = levels
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .map(|(lambda, level)| level.round(alg, sim, lambda as u32, x_ref, x_changed))
            .reduce(WorkStats::new, |mut a, b| {
                a += b;
                a
            });
        L::book(levels.iter_mut().map(|l| &mut l.lane), &mut work);

        // Aggregation `x_v ← r(⊕_λ [level(v) ≥ λ] y_λ[v])` can skip
        // every vertex no level moved this round (its fold inputs are
        // unchanged, so recomputation would reproduce the current value
        // bit for bit) — unless some level rewrote wholesale and has no
        // moved set. Idle levels moved nothing this round and count for
        // neither.
        let executed_levels = || levels.iter().filter(|l| !l.idle);
        let recompute: Option<Vec<NodeId>> = if executed_levels().any(|l| l.moved_all) {
            None
        } else {
            let mut union: Vec<NodeId> = executed_levels()
                .flat_map(|l| l.moved.iter().copied())
                .collect();
            union.sort_unstable();
            union.dedup();
            Some(union)
        };
        let levels_ref: &[Level<L>] = levels;
        let fold = |v: NodeId| {
            let lanes = levels_ref.iter().take(sim.levels().level(v) as usize + 1);
            L::fold(alg, lanes.map(|l| &l.lane), x_ref, v).map(|f| (v, f))
        };
        // Both paths collect `(v, new value)` pairs in ascending vertex
        // order (chunk-order concatenation over an ascending input
        // list), independent of the thread count.
        let changed: Vec<(NodeId, L::Folded)> = match recompute.as_deref() {
            None => (0..g.n() as NodeId)
                .into_par_iter()
                .flat_map_iter(fold)
                .collect(),
            Some(list) => list.par_iter().flat_map_iter(|&v| fold(v)).collect(),
        };
        if changed.is_empty() {
            return (work, false);
        }
        let ids: Vec<NodeId> = changed.iter().map(|&(v, _)| v).collect();
        for (v, folded) in changed {
            L::commit(x, v, folded);
        }
        *prev_changed = Some(ids);
        (work, true)
    }

    fn frontier(&self) -> &[NodeId] {
        &[]
    }

    fn export_states(&self) -> Vec<A::M> {
        L::export(self.x.as_ref().expect("oracle backend not started"))
    }

    fn into_states(self) -> Vec<A::M> {
        L::into_export(self.x.expect("oracle backend not started"))
    }
}

/// Default iteration cap: `SPD(H) ∈ O(log² n)` w.h.p. (Theorem 4.5), with
/// a generous constant; the fixpoint check stops earlier in practice.
pub fn default_iteration_cap(n: usize) -> usize {
    let log = (n.max(2) as f64).log2();
    (6.0 * log * log) as usize + 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaBackend;
    use crate::catalog::SourceDetection;
    use crate::dense::{DenseBackend, DenseMbfAlgorithm};
    use crate::engine::{run_to_fixpoint, MbfRun};
    use crate::run::run_to_fixpoint_on;
    use mte_graph::algorithms::shortest_path_diameter;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The arena lane's run of `alg`, and the dense lane's asserted equal
    /// to it in states, round counts and fixpoint flags when `alg`
    /// advertises dense states. Returns the arena run.
    fn lanes_agree(
        alg: &SourceDetection,
        sim: &SimulatedGraph,
        h: usize,
    ) -> MbfRun<mte_algebra::DistanceMap> {
        let arena = arena_oracle(alg, sim, h);
        if alg.advertises_dense() {
            let dense = OracleBackend::<_, DenseBackend>::new(sim);
            let dense = run_to_fixpoint_on(dense, alg, sim.augmented(), h);
            assert_eq!(dense.states, arena.states, "the lanes diverged");
            assert_eq!(dense.iterations, arena.iterations);
            assert_eq!(dense.fixpoint, arena.fixpoint);
        }
        arena
    }

    /// The arena lane's run of `alg`, capped at `h` rounds.
    fn arena_oracle(
        alg: &SourceDetection,
        sim: &SimulatedGraph,
        h: usize,
    ) -> MbfRun<mte_algebra::DistanceMap> {
        let arena = OracleBackend::<_, ArenaBackend>::new(sim);
        run_to_fixpoint_on(arena, alg, sim.augmented(), h)
    }

    /// Theorem 5.2 ground truth: running APSP through the oracle must
    /// agree exactly with running APSP directly on the explicit `H`.
    #[test]
    fn oracle_apsp_equals_explicit_h_apsp() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let spd = shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.2, &mut rng);
        let h_explicit = sim.explicit_h();

        let alg = SourceDetection::apsp(g.n());
        let via_oracle = lanes_agree(&alg, &sim, 4 * g.n());
        assert!(via_oracle.fixpoint);
        let via_h = run_to_fixpoint(&alg, &h_explicit, 4 * g.n());
        assert!(via_h.fixpoint);

        for v in 0..g.n() {
            assert!(
                via_oracle.states[v].approx_eq(&via_h.states[v], 1e-9),
                "oracle and explicit H disagree at node {v}:\n{:?}\nvs\n{:?}",
                via_oracle.states[v],
                via_h.states[v]
            );
        }
    }

    /// `resume` builds fresh, unprimed levels, on a live backend too.
    /// Flagging them primed is invisible in states and in every work
    /// counter (an unsized lane turns `mark_dirty` into
    /// `mark_all_dirty`), so the flags themselves are checked.
    #[test]
    fn resume_builds_fresh_unprimed_levels() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let sim = SimulatedGraph::without_hopset(&g, 4, 0.2, &mut rng);
        let (alg, h) = (SourceDetection::k_ssp(g.n(), 3), sim.augmented());
        let mut oracle = OracleBackend::<_, ArenaBackend>::new(&sim);
        oracle.start(&alg, h).unwrap();
        assert!(oracle.step(&alg, h, 1.0).1);
        assert!(oracle.levels.iter().all(|l| l.primed));
        let ckpt = Checkpoint {
            hop: 1,
            frontier: Vec::new(),
            states: oracle.export_states(),
        };
        oracle.resume(&alg, h, &ckpt).unwrap();
        assert!(oracle.levels.iter().all(|l| !l.primed && l.moved_all));
    }

    #[test]
    fn sorted_union_visits_every_vertex_once_in_order() {
        let union = |a: &[NodeId], b: &[NodeId]| {
            let mut seen = Vec::new();
            for_each_sorted_union(a, b, |v| seen.push(v));
            seen
        };
        assert_eq!(union(&[1, 4, 6], &[0, 4, 5, 9, 12]), [0, 1, 4, 5, 6, 9, 12]);
        assert_eq!(union(&[2, 7, 8], &[2]), [2, 7, 8]);
        assert_eq!(union(&[], &[3, 5]), [3, 5]);
        assert_eq!(union(&[3, 5], &[]), [3, 5]);
        assert!(union(&[], &[]).is_empty());
    }

    #[test]
    fn oracle_single_iteration_matches_h_iteration() {
        // One oracle iteration = one MBF iteration on H (not more).
        let mut rng = StdRng::seed_from_u64(22);
        let g = path_graph(12, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 11, 0.1, &mut rng);
        let h_explicit = sim.explicit_h();
        let alg = SourceDetection::apsp(g.n());

        let o1 = lanes_agree(&alg, &sim, 1);
        assert_eq!(o1.iterations, 1);
        let d1 = crate::engine::run(&alg, &h_explicit, 1);
        for v in 0..g.n() {
            assert!(
                o1.states[v].approx_eq(&d1.states[v], 1e-9),
                "node {v}: {:?} vs {:?}",
                o1.states[v],
                d1.states[v]
            );
        }
    }

    #[test]
    fn fixpoint_reached_within_cap() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = path_graph(64, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 63, 0.1, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let run = arena_oracle(&alg, &sim, default_iteration_cap(g.n()));
        assert!(
            run.fixpoint,
            "no fixpoint within {} iterations",
            default_iteration_cap(g.n())
        );
        // SPD(H) ∈ O(log² n): far fewer than the 64 iterations plain MBF
        // would need on this path.
        assert!(run.iterations < 40, "took {} iterations", run.iterations);
        // Each H-iteration drives Λ+1 inner level loops, so the total
        // G'-hop count dominates the H-iteration count.
        assert!(run.work.iterations >= run.iterations as u64);
    }

    #[test]
    fn fixed_iteration_budget_stops_at_fixpoint() {
        // Regression: the oracle used to hardcode `fixpoint: false` and
        // burn the whole budget even after the states stopped changing.
        // It must stop at the confirming iteration, report the fixpoint,
        // and still return the exact `A^h(H)` states.
        let mut rng = StdRng::seed_from_u64(25);
        let g = path_graph(32, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 31, 0.1, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let budget = 10_000;
        let run = lanes_agree(&alg, &sim, budget);
        assert!(run.fixpoint, "fixpoint not reported");
        assert!(
            run.iterations < budget,
            "burned all {budget} iterations past the fixpoint"
        );
        let fix = arena_oracle(&alg, &sim, 2 * budget);
        assert_eq!(run.states, fix.states);
        assert_eq!(run.iterations, fix.iterations);
        assert_eq!(run.work.iterations, fix.work.iterations);
        // A budget too small to converge reports honestly.
        let short = lanes_agree(&alg, &sim, 1);
        assert!(!short.fixpoint);
        assert_eq!(short.iterations, 1);
    }
}
