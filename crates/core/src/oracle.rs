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
//! # One level loop, three lanes
//!
//! The simulation is written once, as the level loop of this module,
//! over a small `Lane` trait. A lane is a [`StateBackend`] — one level's
//! vector `y_λ` and the engine hopping over it — plus the projection
//! and aggregation hooks; the loop owns everything else. Three backends
//! are lanes, each behind its own public entry point:
//!
//! * owned ([`OwnedBackend`]) — [`oracle_run_with_schedule`], the
//!   semantics reference,
//! * arena ([`crate::arena::ArenaBackend`]) —
//!   [`crate::arena::oracle_run_arena_with_schedule`], the production
//!   path of the LE lists,
//! * dense ([`crate::dense::DenseBackend`]) —
//!   [`crate::dense::oracle_run_dense_with_schedule`], the APSP route.
//!
//! The lane contract: `Lane::project` compare-and-assigns one slot of
//! the projection `y_λ[v] ← P_λ x[v]` and reports whether it rewrote,
//! and `Lane::project_all` does so for every slot (the owned lane in
//! parallel); the hops go through the backend (whose change log is on);
//! `Lane::fold` aggregates one vertex over the lanes of levels
//! `0..=level(v)` in ascending-`λ` order, filter fused in, and
//! `Lane::commit` writes a changed fold back into `x`; `Lane::poison`
//! corrupts a slot for the `oracle_level_loop` fault site;
//! `Lane::finish` books lane-held counters once the run ends. Every
//! lane computes the same states, so the three entry points are
//! bit-identical in states, iteration counts and fixpoint flags, and in
//! `work.iterations` and `work.touched_vertices` (the hop schedule is
//! shared); the other counters are in each backend's own currency.
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
//! (asserted against [`oracle_run_with_schedule`] with `carry_over:
//! false`). Only a level's very first round (no previous buffer to diff
//! against) sweeps all-dirty. Hops after the level's fixpoint are
//! skipped outright — the iteration map is deterministic, so an
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
//! unchanged. Wholesale rounds (unprimed, or without carry-over) rewrite
//! every slot as before. This is exact:
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
//! a checkpoint resume), without carry-over (the reference stays a true
//! reference), or in a round its `oracle_level_loop` fault site
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

use crate::engine::{initial_states, MbfAlgorithm, OwnedBackend};
use crate::error::RunError;
use crate::run::{try_oracle_run_checkpointed_with, CheckpointPolicy, StateBackend};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::{MinPlus, NodeId, Semimodule};
use mte_faults::{FaultKind, FaultSite};
use rayon::prelude::*;

/// Result of an oracle computation: the states `A^h(H)` and the cost of
/// simulating them on `G'`.
#[derive(Clone, Debug)]
pub struct OracleRun<M> {
    /// Final states, indexed by node.
    pub states: Vec<M>,
    /// Number of simulated `H`-iterations.
    pub h_iterations: usize,
    /// Whether a fixpoint on `H` was reached (`h > SPD(H)`).
    pub fixpoint: bool,
    /// Alias of [`fixpoint`](OracleRun::fixpoint) under the run-report
    /// vocabulary: `true` iff the simulation converged within its
    /// iteration budget.
    pub converged: bool,
    /// Total inner `G'`-hops executed across all levels and simulated
    /// iterations (`work.iterations`).
    pub hops: u64,
    /// Work spent, including all inner `G'`-iterations.
    pub work: WorkStats,
}

/// One level's vector `y_λ`: a state backend plus the projection and
/// aggregation the level loop needs. See the module docs for the
/// contract.
pub(crate) trait Lane<A: MbfAlgorithm<S = MinPlus>>: StateBackend<A> + Send + Sync {
    /// The aggregate state vector `x` the levels project from.
    type X: Sync;
    /// One vertex's new aggregate, staged between [`Lane::fold`] and
    /// [`Lane::commit`].
    type Folded: Send;

    /// Compare-and-assign `y[v] ← keep ? x[v] : ⊥`; returns whether the
    /// slot was rewritten.
    fn project(&mut self, alg: &A, x: &Self::X, v: NodeId, keep: bool) -> bool;
    /// [`Lane::project`] over every slot `0..n`, appending the rewritten
    /// ones to `seeds` in ascending order. A lane may override it to
    /// rewrite its slots in parallel.
    fn project_all(
        &mut self,
        alg: &A,
        x: &Self::X,
        n: usize,
        keep: impl Fn(NodeId) -> bool + Sync,
        seeds: &mut Vec<NodeId>,
    ) {
        for v in 0..n as NodeId {
            if self.project(alg, x, v, keep(v)) {
                seeds.push(v);
            }
        }
    }
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
    /// Books counters the lanes hold rather than their hops, once the
    /// run ends.
    fn finish<'a>(_lanes: impl Iterator<Item = &'a Self>, _work: &mut WorkStats)
    where
        Self: 'a,
    {
    }
    /// The aggregate as owned states.
    fn export(x: Self::X) -> Vec<A::M>;
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
    /// The last executed round rewrote `y` wholesale (priming round or
    /// carry-over disabled): the next diff must examine every slot and
    /// the aggregation cannot skip anything.
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
        carry_over: bool,
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
            && carry_over
            && fired.is_none()
            && x_changed.is_some_and(|c| !c.iter().any(|&v| keep(v)));
        if self.idle {
            return WorkStats::new();
        }
        let aug = sim.augmented();
        let wholesale = !self.primed || !carry_over;
        // Settled level (module docs): `y` is a fixpoint, so only the
        // projected slots are rewritten and the relays keep their values.
        let keep_relays = !wholesale && self.settled && fired.is_none();
        // The previous round left `moved` (or `moved_all`); this round's
        // diff may only skip slots both unmoved and outside `x_changed`.
        // A wholesale previous round (or an unknown `x_changed`) forces
        // one full diff.
        let full_diff = self.moved_all || x_changed.is_none();
        let Level {
            lane, moved, seeds, ..
        } = self;
        seeds.clear();
        if wholesale || (full_diff && !keep_relays) {
            lane.project_all(alg, x, aug.n(), keep, seeds);
        } else {
            // Frontier-sized diff: a slot can disagree with the fresh
            // projection only if this level moved it last round or the
            // aggregation changed its `x` source — everything else
            // still equals `P_λ x` (or is a relay a settled round kept)
            // and is skipped without being read.
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
        }
        if wholesale {
            // First round (or carry-over disabled): the frontier
            // restarts full.
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

/// The oracle's level loop, shared by every lane and by the
/// checkpoint-resume drivers: builds one lane per level with
/// `new_lane`, iterates from `x` (already past `executed` simulated
/// iterations) up to `h` total, and calls `on_round(round, x)` after
/// every round that changed something. The iteration map is
/// deterministic, so a round that changes nothing proves every later
/// round is the identity: the loop stops there and reports the
/// fixpoint. Resuming from a recorded `(x, executed)` pair with fresh
/// lanes is bit-identical to the uninterrupted run: an unprimed level
/// rewrites wholesale on its first round, which the carry-over schedule
/// already proves equivalent to the diffing restart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn level_loop<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
    new_lane: impl FnMut() -> L,
    mut x: L::X,
    mut executed: usize,
    mut on_round: impl FnMut(usize, &L::X) -> Result<(), RunError>,
) -> Result<OracleRun<A::M>, RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    let n = sim.augmented().n();
    let mut levels: Vec<Level<L>> = std::iter::repeat_with(new_lane)
        .take(sim.levels().lambda() as usize + 1)
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
    let mut work = WorkStats::new();
    let mut fixpoint = false;
    // `x`-slots the previous aggregation changed; `None` = unknown (no
    // previous round), forcing full diffs.
    let mut prev_changed: Option<Vec<NodeId>> = None;
    while executed < h {
        // The Λ+1 level contributions are independent: one parallel
        // task per level (`with_min_len(1)`: Λ is small but each task
        // is heavy). Per-level work tallies merge through the
        // fixed-shape reduction tree.
        let x_ref = &x;
        let x_changed = prev_changed.as_deref();
        work += levels
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .map(|(lambda, level)| {
                level.round(alg, sim, lambda as u32, carry_over, x_ref, x_changed)
            })
            .reduce(WorkStats::new, |mut a, b| {
                a += b;
                a
            });
        executed += 1;

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
        let levels_ref: &[Level<L>] = &levels;
        let fold = |v: NodeId| {
            let lanes = levels_ref.iter().take(sim.levels().level(v) as usize + 1);
            L::fold(alg, lanes.map(|l| &l.lane), x_ref, v).map(|f| (v, f))
        };
        // Both paths collect `(v, new value)` pairs in ascending vertex
        // order (chunk-order concatenation over an ascending input
        // list), independent of the thread count.
        let changed: Vec<(NodeId, L::Folded)> = match recompute.as_deref() {
            None => (0..n as NodeId)
                .into_par_iter()
                .flat_map_iter(fold)
                .collect(),
            Some(list) => list.par_iter().flat_map_iter(|&v| fold(v)).collect(),
        };
        if changed.is_empty() {
            fixpoint = true;
            break;
        }
        let ids: Vec<NodeId> = changed.iter().map(|&(v, _)| v).collect();
        for (v, folded) in changed {
            L::commit(&mut x, v, folded);
        }
        prev_changed = Some(ids);
        on_round(executed, &x)?;
    }
    L::finish(levels.iter().map(|l| &l.lane), &mut work);
    Ok(OracleRun {
        states: L::export(x),
        h_iterations: executed,
        fixpoint,
        converged: fixpoint,
        hops: work.iterations,
        work,
    })
}

/// [`level_loop`] from `x` with no round hook (which cannot fail).
pub(crate) fn run_lanes<A, L>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
    new_lane: impl FnMut() -> L,
    x: L::X,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    match level_loop(alg, sim, h, carry_over, new_lane, x, 0, |_, _| Ok(())) {
        Ok(run) => run,
        Err(e) => unreachable!("no-op round hook cannot fail: {e}"),
    }
}

/// The owned lane: `y_λ` as a `Vec<A::M>`.
impl<A: MbfAlgorithm<S = MinPlus>> Lane<A> for OwnedBackend<A> {
    type X = Vec<A::M>;
    type Folded = A::M;

    fn project(&mut self, _alg: &A, x: &Vec<A::M>, v: NodeId, keep: bool) -> bool {
        let zero;
        let want = if keep {
            &x[v as usize]
        } else {
            zero = A::M::zero();
            &zero
        };
        assign(&mut self.states[v as usize], want)
    }

    fn project_all(
        &mut self,
        _alg: &A,
        x: &Vec<A::M>,
        _n: usize,
        keep: impl Fn(NodeId) -> bool + Sync,
        seeds: &mut Vec<NodeId>,
    ) {
        // Slots are independent heap values: rewrite them in parallel.
        // The rewritten list collects in ascending vertex order
        // (chunk-order concatenation), independent of the thread count.
        let zero = A::M::zero();
        let rewritten: Vec<NodeId> = self
            .states
            .par_iter_mut()
            .enumerate()
            .flat_map_iter(|(v, slot)| {
                let want = if keep(v as NodeId) { &x[v] } else { &zero };
                assign(slot, want).then_some(v as NodeId)
            })
            .collect();
        seeds.extend(rewritten);
    }

    fn fold<'a>(
        alg: &A,
        lanes: impl Iterator<Item = &'a Self>,
        x: &Vec<A::M>,
        v: NodeId,
    ) -> Option<A::M>
    where
        Self: 'a,
    {
        let mut acc = A::M::zero();
        for lane in lanes {
            acc.add_assign(&lane.states[v as usize]);
        }
        alg.filter(&mut acc);
        (acc != x[v as usize]).then_some(acc)
    }

    fn commit(x: &mut Vec<A::M>, v: NodeId, folded: A::M) {
        x[v as usize] = folded;
    }

    fn poison(&mut self, _alg: &A) {
        if let Some(slot) = self.states.first_mut() {
            slot.poison();
        }
    }

    fn export(x: Vec<A::M>) -> Vec<A::M> {
        x
    }
}

/// Compare-and-assign `slot ← want`; `clone_from` reuses the slot's heap
/// buffer. Returns whether the slot was rewritten.
fn assign<M: Clone + PartialEq>(slot: &mut M, want: &M) -> bool {
    let rewrite = slot != want;
    if rewrite {
        slot.clone_from(want);
    }
    rewrite
}

/// Simulates **one** iteration of `alg` on `H`:
/// `x ← r^V (⊕_λ P_λ (r^V A_λ)^d P_λ x)`.
pub fn oracle_iteration<A>(alg: &A, sim: &SimulatedGraph, x: &[A::M]) -> (Vec<A::M>, WorkStats)
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let n = sim.augmented().n();
    debug_assert_eq!(n, x.len());
    let lane = || OwnedBackend::lane(n);
    let run = run_lanes(alg, sim, 1, true, lane, x.to_vec());
    (run.states, run.work)
}

/// Runs up to `h` iterations of `alg` on `H` starting from `r^V x⁽⁰⁾`
/// (Theorem 5.2 (1)).
///
/// The iteration map is deterministic, so a simulated `H`-iteration that
/// changes nothing proves every later iteration is the identity: the run
/// stops there, reports `fixpoint: true`, and `h_iterations` counts the
/// iterations actually executed (including the confirming one) — it may
/// be less than `h`. The returned states are bit-identical to burning
/// all `h` iterations, so a capped run *is* the run to the fixpoint.
/// W.h.p. the fixpoint arrives after `SPD(H) ∈ O(log² n)` iterations
/// (Theorems 4.5 and 5.2 (2)); see [`default_iteration_cap`].
pub fn oracle_run<A>(alg: &A, sim: &SimulatedGraph, h: usize) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    oracle_run_with_schedule(alg, sim, h, true)
}

/// [`oracle_run`] with the level schedule made explicit:
/// `carry_over: true` (the default everywhere else) diffs each level's
/// projection against its previous round and seeds only the changed
/// vertices; `false` restarts every level all-dirty each round — the
/// reference schedule, kept for ablation and differential testing. Both
/// produce bit-identical states, iteration counts, and fixpoint flags;
/// only the work counters differ.
pub fn oracle_run_with_schedule<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
) -> OracleRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let n = sim.augmented().n();
    let lane = || OwnedBackend::lane(n);
    run_lanes(alg, sim, h, carry_over, lane, initial_states(alg, n))
}

/// Guarded [`oracle_run`]: panics become typed errors, injected faults
/// are audited, final states are sanity-scanned. An exhausted iteration
/// budget is reported as `converged: false`, not an error.
pub fn try_oracle_run_with<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
) -> Result<(OracleRun<A::M>, crate::error::RunReport), RunError>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let never = CheckpointPolicy::disabled();
    try_oracle_run_checkpointed_with(alg, sim, h, never, |_| Ok(()))
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
    use crate::catalog::SourceDetection;
    use crate::engine::run_to_fixpoint;
    use mte_graph::algorithms::shortest_path_diameter;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let via_oracle = oracle_run(&alg, &sim, 4 * g.n());
        assert!(via_oracle.fixpoint);
        // The run metadata mirrors the flags it summarizes.
        assert!(via_oracle.converged);
        assert_eq!(via_oracle.hops, via_oracle.work.iterations);
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

        let o1 = oracle_run(&alg, &sim, 1);
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
        let run = oracle_run(&alg, &sim, default_iteration_cap(g.n()));
        assert!(
            run.fixpoint,
            "no fixpoint within {} iterations",
            default_iteration_cap(g.n())
        );
        // SPD(H) ∈ O(log² n): far fewer than the 64 iterations plain MBF
        // would need on this path.
        assert!(
            run.h_iterations < 40,
            "took {} iterations",
            run.h_iterations
        );
        assert!(run.converged);
        // Each H-iteration drives Λ+1 inner level loops, so the total
        // G'-hop count dominates the H-iteration count.
        assert!(run.hops >= run.h_iterations as u64);
    }

    #[test]
    fn fixed_iteration_budget_stops_at_fixpoint() {
        // Regression: `oracle_run` used to hardcode `fixpoint: false`
        // and burn the whole budget even after the states stopped
        // changing. It must stop at the confirming iteration, report the
        // fixpoint, and still return the exact `A^h(H)` states.
        let mut rng = StdRng::seed_from_u64(25);
        let g = path_graph(32, 1.0);
        let sim = SimulatedGraph::without_hopset(&g, 31, 0.1, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 0);
        let budget = 10_000;
        let run = oracle_run(&alg, &sim, budget);
        assert!(run.fixpoint, "fixpoint not reported");
        assert!(
            run.h_iterations < budget,
            "burned all {budget} iterations past the fixpoint"
        );
        let fix = oracle_run(&alg, &sim, 2 * budget);
        assert_eq!(run.states, fix.states);
        assert_eq!(run.h_iterations, fix.h_iterations);
        assert!(run.converged);
        assert_eq!(run.hops, fix.hops);
        // A budget too small to converge reports honestly.
        let short = oracle_run(&alg, &sim, 1);
        assert!(!short.fixpoint);
        assert!(!short.converged);
        assert_eq!(short.h_iterations, 1);
    }
}
