//! The arena backend: MBF-like iteration over the epoch-arena state
//! store ([`mte_algebra::store::EpochStore`]).
//!
//! # Mapping back to the paper
//!
//! The paper iterates `x ← r^V A x` over a state vector `x ∈ D^V`
//! (Definition 2.11) and charges each iteration `O(Σ_v |x_v|)` work —
//! per **list entry**, never per vertex (Lemma 2.3, Lemma 7.8). A
//! `Vec<DistanceMap>` breaks that accounting on real hardware: every
//! recomputed state is rewritten wholesale into a per-vertex heap
//! buffer, so a hop pays copy traffic per *vertex*, changed or not.
//! Here the whole vector `x` lives in one
//! [`EpochStore`]: `x_v` is a `(offset, len)` **span** into a shared
//! entry pool, a hop appends only the states that actually changed (the
//! next **epoch**) and commits by retargeting spans — an unchanged
//! vertex keeps its old span at zero cost (copy-on-write), which is
//! exactly the `Σ|x_v|`-over-*changed*-states cost the lemmas charge.
//!
//! # Scheduling and determinism
//!
//! [`ArenaBackend`] drives the `FrontierSchedule` of [`crate::engine`]
//! — the frontier, the closed-neighborhood touched list, the
//! degree-balanced chunks — which the dense backend shares; its outputs
//! are bit-identical to the literal loop (differential-tested by
//! `tests/common/matrix.rs`), and semi-naive algorithms drop the
//! touched vertices their delta floors prove idle (see below). During a
//! hop, each scheduling chunk writes its recomputed states into its own
//! **chunk append region** (plain `Vec`s owned by the chunk slot — no
//! synchronization, no `unsafe`); the commit concatenates the regions
//! into the pool in chunk order, so the pool layout is a pure function
//! of the schedule and the inputs, never of `MTE_THREADS`.
//!
//! # The algorithm hook: pruned recomputation
//!
//! This is where distance maps are recomputed **pruned**; the literal
//! backend runs the merge-everything-then-filter pipeline for every
//! state type. [`ArenaMbfAlgorithm::recompute_span`] reads
//! neighbor states as borrowed [`DistanceSlice`]s straight out of the
//! pool and appends the result to the chunk region through a
//! [`SpanOut`], rejecting at merge time every incoming entry the filter
//! would discard anyway: `LeListAlgorithm` with the rank-domination
//! probe reading the pool's rank column (the Lemma 7.6 work argument,
//! after Blelloch–Gu–Sun's prune-during-propagation), `SourceDetection`
//! with the top-k admission threshold. Each recomputation **must** be
//! bit-identical to the literal `r(x_v ⊕ ⊕_w a_vw x_w)` on exported
//! states — the equivalence suite differential-tests engine, oracle,
//! and the FRT pipeline against the literal loops across
//! `MTE_THREADS ∈ {1, 4}`. `entries_processed` counts `|x_v|` plus the
//! **admitted** entries only.
//!
//! # Semi-naive handover
//!
//! For an absorption-stable filter (see [`RecomputeCtx`]) a
//! recomputation need not read a neighbor's whole state: everything the
//! neighbor held before its last change has already been absorbed.
//! Algorithms that opt in ([`ArenaMbfAlgorithm::SEMI_NAIVE`] — the LE
//! lists) have the engine record, for every state a hop changes, its
//! **delta**: the `(node, dist)` pairs of the new span that the old
//! span does not hold as identical pairs. The delta falls out of the
//! change test the commit needs anyway (a co-walk of the two node-sorted
//! slices instead of a slice compare); chunks write their deltas into
//! their own regions, and the commit concatenates them into an
//! engine-owned delta pool outside the [`EpochStore`], so the storage
//! counters and the store's layout never see them. Recomputations read
//! neighbors through [`RecomputeCtx::incoming`], which hands over the
//! delta instead of the full list — semi-naive evaluation in the
//! Datalog sense. It admits exactly the entries the full handover
//! admits, so states are unchanged.
//!
//! Each delta also records its **floor** ([`DeltaFloor`]: minimum
//! distance and minimum rank), so a receiver can reject a whole delta
//! at once. The algorithm's [`ArenaMbfAlgorithm::absorbs`] rule decides
//! it from the floor, the edge coefficient `s` and a
//! [`ReceiverSummary`] (largest distance `D`, smallest rank `R`); for
//! the LE lists a delta is absorbed iff `fl(floor.dist + s) ≥ D` and
//! `floor.rank ≥ R` — every entry then lands at distance `≥ D`, where
//! the receiver's minimum-rank entry dominates it or is its echo (the
//! proof is on [`RecomputeCtx`]). A recomputation skips an absorbed
//! delta unread, and the hop plan keeps a vertex only if it is a
//! tainted frontier vertex or some frontier neighbor hands it a whole
//! span or a delta it does not absorb: every vertex the plan drops
//! would have read nothing and returned
//! [`SpanRecompute::unchanged_hint`]. States, frontiers, change logs and
//! deltas are therefore unchanged; `touched_vertices`,
//! `entries_processed`, `edge_relaxations` and `handover_entries` count
//! only the recomputations that run, so for the LE lists they sit below
//! those of the full closed-neighborhood schedule.
//!
//! A delta is only as good as the premise "the neighbors absorbed the
//! old state". Where the backend cannot vouch for that, the vertex hands
//! over its **whole span** once instead: a vertex seeded by
//! [`Lane::mark_dirty`] (rewritten outside the hops), every vertex after
//! [`Lane::mark_all_dirty`] or [`StateBackend::start`], and every vertex
//! after [`StateBackend::resume`]. A vertex on the residual frontier
//! keeps its delta until the next hop, however long the backend sits
//! idle in between — the oracle's levels rely on this across rounds.
//!
//! [`ArenaBackend`] is a lane of the oracle's level loop
//! ([`crate::oracle::OracleBackend`]): one store per level, `O(Λ)`
//! buffers total instead of `Θ(Λ·n)` per-vertex maps.

use crate::engine::{initial_states, FrontierSchedule, MbfAlgorithm};
use crate::error::RunError;
use crate::oracle::{sealed, Lane};
use crate::run::{check_vertices, Checkpoint, StateBackend};
use crate::work::WorkStats;
use mte_algebra::store::{DistanceSlice, EpochStore, SpanOut, StoreStats};
use mte_algebra::{Dist, DistanceMap, MinPlus, NodeId, Semimodule};
use mte_graph::Graph;
use rayon::prelude::*;
use std::cell::RefCell;

/// Outcome of one span recomputation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecompute {
    /// Entries processed (the paper's `Σ|x|` work term): `|x_v|` plus
    /// the admitted entries; pruned entries are examined, not processed.
    pub entries: u64,
    /// Edge relaxations performed.
    pub relaxations: u64,
    /// Neighbor-state entries read (the handover volume; see
    /// [`RecomputeCtx::incoming`]).
    pub handover_entries: u64,
    /// `true` asserts the result is **bit-identical to the current
    /// span** and nothing was written to the output: the engine keeps
    /// the old span without copying or comparing. The hint must be
    /// exact — a wrong hint is a correctness bug, not a performance
    /// one.
    pub unchanged_hint: bool,
}

thread_local! {
    /// Per-thread accumulator for span recomputations that build their
    /// result in an owned map before appending.
    static ARENA_ACC: RefCell<DistanceMap> = RefCell::new(DistanceMap::new());
}

/// Runs `f` with this thread's recompute accumulator. Falls back to a
/// fresh map on re-entrant use instead of panicking, mirroring
/// [`mte_algebra::merge::with_dist_scratch`].
pub fn with_arena_acc<R>(f: impl FnOnce(&mut DistanceMap) -> R) -> R {
    ARENA_ACC.with(|cell| match cell.try_borrow_mut() {
        Ok(mut acc) => f(&mut acc),
        Err(_) => f(&mut DistanceMap::new()),
    })
}

/// An MBF-like algorithm over min-plus distance maps that can recompute
/// straight out of (and into) the epoch-arena store. See the module
/// docs; the [`MbfAlgorithm`] methods remain the semantics reference.
pub trait ArenaMbfAlgorithm: MbfAlgorithm<S = MinPlus, M = DistanceMap> {
    /// Whether the algorithm reads the pool's per-entry rank column
    /// (via [`mte_algebra::store::DistanceSlice::ranks`] or
    /// [`ArenaMbfAlgorithm::entry_aux`]). Off by default: the store
    /// then skips the 4 B/entry column entirely — sssp- and
    /// source-detection-style appends carried it as dead traffic. The
    /// LE lists opt in (their domination probe reads ranks straight
    /// from the pool).
    const USES_RANK_COLUMN: bool = false;

    /// Whether [`ArenaMbfAlgorithm::recompute_span`] is sound under the
    /// semi-naive handover of [`RecomputeCtx::incoming`]: the filter is
    /// absorption-stable (see [`RecomputeCtx`]). When on, the engine
    /// records the delta of every state a hop changes, with its floor,
    /// and `incoming` hands it over in place of the full state; and the
    /// hop plan drops every untainted vertex that no frontier neighbor
    /// hands anything unabsorbed ([`ArenaMbfAlgorithm::absorbs`]), so a
    /// recomputation that reads nothing must leave its state unchanged.
    /// Off by default (dirty neighbors hand over their whole state);
    /// the LE lists opt in.
    const SEMI_NAIVE: bool = false;

    /// Rank-column value stored alongside an entry with key `node`.
    /// Must be a **pure function of the key** (identical entries ⇒
    /// identical aux), since the engine's change detection compares
    /// entries only. The LE lists store the node's permutation rank;
    /// the default is 0. Never consulted when
    /// [`ArenaMbfAlgorithm::USES_RANK_COLUMN`] is off.
    #[inline]
    fn entry_aux(&self, _node: NodeId) -> u32 {
        0
    }

    /// The absorption rule of the semi-naive handover (see
    /// [`RecomputeCtx`]): `true` asserts that a receiver whose state
    /// has summary `receiver` (`None` when it is `⊥`) rejects, entry by
    /// entry, every entry of a delta with floor `floor` handed over an
    /// edge with coefficient `s` — so the recomputation may skip the
    /// delta unread, and the engine may skip a recomputation left with
    /// nothing else to read. Must be exact: a wrong `true` is a
    /// correctness bug. Consulted only for
    /// [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms; the default never
    /// absorbs.
    #[inline]
    fn absorbs(&self, _receiver: Option<ReceiverSummary>, _floor: DeltaFloor, _s: Dist) -> bool {
        false
    }

    /// Recomputes `v`'s next state `r(x_v ⊕ ⊕_w a_vw x_w)` from the
    /// span-backed state vector, appending the resulting entries (with
    /// their rank column) to `out` — or writing nothing and setting
    /// [`SpanRecompute::unchanged_hint`] when the result provably
    /// equals the current span. Must be bit-identical to the literal
    /// merge-everything-then-filter recomputation on exported states.
    ///
    /// `ctx` reports what each neighbor must hand over: the filter is
    /// *absorption-stable* (see [`RecomputeCtx`]), so neighbors are read
    /// through [`RecomputeCtx::incoming`], which skips clean neighbors
    /// and hands over only the unabsorbed delta of dirty ones (for
    /// [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms).
    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute;
}

/// Per-hop context handed to [`ArenaMbfAlgorithm::recompute_span`]:
/// which states moved since each vertex last absorbed them, and by how
/// much.
///
/// # Absorption stability
///
/// The engine guarantees: whenever a neighbor `w`'s state changes at
/// hop `t`, every `v ∈ N[w]` that `w` hands something at hop `t + 1`
/// is recomputed then (the closed-neighborhood schedule, narrowed by
/// the delta floors below). So if `w` is **not** dirty now, `v` has
/// already merged `a_vw x_w` (with the current `x_w`) in an earlier
/// recompute. For a filter where absorbed contributions stay absorbed —
/// entry values only improve, and an entry the filter ever discarded is
/// justified by witnesses that persist (LE rank domination and the
/// source-detection top-k both qualify; the engine's own docs call the
/// general case unsound) — re-merging a clean neighbor is the identity,
/// and skipping it is bit-identical.
///
/// The same argument applies entry by entry to a dirty neighbor (the
/// **delta rule**): a dirty `w` changed in the previous hop, and `v`
/// either was recomputed in that hop too, reading `w`'s state from
/// before the change, or provably rejected all of it. Every pair the
/// change kept identical was therefore already absorbed and would be
/// rejected as an echo or as dominated again; only the pairs the change
/// added or moved (`w`'s delta) can still be admitted.
///
/// # Delta floors
///
/// With each delta the engine records its **floor**
/// ([`DeltaFloor`]): the minimum distance and minimum
/// [`ArenaMbfAlgorithm::entry_aux`] of its entries. Together with a
/// [`ReceiverSummary`] of the receiver (recorded when the engine writes
/// its state, so computed once per state), the algorithm's
/// [`ArenaMbfAlgorithm::absorbs`] rule decides for a whole delta at
/// once that every one of its entries would be rejected. For the LE
/// lists (the one override) a non-empty receiver with largest distance
/// `D` and smallest rank `R` absorbs a delta over an edge with
/// coefficient `s` iff `fl(floor.dist + s) ≥ D` and `floor.aux ≥ R`,
/// and an empty delta is always absorbed. *Proof:* an entry `(u, d_u)`
/// of the delta arrives as `d = fl(d_u + s) ≥ fl(floor.dist + s) ≥ D`
/// (rounding is monotone), and `rank(u) ≥ floor.aux ≥ R`. The
/// receiver's minimum-rank entry `m` sits at distance `≤ D ≤ d`. If
/// `rank(u) > R`, `m` dominates `(u, d)`; if `rank(u) = R`, `u` is `m`'s
/// node, and `(u, d)` is an echo of `m`. Either way the per-entry test
/// rejects it, so skipping the delta unread admits exactly what reading
/// it would. Two consequences, both exact:
///
/// * a recomputation skips an absorbed delta like a clean neighbor;
/// * the hop plan (`FrontierSchedule::plan_hop`) keeps a vertex only
///   if it is a tainted frontier vertex, or some frontier neighbor
///   hands it a whole state or a delta it does not absorb. A dropped
///   vertex would have read nothing, admitted nothing and returned
///   [`SpanRecompute::unchanged_hint`], so states, the frontier, the
///   change log and the deltas are unchanged.
///
/// So the admitted set is unchanged, hence so are the states; the work
/// counters (`touched_vertices`, `entries_processed`,
/// `edge_relaxations`, `handover_entries`) count only the
/// recomputations that run and the neighbors they read.
///
/// External edits break the "already absorbed" premise, in two
/// directions. For the **edited vertex itself**, [`Lane::mark_dirty`]
/// taints it: [`RecomputeCtx::require_full`] forces its next
/// recomputation to merge every neighbor's whole state once. For its
/// **neighbors**, `mark_dirty` drops its delta, so they get the whole
/// rewritten state once. [`Lane::mark_all_dirty`],
/// [`StateBackend::start`] and [`StateBackend::resume`] drop every
/// delta.
///
/// Both skips assume every hop of a backend runs with the same weight
/// scale, as every caller does.
pub struct RecomputeCtx<'a> {
    sched: &'a FrontierSchedule,
    handover: &'a Handover,
    receivers: &'a ReceiverTable,
}

impl RecomputeCtx<'_> {
    /// `true` iff `v`'s own state was externally rewritten since its
    /// last recomputation: it has absorbed nothing, so this
    /// recomputation must merge every neighbor regardless of dirtiness.
    #[inline]
    pub fn require_full(&self, v: NodeId) -> bool {
        self.sched.is_tainted(v)
    }

    /// What a recomputation must merge from neighbor `w`: a delta with
    /// its floor or a whole state, or `None` when `w` is clean (already
    /// absorbed). `full` is
    /// [`RecomputeCtx::require_full`] of the recomputed vertex: a
    /// vertex that absorbed nothing gets every neighbor's whole state.
    /// Otherwise a dirty `w` that the engine changed in its last hop
    /// hands over only its delta; a dirty `w` without one (rewritten
    /// outside the engine, or the first hop) hands over its whole
    /// state. Sound only for absorption-stable filters, like the
    /// clean-neighbor skip itself. The engine records deltas only for
    /// [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms; for the others
    /// this hands over whole states and skips clean neighbors only.
    #[inline]
    pub fn incoming<'s>(
        &'s self,
        full: bool,
        w: NodeId,
        states: &'s EpochStore,
    ) -> Option<Incoming<'s>> {
        let whole = |w| Incoming {
            entries: states.get(w).entries,
            floor: None,
        };
        if full {
            return Some(whole(w));
        }
        // Only the last hop's changed vertices carry deltas, and they
        // are all on the frontier: one lookup settles the common case.
        if let Some((entries, floor)) = self.handover.delta(w) {
            debug_assert!(self.sched.on_frontier(w), "delta off the frontier");
            return Some(Incoming {
                entries,
                floor: Some(floor),
            });
        }
        self.sched.on_frontier(w).then(|| whole(w))
    }

    /// The [`ReceiverSummary`] of `v`, whose state is `base`: the
    /// engine's record of it, or computed here if it has none.
    #[inline]
    pub fn receiver(&self, v: NodeId, base: &DistanceSlice<'_>) -> Option<ReceiverSummary> {
        let Some(summary) = self.receivers.get(v) else {
            return ReceiverSummary::of(base);
        };
        debug_assert_eq!(summary, ReceiverSummary::of(base), "stale summary of {v}");
        summary
    }
}

/// What a dirty neighbor hands a recomputation
/// ([`RecomputeCtx::incoming`]).
#[derive(Clone, Copy, Debug)]
pub struct Incoming<'s> {
    /// The node-sorted entries to merge: a delta or a whole state.
    pub entries: &'s [(NodeId, Dist)],
    /// The delta's floor, or `None` for a whole state.
    pub floor: Option<DeltaFloor>,
}

/// The floor of a recorded delta: the minimum distance and the minimum
/// [`ArenaMbfAlgorithm::entry_aux`] over its entries (see
/// [`RecomputeCtx`], "Delta floors"). An empty delta has floor
/// [`DeltaFloor::EMPTY`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaFloor {
    /// Minimum distance over the delta's entries.
    pub dist: Dist,
    /// Minimum `entry_aux` over the delta's entries.
    pub aux: u32,
}

impl DeltaFloor {
    /// The floor of an empty delta: `(∞, u32::MAX)`.
    pub const EMPTY: DeltaFloor = DeltaFloor {
        dist: Dist::INF,
        aux: u32::MAX,
    };

    /// The floor of `delta`, reading each entry's aux through `aux`. A
    /// poisoned (NaN) distance sticks, so no rule can absorb the delta.
    pub fn of(delta: &[(NodeId, Dist)], aux: impl Fn(NodeId) -> u32) -> DeltaFloor {
        let mut floor = DeltaFloor::EMPTY;
        for &(u, d) in delta {
            if d.value() < floor.dist.value() || d.is_poisoned() {
                floor.dist = d;
            }
            floor.aux = floor.aux.min(aux(u));
        }
        floor
    }
}

/// What the absorption rule reads of a non-empty receiver: its largest
/// distance and its smallest rank-column value (see [`RecomputeCtx`],
/// "Delta floors").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReceiverSummary {
    /// Largest distance of the receiver's entries.
    pub max_dist: Dist,
    /// Smallest rank-column value of the receiver's entries (`u32::MAX`
    /// when the store carries no rank column).
    pub min_aux: u32,
}

impl ReceiverSummary {
    /// The summary of `x`, or `None` when `x` is `⊥`. A poisoned (NaN)
    /// distance sticks, so no rule can absorb into the receiver.
    pub fn of(x: &DistanceSlice<'_>) -> Option<ReceiverSummary> {
        let (&(_, first), rest) = x.entries.split_first()?;
        let mut max_dist = first;
        for &(_, d) in rest {
            if d.value() > max_dist.value() || d.is_poisoned() {
                max_dist = d;
            }
        }
        let min_aux = x.ranks.iter().copied().min().unwrap_or(u32::MAX);
        Some(ReceiverSummary { max_dist, min_aux })
    }
}

/// The receiver summaries of the current states: `slots[v]` holds
/// `v`'s iff its stamp is `gen`. The commit records the summary of every
/// state it changes (the recompute phase takes it from the new span);
/// an external rewrite drops it ([`Lane::mark_dirty`] one vertex,
/// [`Lane::mark_all_dirty`], [`StateBackend::start`] and
/// [`StateBackend::resume`] all); the hop plan computes a missing one
/// when it first needs it. So a summary
/// is computed at most once per state, and the plan reads no pool spans
/// for receivers the engine itself last wrote.
#[derive(Clone, Debug, Default)]
struct ReceiverTable {
    slots: Vec<(u32, Option<ReceiverSummary>)>,
    gen: u32,
}

impl ReceiverTable {
    /// Sizes the table for `n` vertices, keeping it if already sized.
    fn ensure_sized(&mut self, n: usize) {
        if self.slots.len() != n {
            self.slots.clear();
            self.slots.resize(n, (0, None));
            self.gen = 1;
        }
    }

    /// Drops every summary.
    fn forget_all(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped: no old stamp may alias the new one.
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.gen = 1;
        }
    }

    /// Drops `v`'s summary: its state was rewritten outside the engine.
    fn forget(&mut self, v: NodeId) {
        if let Some(slot) = self.slots.get_mut(v as usize) {
            slot.0 = 0;
        }
    }

    fn set(&mut self, v: NodeId, summary: Option<ReceiverSummary>) {
        self.slots[v as usize] = (self.gen, summary);
    }

    #[inline]
    fn get(&self, v: NodeId) -> Option<Option<ReceiverSummary>> {
        match self.slots.get(v as usize) {
            Some(&(stamp, summary)) if stamp == self.gen => Some(summary),
            _ => None,
        }
    }

    /// `v`'s summary, computing it from `states` if it is missing.
    /// Reads the raw span: planning consumes no `arena_span_read`
    /// fault arrivals.
    fn get_or_compute(&mut self, v: NodeId, states: &EpochStore) -> Option<ReceiverSummary> {
        let slot = &mut self.slots[v as usize];
        if slot.0 != self.gen {
            *slot = (self.gen, ReceiverSummary::of(&states.get_raw(v)));
        }
        debug_assert_eq!(
            slot.1,
            ReceiverSummary::of(&states.get_raw(v)),
            "stale summary of {v}"
        );
        slot.1
    }
}

/// The deltas of the states the engine changed in its last hop (see
/// [`RecomputeCtx::incoming`]), back to back in one buffer. `slots[v]`
/// is `(stamp, offset, len, floor)`: `v`'s delta is
/// `entries[offset..][..len]` with floor `floor` iff `stamp == gen`.
#[derive(Clone, Debug, Default)]
struct Handover {
    entries: Vec<(NodeId, Dist)>,
    slots: Vec<(u32, u32, u32, DeltaFloor)>,
    gen: u32,
}

impl Handover {
    /// Drops every delta.
    fn clear(&mut self) {
        self.entries.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped: no old stamp may alias the new one.
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.gen = 1;
        }
    }

    /// Sizes the table for `n` vertices. Only engines that record
    /// deltas call this, so the others never allocate it.
    fn ensure_sized(&mut self, n: usize) {
        if self.slots.len() != n {
            self.slots.clear();
            self.slots.resize(n, (0, 0, 0, DeltaFloor::EMPTY));
        }
    }

    /// Drops `v`'s delta: its state was rewritten outside the engine.
    fn forget(&mut self, v: NodeId) {
        if let Some(slot) = self.slots.get_mut(v as usize) {
            slot.0 = 0;
        }
    }

    /// Records `v`'s delta as `entries[off..off + len]` with `floor`.
    fn set(&mut self, v: NodeId, off: u32, len: u32, floor: DeltaFloor) {
        self.slots[v as usize] = (self.gen, off, len, floor);
    }

    #[inline]
    fn delta(&self, v: NodeId) -> Option<(&[(NodeId, Dist)], DeltaFloor)> {
        match self.slots.get(v as usize) {
            Some(&(stamp, off, len, floor)) if stamp == self.gen => {
                Some((&self.entries[off as usize..(off + len) as usize], floor))
            }
            _ => None,
        }
    }
}

/// Appends `new \ old` — the pairs of `new` that `old` does not hold as
/// identical pairs, i.e. what a changed state's neighbors have not
/// absorbed yet — and returns whether the two differ at all. Both
/// slices are node-sorted; one co-walk answers both questions.
fn push_delta(
    old: &[(NodeId, Dist)],
    new: &[(NodeId, Dist)],
    out: &mut Vec<(NodeId, Dist)>,
) -> bool {
    let start = out.len();
    let mut oi = 0;
    for &(u, d) in new {
        while oi < old.len() && old[oi].0 < u {
            oi += 1;
        }
        if !(oi < old.len() && old[oi] == (u, d)) {
            out.push((u, d));
        }
    }
    // Nothing new: the states differ iff `new` dropped pairs of `old`.
    out.len() > start || new.len() != old.len()
}

/// Storage counters of a [`StoreStats`] snapshot folded into the
/// work-accounting shape.
fn storage_work(stats: StoreStats) -> WorkStats {
    WorkStats {
        bytes_copied: stats.bytes_copied,
        alloc_count: stats.alloc_count,
        arena_bytes: stats.arena_bytes,
        ..WorkStats::default()
    }
}

/// Storage-counter delta between two snapshots (`arena_bytes` is a
/// high-water mark: the later snapshot wins).
fn storage_delta(before: StoreStats, after: StoreStats) -> WorkStats {
    WorkStats {
        bytes_copied: after.bytes_copied - before.bytes_copied,
        alloc_count: after.alloc_count - before.alloc_count,
        arena_bytes: after.arena_bytes,
        ..WorkStats::default()
    }
}

/// Per-vertex outcome record inside a chunk append region.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Offset of this vertex's output inside the chunk region (0-length
    /// and meaningless when unchanged).
    off: u32,
    len: u32,
    /// Length of this vertex's delta in the chunk's delta region (0
    /// when unchanged); deltas lie back to back in record order.
    delta_len: u32,
    entries: u64,
    relaxations: u64,
    handover_entries: u64,
    changed: bool,
}

/// One chunk's append region: the entry/rank columns the chunk's
/// recomputations write (changed states only — unchanged output is
/// truncated away immediately), the deltas of the changed states with
/// their floors and the new states' receiver summaries (for
/// [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms, in record order), plus
/// the per-vertex records. Owned by the chunk slot and reused across
/// hops.
#[derive(Clone, Debug, Default)]
struct ChunkBuf {
    entries: Vec<(NodeId, Dist)>,
    ranks: Vec<u32>,
    delta: Vec<(NodeId, Dist)>,
    floors: Vec<(DeltaFloor, Option<ReceiverSummary>)>,
    recs: Vec<Rec>,
}

/// Builds the initial span-backed state vector `r^V x⁽⁰⁾`: one pool
/// bulk-load instead of `n` per-vertex map buffers. The rank column is
/// allocated only when the algorithm opts in
/// ([`ArenaMbfAlgorithm::USES_RANK_COLUMN`]).
pub fn initial_store<A: ArenaMbfAlgorithm>(alg: &A, n: usize) -> EpochStore {
    let states = initial_states(alg, n);
    let mut store = EpochStore::with_rank_column(n, A::USES_RANK_COLUMN);
    store.import(&states, |u| alg.entry_aux(u));
    store
}

/// The arena backend of [`StateBackend`]: the `FrontierSchedule` of
/// [`crate::engine`] driving copy-on-write hops over an [`EpochStore`].
/// One backend serves arbitrarily many hops without reallocating. Its
/// states export as owned maps, bit-identical to the literal loop's;
/// storage counters include the initial load.
#[derive(Clone, Debug, Default)]
pub struct ArenaBackend {
    store: EpochStore,
    sched: FrontierSchedule,
    chunk_bufs: Vec<ChunkBuf>,
    /// Per-touched-position changed flags of the current hop.
    changed: Vec<bool>,
    /// Deltas of the states the last hop changed (see
    /// [`RecomputeCtx::incoming`]).
    handover: Handover,
    /// Summaries of the current states as receivers (see
    /// [`RecomputeCtx::receiver`]).
    receivers: ReceiverTable,
    /// The store's counters when the oracle last booked the lane's
    /// storage traffic ([`Lane::book`]).
    booked: StoreStats,
}

impl ArenaBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compacts the pool now: spans move, states do not. Lets a test
    /// interleave forced compactions with hops.
    #[doc(hidden)]
    pub fn compact(&mut self) {
        self.store.compact();
    }
}

impl<A: ArenaMbfAlgorithm> StateBackend<A> for ArenaBackend {
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.store = initial_store(alg, g.n());
        Lane::<A>::mark_all_dirty(self, g);
        Ok(storage_work(self.store.stats()))
    }

    /// The states bulk-load into a fresh epoch pool and the recorded
    /// frontier seeds the schedule. Every delta and receiver summary is
    /// dropped: the states may come from anywhere, so neighbors take
    /// whole spans. The seeded vertices are tainted (their pool spans
    /// were written externally), which forces full merges but never
    /// changes states — resumed **states** are bit-identical to the
    /// uninterrupted run's; work counters may differ by the taint-forced
    /// merges.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<DistanceMap>,
    ) -> Result<WorkStats, RunError> {
        check_vertices(&ckpt.states)?;
        self.store = EpochStore::with_rank_column(g.n(), A::USES_RANK_COLUMN);
        self.store.import(&ckpt.states, |u| alg.entry_aux(u));
        self.sched.ensure_sized(g);
        self.handover.clear();
        self.receivers.forget_all();
        self.sched.mark_dirty(g, ckpt.frontier.iter().copied());
        Ok(storage_work(self.store.stats()))
    }

    /// One hop `x ← r^V A x` over the span-backed state vector.
    /// Bit-identical to [`crate::engine::iterate_scaled`] on the exported
    /// states; the work includes the storage counters.
    fn step(&mut self, alg: &A, g: &Graph, weight_scale: f64) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, self.store.len(), "state store / graph size mismatch");
        if !self.sched.sized_for(n) {
            Lane::<A>::mark_all_dirty(self, g);
        }
        let ArenaBackend {
            store,
            sched,
            chunk_bufs,
            changed,
            handover,
            receivers,
            ..
        } = self;
        // Semi-naive algorithms recompute only what some frontier
        // neighbor hands them unabsorbed, or what was tainted (see
        // `RecomputeCtx`, "Delta floors"); the others recompute the
        // closed neighborhood of the frontier.
        if A::SEMI_NAIVE {
            receivers.ensure_sized(n);
        }
        sched.plan_hop(g, !A::SEMI_NAIVE, |w, v, ew| {
            if !A::SEMI_NAIVE {
                return true;
            }
            let Some((_, floor)) = handover.delta(w) else {
                return true; // a whole state
            };
            let s = alg.edge_coeff(v, w, ew * weight_scale).0;
            !alg.absorbs(receivers.get_or_compute(v, store), floor, s)
        });
        let touched: &[NodeId] = sched.touched();
        let chunks: &[std::ops::Range<usize>] = sched.chunks();
        let k = chunks.len();
        if chunk_bufs.len() < k {
            chunk_bufs.resize_with(k, ChunkBuf::default);
        }

        // Recompute phase: each chunk pulls its vertices' next states
        // out of the (immutably shared) store and writes them into its
        // own append region — disjoint plain buffers, no aliasing, no
        // synchronization. Unchanged output is truncated away on the
        // spot, so quiescent vertices contribute zero bytes.
        let store_ref: &EpochStore = store;
        let ctx = RecomputeCtx {
            sched,
            handover,
            receivers,
        };
        chunk_bufs[..k]
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(ci, buf)| {
                buf.entries.clear();
                buf.ranks.clear();
                buf.delta.clear();
                buf.floors.clear();
                buf.recs.clear();
                for p in chunks[ci].clone() {
                    let v = touched[p];
                    let start = buf.entries.len();
                    let r = {
                        let mut out = SpanOut::with_rank_column(
                            &mut buf.entries,
                            &mut buf.ranks,
                            A::USES_RANK_COLUMN,
                        );
                        alg.recompute_span(v, g, weight_scale, store_ref, &ctx, &mut out)
                    };
                    let len = buf.entries.len() - start;
                    let delta_start = buf.delta.len();
                    let changed = if r.unchanged_hint {
                        debug_assert_eq!(len, 0, "unchanged_hint with written output");
                        false
                    } else {
                        let old = store_ref.get(v).entries;
                        let new = &buf.entries[start..];
                        if A::SEMI_NAIVE {
                            push_delta(old, new, &mut buf.delta)
                        } else {
                            old != new
                        }
                    };
                    if !changed {
                        // Copy-on-write: the vertex keeps its old span;
                        // the speculative output never reaches the pool.
                        buf.entries.truncate(start);
                        buf.ranks.truncate(start);
                    }
                    let delta = &buf.delta[delta_start..];
                    if A::SEMI_NAIVE && changed {
                        let new = DistanceSlice {
                            entries: &buf.entries[start..],
                            ranks: buf.ranks.get(start..).unwrap_or_default(),
                        };
                        buf.floors.push((
                            DeltaFloor::of(delta, |u| alg.entry_aux(u)),
                            ReceiverSummary::of(&new),
                        ));
                    }
                    buf.recs.push(Rec {
                        off: start as u32,
                        len: if changed { len as u32 } else { 0 },
                        delta_len: delta.len() as u32,
                        entries: r.entries,
                        relaxations: r.relaxations,
                        handover_entries: r.handover_entries,
                        changed,
                    });
                }
            });

        // Commit phase (sequential, deterministic): open the next
        // epoch — possibly compacting first — then concatenate the
        // chunk regions into the pool in chunk order and retarget the
        // spans of changed vertices.
        //
        // Fault-injection site: a `panic` here unwinds with the commit
        // not yet applied, leaving the store on the previous epoch.
        if mte_faults::check_for(
            mte_faults::FaultSite::EngineHopCommit,
            &[mte_faults::FaultKind::Panic],
        )
        .is_some()
        {
            mte_faults::trigger_panic(mte_faults::FaultSite::EngineHopCommit);
        }
        let before = store.stats();
        let total_new: usize = chunk_bufs[..k].iter().map(|b| b.entries.len()).sum();
        store.begin_epoch(total_new);
        changed.clear();
        // This hop's deltas replace the last hop's; the recompute phase
        // above was their only reader.
        handover.clear();
        if A::SEMI_NAIVE {
            handover.ensure_sized(n);
        }
        let mut entries = 0u64;
        let mut relaxations = 0u64;
        let mut handover_entries = 0u64;
        let mut any_changed = false;
        for (ci, buf) in chunk_bufs[..k].iter().enumerate() {
            let base = store.append_region(&buf.entries, &buf.ranks);
            let mut delta_off = handover.entries.len() as u32;
            handover.entries.extend_from_slice(&buf.delta);
            let mut floors = buf.floors.iter();
            debug_assert_eq!(buf.recs.len(), chunks[ci].len());
            for (rec, p) in buf.recs.iter().zip(chunks[ci].clone()) {
                entries += rec.entries;
                relaxations += rec.relaxations;
                handover_entries += rec.handover_entries;
                if rec.changed {
                    let v = touched[p];
                    store.set_span(v, base + rec.off, rec.len);
                    if A::SEMI_NAIVE {
                        let &(floor, summary) = floors.next().expect("one floor per changed state");
                        handover.set(v, delta_off, rec.delta_len, floor);
                        delta_off += rec.delta_len;
                        receivers.set(v, summary);
                    }
                    any_changed = true;
                }
                changed.push(rec.changed);
            }
        }
        debug_assert_eq!(changed.len(), touched.len());

        let touched_vertices = touched.len() as u64;
        let changed: &[bool] = changed;
        sched.refresh(|p| changed[p]);

        let mut work = WorkStats {
            iterations: 1,
            entries_processed: entries,
            edge_relaxations: relaxations,
            touched_vertices,
            handover_entries,
            ..WorkStats::default()
        };
        work += storage_delta(before, store.stats());
        (work, any_changed)
    }

    fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    /// Reads the pool through the raw span accessor, so a capture
    /// records the true epoch state without consuming `arena_span_read`
    /// fault arrivals.
    fn export_states(&self) -> Vec<DistanceMap> {
        self.store.export_raw()
    }

    fn into_states(self) -> Vec<DistanceMap> {
        self.store.export()
    }
}

// ---------------------------------------------------------------------
// The arena oracle lane.
// ---------------------------------------------------------------------

impl sealed::Sealed for ArenaBackend {}

/// The arena lane of the oracle's level loop: `y_λ` as an
/// [`EpochStore`] — no per-vertex maps.
impl<A: ArenaMbfAlgorithm> Lane<A> for ArenaBackend {
    type X = Vec<DistanceMap>;
    type Folded = DistanceMap;

    fn lane(n: usize) -> Self {
        let store = EpochStore::with_rank_column(n, A::USES_RANK_COLUMN);
        let mut lane = ArenaBackend {
            booked: store.stats(),
            store,
            ..Self::default()
        };
        lane.sched.enable_change_log();
        lane
    }

    fn import(_alg: &A, states: &[DistanceMap]) -> Result<Vec<DistanceMap>, RunError> {
        check_vertices(states)?;
        Ok(states.to_vec())
    }

    fn export(x: &Vec<DistanceMap>) -> Vec<DistanceMap> {
        x.clone()
    }

    fn into_export(x: Vec<DistanceMap>) -> Vec<DistanceMap> {
        x
    }

    /// Also drops every delta and receiver summary: the next hop merges
    /// every neighbor's whole state anyway.
    fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
        self.handover.clear();
        self.receivers.forget_all();
    }

    /// Also drops the seeded vertices' deltas and receiver summaries:
    /// their neighbors take their whole new states once.
    fn mark_dirty(&mut self, g: &Graph, vs: &[NodeId]) {
        for &v in vs {
            self.handover.forget(v);
            self.receivers.forget(v);
        }
        self.sched.mark_dirty(g, vs.iter().copied());
    }

    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    fn project(&mut self, alg: &A, x: &Vec<DistanceMap>, v: NodeId, keep: bool) -> bool {
        let want: &[(NodeId, Dist)] = if keep { x[v as usize].entries() } else { &[] };
        let rewrite = self.store.get(v).entries != want;
        if rewrite {
            self.store.assign(v, want, |u| alg.entry_aux(u));
        }
        rewrite
    }

    fn fold<'a>(
        alg: &A,
        lanes: impl Iterator<Item = &'a Self>,
        x: &Vec<DistanceMap>,
        v: NodeId,
    ) -> Option<DistanceMap>
    where
        Self: 'a,
    {
        // Folds into this thread's reused accumulator; only a fold that
        // differs from `x_v` is copied out into a map.
        with_arena_acc(|acc| {
            acc.assign_from_entries(&[]);
            for lane in lanes {
                acc.merge_min_entries(lane.store.get(v).entries);
            }
            alg.filter(acc);
            (*acc != x[v as usize]).then(|| acc.clone())
        })
    }

    fn commit(x: &mut Vec<DistanceMap>, v: NodeId, folded: DistanceMap) {
        x[v as usize] = folded;
    }

    fn poison(&mut self, alg: &A) {
        if !self.store.is_empty() {
            let mut slot = DistanceMap::from_entries(self.store.get(0).entries.to_vec());
            slot.poison();
            self.store.assign(0, slot.entries(), |u| alg.entry_aux(u));
        }
    }

    fn book<'a>(lanes: impl Iterator<Item = &'a mut Self>, work: &mut WorkStats)
    where
        Self: 'a,
    {
        // The stores saw every byte the round copied — the hops tallied
        // only theirs, not the projection rewrites — so their growth
        // replaces the hop tallies. The Λ+1 level pools are live
        // *simultaneously*: the round's arena high-water mark is the sum
        // of the per-level peaks (each monotone, so the run's max over
        // rounds is the last round's sum).
        (work.bytes_copied, work.alloc_count, work.arena_bytes) = (0, 0, 0);
        for lane in lanes {
            let now = lane.store.stats();
            work.bytes_copied += now.bytes_copied - lane.booked.bytes_copied;
            work.alloc_count += now.alloc_count - lane.booked.alloc_count;
            work.arena_bytes += now.arena_bytes;
            lane.booked = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::{iterate, run_to_fixpoint};
    use crate::run::run_to_fixpoint_on;
    use mte_algebra::store::ENTRY_BYTES_UNRANKED;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_sssp_matches_literal_loop() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = gnm_graph(60, 150, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 3);
        let literal = run_to_fixpoint(&alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, arena.states);
        assert_eq!(literal.iterations, arena.iterations);
        assert_eq!(literal.fixpoint, arena.fixpoint);
        // The frontier skip and the absorbed-merge skip only ever drop
        // work from the literal sweep.
        assert!(arena.work.edge_relaxations < literal.work.edge_relaxations);
        assert!(arena.work.touched_vertices < literal.work.touched_vertices);
    }

    #[test]
    fn arena_copy_on_write_beats_per_vertex_rewrite_traffic() {
        // On a path, the SSSP wave is O(1) vertices per hop. Per-vertex
        // buffers (`Vec<DistanceMap>`) would rewrite every
        // touched state, one 16-byte entry each, and hold `n` buffers;
        // the arena appends only the wave into a few pool chunks.
        let g = path_graph(256, 1.0);
        let alg = SourceDetection::sssp(g.n(), 0);
        let literal = run_to_fixpoint(&alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, arena.states);
        let rewrite = arena.work.touched_vertices * ENTRY_BYTES_UNRANKED;
        assert!(
            arena.work.bytes_copied * 2 < rewrite,
            "arena {} !< per-vertex rewrite {rewrite} / 2",
            arena.work.bytes_copied,
        );
        assert!(arena.work.alloc_count < g.n() as u64);
        assert!(arena.work.arena_bytes > 0);
    }

    #[test]
    fn rank_column_is_per_algorithm_and_cuts_append_traffic() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use mte_algebra::store::ENTRY_BYTES;
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(73);
        let g = gnm_graph(50, 140, 1.0..8.0, &mut rng);

        // Source detection never reads ranks: its store is unranked and
        // every entry costs 16 B instead of 20 — the ROADMAP's "20%
        // dead rank traffic" item.
        let sssp = SourceDetection::sssp(g.n(), 0);
        const { assert!(!SourceDetection::USES_RANK_COLUMN) };
        let store = initial_store(&sssp, g.n());
        assert!(!store.is_ranked());
        assert_eq!(store.entry_bytes(), ENTRY_BYTES_UNRANKED);
        let run = run_to_fixpoint_on(ArenaBackend::new(), &sssp, &g, g.n() + 1);
        assert_eq!(run.states, run_to_fixpoint(&sssp, &g, g.n() + 1).states);

        // The LE lists opt in; their probe needs the pool ranks.
        const { assert!(LeListAlgorithm::USES_RANK_COLUMN) };
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le_store = initial_store(&LeListAlgorithm::new(ranks), g.n());
        assert!(le_store.is_ranked());
        assert_eq!(le_store.entry_bytes(), ENTRY_BYTES);
    }

    #[test]
    fn arena_step_survives_external_edits_and_compaction() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = gnm_graph(40, 100, 1.0..6.0, &mut rng);
        let alg = SourceDetection::k_ssp(g.n(), 3);

        // The reference: the literal `iterate` on the same edited
        // vectors (the carry-over schedule is bit-identical to it).
        let mut literal_states = initial_states(&alg, g.n());
        let mut backend = ArenaBackend::new();
        backend.start(&alg, &g).unwrap();

        for round in 0..6u64 {
            // External sparse edit on the reference and the store.
            let v = (round * 7 % g.n() as u64) as NodeId;
            let edit = alg.init((v + 1) % g.n() as NodeId);
            literal_states[v as usize] = edit.clone();
            backend
                .store
                .assign(v, edit.entries(), |u| alg.entry_aux(u));
            Lane::<SourceDetection>::mark_dirty(&mut backend, &g, &[v]);
            // Interleave a forced compaction: spans move, states must
            // not.
            if round % 2 == 1 {
                backend.compact();
            }
            for _ in 0..3 {
                literal_states = iterate(&alg, &g, &literal_states).0;
                backend.step(&alg, &g, 1.0);
            }
            assert_eq!(backend.store.export(), literal_states, "round {round}");
        }
    }

    /// One hop, checking the delta rule on its outcome: a vertex the hop
    /// changed is on the new frontier with delta `new \ old` (as
    /// identical pairs) and that delta's floor; an unchanged vertex
    /// records none.
    fn step_checking_deltas<A: ArenaMbfAlgorithm>(
        alg: &A,
        g: &Graph,
        backend: &mut ArenaBackend,
    ) -> bool {
        let old = backend.store.export();
        let (_, changed) = backend.step(alg, g, 1.0);
        let new = backend.store.export();
        for v in 0..g.n() as NodeId {
            let (o, n) = (old[v as usize].entries(), new[v as usize].entries());
            let delta = backend.handover.delta(v);
            if let Some((entries, floor)) = delta {
                assert_eq!(floor, DeltaFloor::of(entries, |u| alg.entry_aux(u)));
            }
            let delta = delta.map(|(entries, _)| entries);
            if o == n {
                assert!(
                    !backend.sched.on_frontier(v),
                    "unchanged {v} on the frontier"
                );
                assert_eq!(delta, None, "unchanged {v} recorded a delta");
            } else {
                assert!(backend.sched.on_frontier(v), "changed {v} off the frontier");
                let want: Vec<(NodeId, Dist)> =
                    n.iter().copied().filter(|p| !o.contains(p)).collect();
                assert_eq!(delta, Some(&want[..]), "delta of {v}");
            }
        }
        changed
    }

    fn no_deltas(backend: &ArenaBackend, n: usize) -> bool {
        (0..n as NodeId).all(|v| backend.handover.delta(v).is_none())
    }

    #[test]
    fn arena_deltas_are_new_pairs_and_whole_spans_after_edits() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(74);
        let g = gnm_graph(40, 100, 1.0..6.0, &mut rng);
        let alg = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
        let mut backend = ArenaBackend::new();
        let capture = |b: &ArenaBackend, frontier: Vec<NodeId>| Checkpoint {
            hop: 0,
            frontier,
            states: b.store.export(),
        };

        // A fresh run hands over whole spans.
        backend.start(&alg, &g).unwrap();
        assert!(no_deltas(&backend, g.n()));
        assert!(step_checking_deltas(&alg, &g, &mut backend));
        assert!(step_checking_deltas(&alg, &g, &mut backend));

        // An external edit drops the seeded vertex's delta only; the
        // residual frontier keeps its deltas across the idle gap and a
        // compaction (they live outside the pool).
        let residual: Vec<NodeId> = backend.sched.frontier().to_vec();
        let v = residual[0];
        backend
            .store
            .assign(v, alg.init(v).entries(), |u| alg.entry_aux(u));
        Lane::<LeListAlgorithm>::mark_dirty(&mut backend, &g, &[v]);
        backend.compact();
        assert!(
            backend.handover.delta(v).is_none(),
            "seeded {v} kept its delta"
        );
        assert!(residual[1..]
            .iter()
            .all(|&w| backend.handover.delta(w).is_some()));
        assert!(step_checking_deltas(&alg, &g, &mut backend));

        // A resume and an all-dirty restart drop every delta, mid-run
        // too.
        assert!(!no_deltas(&backend, g.n()));
        let ckpt = capture(&backend, backend.sched.frontier().to_vec());
        backend.resume(&alg, &g, &ckpt).unwrap();
        assert!(no_deltas(&backend, g.n()));
        assert!(step_checking_deltas(&alg, &g, &mut backend));
        assert!(!no_deltas(&backend, g.n()));
        Lane::<LeListAlgorithm>::mark_all_dirty(&mut backend, &g);
        assert!(no_deltas(&backend, g.n()));
        while step_checking_deltas(&alg, &g, &mut backend) {}

        // A fresh backend resuming from the fixpoint hands over whole
        // spans for its seeded frontier and finds nothing to change.
        let mut resumed = ArenaBackend::new();
        resumed
            .resume(&alg, &g, &capture(&backend, vec![0, 1, 2]))
            .unwrap();
        assert!(no_deltas(&resumed, g.n()));
        assert!(!step_checking_deltas(&alg, &g, &mut resumed));
    }
}
