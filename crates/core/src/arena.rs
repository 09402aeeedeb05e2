//! The arena-backed engine: MBF-like iteration over the epoch-arena
//! state store ([`mte_algebra::store::EpochStore`]).
//!
//! # Mapping back to the paper
//!
//! The paper iterates `x ← r^V A x` over a state vector `x ∈ D^V`
//! (Definition 2.11) and charges each iteration `O(Σ_v |x_v|)` work —
//! per **list entry**, never per vertex (Lemma 2.3, Lemma 7.8). The
//! owned backend ([`crate::engine::MbfEngine`], `Vec<A::M>`) breaks that accounting on
//! real hardware: every touched vertex's state is rewritten wholesale
//! into a per-vertex heap buffer, so a hop pays copy traffic per
//! *vertex*, changed or not. Here the whole vector `x` lives in one
//! [`EpochStore`]: `x_v` is a `(offset, len)` **span** into a shared
//! entry pool, a hop appends only the states that actually changed (the
//! next **epoch**) and commits by retargeting spans — an unchanged
//! vertex keeps its old span at zero cost (copy-on-write), which is
//! exactly the `Σ|x_v|`-over-*changed*-states cost the lemmas charge.
//!
//! # Scheduling and determinism
//!
//! [`ArenaEngine`] drives the *same* `FrontierSchedule` as the owned
//! engine — same frontier, same touched list, same degree-balanced
//! chunks — so the two backends execute identical hops and their
//! outputs are bit-identical by construction (differential-tested by
//! `tests/schedule_equivalence.rs`). During a hop, each scheduling
//! chunk writes its recomputed states into its own **chunk append
//! region** (plain `Vec`s owned by the chunk slot — no synchronization,
//! no `unsafe`); the commit concatenates the regions into the pool in
//! chunk order, so the pool layout is a pure function of the schedule
//! and the inputs, never of `MTE_THREADS`.
//!
//! # The algorithm hook
//!
//! [`ArenaMbfAlgorithm`] is the span-level counterpart of
//! [`MbfAlgorithm::recompute_into`]: [`ArenaMbfAlgorithm::recompute_span`]
//! reads neighbor states as borrowed [`DistanceSlice`]s straight out of
//! the pool and appends the result to the chunk region through a
//! [`SpanOut`]. The default implementation is the literal
//! merge-everything-then-filter pipeline over spans; `LeListAlgorithm`
//! overrides it with the rank-domination probe reading the pool's rank
//! column, `SourceDetection` with the top-k admission threshold. Every
//! override **must** be bit-identical to the owned
//! `recompute_into` on exported states — the equivalence suite
//! differential-tests engine, oracle, and the FRT pipeline across both
//! backends and `MTE_THREADS ∈ {1, 4}`.
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
//! admits, so states and every work counter but `handover_entries` are
//! unchanged.
//!
//! A delta is only as good as the premise "the neighbors absorbed the
//! old state". Where the engine cannot vouch for that, the vertex hands
//! over its **whole span** once instead: a vertex seeded by
//! [`ArenaEngine::mark_dirty`] (rewritten outside the engine), every
//! vertex after [`ArenaEngine::mark_all_dirty`], and every vertex after
//! [`ArenaEngine::prime`] (the checkpoint-resume path). A vertex on the
//! residual frontier keeps its delta until the next hop, however long
//! the engine sits idle in between — the oracle's levels rely on this
//! across rounds.
//!
//! [`oracle_run_arena_with_schedule`] is the oracle's level loop over
//! arena lanes: one store per level, `O(Λ)` buffers total instead of
//! the owned lane's `Θ(Λ·n)` per-vertex maps.

use crate::engine::{initial_states, FrontierSchedule, MbfAlgorithm};
use crate::error::RunError;
use crate::oracle::{run_lanes, Lane, OracleRun};
use crate::run::{Checkpoint, StateBackend};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::store::{DistanceSlice, EpochStore, SpanOut, StoreStats};
use mte_algebra::{Dist, DistanceMap, MinPlus, NodeId, Semimodule};
use mte_graph::Graph;
use rayon::prelude::*;
use std::cell::RefCell;

/// Outcome of one span recomputation (the arena counterpart of
/// `recompute_into`'s `(entries, relaxations)` pair).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecompute {
    /// Entries processed (the paper's `Σ|x|` work term; pruned paths
    /// count admitted entries only, like the owned overrides).
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
    /// result in an owned map before appending (the default path and
    /// the pruned source-detection override).
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
/// docs; the owned [`MbfAlgorithm`] methods remain the semantics
/// reference.
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
    /// records the delta of every state a hop changes, and `incoming`
    /// hands it over in place of the full state. Off by default (the
    /// default recompute reads whole neighbor states); the LE lists opt
    /// in.
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

    /// [`MbfAlgorithm::state_size`] for a borrowed span. Must agree
    /// with `state_size` on the materialized map; the default matches
    /// the distance-map convention `|x|.max(1)`.
    #[inline]
    fn slice_size(&self, x: &DistanceSlice<'_>) -> usize {
        x.len().max(1)
    }

    /// Recomputes `v`'s next state `r(x_v ⊕ ⊕_w a_vw x_w)` from the
    /// span-backed state vector, appending the resulting entries (with
    /// their rank column) to `out` — or writing nothing and setting
    /// [`SpanRecompute::unchanged_hint`] when the result provably
    /// equals the current span. Must be bit-identical to
    /// [`MbfAlgorithm::recompute_into`] on exported states.
    ///
    /// `ctx` reports what each neighbor must hand over. Algorithms whose
    /// filter is *absorption-stable* (see [`RecomputeCtx`]) read
    /// neighbors through [`RecomputeCtx::incoming`], which skips clean
    /// neighbors and hands over only the unabsorbed delta of dirty ones
    /// (for [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms), as the
    /// LE-list and source-detection overrides do; the default
    /// implementation merges everything unconditionally.
    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        _ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute {
        default_recompute_span(self, v, g, weight_scale, states, out)
    }
}

/// Per-hop context handed to [`ArenaMbfAlgorithm::recompute_span`]:
/// which states moved since each vertex last absorbed them, and by how
/// much.
///
/// # Absorption stability
///
/// The engine guarantees: whenever a neighbor `w`'s state changes at
/// hop `t`, every `v ∈ N[w]` is recomputed at hop `t + 1` (the
/// closed-neighborhood schedule). So if `w` is **not** dirty now, `v`
/// has already merged `a_vw x_w` (with the current `x_w`) in an earlier
/// recompute. For a filter where absorbed contributions stay absorbed —
/// entry values only improve, and an entry the filter ever discarded is
/// justified by witnesses that persist (LE rank domination and the
/// source-detection top-k both qualify; the engine's own docs call the
/// general case unsound) — re-merging a clean neighbor is the identity,
/// and skipping it is bit-identical.
///
/// The same argument applies entry by entry to a dirty neighbor (the
/// **delta rule**): a dirty `w` changed in the previous hop, and `v`
/// was recomputed in that hop too, reading `w`'s state from before the
/// change. Every pair the change kept identical was therefore already
/// absorbed and would be rejected as an echo or as dominated again;
/// only the pairs the change added or moved (`w`'s delta) can still be
/// admitted. The admitted set is unchanged, hence so are the states
/// and `entries_processed`; a relaxation is still counted per visited
/// dirty neighbor, so `edge_relaxations` and `touched_vertices` are
/// unchanged too.
///
/// External edits break the "already absorbed" premise, in two
/// directions. For the **edited vertex itself**,
/// [`ArenaEngine::mark_dirty`] taints it: [`RecomputeCtx::require_full`]
/// forces its next recomputation to merge every neighbor's whole state
/// once. For its **neighbors**, `mark_dirty` drops its delta, so they
/// get the whole rewritten state once. [`ArenaEngine::mark_all_dirty`]
/// and [`ArenaEngine::prime`] drop every delta.
///
/// Both skips assume every hop of an engine runs with the same weight
/// scale, as every caller does.
pub struct RecomputeCtx<'a> {
    sched: &'a FrontierSchedule,
    taint: &'a crate::engine::TaintTable,
    handover: &'a Handover,
}

impl RecomputeCtx<'_> {
    /// `true` iff `v`'s own state was externally rewritten since its
    /// last recomputation: it has absorbed nothing, so this
    /// recomputation must merge every neighbor regardless of dirtiness.
    #[inline]
    pub fn require_full(&self, v: NodeId) -> bool {
        self.taint.is_tainted(v)
    }

    /// The node-sorted entries a recomputation must merge from neighbor
    /// `w`, or `None` when `w` is clean (already absorbed). `full` is
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
    ) -> Option<&'s [(NodeId, Dist)]> {
        if full {
            return Some(states.get(w).entries);
        }
        // Only the last hop's changed vertices carry deltas, and they
        // are all on the frontier: one lookup settles the common case.
        if let Some(delta) = self.handover.delta(w) {
            debug_assert!(self.sched.on_frontier(w), "delta off the frontier");
            return Some(delta);
        }
        self.sched.on_frontier(w).then(|| states.get(w).entries)
    }
}

/// The deltas of the states the engine changed in its last hop (see
/// [`RecomputeCtx::incoming`]), back to back in one buffer. `slots[v]`
/// is `(stamp, offset, len)`: `v`'s delta is `entries[offset..][..len]`
/// iff `stamp == gen`.
#[derive(Clone, Debug, Default)]
struct Handover {
    entries: Vec<(NodeId, Dist)>,
    slots: Vec<(u32, u32, u32)>,
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
            self.slots.resize(n, (0, 0, 0));
        }
    }

    /// Drops `v`'s delta: its state was rewritten outside the engine.
    fn forget(&mut self, v: NodeId) {
        if let Some(slot) = self.slots.get_mut(v as usize) {
            slot.0 = 0;
        }
    }

    /// Records `v`'s delta as `entries[off..off + len]`.
    fn set(&mut self, v: NodeId, off: u32, len: u32) {
        self.slots[v as usize] = (self.gen, off, len);
    }

    #[inline]
    fn delta(&self, v: NodeId) -> Option<&[(NodeId, Dist)]> {
        match self.slots.get(v as usize) {
            Some(&(stamp, off, len)) if stamp == self.gen => {
                Some(&self.entries[off as usize..(off + len) as usize])
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

/// The literal merge-everything-then-filter recomputation over spans —
/// the arena counterpart of the default [`MbfAlgorithm::recompute_into`]
/// body, provided as a free function so overriding implementations can
/// fall back to it.
///
/// Assumes (like every distance-map algorithm in the catalog) that
/// `propagate_into` is the fused min-plus merge `acc ← acc ⊕ (s ⊙ x)`.
pub fn default_recompute_span<A: ArenaMbfAlgorithm + ?Sized>(
    alg: &A,
    v: NodeId,
    g: &Graph,
    weight_scale: f64,
    states: &EpochStore,
    out: &mut SpanOut<'_>,
) -> SpanRecompute {
    with_arena_acc(|acc| {
        let base = states.get(v);
        // a_vv = 1: keep the node's own state.
        acc.assign_from_entries(base.entries);
        let mut entries = alg.slice_size(&base) as u64;
        let mut relaxations = 0u64;
        let mut handover_entries = 0u64;
        for &(w, ew) in g.neighbors(v) {
            let coeff = alg.edge_coeff(v, w, ew * weight_scale);
            let nb = states.get(w);
            acc.merge_scaled_entries(nb.entries, coeff.0);
            entries += alg.slice_size(&nb) as u64;
            handover_entries += nb.len() as u64;
            relaxations += 1;
        }
        alg.filter(acc);
        for (u, d) in acc.iter() {
            out.push(u, d, alg.entry_aux(u));
        }
        SpanRecompute {
            entries,
            relaxations,
            handover_entries,
            unchanged_hint: false,
        }
    })
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
/// truncated away immediately), the deltas of the changed states (for
/// [`ArenaMbfAlgorithm::SEMI_NAIVE`] algorithms), plus the per-vertex
/// records. Owned by the chunk slot and reused across hops.
#[derive(Clone, Debug, Default)]
struct ChunkBuf {
    entries: Vec<(NodeId, Dist)>,
    ranks: Vec<u32>,
    delta: Vec<(NodeId, Dist)>,
    recs: Vec<Rec>,
}

/// The arena-backed iteration engine: the `FrontierSchedule` of the
/// owned [`crate::engine::MbfEngine`] driving copy-on-write hops over an
/// [`EpochStore`]. One engine serves arbitrarily many hops without
/// reallocating; the store is passed per step so callers (the oracle)
/// can own several state vectors.
#[derive(Clone, Debug)]
pub struct ArenaEngine {
    sched: FrontierSchedule,
    chunk_bufs: Vec<ChunkBuf>,
    /// Per-touched-position changed flags of the current hop.
    changed: Vec<bool>,
    /// Taints for externally rewritten vertices (see
    /// [`RecomputeCtx::require_full`]): a tainted `v` must do one
    /// full-merge recomputation. Cleared per vertex when it is
    /// recomputed, wholesale on [`ArenaEngine::mark_all_dirty`].
    taint: crate::engine::TaintTable,
    /// Deltas of the states the last hop changed (see
    /// [`RecomputeCtx::incoming`]).
    handover: Handover,
}

impl Default for ArenaEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        ArenaEngine {
            sched: FrontierSchedule::new(),
            chunk_bufs: Vec::new(),
            changed: Vec::new(),
            taint: crate::engine::TaintTable::new(),
            handover: Handover::default(),
        }
    }

    /// The frontier list: ascending, no duplicates.
    pub fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    /// See [`crate::engine::MbfEngine::enable_change_log`].
    pub fn enable_change_log(&mut self) {
        self.sched.enable_change_log();
    }

    /// See [`crate::engine::MbfEngine::drain_change_log`].
    pub fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    /// See [`crate::engine::MbfEngine::mark_all_dirty`]. Also clears
    /// all taints and deltas: the next hop merges every neighbor's
    /// whole state anyway (the whole graph is on the frontier).
    pub fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
        self.taint.reset(g.n());
        self.handover.clear();
    }

    /// Sizes the schedule and taint table for `g` with an **empty**
    /// frontier (cf. [`crate::engine::MbfEngine::prime`]): a following
    /// [`ArenaEngine::mark_dirty`] then seeds exactly its vertices
    /// instead of falling back to the all-dirty restart. Used by the
    /// checkpoint-resume path. Drops every delta: the states may come
    /// from anywhere, so neighbors take whole spans.
    pub fn prime(&mut self, g: &Graph) {
        self.sched.ensure_sized(g);
        self.taint.ensure_sized(g.n());
        self.handover.clear();
    }

    /// See [`crate::engine::MbfEngine::mark_dirty`]. The seeded
    /// vertices are additionally **tainted**: their states were
    /// rewritten outside the engine, so their next recomputation must
    /// merge every neighbor (see [`RecomputeCtx::require_full`]), and
    /// their neighbors must take their whole new states.
    pub fn mark_dirty(&mut self, g: &Graph, vs: impl IntoIterator<Item = NodeId>) {
        if !self.sched.sized_for(g.n()) {
            // Falls back to an all-dirty restart inside the schedule;
            // keep the taint table in sync.
            self.mark_all_dirty(g);
            return;
        }
        let (taint, handover) = (&mut self.taint, &mut self.handover);
        self.sched.mark_dirty(
            g,
            vs.into_iter().inspect(|&v| {
                taint.taint(v);
                handover.forget(v);
            }),
        );
    }

    /// One hop `x ← r^V A x` over the span-backed state vector, with
    /// all edge weights multiplied by `weight_scale`. Bit-identical to
    /// [`crate::engine::MbfEngine::step`] on the exported states; returns the work
    /// spent (including storage counters) and whether any state
    /// changed.
    pub fn step<A: ArenaMbfAlgorithm>(
        &mut self,
        alg: &A,
        g: &Graph,
        store: &mut EpochStore,
        weight_scale: f64,
    ) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, store.len(), "state store / graph size mismatch");
        if !self.sched.sized_for(n) {
            self.mark_all_dirty(g);
        }
        self.sched.plan_hop(g);
        let touched: &[NodeId] = self.sched.touched();
        let chunks: &[std::ops::Range<usize>] = self.sched.chunks();
        let k = chunks.len();
        if self.chunk_bufs.len() < k {
            self.chunk_bufs.resize_with(k, ChunkBuf::default);
        }

        // Recompute phase: each chunk pulls its vertices' next states
        // out of the (immutably shared) store and writes them into its
        // own append region — disjoint plain buffers, no aliasing, no
        // synchronization. Unchanged output is truncated away on the
        // spot, so quiescent vertices contribute zero bytes.
        let store_ref: &EpochStore = store;
        let ctx = RecomputeCtx {
            sched: &self.sched,
            taint: &self.taint,
            handover: &self.handover,
        };
        self.chunk_bufs[..k]
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(ci, buf)| {
                buf.entries.clear();
                buf.ranks.clear();
                buf.delta.clear();
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
                    buf.recs.push(Rec {
                        off: start as u32,
                        len: if changed { len as u32 } else { 0 },
                        delta_len: (buf.delta.len() - delta_start) as u32,
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
        let total_new: usize = self.chunk_bufs[..k].iter().map(|b| b.entries.len()).sum();
        store.begin_epoch(total_new);
        self.changed.clear();
        // This hop's deltas replace the last hop's; the recompute phase
        // above was their only reader.
        self.handover.clear();
        if A::SEMI_NAIVE {
            self.handover.ensure_sized(n);
        }
        let mut entries = 0u64;
        let mut relaxations = 0u64;
        let mut handover_entries = 0u64;
        let mut any_changed = false;
        for (ci, buf) in self.chunk_bufs[..k].iter().enumerate() {
            let base = store.append_region(&buf.entries, &buf.ranks);
            let mut delta_off = self.handover.entries.len() as u32;
            self.handover.entries.extend_from_slice(&buf.delta);
            debug_assert_eq!(buf.recs.len(), chunks[ci].len());
            for (rec, p) in buf.recs.iter().zip(chunks[ci].clone()) {
                entries += rec.entries;
                relaxations += rec.relaxations;
                handover_entries += rec.handover_entries;
                if rec.changed {
                    store.set_span(touched[p], base + rec.off, rec.len);
                    if A::SEMI_NAIVE {
                        self.handover.set(touched[p], delta_off, rec.delta_len);
                        delta_off += rec.delta_len;
                    }
                    any_changed = true;
                }
                self.changed.push(rec.changed);
            }
        }
        debug_assert_eq!(self.changed.len(), touched.len());

        // Every touched vertex was recomputed (tainted ones with full
        // merges), so its taint is discharged.
        for &v in touched {
            self.taint.discharge(v);
        }

        let touched_vertices = touched.len() as u64;
        let changed: &[bool] = &self.changed;
        self.sched.refresh(|p| changed[p]);

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

/// The arena backend of [`StateBackend`]: an [`EpochStore`] hopped by
/// an [`ArenaEngine`]. Its states export as owned maps, bit-identical to
/// the owned backend's; storage counters include the initial load.
#[derive(Clone, Debug)]
pub struct ArenaBackend {
    engine: ArenaEngine,
    store: EpochStore,
    /// The store's counters when the oracle built the lane, the
    /// baseline `Lane::finish` books the lane's storage traffic against.
    created: StoreStats,
}

impl Default for ArenaBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaBackend {
    /// An empty backend.
    pub fn new() -> Self {
        ArenaBackend {
            engine: ArenaEngine::new(),
            store: EpochStore::default(),
            created: StoreStats::default(),
        }
    }

    /// An oracle lane: `n` empty spans, with the engine's change log on.
    fn lane<A: ArenaMbfAlgorithm>(n: usize) -> Self {
        let mut engine = ArenaEngine::new();
        engine.enable_change_log();
        let store = EpochStore::with_rank_column(n, A::USES_RANK_COLUMN);
        let created = store.stats();
        ArenaBackend {
            engine,
            store,
            created,
        }
    }
}

impl<A: ArenaMbfAlgorithm> StateBackend<A> for ArenaBackend {
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.store = initial_store(alg, g.n());
        self.engine.mark_all_dirty(g);
        Ok(storage_work(self.store.stats()))
    }

    /// The states bulk-load into a fresh epoch pool and the recorded
    /// frontier seeds the schedule. The seeded vertices are tainted
    /// (their pool spans were written externally), which forces full
    /// merges but never changes states — resumed **states** are
    /// bit-identical to the uninterrupted run's; work counters may
    /// differ by the taint-forced merges.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<DistanceMap>,
    ) -> Result<WorkStats, RunError> {
        self.store = EpochStore::with_rank_column(g.n(), A::USES_RANK_COLUMN);
        self.store.import(&ckpt.states, |u| alg.entry_aux(u));
        self.engine.prime(g);
        self.engine.mark_dirty(g, ckpt.frontier.iter().copied());
        Ok(storage_work(self.store.stats()))
    }

    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool) {
        self.engine.step(alg, g, &mut self.store, scale)
    }

    fn mark_all_dirty(&mut self, g: &Graph) {
        self.engine.mark_all_dirty(g);
    }

    fn mark_dirty(&mut self, g: &Graph, vs: &[NodeId]) {
        self.engine.mark_dirty(g, vs.iter().copied());
    }

    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.engine.drain_change_log(out);
    }

    fn frontier(&self) -> &[NodeId] {
        self.engine.frontier()
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

/// The arena lane of the oracle's level loop: `y_λ` as an
/// [`EpochStore`] — no per-vertex maps.
impl<A: ArenaMbfAlgorithm> Lane<A> for ArenaBackend {
    type X = Vec<DistanceMap>;
    type Folded = DistanceMap;

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

    fn finish<'a>(lanes: impl Iterator<Item = &'a Self>, work: &mut WorkStats)
    where
        Self: 'a,
    {
        // The stores saw every byte the run copied — the hops tallied
        // only theirs, not the projection rewrites — so their totals
        // replace the hop tallies. The Λ+1 level pools are live
        // *simultaneously*: the run's arena high-water mark is the sum
        // of the per-level peaks.
        (work.bytes_copied, work.alloc_count, work.arena_bytes) = (0, 0, 0);
        for lane in lanes {
            let now = lane.store.stats();
            work.bytes_copied += now.bytes_copied - lane.created.bytes_copied;
            work.alloc_count += now.alloc_count - lane.created.alloc_count;
            work.arena_bytes += now.arena_bytes;
        }
    }

    fn export(x: Vec<DistanceMap>) -> Vec<DistanceMap> {
        x
    }
}

/// [`crate::oracle::oracle_run_with_schedule`] on the arena backend:
/// each level vector `y_λ` is an epoch-arena store (`O(Λ)` buffers
/// total — no per-vertex maps). Bit-identical states, iteration counts,
/// fixpoint flags, hops and touched vertices; the other counters are
/// the arena engine's own.
pub fn oracle_run_arena_with_schedule<A: ArenaMbfAlgorithm>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
) -> OracleRun<DistanceMap> {
    let n = sim.augmented().n();
    let lane = || ArenaBackend::lane::<A>(n);
    run_lanes(alg, sim, h, carry_over, lane, initial_states(alg, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
    use crate::engine::{literal_fixpoint, MbfEngine, OwnedBackend};
    use crate::run::run_to_fixpoint_on;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_sssp_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = gnm_graph(60, 150, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 3);
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, arena.states);
        assert_eq!(literal.iterations, arena.iterations);
        assert_eq!(literal.fixpoint, arena.fixpoint);
        // The schedule is shared, so touched counts agree exactly; the
        // arena may skip provably-absorbed merges, so its relaxation
        // count can only be lower.
        assert!(arena.work.edge_relaxations <= owned.work.edge_relaxations);
        assert_eq!(owned.work.touched_vertices, arena.work.touched_vertices);
    }

    #[test]
    fn arena_copy_on_write_beats_owned_copy_traffic() {
        // On a path, the SSSP wave is O(1) vertices per hop: the owned
        // backend still rewrites every touched state while the arena
        // appends only the wave.
        let g = path_graph(256, 1.0);
        let alg = SourceDetection::sssp(g.n(), 0);
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        assert_eq!(owned.states, arena.states);
        assert!(
            arena.work.bytes_copied * 2 < owned.work.bytes_copied,
            "arena {} !< owned {} / 2",
            arena.work.bytes_copied,
            owned.work.bytes_copied
        );
        assert!(arena.work.alloc_count < owned.work.alloc_count);
        assert!(arena.work.arena_bytes > 0 && owned.work.arena_bytes == 0);
    }

    #[test]
    fn rank_column_is_per_algorithm_and_cuts_append_traffic() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use mte_algebra::store::{ENTRY_BYTES, ENTRY_BYTES_UNRANKED};
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
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &sssp, &g, g.n() + 1);
        assert_eq!(run.states, owned.states);

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

        let mut owned_states = initial_states(&alg, g.n());
        let mut owned_engine = MbfEngine::new();
        owned_engine.mark_all_dirty(&g);
        let mut store = initial_store(&alg, g.n());
        let mut engine = ArenaEngine::new();
        engine.mark_all_dirty(&g);

        for round in 0..6u64 {
            // External sparse edit on both backends.
            let v = (round * 7 % g.n() as u64) as NodeId;
            let edit = alg.init((v + 1) % g.n() as NodeId);
            owned_states[v as usize] = edit.clone();
            owned_engine.mark_dirty(&g, [v]);
            store.assign(v, edit.entries(), |u| alg.entry_aux(u));
            engine.mark_dirty(&g, [v]);
            // Interleave a forced compaction: spans move, states must
            // not.
            if round % 2 == 1 {
                store.compact();
            }
            for _ in 0..3 {
                owned_engine.step(&alg, &g, &mut owned_states, 1.0);
                engine.step(&alg, &g, &mut store, 1.0);
            }
            assert_eq!(store.export(), owned_states, "round {round}");
        }
    }

    /// One hop, checking the delta rule on its outcome: a vertex the hop
    /// changed is on the new frontier with delta `new \ old` (as
    /// identical pairs); an unchanged vertex records none.
    fn step_checking_deltas<A: ArenaMbfAlgorithm>(
        alg: &A,
        g: &Graph,
        engine: &mut ArenaEngine,
        store: &mut EpochStore,
    ) -> bool {
        let old = store.export();
        let (_, changed) = engine.step(alg, g, store, 1.0);
        let new = store.export();
        for v in 0..g.n() as NodeId {
            let (o, n) = (old[v as usize].entries(), new[v as usize].entries());
            let delta = engine.handover.delta(v);
            if o == n {
                assert!(
                    !engine.sched.on_frontier(v),
                    "unchanged {v} on the frontier"
                );
                assert_eq!(delta, None, "unchanged {v} recorded a delta");
            } else {
                assert!(engine.sched.on_frontier(v), "changed {v} off the frontier");
                let want: Vec<(NodeId, Dist)> =
                    n.iter().copied().filter(|p| !o.contains(p)).collect();
                assert_eq!(delta, Some(&want[..]), "delta of {v}");
            }
        }
        changed
    }

    fn no_deltas(engine: &ArenaEngine, n: usize) -> bool {
        (0..n as NodeId).all(|v| engine.handover.delta(v).is_none())
    }

    #[test]
    fn arena_deltas_are_new_pairs_and_whole_spans_after_edits() {
        use crate::frt::le_list::{LeListAlgorithm, Ranks};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(74);
        let g = gnm_graph(40, 100, 1.0..6.0, &mut rng);
        let alg = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
        let mut store = initial_store(&alg, g.n());
        let mut engine = ArenaEngine::new();

        // A fresh run hands over whole spans.
        engine.mark_all_dirty(&g);
        assert!(no_deltas(&engine, g.n()));
        assert!(step_checking_deltas(&alg, &g, &mut engine, &mut store));
        assert!(step_checking_deltas(&alg, &g, &mut engine, &mut store));

        // An external edit drops the seeded vertex's delta only; the
        // residual frontier keeps its deltas across the idle gap and a
        // compaction (they live outside the pool).
        let residual: Vec<NodeId> = engine.frontier().to_vec();
        let v = residual[0];
        store.assign(v, alg.init(v).entries(), |u| alg.entry_aux(u));
        engine.mark_dirty(&g, [v]);
        store.compact();
        assert_eq!(engine.handover.delta(v), None, "seeded {v} kept its delta");
        assert!(residual[1..]
            .iter()
            .all(|&w| engine.handover.delta(w).is_some()));
        assert!(step_checking_deltas(&alg, &g, &mut engine, &mut store));

        // Priming (the resume path) and an all-dirty restart drop every
        // delta, mid-run too.
        assert!(!no_deltas(&engine, g.n()));
        engine.prime(&g);
        assert!(no_deltas(&engine, g.n()));
        assert!(step_checking_deltas(&alg, &g, &mut engine, &mut store));
        assert!(!no_deltas(&engine, g.n()));
        engine.mark_all_dirty(&g);
        assert!(no_deltas(&engine, g.n()));
        while step_checking_deltas(&alg, &g, &mut engine, &mut store) {}

        // A fresh engine resuming from the fixpoint hands over whole
        // spans for its seeded frontier and finds nothing to change.
        let mut resumed = ArenaEngine::new();
        resumed.prime(&g);
        resumed.mark_dirty(&g, [0, 1, 2]);
        assert!(no_deltas(&resumed, g.n()));
        assert!(!step_checking_deltas(&alg, &g, &mut resumed, &mut store));
    }
}
