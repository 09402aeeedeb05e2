//! The MBF-like iteration engine (paper Sections 2.3–2.4), with a
//! frontier-driven sparse core.
//!
//! # The model
//!
//! An MBF-like algorithm `A` (Definition 2.11) is given by a semiring `S`,
//! a zero-preserving semimodule `M` over `S`, a congruence relation with
//! representative projection `r`, and initial values `x⁽⁰⁾ ∈ M^V`. One
//! iteration computes `x⁽ⁱ⁺¹⁾ = r^V A x⁽ⁱ⁾`: **propagate** each node's
//! state over its incident edges (`⊙` with the adjacency coefficient),
//! **aggregate** incoming states (`⊕`), **filter** with `r`. By
//! Corollary 2.17 the interleaved filtering never changes the output
//! class, so `h` iterations compute `r^V A^h x⁽⁰⁾`.
//!
//! # Frontier schedule
//!
//! The paper's efficiency argument (Lemmas 7.6–7.8) charges each
//! iteration `O(Σ_v |x_v|)` work over the vertices it recomputes, and
//! iterations *converge*: after a few hops most vertices are quiescent.
//! [`MbfEngine`] exploits this. It tracks the **frontier** — the set of
//! vertices whose state changed in the previous hop — and recomputes
//! only vertices with a frontier vertex in their closed neighborhood.
//! Everything else provably cannot change:
//! `x⁽ⁱ⁺¹⁾_v = r(x⁽ⁱ⁾_v ⊕ ⊕_w a_vw x⁽ⁱ⁾_w)` depends only on `v`'s closed
//! in-neighborhood, and if none of those states moved since the hop that
//! produced `x⁽ⁱ⁾_v`, recomputation would reproduce `x⁽ⁱ⁾_v` verbatim.
//! The skip is therefore **bit-identical** to the literal sweep — no
//! approximation is involved — which the equivalence suite asserts
//! state-for-state. Because the skip is exact, sweeping quiescent
//! vertices only adds work, so there is one hop schedule: a hop sweeps
//! all of `V` only when the frontier is all of `V`. The literal
//! reference is [`run`], `h` applications of the one-shot [`iterate`]
//! kernel, which shares none of the schedule's code.
//!
//! Recomputed vertices re-aggregate their whole neighborhood (a *pull*);
//! incremental *push*-style accumulation is unsound here because a filter
//! may shrink a neighbor's state, and `⊕` has no inverse to retract the
//! stale contribution. (For absorption-stable filters the arena backend
//! narrows the pull to the entries each neighbor's last change added:
//! the semi-naive handover of [`crate::arena`].)
//!
//! States are **double-buffered**: the engine owns a shadow vector and
//! writes hop `i+1` into it via `clone_from` (which reuses each state's
//! heap buffer), then swaps only the vertices that changed. Combined with
//! the zero-allocation merge kernels of [`mte_algebra::merge`] and the
//! engine-owned stats buffer, a steady-state hop performs no per-vertex
//! allocation.
//!
//! # Frontier-list schedule
//!
//! The frontier is an **explicit sorted list** of vertices, not a bitset
//! scanned per hop, so a hop's bookkeeping is proportional to the
//! frontier's closed neighborhood — not `n`. The invariants:
//!
//! * `frontier` holds exactly the vertices whose state changed in the
//!   previous hop (or were declared dirty via [`MbfEngine::mark_dirty`] /
//!   [`MbfEngine::mark_all_dirty`]), in **ascending node order** with no
//!   duplicates.
//! * Membership is tracked by **generation stamps**: `frontier_mark[v] ==
//!   frontier_gen ⇔ v ∈ frontier`. Refreshing the frontier bumps the
//!   generation instead of clearing the mark vector, so a hop never pays
//!   an `O(n)` reset; on (u32) generation wrap-around the marks are
//!   zeroed once and the generation restarts at 1.
//! * The per-hop recompute list (the closed neighborhood of the
//!   frontier) is gathered through its own generation-stamped mark
//!   vector and then **deduplicated deterministically by sorting** — the
//!   schedule is a pure function of the frontier set, never of traversal
//!   or thread interleaving, and therefore bit-identical to the former
//!   bitset scan (asserted by the equivalence suite).
//!
//! Each hop chunks the recompute list by **cumulative degree** (a prefix
//! sum over `deg(v) + 1`), not by element count, so a skewed frontier —
//! a few hubs plus many leaves — still load-balances across workers.
//! Chunk boundaries are a pure function of the list and the graph's
//! degrees, and per-chunk `WorkStats`/changed-flags merge through the
//! fixed-shape reduction tree of the rayon shim, so every output —
//! states, work counters, frontier bookkeeping — is bit-identical across
//! thread counts (`MTE_THREADS`; asserted by the determinism suite in
//! `tests/engine_equivalence.rs`).
//!
//! Algorithms can override [`MbfAlgorithm::recompute_into`] to fuse the
//! representative projection into the merges — e.g. the LE-list
//! algorithm rejects echoed and rank-dominated entries per incoming
//! entry, batches the survivors, and combines them with one sorted
//! merge — as long as the result stays bit-identical to the default
//! merge-everything-then-filter reference (differential-tested by
//! `tests/schedule_equivalence.rs`).

use crate::error::RunError;
use crate::run::{run_to_fixpoint_on, Checkpoint, StateBackend};
use crate::work::WorkStats;
use mte_algebra::{Filter, NodeId, Semimodule, Semiring};
use mte_graph::Graph;
use rayon::prelude::*;

/// An MBF-like algorithm (Definition 2.11): the semiring, semimodule,
/// adjacency coefficients, filter, and initialization.
pub trait MbfAlgorithm: Send + Sync {
    /// The semiring `S` whose elements weight the edges.
    type S: Semiring;
    /// The node-state semimodule `M` over `S`.
    type M: Semimodule<Self::S>;

    /// Adjacency coefficient `a_vw` for the edge `{v, w}` of weight
    /// `weight`, used when propagating `w`'s state to `v`. The diagonal is
    /// always the semiring one (cf. Equations (1.4), (3.9), (3.18),
    /// (3.28)) and is applied by the engine.
    fn edge_coeff(&self, v: NodeId, w: NodeId, weight: f64) -> Self::S;

    /// The representative projection `r`, applied component-wise.
    fn filter(&self, x: &mut Self::M);

    /// Initial state `x⁽⁰⁾_v`.
    fn init(&self, v: NodeId) -> Self::M;

    /// Fused `acc ← acc ⊕ (coeff ⊙ state)`. Override to avoid
    /// materializing the scaled intermediate (the hot path of every
    /// iteration).
    fn propagate_into(&self, acc: &mut Self::M, state: &Self::M, coeff: &Self::S) {
        acc.add_assign(&state.scale(coeff));
    }

    /// Size of a state's sparse representation (the paper's `|x|`),
    /// used for work accounting. Defaults to 1 for constant-size states.
    fn state_size(&self, _x: &Self::M) -> usize {
        1
    }

    /// Recomputes `v`'s next state `out ← r(x_v ⊕ ⊕_w a_vw x_w)` from the
    /// current state vector, returning `(entries_processed,
    /// edge_relaxations)`. The default is the literal
    /// merge-everything-then-filter pipeline (clone own state, propagate
    /// every neighbor, apply `r`).
    ///
    /// Algorithms whose filter admits a per-entry domination test can
    /// override this to prune at merge time — either through the
    /// admission-predicate kernels of [`mte_algebra::merge`] or with a
    /// bespoke pass like the LE lists' echo-rejecting gather-and-batch
    /// merge; an override **must** produce a result bit-identical to
    /// the default — the engine treats the two as interchangeable and
    /// the equivalence suite differential-tests them.
    fn recompute_into(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &[Self::M],
        out: &mut Self::M,
    ) -> (u64, u64) {
        // a_vv = 1: keep the node's own state.
        out.clone_from(&states[v as usize]);
        let mut entries = self.state_size(out) as u64;
        let mut relaxations = 0u64;
        for &(w, ew) in g.neighbors(v) {
            let coeff = self.edge_coeff(v, w, ew * weight_scale);
            self.propagate_into(out, &states[w as usize], &coeff);
            entries += self.state_size(&states[w as usize]) as u64;
            relaxations += 1;
        }
        self.filter(out);
        (entries, relaxations)
    }
}

/// Result of running an MBF-like algorithm: final states and work tally.
#[derive(Clone, Debug)]
pub struct MbfRun<M> {
    /// Final state vector `x⁽ʰ⁾ = r^V A^h x⁽⁰⁾`, indexed by node.
    pub states: Vec<M>,
    /// Number of iterations actually executed.
    pub iterations: usize,
    /// Whether a fixpoint (`x⁽ⁱ⁺¹⁾ = x⁽ⁱ⁾`) was reached.
    pub fixpoint: bool,
    /// Work accounting.
    pub work: WorkStats,
}

/// The initial state vector `r^V x⁽⁰⁾`.
pub fn initial_states<A: MbfAlgorithm>(alg: &A, n: usize) -> Vec<A::M> {
    (0..n as NodeId)
        .into_par_iter()
        .map(|v| {
            let mut x = alg.init(v);
            alg.filter(&mut x);
            x
        })
        .collect()
}

/// Minimum cumulative cost (`Σ deg(v) + 1` over a chunk's vertices) per
/// scheduling chunk: below this, shipping the chunk to a worker costs
/// more than the relaxations it carries.
const MIN_CHUNK_COST: usize = 256;

/// Hard cap on scheduling chunks per hop, matching the rayon shim's
/// fixed-shape reduction-tree width.
const MAX_HOP_CHUNKS: usize = 64;

/// Shared mutable base pointer for disjoint-index writes from parallel
/// chunks (used by the owned and dense engine backends).
///
/// Soundness contract (upheld by the `step` implementations): the
/// per-hop recompute list is sorted and deduplicated, and chunks
/// partition its *positions*, so no two chunks ever touch the same
/// vertex slot (or row window) or stats slot.
pub(crate) struct SyncPtr<T>(pub(crate) *mut T);

// SAFETY: the wrapper only makes the raw base pointer *shareable*; every
// dereference goes through `slot`, whose callers uphold the disjoint-index
// contract in the struct docs (chunks partition the recompute positions),
// so no two threads ever form overlapping references. `T: Send` covers
// handing the pointed-to values across threads.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Raw slot pointer at index `i`. Going through a method (rather
    /// than the field) makes closures capture the whole wrapper, keeping
    /// its `Sync` impl in effect under disjoint closure capture.
    ///
    /// Safety: the caller must own index `i` exclusively (see the struct
    /// docs) and stay within the allocation the base pointer came from.
    pub(crate) unsafe fn slot(&self, i: usize) -> *mut T {
        // SAFETY: `i` is in bounds of the allocation behind the base
        // pointer (caller contract above).
        unsafe { self.0.add(i) }
    }
}

/// Generation-stamped taint table shared by the arena and dense
/// engines: a tainted vertex was externally rewritten since its last
/// recomputation (it has absorbed nothing), so its next recomputation
/// must merge every neighbor even under an absorption-stable skip.
/// Kept in one place so the resize/wrap-around semantics cannot
/// diverge between the backends.
#[derive(Clone, Debug)]
pub(crate) struct TaintTable {
    mark: Vec<u32>,
    gen: u32,
}

impl TaintTable {
    pub(crate) fn new() -> Self {
        TaintTable {
            mark: Vec::new(),
            gen: 1,
        }
    }

    /// Sizes the table for `n` vertices if needed, without clearing
    /// existing taints on a same-size table.
    pub(crate) fn ensure_sized(&mut self, n: usize) {
        if self.mark.len() != n {
            self.mark.clear();
            self.mark.resize(n, 0);
            self.gen = 1;
        }
    }

    /// Sizes for `n` vertices and discharges every taint (the engine's
    /// `mark_all_dirty` path: the next hop merges everything anyway).
    pub(crate) fn reset(&mut self, n: usize) {
        if self.mark.len() != n {
            self.mark.clear();
            self.mark.resize(n, 0);
            self.gen = 1;
        } else {
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                self.mark.iter_mut().for_each(|m| *m = 0);
                self.gen = 1;
            }
        }
    }

    #[inline]
    pub(crate) fn taint(&mut self, v: NodeId) {
        self.mark[v as usize] = self.gen;
    }

    #[inline]
    pub(crate) fn is_tainted(&self, v: NodeId) -> bool {
        self.mark[v as usize] == self.gen
    }

    /// Discharges `v`'s taint (after a full-merge recomputation).
    #[inline]
    pub(crate) fn discharge(&mut self, v: NodeId) {
        if self.is_tainted(v) {
            self.mark[v as usize] = 0;
        }
    }
}

/// Bumps a generation counter, zeroing the mark vector once on (u32)
/// wrap-around so stale stamps can never alias a live generation.
fn bump_generation(gen: &mut u32, marks: &mut [u32]) -> u32 {
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        marks.iter_mut().for_each(|m| *m = 0);
        *gen = 1;
    }
    *gen
}

/// Bytes one sparse state entry occupies in the owned (`Vec<M>`)
/// backend: a 16-byte `(NodeId, Dist)`-sized slot. Used for the
/// model-level `bytes_copied` accounting (see
/// [`crate::work::WorkStats`]).
const OWNED_ENTRY_BYTES: u64 = 16;

/// The scheduling core shared by the owned [`MbfEngine`] and the
/// arena-backed [`crate::arena::ArenaEngine`]: the frontier list,
/// generation-stamped membership marks, the per-hop recompute list with
/// its degree-balanced chunking, and an optional **change log** (the
/// union of all frontier refreshes since the last drain — what the
/// oracle's frontier-sized carry-over diff reads).
///
/// Extracting the schedule guarantees the two storage backends run the
/// *same* hops over the *same* chunks: any divergence between them is a
/// storage bug, never a scheduling one.
#[derive(Clone, Debug)]
pub(crate) struct FrontierSchedule {
    /// The frontier: vertices whose state changed in the previous hop,
    /// ascending, no duplicates.
    frontier: Vec<NodeId>,
    /// `frontier_mark[v] == frontier_gen` ⇔ `v` is on the frontier.
    frontier_mark: Vec<u32>,
    frontier_gen: u32,
    /// This hop's recompute list (closed neighborhood of the frontier),
    /// sorted ascending; reused across hops.
    touched: Vec<NodeId>,
    /// Generation-stamped dedup marks for gathering `touched`.
    touched_mark: Vec<u32>,
    touched_gen: u32,
    /// Degree-balanced chunk boundaries (position ranges into `touched`).
    chunks: Vec<std::ops::Range<usize>>,
    /// Change log: every vertex whose state the engine changed since the
    /// last [`FrontierSchedule::drain_change_log`], deduplicated by
    /// generation stamps. Only maintained when enabled.
    log: Vec<NodeId>,
    log_mark: Vec<u32>,
    log_gen: u32,
    log_enabled: bool,
}

impl FrontierSchedule {
    pub(crate) fn new() -> Self {
        FrontierSchedule {
            frontier: Vec::new(),
            frontier_mark: Vec::new(),
            frontier_gen: 0,
            touched: Vec::new(),
            touched_mark: Vec::new(),
            touched_gen: 0,
            chunks: Vec::new(),
            log: Vec::new(),
            log_mark: Vec::new(),
            log_gen: 0,
            log_enabled: false,
        }
    }

    pub(crate) fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// `true` iff `v` is on the current frontier — i.e. its state may
    /// differ from what its neighbors absorbed in their last
    /// recomputation. Valid between [`FrontierSchedule::plan_hop`] and
    /// [`FrontierSchedule::refresh`] (the window the recompute phase
    /// runs in).
    #[inline]
    pub(crate) fn on_frontier(&self, v: NodeId) -> bool {
        self.frontier_mark[v as usize] == self.frontier_gen
    }

    /// `true` iff the mark vectors are sized for an `n`-vertex graph.
    pub(crate) fn sized_for(&self, n: usize) -> bool {
        self.frontier_mark.len() == n
    }

    /// Turns on the change log (see the struct docs). Idempotent.
    pub(crate) fn enable_change_log(&mut self) {
        self.log_enabled = true;
    }

    /// Appends the sorted, deduplicated set of vertices changed since
    /// the last drain to `out` and resets the log.
    pub(crate) fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        debug_assert!(self.log_enabled, "change log was never enabled");
        self.log.sort_unstable();
        out.extend_from_slice(&self.log);
        self.log.clear();
        bump_generation(&mut self.log_gen, &mut self.log_mark);
    }

    /// Sizes the mark vectors for `g` (if needed) with an **empty**
    /// frontier — unlike [`FrontierSchedule::mark_all_dirty`], nothing
    /// is made dirty. Lets a caller prime a fresh schedule so a later
    /// [`FrontierSchedule::mark_dirty`] seeds exactly its vertices
    /// instead of falling back to the all-dirty restart.
    pub(crate) fn ensure_sized(&mut self, g: &Graph) {
        let n = g.n();
        if self.frontier_mark.len() != n {
            self.frontier_mark.clear();
            self.frontier_mark.resize(n, 0);
            // Marks are all 0: the generation must be nonzero so no
            // vertex reads as a frontier member.
            self.frontier_gen = 1;
            self.frontier.clear();
            self.touched_mark.clear();
            self.touched_mark.resize(n, 0);
            self.touched_gen = 0;
            self.log_mark.clear();
            self.log_mark.resize(n, 0);
            self.log_gen = 1;
            self.log.clear();
        }
    }

    pub(crate) fn mark_all_dirty(&mut self, g: &Graph) {
        let n = g.n();
        if self.frontier_mark.len() != n {
            self.frontier_mark.clear();
            self.frontier_mark.resize(n, 0);
            self.frontier_gen = 0;
            self.touched_mark.clear();
            self.touched_mark.resize(n, 0);
            self.touched_gen = 0;
            self.log_mark.clear();
            self.log_mark.resize(n, 0);
            self.log_gen = 1;
            self.log.clear();
        }
        let gen = bump_generation(&mut self.frontier_gen, &mut self.frontier_mark);
        self.frontier.clear();
        self.frontier.extend(0..n as NodeId);
        self.frontier_mark.iter_mut().for_each(|m| *m = gen);
    }

    pub(crate) fn mark_dirty(&mut self, g: &Graph, vs: impl IntoIterator<Item = NodeId>) {
        if self.frontier_mark.len() != g.n() {
            // Never sized for this graph: there is no residual state to
            // carry over, so the conservative restart is the only sound
            // option.
            self.mark_all_dirty(g);
            return;
        }
        let gen = self.frontier_gen;
        let mut added = false;
        for v in vs {
            let mark = &mut self.frontier_mark[v as usize];
            if *mark != gen {
                *mark = gen;
                self.frontier.push(v);
                added = true;
            }
        }
        if added {
            self.frontier.sort_unstable();
        }
    }

    /// Gathers the recompute list — all of `V` when the frontier is all
    /// of `V`, else the closed neighborhood of the frontier — into
    /// `self.touched`, sorted ascending, cut into degree-balanced chunks.
    pub(crate) fn plan_hop(&mut self, g: &Graph) {
        let n = g.n();
        self.touched.clear();
        if self.frontier.len() == n {
            self.touched.extend(0..n as NodeId);
        } else {
            let gen = bump_generation(&mut self.touched_gen, &mut self.touched_mark);
            for &v in &self.frontier {
                if self.touched_mark[v as usize] != gen {
                    self.touched_mark[v as usize] = gen;
                    self.touched.push(v);
                }
                for &(w, _) in g.neighbors(v) {
                    if self.touched_mark[w as usize] != gen {
                        self.touched_mark[w as usize] = gen;
                        self.touched.push(w);
                    }
                }
            }
            // Deterministic schedule: the list is a pure function of the
            // frontier *set*, not of gathering order.
            self.touched.sort_unstable();
        }

        // Chunk by cumulative degree (prefix sum over deg(v) + 1): a
        // skewed frontier — a few hubs plus many leaves — still splits
        // into chunks of comparable relaxation work. Boundaries depend
        // only on the list and the graph, never on the thread count.
        let total: usize = self.touched.iter().map(|&v| g.degree(v) + 1).sum();
        let k = (total / MIN_CHUNK_COST).clamp(1, MAX_HOP_CHUNKS);
        self.chunks.clear();
        if k <= 1 {
            self.chunks.push(0..self.touched.len());
            return;
        }
        let mut start = 0usize;
        let mut acc = 0usize;
        for (p, &v) in self.touched.iter().enumerate() {
            acc += g.degree(v) + 1;
            let closed = self.chunks.len();
            if closed + 1 < k && acc * k >= (closed + 1) * total {
                self.chunks.push(start..p + 1);
                start = p + 1;
            }
        }
        self.chunks.push(start..self.touched.len());
    }

    pub(crate) fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    pub(crate) fn chunks(&self) -> &[std::ops::Range<usize>] {
        &self.chunks
    }

    /// Refreshes the frontier from this hop's outcome: `changed(p)`
    /// reports whether the state at touched position `p` moved. The
    /// changed subsequence of the (sorted) touched list is already
    /// ascending and duplicate-free; the scan is proportional to the
    /// recompute list, not `n`. Feeds the change log when enabled.
    pub(crate) fn refresh(&mut self, changed: impl Fn(usize) -> bool) {
        let gen = bump_generation(&mut self.frontier_gen, &mut self.frontier_mark);
        self.frontier.clear();
        for (p, &v) in self.touched.iter().enumerate() {
            if changed(p) {
                self.frontier.push(v);
                self.frontier_mark[v as usize] = gen;
                if self.log_enabled && self.log_mark[v as usize] != self.log_gen {
                    self.log_mark[v as usize] = self.log_gen;
                    self.log.push(v);
                }
            }
        }
    }
}

/// The reusable iteration state of the frontier engine: shadow buffer,
/// frontier list, generation-stamped membership marks, and scheduling
/// scratch. One engine serves arbitrarily many hops (and state vectors
/// of the same length) without reallocating.
///
/// This is the **owned-storage** engine (`Vec<A::M>` state vectors),
/// fully generic over the semimodule. Algorithms whose states are
/// distance maps should prefer the span-backed
/// [`crate::arena::ArenaEngine`], which schedules the identical hops
/// (same `FrontierSchedule`) over an epoch-arena pool with
/// copy-on-write commits.
#[derive(Clone, Debug)]
pub struct MbfEngine<A: MbfAlgorithm> {
    sched: FrontierSchedule,
    /// Shadow state vector written during a hop, swapped element-wise.
    next: Vec<A::M>,
    /// Per-touched-position `(entries, relaxations, bytes, changed)` of
    /// the current hop, reused across hops so stepping allocates
    /// nothing.
    per_vertex: Vec<(u64, u64, u64, bool)>,
}

impl<A: MbfAlgorithm> Default for MbfEngine<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: MbfAlgorithm> MbfEngine<A> {
    /// A fresh engine. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        MbfEngine {
            sched: FrontierSchedule::new(),
            next: Vec::new(),
            per_vertex: Vec::new(),
        }
    }

    /// Number of vertices currently on the frontier.
    pub fn frontier_len(&self) -> usize {
        self.sched.frontier().len()
    }

    /// The frontier list itself: ascending, no duplicates.
    pub fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    /// Turns on the change log: the engine then records every vertex
    /// whose state a hop changed, until drained. The oracle uses this to
    /// make its carry-over diff frontier-sized.
    pub fn enable_change_log(&mut self) {
        self.sched.enable_change_log();
    }

    /// Appends the sorted set of vertices changed since the last drain
    /// to `out` and resets the log. Requires
    /// [`MbfEngine::enable_change_log`].
    pub fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    /// Declares every vertex dirty. Call after the state vector was
    /// rewritten wholesale outside the engine (initialization) — the
    /// next hop is then a full sweep, after which convergence narrows the
    /// frontier again. For *sparse* external edits, prefer
    /// [`MbfEngine::mark_dirty`].
    pub fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
    }

    /// Sizes the schedule for `g` with an **empty** frontier, making no
    /// vertex dirty. The checkpoint-resume path uses this so a
    /// following [`MbfEngine::mark_dirty`] seeds exactly the recorded
    /// residual frontier instead of falling back to the conservative
    /// all-dirty restart an unsized schedule would take.
    pub fn prime(&mut self, g: &Graph) {
        self.sched.ensure_sized(g);
    }

    /// Adds the given vertices to the frontier (idempotently), keeping
    /// it sorted. This is the **carry-over** entry point: a caller that
    /// rewrote only a few states since the engine's last hop seeds
    /// exactly those — the engine's residual frontier (changes from its
    /// own last hop that neighbors have not yet absorbed) is preserved,
    /// so the next hop is bit-identical to a full [`mark_all_dirty`]
    /// restart while touching only the changed vertices' neighborhoods.
    ///
    /// [`mark_all_dirty`]: MbfEngine::mark_all_dirty
    pub fn mark_dirty(&mut self, g: &Graph, vs: impl IntoIterator<Item = NodeId>) {
        self.sched.mark_dirty(g, vs);
    }

    /// One hop `x ← r^V A x` with all edge weights multiplied by
    /// `weight_scale` (the oracle's `A_λ`, Lemma 5.1). Returns the work
    /// spent and whether **any** state changed; once this reports
    /// `false`, the fixpoint is reached and further hops are no-ops.
    pub fn step(
        &mut self,
        alg: &A,
        g: &Graph,
        states: &mut [A::M],
        weight_scale: f64,
    ) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, states.len(), "state vector / graph size mismatch");
        if !self.sched.sized_for(n) {
            // First use (or a different graph size): treat as all-dirty.
            self.sched.mark_all_dirty(g);
        }
        let mut alloc_count = 0u64;
        if self.next.len() != n {
            self.next.clear();
            self.next.extend((0..n).map(|_| A::M::zero()));
            // Model-level storage accounting: the owned backend
            // materializes one state buffer per vertex slot.
            alloc_count = n as u64;
        }

        self.sched.plan_hop(g);
        let touched: &[NodeId] = self.sched.touched();
        let chunks: &[std::ops::Range<usize>] = self.sched.chunks();

        // Pull-style recomputation of the touched vertices into the
        // shadow buffer, parallel over the degree-balanced chunks.
        // `recompute_into` reuses each shadow state's heap allocation and
        // merges through reusable scratch, and the stats land in the
        // reused `per_vertex` buffer — a steady-state hop allocates
        // nothing and does work proportional to the frontier's closed
        // neighborhood, not `n`.
        self.per_vertex.clear();
        self.per_vertex.resize(touched.len(), (0, 0, 0, false));
        let states_ref: &[A::M] = states;
        let next_base = SyncPtr(self.next.as_mut_ptr());
        let stats_base = SyncPtr(self.per_vertex.as_mut_ptr());
        chunks.par_iter().with_min_len(1).for_each(|range| {
            for p in range.clone() {
                let v = touched[p];
                // SAFETY: chunks partition positions of the sorted,
                // deduplicated `touched` list, so slot `v` and stats
                // slot `p` are owned by exactly this chunk.
                let shadow = unsafe { &mut *next_base.slot(v as usize) };
                // SAFETY: as above — stats slot `p` belongs to this chunk.
                let stats = unsafe { &mut *stats_base.slot(p) };
                let (entries, relaxations) =
                    alg.recompute_into(v, g, weight_scale, states_ref, shadow);
                let changed = *shadow != states_ref[v as usize];
                // Every touched vertex's state was rewritten wholesale
                // into the shadow slot — the copy traffic the arena
                // backend's copy-on-write avoids for unchanged vertices.
                let bytes = alg.state_size(shadow) as u64 * OWNED_ENTRY_BYTES;
                *stats = (entries, relaxations, bytes, changed);
            }
        });

        // Commit: swap in changed states, parallel over the same chunks;
        // per-chunk tallies merge through the fixed-shape reduction tree
        // — bit-identical for every thread count.
        let per_vertex: &[(u64, u64, u64, bool)] = &self.per_vertex;
        let states_base = SyncPtr(states.as_mut_ptr());
        let (entries, relaxations, bytes_copied, any_changed) = chunks
            .par_iter()
            .with_min_len(1)
            .map(|range| {
                let mut tally = (0u64, 0u64, 0u64, false);
                for p in range.clone() {
                    let v = touched[p] as usize;
                    let (entries, relaxations, bytes, changed) = per_vertex[p];
                    tally.0 += entries;
                    tally.1 += relaxations;
                    tally.2 += bytes;
                    if changed {
                        // SAFETY: as above — disjoint vertices per chunk.
                        unsafe { std::ptr::swap(states_base.slot(v), next_base.slot(v)) };
                        tally.3 = true;
                    }
                }
                tally
            })
            .reduce(
                || (0u64, 0u64, 0u64, false),
                |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 || b.3),
            );

        let touched_vertices = touched.len() as u64;
        let per_vertex: &[(u64, u64, u64, bool)] = &self.per_vertex;
        self.sched.refresh(|p| per_vertex[p].3);

        // Fault-injection site: the hop's commit just completed; a
        // `panic` unwinds mid-run, a `poison_nan` corrupts one committed
        // state (the audit in `error::run_guarded` catches either).
        match mte_faults::check_for(
            mte_faults::FaultSite::EngineHopCommit,
            &[
                mte_faults::FaultKind::Panic,
                mte_faults::FaultKind::PoisonNan,
            ],
        ) {
            Some(mte_faults::FaultKind::Panic) => {
                mte_faults::trigger_panic(mte_faults::FaultSite::EngineHopCommit)
            }
            Some(mte_faults::FaultKind::PoisonNan) => {
                if let Some(&v) = self.sched.touched().first() {
                    states[v as usize].poison();
                }
            }
            _ => {}
        }

        let work = WorkStats {
            iterations: 1,
            entries_processed: entries,
            edge_relaxations: relaxations,
            touched_vertices,
            bytes_copied,
            alloc_count,
            ..WorkStats::default()
        };
        (work, any_changed)
    }
}

/// One MBF-like iteration `x ← r^V A x` on `g`, with all edge weights
/// multiplied by `weight_scale`. One-shot dense kernel and the
/// differential-testing reference (see [`run`]): it shares no schedule,
/// chunking or commit code with the engines. Iterated workloads should
/// hold an [`MbfEngine`] instead and let it track the frontier across
/// hops.
pub fn iterate_scaled<A: MbfAlgorithm>(
    alg: &A,
    g: &Graph,
    x: &[A::M],
    weight_scale: f64,
) -> (Vec<A::M>, WorkStats) {
    debug_assert_eq!(g.n(), x.len());
    let results: Vec<(A::M, u64, u64)> = (0..g.n() as NodeId)
        .into_par_iter()
        .map(|v| {
            // a_vv = 1: keep the node's own state.
            let mut acc = x[v as usize].clone();
            let mut entries = alg.state_size(&acc) as u64;
            let mut relaxations = 0u64;
            for &(w, ew) in g.neighbors(v) {
                let coeff = alg.edge_coeff(v, w, ew * weight_scale);
                alg.propagate_into(&mut acc, &x[w as usize], &coeff);
                entries += alg.state_size(&x[w as usize]) as u64;
                relaxations += 1;
            }
            alg.filter(&mut acc);
            (acc, entries, relaxations)
        })
        .collect();

    let mut states = Vec::with_capacity(results.len());
    let mut work = WorkStats {
        iterations: 1,
        ..WorkStats::default()
    };
    work.touched_vertices = g.n() as u64;
    for (s, e, r) in results {
        work.entries_processed += e;
        work.edge_relaxations += r;
        states.push(s);
    }
    (states, work)
}

/// One MBF-like iteration `x ← r^V A x` on `g` (dense one-shot kernel;
/// see [`iterate_scaled`]).
pub fn iterate<A: MbfAlgorithm>(alg: &A, g: &Graph, x: &[A::M]) -> (Vec<A::M>, WorkStats) {
    iterate_scaled(alg, g, x, 1.0)
}

/// The owned backend of [`crate::run::StateBackend`]: a `Vec<A::M>`
/// hopped by an [`MbfEngine`] — fully generic over the semimodule, and
/// the storage the arena and dense backends are asserted against.
#[derive(Clone, Debug)]
pub struct OwnedBackend<A: MbfAlgorithm> {
    pub(crate) engine: MbfEngine<A>,
    pub(crate) states: Vec<A::M>,
}

impl<A: MbfAlgorithm> Default for OwnedBackend<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: MbfAlgorithm> OwnedBackend<A> {
    /// An empty backend.
    pub fn new() -> Self {
        OwnedBackend {
            engine: MbfEngine::new(),
            states: Vec::new(),
        }
    }

    /// An oracle lane: `n` slots, all `⊥`, with the engine's change log
    /// on.
    pub(crate) fn lane(n: usize) -> Self {
        let mut engine = MbfEngine::new();
        engine.enable_change_log();
        OwnedBackend {
            engine,
            states: vec![A::M::zero(); n],
        }
    }
}

impl<A: MbfAlgorithm> StateBackend<A> for OwnedBackend<A> {
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.states = initial_states(alg, g.n());
        self.engine.mark_all_dirty(g);
        Ok(WorkStats::new())
    }

    /// Re-enters with exactly the recorded residual frontier (empty
    /// schedule priming + `mark_dirty`).
    fn resume(
        &mut self,
        _alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError> {
        self.states = ckpt.states.clone();
        self.engine.prime(g);
        self.engine.mark_dirty(g, ckpt.frontier.iter().copied());
        Ok(WorkStats::new())
    }

    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool) {
        self.engine.step(alg, g, &mut self.states, scale)
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

    fn export_states(&self) -> Vec<A::M> {
        self.states.clone()
    }

    fn into_states(self) -> Vec<A::M> {
        self.states
    }
}

/// Runs exactly `h` applications of [`iterate`]:
/// `A^h(G) = r^V A^h x⁽⁰⁾` (Equation (2.17)), the literal reference —
/// every hop sweeps all of `V`, no fixpoint shortcut, `fixpoint: false`.
pub fn run<A: MbfAlgorithm>(alg: &A, g: &Graph, h: usize) -> MbfRun<A::M> {
    let mut states = initial_states(alg, g.n());
    let mut work = WorkStats::new();
    for _ in 0..h {
        let (next, w) = iterate(alg, g, &states);
        states = next;
        work += w;
    }
    MbfRun {
        states,
        iterations: h,
        fixpoint: false,
        work,
    }
}

/// Iterates to the fixpoint on the owned backend (see
/// [`run_to_fixpoint_on`]).
pub fn run_to_fixpoint<A: MbfAlgorithm>(alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M> {
    run_to_fixpoint_on(OwnedBackend::new(), alg, g, cap)
}

/// The literal fixpoint loop: [`iterate`] from `r^V x⁽⁰⁾` until the
/// first hop that changes nothing, or `cap` hops, counted like
/// [`run_to_fixpoint_on`]. The engines' states, iteration counts and
/// fixpoint flags are differential-tested against it.
#[cfg(test)]
pub(crate) fn literal_fixpoint<A: MbfAlgorithm>(alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M> {
    let mut states = initial_states(alg, g.n());
    let mut work = WorkStats::new();
    let (mut iterations, mut fixpoint) = (0, false);
    while iterations < cap {
        let (next, w) = iterate(alg, g, &states);
        work += w;
        iterations += 1;
        if next == states {
            fixpoint = true;
            break;
        }
        states = next;
    }
    MbfRun {
        states,
        iterations,
        fixpoint,
        work,
    }
}

/// Applies a [`Filter`] component-wise to a state vector: the paper's
/// `r^V` (Definition 2.9). Exposed for the oracle, which interleaves
/// filters with projections between iterations.
pub fn filter_states<S, M, F>(filter: &F, states: &mut [M])
where
    S: Semiring,
    M: Semimodule<S>,
    F: Filter<S, M> + Sync,
{
    states.par_iter_mut().for_each(|x| filter.apply(x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_algebra::{Dist, MinPlus};
    use mte_graph::generators::path_graph;

    /// Plain single-source MBF: S = M = S_{min,+}, r = id (Example 3.3).
    struct PlainSssp {
        source: NodeId,
    }

    impl MbfAlgorithm for PlainSssp {
        type S = MinPlus;
        type M = MinPlus;

        fn edge_coeff(&self, _v: NodeId, _w: NodeId, weight: f64) -> MinPlus {
            MinPlus::new(weight)
        }

        fn filter(&self, _x: &mut MinPlus) {}

        fn init(&self, v: NodeId) -> MinPlus {
            if v == self.source {
                MinPlus(Dist::ZERO)
            } else {
                MinPlus(Dist::INF)
            }
        }
    }

    #[test]
    fn h_iterations_compute_h_hop_distances() {
        // Path 0-1-2-3-4: after h iterations node v knows dist iff v ≤ h.
        let g = path_graph(5, 2.0);
        let alg = PlainSssp { source: 0 };
        let run2 = run(&alg, &g, 2);
        assert_eq!(run2.states[2], MinPlus::new(4.0));
        assert_eq!(run2.states[3], MinPlus(Dist::INF));
        let full = run_to_fixpoint(&alg, &g, 100);
        assert!(full.fixpoint);
        // SPD(path of 5 nodes) = 4, plus one confirming iteration.
        assert_eq!(full.iterations, 5);
        assert_eq!(full.states[4], MinPlus::new(8.0));
    }

    #[test]
    fn dense_work_is_counted() {
        let g = path_graph(4, 1.0);
        let alg = PlainSssp { source: 0 };
        let r = run(&alg, &g, 3);
        assert_eq!(r.work.iterations, 3);
        // 2m relaxations per literal iteration.
        assert_eq!(r.work.edge_relaxations, 3 * 2 * g.m() as u64);
        assert_eq!(r.work.touched_vertices, 3 * g.n() as u64);
    }

    #[test]
    fn frontier_relaxes_fewer_edges_than_dense() {
        let g = path_graph(64, 1.0);
        let alg = PlainSssp { source: 0 };
        let cap = g.n() + 1;
        let literal = literal_fixpoint(&alg, &g, cap);
        let frontier = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, cap);
        assert!(literal.fixpoint && frontier.fixpoint);
        assert_eq!(literal.states, frontier.states);
        assert_eq!(literal.iterations, frontier.iterations);
        // On a path, the SSSP wave touches O(1) vertices per hop while
        // the literal sweep re-relaxes all 2m edge directions every hop.
        assert!(
            frontier.work.edge_relaxations * 4 < literal.work.edge_relaxations,
            "frontier {} vs literal {}",
            frontier.work.edge_relaxations,
            literal.work.edge_relaxations
        );
    }

    #[test]
    fn steps_after_fixpoint_are_free() {
        let g = path_graph(8, 1.0);
        let alg = PlainSssp { source: 0 };
        let mut backend = OwnedBackend::new();
        let mut work = backend.start(&alg, &g).unwrap();
        for _ in 0..50 {
            work += backend.step(&alg, &g, 1.0).0;
        }
        // Fixpoint after 7 productive + 1 confirming hop; the remaining
        // 42 hops have an empty frontier and cost only the O(n)
        // bookkeeping scan.
        let literal = run(&alg, &g, 50);
        assert_eq!(backend.into_states(), literal.states);
        assert!(work.edge_relaxations < literal.work.edge_relaxations / 4);
    }

    #[test]
    fn scaled_iteration_scales_weights() {
        let g = path_graph(3, 1.0);
        let alg = PlainSssp { source: 0 };
        let x = initial_states(&alg, g.n());
        let (y, _) = iterate_scaled(&alg, &g, &x, 3.0);
        assert_eq!(y[1], MinPlus::new(3.0));
    }

    #[test]
    fn engine_step_matches_iterate() {
        let g = path_graph(6, 1.5);
        let alg = PlainSssp { source: 2 };
        let mut states = initial_states(&alg, g.n());
        let mut engine = MbfEngine::new();
        engine.mark_all_dirty(&g);
        let (reference, _) = iterate(&alg, &g, &states);
        let (_, changed) = engine.step(&alg, &g, &mut states, 1.0);
        assert!(changed);
        assert_eq!(states, reference);
    }
}
