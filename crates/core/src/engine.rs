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
//! # Two ways to run an iteration
//!
//! [`iterate_scaled`] is the one-shot kernel of Eq. (2.17): every vertex
//! recomputes `r(x_v ⊕ ⊕_w a_vw x_w)` from the previous vector, and
//! [`run`] applies it `h` times. It is the literal reference every
//! backend is differential-tested against, and, through
//! [`LiteralBackend`], the backend of every algorithm whose states are
//! not distance maps (widest paths, connectivity, k-SDP / k-DSDP,
//! forest fire): one hop costs the paper's full iteration,
//! `O(Σ_v |x_v|)` over all of `V`.
//!
//! Distance maps run on the arena and dense backends
//! ([`crate::arena`], [`crate::dense`]), which share the
//! **frontier schedule** defined here. The paper's efficiency argument
//! (Lemmas 7.6–7.8) charges each iteration `O(Σ_v |x_v|)` work over the
//! vertices it recomputes, and iterations *converge*: after a few hops
//! most vertices are quiescent. The schedule tracks the **frontier** —
//! the set of vertices whose state changed in the previous hop — and
//! recomputes only vertices with a frontier vertex in their closed
//! neighborhood. Everything else provably cannot change:
//! `x⁽ⁱ⁺¹⁾_v = r(x⁽ⁱ⁾_v ⊕ ⊕_w a_vw x⁽ⁱ⁾_w)` depends only on `v`'s closed
//! in-neighborhood, and if none of those states moved since the hop that
//! produced `x⁽ⁱ⁾_v`, recomputation would reproduce `x⁽ⁱ⁾_v` verbatim.
//! The skip is therefore **bit-identical** to the literal sweep — no
//! approximation is involved — which the equivalence suite asserts
//! state-for-state.
//!
//! Recomputed vertices re-aggregate their neighborhood (a *pull*);
//! incremental *push*-style accumulation is unsound here because a filter
//! may shrink a neighbor's state, and `⊕` has no inverse to retract the
//! stale contribution.
//!
//! # Frontier-list schedule
//!
//! The frontier is an **explicit sorted list** of vertices, not a bitset
//! scanned per hop, so a hop's bookkeeping is proportional to the
//! frontier's closed neighborhood — not `n`. The invariants:
//!
//! * `frontier` holds exactly the vertices whose state changed in the
//!   previous hop (or were declared dirty through the backends'
//!   `mark_dirty` / `mark_all_dirty`), in **ascending node order** with
//!   no duplicates.
//! * Membership is tracked by **generation stamps**: `frontier_mark[v] ==
//!   frontier_gen ⇔ v ∈ frontier`. Refreshing the frontier bumps the
//!   generation instead of clearing the mark vector, so a hop never pays
//!   an `O(n)` reset; on (u32) generation wrap-around the marks are
//!   zeroed once and the generation restarts at 1.
//! * The per-hop recompute list (the closed neighborhood of the
//!   frontier) is gathered through its own generation-stamped mark
//!   vector and then **deduplicated deterministically by sorting** — the
//!   schedule is a pure function of the frontier set, never of traversal
//!   or thread interleaving.
//!
//! Each hop chunks the recompute list by **cumulative degree** (a prefix
//! sum over `deg(v) + 1`), not by element count, so a skewed frontier —
//! a few hubs plus many leaves — still load-balances across workers.
//! Chunk boundaries are a pure function of the list and the graph's
//! degrees, and per-chunk `WorkStats`/changed-flags merge through the
//! fixed-shape reduction tree of the rayon shim, so every output —
//! states, work counters, frontier bookkeeping — is bit-identical across
//! thread counts (`MTE_THREADS`; asserted for every backend by the
//! conformance matrix, `tests/common/matrix.rs`).

use crate::error::RunError;
use crate::run::{check_vertices, run_to_fixpoint_on, Checkpoint, StateBackend};
use crate::work::WorkStats;
use mte_algebra::{NodeId, Semimodule, Semiring};
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

/// The scheduling core shared by the arena backend
/// ([`crate::arena::ArenaBackend`]) and the dense backend
/// ([`crate::dense::DenseBackend`]): the frontier list,
/// generation-stamped membership marks, the per-hop recompute list with
/// its degree-balanced chunking, the **taints**, and an optional
/// **change log** (the union of all frontier refreshes since the last
/// drain — what the oracle's frontier-sized carry-over diff reads).
///
/// A tainted vertex was rewritten outside the backend since its last
/// recomputation: it has absorbed nothing, so its next recomputation
/// must merge every neighbor even under an absorption-stable skip (see
/// [`crate::arena::RecomputeCtx::require_full`]).
/// [`FrontierSchedule::mark_dirty`] taints the vertices it seeds,
/// [`FrontierSchedule::mark_all_dirty`] discharges every taint (the next
/// hop merges everything anyway), and [`FrontierSchedule::refresh`]
/// discharges the vertices the hop recomputed.
///
/// Sharing the schedule guarantees the two storage backends run the
/// *same* hops over the *same* chunks: any divergence between them is a
/// storage bug, never a scheduling one.
#[derive(Clone, Debug, Default)]
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
    /// `taint_mark[v] == taint_gen` ⇔ `v` is tainted.
    taint_mark: Vec<u32>,
    taint_gen: u32,
    /// Change log: every vertex whose state a hop changed since the
    /// last [`FrontierSchedule::drain_change_log`], deduplicated by
    /// generation stamps. Only maintained when enabled.
    log: Vec<NodeId>,
    log_mark: Vec<u32>,
    log_gen: u32,
    log_enabled: bool,
}

impl FrontierSchedule {
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

    /// `true` iff `v` was rewritten outside the backend since its last
    /// recomputation (see the struct docs).
    #[inline]
    pub(crate) fn is_tainted(&self, v: NodeId) -> bool {
        self.taint_mark[v as usize] == self.taint_gen
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
    /// frontier and no taints — unlike
    /// [`FrontierSchedule::mark_all_dirty`], nothing is made dirty. Lets
    /// a resume prime a fresh schedule so a later
    /// [`FrontierSchedule::mark_dirty`] seeds exactly its vertices
    /// instead of falling back to the all-dirty restart.
    pub(crate) fn ensure_sized(&mut self, g: &Graph) {
        let n = g.n();
        if self.frontier_mark.len() != n {
            // Marks are all 0: each generation must be nonzero so no
            // vertex reads as a member.
            for (mark, gen) in [
                (&mut self.frontier_mark, &mut self.frontier_gen),
                (&mut self.taint_mark, &mut self.taint_gen),
                (&mut self.log_mark, &mut self.log_gen),
            ] {
                mark.clear();
                mark.resize(n, 0);
                *gen = 1;
            }
            self.frontier.clear();
            self.touched_mark.clear();
            self.touched_mark.resize(n, 0);
            self.touched_gen = 0;
            self.log.clear();
        }
    }

    /// Declares every vertex dirty and discharges every taint: the next
    /// hop recomputes all of `V` from every neighbor.
    pub(crate) fn mark_all_dirty(&mut self, g: &Graph) {
        self.ensure_sized(g);
        bump_generation(&mut self.taint_gen, &mut self.taint_mark);
        let gen = bump_generation(&mut self.frontier_gen, &mut self.frontier_mark);
        self.frontier.clear();
        self.frontier.extend(0..g.n() as NodeId);
        self.frontier_mark.iter_mut().for_each(|m| *m = gen);
    }

    /// Seeds and taints `vs` (rewritten outside the backend), keeping
    /// the residual frontier: the next hop is bit-identical to an
    /// all-dirty restart.
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
            self.taint_mark[v as usize] = self.taint_gen;
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

    /// Gathers the recompute list into `self.touched`, sorted ascending,
    /// cut into degree-balanced chunks: every frontier vertex `w` that
    /// is tainted or `keep_frontier`, and every neighbor `v` of a
    /// frontier vertex `w` with `hands(w, v, ω(w, v))` — `w` hands `v`
    /// something `v` must read. The dense backend keeps the frontier and
    /// passes "always", which gathers the closed neighborhood of the
    /// frontier (all of `V` when the frontier is all of `V`); the arena
    /// backend narrows it for semi-naive algorithms (see
    /// [`crate::arena::RecomputeCtx`]).
    pub(crate) fn plan_hop(
        &mut self,
        g: &Graph,
        keep_frontier: bool,
        mut hands: impl FnMut(NodeId, NodeId, f64) -> bool,
    ) {
        self.touched.clear();
        let gen = bump_generation(&mut self.touched_gen, &mut self.touched_mark);
        for &w in &self.frontier {
            if self.touched_mark[w as usize] != gen && (keep_frontier || self.is_tainted(w)) {
                self.touched_mark[w as usize] = gen;
                self.touched.push(w);
            }
            for &(v, ew) in g.neighbors(w) {
                if self.touched_mark[v as usize] != gen && hands(w, v, ew) {
                    self.touched_mark[v as usize] = gen;
                    self.touched.push(v);
                }
            }
        }
        // Deterministic schedule: the list is a pure function of the
        // frontier *set*, not of gathering order.
        self.touched.sort_unstable();

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
    /// Every touched vertex was recomputed (tainted ones with full
    /// merges), so the scan discharges its taint.
    pub(crate) fn refresh(&mut self, changed: impl Fn(usize) -> bool) {
        let gen = bump_generation(&mut self.frontier_gen, &mut self.frontier_mark);
        self.frontier.clear();
        for (p, &v) in self.touched.iter().enumerate() {
            self.taint_mark[v as usize] = 0;
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

/// One MBF-like iteration `x ← r^V A x` on `g`, with all edge weights
/// multiplied by `weight_scale`. One-shot kernel, the hop of
/// [`LiteralBackend`] and the differential-testing reference (see
/// [`run`]): it shares no schedule, chunking or commit code with the
/// arena and dense backends.
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

/// The literal backend of [`StateBackend`]: a `Vec<A::M>` advanced by
/// [`iterate_scaled`], every hop a full sweep of `V` (Eq. (2.17)).
/// Fully generic over the semimodule, it runs every algorithm whose
/// states are not distance maps. Its frontier is the set of vertices
/// the last hop changed — exactly the residual frontier of the frontier
/// schedule, so its checkpoints resume on the arena and dense backends
/// and theirs on it. It ignores a resumed frontier: a full sweep
/// covers any seed.
#[derive(Clone, Debug)]
pub struct LiteralBackend<A: MbfAlgorithm> {
    states: Vec<A::M>,
    /// The vertices the last hop changed (all of `V` before the first),
    /// ascending.
    changed: Vec<NodeId>,
}

impl<A: MbfAlgorithm> Default for LiteralBackend<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: MbfAlgorithm> LiteralBackend<A> {
    /// An empty backend.
    pub fn new() -> Self {
        LiteralBackend {
            states: Vec::new(),
            changed: Vec::new(),
        }
    }
}

impl<A: MbfAlgorithm> StateBackend<A> for LiteralBackend<A> {
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.states = initial_states(alg, g.n());
        self.changed = (0..g.n() as NodeId).collect();
        Ok(WorkStats::new())
    }

    /// A state naming a vertex `≥ n` is [`RunError::SnapshotCorrupt`].
    fn resume(
        &mut self,
        _alg: &A,
        _g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError> {
        check_vertices(&ckpt.states)?;
        self.states = ckpt.states.clone();
        self.changed = ckpt.frontier.clone();
        Ok(WorkStats::new())
    }

    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool) {
        assert_eq!(
            g.n(),
            self.states.len(),
            "state vector / graph size mismatch"
        );
        let (next, work) = iterate_scaled(alg, g, &self.states, scale);
        self.changed.clear();
        self.changed
            .extend((0..g.n() as NodeId).filter(|&v| next[v as usize] != self.states[v as usize]));
        self.states = next;

        // Fault-injection site: the hop's commit just completed; a
        // `panic` unwinds mid-run, a `poison_nan` corrupts one committed
        // state (the audit in `error::run_guarded` catches either).
        let site = mte_faults::FaultSite::EngineHopCommit;
        let kinds = [
            mte_faults::FaultKind::Panic,
            mte_faults::FaultKind::PoisonNan,
        ];
        match mte_faults::check_for(site, &kinds) {
            Some(mte_faults::FaultKind::Panic) => mte_faults::trigger_panic(site),
            Some(mte_faults::FaultKind::PoisonNan) => {
                if let Some(x) = self.states.first_mut() {
                    x.poison();
                }
            }
            _ => {}
        }
        (work, !self.changed.is_empty())
    }

    fn frontier(&self) -> &[NodeId] {
        &self.changed
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

/// Iterates to the fixpoint on the literal backend (see
/// [`run_to_fixpoint_on`]).
pub fn run_to_fixpoint<A: MbfAlgorithm>(alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M> {
    run_to_fixpoint_on(LiteralBackend::new(), alg, g, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SourceDetection;
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

    // The frontier schedule runs on the arena and dense backends; the
    // two tests below drive it through the arena with SSSP.

    #[test]
    fn frontier_relaxes_fewer_edges_than_dense() {
        let g = path_graph(64, 1.0);
        let alg = SourceDetection::sssp(g.n(), 0);
        let cap = g.n() + 1;
        let literal = run_to_fixpoint(&alg, &g, cap);
        let frontier = run_to_fixpoint_on(crate::arena::ArenaBackend::new(), &alg, &g, cap);
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
        let alg = SourceDetection::sssp(g.n(), 0);
        let mut backend = crate::arena::ArenaBackend::new();
        let mut work = backend.start(&alg, &g).unwrap();
        for _ in 0..50 {
            work += backend.step(&alg, &g, 1.0).0;
        }
        // Fixpoint after 7 productive + 1 confirming hop; the remaining
        // 42 hops have an empty frontier and cost only the O(n)
        // bookkeeping scan.
        let literal = run(&alg, &g, 50);
        let states = StateBackend::<SourceDetection>::into_states(backend);
        assert_eq!(states, literal.states);
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
        // The literal backend's hop is `iterate`, and its frontier is
        // the set of vertices that hop changed.
        let g = path_graph(6, 1.5);
        let alg = PlainSssp { source: 2 };
        let mut backend = LiteralBackend::new();
        backend.start(&alg, &g).unwrap();
        assert_eq!(backend.frontier(), &[0, 1, 2, 3, 4, 5]);
        let mut states = initial_states(&alg, g.n());
        for _ in 0..4 {
            let (reference, _) = iterate(&alg, &g, &states);
            let (_, changed) = backend.step(&alg, &g, 1.0);
            let moved: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| reference[v as usize] != states[v as usize])
                .collect();
            assert_eq!(changed, !moved.is_empty());
            assert_eq!(backend.frontier(), &moved[..]);
            states = reference;
            assert_eq!(backend.export_states(), states);
        }
        // Hops 1–3 spread the wave from vertex 2 to both ends; hop 4
        // changes nothing.
        assert!(backend.frontier().is_empty());
    }
}
