//! The dense-block engine backend: MBF-like iteration over flat
//! row-major state matrices ([`mte_algebra::dense`]).
//!
//! # Why a third backend
//!
//! The owned (`Vec<M>`) and arena backends serve the regime the paper's
//! complexity story targets: filtered states of size `O(log n)`
//! (Lemma 7.6), merged entry-by-entry. APSP-class workloads
//! (`SourceDetection::apsp`, `Connectivity::all_pairs`, widest-path
//! analogues over max-min, metric-like FRT inputs) invert that regime —
//! states converge towards **full** rows (`|x_v| → n`) and the sorted
//! merges pay branch mispredictions and per-entry key bookkeeping for
//! coordinates that are all present anyway. [`DenseEngine`] runs the
//! *same* hops (the shared `FrontierSchedule`: same frontier, same
//! touched list, same degree-balanced chunks) over a
//! [`DenseBlock`] — the paper's matrix-semimodule view taken literally:
//! one hop of vertex `v` is `row_v ← r(row_v ⊕ ⊕_w a_vw ⊙ row_w)`,
//! computed by the contiguous, cache-tiled row kernels of
//! [`mte_algebra::dense`].
//!
//! # Bit-identity
//!
//! Min over `f64` is order-independent and each dense relaxation
//! computes the same single `x + w` the sparse merge kernels compute,
//! so dense states are **bit-identical to the owned/arena paths by
//! construction** — differential testing is exact, not approximate
//! (asserted by `tests/schedule_equivalence.rs` across
//! `MTE_THREADS ∈ {1, 4}`). The contract an algorithm must uphold is
//! [`DenseMbfAlgorithm::dense_filter`] ≡ [`MbfAlgorithm::filter`] on
//! the materialized state; [`DenseMbfAlgorithm::advertises_dense`]
//! reports whether the instance's filter is dense-representable at all
//! (e.g. source detection with `k` below the source count is not).
//!
//! # Memory budget
//!
//! A dense run holds an `n × n` block. [`DenseBackend`] allocates it
//! through [`DenseBlock::try_from_states`] under its memory budget, so
//! an unaffordable block — or an injected `alloc_fail` at the
//! `dense_row_kernel` site — is the typed
//! [`RunError::DenseBudgetExceeded`], raised before any allocation,
//! never an abort. There is no silent sparse fallback: the one
//! production caller, `approximate_metric_on`, already routes inputs
//! too large for a dense block to the sparse oracle.
//!
//! # Oracle routing
//!
//! [`oracle_run_dense_with_schedule`] is the oracle's level loop over
//! dense lanes: every level vector `y_λ` and the aggregate `x` are
//! dense blocks. `approximate_metric_on` (Theorem 6.1 — the APSP query,
//! whose output *is* an `n × n` matrix) routes through it.

#[cfg(doc)]
use crate::engine::MbfEngine;
use crate::engine::{initial_states, FrontierSchedule, MbfAlgorithm, SyncPtr};
use crate::error::RunError;
use crate::oracle::{run_lanes, Lane, OracleRun};
use crate::run::{Checkpoint, StateBackend};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::dense::{
    fold_row_into, relax_rows_into, relax_rows_tracked, rows_equal, DenseBlock, DenseKernel,
    DenseState,
};
use mte_algebra::{MinPlus, NodeId, Semiring};
use mte_graph::Graph;
use rayon::prelude::*;
use std::cell::RefCell;

/// An MBF-like algorithm whose states admit the dense row
/// representation: `M ≅ S^V` with coordinate `u` at column `u`. See the
/// module docs for the contract.
pub trait DenseMbfAlgorithm: MbfAlgorithm
where
    Self::S: DenseKernel,
    Self::M: DenseState<Self::S>,
{
    /// `true` iff this instance's filter is representable on dense rows
    /// (i.e. [`DenseMbfAlgorithm::dense_filter`] can be made exactly
    /// equal to [`MbfAlgorithm::filter`]). The dense entry points
    /// assert this.
    fn advertises_dense(&self) -> bool;

    /// The representative projection `r` applied to `v`'s dense row.
    /// **Must** be bit-identical to [`MbfAlgorithm::filter`] on the
    /// materialized sparse state — the engine treats the two as
    /// interchangeable and the equivalence suite differential-tests
    /// them. The default is the identity (filters like APSP,
    /// connectivity, and widest paths that keep everything).
    #[inline]
    fn dense_filter(&self, _v: NodeId, _row: &mut [Self::S]) {}

    /// `true` iff absorbed contributions stay absorbed (see
    /// [`crate::arena::RecomputeCtx`] for the general argument): row
    /// values only ever improve under `⊕` and the filter's masking is
    /// static, so re-merging a neighbor whose row did not change since
    /// `v` last absorbed it is provably an identity. The engine then
    /// **skips clean source rows outright** — on a memory-bound dense
    /// hop that is a direct traffic cut, not just saved arithmetic.
    /// Must only return `true` when the skip is exactly lossless; the
    /// default is `false` (merge everything).
    #[inline]
    fn absorption_stable(&self) -> bool {
        false
    }

    /// `true` iff [`DenseMbfAlgorithm::dense_filter`] is the identity
    /// on every row this instance can produce. The engine then takes
    /// the fused recompute path
    /// ([`mte_algebra::dense::relax_rows_tracked`]): no separate
    /// own-row copy pass, no filter call, and change detection tracked
    /// inside the relaxations instead of a whole-row compare. The
    /// default is `false` (safe: copy + relax + filter + compare);
    /// returning `true` for a masking instance is a correctness bug,
    /// not a performance one.
    #[inline]
    fn dense_filter_is_identity(&self) -> bool {
        false
    }
}

/// The dense-block iteration engine: the `FrontierSchedule` of the
/// owned [`MbfEngine`] driving row-kernel hops over a [`DenseBlock`].
/// One engine serves arbitrarily many hops without reallocating; the
/// block is passed per step so callers (the oracle) can own several
/// state matrices.
#[derive(Clone, Debug)]
pub struct DenseEngine<A: DenseMbfAlgorithm>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    sched: FrontierSchedule,
    /// Flat shadow matrix (`n·k` values) written during a hop; changed
    /// rows are copied into the block at commit.
    next: Vec<A::S>,
    /// Per-touched-position `(entries, relaxations, changed)` of the
    /// current hop.
    per_vertex: Vec<(u64, u64, bool)>,
    /// Taints for externally rewritten rows (the dense counterpart of
    /// [`crate::arena::RecomputeCtx::require_full`]): a tainted vertex
    /// has absorbed nothing, so its next recomputation must merge
    /// every neighbor even under the absorption-stable skip. Cleared
    /// per vertex on recompute, wholesale on
    /// [`DenseEngine::mark_all_dirty`].
    taint: crate::engine::TaintTable,
}

impl<A: DenseMbfAlgorithm> Default for DenseEngine<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<A: DenseMbfAlgorithm> DenseEngine<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    /// A fresh engine.
    pub fn new() -> Self {
        DenseEngine {
            sched: FrontierSchedule::new(),
            next: Vec::new(),
            per_vertex: Vec::new(),
            taint: crate::engine::TaintTable::new(),
        }
    }

    /// Sizes the schedule and taint table for `g` with an **empty**
    /// frontier, so a later [`DenseEngine::mark_dirty`] seeds exactly
    /// its vertices instead of falling back to the all-dirty restart
    /// (the checkpoint-resume path seeds the recorded frontier this
    /// way).
    pub fn ensure_sized(&mut self, g: &Graph) {
        self.sched.ensure_sized(g);
        self.taint.ensure_sized(g.n());
    }

    /// The frontier list: ascending, no duplicates.
    pub fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    /// See [`MbfEngine::enable_change_log`].
    pub fn enable_change_log(&mut self) {
        self.sched.enable_change_log();
    }

    /// See [`MbfEngine::drain_change_log`].
    pub fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    /// See [`MbfEngine::mark_all_dirty`]. Also clears all taints: the
    /// next hop merges every neighbor of every vertex anyway (the whole
    /// graph is on the frontier).
    pub fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
        self.taint.reset(g.n());
    }

    /// See [`MbfEngine::mark_dirty`]. The seeded vertices are
    /// additionally **tainted**: their rows were rewritten outside the
    /// engine, so their next recomputation must merge every neighbor
    /// (the absorption-stable skip would otherwise drop contributions
    /// the old row had absorbed).
    pub fn mark_dirty(&mut self, g: &Graph, vs: impl IntoIterator<Item = NodeId>) {
        if !self.sched.sized_for(g.n()) {
            // Falls back to an all-dirty restart inside the schedule;
            // keep the taint table in sync.
            self.mark_all_dirty(g);
            return;
        }
        let taint = &mut self.taint;
        self.sched
            .mark_dirty(g, vs.into_iter().inspect(|&v| taint.taint(v)));
    }

    /// One hop `x ← r^V A x` over the dense block, with all edge
    /// weights multiplied by `weight_scale`. Bit-identical to
    /// [`MbfEngine::step`] on the exported states; returns the work
    /// spent and whether any row changed.
    ///
    /// `entries_processed` counts **dense coordinates** touched
    /// (`k` per source row folded, own row included) — a different
    /// currency than the sparse backends' per-entry counts; states,
    /// iterations, fixpoints, `edge_relaxations`, and
    /// `touched_vertices` remain exactly comparable.
    pub fn step(
        &mut self,
        alg: &A,
        g: &Graph,
        block: &mut DenseBlock<A::S>,
        weight_scale: f64,
    ) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, block.rows(), "state block / graph size mismatch");
        let k = block.cols();
        if !self.sched.sized_for(n) {
            // First use (or a different graph size): treat as
            // all-dirty. Goes through the engine-level method so the
            // taint table is sized in the same stroke.
            self.mark_all_dirty(g);
        }
        let mut alloc_count = 0u64;
        if self.next.len() != n * k {
            self.next.clear();
            self.next.resize(n * k, <A::S as Semiring>::zero());
            // One flat shadow buffer — versus Θ(n) per-vertex buffers
            // of the owned backend.
            alloc_count = 1;
        }

        self.sched.plan_hop(g);
        let touched: &[NodeId] = self.sched.touched();
        let chunks: &[std::ops::Range<usize>] = self.sched.chunks();

        // Recompute phase: each chunk pulls its vertices' rows through
        // the cache-tiled row kernels into its disjoint shadow rows.
        self.per_vertex.clear();
        self.per_vertex.resize(touched.len(), (0, 0, false));
        let block_ref: &DenseBlock<A::S> = block;
        let next_base = SyncPtr(self.next.as_mut_ptr());
        let stats_base = SyncPtr(self.per_vertex.as_mut_ptr());
        // Absorption-stable algorithms skip source rows that did not
        // change since `v` last absorbed them (the frontier tells us
        // which did) — on a memory-bound hop, rows never read are the
        // dominant saving. Tainted vertices (externally rewritten) must
        // merge everything once.
        let skip_clean = alg.absorption_stable();
        let identity_filter = alg.dense_filter_is_identity();
        let sched_ref = &self.sched;
        let taint_ref = &self.taint;
        chunks.par_iter().with_min_len(1).for_each(|range| {
            // Per-chunk neighbor-row gather list, reused across the
            // chunk's vertices (one small allocation per chunk per hop).
            let mut srcs: Vec<(&[A::S], A::S)> = Vec::new();
            for p in range.clone() {
                let v = touched[p];
                // SAFETY: chunks partition positions of the sorted,
                // deduplicated `touched` list, so row window `v·k..` and
                // stats slot `p` are owned by exactly this chunk.
                let dst: &mut [A::S] =
                    unsafe { std::slice::from_raw_parts_mut(next_base.slot(v as usize * k), k) };
                // SAFETY: as above — stats slot `p` belongs to this chunk.
                let stats = unsafe { &mut *stats_base.slot(p) };
                srcs.clear();
                let full = !skip_clean || taint_ref.is_tainted(v);
                let mut relaxations = 0u64;
                for &(w, ew) in g.neighbors(v) {
                    if !full && !sched_ref.on_frontier(w) {
                        continue; // already absorbed: provably an identity
                    }
                    let coeff = alg.edge_coeff(v, w, ew * weight_scale);
                    relaxations += 1;
                    if !Semiring::is_zero(&coeff) {
                        // 0 ⊙ x = ⊥: a zero coefficient contributes
                        // nothing — skip the k-element no-op.
                        srcs.push((block_ref.row(w), coeff));
                    }
                }
                // a_vv = 1: the node's own row is the base of the fold.
                let changed = if identity_filter {
                    if srcs.is_empty() {
                        // Nothing to merge and `r = id`: the hop is the
                        // identity on `v` — the shadow row is not even
                        // written (commit only reads changed rows).
                        false
                    } else {
                        // Fused path: init-from-base first relaxation,
                        // change tracking inside the passes — no copy
                        // pass, no compare pass.
                        relax_rows_tracked(dst, block_ref.row(v), &srcs)
                    }
                } else {
                    dst.copy_from_slice(block_ref.row(v));
                    relax_rows_into(dst, &srcs);
                    alg.dense_filter(v, dst);
                    !rows_equal(&*dst, block_ref.row(v))
                };
                let entries = k as u64 * (srcs.len() as u64 + 1);
                *stats = (entries, relaxations, changed);
            }
        });

        // Commit: copy changed rows from the shadow back into the
        // block, parallel over the same chunks (a plain copy — half the
        // traffic of a swap; the shadow row is rewritten from scratch
        // on its next recompute anyway); tallies merge through the
        // fixed-shape reduction tree — bit-identical for every thread
        // count.
        let per_vertex: &[(u64, u64, bool)] = &self.per_vertex;
        let block_base = SyncPtr(block.values_mut().as_mut_ptr());
        let (entries, relaxations, any_changed) = chunks
            .par_iter()
            .with_min_len(1)
            .map(|range| {
                let mut tally = (0u64, 0u64, false);
                for p in range.clone() {
                    let v = touched[p] as usize;
                    let (entries, relaxations, changed) = per_vertex[p];
                    tally.0 += entries;
                    tally.1 += relaxations;
                    if changed {
                        // SAFETY: as above — disjoint rows per chunk,
                        // and the shadow and block are distinct
                        // allocations.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                next_base.slot(v * k) as *const A::S,
                                block_base.slot(v * k),
                                k,
                            )
                        };
                        tally.2 = true;
                    }
                }
                tally
            })
            .reduce(
                || (0u64, 0u64, false),
                |a, b| (a.0 + b.0, a.1 + b.1, a.2 || b.2),
            );

        // Every touched vertex was recomputed (tainted ones with full
        // merges), so its taint is discharged.
        for &v in touched {
            self.taint.discharge(v);
        }

        let touched_vertices = touched.len() as u64;
        // Every touched row was rewritten wholesale into the shadow —
        // the same model-level accounting as the owned backend.
        let bytes_copied = touched_vertices * (k * std::mem::size_of::<A::S>()) as u64;
        let per_vertex: &[(u64, u64, bool)] = &self.per_vertex;
        self.sched.refresh(|p| per_vertex[p].2);

        // Fault-injection site: the hop's commit just completed; a
        // `panic` unwinds mid-run, a `poison_nan` corrupts one matrix
        // element.
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
                if let Some(s) = block.values_mut().first_mut() {
                    Semiring::poison(s);
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
            dense_hops: 1,
            ..WorkStats::default()
        };
        (work, any_changed)
    }
}

/// The dense backend of [`StateBackend`]: a [`DenseBlock`] hopped by a
/// [`DenseEngine`], states exported as sparse maps. A run that cannot
/// afford its `n × n` block has no fallback: start and resume allocate
/// it under the memory budget and fail with
/// [`RunError::DenseBudgetExceeded`] (see the module docs).
#[derive(Clone, Debug)]
pub struct DenseBackend<A: DenseMbfAlgorithm>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    engine: DenseEngine<A>,
    block: DenseBlock<A::S>,
    /// Memory budget for the block, in bytes; `None` = unlimited.
    budget_bytes: Option<u64>,
}

impl<A: DenseMbfAlgorithm> DenseBackend<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    /// An empty backend, allocating its block only within
    /// `budget_bytes` (`None` = unlimited).
    pub fn new(budget_bytes: Option<u64>) -> Self {
        DenseBackend {
            engine: DenseEngine::new(),
            block: DenseBlock::new(0, 0),
            budget_bytes,
        }
    }

    /// An oracle lane: an `n × n` block of `⊥`, with the engine's change
    /// log on.
    fn lane(n: usize) -> Self {
        let mut engine = DenseEngine::new();
        engine.enable_change_log();
        DenseBackend {
            engine,
            block: DenseBlock::new(n, n),
            budget_bytes: None,
        }
    }

    /// Loads `states` into a fresh `n × n` block allocated under the
    /// memory budget, then checks the dense advertisement.
    fn load(&mut self, alg: &A, states: &[A::M]) -> Result<(), RunError> {
        let n = states.len();
        let block = DenseBlock::try_from_states(states, n, self.budget_bytes).map_err(|e| {
            RunError::DenseBudgetExceeded {
                requested_bytes: e.requested_bytes,
                budget_bytes: e.budget_bytes,
            }
        })?;
        assert!(
            alg.advertises_dense(),
            "algorithm instance does not advertise dense states"
        );
        self.block = block;
        Ok(())
    }
}

impl<A: DenseMbfAlgorithm> StateBackend<A> for DenseBackend<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.load(alg, &initial_states(alg, g.n()))?;
        self.engine.mark_all_dirty(g);
        Ok(WorkStats::new())
    }

    /// The states convert into a fresh block and the recorded frontier
    /// seeds the schedule.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError> {
        self.load(alg, &ckpt.states)?;
        self.engine.ensure_sized(g);
        self.engine.mark_dirty(g, ckpt.frontier.iter().copied());
        Ok(WorkStats::new())
    }

    fn step(&mut self, alg: &A, g: &Graph, scale: f64) -> (WorkStats, bool) {
        self.engine.step(alg, g, &mut self.block, scale)
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
        self.block.export()
    }
}

// ---------------------------------------------------------------------
// The dense oracle lane.
// ---------------------------------------------------------------------

thread_local! {
    /// Per-thread row the dense lane folds a vertex's level rows into.
    static FOLD_ROW: RefCell<Vec<MinPlus>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's fold row, or a fresh one on re-entrant
/// use.
fn with_fold_row<R>(f: impl FnOnce(&mut Vec<MinPlus>) -> R) -> R {
    FOLD_ROW.with(|cell| match cell.try_borrow_mut() {
        Ok(mut row) => f(&mut row),
        Err(_) => f(&mut Vec::new()),
    })
}

/// The dense lane of the oracle's level loop: `y_λ` as a
/// [`DenseBlock`]; the aggregate `x` is a dense block too.
impl<A: DenseMbfAlgorithm<S = MinPlus>> Lane<A> for DenseBackend<A>
where
    A::M: DenseState<MinPlus>,
{
    type X = DenseBlock<MinPlus>;
    type Folded = Vec<MinPlus>;

    fn project(&mut self, _alg: &A, x: &DenseBlock<MinPlus>, v: NodeId, keep: bool) -> bool {
        let y = self.block.row_mut(v);
        if keep {
            let want = x.row(v);
            let rewrite = !rows_equal(y, want);
            if rewrite {
                y.copy_from_slice(want);
            }
            rewrite
        } else {
            let zero = <MinPlus as Semiring>::zero();
            let rewrite = y.iter().any(|s| *s != zero);
            if rewrite {
                y.fill(zero);
            }
            rewrite
        }
    }

    fn fold<'a>(
        alg: &A,
        lanes: impl Iterator<Item = &'a Self>,
        x: &DenseBlock<MinPlus>,
        v: NodeId,
    ) -> Option<Vec<MinPlus>>
    where
        Self: 'a,
    {
        with_fold_row(|row| {
            row.clear();
            row.resize(x.cols(), <MinPlus as Semiring>::zero());
            for lane in lanes {
                fold_row_into(row, lane.block.row(v));
            }
            alg.dense_filter(v, row);
            // Only a changed row is copied out of the scratch.
            (!rows_equal(row, x.row(v))).then(|| row.clone())
        })
    }

    fn commit(x: &mut DenseBlock<MinPlus>, v: NodeId, folded: Vec<MinPlus>) {
        x.row_mut(v).copy_from_slice(&folded);
    }

    fn poison(&mut self, _alg: &A) {
        if let Some(s) = self.block.values_mut().first_mut() {
            Semiring::poison(s);
        }
    }

    fn export(x: DenseBlock<MinPlus>) -> Vec<A::M> {
        x.export()
    }
}

/// [`crate::oracle::oracle_run_with_schedule`] on the dense backend:
/// every level vector `y_λ` and the aggregate `x` are [`DenseBlock`]s,
/// projections compare and copy rows, and the aggregation folds level
/// rows through [`fold_row_into`]. Bit-identical states, iteration
/// counts, fixpoint flags, hops and touched vertices; the other
/// counters are in the dense engine's currency (see
/// [`DenseEngine::step`]).
pub fn oracle_run_dense_with_schedule<A>(
    alg: &A,
    sim: &SimulatedGraph,
    h: usize,
    carry_over: bool,
) -> OracleRun<A::M>
where
    A: DenseMbfAlgorithm<S = MinPlus>,
    A::M: DenseState<A::S>,
{
    assert!(
        alg.advertises_dense(),
        "algorithm instance does not advertise dense states"
    );
    let n = sim.augmented().n();
    let lane = || DenseBackend::lane(n);
    let x = DenseBlock::from_states(&initial_states(alg, n), n);
    run_lanes(alg, sim, h, carry_over, lane, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Connectivity, SourceDetection, WidestPaths};
    use crate::engine::{literal_fixpoint, OwnedBackend};
    use crate::run::run_to_fixpoint_on;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_apsp_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = gnm_graph(50, 130, 1.0..9.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states);
        assert_eq!(literal.iterations, dense.iterations);
        assert_eq!(literal.fixpoint, dense.fixpoint);
        // Same schedule, same hops: scheduling counters agree. The dense
        // backend may skip provably-absorbed merges, so its relaxation
        // count can only be lower.
        assert!(dense.work.edge_relaxations <= owned.work.edge_relaxations);
        assert_eq!(owned.work.touched_vertices, dense.work.touched_vertices);
        assert!(dense.work.dense_hops > 0);
    }

    #[test]
    fn fresh_engine_step_sizes_schedule_and_taint_together() {
        // Regression: the unsized-schedule fallback used to size only
        // the schedule, so an absorption-stable algorithm's first step
        // on a never-primed engine read past the empty taint table.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::apsp(g.n());
        let mut block = DenseBlock::from_states(&initial_states(&alg, g.n()), g.n());
        let mut engine = DenseEngine::new();
        let (_, changed) = engine.step(&alg, &g, &mut block, 1.0);
        assert!(changed);
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        loop {
            let (_, changed) = engine.step(&alg, &g, &mut block, 1.0);
            if !changed {
                break;
            }
        }
        assert_eq!(block.export::<mte_algebra::DistanceMap>(), literal.states);
    }

    #[test]
    fn dense_connectivity_matches_owned_engine() {
        let g = mte_graph::Graph::from_edges(
            7,
            vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
        );
        let alg = Connectivity::all_pairs(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states);
        assert_eq!(literal.iterations, dense.iterations);
    }

    #[test]
    fn dense_widest_paths_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(82);
        let g = gnm_graph(40, 110, 1.0..10.0, &mut rng);
        let alg = WidestPaths::apwp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states);
        assert_eq!(literal.iterations, dense.iterations);
        assert_eq!(literal.fixpoint, dense.fixpoint);
    }

    #[test]
    fn dense_respects_source_mask_and_distance_limit() {
        // A filter that actually masks: non-sources and a finite limit.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::new(g.n(), &[0, 5], 2, mte_algebra::Dist::new(3.0));
        assert!(alg.advertises_dense());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states);
    }

    #[test]
    fn truncating_top_k_does_not_advertise_dense() {
        let alg = SourceDetection::k_ssp(10, 3);
        assert!(!alg.advertises_dense());
        let apsp = SourceDetection::apsp(10);
        assert!(apsp.advertises_dense());
    }

    #[test]
    fn dense_oracle_matches_owned_oracle() {
        let mut rng = StdRng::seed_from_u64(86);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let sim = crate::simgraph::SimulatedGraph::without_hopset(&g, 12, 0.2, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let cap = 4 * g.n();
        for carry_over in [true, false] {
            let owned = crate::oracle::oracle_run_with_schedule(&alg, &sim, cap, carry_over);
            let dense = oracle_run_dense_with_schedule(&alg, &sim, cap, carry_over);
            assert_eq!(owned.states, dense.states, "carry={carry_over}");
            assert_eq!(owned.h_iterations, dense.h_iterations);
            assert_eq!(owned.fixpoint, dense.fixpoint);
        }
    }
}
