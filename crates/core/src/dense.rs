//! The dense-block engine backend: MBF-like iteration over flat
//! row-major state matrices ([`mte_algebra::dense`]), plus Ligra-style
//! **representation switching** between the sparse and dense stores.
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
//! # Representation switching
//!
//! [`SwitchingEngine`] is the hybrid store (Ligra-style direction
//! switching lifted to the *representation*): a run starts sparse
//! (owned maps, frontier hops), tracks per-vertex state sizes, and
//! marks a vertex a **dense-row candidate** once `|x_v|` crosses
//! [`SwitchThresholds::row_density`]`·k` ([`WorkStats::dense_flips`]
//! counts the upward crossings). Once candidates saturate
//! ([`SwitchThresholds::saturation`]`·n`), the whole hop flips to
//! **matrix mode**: states convert into a [`DenseBlock`] once and
//! subsequent hops run the row kernels ([`WorkStats::dense_hops`]
//! counts them). If external edits ([`SwitchingEngine::assign_dirty`])
//! shrink the live density below [`SwitchThresholds::revert`], the
//! engine converts back to the sparse store. Every conversion preserves
//! states bit-for-bit (both representations are canonical), and the
//! frontier carries over across the switch, so a switching run's
//! states, iteration counts, and fixpoint flags match the
//! single-representation runs exactly.
//!
//! # Oracle routing
//!
//! [`oracle_run_dense_with_schedule`] is the oracle's level loop over
//! dense lanes: every level vector `y_λ` and the aggregate `x` are
//! dense blocks. `approximate_metric_on` (Theorem 6.1 — the APSP query,
//! whose output *is* an `n × n` matrix) routes through it.

use crate::engine::{
    initial_states, EngineStrategy, FrontierSchedule, MbfAlgorithm, MbfEngine, SyncPtr,
};
use crate::error::{Degradation, RunError};
use crate::oracle::{run_lanes, Lane, OracleRun};
use crate::run::{Checkpoint, StateBackend};
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::dense::{
    fold_row_into, relax_rows_into, relax_rows_tracked, rows_equal, DenseBlock, DenseKernel,
    DenseState,
};
use mte_algebra::{MinPlus, NodeId, Semimodule, Semiring};
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

impl<A: DenseMbfAlgorithm> DenseEngine<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    /// A fresh engine with the given scheduling strategy.
    pub fn new(strategy: EngineStrategy) -> Self {
        DenseEngine {
            sched: FrontierSchedule::new(strategy),
            next: Vec::new(),
            per_vertex: Vec::new(),
            taint: crate::engine::TaintTable::new(),
        }
    }

    /// Sizes the schedule and taint table for `g` with an **empty**
    /// frontier, so a later [`DenseEngine::mark_dirty`] seeds exactly
    /// its vertices instead of falling back to the all-dirty restart
    /// (the [`SwitchingEngine`] primes its matrix engine with this at
    /// construction, keeping the flip's frontier hand-over
    /// frontier-sized from the very first conversion).
    pub fn ensure_sized(&mut self, g: &Graph) {
        self.sched.ensure_sized(g);
        self.taint.ensure_sized(g.n());
    }

    /// The engine's scheduling strategy.
    pub fn strategy(&self) -> EngineStrategy {
        self.sched.strategy()
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
        self.sched.refresh(g, |p| per_vertex[p].2);

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
/// [`DenseEngine`], states exported as sparse maps. Unlike the
/// [`SwitchingEngine`] — which *degrades* to sparse — a dense-only run
/// that cannot afford its `n × n` block has no fallback: start and
/// resume check the memory budget before allocating and fail with
/// [`RunError::DenseBudgetExceeded`].
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
    /// An empty backend whose engine runs `strategy`, allocating its
    /// block only within `budget_bytes` (`None` = unlimited).
    pub fn new(strategy: EngineStrategy, budget_bytes: Option<u64>) -> Self {
        DenseBackend {
            engine: DenseEngine::new(strategy),
            block: DenseBlock::new(0, 0),
            budget_bytes,
        }
    }

    /// An oracle lane: an `n × n` block of `⊥`, with the engine's change
    /// log on.
    fn lane(strategy: EngineStrategy, n: usize) -> Self {
        let mut engine = DenseEngine::new(strategy);
        engine.enable_change_log();
        DenseBackend {
            engine,
            block: DenseBlock::new(n, n),
            budget_bytes: None,
        }
    }

    /// Loads `states` into a fresh `n × n` block, after the budget and
    /// dense-advertisement checks.
    fn load(&mut self, alg: &A, states: &[A::M]) -> Result<(), RunError> {
        let n = states.len();
        let requested = DenseBlock::<A::S>::bytes_for(n, n);
        if let Some(budget) = self.budget_bytes.filter(|&budget| requested > budget) {
            return Err(RunError::DenseBudgetExceeded {
                requested_bytes: requested,
                budget_bytes: budget,
            });
        }
        assert!(
            alg.advertises_dense(),
            "algorithm instance does not advertise dense states"
        );
        self.block = DenseBlock::from_states(states, n);
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
// Representation switching: the sparse↔dense hybrid store.
// ---------------------------------------------------------------------

/// Thresholds of the representation-switching policy (fractions; see
/// the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchThresholds {
    /// A vertex becomes a dense-row candidate once `|x_v| ≥
    /// row_density · k` (and stops being one if an edit shrinks it back
    /// below).
    pub row_density: f64,
    /// The engine flips to matrix mode once candidates reach
    /// `saturation · n`.
    pub saturation: f64,
    /// Matrix mode reverts to the sparse store once the live density
    /// `Σ_v |x_v|` drops below `revert · n · k`. Keep `revert` well
    /// below `row_density · saturation` so the two switches have
    /// hysteresis.
    pub revert: f64,
    /// Memory budget for the dense block, in bytes. A flip whose
    /// `n × k` allocation would exceed it is **declined**: the engine
    /// stays sparse (bit-identical output, recorded in
    /// `WorkStats::dense_declined` and the run report's degradations).
    /// `None` = unlimited.
    pub budget_bytes: Option<u64>,
}

impl Default for SwitchThresholds {
    /// Flip a row at half density, the hop at a quarter of the vertices
    /// dense, revert below 5% live density. The memory budget comes
    /// from `MTE_DENSE_BUDGET_BYTES` (unlimited when unset).
    fn default() -> Self {
        SwitchThresholds {
            row_density: 0.5,
            saturation: 0.25,
            revert: 0.05,
            budget_bytes: dense_budget_from_env(),
        }
    }
}

/// Dense-block memory budget requested by the environment:
/// `MTE_DENSE_BUDGET_BYTES` parsed as bytes, `None` when unset or
/// unparsable (unlimited).
pub fn dense_budget_from_env() -> Option<u64> {
    std::env::var("MTE_DENSE_BUDGET_BYTES")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
}

/// Which store currently holds the states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReprMode {
    Sparse,
    Matrix,
}

/// The representation-switching engine: owned sparse maps while states
/// are small, one flat [`DenseBlock`] once they saturate, converting
/// back and forth at the thresholds — with states, iteration counts,
/// and fixpoint flags bit-identical to either single-representation
/// run (see the module docs for why). The engine owns the states; read
/// them out with [`StateBackend::export_states`].
pub struct SwitchingEngine<A: DenseMbfAlgorithm>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    thresholds: SwitchThresholds,
    mode: ReprMode,
    sparse_engine: MbfEngine<A>,
    dense_engine: DenseEngine<A>,
    /// The sparse store (authoritative in [`ReprMode::Sparse`]; zeroed
    /// in matrix mode so its heap buffers are released).
    states: Vec<A::M>,
    /// The dense store (authoritative in [`ReprMode::Matrix`]).
    block: DenseBlock<A::S>,
    /// Per-vertex state size (`state_size`, so ⊥ counts as 1 like the
    /// work accounting does) and its sum — the density statistics the
    /// switching policy reads.
    row_len: Vec<usize>,
    total_live: usize,
    is_dense_row: Vec<bool>,
    dense_rows: usize,
    /// Upward row-density crossings since the last step (external edits
    /// included), drained into the next step's `WorkStats`.
    pending_flips: u64,
    /// `false` once a flip was declined for exceeding the memory
    /// budget: the engine then completes sparse without re-attempting
    /// the allocation every hop.
    dense_allowed: bool,
    /// Declined flips since the last step, drained into the next step's
    /// `WorkStats::dense_declined`.
    pending_declined: u64,
    /// Degradations taken so far (for the run report).
    degradations: Vec<Degradation>,
    changed_scratch: Vec<NodeId>,
    frontier_scratch: Vec<NodeId>,
}

impl<A: DenseMbfAlgorithm> SwitchingEngine<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    /// An empty engine; [`StateBackend::start`] loads `r^V x⁽⁰⁾` into
    /// the sparse store, all vertices dirty.
    pub fn new(strategy: EngineStrategy, thresholds: SwitchThresholds) -> Self {
        let mut sparse_engine = MbfEngine::new(strategy);
        sparse_engine.enable_change_log();
        // The matrix-mode engine always runs the frontier-list
        // schedule: a Ligra-style dense fallback would only re-relax
        // quiescent full rows (states are bit-identical either way —
        // the strategies differ only in work).
        let mut dense_engine = DenseEngine::new(EngineStrategy::Frontier);
        dense_engine.enable_change_log();
        SwitchingEngine {
            thresholds,
            mode: ReprMode::Sparse,
            sparse_engine,
            dense_engine,
            states: Vec::new(),
            block: DenseBlock::new(0, 0),
            row_len: Vec::new(),
            total_live: 0,
            is_dense_row: Vec::new(),
            dense_rows: 0,
            pending_flips: 0,
            dense_allowed: true,
            pending_declined: 0,
            degradations: Vec::new(),
            changed_scratch: Vec::new(),
            frontier_scratch: Vec::new(),
        }
    }

    /// `true` iff the engine currently holds the states as a dense
    /// block (matrix mode).
    pub fn in_matrix_mode(&self) -> bool {
        self.mode == ReprMode::Matrix
    }

    /// Updates the density bookkeeping for `v`'s new size, counting
    /// upward row-density crossings into `pending_flips`.
    fn note_row_len(&mut self, v: NodeId, new_len: usize) {
        let k = self.row_len.len();
        let old = std::mem::replace(&mut self.row_len[v as usize], new_len);
        self.total_live = self.total_live - old + new_len;
        let dense_now = (new_len as f64) >= self.thresholds.row_density * k as f64;
        let was = self.is_dense_row[v as usize];
        if dense_now && !was {
            self.is_dense_row[v as usize] = true;
            self.dense_rows += 1;
            self.pending_flips += 1;
        } else if !dense_now && was {
            self.is_dense_row[v as usize] = false;
            self.dense_rows -= 1;
        }
    }

    /// External copy-on-edit assignment: overwrites `v`'s state (in
    /// whichever store is active), updates the density bookkeeping, and
    /// seeds `v` into the active schedule — the switching counterpart
    /// of rewriting `states[v]` + [`MbfEngine::mark_dirty`].
    pub fn assign_dirty(&mut self, alg: &A, g: &Graph, v: NodeId, state: &A::M) {
        match self.mode {
            ReprMode::Sparse => {
                self.states[v as usize] = state.clone();
                self.sparse_engine.mark_dirty(g, [v]);
            }
            ReprMode::Matrix => {
                self.block.set_row(v, state);
                self.dense_engine.mark_dirty(g, [v]);
            }
        }
        self.note_row_len(v, alg.state_size(state));
    }

    /// Converts the sparse store into the dense block and hands the
    /// frontier over (states bit-identical; only the representation
    /// changes). If the block allocation exceeds the memory budget the
    /// flip is **declined**: the engine records the degradation, stops
    /// attempting further flips, and completes on the sparse store —
    /// the output stays bit-identical, only the performance profile
    /// changes.
    fn flip_to_matrix(&mut self, g: &Graph) {
        let n = g.n();
        if self.block.rows() == n && self.block.cols() == n {
            // The block is already allocated (an earlier flip/revert
            // cycle): reuse is free, no budget decision to make.
            for (v, x) in self.states.iter().enumerate() {
                self.block.set_row(v as NodeId, x);
            }
        } else {
            match DenseBlock::try_from_states(&self.states, n, self.thresholds.budget_bytes) {
                Ok(block) => self.block = block,
                Err(e) => {
                    self.dense_allowed = false;
                    self.pending_declined += 1;
                    self.degradations.push(Degradation::DenseFlipDeclined {
                        requested_bytes: e.requested_bytes,
                        budget_bytes: e.budget_bytes,
                    });
                    return;
                }
            }
        }
        // Release the sparse heap buffers; the vector itself is kept
        // for the reverse conversion.
        for s in self.states.iter_mut() {
            *s = A::M::zero();
        }
        self.frontier_scratch.clear();
        self.frontier_scratch
            .extend_from_slice(self.sparse_engine.frontier());
        self.dense_engine
            .mark_dirty(g, self.frontier_scratch.iter().copied());
        self.mode = ReprMode::Matrix;
    }

    /// Converts the dense block back into the sparse store and hands
    /// the frontier over.
    fn flip_to_sparse(&mut self, g: &Graph) {
        for (v, s) in self.states.iter_mut().enumerate() {
            *s = A::M::read_dense(self.block.row(v as NodeId));
        }
        self.frontier_scratch.clear();
        self.frontier_scratch
            .extend_from_slice(self.dense_engine.frontier());
        self.sparse_engine
            .mark_dirty(g, self.frontier_scratch.iter().copied());
        self.mode = ReprMode::Sparse;
    }
}

impl<A: DenseMbfAlgorithm> StateBackend<A> for SwitchingEngine<A>
where
    A::S: DenseKernel,
    A::M: DenseState<A::S>,
{
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        assert!(
            alg.advertises_dense(),
            "algorithm instance does not advertise dense states"
        );
        let n = g.n();
        self.states = initial_states(alg, n);
        (self.row_len, self.is_dense_row) = (vec![0; n], vec![false; n]);
        for v in 0..n {
            self.note_row_len(v as NodeId, alg.state_size(&self.states[v]));
        }
        self.sparse_engine.mark_all_dirty(g);
        // Pre-size the matrix engine so the first flip's `mark_dirty`
        // hand-over seeds exactly the sparse frontier instead of falling
        // back to an all-dirty restart.
        self.dense_engine.ensure_sized(g);
        Ok(WorkStats::new())
    }

    /// Starts with every vertex dirty — a sound *superset* of the
    /// recorded frontier, so the resumed states stay bit-identical
    /// (extra recomputations are provable identities) — and assigns in
    /// the checkpoint states that differ from the fresh initial states
    /// before the first hop.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<A::M>,
    ) -> Result<WorkStats, RunError> {
        let work = self.start(alg, g)?;
        for (v, state) in ckpt.states.iter().enumerate() {
            if *state != self.states[v] {
                self.assign_dirty(alg, g, v as NodeId, state);
            }
        }
        Ok(work)
    }

    /// One hop `x ← r^V A x` on whichever store is active, followed by
    /// the switching decision. Returns the work spent (including
    /// `dense_flips`/`dense_hops` switching counters) and whether any
    /// state changed.
    fn step(&mut self, alg: &A, g: &Graph, weight_scale: f64) -> (WorkStats, bool) {
        let n = g.n();
        let (mut work, changed) = match self.mode {
            ReprMode::Sparse => {
                let (work, changed) =
                    self.sparse_engine
                        .step(alg, g, &mut self.states, weight_scale);
                self.changed_scratch.clear();
                self.sparse_engine
                    .drain_change_log(&mut self.changed_scratch);
                for i in 0..self.changed_scratch.len() {
                    let v = self.changed_scratch[i];
                    self.note_row_len(v, alg.state_size(&self.states[v as usize]));
                }
                if self.dense_allowed
                    && (self.dense_rows as f64) >= self.thresholds.saturation * n as f64
                {
                    self.flip_to_matrix(g);
                }
                (work, changed)
            }
            ReprMode::Matrix => {
                let (work, changed) = self
                    .dense_engine
                    .step(alg, g, &mut self.block, weight_scale);
                self.changed_scratch.clear();
                self.dense_engine
                    .drain_change_log(&mut self.changed_scratch);
                for i in 0..self.changed_scratch.len() {
                    let v = self.changed_scratch[i];
                    let len = A::M::dense_len(self.block.row(v)).max(1);
                    self.note_row_len(v, len);
                }
                let k = self.block.cols();
                if (self.total_live as f64) < self.thresholds.revert * (n * k) as f64 {
                    self.flip_to_sparse(g);
                }
                (work, changed)
            }
        };
        work.dense_flips += std::mem::take(&mut self.pending_flips);
        work.dense_declined += std::mem::take(&mut self.pending_declined);
        (work, changed)
    }

    fn mark_all_dirty(&mut self, g: &Graph) {
        match self.mode {
            ReprMode::Sparse => self.sparse_engine.mark_all_dirty(g),
            ReprMode::Matrix => self.dense_engine.mark_all_dirty(g),
        }
    }

    fn mark_dirty(&mut self, g: &Graph, vs: &[NodeId]) {
        match self.mode {
            ReprMode::Sparse => self.sparse_engine.mark_dirty(g, vs.iter().copied()),
            ReprMode::Matrix => self.dense_engine.mark_dirty(g, vs.iter().copied()),
        }
    }

    /// The inner engines' logs feed the density bookkeeping every hop,
    /// so this log covers the last hop only.
    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.changed_scratch);
    }

    /// Whichever representation currently holds the states.
    fn frontier(&self) -> &[NodeId] {
        match self.mode {
            ReprMode::Sparse => self.sparse_engine.frontier(),
            ReprMode::Matrix => self.dense_engine.frontier(),
        }
    }

    /// Bit-identical in either mode.
    fn export_states(&self) -> Vec<A::M> {
        match self.mode {
            ReprMode::Sparse => self.states.clone(),
            ReprMode::Matrix => self.block.export(),
        }
    }

    /// Declined dense flips.
    fn degradations(&self) -> &[Degradation] {
        &self.degradations
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
    strategy: EngineStrategy,
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
    let lane = || DenseBackend::lane(strategy, n);
    let x = DenseBlock::from_states(&initial_states(alg, n), n);
    run_lanes(alg, sim, h, carry_over, lane, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Connectivity, SourceDetection, WidestPaths};
    use crate::engine::{EngineStrategy, OwnedBackend};
    use crate::run::run_to_fixpoint_on;
    use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_apsp_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = gnm_graph(50, 130, 1.0..9.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        for strategy in [
            EngineStrategy::Dense,
            EngineStrategy::Frontier,
            EngineStrategy::default(),
        ] {
            let owned = run_to_fixpoint_on(OwnedBackend::new(strategy), &alg, &g, g.n() + 1);
            let dense = run_to_fixpoint_on(DenseBackend::new(strategy, None), &alg, &g, g.n() + 1);
            assert_eq!(owned.states, dense.states, "{strategy:?}");
            assert_eq!(owned.iterations, dense.iterations, "{strategy:?}");
            assert_eq!(owned.fixpoint, dense.fixpoint, "{strategy:?}");
            // Same schedule, same hops: scheduling counters agree.
            // The dense backend may skip provably-absorbed merges, so its
            // relaxation count can only be lower.
            assert!(dense.work.edge_relaxations <= owned.work.edge_relaxations);
            assert_eq!(owned.work.touched_vertices, dense.work.touched_vertices);
            assert!(dense.work.dense_hops > 0);
        }
    }

    #[test]
    fn fresh_engine_step_sizes_schedule_and_taint_together() {
        // Regression: the unsized-schedule fallback used to size only
        // the schedule, so an absorption-stable algorithm's first step
        // on a never-primed engine read past the empty taint table.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::apsp(g.n());
        let mut block = DenseBlock::from_states(&initial_states(&alg, g.n()), g.n());
        let mut engine = DenseEngine::new(EngineStrategy::Frontier);
        let (_, changed) = engine.step(&alg, &g, &mut block, 1.0);
        assert!(changed);
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::Frontier),
            &alg,
            &g,
            g.n() + 1,
        );
        loop {
            let (_, changed) = engine.step(&alg, &g, &mut block, 1.0);
            if !changed {
                break;
            }
        }
        assert_eq!(block.export::<mte_algebra::DistanceMap>(), owned.states);
    }

    #[test]
    fn dense_connectivity_matches_owned_engine() {
        let g = mte_graph::Graph::from_edges(
            7,
            vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
        );
        let alg = Connectivity::all_pairs(g.n());
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::Frontier),
            &alg,
            &g,
            g.n() + 1,
        );
        let dense = run_to_fixpoint_on(
            DenseBackend::new(EngineStrategy::Frontier, None),
            &alg,
            &g,
            g.n() + 1,
        );
        assert_eq!(owned.states, dense.states);
        assert_eq!(owned.iterations, dense.iterations);
    }

    #[test]
    fn dense_widest_paths_matches_owned_engine() {
        let mut rng = StdRng::seed_from_u64(82);
        let g = gnm_graph(40, 110, 1.0..10.0, &mut rng);
        let alg = WidestPaths::apwp(g.n());
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::default()),
            &alg,
            &g,
            g.n() + 1,
        );
        let dense = run_to_fixpoint_on(
            DenseBackend::new(EngineStrategy::default(), None),
            &alg,
            &g,
            g.n() + 1,
        );
        assert_eq!(owned.states, dense.states);
        assert_eq!(owned.iterations, dense.iterations);
        assert_eq!(owned.fixpoint, dense.fixpoint);
    }

    #[test]
    fn dense_respects_source_mask_and_distance_limit() {
        // A filter that actually masks: non-sources and a finite limit.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::new(g.n(), &[0, 5], 2, mte_algebra::Dist::new(3.0));
        assert!(alg.advertises_dense());
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::Frontier),
            &alg,
            &g,
            g.n() + 1,
        );
        let dense = run_to_fixpoint_on(
            DenseBackend::new(EngineStrategy::Frontier, None),
            &alg,
            &g,
            g.n() + 1,
        );
        assert_eq!(owned.states, dense.states);
    }

    #[test]
    fn truncating_top_k_does_not_advertise_dense() {
        let alg = SourceDetection::k_ssp(10, 3);
        assert!(!alg.advertises_dense());
        let apsp = SourceDetection::apsp(10);
        assert!(apsp.advertises_dense());
    }

    #[test]
    fn switching_engine_flips_and_stays_bit_identical() {
        let mut rng = StdRng::seed_from_u64(83);
        let g = gnm_graph(60, 170, 1.0..8.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::default()),
            &alg,
            &g,
            g.n() + 1,
        );
        // Aggressive thresholds so the flip happens early in the run.
        let switching = run_to_fixpoint_on(
            SwitchingEngine::new(
                EngineStrategy::default(),
                SwitchThresholds {
                    row_density: 0.2,
                    saturation: 0.2,
                    revert: 0.01,
                    budget_bytes: None,
                },
            ),
            &alg,
            &g,
            g.n() + 1,
        );
        assert_eq!(owned.states, switching.states);
        assert_eq!(owned.iterations, switching.iterations);
        assert_eq!(owned.fixpoint, switching.fixpoint);
        assert!(switching.work.dense_flips > 0, "no rows ever flipped");
        assert!(switching.work.dense_hops > 0, "matrix mode never entered");
    }

    #[test]
    fn switching_engine_never_flipping_matches_sparse() {
        let mut rng = StdRng::seed_from_u64(84);
        let g = grid_graph(6, 6, 1.0..4.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let owned = run_to_fixpoint_on(
            OwnedBackend::new(EngineStrategy::Frontier),
            &alg,
            &g,
            g.n() + 1,
        );
        let switching = run_to_fixpoint_on(
            SwitchingEngine::new(
                EngineStrategy::Frontier,
                SwitchThresholds {
                    row_density: 2.0, // unreachable: never a candidate
                    saturation: 2.0,
                    revert: 0.0,
                    budget_bytes: None,
                },
            ),
            &alg,
            &g,
            g.n() + 1,
        );
        assert_eq!(owned.states, switching.states);
        assert_eq!(owned.iterations, switching.iterations);
        assert_eq!(switching.work.dense_hops, 0);
        assert_eq!(switching.work.dense_flips, 0);
    }

    #[test]
    fn switching_engine_reverts_to_sparse_on_shrinking_edits() {
        let mut rng = StdRng::seed_from_u64(85);
        let g = gnm_graph(24, 70, 1.0..6.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let thresholds = SwitchThresholds {
            row_density: 0.2,
            saturation: 0.2,
            revert: 0.3, // high: shrinink edits drop below this quickly
            budget_bytes: None,
        };
        let mut engine = SwitchingEngine::new(EngineStrategy::default(), thresholds);
        engine.start(&alg, &g).unwrap();
        for _ in 0..g.n() {
            let (_, changed) = engine.step(&alg, &g, 1.0);
            if !changed {
                break;
            }
        }
        assert!(engine.in_matrix_mode(), "run never saturated");
        // Shrink every state back to its singleton init: live density
        // collapses and the engine must revert to the sparse store.
        for v in 0..g.n() as NodeId {
            let init = alg.init(v);
            engine.assign_dirty(&alg, &g, v, &init);
        }
        let (_, _) = engine.step(&alg, &g, 1.0);
        assert!(!engine.in_matrix_mode(), "revert threshold ignored");
        // And the run still converges to the owned reference.
        let owned = OwnedBackend::new(EngineStrategy::default());
        let owned_states = run_to_fixpoint_on(owned, &alg, &g, 2 * g.n()).states;
        for _ in 0..2 * g.n() {
            let (_, c) = engine.step(&alg, &g, 1.0);
            if !c {
                break;
            }
        }
        assert_eq!(engine.export_states(), owned_states);
    }

    #[test]
    fn dense_oracle_matches_owned_oracle() {
        let mut rng = StdRng::seed_from_u64(86);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let sim = crate::simgraph::SimulatedGraph::without_hopset(&g, 12, 0.2, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let cap = 4 * g.n();
        for carry_over in [true, false] {
            let owned = crate::oracle::oracle_run_with_schedule(
                &alg,
                &sim,
                cap,
                EngineStrategy::Frontier,
                carry_over,
            );
            let dense = oracle_run_dense_with_schedule(
                &alg,
                &sim,
                cap,
                EngineStrategy::Frontier,
                carry_over,
            );
            assert_eq!(owned.states, dense.states, "carry={carry_over}");
            assert_eq!(owned.h_iterations, dense.h_iterations);
            assert_eq!(owned.fixpoint, dense.fixpoint);
        }
    }
}
