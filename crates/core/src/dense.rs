//! The dense-block backend: MBF-like iteration over flat
//! row-major state matrices ([`mte_algebra::dense`]).
//!
//! # Why a dense backend
//!
//! The arena backend serves the regime the paper's complexity story
//! targets: filtered states of size `O(log n)`
//! (Lemma 7.6), merged entry-by-entry. APSP (`SourceDetection::apsp`,
//! Example 3.5; the query of Theorem 6.1) inverts that regime — states
//! converge towards **full** rows (`|x_v| → n`) and the sorted merges
//! pay branch mispredictions and per-entry key bookkeeping for
//! coordinates that are all present anyway. [`DenseBackend`] runs the
//! *same* hops (the shared `FrontierSchedule`: same frontier, same
//! touched list, same degree-balanced chunks) over a [`DenseBlock`] —
//! the paper's matrix-semimodule view taken literally: one hop of vertex
//! `v` is `row_v ← row_v ⊕ ⊕_w a_vw ⊙ row_w`, computed by the
//! contiguous, cache-tiled min-plus row kernels of
//! [`mte_algebra::dense`].
//!
//! The backend serves exactly that workload: min-plus distance maps
//! whose filter is the identity. Which instances qualify is one policy,
//! stated once in [`DenseMbfAlgorithm::advertises_dense`]; masking
//! filters run on the arena backend, other semirings on the literal
//! one.
//!
//! # Bit-identity
//!
//! Min over `f64` is order-independent and each dense relaxation
//! computes the same single `x + w` the sparse merge kernels compute,
//! so dense states are **bit-identical to the literal and arena paths
//! by construction** — differential testing is exact, not approximate
//! (asserted by `tests/common/matrix.rs` across
//! `MTE_THREADS ∈ {1, 4}`). The contract an algorithm must uphold is
//! that [`DenseMbfAlgorithm::advertises_dense`] returns `true` only when
//! [`MbfAlgorithm::filter`] is the identity on every state the instance
//! can produce: the backend never calls the filter.
//!
//! # Memory budget
//!
//! A dense run holds an `n × n` block. [`DenseBackend`] allocates it
//! through [`DenseBlock::try_from_states`] under its memory budget, so
//! an unaffordable block — or an injected `alloc_fail` at the
//! `dense_row_kernel` site — is the typed
//! [`RunError::DenseBudgetExceeded`], raised before any allocation,
//! never an abort. There is no silent sparse fallback: the one
//! production caller, `approximate_metric`, already routes inputs
//! too large for a dense block to the sparse oracle.
//!
//! # Oracle routing
//!
//! [`DenseBackend`] is a lane of the oracle's level loop
//! ([`crate::oracle::OracleBackend`]): every level vector `y_λ` and the
//! aggregate `x` are dense blocks. `approximate_metric` (Theorem 6.1
//! — the APSP query, whose output *is* an `n × n` matrix) routes
//! through it.

use crate::engine::{initial_states, FrontierSchedule, MbfAlgorithm};
use crate::error::RunError;
use crate::oracle::{sealed, Lane};
use crate::run::{check_vertices, Checkpoint, StateBackend};
use crate::work::WorkStats;
use mte_algebra::dense::{fold_row_into, relax_rows_tracked, rows_equal, DenseBlock};
use mte_algebra::{DistanceMap, MinPlus, NodeId, Semiring};
use mte_graph::Graph;
use rayon::prelude::*;
use std::cell::RefCell;

/// An MBF-like algorithm over min-plus distance maps that may run on
/// dense rows: `D ≅ S^V` with coordinate `u` at column `u`. See the
/// module docs for the contract.
///
/// An advertising instance's filter is the identity, so it is also
/// **absorption-stable** (see [`crate::arena::RecomputeCtx`] for the
/// general argument): row values only ever improve under `⊕`, so
/// re-merging a neighbor whose row did not change since `v` last
/// absorbed it is an identity. The backend therefore **skips clean
/// source rows outright** — on a memory-bound dense hop that is a
/// direct traffic cut, not just saved arithmetic.
pub trait DenseMbfAlgorithm: MbfAlgorithm<S = MinPlus, M = DistanceMap> {
    /// `true` iff [`MbfAlgorithm::filter`] is the identity on every
    /// state this instance can produce. The dense backend refuses an
    /// instance that does not advertise, before it allocates; returning
    /// `true` for a masking instance is a correctness bug, not a
    /// performance one.
    fn advertises_dense(&self) -> bool;
}

/// Shared mutable base pointer for the disjoint-index writes of the
/// dense backend's parallel chunks.
///
/// Soundness contract (upheld by the dense backend's
/// [`StateBackend::step`]): the per-hop
/// recompute list is sorted and deduplicated, and chunks partition its
/// *positions*, so no two chunks ever touch the same row window or
/// stats slot.
struct SyncPtr<T>(*mut T);

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
    /// # Safety
    ///
    /// The caller must own index `i` exclusively (see the struct docs)
    /// and stay within the allocation the base pointer came from.
    unsafe fn slot(&self, i: usize) -> *mut T {
        // SAFETY: `i` is in bounds of the allocation behind the base
        // pointer (caller contract above).
        unsafe { self.0.add(i) }
    }
}

/// The dense backend of [`StateBackend`]: the `FrontierSchedule` of
/// [`crate::engine`] driving row-kernel hops over a [`DenseBlock`],
/// states exported as sparse maps. One backend serves arbitrarily many
/// hops without reallocating. A run that cannot afford its `n × n` block
/// has no fallback: start and resume allocate it under the memory budget
/// and fail with [`RunError::DenseBudgetExceeded`] (see the module
/// docs).
#[derive(Clone, Debug)]
pub struct DenseBackend {
    block: DenseBlock,
    /// Memory budget for the block, in bytes; `None` = unlimited.
    budget_bytes: Option<u64>,
    sched: FrontierSchedule,
    /// Flat shadow matrix (`n·k` values) written during a hop; changed
    /// rows are copied into the block at commit.
    next: Vec<MinPlus>,
    /// Per-touched-position `(entries, relaxations, changed)` of the
    /// current hop.
    per_vertex: Vec<(u64, u64, bool)>,
}

/// Checks the dense advertisement, then the states' vertex range: an
/// instance the backend can never run is refused before anything is
/// allocated, and a state naming a vertex `≥ states.len()` is
/// [`RunError::SnapshotCorrupt`].
fn check_input<A: DenseMbfAlgorithm>(alg: &A, states: &[DistanceMap]) -> Result<(), RunError> {
    assert!(
        alg.advertises_dense(),
        "algorithm instance does not advertise dense states"
    );
    check_vertices(states)
}

impl DenseBackend {
    /// An empty backend, allocating its block only within
    /// `budget_bytes` (`None` = unlimited).
    pub fn new(budget_bytes: Option<u64>) -> Self {
        DenseBackend {
            block: DenseBlock::new(0, 0),
            budget_bytes,
            sched: FrontierSchedule::default(),
            next: Vec::new(),
            per_vertex: Vec::new(),
        }
    }

    /// Checks the input ([`check_input`]), then loads `states` into a
    /// fresh `n × n` block allocated under the memory budget.
    fn load<A: DenseMbfAlgorithm>(
        &mut self,
        alg: &A,
        states: &[DistanceMap],
    ) -> Result<(), RunError> {
        check_input(alg, states)?;
        let n = states.len();
        let block = DenseBlock::try_from_states(states, n, self.budget_bytes).map_err(|e| {
            RunError::DenseBudgetExceeded {
                requested_bytes: e.requested_bytes,
                budget_bytes: e.budget_bytes,
            }
        })?;
        self.block = block;
        Ok(())
    }
}

impl<A: DenseMbfAlgorithm> StateBackend<A> for DenseBackend {
    fn start(&mut self, alg: &A, g: &Graph) -> Result<WorkStats, RunError> {
        self.load(alg, &initial_states(alg, g.n()))?;
        self.sched.mark_all_dirty(g);
        Ok(WorkStats::new())
    }

    /// The states convert into a fresh block and the recorded frontier
    /// seeds the schedule; the seeded rows are tainted.
    fn resume(
        &mut self,
        alg: &A,
        g: &Graph,
        ckpt: &Checkpoint<DistanceMap>,
    ) -> Result<WorkStats, RunError> {
        self.load(alg, &ckpt.states)?;
        self.sched.ensure_sized(g);
        self.sched.mark_dirty(g, ckpt.frontier.iter().copied());
        Ok(WorkStats::new())
    }

    /// One hop `x ← r^V A x` over the dense block. Bit-identical to
    /// [`crate::engine::iterate_scaled`] on the exported states.
    ///
    /// `entries_processed` counts **dense coordinates** touched
    /// (`k` per source row folded, own row included) — a different
    /// currency than the sparse backends' per-entry counts; states,
    /// iterations, fixpoints, `edge_relaxations`, and
    /// `touched_vertices` remain exactly comparable.
    fn step(&mut self, alg: &A, g: &Graph, weight_scale: f64) -> (WorkStats, bool) {
        let n = g.n();
        assert_eq!(n, self.block.rows(), "state block / graph size mismatch");
        let k = self.block.cols();
        if !self.sched.sized_for(n) {
            // First use (or a different graph size): treat as
            // all-dirty.
            self.sched.mark_all_dirty(g);
        }
        let mut alloc_count = 0u64;
        if self.next.len() != n * k {
            self.next.clear();
            self.next.resize(n * k, <MinPlus as Semiring>::zero());
            // One flat shadow buffer, not Θ(n) per-vertex buffers.
            alloc_count = 1;
        }

        self.sched.plan_hop(g, true, |_, _, _| true);
        let sched = &self.sched;
        let touched: &[NodeId] = sched.touched();
        let chunks: &[std::ops::Range<usize>] = sched.chunks();

        // Recompute phase: each chunk pulls its vertices' rows through
        // the cache-tiled row kernels into its disjoint shadow rows.
        self.per_vertex.clear();
        self.per_vertex.resize(touched.len(), (0, 0, false));
        let block: &DenseBlock = &self.block;
        let next_base = SyncPtr(self.next.as_mut_ptr());
        let stats_base = SyncPtr(self.per_vertex.as_mut_ptr());
        // Skip source rows that did not change since `v` last absorbed
        // them (the frontier tells us which did; the trait requires
        // absorption stability) — on a memory-bound hop, rows never
        // read are the dominant saving. Tainted vertices (externally
        // rewritten) must merge everything once.
        chunks.par_iter().with_min_len(1).for_each(|range| {
            // Per-chunk neighbor-row gather list, reused across the
            // chunk's vertices (one small allocation per chunk per hop).
            let mut srcs: Vec<(&[MinPlus], MinPlus)> = Vec::new();
            for p in range.clone() {
                let v = touched[p];
                // SAFETY: chunks partition positions of the sorted,
                // deduplicated `touched` list, so row window `v·k..` and
                // stats slot `p` are owned by exactly this chunk.
                let dst: &mut [MinPlus] =
                    unsafe { std::slice::from_raw_parts_mut(next_base.slot(v as usize * k), k) };
                // SAFETY: as above — stats slot `p` belongs to this chunk.
                let stats = unsafe { &mut *stats_base.slot(p) };
                srcs.clear();
                let full = sched.is_tainted(v);
                let mut relaxations = 0u64;
                for &(w, ew) in g.neighbors(v) {
                    if !full && !sched.on_frontier(w) {
                        continue; // already absorbed: provably an identity
                    }
                    let coeff = alg.edge_coeff(v, w, ew * weight_scale);
                    relaxations += 1;
                    if !Semiring::is_zero(&coeff) {
                        // 0 ⊙ x = ⊥: a zero coefficient contributes
                        // nothing — skip the k-element no-op.
                        srcs.push((block.row(w), coeff));
                    }
                }
                // a_vv = 1: the node's own row is the base of the fold.
                let changed = if srcs.is_empty() {
                    // Nothing to merge and `r = id`: the hop is the
                    // identity on `v` — the shadow row is not even
                    // written (commit only reads changed rows).
                    false
                } else {
                    // Fused path: init-from-base first relaxation,
                    // change tracking inside the passes — no copy pass,
                    // no compare pass.
                    relax_rows_tracked(dst, block.row(v), &srcs)
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
        let block_base = SyncPtr(self.block.values_mut().as_mut_ptr());
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
                                next_base.slot(v * k) as *const MinPlus,
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

        let touched_vertices = touched.len() as u64;
        // Every touched row was rewritten wholesale into the shadow.
        let bytes_copied = touched_vertices * (k * std::mem::size_of::<MinPlus>()) as u64;
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
                if let Some(s) = self.block.values_mut().first_mut() {
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

    fn frontier(&self) -> &[NodeId] {
        self.sched.frontier()
    }

    fn export_states(&self) -> Vec<DistanceMap> {
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

impl sealed::Sealed for DenseBackend {}

/// The dense lane of the oracle's level loop: `y_λ` as a
/// [`DenseBlock`]; the aggregate `x` is a dense block too.
impl<A: DenseMbfAlgorithm> Lane<A> for DenseBackend {
    type X = DenseBlock;
    type Folded = Vec<MinPlus>;

    fn lane(n: usize) -> Self {
        let mut lane = DenseBackend {
            block: DenseBlock::new(n, n),
            ..DenseBackend::new(None)
        };
        lane.sched.enable_change_log();
        lane
    }

    fn import(alg: &A, states: &[DistanceMap]) -> Result<DenseBlock, RunError> {
        check_input(alg, states)?;
        Ok(DenseBlock::from_states(states, states.len()))
    }

    fn export(x: &DenseBlock) -> Vec<DistanceMap> {
        x.export()
    }

    fn mark_all_dirty(&mut self, g: &Graph) {
        self.sched.mark_all_dirty(g);
    }

    fn mark_dirty(&mut self, g: &Graph, vs: &[NodeId]) {
        self.sched.mark_dirty(g, vs.iter().copied());
    }

    fn drain_change_log(&mut self, out: &mut Vec<NodeId>) {
        self.sched.drain_change_log(out);
    }

    fn project(&mut self, _alg: &A, x: &DenseBlock, v: NodeId, keep: bool) -> bool {
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
        _alg: &A,
        lanes: impl Iterator<Item = &'a Self>,
        x: &DenseBlock,
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
            // Only a changed row is copied out of the scratch.
            (!rows_equal(row, x.row(v))).then(|| row.clone())
        })
    }

    fn commit(x: &mut DenseBlock, v: NodeId, folded: Vec<MinPlus>) {
        x.row_mut(v).copy_from_slice(&folded);
    }

    fn poison(&mut self, _alg: &A) {
        if let Some(s) = self.block.values_mut().first_mut() {
            Semiring::poison(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaBackend;
    use crate::catalog::SourceDetection;
    use crate::engine::run_to_fixpoint;
    use crate::oracle::OracleBackend;
    use crate::run::run_to_fixpoint_on;
    use crate::simgraph::SimulatedGraph;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_apsp_matches_literal_loop() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = gnm_graph(50, 130, 1.0..9.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let literal = run_to_fixpoint(&alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states);
        assert_eq!(literal.iterations, dense.iterations);
        assert_eq!(literal.fixpoint, dense.fixpoint);
        // Same schedule as the arena, same hops: the scheduling and
        // relaxation counters agree (both skip exactly the clean
        // neighbors).
        assert_eq!(arena.work.edge_relaxations, dense.work.edge_relaxations);
        assert_eq!(arena.work.touched_vertices, dense.work.touched_vertices);
        assert!(dense.work.dense_hops > 0);
    }

    /// The literal oracle is the MBF iteration on the explicit `H`, one
    /// round per iteration (Lemma 5.1): the dense lane agrees with it
    /// after every round up to its fixpoint.
    #[test]
    fn dense_oracle_matches_literal_oracle() {
        let mut rng = StdRng::seed_from_u64(86);
        let g = gnm_graph(30, 70, 1.0..6.0, &mut rng);
        let sim = SimulatedGraph::without_hopset(&g, 12, 0.2, &mut rng);
        let (alg, h) = (SourceDetection::apsp(g.n()), sim.explicit_h());
        let dense = |cap| {
            let oracle = OracleBackend::<_, DenseBackend>::new(&sim);
            run_to_fixpoint_on(oracle, &alg, sim.augmented(), cap)
        };
        let done = dense(4 * g.n());
        assert!(done.fixpoint && done.iterations > 2);
        for rounds in 1..=done.iterations {
            let (oracle, literal) = (dense(rounds), crate::engine::run(&alg, &h, rounds));
            for v in 0..g.n() {
                assert!(
                    oracle.states[v].approx_eq(&literal.states[v], 1e-9),
                    "round {rounds}, node {v}"
                );
            }
        }
    }

    #[test]
    fn fresh_engine_step_sizes_schedule_and_taint_together() {
        // A step on a loaded block whose schedule was never sized must
        // size the frontier and taint marks together before it reads
        // either.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::apsp(g.n());
        let mut backend = DenseBackend::new(None);
        backend.load(&alg, &initial_states(&alg, g.n())).unwrap();
        assert!(!backend.sched.sized_for(g.n()));
        let (_, changed) = backend.step(&alg, &g, 1.0);
        assert!(changed);
        while backend.step(&alg, &g, 1.0).1 {}
        let literal = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert_eq!(backend.block.export(), literal.states);
    }

    #[test]
    fn dense_respects_source_mask_and_distance_limit() {
        // A filter that actually masks (non-sources, a finite limit) has
        // no full rows: it does not advertise dense, the dense backend
        // refuses it, and the sparse lane that serves it matches the
        // literal iteration.
        let g = path_graph(6, 1.0);
        let alg = SourceDetection::new(g.n(), &[0, 5], 2, mte_algebra::Dist::new(3.0));
        assert!(!alg.advertises_dense());
        let refused = crate::run::try_run_on(
            DenseBackend::new(None),
            &alg,
            &g,
            g.n() + 1,
            crate::run::CheckpointPolicy::disabled(),
            |_| Ok(()),
        );
        assert!(
            matches!(&refused, Err(crate::RunError::Panicked { message }) if message.contains("dense")),
            "expected a typed refusal, got {:?}",
            refused.map(|_| ())
        );
        let literal = run_to_fixpoint(&alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, arena.states);
    }

    #[test]
    fn truncating_top_k_does_not_advertise_dense() {
        let alg = SourceDetection::k_ssp(10, 3);
        assert!(!alg.advertises_dense());
        let apsp = SourceDetection::apsp(10);
        assert!(apsp.advertises_dense());
    }
}
