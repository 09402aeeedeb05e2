//! Dense min-plus blocks: flat row-major distance matrices for APSP.
//!
//! # The algebraic view, taken literally
//!
//! The paper's framing (Sections 2.3–2.4) is that an MBF-like iteration
//! *is* a semiring matrix-(semimodule-)vector product: the state vector
//! `x ∈ M^V` is multiplied by the adjacency SLF `A`, component-wise
//! `(Ax)_v = ⊕_w a_vw ⊙ x_w`. The sparse [`crate::DistanceMap`]
//! representation serves the regime the complexity story targets —
//! filtered states of size `O(log n)` (Lemma 7.6) — but APSP states
//! (`SourceDetection::apsp`, Example 3.5; the input of Theorem 6.1)
//! converge towards **full** rows: `|x_v| → n`. There the sorted-merge
//! kernels pay branch mispredictions, per-entry key comparisons, and
//! scratch ping-pong for entries that are *all present anyway*, and the
//! semimodule `D ≅ S^V` is better stored as what it is: one row of `n`
//! min-plus values per vertex, the whole vector a flat `n × k` matrix.
//!
//! [`DenseBlock`] is that matrix: row-major `Vec<MinPlus>`, vertex `v`'s
//! state at `values[v·k .. (v+1)·k]`, absent coordinates holding `∞`
//! (the semiring zero). The row kernels implement the semimodule
//! operations as contiguous loops:
//!
//! * [`relax_rows_tracked`] — `dst ← base ⊕ ⊕ᵢ (wᵢ ⊙ srcᵢ)` over a
//!   vertex's neighbor rows, **cache-tiled** ([`ROW_TILE`] columns at a
//!   time) so for large `k` the destination tile stays in L1 while the
//!   source rows stream, with the changed flag tracked inside the passes;
//! * [`fold_row_into`] — plain aggregation `dst ← dst ⊕ src` (the
//!   oracle's level fold `⊕_λ P_λ y_λ`);
//! * [`rows_equal`] — whole-row equality (the oracle's change detection).
//!
//! The dense backend serves exactly one workload: min-plus distance maps
//! whose filter is the identity (APSP). Other semirings and masking
//! filters run on the sparse backends.
//!
//! # Bit-identity with the sparse backends
//!
//! Every value a dense kernel produces is computed by the *same*
//! scalar operations as the sparse merge kernels: one `x + w` with the
//! edge weight and a fold of `min` over the incoming values. `⊕ = min`
//! over `f64` is idempotent, commutative, and associative —
//! order-independent — so dense results are **bit-identical to the
//! literal and arena paths by construction**, which makes differential testing
//! exact (asserted by the conformance matrix, `tests/common/matrix.rs`). The
//! tiled kernel visits, per element, the source rows in exactly the same
//! order as the untiled loop.
//!
//! [`DenseBlock::from_states`] and [`DenseBlock::export`] bridge the
//! sparse [`crate::DistanceMap`] and its dense row: the non-`∞`
//! coordinates are scattered into the row and gathered back in node
//! order — a lossless round trip because both representations are
//! canonical for the same function `V → S`.

use crate::distance_map::DistanceMap;
use crate::minplus::MinPlus;
use crate::semiring::Semiring;
use crate::NodeId;

/// Columns per cache tile of [`relax_rows_tracked`]: 1024 elements keep
/// a destination tile of `f64`-sized values (8 KiB) resident in L1
/// while the source rows stream through.
pub const ROW_TILE: usize = 1024;

/// The scalar aggregation loop — the fallback where the AVX kernels
/// cannot run, and the reference they are differential-tested against.
#[inline]
fn scalar_fold(dst: &mut [MinPlus], src: &[MinPlus]) {
    debug_assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.add(s);
    }
}

/// The scalar three-address initialize-and-track loop: `dst ← base ⊕
/// (w ⊙ src)`, returning whether any column of `dst` differs from
/// `base` (cf. [`scalar_fold`]).
#[inline]
fn scalar_relax_init(dst: &mut [MinPlus], base: &[MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
    debug_assert!(dst.len() == base.len() && dst.len() == src.len());
    let mut changed = false;
    for ((d, b), s) in dst.iter_mut().zip(base).zip(src) {
        let out = b.add(&s.mul(&w));
        changed |= out != *b;
        *d = out;
    }
    changed
}

/// The scalar tracked-relaxation loop: `dst ← dst ⊕ (w ⊙ src)`,
/// returning whether any column changed (cf. [`scalar_fold`]).
#[inline]
fn scalar_relax_track(dst: &mut [MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let out = d.add(&s.mul(&w));
        changed |= out != *d;
        *d = out;
    }
    changed
}

/// Three-address relaxation `dst ← base ⊕ (w ⊙ src)`, returning
/// whether any column of `dst` differs from `base` — the fused
/// initialize-and-track pass of [`relax_rows_tracked`] (no separate
/// copy, no separate compare).
#[inline]
fn relax_row_init(dst: &mut [MinPlus], base: &[MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if simd::avx_available() {
        // SAFETY: AVX support was just checked; `MinPlus` is
        // `repr(transparent)` over `f64` (see `as_f64s`).
        return unsafe {
            simd::minplus_relax_init(as_f64s_mut(dst), as_f64s(base), as_f64s(src), w.0.value())
        };
    }
    scalar_relax_init(dst, base, src, w)
}

/// `dst ← dst ⊕ (w ⊙ src)`, reporting whether any column changed
/// relative to its value before the call.
#[inline]
fn relax_row_track(dst: &mut [MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if simd::avx_available() {
        // SAFETY: as in `relax_row_init`.
        return unsafe { simd::minplus_relax_track(as_f64s_mut(dst), as_f64s(src), w.0.value()) };
    }
    scalar_relax_track(dst, src, w)
}

/// Views a `MinPlus` row as its raw `f64`s. Sound because `MinPlus` and
/// `Dist` are both `repr(transparent)` single-field wrappers, so the
/// slice layouts are identical; the kernels only ever write min/add
/// results of values that were valid `Dist`s, preserving the
/// non-negative/non-NaN invariant.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn as_f64s(row: &[MinPlus]) -> &[f64] {
    // SAFETY: `MinPlus` (and its inner `Dist`) is a `repr(transparent)`
    // single-field wrapper over `f64`, so the slice layouts coincide and
    // the lifetime/length are carried over unchanged.
    unsafe { std::slice::from_raw_parts(row.as_ptr() as *const f64, row.len()) }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn as_f64s_mut(row: &mut [MinPlus]) -> &mut [f64] {
    // SAFETY: as in `as_f64s`, plus the `&mut` borrow is unique, so no
    // aliasing view exists for the reborrow's lifetime.
    unsafe { std::slice::from_raw_parts_mut(row.as_mut_ptr() as *mut f64, row.len()) }
}

/// Runtime-dispatched 256-bit AVX row kernels. Every lane computes the
/// *same* select the scalar `MinPlus` operations compute (`cmp` +
/// `blendv`, never `vminpd`, whose tie-breaking on signed zeros differs
/// from the scalar `<=` select), so the vector paths are bit-identical
/// to the scalar reference by construction — asserted lane-by-lane by
/// the unit suite, remainder lengths included. Excluded under miri
/// (the interpreter has no SIMD); the scalar fallback keeps every
/// platform correct.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod simd {
    use std::arch::x86_64::*;

    /// Whether the 256-bit kernels may run (cached by std's feature
    /// detection).
    #[inline]
    pub fn avx_available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// `dst[i] ← if dst[i] <= src[i] { dst[i] } else { src[i] }`:
    /// exactly `MinPlus::add`.
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn minplus_fold(dst: &mut [f64], src: &[f64]) {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            debug_assert_eq!(dst.len(), src.len());
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let dv = _mm256_loadu_pd(d.add(i));
                let sv = _mm256_loadu_pd(s.add(i));
                let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(dv, sv);
                _mm256_storeu_pd(d.add(i), _mm256_blendv_pd(sv, dv, keep));
                i += 4;
            }
            while i < n {
                let dv = *d.add(i);
                let sv = *s.add(i);
                *d.add(i) = if dv <= sv { dv } else { sv };
                i += 1;
            }
        }
    }

    /// `dst[i] ← min-select(base[i], src[i] + w)` — exactly
    /// `MinPlus::add ∘ MinPlus::mul` in three-address form — with fused
    /// change tracking: returns whether any lane differs from `base`
    /// (`_CMP_NEQ_UQ`; no NaN, so it is plain `!=`).
    ///
    /// # Safety
    /// AVX must be available; all three slices must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn minplus_relax_init(dst: &mut [f64], base: &[f64], src: &[f64], w: f64) -> bool {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            debug_assert!(dst.len() == base.len() && dst.len() == src.len());
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let b = base.as_ptr();
            let s = src.as_ptr();
            let wv = _mm256_set1_pd(w);
            let mut acc = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= n {
                let bv = _mm256_loadu_pd(b.add(i));
                let cand = _mm256_add_pd(_mm256_loadu_pd(s.add(i)), wv);
                let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(bv, cand);
                let out = _mm256_blendv_pd(cand, bv, keep);
                acc = _mm256_or_pd(acc, _mm256_cmp_pd::<_CMP_NEQ_UQ>(out, bv));
                _mm256_storeu_pd(d.add(i), out);
                i += 4;
            }
            let mut changed = _mm256_movemask_pd(acc) != 0;
            while i < n {
                let bv = *b.add(i);
                let cand = *s.add(i) + w;
                let out = if bv <= cand { bv } else { cand };
                changed |= out != bv;
                *d.add(i) = out;
                i += 1;
            }
            changed
        }
    }

    /// [`minplus_relax_init`] in two-address form: `dst[i] ←
    /// min-select(dst[i], src[i] + w)`, returning whether any lane moved.
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn minplus_relax_track(dst: &mut [f64], src: &[f64], w: f64) -> bool {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            debug_assert_eq!(dst.len(), src.len());
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let wv = _mm256_set1_pd(w);
            let mut acc = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= n {
                let dv = _mm256_loadu_pd(d.add(i));
                let cand = _mm256_add_pd(_mm256_loadu_pd(s.add(i)), wv);
                let moved = _mm256_cmp_pd::<_CMP_NEQ_UQ>(
                    _mm256_blendv_pd(cand, dv, _mm256_cmp_pd::<_CMP_LE_OQ>(dv, cand)),
                    dv,
                );
                acc = _mm256_or_pd(acc, moved);
                // Masked store: only lanes that actually improved are
                // written (an improved lane's new value is `cand`) — on a
                // converging hop most lanes are quiescent and the row's
                // cache lines stay clean.
                _mm256_maskstore_pd(d.add(i), _mm256_castpd_si256(moved), cand);
                i += 4;
            }
            let mut changed = _mm256_movemask_pd(acc) != 0;
            while i < n {
                let dv = *d.add(i);
                let cand = *s.add(i) + w;
                if dv > cand {
                    // (no NaN in the rows: dv > cand ⟺ !(dv <= cand))
                    *d.add(i) = cand;
                    changed = true;
                }
                i += 1;
            }
            changed
        }
    }

    /// Whole-row `f64` equality with IEEE `==` semantics (`_CMP_EQ_OQ`;
    /// the rows never hold NaN), identical to the scalar slice compare.
    ///
    /// # Safety
    /// AVX must be available.
    #[target_feature(enable = "avx")]
    pub unsafe fn f64_rows_equal(a: &[f64], b: &[f64]) -> bool {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            if a.len() != b.len() {
                return false;
            }
            let n = a.len();
            let pa = a.as_ptr();
            let pb = b.as_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(
                    _mm256_loadu_pd(pa.add(i)),
                    _mm256_loadu_pd(pb.add(i)),
                );
                if _mm256_movemask_pd(eq) != 0b1111 {
                    return false;
                }
                i += 4;
            }
            while i < n {
                if *pa.add(i) != *pb.add(i) {
                    return false;
                }
                i += 1;
            }
            true
        }
    }
}

/// `dst ← dst ⊕ src`, column by column — plain aggregation without a
/// coefficient (the oracle's ascending-λ level fold).
#[inline]
pub fn fold_row_into(dst: &mut [MinPlus], src: &[MinPlus]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if simd::avx_available() {
        // SAFETY: as in `relax_row_init`.
        unsafe { simd::minplus_fold(as_f64s_mut(dst), as_f64s(src)) };
        return;
    }
    scalar_fold(dst, src);
}

/// Row equality: exactly `a == b` on the slices, vectorized where the
/// host allows (the oracle's change detection runs this per row).
#[inline]
pub fn rows_equal(a: &[MinPlus], b: &[MinPlus]) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if simd::avx_available() {
        // SAFETY: as in `relax_row_init`.
        return unsafe { simd::f64_rows_equal(as_f64s(a), as_f64s(b)) };
    }
    a == b
}

/// The fused hot path of a dense recompute under the identity filter:
/// `dst ← base ⊕ ⊕ᵢ (wᵢ ⊙ srcᵢ)` computed tile by tile with no separate
/// copy pass and no separate compare pass, returning whether `dst`
/// differs from `base`. Columns are processed [`ROW_TILE`] at a time, all
/// source rows relaxing one tile before moving to the next, so the
/// destination tile stays hot across the whole in-neighborhood; per
/// element, the sources are folded in slice order — exactly the order
/// the untiled neighbor loop uses.
///
/// The fused changed flag is sound because `⊕ = min` is an idempotent
/// **semilattice fold**: per lane the value moves monotonically away
/// from its base and can never return, so "some pass moved some lane"
/// ⟺ `dst != base`. With `srcs` empty the row is copied verbatim
/// (`false`).
pub fn relax_rows_tracked(
    dst: &mut [MinPlus],
    base: &[MinPlus],
    srcs: &[(&[MinPlus], MinPlus)],
) -> bool {
    dense_kernel_fault(dst);
    let k = dst.len();
    debug_assert_eq!(k, base.len());
    let Some((first, rest)) = srcs.split_first() else {
        dst.copy_from_slice(base);
        return false;
    };
    let mut changed = false;
    let mut start = 0;
    while start < k {
        let end = (start + ROW_TILE).min(k);
        changed |= relax_row_init(
            &mut dst[start..end],
            &base[start..end],
            &first.0[start..end],
            first.1,
        );
        for &(src, w) in rest {
            changed |= relax_row_track(&mut dst[start..end], &src[start..end], w);
        }
        start = end;
    }
    changed
}

/// Fault-injection hook of the row kernels: a `panic` fault unwinds
/// mid-relaxation, a `poison_nan` fault corrupts the first destination
/// element before the kernel runs.
#[inline]
fn dense_kernel_fault(dst: &mut [MinPlus]) {
    match mte_faults::check_for(
        mte_faults::FaultSite::DenseRowKernel,
        &[
            mte_faults::FaultKind::Panic,
            mte_faults::FaultKind::PoisonNan,
        ],
    ) {
        Some(mte_faults::FaultKind::Panic) => {
            mte_faults::trigger_panic(mte_faults::FaultSite::DenseRowKernel)
        }
        Some(mte_faults::FaultKind::PoisonNan) => {
            if let Some(d) = dst.first_mut() {
                d.poison();
            }
        }
        _ => {}
    }
}

/// Scatters `x` into `row`, overwriting it entirely: absent coordinates
/// become `∞`.
fn write_row(x: &DistanceMap, row: &mut [MinPlus]) {
    row.fill(<MinPlus as Semiring>::zero());
    for (u, d) in x.iter() {
        row[u as usize] = MinPlus(d);
    }
}

/// Gathers the finite coordinates of `row` back into a distance map.
fn read_row(row: &[MinPlus]) -> DistanceMap {
    row.iter()
        .enumerate()
        .filter(|(_, v)| v.0.is_finite())
        .map(|(u, v)| (u as NodeId, v.0))
        .collect()
}

/// A dense-block allocation was refused: the requested matrix exceeds
/// the configured memory budget, or a simulated allocation failure was
/// injected. Recoverable — `mte_core`'s dense backend reports it as a
/// typed budget error instead of allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DenseAllocError {
    /// Bytes the refused block would have occupied.
    pub requested_bytes: u64,
    /// The budget in force, if any (`None` for an injected failure
    /// under an unlimited budget).
    pub budget_bytes: Option<u64>,
}

impl std::fmt::Display for DenseAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.budget_bytes {
            Some(b) => write!(
                f,
                "dense block allocation of {} bytes exceeds budget of {} bytes",
                self.requested_bytes, b
            ),
            None => write!(
                f,
                "dense block allocation of {} bytes failed",
                self.requested_bytes
            ),
        }
    }
}

impl std::error::Error for DenseAllocError {}

/// A whole state vector `x ∈ D^V` as one flat row-major matrix: `rows`
/// vertices × `cols` min-plus coordinates, vertex `v`'s state at
/// `values[v·cols .. (v+1)·cols]`. See the module docs for the design;
/// the engine backend lives in `mte_core::dense`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseBlock {
    rows: usize,
    cols: usize,
    values: Vec<MinPlus>,
}

impl DenseBlock {
    /// An all-`∞` block (`⊥` in every row).
    pub fn new(rows: usize, cols: usize) -> Self {
        DenseBlock {
            rows,
            cols,
            values: vec![<MinPlus as Semiring>::zero(); rows * cols],
        }
    }

    /// Bytes the value storage of a `rows × cols` block would occupy.
    #[inline]
    pub fn bytes_for(rows: usize, cols: usize) -> u64 {
        rows as u64 * cols as u64 * std::mem::size_of::<MinPlus>() as u64
    }

    /// Like [`DenseBlock::new`], but refuses to allocate past
    /// `budget_bytes` — the check `mte_core`'s dense backend runs before
    /// every block it loads, so an unaffordable run fails typed instead
    /// of overcommitting memory. An armed `alloc_fail` fault at the
    /// `dense_row_kernel` site simulates exhaustion even under no (or a
    /// large) budget; it is logged as **handled** because the caller
    /// answers with a typed error, never silent corruption.
    pub fn try_new(
        rows: usize,
        cols: usize,
        budget_bytes: Option<u64>,
    ) -> Result<Self, DenseAllocError> {
        let requested_bytes = Self::bytes_for(rows, cols);
        let over_budget = budget_bytes.is_some_and(|b| requested_bytes > b);
        let injected = mte_faults::check_handled(
            mte_faults::FaultSite::DenseRowKernel,
            &[mte_faults::FaultKind::AllocFail],
        )
        .is_some();
        if over_budget || injected {
            return Err(DenseAllocError {
                requested_bytes,
                budget_bytes,
            });
        }
        Ok(DenseBlock::new(rows, cols))
    }

    /// Builds a block from a sparse state vector (`cols` columns per
    /// row; states must not hold coordinates ≥ `cols`).
    pub fn from_states(states: &[DistanceMap], cols: usize) -> Self {
        let mut block = DenseBlock::new(states.len(), cols);
        for (v, x) in states.iter().enumerate() {
            write_row(x, block.row_mut(v as NodeId));
        }
        block
    }

    /// Budget-checked [`DenseBlock::from_states`].
    pub fn try_from_states(
        states: &[DistanceMap],
        cols: usize,
        budget_bytes: Option<u64>,
    ) -> Result<Self, DenseAllocError> {
        let mut block = DenseBlock::try_new(states.len(), cols, budget_bytes)?;
        for (v, x) in states.iter().enumerate() {
            write_row(x, block.row_mut(v as NodeId));
        }
        Ok(block)
    }

    /// Exports every row back to a distance map (bit-identical round
    /// trip; the interop/verification boundary).
    pub fn export(&self) -> Vec<DistanceMap> {
        (0..self.rows)
            .map(|v| read_row(self.row(v as NodeId)))
            .collect()
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (coordinates per state).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Vertex `v`'s row.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[MinPlus] {
        let a = v as usize * self.cols;
        &self.values[a..a + self.cols]
    }

    /// Vertex `v`'s row, mutable.
    #[inline]
    pub fn row_mut(&mut self, v: NodeId) -> &mut [MinPlus] {
        let a = v as usize * self.cols;
        &mut self.values[a..a + self.cols]
    }

    /// The whole flat value storage, mutable (the engine writes disjoint
    /// rows from parallel chunks through this).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [MinPlus] {
        &mut self.values
    }

    /// Bytes held by the block's value storage.
    pub fn bytes(&self) -> u64 {
        (self.values.len() * std::mem::size_of::<MinPlus>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;

    fn dm(pairs: &[(NodeId, f64)]) -> DistanceMap {
        pairs.iter().map(|&(v, d)| (v, Dist::new(d))).collect()
    }

    /// The untiled scalar relaxation `dst ← dst ⊕ (w ⊙ src)` — the
    /// reference the tiled and platform kernels are checked against.
    fn scalar_relax(dst: &mut [MinPlus], src: &[MinPlus], w: MinPlus) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = d.add(&s.mul(&w));
        }
    }

    #[test]
    fn distance_map_round_trips_through_dense_row() {
        let x = dm(&[(0, 0.0), (3, 2.5), (7, 9.0)]);
        let mut row = vec![<MinPlus as Semiring>::zero(); 8];
        write_row(&x, &mut row);
        assert_eq!(row[3], MinPlus::new(2.5));
        assert_eq!(row[1], <MinPlus as Semiring>::zero());
        assert_eq!(read_row(&row), x);
    }

    #[test]
    fn relax_row_matches_sparse_merge_scaled() {
        // The dense relaxation must produce bit-identical values to the
        // sparse merge kernel: same `x + w`, same `min`.
        let acc = dm(&[(1, 2.0), (3, 5.0), (7, 1.0)]);
        let other = dm(&[(1, 0.5), (2, 1.0), (7, 3.0)]);
        let k = 8;
        let mut base = vec![<MinPlus as Semiring>::zero(); k];
        let mut src = vec![<MinPlus as Semiring>::zero(); k];
        write_row(&acc, &mut base);
        write_row(&other, &mut src);
        let mut dst = vec![<MinPlus as Semiring>::zero(); k];
        assert!(relax_rows_tracked(
            &mut dst,
            &base,
            &[(&src, MinPlus::new(1.5))]
        ));

        let mut expect = acc.clone();
        expect.merge_scaled(&other, Dist::new(1.5));
        assert_eq!(read_row(&dst), expect);
    }

    #[test]
    fn fold_row_matches_merge_min() {
        let a = dm(&[(0, 1.0), (2, 4.0)]);
        let b = dm(&[(0, 0.5), (3, 2.0)]);
        let mut dst = vec![<MinPlus as Semiring>::zero(); 4];
        let mut src = vec![<MinPlus as Semiring>::zero(); 4];
        write_row(&a, &mut dst);
        write_row(&b, &mut src);
        fold_row_into(&mut dst, &src);
        let mut expect = a.clone();
        expect.merge_min(&b);
        assert_eq!(read_row(&dst), expect);
    }

    #[test]
    fn tracked_aggregation_matches_copy_relax_compare() {
        // The fused, tiled path (no copy, no compare) must reproduce the
        // untiled copy + relax + compare reference exactly: values and
        // changed flag, across source counts 0..4 and lengths that span
        // more than one tile.
        for len in [0usize, 1, 5, ROW_TILE + 37] {
            for nsrcs in 0..4usize {
                let base = minplus_row(len, 7);
                let srcs_data: Vec<Vec<MinPlus>> = (0..nsrcs)
                    .map(|i| minplus_row(len, 31 + i as u64))
                    .collect();
                let srcs: Vec<(&[MinPlus], MinPlus)> = srcs_data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.as_slice(), MinPlus::new(i as f64 + 0.5)))
                    .collect();

                let mut reference = base.clone();
                for &(src, w) in &srcs {
                    scalar_relax(&mut reference, src, w);
                }
                let ref_changed = reference != base;

                let mut fused = vec![<MinPlus as Semiring>::zero(); len];
                let fused_changed = relax_rows_tracked(&mut fused, &base, &srcs);
                assert_eq!(fused, reference, "len={len} nsrcs={nsrcs}");
                assert_eq!(fused_changed, ref_changed, "len={len} nsrcs={nsrcs}");
            }
        }
    }

    #[test]
    fn tiled_aggregation_is_bit_identical_to_untiled() {
        // k > ROW_TILE so tiling actually splits; fold order per element
        // must match the plain untiled neighbor loop.
        let k = ROW_TILE + 37;
        let srcs_data: Vec<Vec<MinPlus>> = (0..3)
            .map(|s| {
                (0..k)
                    .map(|i| {
                        if (i + s) % 3 == 0 {
                            MinPlus::new(((i * 7 + s * 11) % 100) as f64)
                        } else {
                            <MinPlus as Semiring>::zero()
                        }
                    })
                    .collect()
            })
            .collect();
        let weights = [MinPlus::new(1.0), MinPlus::new(2.5), MinPlus::new(0.25)];
        let srcs: Vec<(&[MinPlus], MinPlus)> = srcs_data
            .iter()
            .zip(weights)
            .map(|(s, w)| (s.as_slice(), w))
            .collect();
        let base = vec![<MinPlus as Semiring>::zero(); k];
        let mut tiled = vec![<MinPlus as Semiring>::zero(); k];
        relax_rows_tracked(&mut tiled, &base, &srcs);

        let mut plain = base.clone();
        for &(src, w) in &srcs {
            scalar_relax(&mut plain, src, w);
        }
        assert_eq!(tiled, plain);
    }

    #[test]
    fn block_from_states_and_export_round_trip() {
        let states = vec![dm(&[(0, 0.0), (2, 3.0)]), dm(&[]), dm(&[(1, 1.5)])];
        let block = DenseBlock::from_states(&states, 3);
        assert_eq!(block.rows(), 3);
        assert_eq!(block.cols(), 3);
        assert_eq!(block.row(0)[2], MinPlus::new(3.0));
        assert_eq!(block.bytes(), (9 * std::mem::size_of::<MinPlus>()) as u64);
        assert_eq!(block.export(), states);
    }

    /// Deterministic pseudo-random rows mixing finite values, zeros,
    /// and `∞`, at lengths covering the 4-lane SIMD remainder.
    fn minplus_row(len: usize, salt: u64) -> Vec<MinPlus> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(salt | 1)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                match h % 5 {
                    0 => MinPlus(Dist::INF),
                    1 => MinPlus::new(0.0),
                    _ => MinPlus::new(((h >> 16) % 1000) as f64 / 8.0),
                }
            })
            .collect()
    }

    #[test]
    fn platform_kernels_bit_identical_to_scalar_reference() {
        // The AVX kernels (when the host dispatches them) must agree
        // with the scalar loops lane for lane, remainders included.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 31, 257] {
            for salt in [1u64, 99, 12345] {
                let src = minplus_row(len, salt);
                let dst0 = minplus_row(len, salt ^ 0xABCD);
                let w = MinPlus::new(1.5);

                let mut scalar = dst0.clone();
                scalar_fold(&mut scalar, &src);
                let mut platform = dst0.clone();
                fold_row_into(&mut platform, &src);
                assert_eq!(scalar, platform, "fold len={len} salt={salt}");

                // Fused init/track kernels: values and changed flags.
                let mut scalar = vec![<MinPlus as Semiring>::zero(); len];
                let sc = scalar_relax_init(&mut scalar, &dst0, &src, w);
                let mut platform = vec![<MinPlus as Semiring>::zero(); len];
                let pc = relax_row_init(&mut platform, &dst0, &src, w);
                assert_eq!(scalar, platform, "init len={len} salt={salt}");
                assert_eq!(sc, pc, "init flag len={len} salt={salt}");
                let mut scalar = dst0.clone();
                let sc = scalar_relax_track(&mut scalar, &src, w);
                let mut platform = dst0.clone();
                let pc = relax_row_track(&mut platform, &src, w);
                assert_eq!(scalar, platform, "track len={len} salt={salt}");
                assert_eq!(sc, pc, "track flag len={len} salt={salt}");

                // Equality kernel: equal rows, a mutated row (every
                // position), and length mismatches.
                assert!(rows_equal(&dst0, &dst0.clone()));
                for flip in 0..len {
                    let mut other = dst0.clone();
                    other[flip] = MinPlus::new(123456.0);
                    assert_eq!(
                        rows_equal(&dst0, &other),
                        dst0 == other.as_slice(),
                        "eq len={len} flip={flip}"
                    );
                }
                if len > 0 {
                    assert!(!rows_equal(&dst0, &dst0[..len - 1]));
                }
            }
        }
    }
}
