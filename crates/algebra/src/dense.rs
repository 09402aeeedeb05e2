//! Dense semiring blocks: flat row-major state matrices for APSP-class
//! workloads.
//!
//! # The algebraic view, taken literally
//!
//! The paper's framing (Sections 2.3–2.4) is that an MBF-like iteration
//! *is* a semiring matrix-(semimodule-)vector product: the state vector
//! `x ∈ M^V` is multiplied by the adjacency SLF `A`, component-wise
//! `(Ax)_v = ⊕_w a_vw ⊙ x_w`. The sparse [`crate::DistanceMap`]
//! representation serves the regime the complexity story targets —
//! filtered states of size `O(log n)` (Lemma 7.6) — but APSP-class
//! states (`SourceDetection::apsp`, all-pairs connectivity, metric-like
//! FRT inputs) converge towards **full** rows: `|x_v| → n`. There the
//! sorted-merge kernels pay branch mispredictions, per-entry key
//! comparisons, and scratch ping-pong for entries that are *all present
//! anyway*, and the semimodule `M = D ≅ S^V` is better stored as what
//! it is: one row of `n` semiring elements per vertex, the whole vector
//! a flat `n × k` matrix.
//!
//! [`DenseBlock`] is that matrix: row-major `Vec<S>`, vertex `v`'s
//! state at `values[v·k .. (v+1)·k]`, absent coordinates holding the
//! semiring zero (`∞` for min-plus, `0` for max-min, `false` for
//! Boolean). The row kernels implement the semimodule operations as
//! contiguous loops:
//!
//! * [`relax_row_into`] — `dst ← dst ⊕ (w ⊙ src)` per column: for
//!   min-plus one fused `x + w` / `min` pair per element,
//!   auto-vectorizable, no branches, no allocation;
//! * [`relax_rows_into`] — the same over many source rows,
//!   **cache-tiled** ([`ROW_TILE`] columns at a time) so for large `k`
//!   the destination tile stays in L1 while the source rows stream;
//! * [`fold_row_into`] — plain aggregation `dst ← dst ⊕ src` (the
//!   oracle's level fold `⊕_λ P_λ y_λ`).
//!
//! # Bit-identity with the sparse backends
//!
//! Every value a dense kernel produces is computed by the *same*
//! scalar operations as the sparse merge kernels: one `⊙` with the edge
//! coefficient and a fold of `⊕` over the incoming values. For min-plus
//! each entry is a single `x + w` and `⊕ = min` over `f64` is
//! idempotent, commutative, and associative — order-independent — so
//! dense results are **bit-identical to the owned/arena paths by
//! construction**, which makes differential testing exact (asserted by
//! `tests/schedule_equivalence.rs`). The tiled kernel visits, per
//! element, the source rows in exactly the same order as the untiled
//! loop, so even non-commutative folds would agree.
//!
//! [`DenseState`] bridges the sparse semimodules to their dense rows
//! ([`crate::DistanceMap`] ↔ `[MinPlus]`, [`crate::WidthMap`] ↔
//! `[Width]`, [`crate::NodeSet`] ↔ `[Bool]`): `write_dense` scatters
//! the non-zero coordinates, `read_dense` gathers them back in node
//! order — a lossless round trip because both representations are
//! canonical for the same function `V → S`.

use crate::boolean::Bool;
use crate::distance_map::DistanceMap;
use crate::maxmin::Width;
use crate::minplus::MinPlus;
use crate::node_set::NodeSet;
use crate::semimodule::Semimodule;
use crate::semiring::Semiring;
use crate::width_map::WidthMap;
use crate::NodeId;

/// Columns per cache tile of [`relax_rows_into`]: 1024 elements keep a
/// destination tile of `f64`-sized semiring values (8 KiB) resident in
/// L1 while the source rows stream through.
pub const ROW_TILE: usize = 1024;

/// The row-kernel hooks of a dense-representable semiring scalar: a
/// scalar reference implementation plus optional platform-tuned
/// overrides. An override **must** be bit-identical to the scalar
/// default — the engines treat the two as interchangeable, and the unit
/// suite differential-tests every override against the default on rows
/// covering the SIMD remainder lanes. `MinPlus` and `Width` override
/// with runtime-dispatched 256-bit AVX kernels (their `f64`-transparent
/// layout makes a row of wrapped values a plain `[f64]`); `Bool` keeps
/// the scalar loops.
pub trait DenseKernel: Semiring + Copy {
    /// `dst ← dst ⊕ (w ⊙ src)`, column by column — one MBF-like
    /// relaxation of a whole dense row.
    #[inline]
    fn relax_row(dst: &mut [Self], src: &[Self], w: Self) {
        scalar_relax(dst, src, w);
    }

    /// `dst ← dst ⊕ src`, column by column — plain aggregation without
    /// a coefficient (the oracle's ascending-λ level fold).
    #[inline]
    fn fold_row(dst: &mut [Self], src: &[Self]) {
        scalar_fold(dst, src);
    }

    /// Row equality: must return exactly `a == b` on the slices (the
    /// engines' change detection compares whole rows).
    #[inline]
    fn rows_equal(a: &[Self], b: &[Self]) -> bool {
        a == b
    }

    /// Three-address relaxation `dst ← base ⊕ (w ⊙ src)`, returning
    /// whether any column of `dst` differs from `base` — the fused
    /// initialize-and-track pass of [`relax_rows_tracked`] (no separate
    /// copy, no separate compare).
    #[inline]
    fn relax_row_init(dst: &mut [Self], base: &[Self], src: &[Self], w: Self) -> bool {
        scalar_relax_init(dst, base, src, w)
    }

    /// [`DenseKernel::relax_row`] that additionally reports whether any
    /// column changed relative to its value before the call.
    #[inline]
    fn relax_row_track(dst: &mut [Self], src: &[Self], w: Self) -> bool {
        scalar_relax_track(dst, src, w)
    }
}

/// The scalar relaxation loop — the reference every platform kernel is
/// differential-tested against.
#[inline]
fn scalar_relax<S: Semiring + Copy>(dst: &mut [S], src: &[S], w: S) {
    debug_assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.add(&s.mul(&w));
    }
}

/// The scalar aggregation loop (cf. [`scalar_relax`]).
#[inline]
fn scalar_fold<S: Semiring + Copy>(dst: &mut [S], src: &[S]) {
    debug_assert_eq!(dst.len(), src.len(), "row length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.add(s);
    }
}

/// The scalar three-address initialize-and-track loop (cf.
/// [`scalar_relax`]).
#[inline]
fn scalar_relax_init<S: Semiring + Copy>(dst: &mut [S], base: &[S], src: &[S], w: S) -> bool {
    debug_assert!(dst.len() == base.len() && dst.len() == src.len());
    let mut changed = false;
    for ((d, b), s) in dst.iter_mut().zip(base).zip(src) {
        let out = b.add(&s.mul(&w));
        changed |= out != *b;
        *d = out;
    }
    changed
}

/// The scalar tracked-relaxation loop (cf. [`scalar_relax`]).
#[inline]
fn scalar_relax_track<S: Semiring + Copy>(dst: &mut [S], src: &[S], w: S) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let out = d.add(&s.mul(&w));
        changed |= out != *d;
        *d = out;
    }
    changed
}

impl DenseKernel for Bool {}

impl DenseKernel for MinPlus {
    #[inline]
    fn relax_row(dst: &mut [MinPlus], src: &[MinPlus], w: MinPlus) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: AVX support was just checked; `MinPlus` is
            // `repr(transparent)` over `f64` (see `as_f64s`).
            unsafe { simd::minplus_relax(as_f64s_mut(dst), as_f64s(src), w.0.value()) };
            return;
        }
        scalar_relax(dst, src, w);
    }

    #[inline]
    fn fold_row(dst: &mut [MinPlus], src: &[MinPlus]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            unsafe { simd::minplus_fold(as_f64s_mut(dst), as_f64s(src)) };
            return;
        }
        scalar_fold(dst, src);
    }

    #[inline]
    fn rows_equal(a: &[MinPlus], b: &[MinPlus]) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe { simd::f64_rows_equal(as_f64s(a), as_f64s(b)) };
        }
        a == b
    }

    #[inline]
    fn relax_row_init(dst: &mut [MinPlus], base: &[MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe {
                simd::minplus_relax_init(as_f64s_mut(dst), as_f64s(base), as_f64s(src), w.0.value())
            };
        }
        scalar_relax_init(dst, base, src, w)
    }

    #[inline]
    fn relax_row_track(dst: &mut [MinPlus], src: &[MinPlus], w: MinPlus) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe {
                simd::minplus_relax_track(as_f64s_mut(dst), as_f64s(src), w.0.value())
            };
        }
        scalar_relax_track(dst, src, w)
    }
}

impl DenseKernel for Width {
    #[inline]
    fn relax_row(dst: &mut [Width], src: &[Width], w: Width) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: AVX support was just checked; `Width` is
            // `repr(transparent)` over `f64` (see `as_f64s`).
            unsafe { simd::maxmin_relax(width_f64s_mut(dst), width_f64s(src), w.0.value()) };
            return;
        }
        scalar_relax(dst, src, w);
    }

    #[inline]
    fn fold_row(dst: &mut [Width], src: &[Width]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            unsafe { simd::maxmin_fold(width_f64s_mut(dst), width_f64s(src)) };
            return;
        }
        scalar_fold(dst, src);
    }

    #[inline]
    fn rows_equal(a: &[Width], b: &[Width]) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe { simd::f64_rows_equal(width_f64s(a), width_f64s(b)) };
        }
        a == b
    }

    #[inline]
    fn relax_row_init(dst: &mut [Width], base: &[Width], src: &[Width], w: Width) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe {
                simd::maxmin_relax_init(
                    width_f64s_mut(dst),
                    width_f64s(base),
                    width_f64s(src),
                    w.0.value(),
                )
            };
        }
        scalar_relax_init(dst, base, src, w)
    }

    #[inline]
    fn relax_row_track(dst: &mut [Width], src: &[Width], w: Width) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::avx_available() {
            // SAFETY: as in `relax_row`.
            return unsafe {
                simd::maxmin_relax_track(width_f64s_mut(dst), width_f64s(src), w.0.value())
            };
        }
        scalar_relax_track(dst, src, w)
    }
}

/// Views a `MinPlus` row as its raw `f64`s. Sound because `MinPlus` and
/// `Dist` are both `repr(transparent)` single-field wrappers, so the
/// slice layouts are identical; the kernels only ever write min/add/max
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

/// The `Width` counterpart of [`as_f64s`] (same layout argument).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn width_f64s(row: &[Width]) -> &[f64] {
    // SAFETY: `Width` (and its inner `Dist`) is a `repr(transparent)`
    // single-field wrapper over `f64`, so the slice layouts coincide and
    // the lifetime/length are carried over unchanged.
    unsafe { std::slice::from_raw_parts(row.as_ptr() as *const f64, row.len()) }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn width_f64s_mut(row: &mut [Width]) -> &mut [f64] {
    // SAFETY: as in `width_f64s`, plus the `&mut` borrow is unique, so
    // no aliasing view exists for the reborrow's lifetime.
    unsafe { std::slice::from_raw_parts_mut(row.as_mut_ptr() as *mut f64, row.len()) }
}

/// Runtime-dispatched 256-bit AVX row kernels. Every lane computes the
/// *same* select the scalar wrappers compute (`cmp` + `blendv`, never
/// `vminpd`/`vmaxpd`, whose tie-breaking on signed zeros differs from
/// the scalar `<=`/`>=` selects), so the vector paths are bit-identical
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

    /// `dst[i] ← if dst[i] <= cand { dst[i] } else { cand }` with
    /// `cand = src[i] + w`: exactly `MinPlus::add ∘ MinPlus::mul`.
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn minplus_relax(dst: &mut [f64], src: &[f64], w: f64) {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            debug_assert_eq!(dst.len(), src.len());
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let wv = _mm256_set1_pd(w);
            let mut i = 0;
            while i + 4 <= n {
                let dv = _mm256_loadu_pd(d.add(i));
                let cand = _mm256_add_pd(_mm256_loadu_pd(s.add(i)), wv);
                // keep dst where dst <= cand — the `Dist::min` select.
                let keep = _mm256_cmp_pd::<_CMP_LE_OQ>(dv, cand);
                _mm256_storeu_pd(d.add(i), _mm256_blendv_pd(cand, dv, keep));
                i += 4;
            }
            while i < n {
                let cand = *s.add(i) + w;
                let dv = *d.add(i);
                *d.add(i) = if dv <= cand { dv } else { cand };
                i += 1;
            }
        }
    }

    /// [`minplus_relax`] without the coefficient: `dst[i] ←
    /// min-select(dst[i], src[i])`.
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

    /// `dst[i] ← max-select(dst[i], min-select(src[i], w))`: exactly
    /// `Width::add ∘ Width::mul` (`⊕ = max`, `⊙ = min`).
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn maxmin_relax(dst: &mut [f64], src: &[f64], w: f64) {
        // SAFETY: the caller guarantees AVX support and the slice-length
        // contract in the doc comment; every pointer below is derived from
        // one of the argument slices and offset by an index < its length.
        unsafe {
            debug_assert_eq!(dst.len(), src.len());
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let wv = _mm256_set1_pd(w);
            let mut i = 0;
            while i + 4 <= n {
                let dv = _mm256_loadu_pd(d.add(i));
                let sv = _mm256_loadu_pd(s.add(i));
                // cand = if src <= w { src } else { w } — the `Dist::min`
                // select of `Width::mul`.
                let keep_s = _mm256_cmp_pd::<_CMP_LE_OQ>(sv, wv);
                let cand = _mm256_blendv_pd(wv, sv, keep_s);
                // out = if dst >= cand { dst } else { cand } — `Dist::max`.
                let keep_d = _mm256_cmp_pd::<_CMP_GE_OQ>(dv, cand);
                _mm256_storeu_pd(d.add(i), _mm256_blendv_pd(cand, dv, keep_d));
                i += 4;
            }
            while i < n {
                let sv = *s.add(i);
                let cand = if sv <= w { sv } else { w };
                let dv = *d.add(i);
                *d.add(i) = if dv >= cand { dv } else { cand };
                i += 1;
            }
        }
    }

    /// [`maxmin_relax`] without the coefficient: `dst[i] ←
    /// max-select(dst[i], src[i])`.
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn maxmin_fold(dst: &mut [f64], src: &[f64]) {
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
                let keep = _mm256_cmp_pd::<_CMP_GE_OQ>(dv, sv);
                _mm256_storeu_pd(d.add(i), _mm256_blendv_pd(sv, dv, keep));
                i += 4;
            }
            while i < n {
                let dv = *d.add(i);
                let sv = *s.add(i);
                *d.add(i) = if dv >= sv { dv } else { sv };
                i += 1;
            }
        }
    }

    /// [`minplus_relax`] in three-address form with fused change
    /// tracking: `dst[i] ← min-select(base[i], src[i] + w)`, returning
    /// whether any lane differs from `base` (`_CMP_NEQ_UQ`; no NaN, so
    /// it is plain `!=`).
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

    /// [`minplus_relax`] with fused change tracking (cf.
    /// [`minplus_relax_init`], two-address form).
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

    /// [`maxmin_relax`] in three-address form with fused change
    /// tracking (cf. [`minplus_relax_init`]).
    ///
    /// # Safety
    /// AVX must be available; all three slices must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn maxmin_relax_init(dst: &mut [f64], base: &[f64], src: &[f64], w: f64) -> bool {
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
                let sv = _mm256_loadu_pd(s.add(i));
                let keep_s = _mm256_cmp_pd::<_CMP_LE_OQ>(sv, wv);
                let cand = _mm256_blendv_pd(wv, sv, keep_s);
                let keep_b = _mm256_cmp_pd::<_CMP_GE_OQ>(bv, cand);
                let out = _mm256_blendv_pd(cand, bv, keep_b);
                acc = _mm256_or_pd(acc, _mm256_cmp_pd::<_CMP_NEQ_UQ>(out, bv));
                _mm256_storeu_pd(d.add(i), out);
                i += 4;
            }
            let mut changed = _mm256_movemask_pd(acc) != 0;
            while i < n {
                let sv = *s.add(i);
                let cand = if sv <= w { sv } else { w };
                let bv = *b.add(i);
                let out = if bv >= cand { bv } else { cand };
                changed |= out != bv;
                *d.add(i) = out;
                i += 1;
            }
            changed
        }
    }

    /// [`maxmin_relax`] with fused change tracking (two-address form).
    ///
    /// # Safety
    /// AVX must be available; `dst` and `src` must have equal length.
    #[target_feature(enable = "avx")]
    pub unsafe fn maxmin_relax_track(dst: &mut [f64], src: &[f64], w: f64) -> bool {
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
                let sv = _mm256_loadu_pd(s.add(i));
                let keep_s = _mm256_cmp_pd::<_CMP_LE_OQ>(sv, wv);
                let cand = _mm256_blendv_pd(wv, sv, keep_s);
                let keep_d = _mm256_cmp_pd::<_CMP_GE_OQ>(dv, cand);
                let moved = _mm256_cmp_pd::<_CMP_NEQ_UQ>(_mm256_blendv_pd(cand, dv, keep_d), dv);
                acc = _mm256_or_pd(acc, moved);
                // Masked store (cf. `minplus_relax_track`): a moved lane's
                // new value is `cand`; quiescent lanes stay unwritten.
                _mm256_maskstore_pd(d.add(i), _mm256_castpd_si256(moved), cand);
                i += 4;
            }
            let mut changed = _mm256_movemask_pd(acc) != 0;
            while i < n {
                let sv = *s.add(i);
                let cand = if sv <= w { sv } else { w };
                let dv = *d.add(i);
                if dv < cand {
                    // (no NaN in the rows: dv < cand ⟺ !(dv >= cand))
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

/// `dst ← dst ⊕ (w ⊙ src)`, column by column — one MBF-like relaxation
/// of a whole dense row through the scalar's [`DenseKernel`] (the AVX
/// fast path for min-plus and max-min, the scalar loop otherwise); the
/// scalar operations are exactly those of the sparse merge kernels, so
/// the results are bit-identical.
#[inline]
pub fn relax_row_into<S: DenseKernel>(dst: &mut [S], src: &[S], w: S) {
    S::relax_row(dst, src, w);
}

/// `dst ← dst ⊕ src`, column by column — plain aggregation without a
/// coefficient (the oracle's ascending-λ level fold).
#[inline]
pub fn fold_row_into<S: DenseKernel>(dst: &mut [S], src: &[S]) {
    S::fold_row(dst, src);
}

/// Row equality through the scalar's [`DenseKernel`]: exactly `a == b`,
/// vectorized where the scalar provides it (the engines' change
/// detection runs this per touched row).
#[inline]
pub fn rows_equal<S: DenseKernel>(a: &[S], b: &[S]) -> bool {
    S::rows_equal(a, b)
}

/// Aggregates many source rows into `dst`, cache-tiled: columns are
/// processed [`ROW_TILE`] at a time, all source rows relaxing one tile
/// before moving to the next, so the destination tile stays hot across
/// the whole in-neighborhood. Per element, the sources are folded in
/// slice order — exactly the order the untiled neighbor loop uses — so
/// tiling never changes a result, even for non-commutative folds.
pub fn relax_rows_into<S: DenseKernel>(dst: &mut [S], srcs: &[(&[S], S)]) {
    dense_kernel_fault(dst);
    let k = dst.len();
    let mut start = 0;
    while start < k {
        let end = (start + ROW_TILE).min(k);
        for &(src, w) in srcs {
            S::relax_row(&mut dst[start..end], &src[start..end], w);
        }
        start = end;
    }
}

/// The fused hot path of a dense recompute under an **identity
/// filter**: `dst ← base ⊕ ⊕ᵢ (wᵢ ⊙ srcᵢ)` computed tile by tile with
/// no separate copy pass and no separate compare pass, returning
/// whether `dst` differs from `base` — bit-identical (result *and*
/// changed flag) to copy + [`relax_rows_into`] + [`rows_equal`].
///
/// The fused changed flag is sound because every [`DenseKernel`]
/// scalar's `⊕` is an idempotent **semilattice fold** (min, max, or):
/// per lane the value moves monotonically away from its base and can
/// never return, so "some pass moved some lane" ⟺ `dst != base`. With
/// `srcs` empty the row is copied verbatim (`false`).
pub fn relax_rows_tracked<S: DenseKernel>(dst: &mut [S], base: &[S], srcs: &[(&[S], S)]) -> bool {
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
        changed |= S::relax_row_init(
            &mut dst[start..end],
            &base[start..end],
            &first.0[start..end],
            first.1,
        );
        for &(src, w) in rest {
            changed |= S::relax_row_track(&mut dst[start..end], &src[start..end], w);
        }
        start = end;
    }
    changed
}

/// Fault-injection hook shared by the row kernels: a `panic` fault
/// unwinds mid-relaxation, a `poison_nan` fault corrupts the first
/// destination element before the kernel runs.
#[inline]
fn dense_kernel_fault<S: Semiring>(dst: &mut [S]) {
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

/// A semimodule state that admits a dense row representation over the
/// columns `0..k` (node ids): coordinate `u` of the state lives at
/// column `u`, absent coordinates hold the semiring zero. The round
/// trip `read_dense(write_dense(x)) = x` is exact — both
/// representations are canonical for the same function `V → S`.
pub trait DenseState<S: Semiring + Copy>: Semimodule<S> {
    /// Scatters the state into `row` (overwriting it entirely: absent
    /// coordinates are set to the semiring zero).
    fn write_dense(&self, row: &mut [S]);

    /// Gathers the non-zero coordinates of `row` back into the sparse
    /// representation.
    fn read_dense(row: &[S]) -> Self;
}

impl DenseState<MinPlus> for DistanceMap {
    fn write_dense(&self, row: &mut [MinPlus]) {
        row.fill(<MinPlus as Semiring>::zero());
        for (u, d) in self.iter() {
            row[u as usize] = MinPlus(d);
        }
    }

    fn read_dense(row: &[MinPlus]) -> Self {
        row.iter()
            .enumerate()
            .filter(|(_, v)| v.0.is_finite())
            .map(|(u, v)| (u as NodeId, v.0))
            .collect()
    }
}

impl DenseState<Width> for WidthMap {
    fn write_dense(&self, row: &mut [Width]) {
        row.fill(<Width as Semiring>::zero());
        for (u, w) in self.iter() {
            row[u as usize] = w;
        }
    }

    fn read_dense(row: &[Width]) -> Self {
        WidthMap::from_entries(
            row.iter()
                .enumerate()
                .filter(|(_, v)| !Semiring::is_zero(*v))
                .map(|(u, &v)| (u as NodeId, v))
                .collect(),
        )
    }
}

impl DenseState<Bool> for NodeSet {
    fn write_dense(&self, row: &mut [Bool]) {
        row.fill(Bool(false));
        for &u in self.nodes() {
            row[u as usize] = Bool(true);
        }
    }

    fn read_dense(row: &[Bool]) -> Self {
        NodeSet::from_nodes(
            row.iter()
                .enumerate()
                .filter(|(_, v)| v.0)
                .map(|(u, _)| u as NodeId)
                .collect(),
        )
    }
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

/// A whole state vector `x ∈ M^V` as one flat row-major matrix: `rows`
/// vertices × `cols` coordinates of semiring values, vertex `v`'s state
/// at `values[v·cols .. (v+1)·cols]`. See the module docs for the
/// design; the engine backend lives in `mte_core::dense`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseBlock<S> {
    rows: usize,
    cols: usize,
    values: Vec<S>,
}

impl<S: Semiring + Copy> DenseBlock<S> {
    /// An all-zero block (`⊥` in every row).
    pub fn new(rows: usize, cols: usize) -> Self {
        DenseBlock {
            rows,
            cols,
            values: vec![<S as Semiring>::zero(); rows * cols],
        }
    }

    /// Bytes the value storage of a `rows × cols` block would occupy.
    #[inline]
    pub fn bytes_for(rows: usize, cols: usize) -> u64 {
        rows as u64 * cols as u64 * std::mem::size_of::<S>() as u64
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
    pub fn from_states<M: DenseState<S>>(states: &[M], cols: usize) -> Self {
        let mut block = DenseBlock::new(states.len(), cols);
        for (v, x) in states.iter().enumerate() {
            x.write_dense(block.row_mut(v as NodeId));
        }
        block
    }

    /// Budget-checked [`DenseBlock::from_states`].
    pub fn try_from_states<M: DenseState<S>>(
        states: &[M],
        cols: usize,
        budget_bytes: Option<u64>,
    ) -> Result<Self, DenseAllocError> {
        let mut block = DenseBlock::try_new(states.len(), cols, budget_bytes)?;
        for (v, x) in states.iter().enumerate() {
            x.write_dense(block.row_mut(v as NodeId));
        }
        Ok(block)
    }

    /// Exports every row back to the sparse representation
    /// (bit-identical round trip; the interop/verification boundary).
    pub fn export<M: DenseState<S>>(&self) -> Vec<M> {
        (0..self.rows)
            .map(|v| M::read_dense(self.row(v as NodeId)))
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
    pub fn row(&self, v: NodeId) -> &[S] {
        let a = v as usize * self.cols;
        &self.values[a..a + self.cols]
    }

    /// Vertex `v`'s row, mutable.
    #[inline]
    pub fn row_mut(&mut self, v: NodeId) -> &mut [S] {
        let a = v as usize * self.cols;
        &mut self.values[a..a + self.cols]
    }

    /// Overwrites vertex `v`'s row from a sparse state.
    pub fn set_row<M: DenseState<S>>(&mut self, v: NodeId, state: &M) {
        state.write_dense(self.row_mut(v));
    }

    /// The whole flat value storage (row-major).
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// The whole flat value storage, mutable (the engine writes disjoint
    /// rows from parallel chunks through this).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.values
    }

    /// Bytes held by the block's value storage.
    pub fn bytes(&self) -> u64 {
        (self.values.len() * std::mem::size_of::<S>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;

    fn dm(pairs: &[(NodeId, f64)]) -> DistanceMap {
        pairs.iter().map(|&(v, d)| (v, Dist::new(d))).collect()
    }

    #[test]
    fn distance_map_round_trips_through_dense_row() {
        let x = dm(&[(0, 0.0), (3, 2.5), (7, 9.0)]);
        let mut row = vec![<MinPlus as Semiring>::zero(); 8];
        x.write_dense(&mut row);
        assert_eq!(row[3], MinPlus::new(2.5));
        assert_eq!(row[1], <MinPlus as Semiring>::zero());
        assert_eq!(DistanceMap::read_dense(&row), x);
    }

    #[test]
    fn width_map_and_node_set_round_trip() {
        let w = WidthMap::from_entries(vec![(1, Width::new(2.0)), (4, Width::INF)]);
        let mut row = vec![<Width as Semiring>::zero(); 6];
        w.write_dense(&mut row);
        assert_eq!(WidthMap::read_dense(&row), w);

        let s = NodeSet::from_nodes(vec![0, 2, 5]);
        let mut row = vec![Bool(false); 6];
        s.write_dense(&mut row);
        assert_eq!(NodeSet::read_dense(&row), s);
    }

    #[test]
    fn relax_row_matches_sparse_merge_scaled() {
        // The dense relaxation must produce bit-identical values to the
        // sparse merge kernel: same `x + w`, same `min`.
        let acc = dm(&[(1, 2.0), (3, 5.0), (7, 1.0)]);
        let other = dm(&[(1, 0.5), (2, 1.0), (7, 3.0)]);
        let k = 8;
        let mut dst = vec![<MinPlus as Semiring>::zero(); k];
        let mut src = vec![<MinPlus as Semiring>::zero(); k];
        acc.write_dense(&mut dst);
        other.write_dense(&mut src);
        relax_row_into(&mut dst, &src, MinPlus::new(1.5));

        let mut expect = acc.clone();
        expect.merge_scaled(&other, Dist::new(1.5));
        assert_eq!(DistanceMap::read_dense(&dst), expect);
    }

    #[test]
    fn fold_row_matches_merge_min() {
        let a = dm(&[(0, 1.0), (2, 4.0)]);
        let b = dm(&[(0, 0.5), (3, 2.0)]);
        let mut dst = vec![<MinPlus as Semiring>::zero(); 4];
        let mut src = vec![<MinPlus as Semiring>::zero(); 4];
        a.write_dense(&mut dst);
        b.write_dense(&mut src);
        fold_row_into(&mut dst, &src);
        let mut expect = a.clone();
        expect.merge_min(&b);
        assert_eq!(DistanceMap::read_dense(&dst), expect);
    }

    #[test]
    fn tracked_aggregation_matches_copy_relax_compare() {
        // The fused path (no copy, no compare) must reproduce the
        // reference pipeline exactly: values and changed flag, across
        // source counts 0..4 and tile-spanning lengths.
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

                let mut reference = vec![<MinPlus as Semiring>::zero(); len];
                reference.copy_from_slice(&base);
                relax_rows_into(&mut reference, &srcs);
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
        // must match the plain neighbor loop.
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
        let mut tiled = vec![<MinPlus as Semiring>::zero(); k];
        let srcs: Vec<(&[MinPlus], MinPlus)> = srcs_data
            .iter()
            .zip(weights)
            .map(|(s, w)| (s.as_slice(), w))
            .collect();
        relax_rows_into(&mut tiled, &srcs);

        let mut plain = vec![<MinPlus as Semiring>::zero(); k];
        for &(src, w) in &srcs {
            relax_row_into(&mut plain, src, w);
        }
        assert_eq!(tiled, plain);
    }

    #[test]
    fn relax_over_maxmin_is_widest_path_step() {
        // dst ← max(dst, min(src, w)): bottleneck relaxation.
        let mut dst = vec![Width::new(1.0), <Width as Semiring>::zero()];
        let src = vec![Width::INF, Width::new(5.0)];
        relax_row_into(&mut dst, &src, Width::new(3.0));
        assert_eq!(dst, vec![Width::new(3.0), Width::new(3.0)]);
    }

    #[test]
    fn block_from_states_and_export_round_trip() {
        let states = vec![dm(&[(0, 0.0), (2, 3.0)]), dm(&[]), dm(&[(1, 1.5)])];
        let block = DenseBlock::<MinPlus>::from_states(&states, 3);
        assert_eq!(block.rows(), 3);
        assert_eq!(block.cols(), 3);
        assert_eq!(block.row(0)[2], MinPlus::new(3.0));
        assert_eq!(block.bytes(), (9 * std::mem::size_of::<MinPlus>()) as u64);
        let back: Vec<DistanceMap> = block.export();
        assert_eq!(back, states);
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
        // The AVX overrides (when the host dispatches them) must agree
        // with the scalar loops lane for lane, remainders included.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 31, 257] {
            for salt in [1u64, 99, 12345] {
                let src = minplus_row(len, salt);
                let dst0 = minplus_row(len, salt ^ 0xABCD);
                let w = MinPlus::new(1.5);

                let mut scalar = dst0.clone();
                scalar_relax(&mut scalar, &src, w);
                let mut platform = dst0.clone();
                MinPlus::relax_row(&mut platform, &src, w);
                assert_eq!(scalar, platform, "relax len={len} salt={salt}");

                let mut scalar = dst0.clone();
                scalar_fold(&mut scalar, &src);
                let mut platform = dst0.clone();
                MinPlus::fold_row(&mut platform, &src);
                assert_eq!(scalar, platform, "fold len={len} salt={salt}");

                // Fused init/track kernels: values and changed flags.
                let mut scalar = vec![<MinPlus as Semiring>::zero(); len];
                let sc = scalar_relax_init(&mut scalar, &dst0, &src, w);
                let mut platform = vec![<MinPlus as Semiring>::zero(); len];
                let pc = MinPlus::relax_row_init(&mut platform, &dst0, &src, w);
                assert_eq!(scalar, platform, "init len={len} salt={salt}");
                assert_eq!(sc, pc, "init flag len={len} salt={salt}");
                let mut scalar = dst0.clone();
                let sc = scalar_relax_track(&mut scalar, &src, w);
                let mut platform = dst0.clone();
                let pc = MinPlus::relax_row_track(&mut platform, &src, w);
                assert_eq!(scalar, platform, "track len={len} salt={salt}");
                assert_eq!(sc, pc, "track flag len={len} salt={salt}");

                // Width init/track too.
                {
                    let wsrc: Vec<Width> = src.iter().map(|m| Width(m.0)).collect();
                    let wdst0: Vec<Width> = dst0.iter().map(|m| Width(m.0)).collect();
                    let ww = Width::new(3.0);
                    let mut scalar = vec![<Width as Semiring>::zero(); len];
                    let sc = scalar_relax_init(&mut scalar, &wdst0, &wsrc, ww);
                    let mut platform = vec![<Width as Semiring>::zero(); len];
                    let pc = Width::relax_row_init(&mut platform, &wdst0, &wsrc, ww);
                    assert_eq!(scalar, platform, "w-init len={len} salt={salt}");
                    assert_eq!(sc, pc, "w-init flag len={len} salt={salt}");
                    let mut scalar = wdst0.clone();
                    let sc = scalar_relax_track(&mut scalar, &wsrc, ww);
                    let mut platform = wdst0.clone();
                    let pc = Width::relax_row_track(&mut platform, &wsrc, ww);
                    assert_eq!(scalar, platform, "w-track len={len} salt={salt}");
                    assert_eq!(sc, pc, "w-track flag len={len} salt={salt}");
                }

                // Equality kernel: equal rows, a mutated row (every
                // position), and length mismatches.
                assert!(MinPlus::rows_equal(&dst0, &dst0.clone()));
                for flip in 0..len {
                    let mut other = dst0.clone();
                    other[flip] = MinPlus::new(123456.0);
                    assert_eq!(
                        MinPlus::rows_equal(&dst0, &other),
                        dst0 == other.as_slice(),
                        "eq len={len} flip={flip}"
                    );
                }
                if len > 0 {
                    assert!(!MinPlus::rows_equal(&dst0, &dst0[..len - 1]));
                }

                // Max-min: the same rows reinterpreted as widths.
                let wsrc: Vec<Width> = src.iter().map(|m| Width(m.0)).collect();
                let wdst0: Vec<Width> = dst0.iter().map(|m| Width(m.0)).collect();
                let ww = Width::new(3.0);
                let mut scalar = wdst0.clone();
                scalar_relax(&mut scalar, &wsrc, ww);
                let mut platform = wdst0.clone();
                Width::relax_row(&mut platform, &wsrc, ww);
                assert_eq!(scalar, platform, "width relax len={len} salt={salt}");
                let mut scalar = wdst0.clone();
                scalar_fold(&mut scalar, &wsrc);
                let mut platform = wdst0.clone();
                Width::fold_row(&mut platform, &wsrc);
                assert_eq!(scalar, platform, "width fold len={len} salt={salt}");
                assert!(Width::rows_equal(&wdst0, &wdst0.clone()));
            }
        }
    }

    #[test]
    fn set_row_overwrites_stale_contents() {
        let mut block = DenseBlock::<MinPlus>::new(2, 4);
        block.set_row(1, &dm(&[(0, 1.0), (3, 2.0)]));
        block.set_row(1, &dm(&[(2, 5.0)]));
        assert_eq!(
            DistanceMap::read_dense(block.row(1)),
            dm(&[(2, 5.0)]),
            "stale coordinates must be cleared"
        );
    }
}
