//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
//! checksum gzip and PNG use. Hand-rolled: the build environment is
//! offline and the workspace vendors no checksum crate.
//!
//! Two kernels compute the same values, picked at run time:
//!
//! * **Carry-less multiply** (x86-64 with PCLMULQDQ and SSE4.1, inputs of
//!   at least [`CLMUL_MIN_LEN`] bytes): folds four 128-bit lanes per
//!   64-byte step, then one lane per 16 bytes, then reduces the last
//!   128 bits to 32 with a Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009), using the bit-reflected constants zlib and crc32fast
//!   use. The last 0–15 bytes go through the table kernel. About 23 GB/s
//!   on 1 MiB on a 2-vCPU x86-64 host.
//! * **Slicing-by-8**: `TABLES[k][b]` is the CRC register contribution
//!   of byte `b` followed by `k` zero bytes, so eight input bytes fold
//!   into the register with eight independent lookups instead of a chain
//!   of eight dependent ones; a tail of fewer than eight bytes runs the
//!   bytewise loop on `TABLES[0]`. About 1.45 GB/s on the same host. It
//!   serves short inputs, CPUs without the instructions and miri (which
//!   interprets no SIMD), and the unit tests check the other kernel
//!   against it.
//!
//! A snapshot load checks the body twice (the file CRC, then every
//! section's own), so on a 1 MB serving artifact the kernel choice is
//! most of the reload time (docs/SERVING.md, "Reload cost").

/// Shortest input the carry-less kernel takes: its 4×128-bit fold
/// starts from one 64-byte block. At 64 bytes it already takes about a
/// third of the table kernel's time (11 ns against 32 ns).
const CLMUL_MIN_LEN: usize = 64;

/// `TABLES[0]` is the bytewise table; `TABLES[k]` advances
/// `TABLES[k − 1]` by one zero byte. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if clmul_available() {
        // SAFETY: PCLMULQDQ and SSE4.1 support was just checked.
        return !unsafe { clmul_update(!0, bytes) };
    }
    !slicing_by_8(!0, bytes)
}

/// Advances the CRC register `crc` (pre-inverted, not yet post-inverted)
/// over `bytes`, eight bytes per step.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Whether [`clmul_update`] may run (cached by std's feature detection).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn clmul_available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// [`slicing_by_8`] by carry-less multiplication: the same register in,
/// the same register out, for every input. Inputs shorter than
/// [`CLMUL_MIN_LEN`] go to the table kernel whole.
///
/// # Safety
/// The CPU must support PCLMULQDQ and SSE4.1 ([`clmul_available`]).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn clmul_update(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // x^(4·128 ± 32) mod P: fold a lane 512 bits ahead.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    // x^(128 ± 32) mod P: fold a lane 128 bits ahead.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    // x^64 mod P: the 96 → 64-bit step.
    const K5: i64 = 0x1_63CD_6124;
    // P itself and μ = ⌊x^64 / P⌋, for the Barrett reduction.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// `next ⊕ acc·k`: the low half of `acc` times the low key, the high
    /// half times the high key.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }
    /// The 16 bytes of `lane` as one vector.
    #[inline]
    fn load(lane: &[u8]) -> __m128i {
        assert_eq!(lane.len(), 16);
        // SAFETY: `lane` holds 16 readable bytes; the unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    if bytes.len() < CLMUL_MIN_LEN {
        return slicing_by_8(crc, bytes);
    }
    let (head, rest) = bytes.split_at(64);
    let mut x = [0, 1, 2, 3].map(|i| load(&head[16 * i..16 * (i + 1)]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut blocks = rest.chunks_exact(64);
    for block in &mut blocks {
        for (i, lane) in x.iter_mut().enumerate() {
            *lane = fold(*lane, load(&block[16 * i..16 * (i + 1)]), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    let mut lanes = blocks.remainder().chunks_exact(16);
    for lane in &mut lanes {
        acc = fold(acc, load(lane), k3k4);
    }
    // 128 → 96 bits (low half times K4), then 96 → 64 (low 32 bits
    // times K5).
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the reflected
    // remainder sits in bits 32..64 of R ⊕ T2.
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
    slicing_by_8(crc, lanes.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bytewise table-driven CRC this module used before
    /// slicing-by-8, kept as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `kernel` equals [`crc32_bytewise`] on every length `0..=max_len`
    /// at every start offset 0–15 of one random buffer.
    fn assert_matches_bytewise_everywhere(kernel: impl Fn(&[u8]) -> u32, max_len: usize) {
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..16 + max_len).map(|_| rng.gen::<u32>() as u8).collect();
        for offset in 0..16 {
            for len in 0..=max_len {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    kernel(bytes),
                    crc32_bytewise(bytes),
                    "length {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"snapshot payload");
        let mut flipped = b"snapshot payload".to_vec();
        for i in 0..flipped.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i} undetected");
            flipped[i / 8] ^= 1 << (i % 8);
        }
    }

    /// The table kernel, called directly. Under miri only the lengths up
    /// to 64 run (every tail length and the 8-byte loop), to keep the
    /// interpreter fast.
    #[test]
    fn table_kernel_matches_the_bytewise_reference() {
        let max_len = if cfg!(miri) { 64 } else { 1024 };
        assert_matches_bytewise_everywhere(|b| !slicing_by_8(!0, b), max_len);
    }

    /// The carry-less kernel, called directly (not through [`crc32`]'s
    /// dispatch), on lengths below, at and far past [`CLMUL_MIN_LEN`],
    /// so every 64-byte block count, 16-byte lane count and tail
    /// length. Passes without checking anything on a CPU without
    /// PCLMULQDQ or SSE4.1, and is not compiled under miri or off
    /// x86-64.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn clmul_kernel_matches_the_bytewise_reference() {
        if !clmul_available() {
            return;
        }
        // SAFETY: PCLMULQDQ and SSE4.1 support was just checked.
        assert_matches_bytewise_everywhere(|b| !unsafe { clmul_update(!0, b) }, 1024);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Lengths up to 64 KiB at start offsets 0–15 of a buffer (so
        /// every alignment, both kernels and every tail length): the
        /// dispatched CRC equals the bytewise reference. Under miri
        /// (4 cases) this is the table kernel alone.
        #[test]
        fn dispatched_crc_matches_the_bytewise_reference(
            len in 0usize..65537,
            offset in 0usize..16,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let buf: Vec<u8> = (0..offset + len).map(|_| rng.gen::<u32>() as u8).collect();
            let bytes = &buf[offset..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }
}
