//! The Flash distance kernel: register-resident 16-entry lookup tables
//! indexed by 4-bit codewords through SIMD byte shuffles.
//!
//! This is the arithmetic core of the paper (Section 3.3.5). For an inserted
//! vector the codec produces, per subspace `s`, an Asymmetric Distance Table
//! `ADT_s` of `K = 16` quantized (8-bit) partial distances — exactly 128
//! bits, the size of one SSE register. The graph stores every vertex's
//! neighbor codewords in *subspace-major batches* of `B = 16` neighbors, so
//!
//! * one register load fetches the 16 codewords of a batch in subspace `s`,
//! * one `pshufb` uses those codewords as indices into the register-resident
//!   `ADT_s`, yielding 16 partial distances simultaneously,
//! * packed adds accumulate partials across subspaces into 16-bit sums.
//!
//! With `M_F` subspaces the whole batch distance costs `M_F` loads + `M_F`
//! shuffles + `2·M_F` adds — versus `32·D/U` register loads per *single*
//! distance in the baseline (paper Eq. 12 vs Eq. 13).
//!
//! Wider registers process more subspaces per instruction: AVX2 handles two
//! ADTs per `vpshufb`, AVX-512 four (Figure 12 in the paper). All variants
//! produce bit-identical results to the scalar path.

use crate::level::{current_level, SimdLevel};

/// Number of neighbors processed per batch — fixed to `K = 2^{L_F} = 16` so
/// one batch of codewords and one ADT each fill a 128-bit lane.
pub const LUT_BATCH: usize = 16;

/// Accumulates batch distances for one block of neighbors.
///
/// * `tables`: `m * 16` bytes; `tables[s*16 + c]` is the quantized partial
///   distance to centroid `c` in subspace `s` (the ADT).
/// * `codes`: `m * 16` bytes, subspace-major; `codes[s*16 + j]` is neighbor
///   `j`'s 4-bit codeword (value `0..=15`) in subspace `s`.
/// * `out[j]` receives `Σ_s tables[s*16 + codes[s*16 + j]]` for the 16
///   neighbors `j`.
///
/// Sums are exact in `u16` for `m ≤ 257` (each partial ≤ 255).
///
/// # Panics
/// Panics if slice lengths don't equal `m * 16`, or if any codeword has a
/// high nibble set (debug builds only — release relies on the encoder's
/// invariant; `pshufb` would read the low nibble but scalar would index out
/// of table range, so the encoder masks to 4 bits).
#[inline]
pub fn lut16_batch(tables: &[u8], codes: &[u8], m: usize, out: &mut [u16; LUT_BATCH]) {
    assert_eq!(tables.len(), m * LUT_BATCH, "ADT length mismatch");
    assert_eq!(codes.len(), m * LUT_BATCH, "code block length mismatch");
    debug_assert!(codes.iter().all(|&c| c < 16), "codeword exceeds 4 bits");
    match current_level() {
        SimdLevel::Scalar => lut16_batch_scalar(tables, codes, m, out),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { lut16_batch_sse(tables, codes, m, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { lut16_batch_avx2(tables, codes, m, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { lut16_batch_avx512(tables, codes, m, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => lut16_batch_scalar(tables, codes, m, out),
    }
}

/// Scalar reference implementation; the oracle for the SIMD paths.
#[inline]
pub fn lut16_batch_scalar(tables: &[u8], codes: &[u8], m: usize, out: &mut [u16; LUT_BATCH]) {
    out.fill(0);
    for s in 0..m {
        let table = &tables[s * LUT_BATCH..(s + 1) * LUT_BATCH];
        let block = &codes[s * LUT_BATCH..(s + 1) * LUT_BATCH];
        for (o, &c) in out.iter_mut().zip(block.iter()) {
            *o += u16::from(table[usize::from(c & 0x0f)]);
        }
    }
}

/// Single-vector variant: looks up one codeword per subspace.
///
/// Used when a distance is needed for one vertex outside a batch: the
/// entry point of a search, and every id a serving beam gathers (scored
/// against no block). `codes` is the vertex's packed code row,
/// `m.div_ceil(2)` bytes: byte `p` holds the 4-bit codeword of subspace
/// `2p` in its low nibble and that of subspace `2p + 1` in its high nibble.
/// When `m` is odd the last byte's high nibble is not read.
///
/// # Panics
/// Panics if `tables.len() != m * 16` or `codes.len() != m.div_ceil(2)`.
#[inline]
pub fn lut16_single(tables: &[u8], codes: &[u8], m: usize) -> u16 {
    assert_eq!(tables.len(), m * LUT_BATCH, "ADT length mismatch");
    assert_eq!(
        codes.len(),
        m.div_ceil(2),
        "two codewords per byte expected"
    );
    let (pairs, tail) = tables.split_at(m / 2 * 2 * LUT_BATCH);
    let mut acc = 0u16;
    for (pair, &byte) in pairs.chunks_exact(2 * LUT_BATCH).zip(codes) {
        acc += u16::from(pair[usize::from(byte & 0x0f)]);
        acc += u16::from(pair[LUT_BATCH + usize::from(byte >> 4)]);
    }
    if m % 2 == 1 {
        acc += u16::from(tail[usize::from(codes[m / 2] & 0x0f)]);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn lut16_batch_sse(tables: &[u8], codes: &[u8], m: usize, out: &mut [u16; LUT_BATCH]) {
    use std::arch::x86_64::*;
    let mut acc_lo = _mm_setzero_si128(); // neighbors 0..8 as u16
    let mut acc_hi = _mm_setzero_si128(); // neighbors 8..16 as u16
    for s in 0..m {
        let table = _mm_loadu_si128(tables.as_ptr().add(s * 16) as *const __m128i);
        let code = _mm_loadu_si128(codes.as_ptr().add(s * 16) as *const __m128i);
        let partial = _mm_shuffle_epi8(table, code);
        acc_lo = _mm_add_epi16(acc_lo, _mm_cvtepu8_epi16(partial));
        acc_hi = _mm_add_epi16(acc_hi, _mm_cvtepu8_epi16(_mm_srli_si128(partial, 8)));
    }
    _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, acc_lo);
    _mm_storeu_si128(out.as_mut_ptr().add(8) as *mut __m128i, acc_hi);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut16_batch_avx2(tables: &[u8], codes: &[u8], m: usize, out: &mut [u16; LUT_BATCH]) {
    use std::arch::x86_64::*;
    // Two subspaces per iteration: `vpshufb` shuffles each 128-bit lane with
    // its own table, so lane 0 looks up subspace s and lane 1 subspace s+1.
    let mut acc_a = _mm256_setzero_si256(); // 16 u16 accumulators (subspace stream A)
    let mut acc_b = _mm256_setzero_si256(); // 16 u16 accumulators (subspace stream B)
    let pairs = m / 2;
    for p in 0..pairs {
        let tables2 = _mm256_loadu_si256(tables.as_ptr().add(p * 32) as *const __m256i);
        let codes2 = _mm256_loadu_si256(codes.as_ptr().add(p * 32) as *const __m256i);
        let partial = _mm256_shuffle_epi8(tables2, codes2);
        let lane0 = _mm256_castsi256_si128(partial); // subspace 2p, 16 u8
        let lane1 = _mm256_extracti128_si256(partial, 1); // subspace 2p+1
        acc_a = _mm256_add_epi16(acc_a, _mm256_cvtepu8_epi16(lane0));
        acc_b = _mm256_add_epi16(acc_b, _mm256_cvtepu8_epi16(lane1));
    }
    let mut acc = _mm256_add_epi16(acc_a, acc_b);
    if m % 2 == 1 {
        let s = m - 1;
        let table = _mm_loadu_si128(tables.as_ptr().add(s * 16) as *const __m128i);
        let code = _mm_loadu_si128(codes.as_ptr().add(s * 16) as *const __m128i);
        let partial = _mm_shuffle_epi8(table, code);
        acc = _mm256_add_epi16(acc, _mm256_cvtepu8_epi16(partial));
    }
    _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn lut16_batch_avx512(tables: &[u8], codes: &[u8], m: usize, out: &mut [u16; LUT_BATCH]) {
    use std::arch::x86_64::*;
    // Four subspaces per iteration: 512-bit `vpshufb` keeps per-128-bit-lane
    // semantics, so each lane pairs one ADT with its code batch.
    let mut acc_a = _mm512_setzero_si512(); // 32 u16: subspaces 4p, 4p+1
    let mut acc_b = _mm512_setzero_si512(); // 32 u16: subspaces 4p+2, 4p+3
    let quads = m / 4;
    for p in 0..quads {
        let tables4 = _mm512_loadu_si512(tables.as_ptr().add(p * 64) as *const __m512i);
        let codes4 = _mm512_loadu_si512(codes.as_ptr().add(p * 64) as *const __m512i);
        let partial = _mm512_shuffle_epi8(tables4, codes4);
        let lo256 = _mm512_castsi512_si256(partial); // lanes 0,1 (32 u8)
        let hi256 = _mm512_extracti64x4_epi64(partial, 1); // lanes 2,3
        acc_a = _mm512_add_epi16(acc_a, _mm512_cvtepu8_epi16(lo256));
        acc_b = _mm512_add_epi16(acc_b, _mm512_cvtepu8_epi16(hi256));
    }
    // acc = per-lane-pair sums; fold the two 16-lane groups together.
    let acc512 = _mm512_add_epi16(acc_a, acc_b);
    let lo = _mm512_castsi512_si256(acc512);
    let hi = _mm512_extracti64x4_epi64(acc512, 1);
    let mut acc = _mm256_add_epi16(lo, hi);
    // Tail subspaces (m % 4) via the SSE step.
    for s in quads * 4..m {
        let table = _mm_loadu_si128(tables.as_ptr().add(s * 16) as *const __m128i);
        let code = _mm_loadu_si128(codes.as_ptr().add(s * 16) as *const __m128i);
        let partial = _mm_shuffle_epi8(table, code);
        acc = _mm256_add_epi16(acc, _mm256_cvtepu8_epi16(partial));
    }
    _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{supported_levels, with_level};

    fn arb_bytes(n: usize, seed: u64, max: u16) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 48) as u16 % (max + 1)) as u8
            })
            .collect()
    }

    #[test]
    fn all_levels_match_scalar() {
        let _serial = crate::level::serialize_level_tests();
        for m in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 32, 33, 64] {
            let tables = arb_bytes(m * 16, 11, 255);
            let codes = arb_bytes(m * 16, 23, 15);
            let mut reference = [0u16; LUT_BATCH];
            lut16_batch_scalar(&tables, &codes, m, &mut reference);
            for level in supported_levels() {
                let mut got = [0u16; LUT_BATCH];
                with_level(level, || lut16_batch(&tables, &codes, m, &mut got));
                assert_eq!(got, reference, "level {level:?} m={m}");
            }
        }
    }

    #[test]
    fn zero_tables_give_zero_distances() {
        let m = 8;
        let tables = vec![0u8; m * 16];
        let codes = arb_bytes(m * 16, 5, 15);
        let mut out = [1u16; LUT_BATCH];
        lut16_batch(&tables, &codes, m, &mut out);
        assert_eq!(out, [0u16; LUT_BATCH]);
    }

    #[test]
    fn single_subspace_is_plain_lookup() {
        let mut tables = vec![0u8; 16];
        for (c, t) in tables.iter_mut().enumerate() {
            *t = (c * 3) as u8;
        }
        let mut codes = vec![0u8; 16];
        for (j, c) in codes.iter_mut().enumerate() {
            *c = (15 - j) as u8;
        }
        let mut out = [0u16; LUT_BATCH];
        lut16_batch(&tables, &codes, 1, &mut out);
        for (j, &d) in out.iter().enumerate() {
            assert_eq!(d, ((15 - j) * 3) as u16);
        }
    }

    #[test]
    fn saturating_headroom_u16() {
        // Worst case: all partials 255 with m = 64 → 16320, fits u16.
        let m = 64;
        let tables = vec![255u8; m * 16];
        let codes = vec![0u8; m * 16];
        let mut out = [0u16; LUT_BATCH];
        lut16_batch(&tables, &codes, m, &mut out);
        assert_eq!(out, [255 * 64u16; LUT_BATCH]);
    }

    #[test]
    fn single_matches_batch_column() {
        // Even and odd m: the odd tail reads only the last low nibble.
        for m in [12usize, 7, 1] {
            let tables = arb_bytes(m * 16, 31, 255);
            let codes = arb_bytes(m * 16, 37, 15);
            let mut batch = [0u16; LUT_BATCH];
            lut16_batch(&tables, &codes, m, &mut batch);
            for j in 0..LUT_BATCH {
                // Lane j's codewords, two per byte, low nibble first.
                let mut packed = vec![0u8; m.div_ceil(2)];
                for s in 0..m {
                    packed[s / 2] |= codes[s * 16 + j] << (4 * (s % 2));
                }
                assert_eq!(
                    lut16_single(&tables, &packed, m),
                    batch[j],
                    "m {m} lane {j}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ADT length mismatch")]
    fn bad_table_length_panics() {
        let mut out = [0u16; LUT_BATCH];
        lut16_batch(&[0u8; 15], &[0u8; 16], 1, &mut out);
    }
}
