//! Distances over scalar-quantized `u8` codes (the HNSW-SQ path).
//!
//! Scalar quantization maps each `f32` dimension to a `u8` bucket; distances
//! are then computed directly on the integer codes (the decoded affine
//! transform is monotone per-dimension, so comparing integer-code distances
//! is equivalent when every dimension shares a scale — and a good
//! approximation otherwise; see `quantizers::sq`). Integer arithmetic packs
//! 4x more lanes per register than `f32`, which is where HNSW-SQ's modest
//! speedup comes from.

use crate::level::{current_level, SimdLevel};

/// Squared L2 distance between two `u8` code vectors, as `u32`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_sq_u8(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    match current_level() {
        SimdLevel::Scalar => l2_sq_u8_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { l2_sq_u8_sse(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { l2_sq_u8_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => l2_sq_u8_scalar(a, b),
    }
}

/// Scalar reference implementation (also the test oracle).
#[inline]
pub fn l2_sq_u8_scalar(a: &[u8], b: &[u8]) -> u32 {
    let mut acc = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = i32::from(x) - i32::from(y);
        acc += (d * d) as u32;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2,sse4.1")]
unsafe fn l2_sq_u8_sse(a: &[u8], b: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 16;
    let mut acc = _mm_setzero_si128();
    for i in 0..chunks {
        let va = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
        let vb = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
        // Widen to i16 (max |diff| = 255, squares fit i32 via pmaddwd).
        let a_lo = _mm_cvtepu8_epi16(va);
        let b_lo = _mm_cvtepu8_epi16(vb);
        let a_hi = _mm_cvtepu8_epi16(_mm_srli_si128(va, 8));
        let b_hi = _mm_cvtepu8_epi16(_mm_srli_si128(vb, 8));
        let d_lo = _mm_sub_epi16(a_lo, b_lo);
        let d_hi = _mm_sub_epi16(a_hi, b_hi);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(d_lo, d_lo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(d_hi, d_hi));
    }
    // Horizontal sum of 4 x i32.
    let hi64 = _mm_unpackhi_epi64(acc, acc);
    let sum2 = _mm_add_epi32(acc, hi64);
    let hi32 = _mm_shuffle_epi32(sum2, 0b01);
    let sum = _mm_add_epi32(sum2, hi32);
    let mut out = _mm_cvtsi128_si32(sum) as u32;
    for i in chunks * 16..n {
        let d = i32::from(a[i]) - i32::from(b[i]);
        out += (d * d) as u32;
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn l2_sq_u8_avx2(a: &[u8], b: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 32;
    let mut acc = _mm256_setzero_si256();
    for i in 0..chunks {
        let va = _mm256_loadu_si256(a.as_ptr().add(i * 32) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(i * 32) as *const __m256i);
        let a_lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(va));
        let b_lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vb));
        let a_hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(va, 1));
        let b_hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vb, 1));
        let d_lo = _mm256_sub_epi16(a_lo, b_lo);
        let d_hi = _mm256_sub_epi16(a_hi, b_hi);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_lo, d_lo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_hi, d_hi));
    }
    // Horizontal sum of 8 x i32.
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let sum128 = _mm_add_epi32(lo, hi);
    let hi64 = _mm_unpackhi_epi64(sum128, sum128);
    let sum2 = _mm_add_epi32(sum128, hi64);
    let hi32 = _mm_shuffle_epi32(sum2, 0b01);
    let sum = _mm_add_epi32(sum2, hi32);
    let mut out = _mm_cvtsi128_si32(sum) as u32;
    for i in chunks * 32..n {
        let d = i32::from(a[i]) - i32::from(b[i]);
        out += (d * d) as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{supported_levels, with_level};

    fn codes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn all_levels_agree() {
        let _serial = crate::level::serialize_level_tests();
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 256, 768] {
            let a = codes(n, 3);
            let b = codes(n, 7);
            let reference = l2_sq_u8_scalar(&a, &b);
            for level in supported_levels() {
                let got = with_level(level, || l2_sq_u8(&a, &b));
                assert_eq!(got, reference, "level {level:?} n={n}");
            }
        }
    }

    #[test]
    fn identity_distance_zero() {
        let a = codes(100, 1);
        assert_eq!(l2_sq_u8(&a, &a), 0);
    }

    #[test]
    fn extreme_values_do_not_overflow_lane_math() {
        // 255 vs 0 in every slot: per-dim square = 65025.
        let a = vec![255u8; 64];
        let b = vec![0u8; 64];
        assert_eq!(l2_sq_u8(&a, &b), 65025 * 64);
    }

    #[test]
    fn known_small_case() {
        assert_eq!(l2_sq_u8(&[1, 2, 3], &[4, 0, 3]), 9 + 4);
    }
}
