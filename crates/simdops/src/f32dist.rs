//! Full-precision `f32` distance kernels with runtime SIMD dispatch.
//!
//! These implement the baseline HNSW distance path the paper profiles in
//! Figure 1: each computation streams the two vectors through SIMD registers
//! in `D / (register_width / 32)` loads per operand — the `N_RL_orig` cost of
//! Equation (12).

use crate::level::{current_level, SimdLevel};

/// Squared Euclidean distance `‖a − b‖²`.
///
/// The graph algorithms only ever *compare* distances, so we return the
/// squared value and skip the square root (monotone transform).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    match current_level() {
        SimdLevel::Scalar => l2_sq_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { l2_sq_sse(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { l2_sq_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { l2_sq_avx512(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => l2_sq_scalar(a, b),
    }
}

/// Inner product `a · b`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    match current_level() {
        SimdLevel::Scalar => ip_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { ip_sse(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { ip_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { ip_avx512(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => ip_scalar(a, b),
    }
}

/// Squared norm `‖a‖²`.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    inner_product(a, a)
}

// ---------------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------------

/// Scalar L2²; also the reference oracle for the SIMD paths in tests.
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[inline]
fn ip_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

// ---------------------------------------------------------------------------
// x86-64 SIMD implementations. Each function is only reachable after runtime
// detection confirms the corresponding feature set (see `level`).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn l2_sq_sse(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm_setzero_ps();
    let chunks = n / 4;
    for i in 0..chunks {
        let va = _mm_loadu_ps(a.as_ptr().add(i * 4));
        let vb = _mm_loadu_ps(b.as_ptr().add(i * 4));
        let d = _mm_sub_ps(va, vb);
        acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    // Horizontal sum of 4 lanes.
    let shuf = _mm_movehl_ps(acc, acc);
    let sums = _mm_add_ps(acc, shuf);
    let shuf2 = _mm_shuffle_ps(sums, sums, 0b01);
    let total = _mm_add_ss(sums, shuf2);
    let mut out = _mm_cvtss_f32(total);
    for i in chunks * 4..n {
        let d = a[i] - b[i];
        out += d * d;
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn ip_sse(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm_setzero_ps();
    let chunks = n / 4;
    for i in 0..chunks {
        let va = _mm_loadu_ps(a.as_ptr().add(i * 4));
        let vb = _mm_loadu_ps(b.as_ptr().add(i * 4));
        acc = _mm_add_ps(acc, _mm_mul_ps(va, vb));
    }
    let shuf = _mm_movehl_ps(acc, acc);
    let sums = _mm_add_ps(acc, shuf);
    let shuf2 = _mm_shuffle_ps(sums, sums, 0b01);
    let total = _mm_add_ss(sums, shuf2);
    let mut out = _mm_cvtss_f32(total);
    for i in chunks * 4..n {
        out += a[i] * b[i];
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let chunks = n / 8;
    for i in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
        let d = _mm256_sub_ps(va, vb);
        acc = _mm256_fmadd_ps(d, d, acc);
    }
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let sum128 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehl_ps(sum128, sum128);
    let sums = _mm_add_ps(sum128, shuf);
    let shuf2 = _mm_shuffle_ps(sums, sums, 0b01);
    let total = _mm_add_ss(sums, shuf2);
    let mut out = _mm_cvtss_f32(total);
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        out += d * d;
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn ip_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let chunks = n / 8;
    for i in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
        acc = _mm256_fmadd_ps(va, vb, acc);
    }
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let sum128 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehl_ps(sum128, sum128);
    let sums = _mm_add_ps(sum128, shuf);
    let shuf2 = _mm_shuffle_ps(sums, sums, 0b01);
    let total = _mm_add_ss(sums, shuf2);
    let mut out = _mm_cvtss_f32(total);
    for i in chunks * 8..n {
        out += a[i] * b[i];
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn l2_sq_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm512_setzero_ps();
    let chunks = n / 16;
    for i in 0..chunks {
        let va = _mm512_loadu_ps(a.as_ptr().add(i * 16));
        let vb = _mm512_loadu_ps(b.as_ptr().add(i * 16));
        let d = _mm512_sub_ps(va, vb);
        acc = _mm512_fmadd_ps(d, d, acc);
    }
    let mut out = _mm512_reduce_add_ps(acc);
    for i in chunks * 16..n {
        let d = a[i] - b[i];
        out += d * d;
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ip_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm512_setzero_ps();
    let chunks = n / 16;
    for i in 0..chunks {
        let va = _mm512_loadu_ps(a.as_ptr().add(i * 16));
        let vb = _mm512_loadu_ps(b.as_ptr().add(i * 16));
        acc = _mm512_fmadd_ps(va, vb, acc);
    }
    let mut out = _mm512_reduce_add_ps(acc);
    for i in chunks * 16..n {
        out += a[i] * b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{supported_levels, with_level};

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic pseudo-random data without pulling in `rand` here.
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            a.push(((state >> 40) as f32) / 16777216.0 - 0.5);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.push(((state >> 40) as f32) / 16777216.0 - 0.5);
        }
        (a, b)
    }

    #[test]
    fn all_levels_agree_on_l2() {
        let _serial = crate::level::serialize_level_tests();
        for n in [1usize, 3, 4, 7, 8, 15, 16, 17, 64, 100, 768, 1024] {
            let (a, b) = vecs(n);
            let reference = l2_sq_scalar(&a, &b);
            for level in supported_levels() {
                let got = with_level(level, || l2_sq(&a, &b));
                let tol = 1e-4 * (1.0 + reference.abs());
                assert!(
                    (got - reference).abs() < tol,
                    "level {level:?} n={n}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn all_levels_agree_on_ip() {
        let _serial = crate::level::serialize_level_tests();
        for n in [1usize, 5, 8, 16, 33, 256, 768] {
            let (a, b) = vecs(n);
            let reference: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            for level in supported_levels() {
                let got = with_level(level, || inner_product(&a, &b));
                let tol = 1e-4 * (1.0 + reference.abs());
                assert!(
                    (got - reference).abs() < tol,
                    "level {level:?} n={n}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn l2_identity_is_zero() {
        let (a, _) = vecs(129);
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn l2_known_value() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(l2_sq(&a, &b), 25.0);
    }

    #[test]
    fn norm_sq_matches_self_ip() {
        let (a, _) = vecs(77);
        let n = norm_sq(&a);
        let ip = inner_product(&a, &a);
        assert!((n - ip).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        let _ = l2_sq(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn empty_vectors_distance_zero() {
        assert_eq!(l2_sq(&[], &[]), 0.0);
        assert_eq!(inner_product(&[], &[]), 0.0);
    }
}
