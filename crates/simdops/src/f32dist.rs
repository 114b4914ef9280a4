//! Full-precision `f32` distance kernels with runtime SIMD dispatch.
//!
//! These implement the baseline HNSW distance path the paper profiles in
//! Figure 1: each computation streams the two vectors through SIMD registers
//! in `D / (register_width / 32)` loads per operand — the `N_RL_orig` cost of
//! Equation (12). [`l2_sq_4x4`] scores four queries against four rows with
//! each loaded chunk reused four times, for scans that visit every pair.

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

/// Floats [`l2_sq_bounded`] accumulates between two looks at its sum.
const BOUND_CHECK_FLOATS: usize = 128;

/// [`l2_sq`] that gives up once the sum is past `bound`: `Some` carries
/// `l2_sq(a, b)`'s exact bits, and `None` means `l2_sq(a, b) > bound`.
///
/// Each level runs its `l2_sq` accumulation unchanged. Every 128 floats
/// (at the SIMD levels, only while more than 128 remain) it reduces a copy
/// of its accumulators the way the final sum does and returns `None` once
/// that partial sum exceeds `bound`. The accumulators only ever add
/// nonnegative squares and every step of the reduction is monotone in its
/// inputs, so no partial sum exceeds the final one (for inputs free of
/// NaNs and infinities). With `bound = +∞` this is `Some(l2_sq(a, b))`; a
/// result past `bound` may still come back as `Some`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_sq_bounded(a: &[f32], b: &[f32], bound: f32) -> Option<f32> {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    match current_level() {
        SimdLevel::Scalar => l2_sq_bounded_scalar(a, b, bound),
        // SAFETY (all three): `current_level` never exceeds what the CPU
        // supports.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { l2_sq_bounded_sse(a, b, bound) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { l2_sq_bounded_avx2(a, b, bound) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { l2_sq_bounded_avx512(a, b, bound) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => l2_sq_bounded_scalar(a, b, bound),
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

/// The k-means++ seeding update over the `c.len()`-float rows of `rows`:
/// `min_d2[i] = min_d2[i].min(l2_sq(row i, c))`, each distance with
/// [`l2_sq`]'s bits; one dispatch for the batch.
///
/// # Panics
/// Panics if `c` is empty or `rows` does not hold `min_d2.len()` rows.
pub fn l2_sq_min_rows(rows: &[f32], c: &[f32], min_d2: &mut [f32]) {
    assert_eq!(
        rows.len(),
        c.len() * min_d2.len(),
        "not one row per distance"
    );
    let level = current_level();
    let l2: unsafe fn(&[f32], &[f32]) -> f32 = match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => l2_sq_sse,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => l2_sq_avx2,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => l2_sq_avx512,
        _ => l2_sq_scalar,
    };
    // Shorter than one register, a tier's `l2_sq` is its scalar tail alone:
    // the squares summed front to back, which inlines here.
    let narrow = c.len() * 32 < level.register_bits();
    for (row, d) in rows.chunks_exact(c.len()).zip(min_d2) {
        // SAFETY: `current_level` never exceeds what the CPU supports.
        let l2 = if narrow {
            l2_sq_scalar(row, c)
        } else {
            unsafe { l2(row, c) }
        };
        *d = d.min(l2);
    }
}

/// The sixteen distances `out[i][j] = l2_sq(queries[i], rows[j])`, each
/// with [`l2_sq`]'s bits at the current level; one dispatch for the block.
///
/// Every result runs that tier's own sequence — the same lane-wise sub and
/// multiply-add chain, horizontal sum and scalar tail — but each chunk of a
/// row is loaded once for all four queries, so an exact scan over many
/// queries is bound by arithmetic rather than by the cache holding the rows.
///
/// # Panics
/// Panics if the eight slices do not all have the same length.
pub fn l2_sq_4x4(queries: [&[f32]; 4], rows: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let n = queries[0].len();
    assert!(
        queries.iter().chain(&rows).all(|v| v.len() == n),
        "dimension mismatch in a 4x4 block"
    );
    match current_level() {
        SimdLevel::Scalar => l2_sq_4x4_scalar(queries, rows),
        // SAFETY: `current_level` never exceeds what the CPU supports, and
        // every slice is `n` floats long.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { l2_sq_4x4_sse(queries, rows) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { l2_sq_4x4_avx2(queries, rows) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { l2_sq_4x4_avx512(queries, rows) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => l2_sq_4x4_scalar(queries, rows),
    }
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

/// [`l2_sq_bounded`] over [`l2_sq_scalar`]'s running sum.
fn l2_sq_bounded_scalar(a: &[f32], b: &[f32], bound: f32) -> Option<f32> {
    let mut acc = 0.0f32;
    let blocks = a
        .chunks(BOUND_CHECK_FLOATS)
        .zip(b.chunks(BOUND_CHECK_FLOATS));
    for (a, b) in blocks {
        for (&x, &y) in a.iter().zip(b) {
            let d = x - y;
            acc += d * d;
        }
        if acc > bound {
            return None;
        }
    }
    Some(acc)
}

/// [`l2_sq_scalar`] of each pair, the sixteen sums advanced together.
fn l2_sq_4x4_scalar(q: [&[f32]; 4], r: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let mut acc = [[0.0f32; 4]; 4];
    for t in 0..q[0].len() {
        for i in 0..4 {
            for j in 0..4 {
                let d = q[i][t] - r[j][t];
                acc[i][j] += d * d;
            }
        }
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

/// The sum of the four lanes of `v` as `(v0 + v2) + (v1 + v3)`: the one
/// horizontal sum of every 128- and 256-bit kernel in this crate.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) unsafe fn hsum128(v: std::arch::x86_64::__m128) -> f32 {
    use std::arch::x86_64::*;
    let pair = _mm_add_ps(v, _mm_movehl_ps(v, v));
    _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01)))
}

/// [`hsum128`] of the lane-wise sum of the two halves of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
pub(crate) unsafe fn hsum256(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    hsum128(_mm_add_ps(
        _mm256_castps256_ps128(v),
        _mm256_extractf128_ps(v, 1),
    ))
}

/// `out + Σ (a[i] − b[i])²` for `i` from `from` on: the scalar tail every
/// tier's `l2_sq` finishes with.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn l2_sq_tail(a: &[f32], b: &[f32], from: usize, mut out: f32) -> f32 {
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        let d = x - y;
        out += d * d;
    }
    out
}

/// [`l2_sq_sse`]'s accumulator after the 4-float chunks `chunks` of `a`
/// and `b`, starting from `acc`.
///
/// # Safety
/// The CPU must support sse2, and both slices hold `4 * chunks.end` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn l2_sq_chunks_sse(
    a: &[f32],
    b: &[f32],
    chunks: std::ops::Range<usize>,
    mut acc: std::arch::x86_64::__m128,
) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    for i in chunks {
        let va = _mm_loadu_ps(a.as_ptr().add(i * 4));
        let vb = _mm_loadu_ps(b.as_ptr().add(i * 4));
        let d = _mm_sub_ps(va, vb);
        acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn l2_sq_sse(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let chunks = a.len() / 4;
    let acc = l2_sq_chunks_sse(a, b, 0..chunks, _mm_setzero_ps());
    l2_sq_tail(a, b, chunks * 4, hsum128(acc))
}

/// [`l2_sq_bounded`] over [`l2_sq_sse`]'s accumulation.
///
/// # Safety
/// The CPU must support sse2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn l2_sq_bounded_sse(a: &[f32], b: &[f32], bound: f32) -> Option<f32> {
    use std::arch::x86_64::*;
    let chunks = a.len() / 4;
    let mut acc = _mm_setzero_ps();
    // A block of fixed length unrolls like `l2_sq`'s loop; no look is
    // taken once the rest fits in one block.
    let block = BOUND_CHECK_FLOATS / 4;
    let mut from = 0;
    while from + block < chunks {
        acc = l2_sq_chunks_sse(a, b, from..from + block, acc);
        from += block;
        if hsum128(acc) > bound {
            return None;
        }
    }
    acc = l2_sq_chunks_sse(a, b, from..chunks, acc);
    Some(l2_sq_tail(a, b, chunks * 4, hsum128(acc)))
}

/// `out[i][j] += (q[i][t] - r[j][t])²` for `t` from `from` to the end:
/// the scalar tail every tier's `l2_sq` finishes with.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn l2_sq_4x4_tail(q: [&[f32]; 4], r: [&[f32]; 4], from: usize, out: &mut [[f32; 4]; 4]) {
    for (out, q) in out.iter_mut().zip(q) {
        for (out, r) in out.iter_mut().zip(r) {
            for t in from..q.len() {
                let d = q[t] - r[t];
                *out += d * d;
            }
        }
    }
}

/// [`l2_sq_sse`] of each pair.
///
/// # Safety
/// The CPU must support sse2, and all eight slices have the same length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn l2_sq_4x4_sse(q: [&[f32]; 4], r: [&[f32]; 4]) -> [[f32; 4]; 4] {
    use std::arch::x86_64::*;
    let full = q[0].len() / 4 * 4;
    let mut acc = [[_mm_setzero_ps(); 4]; 4];
    for t in (0..full).step_by(4) {
        // SAFETY: `t + 4 <= full`, and every slice is at least that long.
        let rv = r.map(|r| unsafe { _mm_loadu_ps(r.as_ptr().add(t)) });
        for (acc, q) in acc.iter_mut().zip(q) {
            // SAFETY: as above.
            let qv = unsafe { _mm_loadu_ps(q.as_ptr().add(t)) };
            for (acc, &rv) in acc.iter_mut().zip(&rv) {
                let d = _mm_sub_ps(qv, rv);
                *acc = _mm_add_ps(*acc, _mm_mul_ps(d, d));
            }
        }
    }
    // SAFETY: `hsum128` needs sse2 alone.
    let mut out = acc.map(|row| row.map(|v| unsafe { hsum128(v) }));
    l2_sq_4x4_tail(q, r, full, &mut out);
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
    let mut out = hsum128(acc);
    for i in chunks * 4..n {
        out += a[i] * b[i];
    }
    out
}

/// [`l2_sq_avx2`]'s accumulator after the 8-float chunks `chunks`,
/// starting from `acc`.
///
/// # Safety
/// The CPU must support avx2 and fma, and both slices hold
/// `8 * chunks.end` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn l2_sq_chunks_avx2(
    a: &[f32],
    b: &[f32],
    chunks: std::ops::Range<usize>,
    mut acc: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    for i in chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
        let d = _mm256_sub_ps(va, vb);
        acc = _mm256_fmadd_ps(d, d, acc);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let chunks = a.len() / 8;
    let acc = l2_sq_chunks_avx2(a, b, 0..chunks, _mm256_setzero_ps());
    l2_sq_tail(a, b, chunks * 8, hsum256(acc))
}

/// [`l2_sq_bounded`] over [`l2_sq_avx2`]'s accumulation.
///
/// # Safety
/// The CPU must support avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_bounded_avx2(a: &[f32], b: &[f32], bound: f32) -> Option<f32> {
    use std::arch::x86_64::*;
    let chunks = a.len() / 8;
    let mut acc = _mm256_setzero_ps();
    // A block of fixed length unrolls like `l2_sq`'s loop; no look is
    // taken once the rest fits in one block.
    let block = BOUND_CHECK_FLOATS / 8;
    let mut from = 0;
    while from + block < chunks {
        acc = l2_sq_chunks_avx2(a, b, from..from + block, acc);
        from += block;
        if hsum256(acc) > bound {
            return None;
        }
    }
    acc = l2_sq_chunks_avx2(a, b, from..chunks, acc);
    Some(l2_sq_tail(a, b, chunks * 8, hsum256(acc)))
}

/// [`l2_sq_avx2`] of each pair.
///
/// # Safety
/// The CPU must support avx2 and fma, and all eight slices have the same
/// length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_sq_4x4_avx2(q: [&[f32]; 4], r: [&[f32]; 4]) -> [[f32; 4]; 4] {
    use std::arch::x86_64::*;
    let full = q[0].len() / 8 * 8;
    let mut acc = [[_mm256_setzero_ps(); 4]; 4];
    for t in (0..full).step_by(8) {
        // SAFETY: `t + 8 <= full`, and every slice is at least that long.
        let rv = r.map(|r| unsafe { _mm256_loadu_ps(r.as_ptr().add(t)) });
        for (acc, q) in acc.iter_mut().zip(q) {
            // SAFETY: as above.
            let qv = unsafe { _mm256_loadu_ps(q.as_ptr().add(t)) };
            for (acc, &rv) in acc.iter_mut().zip(&rv) {
                let d = _mm256_sub_ps(qv, rv);
                *acc = _mm256_fmadd_ps(d, d, *acc);
            }
        }
    }
    // SAFETY: `hsum256` needs avx, which avx2 implies.
    let mut out = acc.map(|row| row.map(|v| unsafe { hsum256(v) }));
    l2_sq_4x4_tail(q, r, full, &mut out);
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
    let mut out = hsum256(acc);
    for i in chunks * 8..n {
        out += a[i] * b[i];
    }
    out
}

/// [`l2_sq_avx512`]'s accumulator after the 16-float chunks `chunks`,
/// starting from `acc`.
///
/// # Safety
/// The CPU must support avx512f, and both slices hold `16 * chunks.end`
/// floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn l2_sq_chunks_avx512(
    a: &[f32],
    b: &[f32],
    chunks: std::ops::Range<usize>,
    mut acc: std::arch::x86_64::__m512,
) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    for i in chunks {
        let va = _mm512_loadu_ps(a.as_ptr().add(i * 16));
        let vb = _mm512_loadu_ps(b.as_ptr().add(i * 16));
        let d = _mm512_sub_ps(va, vb);
        acc = _mm512_fmadd_ps(d, d, acc);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn l2_sq_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let chunks = a.len() / 16;
    let acc = l2_sq_chunks_avx512(a, b, 0..chunks, _mm512_setzero_ps());
    l2_sq_tail(a, b, chunks * 16, _mm512_reduce_add_ps(acc))
}

/// [`l2_sq_bounded`] over [`l2_sq_avx512`]'s accumulation.
///
/// # Safety
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn l2_sq_bounded_avx512(a: &[f32], b: &[f32], bound: f32) -> Option<f32> {
    use std::arch::x86_64::*;
    let chunks = a.len() / 16;
    let mut acc = _mm512_setzero_ps();
    // A block of fixed length unrolls like `l2_sq`'s loop; no look is
    // taken once the rest fits in one block.
    let block = BOUND_CHECK_FLOATS / 16;
    let mut from = 0;
    while from + block < chunks {
        acc = l2_sq_chunks_avx512(a, b, from..from + block, acc);
        from += block;
        if _mm512_reduce_add_ps(acc) > bound {
            return None;
        }
    }
    acc = l2_sq_chunks_avx512(a, b, from..chunks, acc);
    Some(l2_sq_tail(a, b, chunks * 16, _mm512_reduce_add_ps(acc)))
}

/// [`l2_sq_avx512`] of each pair: sixteen accumulators, four row chunks
/// and one query chunk fit the thirty-two registers.
///
/// # Safety
/// The CPU must support avx512f, and all eight slices have the same length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn l2_sq_4x4_avx512(q: [&[f32]; 4], r: [&[f32]; 4]) -> [[f32; 4]; 4] {
    use std::arch::x86_64::*;
    let full = q[0].len() / 16 * 16;
    let mut acc = [[_mm512_setzero_ps(); 4]; 4];
    for t in (0..full).step_by(16) {
        // SAFETY: `t + 16 <= full`, and every slice is at least that long.
        let rv = r.map(|r| unsafe { _mm512_loadu_ps(r.as_ptr().add(t)) });
        for (acc, q) in acc.iter_mut().zip(q) {
            // SAFETY: as above.
            let qv = unsafe { _mm512_loadu_ps(q.as_ptr().add(t)) };
            for (acc, &rv) in acc.iter_mut().zip(&rv) {
                let d = _mm512_sub_ps(qv, rv);
                *acc = _mm512_fmadd_ps(d, d, *acc);
            }
        }
    }
    let mut out = acc.map(|row| row.map(|v| _mm512_reduce_add_ps(v)));
    l2_sq_4x4_tail(q, r, full, &mut out);
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

    /// `l2_sq_min_rows` at every level is the per-row `d.min(l2_sq(row, c))`
    /// at that level, bit for bit, from `min_d2` seeded above, below and at
    /// NaN; rows start at an offset that breaks any alignment.
    #[test]
    fn l2_sq_min_rows_is_the_per_row_update_at_every_level() {
        let _serial = crate::level::serialize_level_tests();
        let seeds = [f32::INFINITY, f32::NAN, 0.0, 1e-3, 0.5, 1e30];
        for len in (1..=9usize).chain([16, 17, 96]) {
            for n in [0usize, 1, 15, 16, 17, 100] {
                let (rows, c) = vecs(1 + n * len + len);
                let rows = &rows[1..1 + n * len];
                let c = &c[..len];
                for level in supported_levels() {
                    let mut got: Vec<f32> = (0..n).map(|i| seeds[i % 6]).collect();
                    let want: Vec<u32> = with_level(level, || {
                        let want = (got.iter().zip(rows.chunks_exact(len)))
                            .map(|(d, row)| d.min(l2_sq(row, c)).to_bits())
                            .collect();
                        l2_sq_min_rows(rows, c, &mut got);
                        want
                    });
                    let got: Vec<u32> = got.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, want, "{level:?} len={len} n={n}");
                }
            }
        }
    }

    /// Floats for the 4x4 parity test: mostly uniform values, with signed
    /// zeros, subnormals and magnitudes near `1e17`, whose squares swamp
    /// the rest, mixed in at a stride that lands them in lanes and tails.
    fn awkward_floats(n: usize) -> Vec<f32> {
        let (mut v, _) = vecs(n);
        for (i, x) in v.iter_mut().enumerate() {
            *x = match i % 23 {
                3 => 0.0,
                7 => -0.0,
                11 => f32::from_bits(1 + i as u32 % 0x7f_ffff),
                13 => -f32::from_bits(0x40_0000 + i as u32 % 0x3f_ffff),
                17 => *x * 1e17,
                19 => -3e16,
                _ => *x,
            };
        }
        v
    }

    /// All sixteen outputs of `l2_sq_4x4` are `l2_sq`'s bits at every level,
    /// for every dimension around the register widths and both paper
    /// widths, with slices starting at odd float offsets.
    #[test]
    fn l2_sq_4x4_is_l2_sq_bit_for_bit_at_every_level() {
        let _serial = crate::level::serialize_level_tests();
        let dims = (1..=40usize).chain([63, 64, 65, 127, 128, 129, 255, 256, 257, 768, 1024]);
        for dim in dims {
            let buf = awkward_floats(8 * dim + 8);
            // Vector `v` starts at float `1 + v * (dim + 1)`: odd offsets
            // for even `dim`, and every alignment across the eight.
            let at = |v: usize| &buf[1 + v * (dim + 1)..][..dim];
            let queries = [at(0), at(1), at(2), at(3)];
            let rows = [at(4), at(5), at(6), at(7)];
            for level in supported_levels() {
                let (got, want) = with_level(level, || {
                    let want = queries.map(|q| rows.map(|r| l2_sq(q, r).to_bits()));
                    (
                        l2_sq_4x4(queries, rows).map(|row| row.map(f32::to_bits)),
                        want,
                    )
                });
                assert_eq!(got, want, "{level:?} dim={dim}");
            }
        }
    }

    /// `l2_sq_bounded` at every level: `Some` with `l2_sq`'s bits for every
    /// bound at or above the distance (exactly equal and `+∞` included),
    /// and `None` only for bounds below it, at lengths around the register
    /// widths and the check interval. In the second pair the vectors agree
    /// past the first 128 floats, so the first look already sees the whole
    /// distance and a bound equal to it must not stop the kernel there.
    #[test]
    fn l2_sq_bounded_is_l2_sq_or_a_proof_it_is_past_the_bound() {
        let _serial = crate::level::serialize_level_tests();
        for len in (1..=9usize).chain([16, 17, 96, 127, 128, 129, 256, 768]) {
            let buf = awkward_floats(2 * len + 1);
            let (a, b) = (&buf[1..=len], &buf[len + 1..]);
            let mut same_tail = b.to_vec();
            if len > BOUND_CHECK_FLOATS {
                same_tail[BOUND_CHECK_FLOATS..].copy_from_slice(&a[BOUND_CHECK_FLOATS..]);
            }
            for (b, level) in [b, &same_tail[..]]
                .into_iter()
                .flat_map(|b| supported_levels().into_iter().map(move |l| (b, l)))
            {
                with_level(level, || {
                    let exact = l2_sq(a, b);
                    let at_or_above = [exact, exact * 1.5, f32::MAX, f32::INFINITY];
                    for bound in at_or_above {
                        let got = l2_sq_bounded(a, b, bound).map(f32::to_bits);
                        assert_eq!(got, Some(exact.to_bits()), "{level:?} len={len} {bound}");
                    }
                    let below = [exact.next_down(), exact * 0.5, exact * 0.01, 0.0, -1.0];
                    for bound in below {
                        if let Some(d) = l2_sq_bounded(a, b, bound) {
                            assert_eq!(d.to_bits(), exact.to_bits(), "{level:?} len={len}");
                        }
                    }
                    // Bounds far below a long distance are caught early.
                    if len >= 256 {
                        assert_eq!(l2_sq_bounded(a, b, exact * 0.01), None, "{level:?}");
                    }
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn l2_sq_4x4_rejects_a_short_row() {
        let (a, b) = ([1.0f32; 8], [1.0f32; 7]);
        let _ = l2_sq_4x4([&a; 4], [&a, &a, &b, &a]);
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
