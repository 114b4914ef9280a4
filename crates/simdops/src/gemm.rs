//! Dense `f32` kernels under Flash's coding layer: a register-tiled
//! `A·Bᵀ`, the one-to-sixteen centroid distance, and the nearest centroid.
//!
//! The paper keeps preprocessing (PCA fit, codebooks, encoding) at 3–16 % of
//! indexing time (Table 4) by running it on a tuned linear-algebra library.
//! Everything that stage does reduces to three shapes:
//!
//! * [`gemm_nt`] — `C = A·Bᵀ` for row-major `A: r×d` and `B: k×d`. With
//!   `r = 1` it is the matrix–vector product that projects one vector onto a
//!   PCA basis stored one component per row; with many rows it projects a
//!   batch, forms a covariance matrix, or applies a matrix to a block of
//!   power-iteration vectors.
//! * [`dist16`] — squared distances from one sub-vector to the 16 centroids
//!   of a subspace codebook stored dimension-major, so the 16 results fill
//!   one register: the shared computation behind codeword selection and ADT
//!   generation (paper Remark (2)); [`dist16_rows`] runs it over a batch.
//! * [`nearest16`] — the k-means assignment step, distance and argmin fused
//!   over a batch of points and one 16-centroid block. At AVX-512 it holds
//!   sixteen points per register, gathering each coordinate once and
//!   broadcasting every centroid coordinate against it (the shape of
//!   Faiss's exhaustive-search kernels); the narrower tiers scan each
//!   point's [`dist16`].
//!
//! All dispatch on [`current_level`], once per call. The SSE tier runs the
//! scalar code, which is the only slow path.
//!
//! **Determinism.** Every element of `gemm_nt`'s output is one dot product
//! accumulated in an order that depends only on `d` and the dispatch level —
//! never on `r`, `k`, or where the element falls in a tile. Projecting a
//! vector alone or as a row of a batch therefore yields the same bits. The
//! batched forms are bit-exact in the same way: every point–centroid
//! distance [`dist16_rows`] or [`nearest16`] computes takes exactly the
//! operations [`dist16`] applies to that lane at that level, so a batch
//! changes only the speed, never a codebook, an assignment or a code.

#[cfg(target_arch = "x86_64")]
use crate::f32dist::hsum256;
use crate::level::{current_level, SimdLevel};
use crate::lut::LUT_BATCH;

/// `out = A·Bᵀ`: `a` holds `r` rows and `b` holds `k` rows of `d` floats,
/// and `out[i * k + j]` receives the dot product of row `i` of `a` with row
/// `j` of `b`.
///
/// # Panics
/// Panics if `d == 0`, if `a` or `b` is not a whole number of rows, or if
/// `out.len() != r * k`.
pub fn gemm_nt(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    assert!(d > 0, "inner dimension must be positive");
    assert!(
        a.len().is_multiple_of(d) && b.len().is_multiple_of(d),
        "operands are not whole rows of {d} floats"
    );
    let (r, k) = (a.len() / d, b.len() / d);
    assert_eq!(out.len(), r * k, "output is not {r}x{k}");
    if out.is_empty() {
        return;
    }
    // SAFETY: `current_level` never exceeds what the CPU supports.
    unsafe { gemm_nt_at(current_level(), a, b, d, out) }
}

/// [`gemm_nt`] at an explicit tier, its arguments already checked.
///
/// # Safety
/// `level` must not exceed [`crate::detect_level`]: a tier is detected only
/// when the CPU has the features its kernels enable (avx512f; avx2 and fma).
unsafe fn gemm_nt_at(level: SimdLevel, a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => gemm_nt_avx512(a, b, d, out),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => gemm_nt_avx2(a, b, d, out),
        _ => gemm_nt_scalar(a, b, d, out),
    }
}

/// Squared Euclidean distances from `x` to 16 centroids stored
/// dimension-major: `codebook[t * 16 + c]` is coordinate `t` of centroid `c`.
///
/// # Panics
/// Panics if `codebook.len() != x.len() * 16`.
#[inline]
pub fn dist16(x: &[f32], codebook: &[f32]) -> [f32; LUT_BATCH] {
    assert_eq!(
        codebook.len(),
        x.len() * LUT_BATCH,
        "codebook is not {} x 16",
        x.len()
    );
    // SAFETY: `current_level` never exceeds what the CPU supports.
    unsafe { dist16_at(current_level(), x, codebook) }
}

/// [`dist16`] at an explicit tier, its arguments already checked.
///
/// # Safety
/// As for [`gemm_nt_at`].
#[inline]
unsafe fn dist16_at(level: SimdLevel, x: &[f32], codebook: &[f32]) -> [f32; LUT_BATCH] {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => dist16_avx512(x, codebook),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => dist16_avx2(x, codebook),
        _ => dist16_scalar(x, codebook),
    }
}

/// [`dist16`] of every row of `rows` (`len = codebook.len() / 16` floats
/// each) into `out`, 16 floats per row, at one dispatch for the batch.
///
/// # Panics
/// Panics unless `codebook` is `len x 16` with `len > 0` and `rows` holds
/// one row for every 16 floats of `out`.
pub fn dist16_rows(rows: &[f32], codebook: &[f32], out: &mut [f32]) {
    let len = codebook.len() / LUT_BATCH;
    assert!(
        len > 0 && codebook.len() == len * LUT_BATCH && rows.len() == out.len() / LUT_BATCH * len,
        "expected a {len} x 16 codebook and 16 outputs per row of {len}"
    );
    let level = current_level();
    for (x, dists) in rows.chunks_exact(len).zip(out.chunks_exact_mut(LUT_BATCH)) {
        // SAFETY: `current_level` never exceeds what the CPU supports.
        dists.copy_from_slice(&unsafe { dist16_at(level, x, codebook) });
    }
}

/// The argmin step of k-means assignment: for each of the `best.len()`
/// points of `points` (`len = block.len() / 16` floats each), scans the
/// first `lanes` centroids of a [`dist16`] block in order and, where one is
/// strictly nearer than `best_d[i]`, stores its distance there and
/// `base + lane` in `best[i]`. Each distance has the bits [`dist16`] gives
/// its lane, so scanning blocks in order scans the whole codebook.
///
/// # Panics
/// Panics if `block` is not whole rows of 16, `lanes > 16`, or `points` and
/// `best_d` do not hold `best.len()` points.
pub fn nearest16(
    points: &[f32],
    block: &[f32],
    lanes: usize,
    base: u32,
    best: &mut [u32],
    best_d: &mut [f32],
) {
    let len = block.len() / LUT_BATCH;
    assert!(
        block.len() == len * LUT_BATCH
            && lanes <= LUT_BATCH
            && points.len() == best.len() * len
            && best_d.len() == best.len(),
        "expected a {len} x 16 block, at most 16 lanes and {} points",
        best.len()
    );
    let level = current_level();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx512 {
        // SAFETY: `current_level` never exceeds what the CPU supports.
        return unsafe { nearest16_avx512(points, block, lanes, base, best, best_d) };
    }
    // The reference, and the path of the narrower tiers: each point's
    // `dist16` scanned in lane order.
    for (i, (b, bd)) in best.iter_mut().zip(best_d).enumerate() {
        // SAFETY: as above.
        let dists = unsafe { dist16_at(level, &points[i * len..(i + 1) * len], block) };
        for (id, &d) in (base..).zip(&dists[..lanes]) {
            if d < *bd {
                (*b, *bd) = (id, d);
            }
        }
    }
}

/// Rearranges `k ≤ 16` row-major centroids of `len` floats into the
/// dimension-major block [`dist16`] reads. Lanes past `k` are zero.
///
/// # Panics
/// Panics if `centroids` is not whole rows, holds more than 16 of them, or
/// `block.len() != len * 16`.
pub fn dist16_block(centroids: &[f32], len: usize, block: &mut [f32]) {
    assert!(
        len > 0 && centroids.len().is_multiple_of(len) && centroids.len() <= len * LUT_BATCH,
        "expected at most 16 centroids of {len} floats"
    );
    assert_eq!(block.len(), len * LUT_BATCH, "block is not {len} x 16");
    block.fill(0.0);
    for (c, centroid) in centroids.chunks_exact(len).enumerate() {
        for (t, &x) in centroid.iter().enumerate() {
            block[t * LUT_BATCH + c] = x;
        }
    }
}

/// Walks an `r×k` output in `MR×NR` tiles, asking `tile` for the dot
/// products of the given rows of `a` with the given rows of `b`.
///
/// The operand with more rows is walked once in the outer loop while the
/// smaller one is revisited from cache. A tile overhanging an edge repeats
/// the last valid row; the repeats are computed and dropped, which keeps the
/// inner loops free of edge cases.
#[inline(always)]
fn for_each_tile<const MR: usize, const NR: usize>(
    r: usize,
    k: usize,
    out: &mut [f32],
    tile: impl Fn([usize; MR], [usize; NR]) -> [[f32; NR]; MR],
) {
    let mut run = |i0: usize, j0: usize| {
        let rows: [usize; MR] = std::array::from_fn(|x| (i0 + x).min(r - 1));
        let cols: [usize; NR] = std::array::from_fn(|y| (j0 + y).min(k - 1));
        let c = tile(rows, cols);
        for (x, c_row) in c.iter().enumerate().take(r - i0) {
            let start = (i0 + x) * k + j0;
            let width = NR.min(k - j0);
            out[start..start + width].copy_from_slice(&c_row[..width]);
        }
    };
    if r >= k {
        for i0 in (0..r).step_by(MR) {
            for j0 in (0..k).step_by(NR) {
                run(i0, j0);
            }
        }
    } else {
        for j0 in (0..k).step_by(NR) {
            for i0 in (0..r).step_by(MR) {
                run(i0, j0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar implementations: the reference order of operations and the path the
// "without SIMD" ablation (paper Table 3) runs.
// ---------------------------------------------------------------------------

fn gemm_nt_scalar(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    let (r, k) = (a.len() / d, b.len() / d);
    // Eight independent sums per tile keep a scalar multiply-add pipeline
    // busy; a lone row of `a` spreads them over eight rows of `b`.
    if r == 1 {
        for_each_tile::<1, 8>(r, k, out, |rows, cols| tile_scalar(a, b, d, rows, cols));
    } else {
        for_each_tile::<2, 4>(r, k, out, |rows, cols| tile_scalar(a, b, d, rows, cols));
    }
}

/// Dot products of rows `rows` of `a` with rows `cols` of `b`, each summed
/// front to back.
#[inline]
fn tile_scalar<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    d: usize,
    rows: [usize; MR],
    cols: [usize; NR],
) -> [[f32; NR]; MR] {
    let ar = rows.map(|i| &a[i * d..(i + 1) * d]);
    let br = cols.map(|j| &b[j * d..(j + 1) * d]);
    let mut acc = [[0.0f32; NR]; MR];
    for t in 0..d {
        for (acc_row, a_row) in acc.iter_mut().zip(ar.iter()) {
            for (sum, b_row) in acc_row.iter_mut().zip(br.iter()) {
                *sum += a_row[t] * b_row[t];
            }
        }
    }
    acc
}

fn dist16_scalar(x: &[f32], codebook: &[f32]) -> [f32; LUT_BATCH] {
    let mut acc = [0.0f32; LUT_BATCH];
    for (&xt, lanes) in x.iter().zip(codebook.chunks_exact(LUT_BATCH)) {
        for (o, &c) in acc.iter_mut().zip(lanes.iter()) {
            let diff = xt - c;
            *o += diff * diff;
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// x86-64 SIMD implementations. One vector accumulator per output element,
// filled chunk by chunk along `d`, the ragged end through a masked load, and
// summed across lanes once at the end.
// ---------------------------------------------------------------------------

/// # Safety
/// The CPU must support avx512f; `a`, `b`, `out` as checked by [`gemm_nt`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_nt_avx512(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    let (r, k) = (a.len() / d, b.len() / d);
    if r == 1 {
        // The matrix-vector product streams `b` once and is bound by the
        // cache that holds it, so a tile repeating the row of `a` would only
        // add work. Four concurrent streams measured fastest.
        for_each_tile::<1, 4>(r, k, out, |rows, cols| unsafe {
            tile_avx512(a, b, d, rows, cols)
        });
    } else {
        // Thirty-two registers: twenty-four accumulators, four of `b`, one
        // of `a`. The tall tile re-reads `b` a third less often than 4x4.
        for_each_tile::<6, 4>(r, k, out, |rows, cols| unsafe {
            tile_avx512(a, b, d, rows, cols)
        });
    }
}

/// Dot products of rows `rows` of `a` with rows `cols` of `b`.
///
/// # Safety
/// The CPU must support avx512f. Row indices out of range panic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    d: usize,
    rows: [usize; MR],
    cols: [usize; NR],
) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    // Bounds-checked once per tile; every load below stays inside these.
    let ar = rows.map(|i| a[i * d..(i + 1) * d].as_ptr());
    let br = cols.map(|j| b[j * d..(j + 1) * d].as_ptr());
    let mut acc = [[_mm512_setzero_ps(); NR]; MR];
    let full = d - d % 16;
    let mut t = 0;
    while t < full {
        let mut bv = [_mm512_setzero_ps(); NR];
        for y in 0..NR {
            // SAFETY: `t + 16 <= full <= d`, the length of each row slice.
            bv[y] = _mm512_loadu_ps(br[y].add(t));
        }
        for x in 0..MR {
            // SAFETY: as above.
            let av = _mm512_loadu_ps(ar[x].add(t));
            for y in 0..NR {
                acc[x][y] = _mm512_fmadd_ps(av, bv[y], acc[x][y]);
            }
        }
        t += 16;
    }
    if full < d {
        let mask: __mmask16 = (1u16 << (d - full)) - 1;
        let mut bv = [_mm512_setzero_ps(); NR];
        for y in 0..NR {
            // SAFETY: the mask enables lanes `full..d` only, and masked-off
            // lanes of a masked load are not accessed.
            bv[y] = _mm512_maskz_loadu_ps(mask, br[y].add(full));
        }
        for x in 0..MR {
            // SAFETY: as above.
            let av = _mm512_maskz_loadu_ps(mask, ar[x].add(full));
            for y in 0..NR {
                acc[x][y] = _mm512_fmadd_ps(av, bv[y], acc[x][y]);
            }
        }
    }
    acc.map(|row| row.map(|v| _mm512_reduce_add_ps(v)))
}

/// # Safety
/// The CPU must support avx512f, and `codebook.len() == x.len() * 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dist16_avx512(x: &[f32], codebook: &[f32]) -> [f32; LUT_BATCH] {
    use std::arch::x86_64::*;
    let mut acc = _mm512_setzero_ps();
    for (t, &xt) in x.iter().enumerate() {
        // SAFETY: `dist16` checked `codebook.len() == x.len() * 16`, so
        // floats `t * 16 .. t * 16 + 16` exist for every `t < x.len()`.
        let c = _mm512_loadu_ps(codebook.as_ptr().add(t * LUT_BATCH));
        let diff = _mm512_sub_ps(_mm512_set1_ps(xt), c);
        acc = _mm512_fmadd_ps(diff, diff, acc);
    }
    let mut out = [0.0f32; LUT_BATCH];
    // SAFETY: `out` is 16 floats.
    _mm512_storeu_ps(out.as_mut_ptr(), acc);
    out
}

/// Sixteen points per register: each coordinate is gathered once and every
/// centroid's broadcast against it, then the lanes are compared in order.
///
/// # Safety
/// The CPU must support avx512f; arguments as checked by [`nearest16`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn nearest16_avx512(
    points: &[f32],
    block: &[f32],
    lanes: usize,
    base: u32,
    best: &mut [u32],
    best_d: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (n, len, zero) = (best.len(), block.len() / LUT_BATCH, _mm512_setzero_ps());
    // Point `j` of a tile starts `j * len` floats after its first.
    let offsets: [i32; 16] = std::array::from_fn(|j| (j * len) as i32);
    let offsets = _mm512_loadu_epi32(offsets.as_ptr());
    for i0 in (0..n).step_by(16) {
        let live: __mmask16 = u16::MAX >> (16 - (n - i0).min(16));
        let tile = points.as_ptr().add(i0 * len);
        let mut acc = [zero; LUT_BATCH];
        for (t, row) in block.chunks_exact(LUT_BATCH).enumerate() {
            // SAFETY: live lanes read coordinate `t` of points `i0..n`, and
            // masked-off lanes of a masked gather are not accessed.
            let x = _mm512_mask_i32gather_ps::<4>(zero, live, offsets, tile.add(t).cast());
            for (a, &c) in acc.iter_mut().zip(row) {
                let diff = _mm512_sub_ps(x, _mm512_set1_ps(c));
                *a = _mm512_fmadd_ps(diff, diff, *a);
            }
        }
        // SAFETY: as above, for points `i0..n` of `best` and `best_d`.
        let mut bd = _mm512_maskz_loadu_ps(live, best_d.as_ptr().add(i0));
        let mut bi = _mm512_maskz_loadu_epi32(live, best.as_ptr().add(i0).cast());
        for (id, &a) in (base..).zip(&acc[..lanes]) {
            let nearer = _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(live, a, bd);
            bd = _mm512_mask_mov_ps(bd, nearer, a);
            bi = _mm512_mask_mov_epi32(bi, nearer, _mm512_set1_epi32(id as i32));
        }
        _mm512_mask_storeu_ps(best_d.as_mut_ptr().add(i0), live, bd);
        _mm512_mask_storeu_epi32(best.as_mut_ptr().add(i0).cast(), live, bi);
    }
}

/// # Safety
/// The CPU must support avx2 and fma; `a`, `b`, `out` as checked by
/// [`gemm_nt`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nt_avx2(a: &[f32], b: &[f32], d: usize, out: &mut [f32]) {
    let (r, k) = (a.len() / d, b.len() / d);
    if r == 1 {
        for_each_tile::<1, 4>(r, k, out, |rows, cols| unsafe {
            tile_avx2(a, b, d, rows, cols)
        });
    } else {
        // Sixteen registers: eight accumulators, four of `b`, one of `a`.
        for_each_tile::<2, 4>(r, k, out, |rows, cols| unsafe {
            tile_avx2(a, b, d, rows, cols)
        });
    }
}

/// `-1` in the lanes a ragged end of `rem` floats occupies: the eight
/// entries starting at `8 - rem`.
#[cfg(target_arch = "x86_64")]
static AVX2_TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// Dot products of rows `rows` of `a` with rows `cols` of `b`.
///
/// # Safety
/// The CPU must support avx2 and fma. Row indices out of range panic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tile_avx2<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    d: usize,
    rows: [usize; MR],
    cols: [usize; NR],
) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    // Bounds-checked once per tile; every load below stays inside these.
    let ar = rows.map(|i| a[i * d..(i + 1) * d].as_ptr());
    let br = cols.map(|j| b[j * d..(j + 1) * d].as_ptr());
    let mut acc = [[_mm256_setzero_ps(); NR]; MR];
    let full = d - d % 8;
    let mut t = 0;
    while t < full {
        let mut bv = [_mm256_setzero_ps(); NR];
        for y in 0..NR {
            // SAFETY: `t + 8 <= full <= d`, the length of each row slice.
            bv[y] = _mm256_loadu_ps(br[y].add(t));
        }
        for x in 0..MR {
            // SAFETY: as above.
            let av = _mm256_loadu_ps(ar[x].add(t));
            for y in 0..NR {
                acc[x][y] = _mm256_fmadd_ps(av, bv[y], acc[x][y]);
            }
        }
        t += 8;
    }
    if full < d {
        // SAFETY: `1 <= d - full <= 7`, so the eight-entry window starts at
        // index 1..=7 of the sixteen-entry table.
        let mask = _mm256_loadu_si256(AVX2_TAIL_MASK.as_ptr().add(8 - (d - full)).cast());
        let mut bv = [_mm256_setzero_ps(); NR];
        for y in 0..NR {
            // SAFETY: the mask enables lanes `full..d` only, and masked-off
            // lanes of a masked load are not accessed.
            bv[y] = _mm256_maskload_ps(br[y].add(full), mask);
        }
        for x in 0..MR {
            // SAFETY: as above.
            let av = _mm256_maskload_ps(ar[x].add(full), mask);
            for y in 0..NR {
                acc[x][y] = _mm256_fmadd_ps(av, bv[y], acc[x][y]);
            }
        }
    }
    acc.map(|row| row.map(|v| hsum256(v)))
}

/// # Safety
/// The CPU must support avx2 and fma, and `codebook.len() == x.len() * 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dist16_avx2(x: &[f32], codebook: &[f32]) -> [f32; LUT_BATCH] {
    use std::arch::x86_64::*;
    let mut lo = _mm256_setzero_ps();
    let mut hi = _mm256_setzero_ps();
    for (t, &xt) in x.iter().enumerate() {
        let xv = _mm256_set1_ps(xt);
        // SAFETY: `dist16` checked `codebook.len() == x.len() * 16`, so
        // floats `t * 16 .. t * 16 + 16` exist for every `t < x.len()`.
        let row = codebook.as_ptr().add(t * LUT_BATCH);
        let dl = _mm256_sub_ps(xv, _mm256_loadu_ps(row));
        let dh = _mm256_sub_ps(xv, _mm256_loadu_ps(row.add(8)));
        lo = _mm256_fmadd_ps(dl, dl, lo);
        hi = _mm256_fmadd_ps(dh, dh, hi);
    }
    let mut out = [0.0f32; LUT_BATCH];
    // SAFETY: `out` is 16 floats, 8 per store.
    _mm256_storeu_ps(out.as_mut_ptr(), lo);
    _mm256_storeu_ps(out.as_mut_ptr().add(8), hi);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{serialize_level_tests, supported_levels, with_level};

    /// Deterministic values in `[-0.5, 0.5)`.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(11);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32) / 16777216.0 - 0.5
            })
            .collect()
    }

    fn dims() -> impl Iterator<Item = usize> {
        (1..=67).chain([256, 768])
    }

    /// `gemm_nt` against an `f64` reference at every dispatch level, over
    /// every tile-edge shape and ragged `d`, with both operands starting at
    /// offsets that break any alignment.
    ///
    /// Tolerance: `|got − exact| ≤ d·ε·Σ|aₜbₜ|` with `ε = f32::EPSILON` —
    /// twice the classical `γ_d` bound on a length-`d` `f32` dot product, so
    /// it holds for any order of summation, fused or not.
    #[test]
    fn gemm_nt_matches_f64_reference_at_every_level() {
        for level in supported_levels() {
            for d in dims() {
                for r in 1..=9usize {
                    for k in [1usize, 15, 16, 17, 64] {
                        let (off_a, off_b) = (1 + (d + r) % 3, 1 + (d + k) % 5);
                        let a_buf = values(off_a + r * d, (d * 31 + r) as u64);
                        let b_buf = values(off_b + k * d, (d * 17 + k) as u64);
                        let (a, b) = (&a_buf[off_a..], &b_buf[off_b..]);
                        let mut got = vec![f32::NAN; r * k];
                        // SAFETY: `supported_levels` lists detected tiers only.
                        unsafe { gemm_nt_at(level, a, b, d, &mut got) };
                        for i in 0..r {
                            for j in 0..k {
                                let (mut exact, mut scale) = (0.0f64, 0.0f64);
                                for t in 0..d {
                                    let p = f64::from(a[i * d + t]) * f64::from(b[j * d + t]);
                                    exact += p;
                                    scale += p.abs();
                                }
                                let tol = d as f64 * f64::from(f32::EPSILON) * scale;
                                let err = (f64::from(got[i * k + j]) - exact).abs();
                                assert!(
                                    err <= tol,
                                    "{level:?} d={d} r={r} k={k} ({i},{j}): {} vs {exact} (tol {tol})",
                                    got[i * k + j]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The determinism contract: a row projected alone has the same bits as
    /// the same row inside a batch, whatever the batch's shape.
    #[test]
    fn gemm_nt_rows_do_not_depend_on_batch_shape() {
        for level in supported_levels() {
            for d in [1usize, 7, 16, 37, 64, 67, 256, 768] {
                for k in [1usize, 5, 16, 17, 64] {
                    let r = 9;
                    let a = values(r * d, d as u64);
                    let b = values(k * d, (d + k) as u64);
                    let mut batch = vec![0.0f32; r * k];
                    // SAFETY: `supported_levels` lists detected tiers only.
                    unsafe { gemm_nt_at(level, &a, &b, d, &mut batch) };
                    for i in 0..r {
                        let mut alone = vec![0.0f32; k];
                        // SAFETY: as above.
                        unsafe { gemm_nt_at(level, &a[i * d..(i + 1) * d], &b, d, &mut alone) };
                        assert_eq!(
                            alone,
                            &batch[i * k..(i + 1) * k],
                            "{level:?} d={d} k={k} row {i}"
                        );
                    }
                }
            }
        }
    }

    /// `dist16` against an `f64` reference at every level, sub-vector
    /// lengths 1..=8 (and a long one), unaligned operands.
    ///
    /// Tolerance: `(len + 2)·ε·Σ(xₜ − cₜ)²` — each difference and square
    /// rounds once, then a length-`len` accumulation.
    #[test]
    fn dist16_matches_f64_reference_at_every_level() {
        for level in supported_levels() {
            for len in (1..=8usize).chain([96]) {
                for off in 0..4usize {
                    let x_buf = values(off + len, (len * 7 + off) as u64);
                    let cb_buf = values(off + 1 + len * 16, (len * 13 + off) as u64);
                    let (x, cb) = (&x_buf[off..], &cb_buf[off + 1..]);
                    // SAFETY: `supported_levels` lists detected tiers only.
                    let got = unsafe { dist16_at(level, x, cb) };
                    for c in 0..16 {
                        let exact: f64 = (0..len)
                            .map(|t| (f64::from(x[t]) - f64::from(cb[t * 16 + c])).powi(2))
                            .sum();
                        let tol = (len + 2) as f64 * f64::from(f32::EPSILON) * exact;
                        assert!(
                            (f64::from(got[c]) - exact).abs() <= tol,
                            "{level:?} len={len} off={off} c={c}: {} vs {exact}",
                            got[c]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dist16_block_is_the_layout_dist16_reads() {
        let len = 3;
        let centroids = values(5 * len, 3);
        let mut block = vec![f32::NAN; len * 16];
        dist16_block(&centroids, len, &mut block);
        let x = values(len, 4);
        let got = dist16(&x, &block);
        for c in 0..5 {
            let want = crate::f32dist::l2_sq_scalar(&x, &centroids[c * len..(c + 1) * len]);
            assert!((got[c] - want).abs() <= 1e-6 * (1.0 + want), "centroid {c}");
        }
        // Padding lanes hold the zero centroid.
        let norm: f32 = x.iter().map(|v| v * v).sum();
        assert!((got[5] - norm).abs() <= 1e-6 * (1.0 + norm));
    }

    /// A `len x 16` block with the awkward lanes planted: lanes 4, 9 and 15
    /// tie lanes 1, 2 and 14 exactly, lane 3 is the origin in alternating
    /// `±0.0`, lanes 6 and 13 hold `+∞` and `−∞`, lane 11 a NaN.
    fn awkward_block(len: usize, seed: u64) -> Vec<f32> {
        let mut block = values(len * LUT_BATCH, seed);
        for (t, row) in block.chunks_exact_mut(LUT_BATCH).enumerate() {
            (row[4], row[9], row[15]) = (row[1], row[2], row[14]);
            row[3] = if t % 2 == 0 { 0.0 } else { -0.0 };
        }
        block[6] = f32::INFINITY;
        block[(len - 1) * LUT_BATCH + 13] = f32::NEG_INFINITY;
        block[11] = f32::NAN;
        block
    }

    /// `n` points for [`awkward_block`]: point 2 sits on lane 1 (a zero
    /// distance tied with lane 4), point 3 on the `±0.0` origin, and points
    /// 5 and 8 carry `+∞` and NaN coordinates.
    fn awkward_points(n: usize, len: usize, block: &[f32], seed: u64) -> Vec<f32> {
        let mut points = values(n * len, seed);
        for (i, p) in points.chunks_exact_mut(len).enumerate() {
            for (t, x) in p.iter_mut().enumerate() {
                match i {
                    2 => *x = block[t * LUT_BATCH + 1],
                    3 => *x = if t % 2 == 0 { -0.0 } else { 0.0 },
                    5 if t == 0 => *x = f32::INFINITY,
                    8 if t == len - 1 => *x = f32::NAN,
                    _ => {}
                }
            }
        }
        points
    }

    /// `nearest16` at every level equals scanning each point's `dist16` at
    /// that level with a strict `<`, bit for bit: ties keep the first lane,
    /// NaN never wins, and a pre-seeded `best_d` below every lane keeps its
    /// point. Operands start at offsets that break any alignment.
    #[test]
    fn nearest16_is_the_dist16_scan_at_every_level() {
        let _serial = serialize_level_tests();
        let seeds = [f32::INFINITY, f32::NAN, 0.0, -0.0, 1e-3, 0.3, 1e30, -1.0];
        for level in supported_levels() {
            for len in (1..=9usize).chain([16, 17, 96]) {
                let off = 1 + len % 3;
                let block_buf = [vec![0.0; off], awkward_block(len, len as u64)].concat();
                let block = &block_buf[off..];
                for n in [0usize, 1, 15, 16, 17, 1000] {
                    let points = awkward_points(n, len, block, (n * len) as u64);
                    let points_buf = [vec![0.0; off + 1], points].concat();
                    let points = &points_buf[off + 1..];
                    for lanes in [1usize, 5, 15, 16] {
                        let mut best: Vec<u32> = (0..n as u32 + 1).map(|i| 1_000 + i).collect();
                        let mut best_d: Vec<f32> = (0..n + 1).map(|i| seeds[i % 8]).collect();
                        let (mut want, mut want_d) = (best.clone(), best_d.clone());
                        for i in 0..n {
                            // SAFETY: `supported_levels` lists detected tiers only.
                            let d = unsafe { dist16_at(level, &points[i * len..][..len], block) };
                            for (lane, &d) in d.iter().enumerate().take(lanes) {
                                if d < want_d[i + 1] {
                                    (want[i + 1], want_d[i + 1]) = (64 + lane as u32, d);
                                }
                            }
                        }
                        with_level(level, || {
                            nearest16(points, block, lanes, 64, &mut best[1..], &mut best_d[1..]);
                        });
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let case = format!("{level:?} len={len} n={n} lanes={lanes}");
                        assert_eq!(best, want, "{case}");
                        assert_eq!(bits(&best_d), bits(&want_d), "{case}");
                    }
                }
            }
        }
    }

    /// `dist16_rows` at every level is `dist16` of each row, bit for bit.
    #[test]
    fn dist16_rows_is_dist16_of_each_row_at_every_level() {
        let _serial = serialize_level_tests();
        for level in supported_levels() {
            for len in (1..=9usize).chain([16, 17, 96]) {
                let block = awkward_block(len, len as u64);
                let rows = awkward_points(40, len, &block, 7 + len as u64);
                let rows_buf = [vec![0.0; 1 + len % 3], rows].concat();
                let rows = &rows_buf[1 + len % 3..];
                let mut got = vec![0.0f32; 40 * LUT_BATCH];
                with_level(level, || dist16_rows(rows, &block, &mut got));
                for (x, got) in rows.chunks_exact(len).zip(got.chunks_exact(LUT_BATCH)) {
                    // SAFETY: `supported_levels` lists detected tiers only.
                    let want = unsafe { dist16_at(level, x, &block) };
                    let got: Vec<u32> = got.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, want.map(f32::to_bits), "{level:?} len={len}");
                }
            }
        }
    }

    #[test]
    fn empty_operands_produce_empty_output() {
        gemm_nt(&[], &[1.0, 2.0], 2, &mut []);
        gemm_nt(&[1.0, 2.0], &[], 2, &mut []);
    }

    #[test]
    #[should_panic(expected = "output is not 2x3")]
    fn gemm_nt_rejects_wrong_output_length() {
        gemm_nt(&[0.0; 4], &[0.0; 6], 2, &mut [0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "codebook is not 3 x 16")]
    fn dist16_rejects_wrong_codebook_length() {
        let _ = dist16(&[0.0; 3], &[0.0; 47]);
    }
}
