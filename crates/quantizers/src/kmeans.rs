//! Lloyd's k-means with k-means++ seeding, and the per-subspace trainer
//! behind PQ and Flash.
//!
//! Training sets here are small samples (the paper samples a subset
//! "following PQ and its variants"), so a straightforward Lloyd iteration is
//! plenty. Its distance passes run through batched `simdops` kernels over
//! pieces of points — the k-means++ update through `l2_sq_min_rows`, the
//! assignment through `nearest16` — each giving the bits of the per-point
//! `l2_sq` / `dist16` scan it replaces.
//!
//! The parallelism lives at two levels of the rayon pool.
//! [`train_subspaces`] trains its spans concurrently, and a k-means inside a
//! span job runs inline. A k-means on its own — called directly, or as the
//! one span of a one-subspace PQ/OPQ — spreads its passes, the empty-cluster
//! search and the inertia over point pieces instead. Every item is computed
//! on its own and the reduce and sum fold in index order, so the result is
//! the same bits at any thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use simdops::{dist16_block, l2_sq, l2_sq_min_rows, nearest16, LUT_BATCH};

/// Points per piece of a batched pass: a piece's rows stay in L1 while every
/// centroid block is scanned against them.
const PIECE: usize = 256;

/// Runs `f(first, piece)` on `out` cut into pieces of [`PIECE`] items spread
/// over the pool; `first` is the index of the piece's first item.
fn for_each_piece<T: Send>(out: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let mut pieces: Vec<_> = out.chunks_mut(PIECE).enumerate().collect();
    pieces.par_iter_mut().for_each(|(p, d)| f(*p * PIECE, d));
}

/// Output of [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `k * dim` row-major centroid matrix.
    pub centroids: Vec<f32>,
    /// Assignment of each training point to its centroid.
    pub assignments: Vec<u32>,
    /// Final mean squared distance of points to their centroid.
    pub inertia: f64,
    /// Iterations actually run (may stop early on convergence).
    pub iterations: usize,
}

impl KMeansResult {
    /// Borrow centroid `c`.
    pub fn centroid(&self, c: usize, dim: usize) -> &[f32] {
        &self.centroids[c * dim..(c + 1) * dim]
    }
}

/// Runs k-means over `points` (row-major, `n * dim`).
///
/// * k-means++ seeding for spread-out initial centroids;
/// * Lloyd iterations until assignments stabilize or `max_iters` is hit;
/// * empty clusters are re-seeded from the point currently farthest from its
///   centroid, so the returned codebook always has `k` distinct roles.
///
/// # Panics
/// Panics if `points` is not a multiple of `dim`, `k == 0`, or there are no
/// points.
pub fn kmeans(points: &[f32], dim: usize, k: usize, max_iters: usize, seed: u64) -> KMeansResult {
    assert!(dim > 0 && k > 0, "dim and k must be positive");
    assert!(
        points.len().is_multiple_of(dim),
        "points not a multiple of dim"
    );
    let n = points.len() / dim;
    assert!(n > 0, "k-means needs at least one point");
    let point = |i: usize| &points[i * dim..(i + 1) * dim];

    let mut rng = SmallRng::seed_from_u64(seed);

    // --- k-means++ seeding -------------------------------------------------
    let mut centroids = vec![0.0f32; k * dim];
    let first = rng.gen_range(0..n);
    centroids[..dim].copy_from_slice(point(first));
    let mut min_d2: Vec<f32> = (0..n).map(|i| l2_sq(point(i), &centroids[..dim])).collect();
    for c in 1..k {
        let total: f64 = min_d2.iter().map(|&d| f64::from(d)).sum();
        let chosen = if total <= f64::EPSILON {
            rng.gen_range(0..n) // all points coincide with some centroid
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= f64::from(d);
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids[c * dim..(c + 1) * dim].copy_from_slice(point(chosen));
        // Update nearest-centroid distances.
        let new_c = &centroids[c * dim..(c + 1) * dim];
        for_each_piece(&mut min_d2, |first, d| {
            l2_sq_min_rows(&points[first * dim..(first + d.len()) * dim], new_c, d);
        });
    }

    // --- Lloyd iterations --------------------------------------------------
    // The assignment step scans the centroids sixteen at a time through
    // `nearest16`, from dimension-major blocks refreshed each iteration.
    let block_len = dim * LUT_BATCH;
    let mut blocks = vec![0.0f32; k.div_ceil(LUT_BATCH) * block_len];
    let mut assignments = vec![u32::MAX; n];
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        for (block, group) in blocks
            .chunks_exact_mut(block_len)
            .zip(centroids.chunks(block_len))
        {
            dist16_block(group, dim, block);
        }
        // Assignment step: the first centroid at the minimum distance.
        let mut new_assignments = vec![0u32; n];
        for_each_piece(&mut new_assignments, |first, best| {
            let rows = &points[first * dim..(first + best.len()) * dim];
            let mut dist = vec![f32::INFINITY; best.len()];
            for (b, block) in blocks.chunks_exact(block_len).enumerate() {
                let base = b * LUT_BATCH;
                let lanes = (k - base).min(LUT_BATCH);
                nearest16(rows, block, lanes, base as u32, best, &mut dist);
            }
        });
        let changed = new_assignments != assignments;
        assignments = new_assignments;

        // Update step (f64 accumulation).
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.chunks_exact(dim).zip(&assignments) {
            let c = a as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
                *s += f64::from(x);
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster from the worst-served point.
                let worst = (0..n)
                    .into_par_iter()
                    .map(|i| {
                        let a = assignments[i] as usize;
                        (i, l2_sq(point(i), &centroids[a * dim..(a + 1) * dim]))
                    })
                    .reduce(
                        || (0, f32::NEG_INFINITY),
                        |x, y| if x.1 >= y.1 { x } else { y },
                    )
                    .0;
                centroids[c * dim..(c + 1) * dim].copy_from_slice(point(worst));
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(sums[c * dim..(c + 1) * dim].iter())
                {
                    *dst = (s * inv) as f32;
                }
            }
        }

        if !changed && iter > 0 {
            break;
        }
    }

    let inertia = (0..n)
        .into_par_iter()
        .map(|i| {
            let a = assignments[i] as usize;
            f64::from(l2_sq(point(i), &centroids[a * dim..(a + 1) * dim]))
        })
        .sum::<f64>()
        / n as f64;

    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// One subspace of a product codebook: `len` dimensions from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First dimension.
    pub start: usize,
    /// Number of dimensions.
    pub len: usize,
}

/// One subspace trained by [`train_subspaces`].
#[derive(Debug, Clone)]
pub struct Subspace {
    /// The dimensions it covers.
    pub span: Span,
    /// The training rows cut to `span`, row-major.
    pub points: Vec<f32>,
    /// Its codebook, trained on `points`.
    pub kmeans: KMeansResult,
}

/// The per-subspace trainer behind PQ and Flash: splits `dim` dimensions
/// into `m` spans, the first `dim % m` one dimension longer, and runs
/// [`kmeans`] with `k` centroids on each span's columns of `rows`
/// (row-major, `dim` floats each), span `s` seeded `seed.wrapping_add(s)`.
/// The spans train concurrently on the pool; results come back in span
/// order.
///
/// # Panics
/// Panics if `m == 0`, `m > dim`, or `rows` holds no whole row.
pub fn train_subspaces(
    rows: &[f32],
    dim: usize,
    m: usize,
    k: usize,
    max_iters: usize,
    seed: u64,
) -> Vec<Subspace> {
    assert!(m > 0 && m <= dim, "m must be in 1..=dim");
    let (base, extra) = (dim / m, dim % m);
    (0..m)
        .into_par_iter()
        .map(|s| {
            let span = Span {
                start: s * base + s.min(extra),
                len: base + usize::from(s < extra),
            };
            let mut points = Vec::with_capacity(rows.len() / dim * span.len);
            for row in rows.chunks_exact(dim) {
                points.extend_from_slice(&row[span.start..span.start + span.len]);
            }
            let kmeans = kmeans(&points, span.len, k, max_iters, seed.wrapping_add(s as u64));
            Subspace {
                span,
                points,
                kmeans,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs in 2-D.
    fn blobs() -> Vec<f32> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f32 * 0.01;
            pts.extend_from_slice(&[0.0 + j, 0.0 - j]);
            pts.extend_from_slice(&[10.0 + j, 10.0 - j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = blobs();
        let r = kmeans(&pts, 2, 2, 25, 42);
        let c0 = r.centroid(0, 2);
        let c1 = r.centroid(1, 2);
        let near_origin = |c: &[f32]| c[0].abs() < 1.0 && c[1].abs() < 1.0;
        let near_ten = |c: &[f32]| (c[0] - 10.0).abs() < 1.0 && (c[1] - 10.0).abs() < 1.0;
        assert!(
            (near_origin(c0) && near_ten(c1)) || (near_origin(c1) && near_ten(c0)),
            "centroids: {c0:?} {c1:?}"
        );
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = blobs();
        let r1 = kmeans(&pts, 2, 1, 25, 7);
        let r2 = kmeans(&pts, 2, 2, 25, 7);
        assert!(r2.inertia < r1.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        let r = kmeans(&pts, 2, 3, 25, 1);
        assert!(r.inertia < 1e-9, "inertia {}", r.inertia);
    }

    #[test]
    fn deterministic_for_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 2, 4, 10, 5);
        let b = kmeans(&pts, 2, 4, 10, 5);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn more_clusters_than_distinct_points_survives() {
        // 3 identical points, k = 2: must not panic or NaN.
        let pts = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let r = kmeans(&pts, 2, 2, 10, 3);
        assert!(r.centroids.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn three_threads_equal_one_bit_for_bit() {
        // 40 distinct points, 50 copies each, and k = 48: at least eight
        // clusters run empty every iteration, so the worst-served-point
        // reduce runs alongside the parallel seeding, assignment and
        // inertia.
        let mut rng = SmallRng::seed_from_u64(17);
        let distinct: Vec<f32> = (0..40 * 6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pts: Vec<f32> = (0..2000)
            .flat_map(|i| distinct[(i % 40) * 6..(i % 40 + 1) * 6].to_vec())
            .collect();
        let at = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("a pool");
            pool.install(|| kmeans(&pts, 6, 48, 12, 23))
        };
        let bits =
            |r: &KMeansResult| -> Vec<u32> { r.centroids.iter().map(|c| c.to_bits()).collect() };
        let (one, three) = (at(1), at(3));
        assert_eq!(bits(&one), bits(&three));
        assert_eq!(one.assignments, three.assignments);
        assert_eq!(one.inertia.to_bits(), three.inertia.to_bits());
        assert_eq!(one.iterations, three.iterations);
    }

    #[test]
    fn train_subspaces_front_loads_spans_and_wraps_seeds() {
        // dim = 7, m = 3: spans (0, 3), (3, 2), (5, 2); span `s` is k-means
        // on its columns seeded `seed + s`, which wraps past `u64::MAX`.
        let mut rng = SmallRng::seed_from_u64(3);
        let rows: Vec<f32> = (0..60 * 7).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let seed = u64::MAX - 1;
        let subs = train_subspaces(&rows, 7, 3, 4, 6, seed);
        let spans: Vec<(usize, usize)> = subs.iter().map(|s| (s.span.start, s.span.len)).collect();
        assert_eq!(spans, [(0, 3), (3, 2), (5, 2)]);
        for (s, sub) in subs.iter().enumerate() {
            let cols: Vec<f32> = (rows.chunks_exact(7))
                .flat_map(|r| r[sub.span.start..sub.span.start + sub.span.len].to_vec())
                .collect();
            assert_eq!(sub.points, cols, "span {s}");
            let want = kmeans(&cols, sub.span.len, 4, 6, seed.wrapping_add(s as u64));
            assert_eq!(sub.kmeans.centroids, want.centroids, "span {s}");
            assert_eq!(sub.kmeans.assignments, want.assignments, "span {s}");
        }
    }

    #[test]
    fn assignments_point_to_nearest_centroid() {
        let pts = blobs();
        let r = kmeans(&pts, 2, 2, 25, 9);
        for i in 0..pts.len() / 2 {
            let p = &pts[i * 2..i * 2 + 2];
            let assigned = r.assignments[i] as usize;
            let da = l2_sq(p, r.centroid(assigned, 2));
            for c in 0..2 {
                assert!(da <= l2_sq(p, r.centroid(c, 2)) + 1e-5);
            }
        }
    }
}
