//! Lloyd's k-means with k-means++ seeding.
//!
//! Shared by PQ (one codebook per subspace) and Flash (16-centroid
//! codebooks). Training sets here are small samples (the paper samples a
//! subset "following PQ and its variants"), so a straightforward
//! rayon-parallel Lloyd iteration is plenty.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use simdops::{dist16, dist16_block, l2_sq, LUT_BATCH};

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
        let new_c = centroids[c * dim..(c + 1) * dim].to_vec();
        min_d2
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, d)| *d = d.min(l2_sq(point(i), &new_c)));
    }

    // --- Lloyd iterations --------------------------------------------------
    // The assignment step scans the centroids sixteen at a time through
    // `dist16`, from dimension-major blocks refreshed each iteration.
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
        let new_assignments: Vec<u32> = (0..n)
            .into_par_iter()
            .map(|i| {
                let p = point(i);
                let mut best = 0u32;
                let mut best_d = f32::INFINITY;
                for (b, block) in blocks.chunks_exact(block_len).enumerate() {
                    let first = b * LUT_BATCH;
                    let dists = dist16(p, block);
                    for (lane, &d) in dists.iter().enumerate().take(k - first) {
                        if d < best_d {
                            best_d = d;
                            best = (first + lane) as u32;
                        }
                    }
                }
                best
            })
            .collect();
        let changed = new_assignments != assignments;
        assignments = new_assignments;

        // Update step (f64 accumulation).
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(point(i).iter()) {
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
