//! ADSampling search (Gao & Long 2023), reproduced for the paper's
//! Figure 13 generality experiment.
//!
//! ADSampling rotates the space by a random orthogonal matrix and evaluates
//! distances *progressively*: after the first `d` coordinates the partial
//! squared distance is an unbiased `d/D` fraction of the total, so a
//! candidate provably worse than the current threshold can be abandoned
//! early with a hypothesis test. The construction path of the index is the
//! standard one — which is exactly why Flash composes with it.
//!
//! Implementation notes vs. the original: rotation is applied in blocks of
//! ≤ 64 dimensions (orthogonal per block, distance-preserving, O(64·D) per
//! vector instead of O(D²)); the test uses the original paper's
//! `(1 + ε₀/√d)²` inflation factor at fixed checkpoints.

use crate::graph::GraphLayers;
use crate::scratch::with_scratch;
use crate::Hit;
use linalg::random_orthogonal;
use vecstore::VectorSet;

/// A searcher holding block-rotated vectors and the abandon test settings.
pub struct AdSampler {
    rotated: VectorSet,
    block: usize,
    rotation: linalg::Matrix,
    /// Confidence inflation ε₀ (the original paper suggests ~2.1).
    pub epsilon0: f32,
    /// Dimensions evaluated between hypothesis tests.
    pub delta_d: usize,
}

/// Counters describing how much work the progressive evaluation skipped.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdStats {
    /// Distance evaluations started.
    pub evals: u64,
    /// Evaluations abandoned before the last dimension.
    pub abandoned: u64,
}

impl AdSampler {
    /// Rotates `base` and prepares the searcher.
    pub fn new(base: &VectorSet, epsilon0: f32, delta_d: usize, seed: u64) -> Self {
        let d = base.dim();
        let block = d.min(64);
        let rotation = random_orthogonal(block, seed);
        let mut rotated = VectorSet::with_capacity(d, base.len());
        let mut buf = vec![0.0f32; d];
        for v in base.iter() {
            rotate_into(&rotation, block, v, &mut buf);
            rotated.push(&buf);
        }
        Self {
            rotated,
            block,
            rotation,
            epsilon0,
            delta_d: delta_d.max(8),
        }
    }

    /// Rotates a query into the sampler's basis.
    pub fn rotate_query(&self, q: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; q.len()];
        rotate_into(&self.rotation, self.block, q, &mut out);
        out
    }

    /// Progressive distance with early abandon: returns `None` when the
    /// hypothesis test concludes the true distance exceeds `threshold`.
    pub fn dist_or_abandon(&self, q_rot: &[f32], id: u32, threshold: f32) -> Option<f32> {
        let v = self.rotated.get(id as usize);
        let d_total = v.len();
        let mut partial = 0.0f32;
        let mut d_seen = 0usize;
        while d_seen < d_total {
            let step = self.delta_d.min(d_total - d_seen);
            partial += simdops::l2_sq(&q_rot[d_seen..d_seen + step], &v[d_seen..d_seen + step]);
            d_seen += step;
            if d_seen < d_total && threshold.is_finite() {
                // Abandon if the scaled partial already clears the inflated
                // threshold: partial > thr * (d/D) * (1 + ε0/√d)².
                let ratio = d_seen as f32 / d_total as f32;
                let infl = 1.0 + self.epsilon0 / (d_seen as f32).sqrt();
                if partial > threshold * ratio * infl * infl {
                    return None;
                }
            }
        }
        Some(partial)
    }

    /// HNSW-style search over a frozen graph with progressive distances.
    /// Returns the hits and the abandon statistics.
    pub fn search(
        &self,
        graph: &GraphLayers,
        query: &[f32],
        k: usize,
        ef: usize,
    ) -> (Vec<Hit>, AdStats) {
        let mut stats = AdStats::default();
        if graph.is_empty() {
            return (Vec::new(), stats);
        }
        // The entry is admitted unconditionally, so the result set never
        // holds fewer than one vertex.
        let ef = ef.max(k).max(1);
        let q_rot = self.rotate_query(query);

        // Greedy descent through upper layers with full distances (cheap:
        // few hops) — abandonment only pays off in the base-layer beam.
        let mut profile = metrics::QueryProfile::new();
        let mut cur = graph.entry;
        let mut cur_d = simdops::l2_sq(&q_rot, self.rotated.get(cur as usize));
        profile.dist_exact += 1;
        for layer in (1..=graph.max_layer).rev() {
            loop {
                let mut improved = false;
                profile.hops_upper += 1;
                for &nb in graph.neighbors(layer, cur) {
                    let d = simdops::l2_sq(&q_rot, self.rotated.get(nb as usize));
                    stats.evals += 1;
                    profile.dist_exact += 1;
                    if d < cur_d {
                        cur = nb;
                        cur_d = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        crate::scratch::profile_record(profile);

        // Base-layer beam with early abandon. Per-query state is pooled;
        // the progressive evaluation itself cannot be block-batched (each
        // neighbor's threshold depends on the admissions before it), so
        // only the visited set and heaps change — the loop is untouched.
        with_scratch(|scratch| {
            scratch.visited.begin(graph.len());
            scratch.visited.check_and_mark(cur);
            scratch.profile.visited_inserts += 1;
            scratch.beam.reset();
            scratch.beam.push_result(cur_d, cur, ef);
            scratch.beam.push_frontier(cur_d, cur);

            while let Some((d, u)) = scratch.beam.pop_frontier() {
                if d > scratch.beam.worst() && scratch.beam.len() >= ef {
                    break;
                }
                if let Some(next) = scratch.beam.peek_frontier() {
                    simdops::prefetch_slice(self.rotated.get(next as usize));
                }
                scratch.profile.hops_base += 1;
                for &nb in graph.neighbors(0, u) {
                    if scratch.visited.check_and_mark(nb) {
                        continue;
                    }
                    scratch.profile.visited_inserts += 1;
                    scratch.profile.dist_exact += 1;
                    let threshold = if scratch.beam.len() >= ef {
                        scratch.beam.worst()
                    } else {
                        f32::INFINITY
                    };
                    stats.evals += 1;
                    match self.dist_or_abandon(&q_rot, nb, threshold) {
                        // Strict `<`: a distance the abandon test would
                        // have cut off at the threshold is not admitted.
                        Some(nd) => {
                            if scratch.beam.len() < ef || nd < threshold {
                                scratch.beam.push_result(nd, nb, ef);
                                scratch.beam.push_frontier(nd, nb);
                            }
                        }
                        None => stats.abandoned += 1,
                    }
                }
            }
            (scratch.beam.drain_hits(k), stats)
        })
    }
}

/// Applies the block rotation to `v`, writing into `out` (tail dimensions
/// beyond the last full block are copied unrotated).
fn rotate_into(rotation: &linalg::Matrix, block: usize, v: &[f32], out: &mut [f32]) {
    let mut i = 0;
    while i + block <= v.len() {
        let rotated = rotation.matvec(&v[i..i + block]);
        out[i..i + block].copy_from_slice(&rotated);
        i += block;
    }
    out[i..].copy_from_slice(&v[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::{Hnsw, HnswParams};
    use crate::providers::FullPrecision;

    fn grid(side: usize) -> VectorSet {
        let mut s = VectorSet::new(4);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f32, j as f32, (i + j) as f32 * 0.5, 0.0]);
            }
        }
        s
    }

    #[test]
    fn rotation_preserves_distances() {
        let base = grid(8);
        let sampler = AdSampler::new(&base, 2.1, 16, 1);
        let q = [1.5f32, 2.5, 2.0, 0.0];
        let q_rot = sampler.rotate_query(&q);
        for id in 0..10u32 {
            let exact = simdops::l2_sq(&q, base.get(id as usize));
            let rotated = sampler
                .dist_or_abandon(&q_rot, id, f32::INFINITY)
                .expect("infinite threshold never abandons");
            assert!(
                (exact - rotated).abs() < 1e-3 * (1.0 + exact),
                "{exact} vs {rotated}"
            );
        }
    }

    #[test]
    fn abandons_far_points_with_tight_threshold() {
        // Need D > delta_d so intermediate checkpoints exist.
        let mut base = VectorSet::new(32);
        base.push(&[0.0; 32]); // the query's twin
        base.push(&[100.0; 32]); // a very far point
        let sampler = AdSampler::new(&base, 2.1, 8, 2);
        let q_rot = sampler.rotate_query(&[0.0; 32]);
        assert!(
            sampler.dist_or_abandon(&q_rot, 1, 0.01).is_none(),
            "far point must abandon under a tight threshold"
        );
        assert!(
            sampler.dist_or_abandon(&q_rot, 0, 0.01).is_some(),
            "the exact match must complete"
        );
    }

    #[test]
    fn search_matches_plain_hnsw_top1() {
        let base = grid(12);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 4,
            },
        );
        let graph = index.freeze();
        let sampler = AdSampler::new(&base, 2.1, 16, 5);
        for q in [[3.2f32, 4.1, 3.6, 0.0], [7.9, 0.2, 4.0, 0.0]] {
            let plain = index.search(&q, 1, 48);
            let (ad, _) = sampler.search(&graph, &q, 1, 48);
            assert_eq!(plain[0].id, ad[0].id);
        }
    }
}
