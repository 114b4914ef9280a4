//! HNSW-PCA distance provider (paper Section 3.2.3).

use crate::provider::DistanceProvider;
use quantizers::PcaCodec;
use vecstore::VectorSet;

/// PCA-projected distances: every vector is replaced by its first `d_PCA`
/// principal components and distances are computed in the reduced space.
pub struct PcaProvider {
    base: VectorSet,
    pca: PcaCodec,
    /// Projected vectors, `d_PCA` floats each, contiguous.
    projected: VectorSet,
}

impl PcaProvider {
    /// Fits PCA on a sample and projects every vector to `d_pca` dims.
    pub fn new(base: VectorSet, d_pca: usize, train_sample: usize) -> Self {
        let sample = base.stride_sample(train_sample);
        let pca = PcaCodec::fit(&sample, d_pca);
        Self::with_codec(base, pca)
    }

    /// Fits PCA choosing `d_PCA` by cumulative variance (the paper's rule:
    /// smallest `d` with `f(d) >= alpha`, `alpha = 0.9` in experiments).
    pub fn with_variance(base: VectorSet, alpha: f64, train_sample: usize) -> Self {
        let sample = base.stride_sample(train_sample);
        let pca = PcaCodec::fit_for_variance(&sample, alpha);
        Self::with_codec(base, pca)
    }

    /// Projects `base` through an already-fitted codec. Sharded and
    /// replicated deployments fit once on the full corpus and share the
    /// basis across partitions, so every partition projects into the same
    /// subspace.
    pub fn from_codec(base: VectorSet, pca: PcaCodec) -> Self {
        Self::with_codec(base, pca)
    }

    fn with_codec(base: VectorSet, pca: PcaCodec) -> Self {
        let mut flat = vec![0.0f32; base.len() * pca.kept_dims()];
        pca.project_batch(base.as_flat(), &mut flat);
        let projected = VectorSet::from_flat(pca.kept_dims(), flat);
        Self {
            base,
            pca,
            projected,
        }
    }

    /// The fitted codec.
    pub fn codec(&self) -> &PcaCodec {
        &self.pca
    }

    /// Retained dimensionality `d_PCA`.
    pub fn kept_dims(&self) -> usize {
        self.pca.kept_dims()
    }
}

impl DistanceProvider for PcaProvider {
    /// The projected query.
    type QueryCtx = Vec<f32>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<f32> {
        self.projected.get(id as usize).to_vec()
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<f32> {
        self.pca.project(v)
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<f32>, id: u32) -> f32 {
        simdops::l2_sq(ctx, self.projected.get(id as usize))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        simdops::l2_sq(
            self.projected.get(a as usize),
            self.projected.get(b as usize),
        )
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        self.projected.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Data with strong low-dimensional structure: 3 informative axes plus
    /// tiny noise on 13 more.
    fn structured_set(n: usize, seed: u64) -> VectorSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorSet::with_capacity(16, n);
        for _ in 0..n {
            let mut v = vec![0.0f32; 16];
            for slot in v.iter_mut().take(3) {
                *slot = rng.gen_range(-5.0..5.0);
            }
            for slot in v.iter_mut().skip(3) {
                *slot = rng.gen_range(-0.01..0.01);
            }
            s.push(&v);
        }
        s
    }

    #[test]
    fn projected_distance_tracks_exact() {
        let base = structured_set(300, 1);
        let p = PcaProvider::new(base.clone(), 3, 200);
        let ctx = p.prepare_insert(0);
        for id in 1..30u32 {
            let approx = p.dist_to(&ctx, id);
            let exact = simdops::l2_sq(base.get(0), base.get(id as usize));
            assert!(
                (approx - exact).abs() < 0.02 * (1.0 + exact),
                "id {id}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn variance_rule_finds_low_dim() {
        let base = structured_set(300, 2);
        let p = PcaProvider::with_variance(base, 0.99, 200);
        assert!(p.kept_dims() <= 3, "kept {} dims", p.kept_dims());
    }

    #[test]
    fn aux_bytes_shrinks_with_projection() {
        let base = structured_set(100, 3);
        let full = base.payload_bytes();
        let p = PcaProvider::new(base, 3, 100);
        assert!(p.aux_bytes() < full);
        assert_eq!(p.aux_bytes(), 100 * 3 * 4);
    }

    #[test]
    fn query_and_insert_ctx_agree() {
        let base = structured_set(50, 4);
        let q0 = base.get(0).to_vec();
        let p = PcaProvider::new(base, 3, 50);
        let via_query = p.prepare_query(&q0);
        let via_insert = p.prepare_insert(0);
        for (a, b) in via_query.iter().zip(via_insert.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
