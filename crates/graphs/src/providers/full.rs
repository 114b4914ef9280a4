//! The full-precision (baseline HNSW) distance provider.

use crate::provider::DistanceProvider;
use simdops::l2_sq;
use vecstore::VectorSet;

/// Distances computed directly on the original `f32` vectors — the baseline
/// whose construction profile (Figure 1: >90 % distance computation) the
/// paper sets out to fix.
pub struct FullPrecision {
    base: VectorSet,
}

impl FullPrecision {
    /// Wraps the database vectors.
    pub fn new(base: VectorSet) -> Self {
        Self { base }
    }
}

impl DistanceProvider for FullPrecision {
    type QueryCtx = Vec<f32>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<f32> {
        self.base.get(id as usize).to_vec()
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.base.dim(), "query dimensionality mismatch");
        v.to_vec()
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<f32>, id: u32) -> f32 {
        l2_sq(ctx, self.base.get(id as usize))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        l2_sq(self.base.get(a as usize), self.base.get(b as usize))
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        simdops::prefetch_slice(self.base.get(id as usize));
    }

    fn aux_bytes(&self) -> usize {
        // The index must retain the full vectors to compute distances.
        self.base.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> VectorSet {
        VectorSet::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 1.0, 0.0])
    }

    #[test]
    fn distances_are_exact() {
        let p = FullPrecision::new(set());
        let ctx = p.prepare_insert(0);
        assert_eq!(p.dist_to(&ctx, 1), 25.0);
        assert_eq!(p.dist_between(0, 2), 1.0);
    }

    #[test]
    fn query_ctx_matches_insert_ctx() {
        let p = FullPrecision::new(set());
        let q = p.prepare_query(&[0.0, 0.0]);
        let i = p.prepare_insert(0);
        assert_eq!(p.dist_to(&q, 1), p.dist_to(&i, 1));
    }

    #[test]
    fn aux_bytes_counts_vectors() {
        let p = FullPrecision::new(set());
        assert_eq!(p.aux_bytes(), 3 * 2 * 4);
    }
}
