//! HNSW-OPQ distance provider — the "optimized variant" extension the
//! paper's Section 3.2.4 anticipates.
//!
//! Identical deployment shape to [`super::PqProvider`] (ADC in Candidate
//! Acquisition, SDC in Neighbor Selection); the only difference is the
//! learned orthogonal rotation applied before encoding, which lowers
//! quantization error on correlated data at the cost of a longer training
//! phase — exactly the efficiency/quality trade the paper's Remark (1)
//! warns about.

use crate::provider::DistanceProvider;
use quantizers::OptimizedProductQuantizer;
use vecstore::VectorSet;

/// OPQ-compressed distances for graph construction.
pub struct OpqProvider {
    base: VectorSet,
    opq: OptimizedProductQuantizer,
    /// Per-vector codes, `m` bytes each, contiguous.
    codes: Vec<u8>,
    /// SDC tables (`m * k * k` floats).
    sdc: Vec<f32>,
}

impl OpqProvider {
    /// Trains OPQ on a sample of `base` and encodes every vector.
    pub fn new(
        base: VectorSet,
        m: usize,
        bits: u8,
        opq_iters: usize,
        train_sample: usize,
        seed: u64,
    ) -> Self {
        let sample = base.stride_sample(train_sample);
        let opq = OptimizedProductQuantizer::train(&sample, m, bits, opq_iters, 12, seed);
        Self::from_quantizer(base, opq)
    }

    /// Encodes `base` through an already-trained quantizer (rotation and
    /// codebooks are reused, not retrained). Sharded and replicated
    /// deployments train once on the full corpus and share the quantizer
    /// across partitions.
    pub fn from_quantizer(base: VectorSet, opq: OptimizedProductQuantizer) -> Self {
        let m = opq.subspaces();
        let mut codes = Vec::with_capacity(base.len() * m);
        for v in base.iter() {
            codes.extend_from_slice(&opq.encode(v));
        }
        let sdc = opq.sdc_tables();
        Self {
            base,
            opq,
            codes,
            sdc,
        }
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &OptimizedProductQuantizer {
        &self.opq
    }

    #[inline]
    fn codes_of(&self, id: u32) -> &[u8] {
        let m = self.opq.subspaces();
        &self.codes[id as usize * m..(id as usize + 1) * m]
    }
}

impl DistanceProvider for OpqProvider {
    /// The ADC table of the prepared (rotated) vector.
    type QueryCtx = Vec<f32>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<f32> {
        self.opq.adc_table(self.base.get(id as usize))
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<f32> {
        self.opq.adc_table(v)
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<f32>, id: u32) -> f32 {
        self.opq.adc_distance(ctx, self.codes_of(id))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        self.opq
            .sdc_distance(&self.sdc, self.codes_of(a), self.codes_of(b))
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        use quantizers::Codec;
        // Codes replace the vectors; the rotation matrix and SDC tables are
        // shared one-off state.
        self.base.len() * self.opq.code_bytes()
            + self.sdc.len() * 4
            + self.opq.dim() * self.opq.dim() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::{Hnsw, HnswParams};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn correlated_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorSet::with_capacity(dim, n);
        for _ in 0..n {
            let shared: f32 = rng.gen_range(-2.0..2.0);
            let v: Vec<f32> = (0..dim)
                .map(|i| shared * (1.0 + i as f32 * 0.1) + rng.gen_range(-0.3..0.3))
                .collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn adc_approximates_true_distance() {
        let base = correlated_set(300, 8, 1);
        let p = OpqProvider::new(base.clone(), 4, 6, 3, 200, 2);
        let ctx = p.prepare_insert(0);
        let approx = p.dist_to(&ctx, 1);
        let exact = simdops::l2_sq(base.get(0), base.get(1));
        assert!(
            (approx - exact).abs() < 0.5 * (1.0 + exact),
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn sdc_symmetric() {
        let base = correlated_set(200, 8, 3);
        let p = OpqProvider::new(base, 4, 4, 2, 150, 4);
        assert_eq!(p.dist_between(3, 9), p.dist_between(9, 3));
    }

    #[test]
    fn hnsw_opq_end_to_end() {
        let base = correlated_set(400, 8, 5);
        let index = Hnsw::build(
            OpqProvider::new(base.clone(), 4, 6, 3, 300, 6),
            HnswParams {
                c: 48,
                r: 8,
                seed: 7,
            },
        )
        .into_frozen();
        // Rerank fixes residual quantization error; top-1 should mostly hit.
        let mut hits = 0;
        let gt = vecstore::ground_truth(&base, &base.slice(0, 10), 1);
        for (qi, truth) in gt.iter().enumerate() {
            let found = crate::search_layers_rerank(
                index.provider(),
                index.layers(),
                base.get(qi),
                1,
                48,
                8,
            );
            if found.first().map(|h| h.id) == Some(u64::from(truth[0].id)) {
                hits += 1;
            }
        }
        assert!(hits >= 8, "top-1 self-recall {hits}/10 too low");
    }

    #[test]
    fn aux_bytes_smaller_than_full_vectors() {
        let base = correlated_set(600, 16, 8);
        let full = base.payload_bytes();
        let p = OpqProvider::new(base, 4, 4, 2, 300, 9);
        assert!(p.aux_bytes() < full, "OPQ {} vs full {full}", p.aux_bytes());
    }
}
