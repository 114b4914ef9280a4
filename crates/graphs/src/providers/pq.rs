//! HNSW-PQ distance provider (paper Section 3.2.1).

use crate::provider::DistanceProvider;
use quantizers::ProductQuantizer;
use vecstore::VectorSet;

/// Product-quantized distances: the Candidate Acquisition stage scans a
/// per-insert **asymmetric** distance table (ADC), the Neighbor Selection
/// stage looks up precomputed centroid-to-centroid **symmetric** tables
/// (SDC) — the exact deployment the paper describes for HNSW-PQ.
pub struct PqProvider {
    base: VectorSet,
    pq: ProductQuantizer,
    /// Per-vector PQ codes, `m` bytes each, contiguous.
    codes: Vec<u8>,
    /// SDC tables (`m * k * k` floats).
    sdc: Vec<f32>,
}

impl PqProvider {
    /// Trains PQ on a sample of `base` and encodes every vector.
    ///
    /// `m` = subspaces (`M_PQ`), `bits` = codeword length (`L_PQ`),
    /// `train_sample` = training subset size.
    pub fn new(base: VectorSet, m: usize, bits: u8, train_sample: usize, seed: u64) -> Self {
        let sample = base.stride_sample(train_sample);
        let pq = ProductQuantizer::train(&sample, m, bits, 20, seed);
        Self::from_quantizer(base, pq)
    }

    /// Encodes `base` through an already-trained quantizer (codebooks and
    /// SDC tables are derived from it, not retrained). Sharded and
    /// replicated deployments train once on the full corpus and share the
    /// quantizer across partitions.
    pub fn from_quantizer(base: VectorSet, pq: ProductQuantizer) -> Self {
        let m = pq.subspaces();
        let mut codes = Vec::with_capacity(base.len() * m);
        for v in base.iter() {
            codes.extend_from_slice(&pq.encode(v));
        }
        let sdc = pq.sdc_tables();
        Self {
            base,
            pq,
            codes,
            sdc,
        }
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.pq
    }

    #[inline]
    fn codes_of(&self, id: u32) -> &[u8] {
        let m = self.pq.subspaces();
        &self.codes[id as usize * m..(id as usize + 1) * m]
    }
}

impl DistanceProvider for PqProvider {
    /// The ADC table of the prepared vector.
    type QueryCtx = Vec<f32>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<f32> {
        self.pq.adc_table(self.base.get(id as usize))
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<f32> {
        self.pq.adc_table(v)
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<f32>, id: u32) -> f32 {
        self.pq.adc_distance(ctx, self.codes_of(id))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        self.pq
            .sdc_distance(&self.sdc, self.codes_of(a), self.codes_of(b))
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        // Packed codes replace the original vectors; SDC tables are shared.
        use quantizers::Codec;
        self.base.len() * self.pq.code_bytes() + self.sdc.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorSet::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn adc_approximates_true_distance() {
        let base = random_set(300, 8, 1);
        let p = PqProvider::new(base.clone(), 4, 6, 200, 2);
        let ctx = p.prepare_insert(0);
        let approx = p.dist_to(&ctx, 1);
        let exact = simdops::l2_sq(base.get(0), base.get(1));
        assert!(
            (approx - exact).abs() < 0.5 * (1.0 + exact),
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn sdc_distance_symmetric() {
        let base = random_set(200, 8, 3);
        let p = PqProvider::new(base, 4, 4, 150, 4);
        assert_eq!(p.dist_between(3, 9), p.dist_between(9, 3));
    }

    #[test]
    fn nearer_points_get_smaller_adc() {
        // Points on a line: ADC distances should preserve gross ordering.
        let mut s = VectorSet::new(2);
        for i in 0..64 {
            s.push(&[i as f32, 0.0]);
        }
        let p = PqProvider::new(s, 2, 5, 64, 5);
        let ctx = p.prepare_insert(0);
        assert!(p.dist_to(&ctx, 2) < p.dist_to(&ctx, 40));
    }

    #[test]
    fn aux_bytes_smaller_than_full_vectors() {
        let base = random_set(400, 16, 6);
        let full_bytes = base.payload_bytes();
        let p = PqProvider::new(base, 4, 4, 200, 7);
        assert!(
            p.aux_bytes() < full_bytes,
            "PQ codes {} should beat full vectors {full_bytes}",
            p.aux_bytes()
        );
    }
}
