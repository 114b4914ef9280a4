//! HNSW-SQ distance provider (paper Section 3.2.2).

use crate::provider::DistanceProvider;
use quantizers::sq::SqRange;
use quantizers::ScalarQuantizer;
use vecstore::VectorSet;

/// Scalar-quantized distances: every vector is stored as one `u8` per
/// dimension and compared with integer SIMD kernels, avoiding any decode
/// (the "optimized version" the paper implements from the Qdrant report).
pub struct SqProvider {
    base: VectorSet,
    sq: ScalarQuantizer,
    /// Per-vector codes, `dim` bytes each, contiguous.
    codes: Vec<u8>,
}

impl SqProvider {
    /// Trains the quantizer on the full value range and encodes everything.
    ///
    /// `bits` must be `<= 8` (the `u8` storage path; the paper finds 8 bits
    /// optimal precisely because it matches the `u8` lane).
    pub fn new(base: VectorSet, bits: u8) -> Self {
        assert!(bits <= 8, "SqProvider stores u8 codes; use bits <= 8");
        let sq = ScalarQuantizer::train(&base, bits, SqRange::Global);
        Self::from_quantizer(base, sq)
    }

    /// Encodes `base` through an already-trained quantizer.
    ///
    /// Sharded and replicated deployments train one quantizer on the full
    /// corpus and share it across every partition, so per-partition value
    /// ranges cannot skew the grid; only encoding is paid per partition.
    pub fn from_quantizer(base: VectorSet, sq: ScalarQuantizer) -> Self {
        let mut codes = Vec::with_capacity(base.len() * base.dim());
        for v in base.iter() {
            codes.extend_from_slice(&sq.encode_u8(v));
        }
        Self { base, sq, codes }
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ScalarQuantizer {
        &self.sq
    }

    #[inline]
    fn codes_of(&self, id: u32) -> &[u8] {
        let d = self.base.dim();
        &self.codes[id as usize * d..(id as usize + 1) * d]
    }
}

impl DistanceProvider for SqProvider {
    /// The encoded query.
    type QueryCtx = Vec<u8>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<u8> {
        self.codes_of(id).to_vec()
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<u8> {
        self.sq.encode_u8(v)
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<u8>, id: u32) -> f32 {
        self.sq.dist_sq_u8(ctx, self.codes_of(id))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        self.sq.dist_sq_u8(self.codes_of(a), self.codes_of(b))
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        self.codes.len()
    }
}

/// 16-bit scalar quantization (the paper's `L_SQ = 16` configuration):
/// codes are `u16`, distances go through the slower widening path — which
/// is exactly why the paper finds 8 bits optimal (Figure 4a).
pub struct Sq16Provider {
    base: VectorSet,
    sq: ScalarQuantizer,
    codes: Vec<u16>,
}

impl Sq16Provider {
    /// Trains a 16-bit quantizer and encodes everything.
    pub fn new(base: VectorSet) -> Self {
        let sq = ScalarQuantizer::train(&base, 16, SqRange::Global);
        let mut codes = Vec::with_capacity(base.len() * base.dim());
        for v in base.iter() {
            codes.extend_from_slice(&sq.encode(v));
        }
        Self { base, sq, codes }
    }

    #[inline]
    fn codes_of(&self, id: u32) -> &[u16] {
        let d = self.base.dim();
        &self.codes[id as usize * d..(id as usize + 1) * d]
    }
}

impl DistanceProvider for Sq16Provider {
    type QueryCtx = Vec<u16>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> Vec<u16> {
        self.codes_of(id).to_vec()
    }

    fn prepare_query(&self, v: &[f32]) -> Vec<u16> {
        self.sq.encode(v)
    }

    #[inline]
    fn dist_to(&self, ctx: &Vec<u16>, id: u32) -> f32 {
        self.sq.dist_sq_u16(ctx, self.codes_of(id))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        self.sq.dist_sq_u16(self.codes_of(a), self.codes_of(b))
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        self.codes.len() * 2
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
    fn sq8_distance_close_to_exact() {
        let base = random_set(100, 16, 1);
        let p = SqProvider::new(base.clone(), 8);
        let ctx = p.prepare_insert(0);
        for id in 1..20u32 {
            let approx = p.dist_to(&ctx, id);
            let exact = simdops::l2_sq(base.get(0), base.get(id as usize));
            assert!(
                (approx - exact).abs() < 0.05 * (1.0 + exact),
                "id {id}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn distance_symmetric_and_zero_on_self() {
        let base = random_set(50, 8, 2);
        let p = SqProvider::new(base, 8);
        assert_eq!(p.dist_between(3, 7), p.dist_between(7, 3));
        assert_eq!(p.dist_between(5, 5), 0.0);
    }

    #[test]
    fn compression_is_4x_for_8_bits() {
        let base = random_set(64, 32, 3);
        let full = base.payload_bytes();
        let p = SqProvider::new(base, 8);
        assert_eq!(p.aux_bytes() * 4, full);
    }

    #[test]
    #[should_panic(expected = "bits <= 8")]
    fn sixteen_bits_rejected() {
        let base = random_set(10, 4, 4);
        let _ = SqProvider::new(base, 16);
    }
}
