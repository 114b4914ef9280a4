//! Scalar Quantization (paper Section 3.2.2).
//!
//! SQ maps each dimension to a small integer by an affine transform of the
//! observed value range. The paper evaluates `L_SQ ∈ {2, 4, 8, 16}` bits and
//! finds 8 bits optimal because it aligns with the `u8` lane width — 2- and
//! 4-bit codes still occupy a byte (no native type), while 16-bit codes
//! double the memory traffic (their Figure 4a).
//!
//! Two range modes are provided:
//!
//! * **global** (default): one `[min, max]` over all components. Distances
//!   between codes are then proportional to decoded distances, so integer
//!   SIMD kernels compare codes directly with *zero decode cost* — this is
//!   the "optimized version to avoid decoding overhead" the paper adopts
//!   from the Qdrant technical report;
//! * **per-dimension**: the textbook variant; exact per-axis ranges, but
//!   distances must fold a per-axis scale, which costs float math again.

use crate::Codec;
use vecstore::VectorSet;

/// Which value range the affine mapping uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqRange {
    /// One shared `[min, max]` for every dimension (fast integer compares).
    Global,
    /// Independent `[min, max]` per dimension (lower error, slower compares).
    PerDimension,
}

/// A trained scalar quantizer.
#[derive(Debug, Clone)]
pub struct ScalarQuantizer {
    dim: usize,
    bits: u8,
    range: SqRange,
    /// Per-dimension minima (length 1 when range is Global).
    mins: Vec<f32>,
    /// Per-dimension step sizes Δ = (max − min) / (2^bits − 1).
    deltas: Vec<f32>,
}

impl ScalarQuantizer {
    /// Fits the quantizer to the observed ranges of `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty or `bits` is outside `1..=16`.
    pub fn train(data: &VectorSet, bits: u8, range: SqRange) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        let dim = data.dim();
        let levels = (1u32 << bits) - 1;

        let (mins, deltas) = match range {
            SqRange::Global => {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for v in data.iter() {
                    for &x in v {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
                let delta = span_to_delta(lo, hi, levels);
                (vec![lo], vec![delta])
            }
            SqRange::PerDimension => {
                let mut lo = vec![f32::INFINITY; dim];
                let mut hi = vec![f32::NEG_INFINITY; dim];
                for v in data.iter() {
                    for (i, &x) in v.iter().enumerate() {
                        lo[i] = lo[i].min(x);
                        hi[i] = hi[i].max(x);
                    }
                }
                let deltas = lo
                    .iter()
                    .zip(hi.iter())
                    .map(|(&l, &h)| span_to_delta(l, h, levels))
                    .collect();
                (lo, deltas)
            }
        };

        Self {
            dim,
            bits,
            range,
            mins,
            deltas,
        }
    }

    /// Codeword bits `L_SQ`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    #[inline]
    fn min_of(&self, i: usize) -> f32 {
        match self.range {
            SqRange::Global => self.mins[0],
            SqRange::PerDimension => self.mins[i],
        }
    }

    #[inline]
    fn delta_of(&self, i: usize) -> f32 {
        match self.range {
            SqRange::Global => self.deltas[0],
            SqRange::PerDimension => self.deltas[i],
        }
    }

    /// Encodes into one `u16` per dimension (values fit `u8` when
    /// `bits <= 8`; [`Self::encode_u8`] gives the packed byte form).
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        assert_eq!(v.len(), self.dim, "dimensionality mismatch");
        let levels = (1u32 << self.bits) - 1;
        v.iter()
            .enumerate()
            .map(|(i, &x)| {
                let delta = self.delta_of(i);
                if delta == 0.0 {
                    return 0;
                }
                let t = (x - self.min_of(i)) / delta;
                (t.round().max(0.0) as u32).min(levels) as u16
            })
            .collect()
    }

    /// Encodes into bytes; requires `bits <= 8`.
    ///
    /// # Panics
    /// Panics if `bits > 8`.
    pub fn encode_u8(&self, v: &[f32]) -> Vec<u8> {
        assert!(self.bits <= 8, "u8 codes need bits <= 8");
        self.encode(v).into_iter().map(|c| c as u8).collect()
    }

    /// Decodes codes back to (lossy) floats.
    pub fn decode(&self, codes: &[u16]) -> Vec<f32> {
        assert_eq!(codes.len(), self.dim, "dimensionality mismatch");
        codes
            .iter()
            .enumerate()
            .map(|(i, &c)| self.min_of(i) + f32::from(c) * self.delta_of(i))
            .collect()
    }

    /// Squared decoded distance between two `u8` code vectors.
    ///
    /// In `Global` mode this is one integer SIMD kernel plus one multiply;
    /// in `PerDimension` mode each axis is scaled individually.
    pub fn dist_sq_u8(&self, a: &[u8], b: &[u8]) -> f32 {
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        match self.range {
            SqRange::Global => {
                let delta = self.deltas[0];
                simdops::l2_sq_u8(a, b) as f32 * delta * delta
            }
            SqRange::PerDimension => {
                let mut acc = 0.0f32;
                for i in 0..self.dim {
                    let d = (i16::from(a[i]) - i16::from(b[i])) as f32 * self.deltas[i];
                    acc += d * d;
                }
                acc
            }
        }
    }

    /// Squared decoded distance for `u16` codes (the 16-bit configuration).
    pub fn dist_sq_u16(&self, a: &[u16], b: &[u16]) -> f32 {
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        let mut acc = 0.0f64;
        for i in 0..self.dim {
            let d = f64::from(i32::from(a[i]) - i32::from(b[i])) * f64::from(self.delta_of(i));
            acc += d * d;
        }
        acc as f32
    }
}

/// Step size for `levels + 1` quantization levels over `[lo, hi]`; zero-width
/// spans quantize to a single level.
fn span_to_delta(lo: f32, hi: f32, levels: u32) -> f32 {
    if hi <= lo || levels == 0 {
        0.0
    } else {
        (hi - lo) / levels as f32
    }
}

impl Codec for ScalarQuantizer {
    fn dim(&self) -> usize {
        self.dim
    }

    fn reconstruct(&self, v: &[f32]) -> Vec<f32> {
        self.decode(&self.encode(v))
    }

    fn code_bytes(&self) -> usize {
        let bytes_per_dim = if self.bits <= 8 { 1 } else { 2 };
        self.dim * bytes_per_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> VectorSet {
        VectorSet::from_flat(2, vec![0.0, 10.0, 1.0, 20.0, 0.5, 15.0, 0.25, 12.0])
    }

    #[test]
    fn roundtrip_error_bounded_by_half_delta() {
        let sq = ScalarQuantizer::train(&data(), 8, SqRange::PerDimension);
        for v in data().iter() {
            let r = sq.reconstruct(v);
            for (i, (&x, &y)) in v.iter().zip(r.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= sq.delta_of(i) * 0.5 + 1e-6,
                    "dim {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn more_bits_less_error() {
        let d = data();
        let sq2 = ScalarQuantizer::train(&d, 2, SqRange::Global);
        let sq8 = ScalarQuantizer::train(&d, 8, SqRange::Global);
        let err = |sq: &ScalarQuantizer| -> f32 {
            d.iter()
                .map(|v| simdops::l2_sq(v, &sq.reconstruct(v)))
                .sum()
        };
        assert!(err(&sq8) < err(&sq2));
    }

    #[test]
    fn global_code_distance_matches_decoded_distance() {
        let d = data();
        let sq = ScalarQuantizer::train(&d, 8, SqRange::Global);
        let a = sq.encode_u8(d.get(0));
        let b = sq.encode_u8(d.get(1));
        let via_codes = sq.dist_sq_u8(&a, &b);
        let decoded = simdops::l2_sq(&sq.reconstruct(d.get(0)), &sq.reconstruct(d.get(1)));
        assert!(
            (via_codes - decoded).abs() < 1e-4,
            "{via_codes} vs {decoded}"
        );
    }

    #[test]
    fn per_dim_code_distance_matches_decoded_distance() {
        let d = data();
        let sq = ScalarQuantizer::train(&d, 8, SqRange::PerDimension);
        let a = sq.encode_u8(d.get(2));
        let b = sq.encode_u8(d.get(3));
        let via_codes = sq.dist_sq_u8(&a, &b);
        let decoded = simdops::l2_sq(&sq.reconstruct(d.get(2)), &sq.reconstruct(d.get(3)));
        assert!((via_codes - decoded).abs() < 1e-4);
    }

    #[test]
    fn codes_use_full_range() {
        let d = data();
        let sq = ScalarQuantizer::train(&d, 4, SqRange::PerDimension);
        // The min and max points should map to 0 and 15 respectively.
        let lo = sq.encode(&[0.0, 10.0]);
        let hi = sq.encode(&[1.0, 20.0]);
        assert_eq!(lo, vec![0, 0]);
        assert_eq!(hi, vec![15, 15]);
    }

    #[test]
    fn constant_dimension_is_stable() {
        let d = VectorSet::from_flat(2, vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0]);
        let sq = ScalarQuantizer::train(&d, 8, SqRange::PerDimension);
        let r = sq.reconstruct(&[5.0, 2.0]);
        assert!((r[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let d = data();
        let sq = ScalarQuantizer::train(&d, 8, SqRange::PerDimension);
        let codes = sq.encode(&[-100.0, 100.0]);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[1], 255);
    }

    #[test]
    fn sixteen_bit_distance_path() {
        let d = data();
        let sq = ScalarQuantizer::train(&d, 16, SqRange::Global);
        let a = sq.encode(d.get(0));
        let b = sq.encode(d.get(1));
        let via_codes = sq.dist_sq_u16(&a, &b);
        let decoded = simdops::l2_sq(&sq.reconstruct(d.get(0)), &sq.reconstruct(d.get(1)));
        assert!((via_codes - decoded).abs() < 1e-3);
        assert_eq!(sq.code_bytes(), 4); // 2 dims * 2 bytes
    }
}
