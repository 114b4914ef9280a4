//! Product Quantization (paper Section 3.2.1).
//!
//! PQ splits a `D`-dimensional vector into `M_PQ` subvectors, trains a
//! k-means codebook of `K = 2^{L_PQ}` centroids per subspace, and encodes
//! each subvector as its nearest centroid's id. Distances are computed
//! either *asymmetrically* (ADC: exact query subvector vs. centroid, via a
//! per-query distance table) or *symmetrically* (SDC: centroid vs. centroid,
//! via a precomputed table) — HNSW-PQ uses ADC in the Candidate Acquisition
//! stage and SDC in Neighbor Selection, exactly as the paper describes.

use crate::kmeans::{train_subspaces, Span};
use crate::Codec;
use vecstore::VectorSet;

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    k: usize,
    bits: u8,
    spans: Vec<Span>,
    /// Concatenated codebooks; subspace `s` holds `k * spans[s].len` floats
    /// starting at `k * spans[s].start`.
    codebooks: Vec<f32>,
}

impl ProductQuantizer {
    /// Trains codebooks on (a sample of) `data`.
    ///
    /// * `m` — number of subspaces (`M_PQ`);
    /// * `bits` — codeword length per subspace (`L_PQ`), `1..=8`;
    /// * `train_iters` — Lloyd iterations per subspace.
    ///
    /// When `dim % m != 0` the first `dim % m` subspaces get one extra
    /// dimension.
    ///
    /// # Panics
    /// Panics if `m == 0`, `m > dim`, `bits` outside `1..=8`, or `data` is
    /// empty.
    pub fn train(data: &VectorSet, m: usize, bits: u8, train_iters: usize, seed: u64) -> Self {
        let dim = data.dim();
        assert!(m > 0 && m <= dim, "m must be in 1..=dim");
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let k = 1usize << bits;

        let subspaces = train_subspaces(data.as_flat(), dim, m, k, train_iters, seed);
        Self {
            dim,
            m,
            k,
            bits,
            spans: subspaces.iter().map(|sub| sub.span).collect(),
            codebooks: subspaces
                .into_iter()
                .flat_map(|sub| sub.kmeans.centroids)
                .collect(),
        }
    }

    /// Number of subspaces `M_PQ`.
    pub fn subspaces(&self) -> usize {
        self.m
    }

    /// Centroids per subspace `K = 2^{L_PQ}`.
    pub fn centroids_per_subspace(&self) -> usize {
        self.k
    }

    /// Codeword bits `L_PQ`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    #[inline]
    fn centroid(&self, s: usize, c: usize) -> &[f32] {
        let len = self.spans[s].len;
        let off = self.k * self.spans[s].start + c * len;
        &self.codebooks[off..off + len]
    }

    /// Encodes `v` into one centroid id per subspace.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "dimensionality mismatch");
        (0..self.m)
            .map(|s| {
                let span = self.spans[s];
                let sub = &v[span.start..span.start + span.len];
                let mut best = 0u8;
                let mut best_d = f32::INFINITY;
                for c in 0..self.k {
                    let d = simdops::l2_sq(sub, self.centroid(s, c));
                    if d < best_d {
                        best_d = d;
                        best = c as u8;
                    }
                }
                best
            })
            .collect()
    }

    /// Decodes codes back to the centroid concatenation (the paper's
    /// "derived vector").
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.m, "one code per subspace expected");
        let mut out = vec![0.0f32; self.dim];
        for (s, &c) in codes.iter().enumerate() {
            let span = self.spans[s];
            out[span.start..span.start + span.len]
                .copy_from_slice(self.centroid(s, usize::from(c)));
        }
        out
    }

    /// Builds the per-query asymmetric distance table: entry `[s * k + c]`
    /// is the squared distance from `query`'s subvector `s` to centroid `c`.
    pub fn adc_table(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "dimensionality mismatch");
        let mut table = vec![0.0f32; self.m * self.k];
        for s in 0..self.m {
            let span = self.spans[s];
            let sub = &query[span.start..span.start + span.len];
            for c in 0..self.k {
                table[s * self.k + c] = simdops::l2_sq(sub, self.centroid(s, c));
            }
        }
        table
    }

    /// ADC distance: scans the table with the database vector's codes.
    #[inline]
    pub fn adc_distance(&self, table: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(table.len(), self.m * self.k);
        debug_assert_eq!(codes.len(), self.m);
        let mut acc = 0.0f32;
        for (s, &c) in codes.iter().enumerate() {
            acc += table[s * self.k + usize::from(c)];
        }
        acc
    }

    /// Precomputes the symmetric (centroid-to-centroid) distance tables:
    /// entry `[s][a][b]` at `s*k*k + a*k + b` is the squared distance
    /// between centroids `a` and `b` of subspace `s`.
    pub fn sdc_tables(&self) -> Vec<f32> {
        let mut tables = vec![0.0f32; self.m * self.k * self.k];
        for s in 0..self.m {
            for a in 0..self.k {
                for b in a..self.k {
                    let d = simdops::l2_sq(self.centroid(s, a), self.centroid(s, b));
                    tables[s * self.k * self.k + a * self.k + b] = d;
                    tables[s * self.k * self.k + b * self.k + a] = d;
                }
            }
        }
        tables
    }

    /// SDC distance between two code sequences, given [`Self::sdc_tables`].
    #[inline]
    pub fn sdc_distance(&self, tables: &[f32], a: &[u8], b: &[u8]) -> f32 {
        debug_assert_eq!(tables.len(), self.m * self.k * self.k);
        let kk = self.k * self.k;
        let mut acc = 0.0f32;
        for s in 0..self.m {
            acc += tables[s * kk + usize::from(a[s]) * self.k + usize::from(b[s])];
        }
        acc
    }
}

impl Codec for ProductQuantizer {
    fn dim(&self) -> usize {
        self.dim
    }

    fn reconstruct(&self, v: &[f32]) -> Vec<f32> {
        self.decode(&self.encode(v))
    }

    fn code_bytes(&self) -> usize {
        // Packed size: M_PQ codewords of L_PQ bits each.
        (self.m * usize::from(self.bits)).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy_data(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorSet::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn encode_decode_reduces_error_with_more_bits() {
        let data = toy_data(300, 8, 1);
        let pq2 = ProductQuantizer::train(&data, 4, 2, 15, 7);
        let pq6 = ProductQuantizer::train(&data, 4, 6, 15, 7);
        let mut err2 = 0.0;
        let mut err6 = 0.0;
        for v in data.iter() {
            err2 += simdops::l2_sq(v, &pq2.reconstruct(v));
            err6 += simdops::l2_sq(v, &pq6.reconstruct(v));
        }
        assert!(err6 < err2, "6-bit error {err6} should beat 2-bit {err2}");
    }

    #[test]
    fn adc_table_matches_direct_computation() {
        let data = toy_data(200, 6, 2);
        let pq = ProductQuantizer::train(&data, 3, 4, 15, 3);
        let q = data.get(0);
        let table = pq.adc_table(q);
        let codes = pq.encode(data.get(1));
        let via_table = pq.adc_distance(&table, &codes);
        let direct = simdops::l2_sq(q, &pq.decode(&codes));
        assert!((via_table - direct).abs() < 1e-4, "{via_table} vs {direct}");
    }

    #[test]
    fn sdc_matches_decoded_distance() {
        let data = toy_data(200, 6, 4);
        let pq = ProductQuantizer::train(&data, 3, 4, 15, 5);
        let tables = pq.sdc_tables();
        let a = pq.encode(data.get(2));
        let b = pq.encode(data.get(3));
        let via_table = pq.sdc_distance(&tables, &a, &b);
        let direct = simdops::l2_sq(&pq.decode(&a), &pq.decode(&b));
        assert!((via_table - direct).abs() < 1e-4);
    }

    #[test]
    fn sdc_distance_to_self_is_zero() {
        let data = toy_data(100, 4, 8);
        let pq = ProductQuantizer::train(&data, 2, 3, 10, 9);
        let tables = pq.sdc_tables();
        let codes = pq.encode(data.get(0));
        assert_eq!(pq.sdc_distance(&tables, &codes, &codes), 0.0);
    }

    #[test]
    fn uneven_subspace_partition() {
        // dim = 7, m = 3 → spans of 3, 2, 2.
        let data = toy_data(100, 7, 11);
        let pq = ProductQuantizer::train(&data, 3, 4, 10, 13);
        let codes = pq.encode(data.get(0));
        assert_eq!(codes.len(), 3);
        assert_eq!(pq.decode(&codes).len(), 7);
    }

    #[test]
    fn code_bytes_packs_bits() {
        let data = toy_data(64, 8, 12);
        let pq = ProductQuantizer::train(&data, 8, 4, 5, 1);
        assert_eq!(pq.code_bytes(), 4); // 8 * 4 bits = 32 bits
        let pq8 = ProductQuantizer::train(&data, 8, 8, 5, 1);
        assert_eq!(pq8.code_bytes(), 8);
    }

    #[test]
    fn encoding_picks_nearest_centroid() {
        let data = toy_data(150, 4, 21);
        let pq = ProductQuantizer::train(&data, 2, 4, 15, 2);
        let v = data.get(5);
        let codes = pq.encode(v);
        // For each subspace, no other centroid is strictly closer.
        for (s, &code) in codes.iter().enumerate() {
            let sub = &v[s * 2..s * 2 + 2];
            let chosen = pq.centroid(s, usize::from(code));
            let chosen_d = simdops::l2_sq(sub, chosen);
            for c in 0..pq.centroids_per_subspace() {
                assert!(chosen_d <= simdops::l2_sq(sub, pq.centroid(s, c)) + 1e-6);
            }
        }
    }
}
