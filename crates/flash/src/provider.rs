//! The Flash [`DistanceProvider`]: register-resident table lookups in
//! both construction stages over the access-aware neighbor-codeword layout
//! (paper Sections 3.3.4 and 3.3.5). Candidate Acquisition shuffles a
//! visited vertex's block through the inserted vector's ADT; Neighbor
//! Selection shuffles the block of already-selected vertices through the
//! SDT distances to the candidate ([`FlashCodec::sdt_to`]) — the same
//! [`lut16_batch`] kernel, 16 distances per call, in both.

use crate::codec::{FlashCodec, FlashParams, K};
use graphs::provider::DistanceProvider;
use simdops::{lut16_batch, lut16_single, LUT_BATCH};
use std::sync::Arc;
use vecstore::VectorSet;

/// Per-insert / per-query context: the quantized asymmetric distance table.
pub struct FlashCtx {
    /// `M_F * 16` bytes, subspace-major — each 16-byte run is one
    /// register-resident ADT.
    pub adt: Vec<u8>,
}

/// Per-node payload: the inserted vertex's neighbor codewords, grouped in
/// subspace-major batches of [`LUT_BATCH`] so one register load fetches one
/// (batch, subspace) pair.
///
/// Layout for a neighbor list of length `L` with `M_F` subspaces:
/// `ceil(L / 16)` blocks, each `M_F * 16` bytes; within block `b`, byte
/// `s*16 + j` is the codeword of neighbor `16b + j` in subspace `s`
/// (zero-padded past the end of the list). A payload holds exactly
/// `ceil(L / 16)` blocks — what `sync_payload` builds and what
/// `append_payload` maintains one lane at a time.
#[derive(Default)]
pub struct FlashBlocks {
    bytes: Vec<u8>,
}

impl FlashBlocks {
    /// Raw block bytes (for tests and the cache-simulation harness).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Most subspaces the on-stack Neighbor Selection table covers (1 KiB);
/// a codec with more takes the scalar SDT loop.
const NS_TABLE_SUBSPACES: usize = 64;

/// Distance provider implementing the paper's Flash strategy.
pub struct FlashProvider {
    base: VectorSet,
    /// Shared by every provider encoded through it (shards, label
    /// partitions, LSM segments).
    codec: Arc<FlashCodec>,
    /// Global per-vector codewords: `n * M_F` bytes (one 4-bit codeword per
    /// byte, shuffle-ready). Source of truth for payload rebuilds and
    /// NS-stage SDT lookups.
    codes: Vec<u8>,
    /// Wall-clock nanoseconds spent training the codec and encoding the
    /// dataset (the paper's "coding time", Table 4).
    coding_ns: u64,
}

impl FlashProvider {
    /// Trains the codec on `base` and encodes every vector: exactly
    /// `from_codec(base, FlashCodec::train(&base, params))`, with
    /// `coding_ns` covering the training as well.
    pub fn new(base: VectorSet, params: FlashParams) -> Self {
        let t0 = std::time::Instant::now();
        let codec = FlashCodec::train(&base, params);
        let train_ns = t0.elapsed().as_nanos() as u64;
        let mut provider = Self::from_codec(base, codec);
        provider.coding_ns += train_ns;
        provider
    }

    /// Builds a provider over `base` with an already-trained codec, given
    /// as a plain [`FlashCodec`] or as an `Arc` shared with other providers.
    ///
    /// Training is a fixed per-index cost, so deployments that build *many*
    /// small indexes over one corpus — shards, per-label specialized
    /// partitions, LSM segments — train once and share the codec; only
    /// encoding is paid per partition, and `coding_ns` then covers encoding
    /// alone. `maintenance::LsmVectorIndex` does this for every flush whose
    /// batch still fits its current codec.
    pub fn from_codec(base: VectorSet, codec: impl Into<Arc<FlashCodec>>) -> Self {
        let codec = codec.into();
        let t0 = std::time::Instant::now();
        let codes = codec.encode_batch(&base);
        let coding_ns = t0.elapsed().as_nanos() as u64;
        Self {
            base,
            codec,
            codes,
            coding_ns,
        }
    }

    /// The trained codec.
    pub fn codec(&self) -> &Arc<FlashCodec> {
        &self.codec
    }

    /// Codewords of every vector (`len * M_F` bytes, vector-major).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Nanoseconds spent in codec training + dataset encoding.
    pub fn coding_ns(&self) -> u64 {
        self.coding_ns
    }

    /// Scalar Neighbor Selection: one [`FlashCodec::sdc_quantized`] per
    /// selected vertex — the oracle [`DistanceProvider::dominated`]'s
    /// batched path must equal.
    fn dominated_scalar(&self, v: u32, d: f32, selected: &[u32]) -> bool {
        selected.iter().any(|&u| self.dist_between(u, v) < d)
    }

    /// Codewords of vector `id` (`M_F` bytes).
    #[inline]
    pub fn codes_of(&self, id: u32) -> &[u8] {
        let m = self.codec.subspaces();
        &self.codes[id as usize * m..(id as usize + 1) * m]
    }
}

impl DistanceProvider for FlashProvider {
    type QueryCtx = FlashCtx;
    type NodePayload = FlashBlocks;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn base(&self) -> &VectorSet {
        &self.base
    }

    fn prepare_insert(&self, id: u32) -> FlashCtx {
        // The ADT is rebuilt from the original vector: projection + one
        // distance per centroid. The codes already exist, so codeword
        // selection is skipped.
        self.prepare_query(self.base.get(id as usize))
    }

    fn prepare_query(&self, v: &[f32]) -> FlashCtx {
        FlashCtx {
            adt: self.codec.adt(v),
        }
    }

    #[inline]
    fn dist_to(&self, ctx: &FlashCtx, id: u32) -> f32 {
        f32::from(lut16_single(
            &ctx.adt,
            self.codes_of(id),
            self.codec.subspaces(),
        ))
    }

    #[inline]
    fn dist_between(&self, a: u32, b: u32) -> f32 {
        f32::from(self.codec.sdc_quantized(self.codes_of(a), self.codes_of(b)))
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        simdops::prefetch_slice(self.codes_of(id));
    }

    fn dist_to_neighbors(
        &self,
        ctx: &FlashCtx,
        ids: &[u32],
        payload: &FlashBlocks,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        let m = self.codec.subspaces();
        let block_bytes = m * LUT_BATCH;
        let blocks_available = payload.bytes.len() / block_bytes.max(1);
        let mut batch = [0u16; LUT_BATCH];
        let mut produced = 0usize;
        for b in 0..ids.len().div_ceil(LUT_BATCH) {
            let take = (ids.len() - produced).min(LUT_BATCH);
            if b < blocks_available {
                let block = &payload.bytes[b * block_bytes..(b + 1) * block_bytes];
                lut16_batch(&ctx.adt, block, m, &mut batch);
                out.extend(batch[..take].iter().map(|&d| f32::from(d)));
            } else {
                // A payload shorter than its id list (a caller that never
                // synced it): fall back to single lookups.
                out.extend(
                    ids[produced..produced + take]
                        .iter()
                        .map(|&id| self.dist_to(ctx, id)),
                );
            }
            produced += take;
        }
    }

    fn sync_payload(&self, payload: &mut FlashBlocks, ids: &[u32]) {
        payload.bytes.clear();
        for (lane, &id) in ids.iter().enumerate() {
            self.append_payload(payload, lane, id);
        }
    }

    fn append_payload(&self, payload: &mut FlashBlocks, lane: usize, id: u32) {
        let block_bytes = self.codec.subspaces() * LUT_BATCH;
        let (block, slot) = (lane / LUT_BATCH, lane % LUT_BATCH);
        if slot == 0 {
            // A new block, zero-padded; at lane 0, a new list.
            payload.bytes.truncate(block * block_bytes);
            payload.bytes.resize((block + 1) * block_bytes, 0);
        }
        let dst = &mut payload.bytes[block * block_bytes..(block + 1) * block_bytes];
        for (s, &c) in self.codes_of(id).iter().enumerate() {
            dst[s * LUT_BATCH + slot] = c;
        }
    }

    fn dominated(&self, v: u32, d: f32, selected: &[u32], payload: &FlashBlocks) -> bool {
        let m = self.codec.subspaces();
        if m > NS_TABLE_SUBSPACES {
            return self.dominated_scalar(v, d, selected);
        }
        // With `v` fixed the SDT has the ADT's shape, so 16 selected
        // vertices cost one shuffle pass over their block.
        let mut table = [0u8; NS_TABLE_SUBSPACES * LUT_BATCH];
        let table = &mut table[..m * LUT_BATCH];
        self.codec.sdt_to(self.codes_of(v), table);
        let mut batch = [0u16; LUT_BATCH];
        debug_assert!(
            payload.bytes.len() >= selected.len().div_ceil(LUT_BATCH) * m * LUT_BATCH,
            "payload holds fewer blocks than the selected list needs"
        );
        selected
            .chunks(LUT_BATCH)
            .zip(payload.bytes.chunks_exact(m * LUT_BATCH))
            .any(|(lanes, block)| {
                lut16_batch(table, block, m, &mut batch);
                batch[..lanes.len()].iter().any(|&sum| f32::from(sum) < d)
            })
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        // Global codewords replace the original vectors; shared codec state
        // (codebooks, SDT, PCA basis) is counted once.
        self.codes.len() + self.codec.shared_bytes()
    }

    fn payload_bytes(&self, cap: usize) -> usize {
        cap.div_ceil(LUT_BATCH) * self.codec.subspaces() * LUT_BATCH
    }
}

/// Checks the block layout invariant used by `dist_to_neighbors`: byte
/// `(b, s, j)` equals the codeword of `ids[16b + j]` in subspace `s`.
/// Exposed for tests and the cache-simulation harness.
pub fn blocks_consistent(provider: &FlashProvider, payload: &FlashBlocks, ids: &[u32]) -> bool {
    let m = provider.codec().subspaces();
    let block_bytes = m * K;
    for (j, &id) in ids.iter().enumerate() {
        let block = j / K;
        let lane = j % K;
        let codes = provider.codes_of(id);
        for (s, &code) in codes.iter().enumerate().take(m) {
            if payload.bytes[block * block_bytes + s * K + lane] != code {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdops::level::with_level;

    fn provider(n: usize) -> FlashProvider {
        provider_m(n, 8)
    }

    /// A provider with `m_f` subspaces.
    fn provider_m(n: usize, m_f: usize) -> FlashProvider {
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), n, 1, 21);
        FlashProvider::new(
            base,
            FlashParams {
                d_f: 32,
                m_f,
                train_sample: n.min(400),
                kmeans_iters: 8,
                seed: 4,
                grid_quantile: 0.9,
            },
        )
    }

    #[test]
    fn batch_distances_match_single_lookups() {
        let p = provider(300);
        let ctx = p.prepare_insert(0);
        let ids: Vec<u32> = (1..40).collect();
        let mut payload = FlashBlocks::default();
        p.sync_payload(&mut payload, &ids);
        let mut batched = Vec::new();
        p.dist_to_neighbors(&ctx, &ids, &payload, &mut batched);
        assert_eq!(batched.len(), ids.len());
        for (&id, &d) in ids.iter().zip(batched.iter()) {
            assert_eq!(d, p.dist_to(&ctx, id), "id {id}");
        }
    }

    #[test]
    fn dist_to_neighbors_equals_the_scalar_kernel_at_every_level() {
        let _serial = crate::tests::serialize_level_tests();
        let p = provider(200);
        let ctx = p.prepare_insert(5);
        let ids: Vec<u32> = (10..58).collect();
        let mut payload = FlashBlocks::default();
        p.sync_payload(&mut payload, &ids);
        let m = p.codec().subspaces();
        let mut want = Vec::new();
        for block in payload.as_bytes().chunks_exact(m * LUT_BATCH) {
            let mut batch = [0u16; LUT_BATCH];
            simdops::lut::lut16_batch_scalar(&ctx.adt, block, m, &mut batch);
            want.extend(batch.iter().map(|&d| f32::from(d)));
        }
        want.truncate(ids.len());
        for level in simdops::supported_levels() {
            let mut got = Vec::new();
            with_level(level, || {
                p.dist_to_neighbors(&ctx, &ids, &payload, &mut got)
            });
            assert_eq!(got, want, "{level:?}");
        }
    }

    #[test]
    fn sync_payload_layout_invariant() {
        let p = provider(150);
        let ids: Vec<u32> = vec![
            3, 77, 12, 99, 140, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
        ];
        let mut payload = FlashBlocks::default();
        p.sync_payload(&mut payload, &ids);
        assert!(blocks_consistent(&p, &payload, &ids));
        // Two blocks for 18 ids with M_F = 8: 2 * 8 * 16 bytes.
        assert_eq!(payload.as_bytes().len(), 2 * 8 * 16);
    }

    /// The block Neighbor Selection would have built for `selected`.
    fn appended(p: &FlashProvider, selected: &[u32]) -> FlashBlocks {
        // Stale bytes from a longer list: lane 0 must discard them.
        let mut payload = FlashBlocks::default();
        p.sync_payload(&mut payload, &(0..40).collect::<Vec<u32>>());
        for (lane, &id) in selected.iter().enumerate() {
            p.append_payload(&mut payload, lane, id);
        }
        payload
    }

    #[test]
    fn appended_lanes_equal_a_full_sync() {
        let p = provider(120);
        for len in [1usize, 15, 16, 17, 32, 33] {
            let ids: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % 120).collect();
            let mut synced = FlashBlocks::default();
            p.sync_payload(&mut synced, &ids);
            assert_eq!(
                appended(&p, &ids).as_bytes(),
                synced.as_bytes(),
                "len {len}"
            );
        }
    }

    #[test]
    fn batched_dominated_equals_the_scalar_loop() {
        // Even and odd M_F (the kernel's pair/quad tails), every block
        // boundary of the selected list, thresholds on both sides of each
        // selected vertex's distance, at every dispatch level.
        let _serial = crate::tests::serialize_level_tests();
        for m_f in [8usize, 7, 5, 1] {
            let p = provider_m(160, m_f);
            for len in [0usize, 1, 15, 16, 17, 32] {
                let selected: Vec<u32> = (0..len as u32).map(|i| (i * 11 + 5) % 160).collect();
                let payload = appended(&p, &selected);
                for v in [0u32, 77, 159] {
                    let mut thresholds = vec![0.0f32, f32::INFINITY, -1.0];
                    for &u in &selected {
                        let d = p.dist_between(u, v);
                        thresholds.extend([d, d + 1.0]);
                    }
                    for d in thresholds {
                        let expect = p.dominated_scalar(v, d, &selected);
                        for level in simdops::supported_levels() {
                            assert_eq!(
                                with_level(level, || p.dominated(v, d, &selected, &payload)),
                                expect,
                                "m_f {m_f} len {len} v {v} d {d} {level:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dominated_reads_the_sdt_column_of_the_candidate() {
        // Plant SDT_s[a][b] = 13a + b: the distance from selected `u`
        // (first code) to candidate `v` (second code) is Σ 13·c_u + c_v,
        // and reading the table the other way round gives Σ 13·c_v + c_u.
        let mut p = provider(200);
        Arc::get_mut(&mut p.codec)
            .unwrap()
            .set_sdt_with(|_, a, b| (13 * a + b) as u8);
        let sum = |first: u32, second: u32| -> u16 {
            p.codes_of(first)
                .iter()
                .zip(p.codes_of(second))
                .map(|(&a, &b)| 13 * u16::from(a) + u16::from(b))
                .sum()
        };
        let mut checked = 0;
        for (u, v) in [(3u32, 150u32), (42, 7), (99, 100), (180, 12)] {
            let (column, row) = (sum(u, v), sum(v, u));
            if column == row {
                continue;
            }
            checked += 1;
            assert_eq!(p.codec.sdc_quantized(p.codes_of(u), p.codes_of(v)), column);
            let payload = appended(&p, &[u]);
            assert!(!p.dominated(v, f32::from(column), &[u], &payload));
            assert!(p.dominated(v, f32::from(column) + 1.0, &[u], &payload));
        }
        assert!(checked > 0, "every pair happened to be symmetric");
    }

    #[test]
    fn payload_lag_falls_back_to_single_lookups() {
        let p = provider(100);
        let ctx = p.prepare_insert(0);
        let ids: Vec<u32> = (1..20).collect();
        let empty = FlashBlocks::default();
        let mut out = Vec::new();
        p.dist_to_neighbors(&ctx, &ids, &empty, &mut out);
        assert_eq!(out.len(), ids.len());
        for (&id, &d) in ids.iter().zip(out.iter()) {
            assert_eq!(d, p.dist_to(&ctx, id));
        }
    }

    #[test]
    fn ca_and_ns_distances_on_one_grid() {
        // dist_to of a vector to itself ~ its quantization floor; SDT of its
        // code pair is exactly 0. The two stages must be on the same scale:
        // dist_to(self) must be much smaller than dist_to(random far id).
        let p = provider(300);
        let ctx = p.prepare_insert(42);
        let self_d = p.dist_to(&ctx, 42);
        let far: f32 = (0..300u32)
            .map(|i| p.dist_to(&ctx, i))
            .fold(0.0f32, f32::max);
        assert!(self_d <= far * 0.5, "self {self_d} vs farthest {far}");
        // dist_between(x, x) is the residual floor, not zero — it estimates
        // the distance between two *distinct* vectors sharing x's codes.
        let far_between: f32 = (0..300u32)
            .map(|i| p.dist_between(42, i))
            .fold(0.0f32, f32::max);
        assert!(
            p.dist_between(42, 42) <= far_between * 0.5,
            "self-SDT {} vs farthest {}",
            p.dist_between(42, 42),
            far_between
        );
    }

    #[test]
    fn aux_bytes_well_below_full_precision() {
        let p = provider(400);
        assert!(
            p.aux_bytes() < p.base().payload_bytes() / 4,
            "aux {} vs raw {}",
            p.aux_bytes(),
            p.base().payload_bytes()
        );
    }

    #[test]
    fn coding_time_recorded() {
        let p = provider(100);
        assert!(p.coding_ns() > 0);
    }

    #[test]
    fn new_is_train_then_from_codec() {
        let _serial = crate::tests::serialize_level_tests();
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 300, 1, 21);
        let params = FlashParams {
            d_f: 32,
            m_f: 8,
            train_sample: 200,
            kmeans_iters: 8,
            seed: 4,
            grid_quantile: 0.9,
        };
        let direct = FlashProvider::new(base.clone(), params);
        let staged = FlashProvider::from_codec(base.clone(), FlashCodec::train(&base, params));
        assert_eq!(direct.codes, staged.codes);
        assert_eq!(direct.codec().sdt(), staged.codec().sdt());
        // `new` times the training on top of the encoding it shares.
        assert!(direct.coding_ns() > staged.coding_ns());
    }

    #[test]
    fn insert_context_is_the_adt_encode_returns() {
        let _serial = crate::tests::serialize_level_tests();
        let p = provider(120);
        for id in [0u32, 7, 119] {
            let (codes, adt) = p.codec().encode(p.base().get(id as usize));
            assert_eq!(p.prepare_insert(id).adt, adt, "id {id}");
            assert_eq!(p.codes_of(id), codes, "id {id}");
        }
    }

    #[test]
    fn payload_bytes_matches_layout() {
        let p = provider(50);
        assert_eq!(p.payload_bytes(32), 2 * 8 * 16);
        assert_eq!(p.payload_bytes(1), 8 * 16);
        assert_eq!(p.payload_bytes(0), 0);
    }
}
