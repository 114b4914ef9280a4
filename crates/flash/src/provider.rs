//! The Flash [`DistanceProvider`]: register-resident table lookups in
//! both construction stages over the access-aware neighbor-codeword layout
//! (paper Sections 3.3.4 and 3.3.5). Candidate Acquisition shuffles a
//! visited vertex's block through the inserted vector's ADT; Neighbor
//! Selection shuffles the block of already-selected vertices through the
//! SDT distances to the candidate ([`FlashCodec::sdt_to`]) — the same
//! [`lut16_batch`] kernel, 16 distances per call, in both.
//!
//! Two copies of the codewords are kept, in two layouts. The global code
//! table holds every vector's row at the paper's density, two 4-bit
//! codewords per byte (`⌈M_F / 2⌉` bytes, read through [`nibble`]); it is
//! what single lookups, SDT rows and payload builds read, and what a
//! serving beam scores the ids it gathers on: it passes
//! [`DistanceProvider::dist_to_neighbors`] no block, so each id is one
//! table lookup straight on its packed row. The neighbor payload blocks —
//! the builder's row records during construction, [`graphs::NodePayloads`],
//! the frozen descent's rows — hold one codeword per byte, shuffle-ready,
//! so one register load feeds `pshufb` directly;
//! [`DistanceProvider::append_payload`] spreads each packed byte over its
//! two subspaces' slots.
//!
//! **Block layout.** The codewords of a neighbor list of length `L` with
//! `M_F` subspaces fill `ceil(L / 16)` blocks of `M_F * 16` bytes, grouped
//! subspace-major in batches of [`LUT_BATCH`] so one register load fetches
//! one (batch, subspace) pair: within block `b`, byte `s*16 + j` is the
//! codeword of neighbor `16b + j` in subspace `s`, zero past the end of the
//! list. A block region may be longer (a row record holds room for its
//! capacity); the blocks past `ceil(L / 16)` are never read.

use crate::codec::{nibble, FlashCodec, FlashParams, K};
use graphs::provider::{DistanceProvider, PruneRule};
/// Neighbor codeword blocks a caller owns, in the layout above.
pub use graphs::Blocks as FlashBlocks;
use simdops::{lut16_batch, lut16_single, LUT_BATCH};
use std::sync::Arc;
use vecstore::VectorSet;

/// Per-insert / per-query context: the quantized asymmetric distance table.
pub struct FlashCtx {
    /// `M_F * 16` bytes, subspace-major — each 16-byte run is one
    /// register-resident ADT.
    pub adt: Vec<u8>,
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
    /// Global per-vector code rows: `n * ⌈M_F / 2⌉` bytes, two 4-bit
    /// codewords per byte ([`nibble`] reads one). Source of truth for
    /// payload builds, single lookups (every id a serving beam gathers)
    /// and NS-stage SDT lookups.
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

    /// Code rows of every vector (`len * ⌈M_F / 2⌉` bytes, vector-major,
    /// two codewords per byte).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Nanoseconds spent in codec training + dataset encoding.
    pub fn coding_ns(&self) -> u64 {
        self.coding_ns
    }

    /// Scalar Neighbor Selection: one [`FlashCodec::sdc_quantized`] per
    /// selected vertex — the oracle [`DistanceProvider::dominated`]'s
    /// batched path must equal, for every rule.
    fn dominated_scalar<R: PruneRule>(&self, rule: &R, v: u32, d: f32, selected: &[u32]) -> bool {
        selected
            .iter()
            .any(|&u| rule.dominated(d, self.dist_between(u, v)))
    }

    /// Code row of vector `id` (`⌈M_F / 2⌉` bytes; [`nibble`] reads
    /// subspace `s`).
    #[inline]
    pub fn codes_of(&self, id: u32) -> &[u8] {
        let row = self.codec.code_bytes();
        &self.codes[id as usize * row..(id as usize + 1) * row]
    }
}

impl DistanceProvider for FlashProvider {
    type QueryCtx = FlashCtx;

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

    fn dist_to_neighbors(&self, ctx: &FlashCtx, ids: &[u32], blocks: &[u8], out: &mut Vec<f32>) {
        out.clear();
        let m = self.codec.subspaces();
        let block_bytes = m * LUT_BATCH;
        let blocks_available = blocks.len() / block_bytes.max(1);
        let mut batch = [0u16; LUT_BATCH];
        let mut produced = 0usize;
        for b in 0..ids.len().div_ceil(LUT_BATCH) {
            let take = (ids.len() - produced).min(LUT_BATCH);
            if b < blocks_available {
                let block = &blocks[b * block_bytes..(b + 1) * block_bytes];
                lut16_batch(&ctx.adt, block, m, &mut batch);
                out.extend(batch[..take].iter().map(|&d| f32::from(d)));
            } else {
                // Ids no block covers (the beam's gathered ids, scored
                // against none): one lookup each,
                // straight on the packed code row.
                out.extend(
                    ids[produced..produced + take]
                        .iter()
                        .map(|&id| self.dist_to(ctx, id)),
                );
            }
            produced += take;
        }
    }

    fn append_payload(&self, blocks: &mut [u8], lane: usize, id: u32) {
        let m = self.codec.subspaces();
        let block_bytes = m * LUT_BATCH;
        let (block, slot) = (lane / LUT_BATCH, lane % LUT_BATCH);
        let dst = &mut blocks[block * block_bytes..(block + 1) * block_bytes];
        if slot == 0 {
            // A new block, zero-padded; at lane 0, a new list.
            dst.fill(0);
        }
        // Packed byte `p` fills the lane's slots of subspaces 2p and 2p + 1.
        // Every query expansion runs this; one `nibble` call per subspace
        // made `sync_payload` of 16 ids about twice as slow.
        let codes = self.codes_of(id);
        for (pair, &byte) in dst.chunks_exact_mut(2 * LUT_BATCH).zip(codes) {
            pair[slot] = byte & 0x0f;
            pair[LUT_BATCH + slot] = byte >> 4;
        }
        if m % 2 == 1 {
            dst[(m - 1) * LUT_BATCH + slot] = nibble(codes, m - 1);
        }
    }

    fn dominated<R: PruneRule>(
        &self,
        rule: &R,
        v: u32,
        d: f32,
        selected: &[u32],
        blocks: &[u8],
    ) -> bool {
        let m = self.codec.subspaces();
        if m > NS_TABLE_SUBSPACES {
            return self.dominated_scalar(rule, v, d, selected);
        }
        // With `v` fixed the SDT has the ADT's shape, so 16 selected
        // vertices cost one shuffle pass over their block.
        let mut table = [0u8; NS_TABLE_SUBSPACES * LUT_BATCH];
        let table = &mut table[..m * LUT_BATCH];
        self.codec.sdt_to(self.codes_of(v), table);
        let mut batch = [0u16; LUT_BATCH];
        debug_assert!(
            blocks.len() >= selected.len().div_ceil(LUT_BATCH) * m * LUT_BATCH,
            "the block region holds fewer blocks than the selected list needs"
        );
        selected
            .chunks(LUT_BATCH)
            .zip(blocks.chunks_exact(m * LUT_BATCH))
            .any(|(lanes, block)| {
                lut16_batch(table, block, m, &mut batch);
                batch[..lanes.len()]
                    .iter()
                    .any(|&sum| rule.dominated(d, f32::from(sum)))
            })
    }

    fn coded(&self) -> bool {
        true
    }

    fn aux_bytes(&self) -> usize {
        // Global code rows replace the original vectors; shared codec state
        // (codebooks, SDT, PCA basis) is counted once.
        self.codes.len() + self.codec.shared_bytes()
    }

    fn payload_bytes(&self, cap: usize) -> usize {
        cap.div_ceil(LUT_BATCH) * self.codec.subspaces() * LUT_BATCH
    }

    fn code_row_bytes(&self) -> usize {
        self.codec.code_bytes()
    }
}

/// Checks the block layout invariant used by `dist_to_neighbors`: byte
/// `(b, s, j)` of `blocks` equals the codeword of `ids[16b + j]` in
/// subspace `s`. Exposed for tests and the cache-simulation harness.
pub fn blocks_consistent(provider: &FlashProvider, blocks: &[u8], ids: &[u32]) -> bool {
    let m = provider.codec().subspaces();
    let block_bytes = m * K;
    for (j, &id) in ids.iter().enumerate() {
        let block = j / K;
        let lane = j % K;
        let codes = provider.codes_of(id);
        for s in 0..m {
            if blocks[block * block_bytes + s * K + lane] != nibble(codes, s) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{AlphaRule, MrngRule, TauRule};
    use simdops::level::with_level;

    fn provider(n: usize) -> FlashProvider {
        provider_m(n, 8)
    }

    /// A provider with `m_f` subspaces.
    fn provider_m(n: usize, m_f: usize) -> FlashProvider {
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), n, 1, 21);
        provider_over(base, m_f)
    }

    /// A provider with `m_f` subspaces over `base`.
    fn provider_over(base: VectorSet, m_f: usize) -> FlashProvider {
        let n = base.len();
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
        p.dist_to_neighbors(&ctx, &ids, payload.as_bytes(), &mut batched);
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
                p.dist_to_neighbors(&ctx, &ids, payload.as_bytes(), &mut got)
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
        assert!(blocks_consistent(&p, payload.as_bytes(), &ids));
        // Two blocks for 18 ids with M_F = 8: 2 * 8 * 16 bytes.
        assert_eq!(payload.as_bytes().len(), 2 * 8 * 16);
    }

    /// The block Neighbor Selection would have built for `selected`, cut
    /// to the list's own blocks.
    fn appended(p: &FlashProvider, selected: &[u32]) -> Vec<u8> {
        // Stale bytes from a longer list: lane 0 must discard them.
        let mut stale = FlashBlocks::default();
        p.sync_payload(&mut stale, &(0..40).collect::<Vec<u32>>());
        let mut block = stale.as_bytes().to_vec();
        for (lane, &id) in selected.iter().enumerate() {
            p.append_payload(&mut block, lane, id);
        }
        block.truncate(p.payload_bytes(selected.len()));
        block
    }

    #[test]
    fn appended_lanes_equal_a_full_sync() {
        let p = provider(120);
        for len in [1usize, 15, 16, 17, 32, 33] {
            let ids: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % 120).collect();
            let mut synced = FlashBlocks::default();
            p.sync_payload(&mut synced, &ids);
            assert_eq!(appended(&p, &ids), synced.as_bytes(), "len {len}");
        }
    }

    #[test]
    fn packed_rows_serve_every_reader_at_every_level() {
        let _serial = crate::tests::serialize_level_tests();
        // 64-d rows keep the twenty PCA fits cheap.
        let spec = vecstore::DatasetSpec::new(64, 40, 0.96, 0.4, 9);
        let (base, _) = vecstore::generate(&spec, 140, 1, 21);
        for level in simdops::supported_levels() {
            for m_f in [1usize, 5, 7, 8, 16] {
                with_level(level, || {
                    let p = provider_over(base.clone(), m_f);
                    packed_readers_agree(&p, &format!("{level:?} m_f {m_f}"))
                });
            }
        }
    }

    /// Every reader of the packed code rows against an unpacked reference:
    /// the codewords, single and batched lookups, SDT sums, payload blocks
    /// and the byte accounting.
    fn packed_readers_agree(p: &FlashProvider, name: &str) {
        let codec = p.codec();
        let (m, n) = (codec.subspaces(), p.len());
        assert_eq!(
            p.aux_bytes(),
            n * codec.code_bytes() + codec.shared_bytes(),
            "{name}"
        );
        assert_eq!(p.codes().len(), n * m.div_ceil(2), "{name}");
        for id in 0..n as u32 {
            let row = p.codes_of(id);
            let want = crate::codec::tests::codewords(codec, p.base().get(id as usize));
            let got: Vec<u8> = (0..m).map(|s| nibble(row, s)).collect();
            assert_eq!(got, want, "{name} id {id}");
            if m % 2 == 1 {
                assert_eq!(row[m / 2] >> 4, 0, "{name} id {id}: padding nibble");
            }
        }

        let ids: Vec<u32> = (0..40u32).map(|i| (i * 7 + 1) % n as u32).collect();
        let mut synced = FlashBlocks::default();
        p.sync_payload(&mut synced, &ids);
        assert!(blocks_consistent(p, synced.as_bytes(), &ids), "{name}");
        assert_eq!(appended(p, &ids), synced.as_bytes(), "{name}");
        let ctx = p.prepare_insert(3);
        let mut lanes = [0u16; LUT_BATCH];
        for (block, chunk) in synced
            .as_bytes()
            .chunks_exact(m * LUT_BATCH)
            .zip(ids.chunks(LUT_BATCH))
        {
            lut16_batch(&ctx.adt, block, m, &mut lanes);
            for (&id, &lane) in chunk.iter().zip(&lanes) {
                assert_eq!(p.dist_to(&ctx, id), f32::from(lane), "{name} id {id}");
            }
        }

        // `SDT_s[a][b]` for first code `a`, second code `b` is at
        // `s*256 + b*16 + a`.
        let sdt = codec.sdt();
        for (&a, &b) in ids.iter().zip(ids.iter().rev()) {
            let (ra, rb) = (p.codes_of(a), p.codes_of(b));
            let sum: u16 = (0..m)
                .map(|s| {
                    let (ca, cb) = (usize::from(nibble(ra, s)), usize::from(nibble(rb, s)));
                    u16::from(sdt[s * K * K + cb * K + ca])
                })
                .sum();
            assert_eq!(p.dist_between(a, b), f32::from(sum), "{name} ({a}, {b})");
        }
    }

    #[test]
    fn batched_dominated_equals_the_scalar_loop() {
        // Even and odd M_F (the kernel's pair/quad tails), every block
        // boundary of the selected list, thresholds on both sides of each
        // rule's boundary for each selected vertex, every rule, at every
        // dispatch level.
        let _serial = crate::tests::serialize_level_tests();
        for m_f in [8usize, 7, 5, 1] {
            let p = provider_m(160, m_f);
            batched_equals_scalar(&p, &MrngRule, "MRNG");
            batched_equals_scalar(&p, &TauRule { tau: 0.1 }, "τ 0.1");
            batched_equals_scalar(&p, &TauRule { tau: 0.5 }, "τ 0.5");
            batched_equals_scalar(&p, &AlphaRule::new(1.2), "α 1.2");
        }
    }

    /// `dominated` under `rule` equals [`FlashProvider::dominated_scalar`]
    /// at every dispatch level.
    fn batched_equals_scalar<R: PruneRule>(p: &FlashProvider, rule: &R, name: &str) {
        let m_f = p.codec().subspaces();
        let alpha_sq = AlphaRule::new(1.2).alpha_sq;
        for len in [0usize, 1, 15, 16, 17, 32] {
            let selected: Vec<u32> = (0..len as u32).map(|i| (i * 11 + 5) % 160).collect();
            let payload = appended(p, &selected);
            for v in [0u32, 77, 159] {
                let mut thresholds = vec![0.0f32, f32::INFINITY, -1.0];
                for &u in &selected {
                    // Where MRNG, α = 1.2 and τ ∈ {0.1, 0.5} start to prune.
                    let d = p.dist_between(u, v);
                    let tau = |t: f32| (d.sqrt() + 3.0 * t).powi(2);
                    for edge in [d, alpha_sq * d, tau(0.1), tau(0.5)] {
                        thresholds.extend([edge, edge + 1.0]);
                    }
                }
                for d in thresholds {
                    let expect = p.dominated_scalar(rule, v, d, &selected);
                    for level in simdops::supported_levels() {
                        assert_eq!(
                            with_level(level, || p.dominated(rule, v, d, &selected, &payload)),
                            expect,
                            "{name} m_f {m_f} len {len} v {v} d {d} {level:?}"
                        );
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
            let (a, b) = (p.codes_of(first), p.codes_of(second));
            (0..p.codec().subspaces())
                .map(|s| 13 * u16::from(nibble(a, s)) + u16::from(nibble(b, s)))
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
            assert!(!p.dominated(&MrngRule, v, f32::from(column), &[u], &payload));
            assert!(p.dominated(&MrngRule, v, f32::from(column) + 1.0, &[u], &payload));
        }
        assert!(checked > 0, "every pair happened to be symmetric");
    }

    /// Ids past the payload's blocks are looked up on the code table and
    /// score `dist_to`'s bits at every level, for even and odd `M_F` and
    /// 1 to 40 ids (so the last block is partial), the table's last rows
    /// included; a payload covering the first block leaves the rest to the
    /// single lookups.
    #[test]
    fn payload_lag_falls_back_to_single_lookups() {
        let _serial = crate::tests::serialize_level_tests();
        let spec = vecstore::DatasetSpec::new(64, 40, 0.96, 0.4, 9);
        let (base, _) = vecstore::generate(&spec, 100, 1, 21);
        for m_f in [1usize, 5, 7, 16] {
            let p = provider_over(base.clone(), m_f);
            let ctx = p.prepare_insert(0);
            for len in 1..=40u32 {
                let ids: Vec<u32> = (0..len).map(|i| 99 - (i * 13) % 100).collect();
                let mut first_block = FlashBlocks::default();
                p.sync_payload(&mut first_block, &ids[..ids.len().min(LUT_BATCH)]);
                let want: Vec<u32> = ids
                    .iter()
                    .map(|&id| p.dist_to(&ctx, id).to_bits())
                    .collect();
                for level in simdops::supported_levels() {
                    for block in [&[][..], first_block.as_bytes()] {
                        let mut out = Vec::new();
                        with_level(level, || p.dist_to_neighbors(&ctx, &ids, block, &mut out));
                        let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                        assert_eq!(got, want, "{level:?} m_f {m_f} len {len}");
                    }
                }
            }
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
