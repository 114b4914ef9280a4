//! The user-facing LSM vector index: memtable + sealed segments + rebuild.

use crate::memtable::MemTable;
use crate::segment::Segment;
use crate::{by_dist_then_id, Hit};
use flash::{FlashCodec, FlashParams};
use graphs::{HnswParams, QueryProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vecstore::VectorSet;

/// A flush re-fits the codec when the memtable's mean quantization error
/// ([`FlashCodec::quantization_error`]) exceeds this multiple of the
/// current codec's own training error ([`FlashCodec::train_error`]).
///
/// Sized on 256-d codecs trained on 2 048 vectors (the default memtable):
/// later memtables of the same corpus score 1.03–1.04, a reseed of the same
/// profile 1.44, and a harmless drift (`DatasetSpec::new(256, 120, 0.96,
/// 0.40, 999)`) 1.20 with recall@10 unchanged at 0.9967 — all reuse the
/// codec. A harmful drift (`DatasetSpec::new(256, 300, 0.99, 0.30, 4242)`)
/// scores 5.18; coding it with the old codec dropped recall@10 of its
/// queries from 0.989 to 0.860, so it is re-fitted.
const DRIFT_RATIO: f64 = 2.0;

/// Configuration of the LSM pipeline.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Memtable capacity; reaching it seals the buffer into a segment.
    pub memtable_cap: usize,
    /// Flash coding parameters for sealed segments.
    pub flash: FlashParams,
    /// HNSW construction parameters for sealed segments.
    pub hnsw: HnswParams,
}

impl LsmConfig {
    /// Defaults scaled for tests and examples: a 2 048-vector memtable and
    /// the paper's tuned Flash settings for `dim`.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            dim,
            memtable_cap: 2048,
            flash: FlashParams::auto(dim),
            hnsw: HnswParams {
                c: 96,
                r: 12,
                seed: 0x11FE,
            },
        }
    }
}

/// Point-in-time shape of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmStats {
    /// Sealed segments currently serving queries.
    pub segments: usize,
    /// Live vectors across segments + memtable.
    pub live: usize,
    /// Tombstoned vectors still occupying graph vertices.
    pub dead: usize,
    /// Vectors in the mutable buffer.
    pub memtable: usize,
    /// Flash codec trainings over the index's life: the first flush, each
    /// flush the drift guard re-fitted, and each non-empty rebuild.
    pub codec_fits: usize,
}

/// Outcome of a rebuild (the paper's "overnight reconstruction").
#[derive(Debug, Clone, Copy)]
pub struct RebuildReport {
    /// Wall-clock spent rebuilding (dominated by Flash construction).
    pub duration: Duration,
    /// Live vectors compacted into the new segment.
    pub vectors: usize,
    /// Tombstones reclaimed.
    pub reclaimed: usize,
}

/// An LSM-maintained ANN index over Flash segments.
///
/// Inserts are `O(1)` appends until the memtable seals; deletes tombstone
/// in place; searches fan out over the memtable scan and a filtered graph
/// search per segment, run side by side on the workspace's `rayon` pool as
/// FreshDiskANN (arXiv:2105.09613) searches its fresh and main indexes,
/// merging by exact distance. Over many update cycles the segment count
/// and tombstone fraction grow and search quality decays;
/// [`Self::rebuild`] compacts everything into one fresh segment, which is
/// exactly the operation whose cost determines whether the maintenance
/// window fits — and which Flash accelerates by an order of magnitude.
///
/// **One current codec.** Codec training is a fixed per-index cost (the
/// paper's Table 4 coding time), so the index holds one current
/// `Arc<FlashCodec>`: the first flush fits it, later flushes only encode
/// through it, and segments coded alike share it. FreshDiskANN
/// (arXiv:2105.09613) likewise trains its PQ codebook once and reuses it
/// for every insert and merge. Unlike FreshDiskANN, a flush first checks
/// the memtable against the codec: when its quantization error exceeds
/// twice the codec's training error the data has drifted, and the flush
/// re-fits on the memtable and makes that codec current (sharing a codec
/// across a harmful drift cost 13 points of recall@10; see `DRIFT_RATIO`).
/// [`Self::rebuild`] always re-fits once over the live vectors.
/// [`LsmStats::codec_fits`] counts the trainings.
pub struct LsmVectorIndex {
    config: LsmConfig,
    memtable: MemTable,
    segments: Vec<Segment>,
    /// What the next flush encodes through, unless the guard re-fits;
    /// `None` until the first flush.
    codec: Option<Arc<FlashCodec>>,
    codec_fits: usize,
    next_id: u64,
    generation: u64,
}

impl LsmVectorIndex {
    /// An empty index.
    pub fn new(config: LsmConfig) -> Self {
        assert!(
            config.memtable_cap >= 1,
            "memtable capacity must be positive"
        );
        Self {
            memtable: MemTable::new(config.dim),
            segments: Vec::new(),
            codec: None,
            codec_fits: 0,
            next_id: 0,
            generation: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Reassembles an index from persisted parts (see
    /// [`Self::load`](LsmVectorIndex::load)): `codec` is the current codec
    /// and `codec_fits` the training count [`LsmStats::codec_fits`]
    /// continues from.
    pub fn restore(
        config: LsmConfig,
        memtable: MemTable,
        segments: Vec<Segment>,
        codec: Option<Arc<FlashCodec>>,
        next_id: u64,
        codec_fits: usize,
    ) -> Self {
        Self {
            config,
            memtable,
            segments,
            codec,
            codec_fits,
            next_id,
            generation: 0,
        }
    }

    /// Monotone mutation counter: bumped by every operation that can change
    /// search results ([`Self::insert`], [`Self::delete`], [`Self::flush`],
    /// [`Self::rebuild`]). Result caches key their entries to this value and
    /// treat a bump as wholesale invalidation (see `serving::QueryCache`).
    /// Not persisted: a restored index restarts at 0, which is safe because
    /// caches built over the old process are gone with it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The codec the next flush encodes through unless it re-fits (`None`
    /// before the first flush).
    pub(crate) fn codec(&self) -> Option<&Arc<FlashCodec>> {
        self.codec.as_ref()
    }

    /// The distinct codecs of the sealed segments, in order of first use.
    pub(crate) fn segment_codecs(&self) -> Vec<&Arc<FlashCodec>> {
        let mut codecs: Vec<&Arc<FlashCodec>> = Vec::new();
        for seg in &self.segments {
            if !codecs.iter().any(|c| Arc::ptr_eq(c, seg.codec())) {
                codecs.push(seg.codec());
            }
        }
        codecs
    }

    /// The next external id that [`Self::insert`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Inserts a vector, returning its stable external id. Seals the
    /// memtable into a segment when it reaches capacity.
    ///
    /// # Panics
    /// Panics if `v`'s length differs from the configured dimension.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        assert_eq!(v.len(), self.config.dim, "dimension mismatch");
        let id = self.next_id;
        self.next_id += 1;
        self.generation += 1;
        self.memtable.insert(id, v);
        if self.memtable.len() >= self.config.memtable_cap {
            self.flush();
        }
        id
    }

    /// Tombstones `id` wherever it lives; returns whether it was found.
    pub fn delete(&mut self, id: u64) -> bool {
        let deleted = self.memtable.delete(id) || self.segments.iter_mut().any(|s| s.delete(id));
        if deleted {
            self.generation += 1;
        }
        deleted
    }

    /// Whether `id` is live anywhere.
    pub fn contains(&self, id: u64) -> bool {
        self.memtable.contains(id) || self.segments.iter().any(|s| s.contains(id))
    }

    /// k-NN across memtable and all segments, merged by exact distance.
    ///
    /// The memtable scan and each segment holding live vectors are one unit
    /// each, started at once on the `rayon` pool (`rayon::fan_out`); their
    /// hits are merged in unit order and sorted by `(dist, id)`, so the
    /// result does not depend on the pool's width. An index with one such
    /// unit (a rebuilt one) runs it on the caller, and so does a search
    /// made inside a pool job (a shard of a serving fan-out), unit after
    /// unit. What the units add to the query profile
    /// ([`graphs::profile_take`]) lands on the caller's thread, wherever
    /// they ran.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Hit> {
        let memtable = usize::from(self.memtable.live() > 0);
        let segments: Vec<&Segment> = self.segments.iter().filter(|s| s.live() > 0).collect();
        let unit = |u: usize| {
            counted(|| match u.checked_sub(memtable) {
                None => self.memtable.search(query, k),
                Some(s) => segments[s].search(query, k, ef),
            })
        };
        let units = rayon::fan_out(
            (0..memtable + segments.len())
                .map(|u| move || unit(u))
                .collect(),
        );
        let mut hits = Vec::with_capacity(units.iter().map(|(h, _)| h.len()).sum());
        for (unit_hits, profile) in units {
            hits.extend(unit_hits);
            graphs::profile_record(profile);
        }
        hits.sort_by(by_dist_then_id);
        hits.dedup_by_key(|h| h.id);
        hits.truncate(k);
        hits
    }

    /// Seals the memtable into a segment (no-op when it holds no live
    /// vectors), coded through the current codec — or through a codec
    /// fitted on the memtable when it has drifted from the current one.
    pub fn flush(&mut self) {
        if self.memtable.live() == 0 {
            // Nothing worth sealing; clear any all-tombstone residue.
            let _ = self.memtable.drain_live();
            return;
        }
        let (vectors, ids) = self.memtable.drain_live();
        // Sealing re-encodes exact memtable vectors into a compressed
        // segment, which can shift reported distances — invalidate caches.
        self.generation += 1;
        let codec = match &self.codec {
            Some(codec) if !drifted(codec, &vectors) => Arc::clone(codec),
            _ => self.fit(&vectors),
        };
        self.segments
            .push(Segment::build(vectors, ids, codec, self.config.hnsw));
    }

    /// Trains a codec on `vectors` and makes it current.
    fn fit(&mut self, vectors: &VectorSet) -> Arc<FlashCodec> {
        let codec = Arc::new(FlashCodec::train(vectors, self.config.flash));
        self.codec_fits += 1;
        self.codec = Some(Arc::clone(&codec));
        codec
    }

    /// Compacts every live vector (segments + memtable) into one fresh
    /// Flash segment, dropping all tombstones, through a codec fitted on
    /// those vectors, which becomes current. This is the periodic
    /// reconstruction the paper's introduction describes; its duration is
    /// dominated by graph construction, so Flash shrinks the maintenance
    /// window directly.
    pub fn rebuild(&mut self) -> RebuildReport {
        let start = Instant::now();
        self.generation += 1;
        let reclaimed: usize = self.segments.iter().map(|s| s.dead()).sum();
        let mut all = VectorSet::new(self.config.dim);
        let mut ids = Vec::new();
        for seg in &self.segments {
            let (v, i) = seg.export_live();
            all.extend_from(&v);
            ids.extend(i);
        }
        for (id, v) in self.memtable.iter_live() {
            all.push(v);
            ids.push(id);
        }
        self.segments.clear();
        let _ = self.memtable.drain_live();
        let vectors = ids.len();
        if vectors > 0 {
            let codec = self.fit(&all);
            self.segments
                .push(Segment::build(all, ids, codec, self.config.hnsw));
        }
        RebuildReport {
            duration: start.elapsed(),
            vectors,
            reclaimed,
        }
    }

    /// Current shape of the index.
    pub fn stats(&self) -> LsmStats {
        LsmStats {
            segments: self.segments.len(),
            live: self.memtable.live() + self.segments.iter().map(|s| s.live()).sum::<usize>(),
            dead: self.segments.iter().map(|s| s.dead()).sum(),
            memtable: self.memtable.len(),
            codec_fits: self.codec_fits,
        }
    }

    /// Total bytes across memtable and segments, each distinct codec
    /// counted once however many segments share it.
    pub fn bytes(&self) -> usize {
        let segments: usize = (self.segments.iter())
            .map(|s| s.bytes() - s.codec().shared_bytes())
            .sum();
        let codecs: usize = (self.segment_codecs().iter())
            .map(|c| c.shared_bytes())
            .sum();
        self.memtable.bytes() + segments + codecs
    }
}

/// Runs `f` and returns, with its result, what it added to this thread's
/// query profile, leaving the profile as it was before.
fn counted<R>(f: impl FnOnce() -> R) -> (R, QueryProfile) {
    let before = graphs::profile_take();
    let result = f();
    let added = graphs::profile_take();
    graphs::profile_record(before);
    (result, added)
}

/// Whether `vectors` code so much worse through `codec` than its training
/// data did that the codec should be re-fitted (see `DRIFT_RATIO`).
fn drifted(codec: &FlashCodec, vectors: &VectorSet) -> bool {
    codec.quantization_error(vectors) > DRIFT_RATIO * codec.train_error()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn config(dim: usize, cap: usize) -> LsmConfig {
        let mut c = LsmConfig::for_dim(dim);
        c.memtable_cap = cap;
        c.hnsw = HnswParams {
            c: 48,
            r: 8,
            seed: 3,
        };
        c
    }

    fn random_vec(rng: &mut SmallRng, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn ids_are_stable_and_monotonic() {
        let mut index = LsmVectorIndex::new(config(8, 64));
        let mut rng = SmallRng::seed_from_u64(1);
        let a = index.insert(&random_vec(&mut rng, 8));
        let b = index.insert(&random_vec(&mut rng, 8));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert!(index.contains(a));
    }

    #[test]
    fn memtable_seals_at_capacity() {
        let mut index = LsmVectorIndex::new(config(8, 128));
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..300 {
            index.insert(&random_vec(&mut rng, 8));
        }
        let stats = index.stats();
        assert_eq!(stats.segments, 2, "two seals at cap 128 after 300 inserts");
        assert_eq!(stats.live, 300);
        assert_eq!(stats.memtable, 300 - 256);
    }

    #[test]
    fn search_spans_memtable_and_segments() {
        let mut index = LsmVectorIndex::new(config(4, 64));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..80 {
            index.insert(&random_vec(&mut rng, 4));
        }
        // 64 sealed + 16 in memtable. Plant one distinctive vector in each.
        let sealed_probe = index.search(&[0.0; 4], 1, 32); // whatever is closest
        assert!(!sealed_probe.is_empty());
        let special = index.insert(&[9.0, 9.0, 9.0, 9.0]);
        let hits = index.search(&[9.0, 9.0, 9.0, 9.0], 1, 32);
        assert_eq!(hits[0].id, special, "memtable vector must be findable");
    }

    #[test]
    fn delete_across_tiers() {
        let mut index = LsmVectorIndex::new(config(4, 32));
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ids = Vec::new();
        for _ in 0..48 {
            ids.push(index.insert(&random_vec(&mut rng, 4)));
        }
        // ids[0] is sealed; the last insert is still buffered.
        assert!(index.delete(ids[0]));
        assert!(index.delete(*ids.last().unwrap()));
        assert!(!index.delete(9999));
        assert!(!index.contains(ids[0]));
        let stats = index.stats();
        assert_eq!(stats.live, 46);
    }

    #[test]
    fn rebuild_compacts_to_single_segment() {
        let mut index = LsmVectorIndex::new(config(8, 64));
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.push(index.insert(&random_vec(&mut rng, 8)));
        }
        for id in ids.iter().take(40) {
            index.delete(*id);
        }
        let before = index.stats();
        assert!(before.segments >= 3);
        assert_eq!(before.dead + before.live, 200);

        let report = index.rebuild();
        assert_eq!(report.vectors, 160);
        let after = index.stats();
        assert_eq!(after.segments, 1);
        assert_eq!(after.live, 160);
        assert_eq!(after.dead, 0);

        // Deleted ids stay gone; survivors stay findable.
        assert!(!index.contains(ids[0]));
        assert!(index.contains(ids[100]));
    }

    #[test]
    fn bytes_count_a_shared_codec_once() {
        // 1 000 uniform vectors per memtable: small ones overfit their codec
        // (200 at 16-d already score 1.7-2.0 against it) and re-fit.
        let mut index = LsmVectorIndex::new(config(16, 1000));
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..4 * 1000 {
            index.insert(&random_vec(&mut rng, 16));
        }
        let segments = index.segments();
        assert_eq!(segments.len(), 4);
        let codec = segments[0].codec();
        assert!(segments.iter().all(|s| Arc::ptr_eq(s.codec(), codec)));
        assert_eq!(index.stats().codec_fits, 1);
        let summed: usize = segments.iter().map(|s| s.bytes()).sum();
        assert_eq!(index.bytes(), summed - 3 * codec.shared_bytes());
    }

    #[test]
    fn rebuild_of_empty_index_is_harmless() {
        let mut index = LsmVectorIndex::new(config(4, 16));
        let report = index.rebuild();
        assert_eq!(report.vectors, 0);
        assert_eq!(index.stats().segments, 0);
        assert!(index.search(&[0.0; 4], 3, 16).is_empty());
    }

    #[test]
    fn search_never_returns_tombstoned_ids() {
        let mut index = LsmVectorIndex::new(config(4, 64));
        let mut rng = SmallRng::seed_from_u64(6);
        let mut ids = Vec::new();
        for _ in 0..128 {
            ids.push(index.insert(&random_vec(&mut rng, 4)));
        }
        for id in ids.iter().step_by(3) {
            index.delete(*id);
        }
        let q = random_vec(&mut rng, 4);
        for hit in index.search(&q, 10, 64) {
            assert!(index.contains(hit.id), "dead id {} returned", hit.id);
        }
    }
}
