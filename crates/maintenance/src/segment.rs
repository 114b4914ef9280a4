//! An immutable, Flash-indexed data segment with tombstone deletes.

use crate::Hit;
use flash::{FlashCodec, FlashProvider};
use graphs::{
    search_layers_filtered, DistanceProvider, FrozenGraph, GraphLayers, Hnsw, HnswParams,
};
use std::sync::Arc;
use vecstore::VectorSet;

/// A sealed segment: a frozen HNSW-Flash graph over one batch of vectors.
///
/// Segments are never modified structurally after sealing — deletes only
/// flip tombstones. The graph still *routes* through tombstoned vertices
/// (removing them would require the re-linking surgery LSM systems avoid),
/// so a segment's search quality decays as its dead fraction grows; the
/// decay is what [`crate::LsmVectorIndex::rebuild`] repairs.
///
/// A segment does not own its codec: it encodes through the
/// `Arc<FlashCodec>` its index hands it, which other segments of the same
/// index share (see [`crate::LsmVectorIndex`]).
pub struct Segment {
    index: FrozenGraph<FlashProvider>,
    /// External ids, indexed by the segment-local vector id.
    ids: Vec<u64>,
    dead: Vec<bool>,
    live: usize,
    hnsw: HnswParams,
}

impl Segment {
    /// Seals `vectors` (with their external `ids`) into a segment: encodes
    /// them through `codec` (no training) and builds the HNSW graph.
    ///
    /// # Panics
    /// Panics if `vectors` and `ids` disagree in length or are empty.
    pub fn build(
        vectors: VectorSet,
        ids: Vec<u64>,
        codec: Arc<FlashCodec>,
        hnsw: HnswParams,
    ) -> Self {
        assert_eq!(vectors.len(), ids.len(), "one external id per vector");
        assert!(!ids.is_empty(), "segments must be non-empty");
        let n = ids.len();
        let provider = FlashProvider::from_codec(vectors, codec);
        let index = Hnsw::build(provider, hnsw).into_frozen();
        Self {
            index,
            ids,
            dead: vec![false; n],
            live: n,
            hnsw,
        }
    }

    /// Reassembles a segment from persisted parts: `vectors` are encoded
    /// through the stored `codec` (nothing is trained) and paired with the
    /// stored topology as is — used by
    /// [`Segment::load`](crate::Segment::load).
    ///
    /// # Panics
    /// Panics if the parts disagree on the vector count.
    pub fn restore(
        vectors: VectorSet,
        topology: GraphLayers,
        ids: Vec<u64>,
        dead: Vec<bool>,
        codec: Arc<FlashCodec>,
        hnsw: HnswParams,
    ) -> Self {
        assert_eq!(vectors.len(), ids.len(), "one external id per vector");
        assert_eq!(ids.len(), dead.len(), "one tombstone slot per vector");
        let index = FrozenGraph::new(FlashProvider::from_codec(vectors, codec), topology);
        let live = dead.iter().filter(|&&d| !d).count();
        Self {
            index,
            ids,
            dead,
            live,
            hnsw,
        }
    }

    /// The raw vectors the segment covers (persisted as fvecs).
    pub fn base_vectors(&self) -> &VectorSet {
        self.index.provider().base()
    }

    /// The graph topology (persisted via `graphs::persist`).
    pub fn topology(&self) -> &GraphLayers {
        self.index.layers()
    }

    /// External ids by local id.
    pub fn external_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Tombstone flags by local id.
    pub fn tombstones(&self) -> &[bool] {
        &self.dead
    }

    /// The codec the segment is coded with.
    pub fn codec(&self) -> &Arc<FlashCodec> {
        self.index.provider().codec()
    }

    /// Code rows of every vector by local id (`len * ⌈M_F / 2⌉` bytes, two
    /// codewords per byte).
    pub fn codes(&self) -> &[u8] {
        self.index.provider().codes()
    }

    /// The HNSW parameters the segment was built with.
    pub fn hnsw_params(&self) -> &HnswParams {
        &self.hnsw
    }

    /// Total vectors in the segment (live + tombstoned).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the segment holds no vectors (never true post-build).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Live vector count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Tombstoned vector count.
    pub fn dead(&self) -> usize {
        self.ids.len() - self.live
    }

    /// Whether `id` is present and live here.
    pub fn contains(&self, id: u64) -> bool {
        self.local_of(id).is_some()
    }

    /// Tombstones `id` if live; returns whether it did.
    pub fn delete(&mut self, id: u64) -> bool {
        if let Some(local) = self.local_of(id) {
            self.dead[local] = true;
            self.live -= 1;
            true
        } else {
            false
        }
    }

    fn local_of(&self, id: u64) -> Option<usize> {
        self.ids
            .iter()
            .enumerate()
            .position(|(i, &eid)| eid == id && !self.dead[i])
    }

    /// k-NN over the live vectors: a filtered beam search on the Flash
    /// graph followed by exact rescoring of the surviving candidates, each
    /// bounded by the `k`-th best so far ([`graphs::nearest_exact`]).
    ///
    /// The rerank pool is `ef` wide (not `k`): quantized distances tie
    /// heavily, and a pool as large as the beam keeps a consolidated
    /// single-segment index as accurate as a many-segment fan-out whose
    /// union of per-segment pools is implicitly wide.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Hit> {
        if self.live == 0 {
            return Vec::new();
        }
        let dead = &self.dead;
        let accept = move |lid: u32| !dead[lid as usize];
        let pool = ef.max(k.max(1) * 2);
        let (provider, layers) = (self.index.provider(), self.index.layers());
        let found = search_layers_filtered(provider, layers, query, pool, ef, &accept);
        let base = provider.base();
        let candidates = (found.iter()).map(|r| (self.ids[r.id as usize], base.get(r.id as usize)));
        graphs::nearest_exact(query, candidates, k)
    }

    /// Copies the live `(id, vector)` pairs out (rebuild input).
    pub fn export_live(&self) -> (VectorSet, Vec<u64>) {
        let base = self.index.provider().base();
        let mut out = VectorSet::with_capacity(base.dim(), self.live);
        let mut ids = Vec::with_capacity(self.live);
        for (i, v) in base.iter().enumerate() {
            if !self.dead[i] {
                out.push(v);
                ids.push(self.ids[i]);
            }
        }
        (out, ids)
    }

    /// Index bytes (graph + Flash codes + codec + id map + tombstones). The
    /// codec is counted whole even when other segments share it;
    /// [`crate::LsmVectorIndex::bytes`] counts each codec once.
    pub fn bytes(&self) -> usize {
        self.index.index_bytes() + self.ids.len() * 8 + self.dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash::FlashParams;
    use vecstore::{generate, DatasetProfile};

    fn small_segment(n: usize, seed: u64) -> (Segment, VectorSet) {
        let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), n, 8, seed);
        let ids: Vec<u64> = (0..n as u64).map(|i| i + 1000).collect();
        let codec = Arc::new(FlashCodec::train(&base, FlashParams::auto(256)));
        let seg = Segment::build(
            base,
            ids,
            codec,
            HnswParams {
                c: 48,
                r: 8,
                seed: 7,
            },
        );
        (seg, queries)
    }

    #[test]
    fn search_returns_external_ids() {
        let (seg, queries) = small_segment(300, 1);
        let hits = seg.search(queries.get(0), 5, 48);
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert!(
                h.id >= 1000 && h.id < 1300,
                "unexpected external id {}",
                h.id
            );
        }
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist, "hits must be distance-sorted");
        }
    }

    #[test]
    fn delete_excludes_from_results() {
        let (mut seg, queries) = small_segment(300, 2);
        let q = queries.get(0);
        let top = seg.search(q, 1, 64)[0].id;
        assert!(seg.delete(top));
        assert!(!seg.contains(top));
        assert_eq!(seg.dead(), 1);
        let after = seg.search(q, 5, 64);
        assert!(after.iter().all(|h| h.id != top), "deleted id resurfaced");
    }

    #[test]
    fn delete_unknown_id_is_noop() {
        let (mut seg, _) = small_segment(200, 3);
        assert!(!seg.delete(99_999));
        assert_eq!(seg.live(), 200);
    }

    #[test]
    fn export_live_skips_tombstones() {
        let (mut seg, _) = small_segment(200, 4);
        seg.delete(1000);
        seg.delete(1001);
        let (vectors, ids) = seg.export_live();
        assert_eq!(vectors.len(), 198);
        assert_eq!(ids.len(), 198);
        assert!(!ids.contains(&1000));
        assert!(!ids.contains(&1001));
    }

    #[test]
    fn all_deleted_segment_returns_empty() {
        let (mut seg, queries) = small_segment(64, 5);
        for id in 1000..1064 {
            seg.delete(id);
        }
        assert_eq!(seg.live(), 0);
        assert!(seg.search(queries.get(0), 3, 32).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_segment_rejected() {
        let codec = FlashCodec::train(&VectorSet::from_flat(4, vec![0.0; 4]), FlashParams::auto(4));
        let _ = Segment::build(
            VectorSet::new(4),
            Vec::new(),
            Arc::new(codec),
            HnswParams::default(),
        );
    }
}
