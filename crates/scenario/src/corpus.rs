//! A mutable corpus view over an immutable serving topology.
//!
//! The serving stacks under test (sharded, replicated, remote) are built
//! once over the base corpus and never change. Realistic traffic mutates,
//! though — so [`ScenarioCorpus`] overlays the static core with the
//! workspace's own LSM index, exactly the way a production deployment
//! fronts immutable segment servers with a write path:
//!
//! * **inserts** land in an [`LsmVectorIndex`] overlay (global ids
//!   `base_n..`), searched alongside the core and merged by exact
//!   `(dist, id)` order;
//! * **deletes** of core ids go into a tombstone set; core searches are
//!   widened by the tombstone count and filtered on gather, so deleted
//!   vectors can never resurface (overlay ids delete natively);
//! * [`ScenarioCorpus::generation`] combines the overlay's generation
//!   with a core-tombstone counter — the invalidation signal a
//!   `QueryCache` layered above must sync after every mutation burst.
//!
//! When nothing has mutated yet, search batches pass straight through to
//! the core (`search_batch` fan-out included), so immutable
//! scenarios measure the underlying topology, not the wrapper.

use engine::{AnnIndex, Hit, SearchRequest, SearchResponse};
use maintenance::{LsmConfig, LsmVectorIndex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The static core plus its mutation overlay. See module docs.
pub struct ScenarioCorpus {
    core: Arc<dyn AnnIndex>,
    base_n: usize,
    dim: usize,
    overlay: RwLock<LsmVectorIndex>,
    /// Tombstoned core ids (`< base_n`).
    deleted: RwLock<HashSet<u64>>,
    /// Count of core tombstones ever created (generation component).
    core_deletes: AtomicU64,
}

impl ScenarioCorpus {
    /// Wraps `core`; `base_n` is its (fixed) vector count.
    pub fn new(core: Arc<dyn AnnIndex>) -> Self {
        let base_n = core.len();
        let dim = core.dim();
        Self {
            core,
            base_n,
            dim,
            overlay: RwLock::new(LsmVectorIndex::new(LsmConfig::for_dim(dim))),
            deleted: RwLock::new(HashSet::new()),
            core_deletes: AtomicU64::new(0),
        }
    }

    /// The wrapped serving core.
    pub fn core(&self) -> &Arc<dyn AnnIndex> {
        &self.core
    }

    /// Base-corpus size (ids `0..base_n` address the core).
    pub fn base_n(&self) -> usize {
        self.base_n
    }

    /// Inserts a vector, returning its global id (`base_n + overlay id`).
    pub fn insert(&self, v: &[f32]) -> u64 {
        let mut overlay = self.overlay.write().unwrap();
        self.base_n as u64 + overlay.insert(v)
    }

    /// Deletes a vector by global id; `false` if it was never live or is
    /// already gone.
    pub fn delete(&self, id: u64) -> bool {
        if id < self.base_n as u64 {
            let inserted = self.deleted.write().unwrap().insert(id);
            if inserted {
                self.core_deletes.fetch_add(1, Ordering::Release);
            }
            inserted
        } else {
            self.overlay
                .write()
                .unwrap()
                .delete(id - self.base_n as u64)
        }
    }

    /// Whether `id` is currently served.
    pub fn is_live(&self, id: u64) -> bool {
        if id < self.base_n as u64 {
            !self.deleted.read().unwrap().contains(&id)
        } else {
            self.overlay
                .read()
                .unwrap()
                .contains(id - self.base_n as u64)
        }
    }

    /// Mutation generation: overlay generation plus core tombstones.
    /// Monotonic; sync it into a `QueryCache` after every mutation burst.
    pub fn generation(&self) -> u64 {
        self.overlay.read().unwrap().generation() + self.core_deletes.load(Ordering::Acquire)
    }

    /// Whether any mutation has ever been applied (fast-path gate: a
    /// flushed-then-empty overlay still forces the merge path, which is
    /// fine — the gate only needs to be monotone).
    fn pristine(&self) -> bool {
        self.core_deletes.load(Ordering::Acquire) == 0
            && self.overlay.read().unwrap().next_id() == 0
    }

    /// The merge path: widened core search, tombstone filter, overlay
    /// merge, truncate to `k`.
    fn search_merged(&self, req: &SearchRequest) -> SearchResponse {
        let deleted = self.deleted.read().unwrap();
        let overlay = self.overlay.read().unwrap();

        // Widen the core request so tombstone filtering cannot under-fill
        // the pool, then let the core handle its own options (including
        // pushing a predicate filter down to shards).
        let mut core_req = req.clone();
        core_req.k = (req.k + deleted.len()).min(self.base_n.max(1));
        core_req.ef = req.ef.max(core_req.k);
        let core_resp = self.core.search(&core_req);
        let mut hits: Vec<Hit> = core_resp
            .hits
            .into_iter()
            .filter(|h| !deleted.contains(&h.id))
            .collect();

        // Overlay hits: exact distances over the write path, ids offset
        // into the global space, with the request's predicate applied to
        // the *global* id (the overlay itself only knows local ids).
        let pool = req.pool_k().max(req.ef).max(req.k);
        let overlay_hits = LsmVectorIndex::search(&overlay, &req.query, pool, req.ef.max(pool));
        for mut h in overlay_hits {
            h.id += self.base_n as u64;
            if req.filter.as_ref().is_none_or(|f| f(h.id)) {
                hits.push(h);
            }
        }

        let mut response = SearchResponse::from_hits(graphs::k_best(hits, req.k));
        response.stats = core_resp.stats;
        response
    }
}

impl AnnIndex for ScenarioCorpus {
    fn len(&self) -> usize {
        let tombstones = self.deleted.read().unwrap().len();
        let overlay_live = self.overlay.read().unwrap().stats().live;
        self.base_n - tombstones + overlay_live
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        if self.pristine() {
            return self.core.search(req);
        }
        self.search_merged(req)
    }

    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        if self.pristine() {
            // Pass the whole batch through so a sharded core keeps its
            // concurrent fan-out.
            return self.core.search_batch(requests);
        }
        requests.iter().map(|r| self.search_merged(r)).collect()
    }

    fn memory_bytes(&self) -> usize {
        self.core.memory_bytes() + self.overlay.read().unwrap().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::FlatIndex;
    use vecstore::VectorSet;

    fn corpus(n: usize) -> (ScenarioCorpus, VectorSet) {
        let mut set = VectorSet::new(4);
        for i in 0..n {
            set.push(&[i as f32, 0.0, 0.0, 0.0]);
        }
        let core: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(set.clone()));
        (ScenarioCorpus::new(core), set)
    }

    #[test]
    fn pristine_corpus_is_a_passthrough() {
        let (corpus, set) = corpus(20);
        let req = SearchRequest::new(set.get(3).to_vec(), 5);
        let direct = corpus.core().search(&req);
        let via = corpus.search(&req);
        assert_eq!(direct.ids(), via.ids());
        assert_eq!(corpus.len(), 20);
        assert_eq!(corpus.generation(), 0);
    }

    #[test]
    fn deleted_core_ids_never_resurface() {
        let (corpus, _) = corpus(20);
        assert!(corpus.delete(3));
        assert!(!corpus.delete(3), "double delete reports false");
        let req = SearchRequest::new(vec![3.0, 0.0, 0.0, 0.0], 5);
        let resp = corpus.search(&req);
        assert!(!resp.ids().contains(&3));
        assert_eq!(resp.hits.len(), 5, "widened pool backfills the gap");
        assert_eq!(corpus.len(), 19);
        assert!(corpus.generation() > 0);
        assert!(!corpus.is_live(3));
    }

    #[test]
    fn inserts_merge_by_exact_distance() {
        let (corpus, _) = corpus(10);
        // A vector closer to the query than any core vector.
        let id = corpus.insert(&[100.25, 0.0, 0.0, 0.0]);
        assert_eq!(id, 10);
        assert!(corpus.is_live(id));
        let resp = corpus.search(&SearchRequest::new(vec![100.0, 0.0, 0.0, 0.0], 3));
        assert_eq!(resp.hits[0].id, 10, "overlay hit must win the merge");
        assert_eq!(corpus.len(), 11);
        // Deleting the overlay vector removes it again.
        assert!(corpus.delete(10));
        let resp = corpus.search(&SearchRequest::new(vec![100.0, 0.0, 0.0, 0.0], 3));
        assert!(!resp.ids().contains(&10));
    }

    #[test]
    fn predicate_filters_apply_to_overlay_ids() {
        let (corpus, _) = corpus(10);
        let odd = corpus.insert(&[50.5, 0.0, 0.0, 0.0]); // id 10 (even)
        let _ = corpus.insert(&[50.25, 0.0, 0.0, 0.0]); // id 11 (odd)
        assert_eq!(odd, 10);
        let req = SearchRequest::new(vec![50.0, 0.0, 0.0, 0.0], 4).filter(|id| id % 2 == 0);
        let ids = corpus.search(&req).ids();
        assert!(ids.contains(&10));
        assert!(!ids.contains(&11), "filter must see global overlay ids");
    }

    #[test]
    fn generation_moves_with_every_mutation_kind() {
        let (corpus, _) = corpus(10);
        let g0 = corpus.generation();
        corpus.insert(&[1.0, 2.0, 3.0, 4.0]);
        let g1 = corpus.generation();
        assert!(g1 > g0);
        corpus.delete(0);
        let g2 = corpus.generation();
        assert!(g2 > g1);
    }
}
