//! Query-result caching with generation-based invalidation.
//!
//! [`QueryCache`] is an LRU (the generic `cachesim::Lru`) keyed by a
//! canonical hash of the query bytes plus every result-shaping
//! [`SearchRequest`] option. Entries are tagged with the **generation**
//! their response was computed under; mutating indexes bump their counter
//! (`maintenance::LsmVectorIndex::generation`) and a
//! [`QueryCache::set_generation`] / [`QueryCache::invalidate_all`] call
//! makes every older entry miss lazily — no eager scan.
//!
//! [`CachedIndex`] composes the cache with any [`AnnIndex`] (including a
//! `ShardedIndex`), serving repeated requests from memory.

use cachesim::Lru;
use engine::{AnnIndex, SearchRequest, SearchResponse};
use metrics::SpanKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hit/miss counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the underlying search (includes
    /// generation-stale entries).
    pub misses: u64,
    /// Requests that bypassed the cache (predicate filters are opaque and
    /// cannot be hashed canonically).
    pub uncacheable: u64,
}

impl QueryCacheStats {
    /// Fraction of cacheable lookups served from memory, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The hashable, comparable canonical form of a cacheable request: the
/// query as **canonicalized** bit patterns plus every result-shaping
/// option. Stored in each entry so a 64-bit key collision is detected by
/// comparison instead of silently serving another query's results.
///
/// Canonicalization matters because f32 bit patterns are finer-grained
/// than distance semantics: `-0.0` and `0.0` compare equal in every
/// distance kernel (identical results), so they must share one cache
/// entry; NaN payloads are the opposite — a NaN query has no meaningful
/// result set at all, and the 2²² distinct NaN bit patterns would each
/// poison their own slot — so non-finite queries bypass the cache
/// entirely ([`QueryCacheStats::uncacheable`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CanonicalRequest {
    query_bits: Vec<u32>,
    k: usize,
    ef: usize,
    rerank: usize,
    label: Option<u32>,
    vbase_window: Option<usize>,
    /// `(epsilon0 bits, delta_d, seed)`.
    adsampling: Option<(u32, usize, u64)>,
}

/// The canonical bit pattern of one finite query component: `-0.0`
/// normalizes to `0.0` (they are the same point in every metric).
fn canonical_f32_bits(x: f32) -> u32 {
    if x == 0.0 {
        0.0f32.to_bits()
    } else {
        x.to_bits()
    }
}

impl CanonicalRequest {
    /// `None` for requests that must run uncached: predicate filters
    /// (closures have no canonical form) and non-finite queries (NaN/±∞
    /// have no meaningful result identity — see the type docs).
    fn of(request: &SearchRequest) -> Option<Self> {
        if request.filter.is_some() {
            return None;
        }
        if request.query.iter().any(|x| !x.is_finite()) {
            return None;
        }
        Some(Self {
            query_bits: request
                .query
                .iter()
                .map(|x| canonical_f32_bits(*x))
                .collect(),
            k: request.k,
            ef: request.ef,
            rerank: request.rerank,
            label: request.label,
            vbase_window: request.vbase_window,
            adsampling: request
                .adsampling
                .as_ref()
                .map(|o| (o.epsilon0.to_bits(), o.delta_d, o.seed)),
        })
    }

    fn hash64(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.query_bits.len());
        for &b in &self.query_bits {
            h.write_u32(b);
        }
        h.write_usize(self.k);
        h.write_usize(self.ef);
        h.write_usize(self.rerank);
        match self.label {
            None => h.write_u32(u32::MAX),
            Some(l) => {
                h.write_u32(1);
                h.write_u32(l);
            }
        }
        match self.vbase_window {
            None => h.write_usize(0),
            Some(w) => {
                h.write_usize(1);
                h.write_usize(w);
            }
        }
        match self.adsampling {
            None => h.write_u32(0),
            Some((eps, delta_d, seed)) => {
                h.write_u32(1);
                h.write_u32(eps);
                h.write_usize(delta_d);
                h.write_u64(seed);
            }
        }
        h.finish()
    }
}

/// Cached response plus the generation it was computed under and the
/// canonical request it answers (collision guard).
type Entry = (u64, CanonicalRequest, Arc<SearchResponse>);

/// An LRU over canonicalized search requests.
///
/// Thread-safe: lookups and inserts take one short mutex; generation and
/// counters are atomics.
pub struct QueryCache {
    lru: Mutex<Lru<u64, Entry>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
}

impl QueryCache {
    /// A cache holding at most `capacity` responses.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (use no cache instead of an empty one).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::new(capacity)),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// The canonical cache key of `request`: an FNV-1a hash over the
    /// canonicalized query bits (`-0.0` = `0.0`) and every option that
    /// shapes the result set. Returns `None` for requests that always run
    /// uncached: predicate filters (closures have no canonical form) and
    /// non-finite queries (NaN bit patterns would poison distinct slots
    /// for meaningless result sets). The key is a
    /// fast index only: [`Self::get`] verifies the stored canonical
    /// request on every hit, so a 64-bit collision degrades to a miss,
    /// never to another query's results.
    pub fn key_of(request: &SearchRequest) -> Option<u64> {
        CanonicalRequest::of(request).map(|c| c.hash64())
    }

    /// The generation new entries are tagged with.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every current entry by bumping the generation.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Adopts an external mutation counter (e.g.
    /// `LsmVectorIndex::generation()`): entries cached under a different
    /// value miss from now on.
    pub fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Release);
    }

    /// Looks `request` up under its `key`. A stale-generation entry is
    /// removed and reported as a miss; an entry whose stored canonical
    /// request differs (64-bit key collision) is left in place and
    /// reported as a miss.
    pub fn get(&self, key: u64, request: &SearchRequest) -> Option<Arc<SearchResponse>> {
        let canonical = CanonicalRequest::of(request)?;
        let current = self.generation();
        let mut lru = self.lru.lock().unwrap();
        let result = match lru.get(&key) {
            Some((generation, stored, response)) => {
                if *stored != canonical {
                    None // hash collision: the entry answers another request
                } else if *generation == current {
                    Some(Arc::clone(response))
                } else {
                    lru.remove(&key); // stale: reclaim the slot eagerly
                    None
                }
            }
            None => None,
        };
        drop(lru);
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Caches `response` as the answer to `request` under its `key`,
    /// tagged with the generation the response was **computed under**
    /// (read it via [`Self::generation`] *before* running the search). If
    /// the generation moved between the search and this insert — a
    /// mutation slipped in — the entry is born stale and will miss,
    /// instead of laundering pre-mutation results into the new
    /// generation. Filtered (uncacheable) requests are ignored.
    pub fn insert(
        &self,
        key: u64,
        request: &SearchRequest,
        computed_at: u64,
        response: Arc<SearchResponse>,
    ) {
        let Some(canonical) = CanonicalRequest::of(request) else {
            return;
        };
        debug_assert_eq!(canonical.hash64(), key, "key does not match request");
        self.lru
            .lock()
            .unwrap()
            .insert(key, (computed_at, canonical, response));
    }

    /// Records a request that bypassed the cache.
    fn note_uncacheable(&self) {
        self.uncacheable.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lru.lock().unwrap().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
        }
    }
}

/// Any [`AnnIndex`] behind a [`QueryCache`]: repeated identical requests
/// are served from memory, everything else (and every filtered request)
/// passes through. Call [`Self::invalidate`] — or sync an external
/// generation with [`QueryCache::set_generation`] via [`Self::cache`] —
/// after the underlying data changes.
pub struct CachedIndex {
    inner: Arc<dyn AnnIndex>,
    cache: QueryCache,
}

impl CachedIndex {
    /// Wraps `inner` with a cache of `capacity` responses.
    pub fn new(inner: Arc<dyn AnnIndex>, capacity: usize) -> Self {
        Self {
            inner,
            cache: QueryCache::new(capacity),
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &Arc<dyn AnnIndex> {
        &self.inner
    }

    /// The cache (stats, generation control).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Drops every cached response (generation bump).
    pub fn invalidate(&self) {
        self.cache.invalidate_all();
    }
}

impl AnnIndex for CachedIndex {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        let t0 = Instant::now();
        let Some(key) = QueryCache::key_of(req) else {
            self.cache.note_uncacheable();
            return self.inner.search(req);
        };
        if let Some(cached) = self.cache.get(key, req) {
            if let Some(ctx) = &req.trace {
                ctx.record_timed(
                    SpanKind::CacheLookup { hit: true },
                    t0.elapsed().as_nanos() as u64,
                );
            }
            // A hit does no search work: report an all-zero profile rather
            // than re-reporting the work the original miss paid.
            let mut response = (*cached).clone();
            response.profile = metrics::QueryProfile::new();
            return response;
        }
        if let Some(ctx) = &req.trace {
            ctx.record_timed(
                SpanKind::CacheLookup { hit: false },
                t0.elapsed().as_nanos() as u64,
            );
        }
        let computed_at = self.cache.generation();
        let response = self.inner.search(req);
        self.cache
            .insert(key, req, computed_at, Arc::new(response.clone()));
        response
    }

    /// Batch lookups hit the cache first; the misses (and every
    /// uncacheable request) are forwarded to the inner index in **one**
    /// `search_batch` call — preserving a sharded backend's cross-request
    /// fan-out instead of degrading to per-request scatter barriers — with
    /// duplicate cacheable misses searched once and fanned back out.
    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        let keys: Vec<Option<u64>> = requests.iter().map(QueryCache::key_of).collect();
        let computed_at = self.cache.generation();
        let mut responses: Vec<Option<SearchResponse>> = Vec::with_capacity(requests.len());
        // For each missing request: its slot in the deduplicated miss list.
        let mut miss_slot: Vec<Option<usize>> = vec![None; requests.len()];
        let mut miss_requests: Vec<SearchRequest> = Vec::new();
        // Dedup on the full canonical request (not the 64-bit key), so a
        // key collision cannot merge two distinct queries.
        let mut slot_of_request: std::collections::HashMap<CanonicalRequest, usize> =
            std::collections::HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let t0 = Instant::now();
            let cached = match key {
                Some(key) => self.cache.get(*key, &requests[i]),
                None => {
                    self.cache.note_uncacheable();
                    None
                }
            };
            let lookup = t0.elapsed();
            // A hit does no search work: its cost profile is all-zero, not
            // the profile the original miss paid (so coordinator-side
            // profile sums reconcile exactly with the work nodes performed).
            responses.push(cached.map(|c| {
                let mut response = (*c).clone();
                response.profile = metrics::QueryProfile::new();
                response
            }));
            if let Some(ctx) = &requests[i].trace {
                ctx.record_timed(
                    SpanKind::CacheLookup {
                        hit: responses[i].is_some(),
                    },
                    lookup.as_nanos() as u64,
                );
            }
            if responses[i].is_none() {
                let slot = match CanonicalRequest::of(&requests[i]) {
                    // Identical cacheable misses share one inner search.
                    Some(canonical) => *slot_of_request.entry(canonical).or_insert_with(|| {
                        miss_requests.push(requests[i].clone());
                        miss_requests.len() - 1
                    }),
                    None => {
                        miss_requests.push(requests[i].clone());
                        miss_requests.len() - 1
                    }
                };
                miss_slot[i] = Some(slot);
            }
        }
        if !miss_requests.is_empty() {
            // One shared Arc per fresh response: the cache insert clones
            // the Arc, not the hits, and only the returned copy is deep.
            let fresh: Vec<Arc<SearchResponse>> = self
                .inner
                .search_batch(&miss_requests)
                .into_iter()
                .map(Arc::new)
                .collect();
            for (i, slot) in miss_slot.iter().enumerate() {
                if let Some(slot) = slot {
                    let response = &fresh[*slot];
                    if let Some(key) = keys[i] {
                        self.cache
                            .insert(key, &requests[i], computed_at, Arc::clone(response));
                    }
                    responses[i] = Some((**response).clone());
                }
            }
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn export_graph(&self) -> Option<graphs::GraphLayers> {
        self.inner.export_graph()
    }
}

/// Minimal FNV-1a, enough for canonical request hashing (stable across
/// runs and platforms, unlike `DefaultHasher`).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    fn write_u32(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::AdSamplingOptions;

    fn req(k: usize) -> SearchRequest {
        SearchRequest::new(vec![1.0, 2.0, 3.0], k)
    }

    #[test]
    fn key_is_stable_and_option_sensitive() {
        let a = QueryCache::key_of(&req(5)).unwrap();
        assert_eq!(a, QueryCache::key_of(&req(5)).unwrap());
        for other in [
            req(6),                                          // k
            req(5).ef(256),                                  // ef
            req(5).rerank(4),                                // rerank
            req(5).label(0),                                 // label
            req(5).vbase(16),                                // vbase
            req(5).adsampling(AdSamplingOptions::default()), // adsampling
            SearchRequest::new(vec![1.0, 2.0, 3.5], 5),      // query bytes
        ] {
            assert_ne!(a, QueryCache::key_of(&other).unwrap(), "{other:?}");
        }
    }

    #[test]
    fn filtered_requests_are_uncacheable() {
        assert!(QueryCache::key_of(&req(5).filter(|_| true)).is_none());
    }

    #[test]
    fn negative_zero_shares_the_positive_zero_entry() {
        // -0.0 and 0.0 are the same point in every metric: identical
        // results, so they must share one cache entry.
        let pos = SearchRequest::new(vec![0.0, 1.0, 2.0], 5);
        let neg = SearchRequest::new(vec![-0.0, 1.0, 2.0], 5);
        let key = QueryCache::key_of(&pos).unwrap();
        assert_eq!(key, QueryCache::key_of(&neg).unwrap());
        let cache = QueryCache::new(4);
        cache.insert(
            key,
            &pos,
            cache.generation(),
            Arc::new(SearchResponse::default()),
        );
        assert!(
            cache.get(key, &neg).is_some(),
            "-0.0 query must hit the 0.0 entry, not occupy its own slot"
        );
    }

    #[test]
    fn non_finite_queries_bypass_the_cache() {
        for query in [
            vec![f32::NAN, 1.0],
            vec![1.0, f32::INFINITY],
            vec![f32::NEG_INFINITY, 0.0],
        ] {
            assert!(
                QueryCache::key_of(&SearchRequest::new(query.clone(), 3)).is_none(),
                "{query:?} must be uncacheable"
            );
        }
        // Through the CachedIndex they run (uncached) instead of poisoning
        // slots keyed by one of 2^22 NaN bit patterns.
        let mut set = vecstore::VectorSet::new(2);
        for i in 0..8 {
            set.push(&[i as f32, 0.0]);
        }
        let cached = CachedIndex::new(Arc::new(engine::FlatIndex::new(set)), 4);
        let nan_req = SearchRequest::new(vec![f32::NAN, 0.0], 2);
        let _ = cached.search(&nan_req);
        let _ = cached.search(&nan_req);
        let stats = cached.cache().stats();
        assert_eq!(stats.uncacheable, 2);
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert!(cached.cache().is_empty(), "no slot may be occupied");
    }

    #[test]
    fn hit_miss_and_generation_invalidation() {
        let cache = QueryCache::new(8);
        let r = req(5);
        let key = QueryCache::key_of(&r).unwrap();
        assert!(cache.get(key, &r).is_none()); // cold miss
        cache.insert(
            key,
            &r,
            cache.generation(),
            Arc::new(SearchResponse::default()),
        );
        assert!(cache.get(key, &r).is_some()); // hit
        cache.invalidate_all();
        assert!(cache.get(key, &r).is_none()); // stale entry discarded
        assert_eq!(cache.len(), 0, "stale slot reclaimed");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2)); // cold miss + stale miss
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn set_generation_adopts_external_counter() {
        let cache = QueryCache::new(4);
        let r = req(5);
        let key = QueryCache::key_of(&r).unwrap();
        cache.set_generation(7);
        cache.insert(
            key,
            &r,
            cache.generation(),
            Arc::new(SearchResponse::default()),
        );
        cache.set_generation(7); // unchanged: still valid
        assert!(cache.get(key, &r).is_some());
        cache.set_generation(8); // external mutation happened
        assert!(cache.get(key, &r).is_none());
    }

    #[test]
    fn stale_insert_cannot_launder_into_new_generation() {
        // A response computed under generation G but inserted after the
        // generation moved to G+1 must be born stale, not served as fresh.
        let cache = QueryCache::new(4);
        let r = req(5);
        let key = QueryCache::key_of(&r).unwrap();
        let computed_at = cache.generation();
        // ... the underlying search runs here, then a mutation slips in:
        cache.invalidate_all();
        cache.insert(key, &r, computed_at, Arc::new(SearchResponse::default()));
        assert!(
            cache.get(key, &r).is_none(),
            "pre-mutation result must miss"
        );
    }

    #[test]
    fn key_collision_misses_instead_of_serving_wrong_results() {
        // Simulate a 64-bit key collision: store request A's response,
        // then look a *different* request up under the same key. The
        // canonical-request comparison must reject it.
        let cache = QueryCache::new(4);
        let a = req(5);
        let b = req(5).ef(256); // distinct canonical form
        let key = QueryCache::key_of(&a).unwrap();
        cache.insert(
            key,
            &a,
            cache.generation(),
            Arc::new(SearchResponse::default()),
        );
        assert!(cache.get(key, &a).is_some(), "own request hits");
        assert!(
            cache.get(key, &b).is_none(),
            "colliding request must miss, not serve A's results"
        );
        assert!(
            cache.get(key, &a).is_some(),
            "the legitimate entry survives a collision miss"
        );
    }

    #[test]
    fn lru_eviction_caps_residency() {
        let cache = QueryCache::new(2);
        let requests: Vec<SearchRequest> = (1..=5).map(req).collect();
        for r in &requests {
            let key = QueryCache::key_of(r).unwrap();
            cache.insert(
                key,
                r,
                cache.generation(),
                Arc::new(SearchResponse::default()),
            );
        }
        assert_eq!(cache.len(), 2);
        let last = &requests[4];
        assert!(cache.get(QueryCache::key_of(last).unwrap(), last).is_some());
        let first = &requests[0];
        assert!(cache
            .get(QueryCache::key_of(first).unwrap(), first)
            .is_none());
    }
}
