//! Sharded scatter-gather serving over any [`AnnIndex`].
//!
//! A [`ShardedIndex`] partitions a dataset across N independent shards at
//! build time, searches the shards concurrently — a [`WorkerPool`] sets how
//! many of the workspace's `rayon` threads one fan-out runs on — and
//! merges the per-shard hits into one globally-ordered `(dist, id)` top-k,
//! remapping shard-local ids back to global dataset ids. It implements
//! [`AnnIndex`] itself, so shards compose with every `GraphKind × Coding`
//! combination and can be nested under `serving`'s result cache like any
//! other index; its `search_batch` scatters a whole batch at once.

use crate::fault::{FaultError, FaultKind};
use crate::pool::WorkerPool;
use engine::{AnnIndex, Hit, IndexBuilder, SearchRequest, SearchResponse, SearchStats};
use metrics::SpanKind;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vecstore::VectorSet;

/// How vectors are assigned to shards at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Vector `i` goes to shard `i % shards` — perfectly balanced, and the
    /// default for bulk loads.
    RoundRobin,
    /// Vector `i` goes to shard `splitmix64(i) % shards` — the stable
    /// placement to use when ids must keep their shard across reloads of
    /// differently-ordered subsets.
    Hash,
}

impl ShardPolicy {
    /// The shard index `id` maps to under this policy.
    pub fn shard_of(&self, id: u64, shards: usize) -> usize {
        debug_assert!(shards > 0);
        match self {
            ShardPolicy::RoundRobin => (id % shards as u64) as usize,
            ShardPolicy::Hash => (splitmix64(id) % shards as u64) as usize,
        }
    }
}

/// SplitMix64 finalizer — a deterministic, well-mixed id hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard: the index plus its local→global id map.
struct Shard {
    index: Box<dyn AnnIndex>,
    /// `global_ids[local]` is the dataset id of the shard's vector `local`.
    global_ids: Arc<Vec<u64>>,
}

/// A dataset partitioned across independent [`AnnIndex`] shards, searched
/// with scatter-gather at a [`WorkerPool`]'s width.
///
/// Per-shard results keep their native sort (ascending `(dist, id)` on
/// local ids); the gather step remaps to global ids, merges, re-sorts by
/// global `(dist, id)`, and truncates to `k` — so a sharded exact index is
/// bit-identical to its unsharded equivalent, ties included.
pub struct ShardedIndex {
    shards: Vec<Shard>,
    pool: Arc<WorkerPool>,
    policy: ShardPolicy,
    dim: usize,
}

impl ShardedIndex {
    /// Partitions `base` into `shards` shards under `policy`, returning the
    /// per-shard vector sets and their local→global id maps. Empty
    /// partitions (possible when `shards > n`) are dropped.
    pub fn partition(
        base: &VectorSet,
        shards: usize,
        policy: ShardPolicy,
    ) -> Vec<(VectorSet, Vec<u64>)> {
        let shards = shards.max(1);
        let mut parts: Vec<(VectorSet, Vec<u64>)> = (0..shards)
            .map(|_| (VectorSet::new(base.dim()), Vec::new()))
            .collect();
        for (i, v) in base.iter().enumerate() {
            let s = policy.shard_of(i as u64, shards);
            parts[s].0.push(v);
            parts[s].1.push(i as u64);
        }
        parts.retain(|(set, _)| !set.is_empty());
        parts
    }

    /// Builds every shard with `builder` (the same `GraphKind × Coding`
    /// configuration on each shard's slice of the data), constructing
    /// shards concurrently `threads` wide, the width the index then serves
    /// at.
    ///
    /// The coding codec is trained **once on the full dataset** and shared
    /// by every shard ([`IndexBuilder::train_codec`]); each shard only
    /// encodes its slice. Besides saving `shards - 1` training passes,
    /// this keeps every shard's distance grid identical — per-shard value
    /// ranges cannot skew the quantizers — so results are stable across
    /// shard counts.
    ///
    /// # Panics
    /// Panics if `base` is empty.
    pub fn build(
        base: VectorSet,
        builder: &IndexBuilder,
        shards: usize,
        policy: ShardPolicy,
        threads: usize,
    ) -> Self {
        assert!(!base.is_empty(), "cannot shard an empty dataset");
        let dim = base.dim();
        let codec = builder.train_codec(&base);
        let parts = Self::partition(&base, shards, policy);
        drop(base);
        let jobs: Vec<_> = parts
            .into_iter()
            .map(|(set, global_ids)| {
                let codec = &codec;
                move || Shard {
                    index: builder.build_with_codec(set, codec),
                    global_ids: Arc::new(global_ids),
                }
            })
            .collect();
        let pool = Arc::new(WorkerPool::new(threads));
        let shards = pool.run(jobs);
        Self {
            shards,
            pool,
            policy,
            dim,
        }
    }

    /// Assembles a sharded index from pre-built shards and their
    /// local→global id maps (used by tests and by callers that shard
    /// heterogeneously).
    ///
    /// Each shard must report **dense positional ids** `0..len` — true for
    /// every graph-backed index and for [`engine::FlatIndex`], but *not*
    /// for composite indexes with external id spaces (e.g.
    /// `maintenance::LsmVectorIndex` after a delete): a hit id outside the
    /// id map panics at gather time rather than silently remapping.
    ///
    /// # Panics
    /// Panics if no shards are given, a shard's id map disagrees with its
    /// length, or shards disagree on dimensionality.
    pub fn from_parts(
        shards: Vec<(Box<dyn AnnIndex>, Vec<u64>)>,
        policy: ShardPolicy,
        pool: Arc<WorkerPool>,
    ) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let dim = shards[0].0.dim();
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|(index, global_ids)| {
                assert_eq!(
                    index.len(),
                    global_ids.len(),
                    "shard length and id map disagree"
                );
                assert_eq!(index.dim(), dim, "shards disagree on dimensionality");
                Shard {
                    index,
                    global_ids: Arc::new(global_ids),
                }
            })
            .collect();
        Self {
            shards,
            pool,
            policy,
            dim,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Threads one fan-out of this index runs on, the caller included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The placement policy the index was built with.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// The per-shard request: identical options, with a global-id predicate
    /// filter rewritten to shard-local ids and the trace context re-tagged
    /// to the shard's lane (so fan-out spans stay ordered per strand).
    fn shard_request(&self, s: usize, req: &SearchRequest) -> SearchRequest {
        let mut shard_req = req.clone();
        shard_req.trace = req.trace.as_ref().map(|t| t.with_lane(s as u32));
        if let Some(filter) = &req.filter {
            let filter = Arc::clone(filter);
            let map = Arc::clone(&self.shards[s].global_ids);
            // An id outside the dense local space has no global identity;
            // exclude it (the gather step reports the contract violation).
            shard_req.filter = Some(Arc::new(move |local: u64| {
                map.get(local as usize)
                    .is_some_and(|&global| filter(global))
            }));
        }
        shard_req
    }

    /// Gather half of scatter-gather: remap local→global ids, merge every
    /// shard's hits, impose the global `(dist, id)` order, truncate to `k`,
    /// and sum the work counters.
    ///
    /// A hit outside a shard's dense local id space is a contract
    /// violation (a buggy sub-index, or — in the distributed setting — a
    /// misbehaving remote node); it is reported as a [`GatherError`], not
    /// a panic, so callers with a fallback (replica groups, the fallible
    /// [`Self::try_search`]) can route around the bad shard.
    fn gather(
        &self,
        per_shard: Vec<SearchResponse>,
        k: usize,
    ) -> Result<SearchResponse, GatherError> {
        let mut hits: Vec<Hit> = Vec::with_capacity(per_shard.iter().map(|r| r.hits.len()).sum());
        let mut stats = SearchStats::default();
        let mut profile = metrics::QueryProfile::new();
        for (s, (shard, response)) in self.shards.iter().zip(per_shard).enumerate() {
            stats.evaluated += response.stats.evaluated;
            stats.abandoned += response.stats.abandoned;
            profile.add(&response.profile);
            for h in response.hits {
                let Some(&global) = shard.global_ids.get(h.id as usize) else {
                    return Err(GatherError {
                        shard: s,
                        local_id: h.id,
                        len: shard.global_ids.len(),
                    });
                };
                hits.push(Hit {
                    id: global,
                    dist: h.dist,
                });
            }
        }
        hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        Ok(SearchResponse {
            hits,
            stats,
            profile,
        })
    }

    /// Scatter-gather that reports a shard's contract violation (hits
    /// outside the dense local id space) as a [`FaultError`] instead of
    /// panicking — the coordinator-side surface for deployments whose
    /// shards may misbehave (remote nodes). Transport-level failures of a
    /// remote shard are routed *below* this layer by nesting the remotes
    /// in a [`crate::ReplicaGroup`] per shard.
    pub fn try_search(&self, req: &SearchRequest) -> Result<SearchResponse, FaultError> {
        let per_shard = self.scatter(req);
        let t0 = Instant::now();
        let merged = self.gather(per_shard, req.k).map_err(GatherError::fault)?;
        self.record_gather(req, &merged, t0.elapsed());
        Ok(merged)
    }

    /// Scatter half of scatter-gather: run the request on every shard
    /// concurrently.
    fn scatter(&self, req: &SearchRequest) -> Vec<SearchResponse> {
        let t0 = Instant::now();
        let per_shard = self.pool.run(self.shard_jobs(req).collect());
        self.record_fanout(req, t0.elapsed());
        per_shard
    }

    /// One job per shard, each running `req` on its shard.
    fn shard_jobs<'a>(
        &'a self,
        req: &'a SearchRequest,
    ) -> impl Iterator<Item = impl FnOnce() -> SearchResponse + Send + 'a> + 'a {
        (self.shards.iter().enumerate()).map(move |(s, shard)| {
            let shard_req = self.shard_request(s, req);
            move || shard.index.search(&shard_req)
        })
    }

    /// Records the coordinator-lane `shard_fanout` span over one fan-out.
    fn record_fanout(&self, req: &SearchRequest, took: Duration) {
        if let Some(ctx) = &req.trace {
            ctx.record_timed(
                SpanKind::ShardFanout {
                    shards: self.shards.len() as u64,
                },
                took.as_nanos() as u64,
            );
        }
    }

    /// Records the coordinator-lane `gather` span for one merged result.
    fn record_gather(&self, req: &SearchRequest, merged: &SearchResponse, took: Duration) {
        if let Some(ctx) = &req.trace {
            ctx.record_timed(
                SpanKind::Gather {
                    merged: merged.hits.len() as u64,
                },
                took.as_nanos() as u64,
            );
        }
    }
}

/// A shard's hit fell outside its dense local id space at gather time.
#[derive(Debug, Clone, Copy)]
struct GatherError {
    shard: usize,
    local_id: u64,
    len: usize,
}

impl GatherError {
    /// The per-shard [`FaultError`] this violation surfaces as.
    fn fault(self) -> FaultError {
        FaultError {
            call: self.local_id,
            kind: FaultKind::Malformed,
        }
    }

    /// Panic with the contract-violation context (the infallible
    /// [`AnnIndex`] surface has no error channel).
    fn abort(self) -> ! {
        panic!(
            "shard {} returned local id {} outside its dense id space 0..{}; \
             ShardedIndex shards must serve positional ids (see from_parts)",
            self.shard, self.local_id, self.len
        )
    }
}

impl AnnIndex for ShardedIndex {
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Scatter the request to every shard on the pool, then gather.
    ///
    /// # Panics
    /// Panics if a shard returns a hit outside its dense local id space
    /// (use [`ShardedIndex::try_search`] to get the violation as a
    /// [`FaultError`] instead).
    fn search(&self, req: &SearchRequest) -> SearchResponse {
        let per_shard = self.scatter(req);
        let t0 = Instant::now();
        let merged = self.gather(per_shard, req.k).unwrap_or_else(|e| e.abort());
        self.record_gather(req, &merged, t0.elapsed());
        merged
    }

    /// Batch execution scatters the full `(request × shard)` grid at once —
    /// one flat job list keeps every worker busy across request boundaries
    /// (no per-request barrier) while the gather stays per-request.
    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        let n_shards = self.shards.len();
        let start = Instant::now();
        let jobs = requests.iter().flat_map(|req| self.shard_jobs(req));
        let mut flat = self.pool.run(jobs.collect()).into_iter();
        let took = start.elapsed();
        requests
            .iter()
            .map(|req| {
                self.record_fanout(req, took);
                let per_shard: Vec<SearchResponse> = (&mut flat).take(n_shards).collect();
                let t0 = Instant::now();
                let merged = self.gather(per_shard, req.k).unwrap_or_else(|e| e.abort());
                self.record_gather(req, &merged, t0.elapsed());
                merged
            })
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.index.memory_bytes() + s.global_ids.len() * std::mem::size_of::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::FlatIndex;

    fn corpus(n: usize, dim: usize) -> VectorSet {
        let mut set = VectorSet::new(dim);
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|d| ((i * 31 + d * 7) % 97) as f32).collect();
            set.push(&v);
        }
        set
    }

    fn flat_sharded(base: &VectorSet, shards: usize, policy: ShardPolicy) -> ShardedIndex {
        let parts = ShardedIndex::partition(base, shards, policy)
            .into_iter()
            .map(|(set, ids)| (Box::new(FlatIndex::new(set)) as Box<dyn AnnIndex>, ids))
            .collect();
        ShardedIndex::from_parts(parts, policy, Arc::new(WorkerPool::new(4)))
    }

    #[test]
    fn partition_round_robin_is_balanced_and_complete() {
        let base = corpus(103, 4);
        let parts = ShardedIndex::partition(&base, 4, ShardPolicy::RoundRobin);
        assert_eq!(parts.len(), 4);
        let mut seen: Vec<u64> = parts.iter().flat_map(|(_, ids)| ids.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..103).collect::<Vec<u64>>());
        for (set, ids) in &parts {
            assert_eq!(set.len(), ids.len());
            assert!(set.len() >= 103 / 4);
        }
    }

    #[test]
    fn partition_hash_is_complete_and_stable() {
        let base = corpus(64, 4);
        let a = ShardedIndex::partition(&base, 3, ShardPolicy::Hash);
        let b = ShardedIndex::partition(&base, 3, ShardPolicy::Hash);
        let flat = |parts: &[(VectorSet, Vec<u64>)]| {
            parts.iter().map(|(_, ids)| ids.clone()).collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b), "hash placement must be deterministic");
        let mut seen: Vec<u64> = a.iter().flat_map(|(_, ids)| ids.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn more_shards_than_vectors_drops_empty_partitions() {
        let base = corpus(3, 4);
        let sharded = flat_sharded(&base, 8, ShardPolicy::RoundRobin);
        assert_eq!(sharded.len(), 3);
        assert!(sharded.shard_count() <= 3);
        let got = sharded.search(&SearchRequest::new(base.get(0).to_vec(), 3));
        assert_eq!(got.hits.len(), 3);
    }

    #[test]
    fn sharded_flat_matches_global_flat() {
        let base = corpus(150, 8);
        let global = FlatIndex::new(base.clone());
        for policy in [ShardPolicy::RoundRobin, ShardPolicy::Hash] {
            let sharded = flat_sharded(&base, 5, policy);
            for qi in [0usize, 17, 149] {
                let req = SearchRequest::new(base.get(qi).to_vec(), 10);
                let (a, b) = (global.search(&req), sharded.search(&req));
                assert_eq!(a.hits, b.hits, "policy {policy:?} query {qi}");
            }
        }
    }

    #[test]
    fn global_filter_applies_to_global_ids() {
        let base = corpus(60, 4);
        let global = FlatIndex::new(base.clone());
        let sharded = flat_sharded(&base, 4, ShardPolicy::RoundRobin);
        let req = SearchRequest::new(base.get(5).to_vec(), 8).filter(|id| id % 3 == 0);
        let (a, b) = (global.search(&req), sharded.search(&req));
        assert_eq!(a.hits, b.hits);
        assert!(b.hits.iter().all(|h| h.id % 3 == 0));
    }

    /// A broken sub-index whose hits sit outside the dense local space —
    /// the shape of a misbehaving remote node's response.
    struct EvilIndex {
        inner: FlatIndex,
        offset: u64,
    }

    impl AnnIndex for EvilIndex {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn search(&self, req: &SearchRequest) -> SearchResponse {
            let mut response = self.inner.search(req);
            for h in &mut response.hits {
                h.id += self.offset;
            }
            response
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
    }

    #[test]
    fn out_of_range_local_id_surfaces_as_fault_not_panic() {
        let base = corpus(40, 4);
        let parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> =
            ShardedIndex::partition(&base, 2, ShardPolicy::RoundRobin)
                .into_iter()
                .enumerate()
                .map(|(s, (set, ids))| {
                    let index: Box<dyn AnnIndex> = if s == 0 {
                        Box::new(EvilIndex {
                            inner: FlatIndex::new(set),
                            offset: 1_000,
                        })
                    } else {
                        Box::new(FlatIndex::new(set))
                    };
                    (index, ids)
                })
                .collect();
        let sharded =
            ShardedIndex::from_parts(parts, ShardPolicy::RoundRobin, Arc::new(WorkerPool::new(2)));
        let req = SearchRequest::new(base.get(0).to_vec(), 5);
        let err = sharded.try_search(&req).unwrap_err();
        assert_eq!(err.kind, FaultKind::Malformed);
        // The infallible surface still aborts (there is nothing to serve).
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sharded.search(&req)));
        assert!(caught.is_err());
    }

    #[test]
    fn try_search_matches_search_on_healthy_shards() {
        let base = corpus(60, 4);
        let sharded = flat_sharded(&base, 3, ShardPolicy::RoundRobin);
        let req = SearchRequest::new(base.get(9).to_vec(), 7);
        assert_eq!(
            sharded.try_search(&req).unwrap().hits,
            sharded.search(&req).hits
        );
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        let base = corpus(90, 6);
        let sharded = flat_sharded(&base, 3, ShardPolicy::RoundRobin);
        let requests: Vec<SearchRequest> = (0..20)
            .map(|qi| SearchRequest::new(base.get(qi * 4).to_vec(), 5))
            .collect();
        let batched = sharded.search_batch(&requests);
        for (req, got) in requests.iter().zip(&batched) {
            assert_eq!(got.hits, sharded.search(req).hits);
        }
    }
}
