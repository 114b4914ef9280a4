//! Serving-runtime tests: sharded scatter-gather must be *exactly* the
//! unsharded index under exact rerank, the result cache must honor
//! hit/miss/invalidation semantics against a mutating LSM index, and the
//! multi-threaded batch path must be deterministic.
//!
//! Exactness setup: datasets are small enough (`N` vectors) that a beam of
//! `EF ≥ N` makes every connected graph search exhaustive, and the rerank
//! pool (`K · RERANK ≥ N`) rescores every candidate with full-precision
//! distances — so graph indexes, their sharded splits, and the brute-force
//! [`FlatIndex`] all return the identical global `(dist, id)` top-k.

use hnsw_flash::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 200;
const DIM: usize = 16;
const K: usize = 10;
const EF: usize = 256; // > N: exhaustive traversal of connected graphs
const RERANK: usize = 32; // pool K*RERANK = 320 > N: rerank everything

fn workload() -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(DIM, 12, 0.95, 0.4, 4), N, 12, 99)
}

fn builder(kind: GraphKind, coding: Coding) -> IndexBuilder {
    IndexBuilder::new(kind, coding)
        .c(32)
        .r(8)
        .seed(7)
        .train_sample(100)
        .pq_m(4)
}

fn exact_request(q: &[f32]) -> SearchRequest {
    SearchRequest::new(q.to_vec(), K).ef(EF).rerank(RERANK)
}

/// Sharded graph indexes return exactly the unsharded index's top-k —
/// which is itself the brute-force top-k — for every shard count 1–8,
/// across ≥3 `GraphKind × Coding` combinations.
#[test]
fn sharded_matches_unsharded_exactly_across_combos() {
    let (base, queries) = workload();
    let flat = FlatIndex::new(base.clone());
    for (kind, coding) in [
        (GraphKind::Hnsw, Coding::Flash),
        (GraphKind::Nsg, Coding::Full),
        (GraphKind::Vamana, Coding::Sq),
        (GraphKind::Hcnng, Coding::Pca),
    ] {
        let b = builder(kind, coding);
        let unsharded = b.build(base.clone());
        for shards in [1usize, 2, 3, 5, 8] {
            let sharded = ShardedIndex::build(base.clone(), &b, shards, ShardPolicy::RoundRobin, 4);
            assert_eq!(sharded.len(), base.len());
            for qi in 0..queries.len() {
                let req = exact_request(queries.get(qi));
                let want = flat.search(&req).hits;
                let via_unsharded = unsharded.search(&req).hits;
                let via_sharded = sharded.search(&req).hits;
                assert_eq!(
                    via_unsharded, want,
                    "{kind:?}x{coding:?} unsharded != exact (query {qi})"
                );
                assert_eq!(
                    via_sharded, want,
                    "{kind:?}x{coding:?} shards={shards} != exact (query {qi})"
                );
            }
        }
    }
}

/// Distance ties that straddle shard boundaries come back in global
/// ascending `(dist, id)` order — duplicated vectors are round-robined
/// into *different* shards, so the gather step must restore id order.
#[test]
fn ties_straddling_shard_boundaries_keep_global_order() {
    let mut base = VectorSet::new(4);
    for i in 0..20 {
        // Vectors 2i and 2i+1 are identical; round-robin over 2 shards
        // places the twins in different shards.
        let v = [i as f32, (i * i) as f32, 1.0, 0.0];
        base.push(&v);
        base.push(&v);
    }
    let parts = ShardedIndex::partition(&base, 2, ShardPolicy::RoundRobin)
        .into_iter()
        .map(|(set, ids)| (Box::new(FlatIndex::new(set)) as Box<dyn AnnIndex>, ids))
        .collect();
    let sharded =
        ShardedIndex::from_parts(parts, ShardPolicy::RoundRobin, Arc::new(WorkerPool::new(4)));
    let global = FlatIndex::new(base.clone());

    for i in [0usize, 7, 19] {
        let req = SearchRequest::new(base.get(2 * i).to_vec(), 6);
        let (want, got) = (global.search(&req).hits, sharded.search(&req).hits);
        assert_eq!(got, want, "query at twin pair {i}");
        // The twin pair ties at distance 0 and must lead, ordered by id.
        assert_eq!(got[0].id, 2 * i as u64);
        assert_eq!(got[1].id, 2 * i as u64 + 1);
        assert_eq!(got[0].dist, 0.0);
        assert_eq!(got[1].dist, 0.0);
        for w in got.windows(2) {
            assert!(
                (w[0].dist, w[0].id) < (w[1].dist, w[1].id),
                "global (dist, id) order violated"
            );
        }
    }
}

/// Cache semantics against a mutating index: hit after insert-into-cache,
/// wholesale miss after the LSM generation moves (insert/delete/rebuild),
/// correct results after re-population.
#[test]
fn query_cache_invalidates_on_lsm_mutation() {
    let mut config = LsmConfig::for_dim(8);
    config.memtable_cap = 1024; // keep everything in the exact memtable
    let mut lsm = LsmVectorIndex::new(config);
    for i in 0..40 {
        let v: Vec<f32> = (0..8).map(|d| ((i * 7 + d * 3) % 23) as f32).collect();
        lsm.insert(&v);
    }

    let cache = QueryCache::new(16);
    cache.set_generation(lsm.generation());
    let query: Vec<f32> = lsm_vector(5);
    let req = SearchRequest::new(query.clone(), 5);
    let key = QueryCache::key_of(&req).expect("unfiltered requests are cacheable");

    // Cold miss → populate → hit with identical hits.
    assert!(cache.get(key, &req).is_none());
    let computed_at = cache.generation();
    let first = AnnIndex::search(&lsm, &req);
    cache.insert(key, &req, computed_at, Arc::new(first.clone()));
    let hit = cache.get(key, &req).expect("second lookup must hit");
    assert_eq!(hit.hits, first.hits);

    // Insert bumps the generation → the entry is stale → miss.
    let pre = lsm.generation();
    let new_id = lsm.insert(&query); // exact duplicate of the query
    assert!(lsm.generation() > pre, "insert must bump the generation");
    cache.set_generation(lsm.generation());
    assert!(cache.get(key, &req).is_none(), "stale entry must miss");

    // Re-populate: the fresh result now contains the inserted duplicate,
    // tied at distance 0 behind the equal vectors with smaller ids.
    let second = AnnIndex::search(&lsm, &req);
    assert_eq!(second.hits[0], Hit { id: 5, dist: 0.0 });
    assert!(
        second.hits.iter().any(|h| h.id == new_id && h.dist == 0.0),
        "inserted duplicate must surface: {:?}",
        second.hits
    );
    cache.insert(key, &req, cache.generation(), Arc::new(second.clone()));
    assert_eq!(cache.get(key, &req).unwrap().hits, second.hits);

    // Delete and rebuild bump too.
    let g = lsm.generation();
    assert!(lsm.delete(new_id));
    assert!(lsm.generation() > g);
    let g = lsm.generation();
    lsm.rebuild();
    assert!(lsm.generation() > g);
    cache.set_generation(lsm.generation());
    assert!(cache.get(key, &req).is_none());

    let stats = cache.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 3);
}

fn lsm_vector(i: usize) -> Vec<f32> {
    (0..8).map(|d| ((i * 7 + d * 3) % 23) as f32).collect()
}

/// Cache behavior under a realistic stream: Zipf-skewed repeats against a
/// mutating LSM index. The hit/miss counters are checked against a
/// hand-computed model at every stage — Zipf skew drives the steady-state
/// hit rate well up, a generation bump drops the hit rate on the next
/// full pool pass to exactly zero, and the pass after that recovers to
/// exactly one hit per pool entry.
#[test]
fn zipf_stream_hit_rate_collapses_and_recovers_on_generation_bump() {
    use rand::distributions::Zipf;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut config = LsmConfig::for_dim(8);
    config.memtable_cap = 1024;
    let mut lsm = LsmVectorIndex::new(config);
    for i in 0..40 {
        lsm.insert(&lsm_vector(i));
    }

    const POOL: usize = 32;
    let cache = QueryCache::new(2 * POOL); // never evicts: misses are only cold or stale
    cache.set_generation(lsm.generation());
    // Distinct query vectors (lsm_vector has period 23, which would alias
    // pool entries onto the same cache key).
    let pool: Vec<SearchRequest> = (0..POOL)
        .map(|i| {
            let q: Vec<f32> = (0..8).map(|d| (i * 8 + d) as f32 * 0.25).collect();
            SearchRequest::new(q, 5)
        })
        .collect();
    let keys: Vec<u64> = pool
        .iter()
        .map(|req| QueryCache::key_of(req).expect("cacheable"))
        .collect();

    // The hand-computed model: which pool entries are populated under the
    // *current* generation, plus expected cumulative counters.
    struct Trace {
        populated: [bool; POOL],
        hits: u64,
        misses: u64,
    }
    fn lookup(
        cache: &QueryCache,
        pool: &[SearchRequest],
        keys: &[u64],
        idx: usize,
        lsm: &LsmVectorIndex,
        trace: &mut Trace,
    ) -> bool {
        let (req, key) = (&pool[idx], keys[idx]);
        match cache.get(key, req) {
            Some(resp) => {
                assert!(
                    trace.populated[idx],
                    "hit on an entry the model says is absent"
                );
                assert_eq!(resp.hits, AnnIndex::search(lsm, req).hits, "stale payload");
                trace.hits += 1;
                true
            }
            None => {
                assert!(
                    !trace.populated[idx],
                    "miss on an entry the model says is present"
                );
                let resp = AnnIndex::search(lsm, req);
                cache.insert(key, req, cache.generation(), Arc::new(resp));
                trace.populated[idx] = true;
                trace.misses += 1;
                false
            }
        }
    }
    let mut trace = Trace {
        populated: [false; POOL],
        hits: 0,
        misses: 0,
    };

    // Steady state: 200 Zipf-skewed draws. Skew means the head indexes
    // repeat constantly, so the stream hit rate must clear 50% even
    // though every first touch is a cold miss.
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let zipf = Zipf::new(POOL, 1.2);
    let mut stream_hits = 0u64;
    for _ in 0..200 {
        if lookup(
            &cache,
            &pool,
            &keys,
            zipf.sample(&mut rng),
            &lsm,
            &mut trace,
        ) {
            stream_hits += 1;
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (trace.hits, trace.misses));
    assert_eq!(stats.hits, stream_hits);
    assert!(
        stream_hits as f64 / 200.0 > 0.5,
        "Zipf head must dominate: {stream_hits}/200 hits"
    );

    // Mutation: the generation moves, every cached entry goes stale.
    lsm.insert(&lsm_vector(100));
    cache.set_generation(lsm.generation());
    trace.populated = [false; POOL];

    // The very next pass over the full pool hits ZERO times...
    let mut post_bump_hits = 0u64;
    for idx in 0..POOL {
        if lookup(&cache, &pool, &keys, idx, &lsm, &mut trace) {
            post_bump_hits += 1;
        }
    }
    assert_eq!(
        post_bump_hits, 0,
        "no entry may survive the generation bump"
    );

    // ...and the pass after that hits every single time (recovery).
    let mut recovery_hits = 0u64;
    for idx in 0..POOL {
        if lookup(&cache, &pool, &keys, idx, &lsm, &mut trace) {
            recovery_hits += 1;
        }
    }
    assert_eq!(
        recovery_hits, POOL as u64,
        "repopulated pool must fully hit"
    );

    // A delete invalidates just as hard.
    assert!(lsm.delete(0));
    cache.set_generation(lsm.generation());
    trace.populated = [false; POOL];
    assert!(cache.get(keys[0], &pool[0]).is_none());
    trace.misses += 1; // the raw get() above counts as a miss without repopulating

    // Final ledger: every counter matches the hand-computed trace.
    let stats = cache.stats();
    assert_eq!(stats.hits, trace.hits);
    assert_eq!(stats.misses, trace.misses);
    assert_eq!(stats.hits, stream_hits + recovery_hits);
    assert_eq!(
        stats.misses,
        (200 - stream_hits) + POOL as u64 + 1,
        "misses = cold stream misses + post-bump pool pass + final stale probe"
    );
    assert_eq!(stats.uncacheable, 0);
}

/// Cache semantics across a failover: a `CachedIndex` over a
/// `ReplicaGroup` must never serve a response cached under a generation
/// that a replica mark-down has since invalidated, and the hit/miss
/// accounting must stay exact even when the underlying searches retried
/// onto a sibling.
#[test]
fn cache_over_replica_group_invalidates_on_failover() {
    let (base, queries) = workload();
    // Replica 0 serves its first call, then dies; replica 1 never fails.
    let replica: std::sync::Arc<dyn AnnIndex> = std::sync::Arc::new(FlatIndex::new(base.clone()));
    let group = std::sync::Arc::new(ReplicaGroup::from_replicas(
        vec![
            Box::new(FaultyIndex::new(
                std::sync::Arc::clone(&replica),
                FaultPlan::new().die_at(1),
            )),
            Box::new(std::sync::Arc::clone(&replica)),
        ],
        RoutingPolicy::Primary,
        HealthConfig::default(),
    ));
    let cached = CachedIndex::new(
        std::sync::Arc::clone(&group) as std::sync::Arc<dyn AnnIndex>,
        16,
    );
    cached.cache().set_generation(group.generation());

    // Cold miss, computed by replica 0 under generation 0, then a hit.
    let req_a = exact_request(queries.get(0));
    let first = cached.search(&req_a);
    assert_eq!(cached.search(&req_a).hits, first.hits);
    assert_eq!(group.generation(), 0);

    // A different query trips replica 0's death: the search retries onto
    // replica 1 (one miss, not two) and the mark-down bumps the group
    // generation.
    let req_b = exact_request(queries.get(1));
    let fresh = cached.search(&req_b);
    assert_eq!(fresh.hits, FlatIndex::new(base.clone()).search(&req_b).hits);
    assert!(group.is_marked_down(0));
    assert_eq!(group.generation(), 1);
    assert_eq!(group.failover_stats().retries, 1);

    // Sync the failover generation into the cache: the entry computed by
    // the now-marked-down replica's generation must miss, not serve.
    cached.cache().set_generation(group.generation());
    let recomputed = cached.search(&req_a);
    assert_eq!(
        recomputed.hits, first.hits,
        "replicas are identical, so the recomputed response matches"
    );
    // And the recomputed entry (generation 1) is a hit again.
    assert_eq!(cached.search(&req_a).hits, first.hits);

    // Exact accounting across the retries: A cold miss, A hit, B cold
    // miss (served via failover), A stale miss, A hit.
    let stats = cached.cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.uncacheable), (2, 3, 0));
}

/// A cached sharded index serves repeated requests from memory with
/// identical responses.
#[test]
fn cached_sharded_index_serves_repeats_from_memory() {
    let (base, queries) = workload();
    let sharded = ShardedIndex::build(
        base,
        &builder(GraphKind::Hnsw, Coding::Full),
        4,
        ShardPolicy::Hash,
        4,
    );
    let cached = CachedIndex::new(Arc::new(sharded), 64);
    let req = exact_request(queries.get(0));
    let first = cached.search(&req);
    let second = cached.search(&req);
    assert_eq!(first.hits, second.hits);
    let stats = cached.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    // Filtered requests bypass the cache (no canonical key for closures).
    let _ = cached.search(&exact_request(queries.get(1)).filter(|id| id % 2 == 0));
    assert_eq!(cached.cache().stats().uncacheable, 1);

    // Batch path: cached repeats hit, fresh queries miss once, and the
    // responses equal the one-at-a-time path.
    let batch: Vec<SearchRequest> = (0..6).map(|qi| exact_request(queries.get(qi))).collect();
    let batched = cached.search_batch(&batch);
    for (req, got) in batch.iter().zip(&batched) {
        assert_eq!(got.hits, cached.search(req).hits);
    }
    let stats = cached.cache().stats();
    // 1 single hit + 1 batch hit (query 0) + 6 per-loop hits above = 8;
    // misses: query 0 once + queries 1..6 once each in the batch = 6.
    assert_eq!((stats.hits, stats.misses), (8, 6));

    // Duplicate misses inside one batch share one inner search and all
    // receive the identical response.
    let dup = vec![exact_request(queries.get(7)); 3];
    let dup_responses = cached.search_batch(&dup);
    assert_eq!(dup_responses[0].hits, dup_responses[1].hits);
    assert_eq!(dup_responses[1].hits, dup_responses[2].hits);
    assert_eq!(dup_responses[0].hits, cached.search(&dup[0]).hits);
}

/// A ≥4-thread batch workload over a sharded index is deterministic: two
/// runs and the one-at-a-time path all agree exactly.
#[test]
fn multithreaded_batch_workload_is_deterministic() {
    let (base, _) = workload();
    let queries = generate(&DatasetSpec::new(DIM, 12, 0.95, 0.4, 4), 1, 64, 4242).1;
    let build = || {
        ShardedIndex::build(
            base.clone(),
            &builder(GraphKind::Hnsw, Coding::Flash),
            4,
            ShardPolicy::RoundRobin,
            4,
        )
    };
    let index_a = Arc::new(build());
    assert_eq!(index_a.threads(), 4);
    assert_eq!(index_a.shard_count(), 4);
    let requests: Vec<SearchRequest> = (0..queries.len())
        .map(|qi| exact_request(queries.get(qi)))
        .collect();

    // Batches of 7 through the shared handle, which forwards to the
    // sharded index's own grid fan-out.
    let run = |index: Arc<ShardedIndex>| -> Vec<SearchResponse> {
        requests
            .chunks(7)
            .flat_map(|batch| index.search_batch(batch))
            .collect()
    };
    let responses_a = run(Arc::clone(&index_a));
    let responses_b = run(Arc::new(build()));
    assert_eq!(responses_a.len(), 64);
    for (a, b) in responses_a.iter().zip(&responses_b) {
        assert_eq!(a.hits, b.hits, "two runs diverged");
    }
    for (req, a) in requests.iter().zip(&responses_a) {
        assert_eq!(
            a.hits,
            index_a.search(req).hits,
            "batch and single-shot paths diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scatter-gather over brute-force shards equals the single
    /// brute-force index for random data, any shard count 1–8, both
    /// policies, including tie-heavy integer-grid datasets.
    #[test]
    fn scatter_gather_topk_equals_single_index(
        cells in proptest::collection::vec(0u8..5, 20 * 4..81 * 4),
        shards in 1usize..=8,
        hash_policy in any::<bool>(),
        k in 1usize..=12,
    ) {
        let dim = 4;
        let n = cells.len() / dim;
        let mut base = VectorSet::new(dim);
        for i in 0..n {
            let v: Vec<f32> = cells[i * dim..(i + 1) * dim].iter().map(|&c| c as f32).collect();
            base.push(&v);
        }
        let policy = if hash_policy { ShardPolicy::Hash } else { ShardPolicy::RoundRobin };
        let parts = ShardedIndex::partition(&base, shards, policy)
            .into_iter()
            .map(|(set, ids)| (Box::new(FlatIndex::new(set)) as Box<dyn AnnIndex>, ids))
            .collect();
        let sharded = ShardedIndex::from_parts(parts, policy, Arc::new(WorkerPool::new(4)));
        let global = FlatIndex::new(base.clone());
        prop_assert_eq!(sharded.len(), n);

        let query = base.get(n / 2).to_vec(); // lands on tie-rich grid points
        let req = SearchRequest::new(query, k);
        let (want, got) = (global.search(&req).hits, sharded.search(&req).hits);
        prop_assert_eq!(got, want);
    }
}
