//! Sharded, multi-threaded serving with batching and a result cache.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```
//!
//! Builds the same HNSW × Flash configuration twice — one monolithic
//! index and one 4-shard [`ShardedIndex`] searched by a 4-thread worker
//! pool — then drives a batched query workload (`search_batch` over
//! chunks of 16) through both and through a cache-fronted shard stack,
//! printing QPS, recall@10 and the cache hit rate.

use hnsw_flash::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 12_000;
    let (shards, threads) = (4, 4);
    println!("generating {n} vectors (LAION-like, 512-d)...");
    let (base, queries) = generate(&DatasetProfile::LaionLike.spec(), n, 64, 23);
    let gt = ground_truth(&base, &queries, 10);
    let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
        .c(96)
        .r(12)
        .seed(11);

    // ---------- build: monolithic vs sharded --------------------------
    let t0 = Instant::now();
    let monolith = builder.build(base.clone());
    println!("monolithic build: {:.2?}", t0.elapsed());

    let t0 = Instant::now();
    let sharded = ShardedIndex::build(
        base.clone(),
        &builder,
        shards,
        ShardPolicy::RoundRobin,
        threads,
    );
    println!(
        "sharded build:    {:.2?} ({} shards built concurrently on {} threads)",
        t0.elapsed(),
        sharded.shard_count(),
        sharded.threads()
    );

    // ---------- serve: batched workload through both ------------------
    let requests =
        || (0..queries.len()).map(|qi| SearchRequest::new(queries.get(qi), 10).ef(96).rerank(8));
    let drain = |index: &dyn AnnIndex, requests: &[SearchRequest]| {
        let t0 = Instant::now();
        let responses: Vec<SearchResponse> = requests
            .chunks(16)
            .flat_map(|batch| index.search_batch(batch))
            .collect();
        (
            responses,
            requests.len() as f64 / t0.elapsed().as_secs_f64(),
        )
    };
    let run = |index: Arc<dyn AnnIndex>, label: &str| {
        let (responses, qps) = drain(&*index, &requests().collect::<Vec<_>>());
        let found: Vec<Vec<u32>> = responses
            .iter()
            .map(|r| r.hits.iter().map(|h| h.id as u32).collect())
            .collect();
        let recall = recall_at_k(&found, &gt, 10).recall();
        println!("{label}: qps={qps:.0} recall@10={recall:.4}");
    };
    run(Arc::from(monolith), "monolith (1 thread) ");
    let sharded = Arc::new(sharded);
    run(
        Arc::clone(&sharded) as Arc<dyn AnnIndex>,
        "sharded  (4 threads)",
    );

    // ---------- cache: repeat traffic hits memory ---------------------
    let cached = Arc::new(CachedIndex::new(
        Arc::clone(&sharded) as Arc<dyn AnnIndex>,
        1024,
    ));
    // A production-style Zipf-ish mix: every query once, the first 8 hot
    // queries repeated eight more times each.
    let mut mix: Vec<SearchRequest> = requests().collect();
    for _ in 0..8 {
        mix.extend((0..8).map(|qi| SearchRequest::new(queries.get(qi), 10).ef(96).rerank(8)));
    }
    let (_, qps) = drain(&*cached, &mix);
    let stats = cached.cache().stats();
    println!(
        "cached   (4 threads): qps={qps:.0} cache_hit_rate={:.1}% ({} hits / {} lookups)",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.hits + stats.misses,
    );
    assert!(stats.hits >= 64, "hot queries must be served from memory");

    // ---------- parity spot-check -------------------------------------
    // The beam here is not exhaustive (ef ≪ shard size), so the search is
    // approximate and its exact candidate set can shift with the host's
    // SIMD level; check top-10 overlap against brute force rather than
    // bit-exact equality (`tests/serving.rs` proves bit-exactness under
    // exhaustive settings).
    let exact = FlatIndex::new(base);
    let req = SearchRequest::new(queries.get(0), 10).ef(512).rerank(64);
    let (got, want) = (sharded.search(&req).ids(), exact.search(&req).ids());
    let overlap = got.iter().filter(|id| want.contains(id)).count();
    assert!(
        overlap >= 8,
        "sharded search diverged from brute force: {overlap}/10 overlap"
    );
    println!("parity spot-check vs brute force: {overlap}/10 top-10 overlap");
}
