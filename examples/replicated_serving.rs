//! Replicated shard groups surviving replica loss with identical results.
//!
//! ```text
//! cargo run --release --example replicated_serving
//! ```
//!
//! Builds a 4-shard × 2-replica [`ReplicatedIndex`] (one globally-trained
//! Flash codec shared by all 8 sub-indexes), drives the same batched
//! workload through a healthy fleet and through a fleet whose replica 0
//! dies mid-run in **every** shard ([`FaultPlan`] injection), and checks
//! the responses are bit-identical — failover is invisible to callers.
//! A third run scripts recovery and watches the probe path bring the
//! replicas back, printing the per-replica retry/mark-down/probe counters
//! the `flash_cli search --replicas` summary also reports.

use hnsw_flash::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 6_000;
    let (shards, replicas, threads) = (4, 2, 4);
    println!("generating {n} vectors (DataComp-like, 256-d)...");
    let (base, queries) = generate(&DatasetProfile::DatacompLike.spec(), n, 48, 17);
    let gt = ground_truth(&base, &queries, 10);
    let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
        .c(96)
        .r(12)
        .seed(11);

    // ---------- build: one codec, shards × replicas sub-indexes --------
    let t0 = Instant::now();
    let build = |fault_for: &dyn Fn(usize, usize) -> Option<FaultPlan>| {
        ReplicatedIndex::build_with_faults(
            base.clone(),
            &builder,
            shards,
            replicas,
            ShardPolicy::RoundRobin,
            RoutingPolicy::RoundRobin,
            HealthConfig {
                error_threshold: 1,
                probe_after: 8,
            },
            threads,
            fault_for,
        )
    };
    let healthy = build(&|_, _| None);
    println!(
        "built {} x {} replicas in {:.2?} (codec trained once, {:.1} MB resident)",
        healthy.shard_count(),
        healthy.replica_count(),
        t0.elapsed(),
        healthy.memory_bytes() as f64 / 1e6,
    );

    let requests =
        || (0..queries.len()).map(|qi| SearchRequest::new(queries.get(qi), 10).ef(96).rerank(8));
    let run = |index: Arc<dyn AnnIndex>, label: &str| {
        let requests: Vec<SearchRequest> = requests().collect();
        let t0 = Instant::now();
        let responses: Vec<SearchResponse> = requests
            .chunks(16)
            .flat_map(|batch| index.search_batch(batch))
            .collect();
        let qps = requests.len() as f64 / t0.elapsed().as_secs_f64();
        let found: Vec<Vec<u32>> = responses
            .iter()
            .map(|r| r.hits.iter().map(|h| h.id as u32).collect())
            .collect();
        let recall = recall_at_k(&found, &gt, 10).recall();
        println!("{label}: qps={qps:.0} recall@10={recall:.4}");
        responses
    };

    // ---------- healthy fleet -----------------------------------------
    let healthy = Arc::new(healthy);
    let healthy_responses = run(
        Arc::clone(&healthy) as Arc<dyn AnnIndex>,
        "healthy fleet        ",
    );

    // ---------- kill replica 0 of every shard mid-run ------------------
    // Each shard's replica 0 serves its first 5 calls, then dies. The
    // router retries the sibling; callers never notice.
    let wounded = Arc::new(build(&|_, r| (r == 0).then(|| FaultPlan::new().die_at(5))));
    let wounded_responses = run(
        Arc::clone(&wounded) as Arc<dyn AnnIndex>,
        "replica 0 dies @5    ",
    );
    for (a, b) in healthy_responses.iter().zip(&wounded_responses) {
        assert_eq!(a.hits, b.hits, "failover must not change results");
    }
    let f = wounded.failover_stats();
    println!(
        "  -> bit-identical responses; retries={} markdowns={} probes={}",
        f.retries, f.markdowns, f.probes
    );
    assert_eq!(f.markdowns, shards as u64, "every shard lost its primary");
    assert!(f.retries >= f.markdowns);

    // ---------- scripted recovery: probes bring replicas back ----------
    let recovering = Arc::new(build(&|_, r| {
        (r == 0).then(|| FaultPlan::new().die_at(5).revive_at(7))
    }));
    let recovering_responses = run(
        Arc::clone(&recovering) as Arc<dyn AnnIndex>,
        "dies @5, revives @7  ",
    );
    for (a, b) in healthy_responses.iter().zip(&recovering_responses) {
        assert_eq!(a.hits, b.hits, "recovery must not change results");
    }
    let f = recovering.failover_stats();
    println!(
        "  -> bit-identical responses; retries={} markdowns={} probes={} recoveries={}",
        f.retries, f.markdowns, f.probes, f.recoveries
    );
    assert_eq!(
        f.recoveries, shards as u64,
        "every shard's replica 0 must be probed back"
    );
    for (s, group) in recovering.groups().iter().enumerate() {
        assert!(
            !group.is_marked_down(0),
            "shard {s} replica 0 should be back in routing"
        );
        let stats = group.replica_stats();
        println!(
            "  shard {s}: replica0 searches={} errors={} probes={} | replica1 searches={} errors={}",
            stats[0].searches, stats[0].errors, stats[0].probes, stats[1].searches, stats[1].errors,
        );
    }

    // ---------- cache over the fleet: generation-safe across failover --
    let cached = Arc::new(CachedIndex::new(
        Arc::clone(&wounded) as Arc<dyn AnnIndex>,
        1024,
    ));
    cached.cache().set_generation(wounded.generation());
    let req = SearchRequest::new(queries.get(0), 10).ef(96).rerank(8);
    let first = cached.search(&req);
    let second = cached.search(&req);
    assert_eq!(first.hits, second.hits);
    let stats = cached.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    println!(
        "cache over the wounded fleet: {} hit / {} miss (generation {} synced)",
        stats.hits,
        stats.misses,
        wounded.generation()
    );
}
