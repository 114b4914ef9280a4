//! Cross-process distributed serving over a wire transport.
//!
//! ```text
//! cargo run --release --example distributed_serving
//! ```
//!
//! Spins up real node processes' worth of machinery inside one demo
//! process: per-shard indexes hosted by [`EventServer`]s behind TCP
//! sockets, a coordinator composing [`RemoteIndex`] clients under the
//! unchanged `ShardedIndex`/`ReplicaGroup` stack, and a mid-run node
//! kill that the replica health model routes around with bit-identical
//! results. Prints the per-node transport counters (frames, bytes,
//! errors) next to the failover counters.

use hnsw_flash::prelude::*;
use serving::distributed::{EventServer, NodeAddr, NodeHandler, RemoteIndex, SocketTransport};
use std::sync::Arc;
use std::time::Instant;

#[path = "../tests/support/mod.rs"]
mod support;
use support::bind_node;

fn main() {
    let n = 4_000;
    let shards = 2;
    println!("generating {n} vectors (SSNPP-like)...");
    let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), n, 32, 19);
    let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Sq)
        .c(64)
        .r(8)
        .seed(9);
    let k = 10;
    let gt = ground_truth(&base, &queries, k);
    let requests: Vec<SearchRequest> = (0..queries.len())
        .map(|qi| SearchRequest::new(queries.get(qi), k).ef(128).rerank(8))
        .collect();
    // The in-process reference: builds are deterministic and the codec is
    // trained once on the full corpus on both sides, so the distributed
    // fleet must match this bit-for-bit.
    let reference = ShardedIndex::build(base.clone(), &builder, shards, ShardPolicy::RoundRobin, 2);

    // ---------- node side: build each shard twice, host it twice --------
    // Two deterministic builds of the same shard = two replica nodes.
    // (In production each of these runs `flash_cli serve-node` on its own
    // machine; here they share the demo process.)
    let t0 = Instant::now();
    let codec = builder.train_codec(&base);
    let parts = ShardedIndex::partition(&base, shards, ShardPolicy::RoundRobin);
    let mut servers: Vec<Vec<EventServer>> = Vec::new();
    let mut id_maps: Vec<Vec<u64>> = Vec::new();
    for (set, ids) in parts {
        let replicas: Vec<EventServer> = (0..2)
            .map(|_| {
                let index: Arc<dyn AnnIndex> =
                    Arc::from(builder.build_with_codec(set.clone(), &codec));
                bind_node(
                    &NodeAddr::Tcp("127.0.0.1:0".into()),
                    NodeHandler::new(index),
                    2,
                )
            })
            .collect();
        id_maps.push(ids);
        servers.push(replicas);
    }
    println!(
        "built {shards} shards x 2 replica nodes in {:.2?}; listening on:",
        t0.elapsed()
    );
    for (s, replicas) in servers.iter().enumerate() {
        for (r, server) in replicas.iter().enumerate() {
            println!("  shard {s} replica {r}: {}", server.addr());
        }
    }

    // ---------- coordinator: remote replicas under the existing stack ---
    let mut groups: Vec<Arc<ReplicaGroup>> = Vec::new();
    let fleet_parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = servers
        .iter()
        .zip(id_maps)
        .map(|(replicas, ids)| {
            let members: Vec<Box<dyn FallibleIndex>> = replicas
                .iter()
                .map(|server| {
                    let transport =
                        SocketTransport::connect(server.addr().clone()).expect("dial node");
                    let remote = RemoteIndex::connect(Arc::new(transport)).expect("handshake");
                    Box::new(remote) as Box<dyn FallibleIndex>
                })
                .collect();
            let group = Arc::new(ReplicaGroup::from_replicas(
                members,
                RoutingPolicy::Primary,
                HealthConfig {
                    error_threshold: 1,
                    probe_after: 1_000,
                },
            ));
            groups.push(Arc::clone(&group));
            (Box::new(group) as Box<dyn AnnIndex>, ids)
        })
        .collect();
    let fleet = ShardedIndex::from_parts(
        fleet_parts,
        ShardPolicy::RoundRobin,
        Arc::new(WorkerPool::new(shards)),
    );

    let run = |label: &str| {
        let t = Instant::now();
        let responses: Vec<SearchResponse> = requests.iter().map(|req| fleet.search(req)).collect();
        let found: Vec<Vec<u32>> = responses
            .iter()
            .map(|r| r.hits.iter().map(|h| h.id as u32).collect())
            .collect();
        let recall = recall_at_k(&found, &gt, k).recall();
        println!(
            "{label}: {} queries in {:.2?}, recall@{k}={recall:.4}",
            requests.len(),
            t.elapsed()
        );
        responses
    };

    let healthy = run("healthy fleet       ");
    for (req, response) in requests.iter().zip(&healthy) {
        assert_eq!(
            response.hits,
            reference.search(req).hits,
            "distributed result diverged from the in-process sharded reference"
        );
    }
    println!("  -> bit-identical to the in-process ShardedIndex");

    // ---------- kill shard 0's primary node mid-run ---------------------
    servers[0][0].shutdown();
    println!("killed shard 0 replica 0 ({})", servers[0][0].addr());
    let wounded = run("primary node killed ");
    for (a, b) in healthy.iter().zip(&wounded) {
        assert_eq!(a.hits, b.hits, "failover must not change results");
    }
    println!("  -> bit-identical to the healthy run");

    let f = groups[0].failover_stats();
    println!(
        "shard 0 failover: errors={} retries={} markdowns={} (generation {})",
        f.errors,
        f.retries,
        f.markdowns,
        groups[0].generation()
    );
    assert_eq!(f.markdowns, 1, "the dead node must be marked down once");
    assert!(groups[0].is_marked_down(0));
    assert_eq!(
        groups[1].failover_stats().markdowns,
        0,
        "the healthy shard never failed over"
    );

    // ---------- transport + server accounting ---------------------------
    for (s, replicas) in servers.iter().enumerate() {
        for (r, server) in replicas.iter().enumerate() {
            let t = server.stats();
            println!(
                "  node shard={s} replica={r}: served frames={} bytes_in={} bytes_out={}",
                t.frames_received, t.bytes_received, t.bytes_sent
            );
        }
    }

    for replicas in &mut servers {
        for server in replicas {
            server.shutdown();
        }
    }
    println!("all nodes shut down cleanly");
}
