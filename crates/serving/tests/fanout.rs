//! A fan-out runs its shards at once: a shard that blocks until every
//! shard of the fan-out has started (the shape of a remote exchange) must
//! not wait out its deadline. A file of its own, so no other test holds the
//! shared `rayon` helpers while this one needs them.

use engine::{AnnIndex, Hit, SearchRequest, SearchResponse};
use serving::{ShardPolicy, ShardedIndex, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

/// A one-vector shard whose search returns only once all `SHARDS` shards
/// have entered theirs, and panics if they have not within 10 s.
struct Rendezvous {
    entered: Arc<AtomicUsize>,
}

impl AnnIndex for Rendezvous {
    fn len(&self) -> usize {
        1
    }

    fn dim(&self) -> usize {
        1
    }

    fn search(&self, _: &SearchRequest) -> SearchResponse {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < SHARDS {
            assert!(
                Instant::now() < deadline,
                "only {} of {SHARDS} shards entered the fan-out",
                self.entered.load(Ordering::SeqCst)
            );
            thread::yield_now();
        }
        SearchResponse {
            hits: vec![Hit { id: 0, dist: 0.0 }],
            ..SearchResponse::default()
        }
    }

    fn memory_bytes(&self) -> usize {
        0
    }
}

#[test]
fn every_shard_of_a_fan_out_runs_at_once() {
    // The first round spawns the helpers; the later ones wake them parked.
    for round in 0..10 {
        let entered = Arc::new(AtomicUsize::new(0));
        let parts = (0..SHARDS as u64)
            .map(|s| {
                let shard = Rendezvous {
                    entered: Arc::clone(&entered),
                };
                (Box::new(shard) as Box<dyn AnnIndex>, vec![s])
            })
            .collect();
        let sharded = ShardedIndex::from_parts(
            parts,
            ShardPolicy::RoundRobin,
            Arc::new(WorkerPool::new(SHARDS)),
        );
        let hits = sharded.search(&SearchRequest::new(vec![0.0], SHARDS)).hits;
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, [0, 1, 2], "round {round}");
    }
}
