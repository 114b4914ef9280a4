//! The serving topology of `serve_zipf_stack`, all in one process:
//! `CachedIndex -> ShardedIndex -> RemoteIndex (TCP) -> EventServer -> leaf`.

use hnsw_flash::engine::{AnnIndex, IndexBuilder};
use hnsw_flash::serving::{
    CachedIndex, EventConfig, EventServer, NodeAddr, NodeHandler, RemoteIndex, ShardPolicy,
    ShardedIndex, SocketTransport, WorkerPool,
};
use hnsw_flash::vecstore::VectorSet;
use std::sync::Arc;

/// One shard: its leaf index and the global ids of its rows.
pub type Part = (Arc<dyn AnnIndex>, Vec<u64>);

/// Trains the coding once over `base` and builds one leaf per round-robin
/// shard through it.
pub fn build_leaves(builder: &IndexBuilder, base: &VectorSet, shards: usize) -> Vec<Part> {
    let codec = builder.train_codec(base);
    ShardedIndex::partition(base, shards, ShardPolicy::RoundRobin)
        .into_iter()
        .map(|(set, ids)| {
            let leaf: Arc<dyn AnnIndex> = Arc::from(builder.build_with_codec(set, &codec));
            (leaf, ids)
        })
        .collect()
}

/// A `ShardedIndex` over `parts` as given (leaves, or remotes to them).
pub fn sharded(parts: &[Part]) -> ShardedIndex {
    ShardedIndex::from_parts(
        parts
            .iter()
            .map(|(index, ids)| {
                (
                    Box::new(Arc::clone(index)) as Box<dyn AnnIndex>,
                    ids.clone(),
                )
            })
            .collect(),
        ShardPolicy::RoundRobin,
        Arc::new(WorkerPool::new(parts.len())),
    )
}

/// One single-threaded `EventServer` on `127.0.0.1:0` serving `leaf`, and
/// a connected `RemoteIndex` to it.
pub fn tcp_node(leaf: &Arc<dyn AnnIndex>) -> (EventServer, Arc<RemoteIndex>) {
    let config = EventConfig {
        threads: 1,
        ..EventConfig::default()
    };
    let server = EventServer::bind(
        &NodeAddr::Tcp("127.0.0.1:0".into()),
        NodeHandler::new(Arc::clone(leaf)),
        config,
    )
    .expect("bind a loopback TCP port");
    let transport = SocketTransport::connect(server.addr().clone()).expect("dial the node");
    let remote = RemoteIndex::connect(Arc::new(transport)).expect("info handshake");
    (server, Arc::new(remote))
}

/// The full stack. Field order is drop order: clients go before servers.
pub struct Stack {
    pub cached: Arc<CachedIndex>,
    /// The uncached coordinator under `cached`.
    pub coordinator: Arc<ShardedIndex>,
    pub remotes: Vec<Arc<RemoteIndex>>,
    pub servers: Vec<EventServer>,
}

impl Stack {
    pub fn bring_up(parts: &[Part], cache_capacity: usize) -> Stack {
        let (servers, remotes): (Vec<_>, Vec<_>) =
            parts.iter().map(|(leaf, _)| tcp_node(leaf)).unzip();
        let remote_parts: Vec<Part> = remotes
            .iter()
            .zip(parts)
            .map(|(remote, (_, ids))| (Arc::clone(remote) as Arc<dyn AnnIndex>, ids.clone()))
            .collect();
        let coordinator = Arc::new(sharded(&remote_parts));
        let cached = Arc::new(CachedIndex::new(
            Arc::clone(&coordinator) as Arc<dyn AnnIndex>,
            cache_capacity,
        ));
        Stack {
            cached,
            coordinator,
            remotes,
            servers,
        }
    }
}
