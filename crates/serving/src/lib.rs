//! The sharded, multi-threaded query runtime of the `hnsw-flash`
//! workspace.
//!
//! `engine::AnnIndex` made every graph × coding combination serve through
//! one trait; this crate turns any such index into a concurrent service:
//!
//! * [`ShardedIndex`] — partition a dataset across N shards
//!   ([`ShardPolicy::RoundRobin`] or [`ShardPolicy::Hash`]), search the
//!   shards concurrently on a hand-rolled [`WorkerPool`]
//!   (long-lived `std::thread`s + channels; the workspace's `rayon` pool
//!   spawns its threads per call, which suits builds, not a query path),
//!   and scatter-gather merge per-shard hits into one
//!   globally-ordered `(dist, id)` top-k with local→global id remapping.
//!   `ShardedIndex` implements `AnnIndex` itself, so it nests under the
//!   other layers, and its `search_batch` fans a whole batch's
//!   `(request × shard)` grid out at once (the size-**or**-deadline batch
//!   close for online traffic lives on the wire, in [`EventServer`]);
//! * [`QueryCache`] / [`CachedIndex`] — an LRU (the generic
//!   `cachesim::Lru`) over canonical request hashes, with lazy
//!   generation-based invalidation driven by mutating indexes
//!   (`maintenance::LsmVectorIndex::generation`) and by failover
//!   transitions ([`ReplicaGroup::generation`]);
//! * [`ReplicaGroup`] / [`Router`] / [`ReplicatedIndex`] — R replicas per
//!   shard behind failover routing ([`RoutingPolicy::Primary`] /
//!   [`RoutingPolicy::RoundRobin`] / [`RoutingPolicy::LoadAware`]), with
//!   per-replica health tracking (mark-down on consecutive errors, probed
//!   recovery) — any single replica loss per shard is retried on a
//!   sibling with bit-identical results;
//! * [`fault`] — deterministic fault injection ([`FaultPlan`] /
//!   [`FaultyIndex`]): error-on-Nth-call, latency spikes, permanent
//!   death, scripted recovery — how the tests and demos drive every
//!   failover path;
//! * [`distributed`] — shards and replicas in **other processes**: a
//!   versioned length-prefixed wire protocol, an in-memory loopback and a
//!   Unix/TCP socket [`distributed::Transport`], one socket server
//!   ([`EventServer`]: readiness loops multiplexing many pipelined
//!   connections per thread, with admission control) hosting any
//!   `AnnIndex`, and a [`RemoteIndex`] client implementing both `AnnIndex`
//!   *and* [`FallibleIndex`] — so remote nodes compose under the
//!   sharded/replicated/cached stack unchanged, mark-down and probed
//!   recovery included.
//!
//! ```
//! use engine::{AnnIndex, Coding, GraphKind, IndexBuilder, SearchRequest};
//! use serving::{CachedIndex, ShardPolicy, ShardedIndex};
//! use std::sync::Arc;
//! use vecstore::{generate, DatasetProfile};
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 600, 8, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(48).r(8).seed(1);
//!
//! // 4 shards searched by 4 worker threads, behind a 256-entry cache.
//! let sharded = ShardedIndex::build(base, &builder, 4, ShardPolicy::RoundRobin, 4);
//! let index = Arc::new(CachedIndex::new(Arc::new(sharded), 256));
//!
//! let requests: Vec<SearchRequest> = (0..queries.len())
//!     .map(|qi| SearchRequest::new(queries.get(qi), 5).ef(64).rerank(8))
//!     .collect();
//! let responses: Vec<_> = requests
//!     .chunks(4)
//!     .flat_map(|batch| index.search_batch(batch))
//!     .collect();
//! assert_eq!(responses.len(), queries.len());
//! assert!(responses.iter().all(|r| r.hits.len() == 5));
//! ```

mod cache;
pub mod distributed;
pub mod fault;
mod pool;
mod replica;
mod shard;

pub use cache::{CachedIndex, QueryCache, QueryCacheStats};
pub use distributed::{
    AdmissionStats, EventConfig, EventServer, LoopbackTransport, NodeAddr, NodeHandler, NodeInfo,
    NodeStats, RemoteIndex, SocketTransport, Transport, TransportError,
};
pub use fault::{FallibleIndex, FaultAction, FaultError, FaultKind, FaultPlan, FaultyIndex};
pub use pool::WorkerPool;
pub use replica::{
    HealthConfig, ReplicaGroup, ReplicatedIndex, RouteCandidate, Router, RoutingPolicy,
};
pub use shard::{ShardPolicy, ShardedIndex};
