//! The unified serving API of the `hnsw-flash` workspace.
//!
//! The paper reproduction grew one concrete index type per graph algorithm
//! × coding method (plus an LSM maintenance index), each with slightly
//! different constructors and search signatures. This crate consolidates
//! all of them behind three things:
//!
//! * [`AnnIndex`] — one object-safe serving trait (`len` / `dim` /
//!   `search` / `search_batch` / `memory_bytes`), implemented for every
//!   graph × coding combination, for the brute-force [`FlatIndex`]
//!   baseline, for the per-label [`graphs::LabeledHnsw`] specialization,
//!   and for the LSM [`maintenance::LsmVectorIndex`];
//! * [`SearchRequest`] / [`SearchResponse`] — one request/response model
//!   unifying `k`, `ef`, rerank depth, label and predicate filters, VBase
//!   early termination, and ADSampling options;
//! * [`IndexBuilder`] — one constructor mapping
//!   [`GraphKind`] × [`Coding`] to a ready `Box<dyn AnnIndex>`.
//!
//! Serving is **freeze-then-serve**. Construction ends by freezing the
//! adjacency into [`graphs::GraphLayers`] and dropping the builder's
//! per-node state, so every graph-backed index — HNSW or flat, freshly
//! built or reloaded from disk — is one type, [`GraphIndex`]: a distance
//! provider paired with a frozen topology, answering plain, filtered and
//! reranked requests through the one scratch-pooled beam
//! ([`graphs::search_layers_filtered`]) and VBase/ADSampling requests
//! through their own traversals over the same topology.
//!
//! ```
//! use engine::{Coding, GraphKind, IndexBuilder, SearchRequest};
//! use vecstore::{generate, DatasetProfile};
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 400, 4, 7);
//! let index = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
//!     .c(64)
//!     .r(8)
//!     .seed(1)
//!     .build(base);
//!
//! let response = index.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert_eq!(response.hits.len(), 5);
//! ```
//!
//! Every search path returns [`Hit`]s sorted ascending by `(dist, id)`.
//! The `graphs` builders remain available for construction-time needs —
//! the flat ones (`graphs::nsg::build`, …) return a frozen graph, and an
//! [`graphs::Hnsw`] that is still ingesting answers through its
//! own `search`, and [`GraphIndex::new`] freezes it when the batch is
//! done; this trait is the *serving* surface that sharding, async request
//! routing, and caching layers build on.

mod builder;
mod indexes;
mod kinds;
mod request;
pub mod wire;

pub use builder::{IndexBuilder, ProviderJob, TrainedCodec};
pub use graphs::Hit;
pub use indexes::{FlatIndex, GraphIndex};
pub use kinds::{parse_method, Coding, GraphKind};
pub use request::{AdSamplingOptions, SearchRequest, SearchResponse, SearchStats};
pub use wire::WireError;

use graphs::GraphLayers;
use std::sync::Arc;

/// One approximate-nearest-neighbor index, ready to serve.
///
/// Object safety is deliberate: heterogeneous deployments hold
/// `Box<dyn AnnIndex>` / `Arc<dyn AnnIndex>` collections (per-shard,
/// per-tenant, per-label) and route requests without caring which graph or
/// codec sits underneath.
///
/// ## Option support
///
/// Every implementation honors `k`, `ef`, `rerank`, and `filter`. Graph
/// indexes additionally honor `vbase_window` and `adsampling` (when both
/// are set, ADSampling wins). The [`FlatIndex`] baseline and the LSM index
/// ignore the traversal options — their results are exact already — and
/// the per-label index requires [`SearchRequest::label`]. Unsupported
/// options degrade gracefully (they never panic): the index serves the
/// request through its closest native path.
pub trait AnnIndex: Send + Sync {
    /// Number of vectors served.
    fn len(&self) -> usize;

    /// Whether the index serves no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Serves one request.
    fn search(&self, request: &SearchRequest) -> SearchResponse;

    /// Serves a batch of requests, one response per request in order. The
    /// default runs [`Self::search`] on each; a layer with its own batch
    /// path (a sharded index fanning the whole request × shard grid out at
    /// once, a caching index forwarding its misses as one inner batch)
    /// overrides it.
    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        requests.iter().map(|r| self.search(r)).collect()
    }

    /// Resident bytes of the index (adjacency + codes + payloads).
    fn memory_bytes(&self) -> usize;

    /// The frozen graph topology, when the index is graph-backed (used for
    /// persistence; `None` for brute-force and composite indexes).
    fn export_graph(&self) -> Option<GraphLayers> {
        None
    }
}

/// A shared handle serves exactly like the index it points to, so layers
/// that take ownership (`Box<dyn AnnIndex>` shards, wrappers) can hold an
/// `Arc` to an index someone else also observes — e.g. a replica group
/// whose health stats the caller keeps reading after nesting it under a
/// `ShardedIndex`.
impl<T: AnnIndex + ?Sized> AnnIndex for Arc<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        (**self).search(request)
    }

    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        (**self).search_batch(requests)
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn export_graph(&self) -> Option<GraphLayers> {
        (**self).export_graph()
    }
}
