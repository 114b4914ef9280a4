//! [`AnnIndex`](crate::AnnIndex) implementations for every index shape in
//! the workspace.

use crate::request::{AdSamplingOptions, SearchRequest, SearchResponse, SearchStats};
use crate::AnnIndex;
use graphs::adsampling::AdSampler;
use graphs::vbase::search_vbase;
use graphs::{
    search_layers, search_layers_filtered, search_layers_rerank, DistanceProvider, FrozenGraph,
    GraphLayers, Hit, Hnsw, LabeledHnsw,
};
use maintenance::LsmVectorIndex;
use std::sync::{Arc, RwLock};
use vecstore::VectorSet;

// ---------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------

/// Runs one leaf search under a fresh thread-local profile window and
/// attaches the accumulated [`metrics::QueryProfile`] to the response.
///
/// Every concrete (non-aggregating) [`AnnIndex`] implementation wraps its
/// `search` body in this, so each response carries exactly the structural
/// cost of serving that one request — aggregating layers (shards,
/// replicas, caches, remotes) sum leaf profiles instead of re-measuring.
fn profiled(f: impl FnOnce() -> SearchResponse) -> SearchResponse {
    graphs::profile_reset();
    let mut response = f();
    response.profile = graphs::profile_take();
    response
}

/// Applies the request's post-retrieval steps (predicate filter → exact
/// rerank → truncate) to a candidate pool of `pool_k` hits.
fn finish_pool(
    base: &VectorSet,
    req: &SearchRequest,
    mut pool: Vec<Hit>,
    already_filtered: bool,
) -> Vec<Hit> {
    if !already_filtered {
        if let Some(f) = &req.filter {
            pool.retain(|h| f(h.id));
        }
    }
    if req.wants_rerank() {
        graphs::rerank_exact(base, &req.query, pool, req.k)
    } else {
        pool.truncate(req.k);
        pool
    }
}

type SamplerKey = (u32, usize, u64);

/// Lazily built, parameter-keyed [`AdSampler`]s (the rotated dataset copy
/// is expensive; one is kept per option set, capped so hostile request
/// streams cannot grow the cache without bound).
#[derive(Default)]
struct SamplerCache {
    entries: RwLock<Vec<(SamplerKey, Arc<AdSampler>)>>,
}

/// Distinct ADSampling option sets cached per index.
const SAMPLER_CACHE_CAP: usize = 8;

impl SamplerCache {
    fn get(&self, base: &VectorSet, opts: &AdSamplingOptions) -> Arc<AdSampler> {
        let key: SamplerKey = (opts.epsilon0.to_bits(), opts.delta_d, opts.seed);
        if let Some((_, s)) = self.entries.read().unwrap().iter().find(|(k, _)| *k == key) {
            return Arc::clone(s);
        }
        let sampler = Arc::new(AdSampler::new(base, opts.epsilon0, opts.delta_d, opts.seed));
        let mut entries = self.entries.write().unwrap();
        if let Some((_, s)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(s); // raced: another thread built it first
        }
        if entries.len() >= SAMPLER_CACHE_CAP {
            entries.remove(0); // evict the oldest entry
        }
        entries.push((key, Arc::clone(&sampler)));
        sampler
    }
}

/// The serving pipeline of every graph index: dispatches to ADSampling,
/// VBase, or the one frozen-topology beam (filtered, reranked or plain)
/// according to the request.
fn serve_layers<P: DistanceProvider>(
    provider: &P,
    layers: &GraphLayers,
    samplers: &SamplerCache,
    req: &SearchRequest,
) -> SearchResponse {
    let q = &req.query[..];
    let (k, ef) = (req.k, req.ef);
    if let Some(opts) = &req.adsampling {
        let sampler = samplers.get(provider.base(), opts);
        // The filter (if any) applies after retrieval here, so fetch a
        // widened pool; post_filter_pool == pool_k when no filter is set.
        let (pool, stats) = sampler.search(layers, q, post_filter_pool(req), ef);
        let hits = finish_pool(provider.base(), req, pool, false);
        return SearchResponse {
            hits,
            stats: SearchStats {
                evaluated: stats.evals,
                abandoned: stats.abandoned,
            },
            profile: Default::default(),
        };
    }
    if let Some(window) = req.vbase_window {
        let pool = search_vbase(provider, layers, q, post_filter_pool(req), window);
        return SearchResponse::from_hits(finish_pool(provider.base(), req, pool, false));
    }
    if let Some(f) = &req.filter {
        let f = Arc::clone(f);
        let accept = move |id: u32| f(u64::from(id));
        let pool = search_layers_filtered(provider, layers, q, req.pool_k(), ef, &accept);
        return SearchResponse::from_hits(finish_pool(provider.base(), req, pool, true));
    }
    if req.wants_rerank() {
        return SearchResponse::from_hits(search_layers_rerank(
            provider, layers, q, k, ef, req.rerank,
        ));
    }
    SearchResponse::from_hits(search_layers(provider, layers, q, k, ef))
}

// ---------------------------------------------------------------------
// Graph-backed indexes
// ---------------------------------------------------------------------

/// Any graph index behind the engine API, frozen: a distance provider and
/// the [`GraphLayers`] built through it. Construction ends when one of
/// these is made — [`GraphIndex::new`] freezes an [`Hnsw`] once and drops
/// its builder state, flat graphs (NSG, τ-MG, Vamana, HCNNG) arrive as
/// one-layer topologies, and a persisted topology is paired with a
/// re-derived provider by [`GraphIndex::from_parts`]. Every request option
/// is then served by the one frozen-layer pipeline.
pub struct GraphIndex<P: DistanceProvider> {
    inner: FrozenGraph<P>,
    samplers: SamplerCache,
}

impl<P: DistanceProvider> GraphIndex<P> {
    /// Freezes a built index for serving. To keep ingesting, keep the
    /// [`Hnsw`] (its own `search` sees every insert) and freeze when the
    /// batch is done.
    pub fn new(hnsw: Hnsw<P>) -> Self {
        hnsw.into_frozen().into()
    }

    /// Pairs a provider with a topology over the same vectors (the reload
    /// path of `flash_cli search` and the `persisted_serving` example).
    ///
    /// # Panics
    /// Panics if the provider and topology disagree on the vector count.
    pub fn from_parts(provider: P, layers: GraphLayers) -> Self {
        FrozenGraph::new(provider, layers).into()
    }

    /// The served provider and topology.
    pub fn inner(&self) -> &FrozenGraph<P> {
        &self.inner
    }

    /// The distance provider.
    pub fn provider(&self) -> &P {
        self.inner.provider()
    }
}

impl<P: DistanceProvider> From<FrozenGraph<P>> for GraphIndex<P> {
    fn from(inner: FrozenGraph<P>) -> Self {
        Self {
            inner,
            samplers: SamplerCache::default(),
        }
    }
}

impl<P: DistanceProvider + 'static> AnnIndex for GraphIndex<P> {
    fn len(&self) -> usize {
        self.provider().len()
    }

    fn dim(&self) -> usize {
        self.provider().base().dim()
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        profiled(|| serve_layers(self.provider(), self.inner.layers(), &self.samplers, req))
    }

    fn memory_bytes(&self) -> usize {
        self.inner.index_bytes()
    }

    fn export_graph(&self) -> Option<GraphLayers> {
        Some(self.inner.layers().clone())
    }
}

// ---------------------------------------------------------------------
// Brute-force baseline
// ---------------------------------------------------------------------

/// Exact linear-scan baseline: the reference point every approximate
/// index is measured against, served through the same API. Ignores the
/// traversal options (`ef`, rerank, VBase, ADSampling) — results are
/// exact by construction.
pub struct FlatIndex {
    base: VectorSet,
}

impl FlatIndex {
    /// Wraps the dataset.
    pub fn new(base: VectorSet) -> Self {
        Self { base }
    }

    /// The underlying vectors.
    pub fn base(&self) -> &VectorSet {
        &self.base
    }
}

impl AnnIndex for FlatIndex {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        profiled(|| {
            let accept = |id: u64| req.filter.as_ref().is_none_or(|f| f(id));
            let hits: Vec<Hit> = self
                .base
                .iter()
                .enumerate()
                .filter(|(i, _)| accept(*i as u64))
                .map(|(i, v)| Hit {
                    id: i as u64,
                    dist: simdops::l2_sq(&req.query, v),
                })
                .collect();
            // Linear scan: one exact evaluation per accepted vector.
            graphs::profile_record(metrics::QueryProfile {
                dist_exact: hits.len() as u64,
                ..metrics::QueryProfile::new()
            });
            SearchResponse::from_hits(graphs::k_best(hits, req.k))
        })
    }

    fn memory_bytes(&self) -> usize {
        self.base.payload_bytes()
    }
}

// ---------------------------------------------------------------------
// Composite indexes defined elsewhere in the workspace
// ---------------------------------------------------------------------

/// Pool size for search paths that can only filter *after* retrieval
/// (the VBase/ADSampling traversals and the composite LSM / per-label
/// indexes): with a predicate present, fetch well past `k` so selective
/// filters still fill the result set. Plain graph requests filter
/// natively during traversal and do not need this.
fn post_filter_pool(req: &SearchRequest) -> usize {
    if req.filter.is_some() {
        req.pool_k().max(req.k * 16).max(req.ef)
    } else {
        req.pool_k()
    }
}

/// The LSM maintenance index serves through the same API: memtable scan +
/// per-segment filtered graph searches, merged by exact distance. Ids are
/// the stable external ids; `rerank` only widens the merge pool (distances
/// are already exact); VBase/ADSampling are ignored. A predicate filter is
/// applied after the merge over a pool widened to `max(k*16, ef)`, so very
/// selective predicates (rarer than ~1 in 16 within the query's
/// neighborhood) can still under-fill the response.
impl AnnIndex for LsmVectorIndex {
    fn len(&self) -> usize {
        self.stats().live
    }

    fn dim(&self) -> usize {
        self.config().dim
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        profiled(|| {
            let mut hits = LsmVectorIndex::search(self, &req.query, post_filter_pool(req), req.ef);
            if let Some(f) = &req.filter {
                hits.retain(|h| f(h.id));
            }
            hits.truncate(req.k);
            SearchResponse::from_hits(hits)
        })
    }

    fn memory_bytes(&self) -> usize {
        self.bytes()
    }
}

/// The specialized per-label index: requests must carry
/// [`SearchRequest::label`]; an unlabeled request (or an unknown label)
/// returns no hits, mirroring the inherent `search` contract. Reported
/// distances come from the sub-index provider (exact for tiny flat
/// partitions), so `rerank` only widens the pool.
impl<P: DistanceProvider + 'static> AnnIndex for LabeledHnsw<P> {
    fn len(&self) -> usize {
        LabeledHnsw::len(self)
    }

    fn dim(&self) -> usize {
        LabeledHnsw::dim(self)
    }

    fn search(&self, req: &SearchRequest) -> SearchResponse {
        let Some(label) = req.label else {
            return SearchResponse::default();
        };
        profiled(|| {
            let mut hits =
                LabeledHnsw::search(self, &req.query, label, post_filter_pool(req), req.ef);
            if let Some(f) = &req.filter {
                hits.retain(|h| f(h.id));
            }
            hits.truncate(req.k);
            SearchResponse::from_hits(hits)
        })
    }

    fn memory_bytes(&self) -> usize {
        self.index_bytes()
    }
}
