//! The unified request/response model.

use graphs::Hit;
use metrics::{QueryProfile, TraceContext};
use std::fmt;
use std::sync::Arc;

/// Shared, clonable id predicate (`true` = the vector may appear in
/// results).
pub type IdFilter = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// ADSampling configuration (Gao & Long 2023): progressive distance
/// evaluation with hypothesis-test early abandonment over a rotated copy
/// of the dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdSamplingOptions {
    /// Confidence inflation ε₀ (the original paper suggests ~2.1).
    pub epsilon0: f32,
    /// Dimensions evaluated between hypothesis tests.
    pub delta_d: usize,
    /// Seed of the random block rotation.
    pub seed: u64,
}

impl Default for AdSamplingOptions {
    fn default() -> Self {
        Self {
            epsilon0: 2.1,
            delta_d: 32,
            seed: 0xAD5A,
        }
    }
}

/// One search request: the query vector plus every knob the workspace's
/// search variants expose, in one builder.
///
/// ```
/// use engine::SearchRequest;
///
/// let req = SearchRequest::new(vec![0.0; 8], 10)
///     .ef(128)
///     .rerank(8)
///     .filter(|id| id % 2 == 0);
/// assert_eq!(req.k, 10);
/// ```
#[derive(Clone)]
pub struct SearchRequest {
    /// The query vector.
    pub query: Vec<f32>,
    /// Number of neighbors requested.
    pub k: usize,
    /// Beam width of the base-layer search (`ef ≥ k` is enforced by every
    /// path).
    pub ef: usize,
    /// Exact-rerank factor: a candidate pool of `k * rerank` is re-scored
    /// with full-precision distances. `0` or `1` disables reranking.
    pub rerank: usize,
    /// Restrict results to one label partition (honored by label-aware
    /// indexes; ignored elsewhere).
    pub label: Option<u32>,
    /// Predicate filter over result ids.
    pub filter: Option<IdFilter>,
    /// VBase-style relaxed-monotonicity termination window; replaces the
    /// fixed-`ef` stopping rule on graph indexes.
    pub vbase_window: Option<usize>,
    /// ADSampling progressive-distance options for graph indexes.
    pub adsampling: Option<AdSamplingOptions>,
    /// Observability handle: when set, each serving layer records typed
    /// spans for this request into the context's ring. Never affects
    /// results, cache keys, or the wire payload (the frame header carries
    /// the trace id instead).
    pub trace: Option<TraceContext>,
}

impl SearchRequest {
    /// A plain top-`k` request with a default beam of `max(64, k)`.
    pub fn new(query: impl Into<Vec<f32>>, k: usize) -> Self {
        Self {
            query: query.into(),
            k,
            ef: k.max(64),
            rerank: 1,
            label: None,
            filter: None,
            vbase_window: None,
            adsampling: None,
            trace: None,
        }
    }

    /// Sets the beam width.
    pub fn ef(mut self, ef: usize) -> Self {
        self.ef = ef;
        self
    }

    /// Sets the exact-rerank factor (`0`/`1` disables).
    pub fn rerank(mut self, factor: usize) -> Self {
        self.rerank = factor;
        self
    }

    /// Restricts results to `label`'s partition.
    pub fn label(mut self, label: u32) -> Self {
        self.label = Some(label);
        self
    }

    /// Restricts results to ids accepted by `f`.
    pub fn filter(mut self, f: impl Fn(u64) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Arc::new(f));
        self
    }

    /// Enables VBase early termination with `window`.
    pub fn vbase(mut self, window: usize) -> Self {
        self.vbase_window = Some(window);
        self
    }

    /// Enables ADSampling with `options`.
    pub fn adsampling(mut self, options: AdSamplingOptions) -> Self {
        self.adsampling = Some(options);
        self
    }

    /// Attaches a trace context so serving layers record spans for this
    /// request.
    pub fn trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Candidate-pool size before reranking: `max(k · rerank, k)`.
    pub fn pool_k(&self) -> usize {
        (self.k * self.rerank.max(1)).max(self.k)
    }

    /// Whether exact reranking is requested.
    pub fn wants_rerank(&self) -> bool {
        self.rerank > 1
    }
}

impl fmt::Debug for SearchRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchRequest")
            .field("dim", &self.query.len())
            .field("k", &self.k)
            .field("ef", &self.ef)
            .field("rerank", &self.rerank)
            .field("label", &self.label)
            .field("filter", &self.filter.as_ref().map(|_| "<predicate>"))
            .field("vbase_window", &self.vbase_window)
            .field("adsampling", &self.adsampling)
            .field("trace", &self.trace)
            .finish()
    }
}

/// Work counters a search reports back (populated by the ADSampling path;
/// zero elsewhere).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distance evaluations started.
    pub evaluated: u64,
    /// Evaluations abandoned early (ADSampling).
    pub abandoned: u64,
}

/// One search response: hits sorted ascending by `(dist, id)`.
#[derive(Debug, Clone, Default)]
pub struct SearchResponse {
    /// The `k` (or fewer) nearest accepted vectors.
    pub hits: Vec<Hit>,
    /// Work counters, where the search path tracks them.
    pub stats: SearchStats,
    /// Structural cost profile of serving this request: hops, distance
    /// evaluations, bytes touched. Deterministic per `(seed, topology)`;
    /// aggregating layers sum the profiles of the leaf searches they
    /// fanned out to, and cache hits report an all-zero profile.
    pub profile: QueryProfile,
}

impl SearchResponse {
    /// Wraps already-sorted hits.
    pub fn from_hits(hits: Vec<Hit>) -> Self {
        Self {
            hits,
            stats: SearchStats::default(),
            profile: QueryProfile::new(),
        }
    }

    /// The hit ids, in rank order.
    pub fn ids(&self) -> Vec<u64> {
        self.hits.iter().map(|h| h.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_options() {
        let req = SearchRequest::new(vec![1.0, 2.0], 3)
            .ef(99)
            .rerank(4)
            .label(7)
            .vbase(25)
            .adsampling(AdSamplingOptions::default())
            .filter(|id| id != 0);
        assert_eq!(req.ef, 99);
        assert_eq!(req.rerank, 4);
        assert_eq!(req.label, Some(7));
        assert_eq!(req.vbase_window, Some(25));
        assert!(req.adsampling.is_some());
        assert!(req.filter.as_ref().unwrap()(5));
        assert!(!req.filter.as_ref().unwrap()(0));
        assert_eq!(req.pool_k(), 12);
    }

    #[test]
    fn pool_never_below_k() {
        let req = SearchRequest::new(vec![0.0], 5).rerank(0);
        assert_eq!(req.pool_k(), 5);
        assert!(!req.wants_rerank());
    }

    #[test]
    fn debug_omits_query_payload() {
        let req = SearchRequest::new(vec![0.0; 128], 1).filter(|_| true);
        let s = format!("{req:?}");
        assert!(s.contains("dim"));
        assert!(s.contains("<predicate>"));
    }
}
