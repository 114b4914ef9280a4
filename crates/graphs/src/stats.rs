//! Graph-quality statistics and the instrumented provider wrapper.
//!
//! [`GraphStats`] summarizes degree structure and connectivity of a built
//! index; [`Instrumented`] wraps any [`DistanceProvider`] with wall-clock
//! accounting of distance computation vs. everything else, which is how the
//! harness reproduces the paper's indexing-time profiles (Figures 1 and 15)
//! without hardware counters.

use crate::graph::GraphLayers;
use crate::provider::{Blocks, DistanceProvider, PruneRule};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vecstore::VectorSet;

/// Degree/connectivity summary of the base layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Directed edge count (base layer).
    pub edges: usize,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Nodes with zero out-degree.
    pub isolated: usize,
    /// Nodes reachable from the entry point over the base layer.
    pub reachable: usize,
}

impl GraphStats {
    /// Computes stats over a frozen multi-layer graph's base layer.
    ///
    /// Degrees come straight from the CSR row lengths — no nested
    /// materialization — and the BFS walks the packed rows in place.
    pub fn from_layers(graph: &GraphLayers) -> Self {
        let n = graph.len();
        let base = graph.layer(0);
        let edges = base.edges();
        let mut max_degree = 0;
        let mut isolated = 0;
        for node in 0..n {
            let deg = base.degree(node);
            max_degree = max_degree.max(deg);
            if deg == 0 {
                isolated += 1;
            }
        }
        // BFS from entry on layer 0.
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let mut reachable = 0;
        if n > 0 {
            seen[graph.entry as usize] = true;
            reachable = 1;
            queue.push_back(graph.entry);
            while let Some(u) = queue.pop_front() {
                for &v in graph.neighbors(0, u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        reachable += 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        Self {
            nodes: n,
            edges,
            avg_degree: if n == 0 { 0.0 } else { edges as f64 / n as f64 },
            max_degree,
            isolated,
            reachable,
        }
    }
}

/// Wall-clock accounting collected by [`Instrumented`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ProviderTimings {
    /// Nanoseconds inside distance computations (CA + NS).
    pub dist_ns: u64,
    /// Number of distance computations (a batch of `B` counts as one call).
    pub dist_calls: u64,
    /// Nanoseconds preparing insert/query contexts (encoding, ADT build).
    pub prepare_ns: u64,
    /// Nanoseconds synchronizing node payloads (Flash layout maintenance).
    pub sync_ns: u64,
}

/// Decorator measuring where a provider's time goes. Timing overhead is two
/// `Instant` reads per call: on a shared 2-vCPU AVX-512 VM a pair measured
/// 72–90 ns, which over the ≈ 1.27 M timed calls of a one-core LAION-like
/// n = 4 000 Flash build (C 128, R 16) is ≈ 0.1 s of a 0.25–0.32 s build.
/// The counters sum over every thread that calls the provider, so they are
/// shares of wall-clock time only for a build on one thread.
pub struct Instrumented<P> {
    inner: P,
    dist_ns: AtomicU64,
    dist_calls: AtomicU64,
    prepare_ns: AtomicU64,
    sync_ns: AtomicU64,
}

impl<P> Instrumented<P> {
    /// Wraps a provider.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            dist_ns: AtomicU64::new(0),
            dist_calls: AtomicU64::new(0),
            prepare_ns: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn timings(&self) -> ProviderTimings {
        ProviderTimings {
            dist_ns: self.dist_ns.load(Ordering::Relaxed),
            dist_calls: self.dist_calls.load(Ordering::Relaxed),
            prepare_ns: self.prepare_ns.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }

    /// Resets the counters.
    pub fn reset(&self) {
        self.dist_ns.store(0, Ordering::Relaxed);
        self.dist_calls.store(0, Ordering::Relaxed);
        self.prepare_ns.store(0, Ordering::Relaxed);
        self.sync_ns.store(0, Ordering::Relaxed);
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    #[inline]
    fn time<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<P: DistanceProvider> DistanceProvider for Instrumented<P> {
    type QueryCtx = P::QueryCtx;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn base(&self) -> &VectorSet {
        self.inner.base()
    }

    fn prepare_insert(&self, id: u32) -> Self::QueryCtx {
        Self::time(&self.prepare_ns, || self.inner.prepare_insert(id))
    }

    fn prepare_query(&self, v: &[f32]) -> Self::QueryCtx {
        Self::time(&self.prepare_ns, || self.inner.prepare_query(v))
    }

    fn dist_to(&self, ctx: &Self::QueryCtx, id: u32) -> f32 {
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        Self::time(&self.dist_ns, || self.inner.dist_to(ctx, id))
    }

    fn dist_between(&self, a: u32, b: u32) -> f32 {
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        Self::time(&self.dist_ns, || self.inner.dist_between(a, b))
    }

    fn dist_to_neighbors(
        &self,
        ctx: &Self::QueryCtx,
        ids: &[u32],
        block: &[u8],
        out: &mut Vec<f32>,
    ) {
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        Self::time(&self.dist_ns, || {
            self.inner.dist_to_neighbors(ctx, ids, block, out)
        })
    }

    fn sync_payload(&self, blocks: &mut Blocks, ids: &[u32]) {
        Self::time(&self.sync_ns, || self.inner.sync_payload(blocks, ids))
    }

    fn append_payload(&self, block: &mut [u8], lane: usize, id: u32) {
        Self::time(&self.sync_ns, || self.inner.append_payload(block, lane, id))
    }

    fn dominated<R: PruneRule>(
        &self,
        rule: &R,
        v: u32,
        d: f32,
        selected: &[u32],
        block: &[u8],
    ) -> bool {
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        Self::time(&self.dist_ns, || {
            self.inner.dominated(rule, v, d, selected, block)
        })
    }

    fn prefetch(&self, id: u32) {
        // Untimed: a prefetch hint is fire-and-forget, timing it would cost
        // more than the hint itself.
        self.inner.prefetch(id);
    }

    fn coded(&self) -> bool {
        self.inner.coded()
    }

    fn aux_bytes(&self) -> usize {
        self.inner.aux_bytes()
    }

    fn payload_bytes(&self, cap: usize) -> usize {
        self.inner.payload_bytes(cap)
    }

    fn code_row_bytes(&self) -> usize {
        self.inner.code_row_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::{Hnsw, HnswParams};
    use crate::providers::FullPrecision;

    fn grid(side: usize) -> VectorSet {
        let mut s = VectorSet::new(2);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f32, j as f32]);
            }
        }
        s
    }

    #[test]
    fn stats_of_built_graph() {
        let index = Hnsw::build(
            FullPrecision::new(grid(10)),
            HnswParams {
                c: 32,
                r: 8,
                seed: 1,
            },
        );
        let stats = GraphStats::from_layers(&index.freeze());
        assert_eq!(stats.nodes, 100);
        assert_eq!(stats.reachable, 100);
        assert_eq!(stats.isolated, 0);
        assert!(stats.avg_degree > 1.0);
        assert!(stats.max_degree <= 16);
    }

    #[test]
    fn stats_over_csr_match_nested_materialization() {
        // The CSR-direct degree/edge accounting must agree with the naive
        // computation over a nested copy of the same adjacency.
        let index = Hnsw::build(
            FullPrecision::new(grid(9)),
            HnswParams {
                c: 32,
                r: 8,
                seed: 17,
            },
        );
        let graph = index.freeze();
        let stats = GraphStats::from_layers(&graph);
        let nested = graph.layer(0).to_nested();
        let edges: usize = nested.iter().map(Vec::len).sum();
        let max_degree = nested.iter().map(Vec::len).max().unwrap_or(0);
        let isolated = nested.iter().filter(|n| n.is_empty()).count();
        assert_eq!(stats.edges, edges);
        assert_eq!(stats.max_degree, max_degree);
        assert_eq!(stats.isolated, isolated);
        assert_eq!(stats.nodes, nested.len());
        assert!((stats.avg_degree - edges as f64 / nested.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn instrumented_counts_distance_work() {
        let provider = Instrumented::new(FullPrecision::new(grid(8)));
        let index = Hnsw::build(
            provider,
            HnswParams {
                c: 16,
                r: 4,
                seed: 2,
            },
        );
        let t = index.provider().timings();
        assert!(t.dist_calls > 0, "construction must compute distances");
        assert!(t.dist_ns > 0);
        assert!(t.prepare_ns > 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let provider = Instrumented::new(FullPrecision::new(grid(4)));
        let ctx = provider.prepare_insert(0);
        let _ = provider.dist_to(&ctx, 1);
        provider.reset();
        let t = provider.timings();
        assert_eq!(t.dist_calls, 0);
        assert_eq!(t.dist_ns, 0);
    }

    #[test]
    fn instrumented_distances_match_inner() {
        let plain = FullPrecision::new(grid(5));
        let wrapped = Instrumented::new(FullPrecision::new(grid(5)));
        let c1 = plain.prepare_insert(3);
        let c2 = wrapped.prepare_insert(3);
        assert_eq!(plain.dist_to(&c1, 7), wrapped.dist_to(&c2, 7));
        assert_eq!(plain.dist_between(2, 9), wrapped.dist_between(2, 9));
    }
}
