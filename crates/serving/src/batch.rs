//! Request batching with latency/throughput accounting.
//!
//! [`BatchExecutor`] queues [`SearchRequest`]s, coalesces them into
//! fixed-size batches, hands each batch to the index's
//! [`AnnIndex::search_batch_timed`] (which a `ShardedIndex` fans out
//! across its worker pool), and reports per-query latency plus aggregate
//! QPS through the `metrics` crate.

use engine::{AnnIndex, SearchRequest, SearchResponse};
use metrics::{latency_summary, LatencySummary, QpsReport};
use std::sync::Arc;
use std::time::Instant;

/// Default batch size when the caller does not choose one.
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Outcome of one drained workload: responses in submission order plus the
/// latency/throughput accounting.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// One response per submitted request, in submission order.
    pub responses: Vec<SearchResponse>,
    /// Per-query latency samples in milliseconds, each query timed
    /// **individually** ([`AnnIndex::search_batch_timed`]): a sharded
    /// backend reports each query's own critical path, a caching backend
    /// the lookup time for hits. Percentiles therefore reflect per-query
    /// cost — a single slow query shows up at p99 instead of being
    /// averaged into its batch.
    pub latencies_ms: Vec<f64>,
    /// Aggregate throughput over the whole drain (batch wall-clock totals
    /// feed only this, never the latency samples).
    pub qps: QpsReport,
    /// Number of coalesced batches executed.
    pub batches: usize,
}

impl BatchReport {
    /// Percentile summary (p50/p95/p99) of the per-query latencies.
    pub fn latency(&self) -> LatencySummary {
        latency_summary(&self.latencies_ms)
    }

    /// Percentile summary over a subset of queries, addressed by their
    /// submission indices. This is the per-tenant accounting hook: a
    /// runner that interleaves several tenants' requests in one drain can
    /// split the shared latency samples back out per tenant.
    ///
    /// Out-of-range indices are ignored rather than panicking, so a
    /// caller's index list may be built before the drain completes.
    pub fn latency_of(&self, indices: impl IntoIterator<Item = usize>) -> LatencySummary {
        let samples: Vec<f64> = indices
            .into_iter()
            .filter_map(|i| self.latencies_ms.get(i).copied())
            .collect();
        latency_summary(&samples)
    }
}

/// Coalesces queued requests into batches against one [`AnnIndex`].
///
/// ```no_run
/// # use std::sync::Arc;
/// # use engine::{AnnIndex, SearchRequest};
/// # use serving::BatchExecutor;
/// # fn demo(index: Arc<dyn AnnIndex>, queries: Vec<Vec<f32>>) {
/// let mut executor = BatchExecutor::new(index).batch_size(64);
/// executor.submit_all(queries.into_iter().map(|q| SearchRequest::new(q, 10)));
/// let report = executor.run();
/// println!("QPS {:.0}, p99 {:.2} ms", report.qps.qps(), report.latency().p99_ms);
/// # }
/// ```
pub struct BatchExecutor {
    index: Arc<dyn AnnIndex>,
    batch_size: usize,
    queue: Vec<SearchRequest>,
}

impl BatchExecutor {
    /// An executor over `index` with the default batch size.
    pub fn new(index: Arc<dyn AnnIndex>) -> Self {
        Self {
            index,
            batch_size: DEFAULT_BATCH_SIZE,
            queue: Vec::new(),
        }
    }

    /// Sets the coalescing batch size (clamped to at least 1).
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = size.max(1);
        self
    }

    /// Requests waiting to run.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Queues one request.
    pub fn submit(&mut self, request: SearchRequest) {
        self.queue.push(request);
    }

    /// Queues every request from `requests`.
    pub fn submit_all(&mut self, requests: impl IntoIterator<Item = SearchRequest>) {
        self.queue.extend(requests);
    }

    /// Drains the queue: runs every pending request in coalesced batches
    /// and returns the responses (submission order) with the accounting.
    pub fn run(&mut self) -> BatchReport {
        let queue = std::mem::take(&mut self.queue);
        let total = queue.len();
        let mut report = BatchReport {
            responses: Vec::with_capacity(total),
            latencies_ms: Vec::with_capacity(total),
            ..BatchReport::default()
        };
        let t0 = Instant::now();
        for batch in queue.chunks(self.batch_size) {
            for (response, took) in self.index.search_batch_timed(batch) {
                report.responses.push(response);
                report.latencies_ms.push(took.as_secs_f64() * 1000.0);
            }
            report.batches += 1;
        }
        report.qps = QpsReport {
            queries: total,
            seconds: t0.elapsed().as_secs_f64(),
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::FlatIndex;
    use vecstore::VectorSet;

    fn flat(n: usize, dim: usize) -> (Arc<dyn AnnIndex>, VectorSet) {
        let mut set = VectorSet::new(dim);
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|d| ((i * 13 + d) % 29) as f32).collect();
            set.push(&v);
        }
        (Arc::new(FlatIndex::new(set.clone())), set)
    }

    #[test]
    fn drains_in_submission_order_with_accounting() {
        let (index, base) = flat(50, 4);
        let mut ex = BatchExecutor::new(Arc::clone(&index)).batch_size(8);
        for qi in 0..20 {
            ex.submit(SearchRequest::new(base.get(qi).to_vec(), 3));
        }
        assert_eq!(ex.pending(), 20);
        let report = ex.run();
        assert_eq!(ex.pending(), 0);
        assert_eq!(report.responses.len(), 20);
        assert_eq!(report.latencies_ms.len(), 20);
        assert_eq!(report.batches, 3); // 8 + 8 + 4
        assert_eq!(report.qps.queries, 20);
        // Order: each response's best hit is the query vector itself.
        for (qi, r) in report.responses.iter().enumerate() {
            assert_eq!(r.hits[0].id, qi as u64);
        }
        let summary = report.latency();
        assert_eq!(summary.samples, 20);
        assert!(summary.p99_ms >= summary.p50_ms);
    }

    #[test]
    fn empty_queue_reports_zeroes() {
        let (index, _) = flat(10, 4);
        let report = BatchExecutor::new(index).run();
        assert!(report.responses.is_empty());
        assert_eq!(report.batches, 0);
        assert_eq!(report.qps.qps(), 0.0);
        assert_eq!(report.latency(), LatencySummary::default());
    }

    /// An index with deliberately skewed per-query cost: queries whose
    /// first component is ≥ `threshold` stall for `slow_ms` before being
    /// served.
    struct SkewedIndex {
        inner: FlatIndex,
        threshold: f32,
        slow_ms: u64,
    }

    impl AnnIndex for SkewedIndex {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn search(&self, req: &SearchRequest) -> SearchResponse {
            if req.query.first().is_some_and(|&x| x >= self.threshold) {
                std::thread::sleep(std::time::Duration::from_millis(self.slow_ms));
            }
            self.inner.search(req)
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
    }

    #[test]
    fn skewed_per_query_cost_shows_up_in_percentiles() {
        // One pathological query in a batch of ten: with per-query timing
        // the tail percentile must expose it, and the fast majority must
        // not inherit its cost. Amortizing the batch wall-clock over its
        // members (the old accounting) collapses p50 == p99 == the mean,
        // failing both assertions.
        let mut set = VectorSet::new(2);
        for i in 0..20 {
            set.push(&[i as f32, 0.0]);
        }
        let slow_ms = 40;
        let index = Arc::new(SkewedIndex {
            inner: FlatIndex::new(set),
            threshold: 1_000.0,
            slow_ms,
        });
        let mut ex = BatchExecutor::new(index).batch_size(10);
        for qi in 0..9 {
            ex.submit(SearchRequest::new(vec![qi as f32, 0.0], 3));
        }
        ex.submit(SearchRequest::new(vec![5_000.0, 0.0], 3)); // the straggler
        let report = ex.run();
        assert_eq!(report.batches, 1, "all ten queries share one batch");
        let summary = report.latency();
        let slow = slow_ms as f64;
        assert!(
            summary.p99_ms >= slow,
            "p99 {:.3} ms must expose the {slow} ms straggler",
            summary.p99_ms
        );
        assert!(
            summary.p50_ms < slow / 4.0,
            "p50 {:.3} ms must not inherit the straggler's cost",
            summary.p50_ms
        );
    }

    #[test]
    fn latency_of_splits_samples_by_submission_index() {
        let (index, base) = flat(30, 4);
        let mut ex = BatchExecutor::new(index).batch_size(4);
        ex.submit_all((0..10).map(|qi| SearchRequest::new(base.get(qi).to_vec(), 2)));
        let report = ex.run();
        let evens = report.latency_of((0..10).step_by(2));
        assert_eq!(evens.samples, 5);
        let expected: Vec<f64> = (0..10).step_by(2).map(|i| report.latencies_ms[i]).collect();
        assert_eq!(evens, latency_summary(&expected));
        // Out-of-range indices are skipped, not fatal.
        let sparse = report.latency_of([1, 99]);
        assert_eq!(sparse.samples, 1);
        assert_eq!(report.latency_of([]), LatencySummary::default());
    }

    #[test]
    fn batch_size_is_clamped() {
        let (index, base) = flat(10, 4);
        let mut ex = BatchExecutor::new(index).batch_size(0);
        ex.submit_all((0..5).map(|qi| SearchRequest::new(base.get(qi).to_vec(), 2)));
        let report = ex.run();
        assert_eq!(report.batches, 5); // size clamped to 1
    }
}
