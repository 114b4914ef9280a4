//! A process-wide registry of named metrics, snapshot-able as JSON.
//!
//! Naming convention: dotted lower-snake paths,
//! `layer.component.metric` — e.g. `serving.cache.hits`,
//! `serving.replica.group0.retries`, `transport.node3.frames_sent`.
//! Snapshots iterate names in lexicographic order (a `BTreeMap`), so a
//! snapshot of the same registry state is byte-stable.
//!
//! Two registration styles:
//!
//! * owned primitives — [`Counter`], [`Gauge`], [`Log2Histogram`] handed
//!   out by [`MetricsRegistry::counter`] & co., updated lock-free by the
//!   holder;
//! * snapshot sources — [`MetricsRegistry::register_source`] adopts an
//!   existing stats object (a `ReplicaCounters`, `TransportCounters`,
//!   or cache stats snapshot) through a closure evaluated at snapshot
//!   time, so pre-existing counters join the registry without changing
//!   their own types.

use crate::report::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A lock-free monotonic counter handle (clone = same counter).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh unregistered counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free signed gauge handle (clone = same gauge).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucket histogram: bucket `0` counts zeros, bucket `i ≥ 1`
/// counts values in `[2^(i-1), 2^i)`. 65 buckets cover the full `u64`
/// range with no configuration and no allocation on the observe path.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `v` falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observed values (saturating semantics are the caller's
    /// problem; wrap needs 2⁶⁴ observed nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// All 65 bucket counts, index = [`Self::bucket_of`] (the
    /// OpenMetrics renderer turns these into cumulative `le` buckets).
    pub fn bucket_loads(&self) -> [u64; 65] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// JSON form: `{"count", "sum", "buckets": {"<lower_bound>": n}}`
    /// with empty buckets omitted.
    pub fn to_json(&self) -> Json {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let lower = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
            buckets.push((lower.to_string(), Json::Int(n as i64)));
        }
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count() as i64)),
            ("sum".into(), Json::Int(self.sum() as i64)),
            ("buckets".into(), Json::Obj(buckets)),
        ])
    }
}

/// One registered metric. Cheap to clone (handles are `Arc`s), which is
/// what lets snapshots copy the table under the mutex and evaluate /
/// serialize entirely outside it.
#[derive(Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Log2Histogram>),
    Source(Arc<dyn Fn() -> Json + Send + Sync>),
}

impl Metric {
    fn to_json(&self) -> Json {
        match self {
            Metric::Counter(c) => Json::Int(c.get() as i64),
            Metric::Gauge(g) => Json::Int(g.get()),
            Metric::Histogram(h) => h.to_json(),
            Metric::Source(f) => f(),
        }
    }
}

/// The registry: named metrics behind one mutex (touched only at
/// registration and snapshot time — the handed-out handles update
/// lock-free).
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A fresh empty registry (most callers want [`Self::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is already registered as a non-counter"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is already registered as a non-gauge"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Log2Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Log2Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is already registered as a non-histogram"),
        }
    }

    /// Registers (or replaces) a snapshot source: `source` is evaluated
    /// at every [`Self::snapshot`] and its JSON appears under `name`.
    /// This is how pre-existing stats objects (replica, transport, cache
    /// counters) join the registry without changing their types.
    pub fn register_source(&self, name: &str, source: impl Fn() -> Json + Send + Sync + 'static) {
        self.metrics
            .lock()
            .unwrap()
            .insert(name.to_string(), Metric::Source(Arc::new(source)));
    }

    /// Drops every metric (tests; the global registry outlives scenarios).
    pub fn clear(&self) {
        self.metrics.lock().unwrap().clear();
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.lock().unwrap().keys().cloned().collect()
    }

    /// Clones the metric table (names in lexicographic order). Held
    /// only long enough to copy `Arc` handles — sources are **not**
    /// evaluated under the mutex, so a slow scrape render can never
    /// stall a thread registering counters on the hot path.
    pub(crate) fn typed_snapshot(&self) -> Vec<(String, Metric)> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(name, metric)| (name.clone(), metric.clone()))
            .collect()
    }

    /// One JSON object of every metric, keys in lexicographic order.
    /// Source closures run *after* the registry mutex is released.
    pub fn snapshot(&self) -> Json {
        Json::Obj(
            self.typed_snapshot()
                .into_iter()
                .map(|(name, metric)| (name, metric.to_json()))
                .collect(),
        )
    }

    /// The registry in OpenMetrics text exposition format (see
    /// [`crate::openmetrics`]); families in lexicographic order,
    /// terminated by `# EOF`.
    pub fn render_openmetrics(&self) -> String {
        crate::openmetrics::render_families(self.typed_snapshot())
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.hits").get(), 5); // same handle by name
        let g = reg.gauge("a.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let h = reg.histogram("a.latency");
        h.observe(0);
        h.observe(1);
        h.observe(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1001);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.register_source("m.middle", || Json::Str("src".into()));
        let a = reg.snapshot().to_pretty_string();
        let b = reg.snapshot().to_pretty_string();
        assert_eq!(a, b, "same state, same bytes");
        let a_pos = a.find("a.first").unwrap();
        let m_pos = a.find("m.middle").unwrap();
        let z_pos = a.find("z.last").unwrap();
        assert!(a_pos < m_pos && m_pos < z_pos);
    }

    #[test]
    fn sources_are_evaluated_at_snapshot_time() {
        let reg = MetricsRegistry::new();
        let live = Arc::new(AtomicU64::new(1));
        let probe = Arc::clone(&live);
        reg.register_source("x.live", move || {
            Json::Int(probe.load(Ordering::Relaxed) as i64)
        });
        assert!(reg.snapshot().to_pretty_string().contains("1"));
        live.store(9, Ordering::Relaxed);
        assert!(reg.snapshot().to_pretty_string().contains("9"));
    }

    #[test]
    fn sources_run_outside_the_registry_mutex() {
        // A source that touches the registry while a snapshot renders.
        // Before snapshots copied handles out, this self-deadlocked on
        // the std (non-reentrant) mutex; now the lock is released before
        // any source closure runs.
        static REG: OnceLock<MetricsRegistry> = OnceLock::new();
        let reg = REG.get_or_init(MetricsRegistry::new);
        reg.register_source("reentrant.src", || {
            Json::Int(REG.get().unwrap().counter("reentrant.peer").get() as i64)
        });
        reg.counter("reentrant.peer").add(3);
        let snap = reg.snapshot().to_pretty_string();
        assert!(snap.contains("\"reentrant.src\": 3"));
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn type_collisions_panic() {
        let reg = MetricsRegistry::new();
        reg.gauge("dual");
        reg.counter("dual");
    }
}
