//! Evaluation metrics for the experiment harness (paper Section 4.1.4).
//!
//! * [`recall`] — `Recall = |G ∩ S| / k` against exact ground truth;
//! * [`adr`] — the average distance ratio of retrieved vs. true neighbors;
//! * [`qps`] — queries-per-second / latency measurement;
//! * [`failover`] — per-replica retry/mark-down/probe counters for the
//!   replicated serving layer;
//! * [`transport`] — per-node frame/byte/timeout counters for the
//!   distributed serving wire transports;
//! * [`report`] — the hand-rolled `BENCH_*.json` writer/parser backing the
//!   scenario harness's perf trajectory;
//! * [`trace`] — deterministic per-request tracing: trace contexts, typed
//!   spans, and the lock-free span ring the serving layers record into;
//! * [`registry`] — the process-wide named counter/gauge/histogram
//!   registry, snapshot-able as [`Json`];
//! * [`openmetrics`] — OpenMetrics text exposition for the registry
//!   (the `/metrics` scrape body);
//! * [`profile`] — per-query structural cost counters ([`QueryProfile`]):
//!   hops, coded/exact distance evals, rows scored, codeword bytes;
//! * [`slo`] — windowed error-budget objectives with fast/slow
//!   multi-window burn-rate breach detection.

pub mod adr;
pub mod failover;
pub mod openmetrics;
pub mod profile;
pub mod qps;
pub mod recall;
pub mod registry;
pub mod report;
pub mod slo;
pub mod trace;
pub mod transport;

pub use adr::average_distance_ratio;
pub use failover::{failover_summary, ReplicaCounters, ReplicaStats};
pub use profile::QueryProfile;
pub use qps::{measure_qps, QpsReport};
pub use recall::{recall_at_k, RecallReport};
pub use registry::{Counter, Gauge, Log2Histogram, MetricsRegistry};
pub use report::{
    AdmissionSummary, BenchReport, CacheSummary, Json, MutationSummary, TenantSummary, TraceSummary,
};
pub use slo::{BurnConfig, Objective, ObjectiveSummary, SloGuard, SloSummary, SloTracker};
pub use trace::{
    collect_traces, trace_id_for, trace_to_json, SpanKind, SpanOutcome, SpanRecord, SpanRing,
    TraceContext,
};
pub use transport::{transport_summary, TransportCounters, TransportStats};
