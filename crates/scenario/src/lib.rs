//! Deterministic workload generation + scenario harness.
//!
//! This crate closes the loop between the workspace's serving stacks and
//! the paper's performance story: instead of one-off `search` benchmarks,
//! it replays *seeded, composable workloads* — Zipf-skewed query
//! popularity, diurnal/bursty arrival schedules, interleaved LSM
//! mutations, labeled and predicate-filtered queries, multi-tenant
//! streams, scripted fault storms — against any `AnnIndex`-shaped
//! topology, and emits a schema-stable `BENCH_<scenario>.json` so runs
//! can be diffed across commits (a perf trajectory, not a point sample).
//!
//! The pipeline, one module per stage:
//!
//! 1. [`spec`] — [`WorkloadSpec`] lowers to a deterministic [`Event`]
//!    stream: every random choice derives from the spec's seed through
//!    fixed sub-streams, so the same spec always yields the same bytes.
//! 2. [`corpus`] — [`ScenarioCorpus`] overlays the immutable serving
//!    topology with an LSM write path (inserts) and a tombstone set
//!    (deletes), keeping a generation counter for cache invalidation.
//! 3. [`runner`] — [`ScenarioRunner`] assembles topology → corpus →
//!    optional cache, replays the stream through `BatchExecutor`, checks
//!    sampled queries against a brute-force oracle, and folds counters
//!    into a `metrics::BenchReport`.
//! 4. [`named`] — the five-scenario catalog ([`SCENARIO_NAMES`]) with
//!    CI-sized smoke variants.
//!
//! The report holds no wall-clock timing: all of it is a pure function
//! of `(spec, topology)`, so two runs can be compared byte-for-byte.
//!
//! ```no_run
//! use scenario::by_name;
//!
//! let scenario = by_name("steady_zipf", true).unwrap();
//! let report = scenario.runner(42).run().unwrap();
//! println!("{}", report.to_pretty_string());
//! ```

pub mod corpus;
pub mod named;
pub mod runner;
pub mod spec;

pub use corpus::ScenarioCorpus;
pub use named::{all, by_name, Scenario, SCENARIO_NAMES};
pub use runner::{ScenarioRunner, TopologySpec};
pub use spec::{AdmissionSpec, ArrivalShape, Event, FaultStorm, QueryEvent, WorkloadSpec};
