//! The repository's performance benchmark.
//!
//! Four workloads — two index builds, the serving stack, LSM churn — are
//! measured end to end with tracing off, and priced layer by layer in a
//! separate traced run. Everything is measured from outside, by timing
//! calls into the layers' public functions; see `README.md` beside this
//! package for the metric tables and how to read them.

pub mod check;
pub mod churn;
pub mod inputs;
pub mod layers;
pub mod query;
pub mod repeat;
pub mod report;
pub mod span;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod workloads;
