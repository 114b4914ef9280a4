//! Index maintenance under continuous updates — the workload that makes
//! construction speed a user-facing metric.
//!
//! The paper's introduction motivates Flash with the *reconstruction
//! bottleneck* of modern vector databases: data and embedding models update
//! continuously, systems absorb updates with an LSM-style pipeline
//! (AnalyticDB-V, Milvus, SPFresh), avoiding rebuilds degrades accuracy
//! (*"from 0.95 to 0.88 after 20 update cycles"*), and the periodic rebuild
//! must fit an overnight window that full-precision HNSW construction
//! blows through. This crate implements that pipeline end to end so the
//! claim can be measured:
//!
//! * [`MemTable`] — the mutable write buffer; brute-force searched.
//! * [`Segment`] — an immutable HNSW-Flash index over a sealed batch, with
//!   tombstone deletes (search filters dead vertices but the graph keeps
//!   routing through them — the structural decay that erodes recall).
//! * [`LsmVectorIndex`] — the user-facing index: inserts go to the
//!   memtable and spill into sealed segments, coded through one shared
//!   Flash codec that a flush re-fits only when the memtable has drifted
//!   from it; deletes tombstone; searches fan out across memtable +
//!   segments on the `rayon` pool and merge; [`LsmVectorIndex::rebuild`]
//!   compacts every live vector into one fresh segment (the overnight
//!   rebuild whose cost Flash attacks).
//! * [`cycles`] — the update-cycle simulator behind the `ext2` experiment
//!   of `crates/bench` (`repro ext2`).
//!
//! ```
//! use maintenance::{LsmConfig, LsmVectorIndex};
//!
//! let mut config = LsmConfig::for_dim(8);
//! config.memtable_cap = 64;
//! let mut index = LsmVectorIndex::new(config);
//!
//! let a = index.insert(&[0.0; 8]);
//! let b = index.insert(&[1.0; 8]);
//! assert_eq!(index.search(&[0.9; 8], 1, 16)[0].id, b);
//!
//! index.delete(a);
//! let report = index.rebuild(); // the "overnight" compaction
//! assert_eq!(report.vectors, 1);
//! assert!(index.contains(b) && !index.contains(a));
//! ```

pub mod cycles;
pub mod lsm;
pub mod memtable;
pub mod persist;
pub mod segment;

pub use cycles::{simulate_cycles, CyclePoint, CycleWorkload};
pub use lsm::{LsmConfig, LsmStats, LsmVectorIndex, RebuildReport};
pub use memtable::MemTable;
pub use segment::Segment;

/// The workspace-wide search hit type (re-exported from `graphs`): for
/// LSM searches `id` is the stable external id and `dist` the exact
/// (full-precision) squared L2 distance.
pub use graphs::Hit;

use std::cmp::Ordering;

/// The order every LSM result is kept in: ascending `dist`, ties by `id`.
fn by_dist_then_id(a: &Hit, b: &Hit) -> Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// The `k` first of `hits` under [`by_dist_then_id`], sorted: the `k` best
/// are selected first, so only they are sorted. Ids are distinct, so this is
/// the full sort's prefix, ties included.
fn k_best(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    if hits.len() > k {
        hits.select_nth_unstable_by(k, by_dist_then_id);
        hits.truncate(k);
    }
    hits.sort_unstable_by(by_dist_then_id);
    hits
}
