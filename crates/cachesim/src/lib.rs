//! Software cache model for the paper's memory-access ablations.
//!
//! The paper quantifies Flash's memory-layout win with hardware counters:
//! L1 miss rates drop from ~19–26 % to ~5–8 % once neighbor codewords are
//! stored inline with neighbor IDs (Table 2). This repository cannot read
//! performance counters portably, so it reproduces the experiment in
//! software: the harness (`crates/bench`) emits the *byte-address stream*
//! a graph traversal touches under each layout, and this crate replays that
//! stream through a set-associative LRU cache model.
//!
//! The model is deliberately simple — physical == virtual addresses, no
//! prefetcher, single level by default — because the effect being measured
//! (random far-apart vector fetches vs. contiguous codeword scans) is
//! orders of magnitude above modeling noise.

mod generic;
mod lru;

pub use generic::Lru;
pub use lru::{CacheConfig, CacheSim, CacheStats, MultiLevelCache};

/// The default L1-data-cache geometry used by the Table 2 experiment:
/// 32 KB, 64-byte lines, 8-way — the geometry of the paper's Xeon E5-2620 v3.
pub fn l1d_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 32 * 1024,
        line_bytes: 64,
        ways: 8,
    }
}

/// A 256 KB, 8-way L2 with 64-byte lines (paper's test machine).
pub fn l2_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 256 * 1024,
        line_bytes: 64,
        ways: 8,
    }
}
