//! Graph-quality statistics and the build's own work counts.
//!
//! [`GraphStats`] summarizes degree structure and connectivity of a built
//! index. [`BuildProfile`] counts what an HNSW build did — lanes scored,
//! `dominated` lanes, payload appends, re-prunes — as the build loops
//! make them, without a clock. The harness prices those counts by unit
//! costs measured afterwards to reproduce the paper's indexing-time
//! profiles (Figures 1 and 15) without hardware counters
//! (`crates/bench/src/build.rs`).

use crate::graph::GraphLayers;
use metrics::QueryProfile;

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

/// What a build did, counted by the loops that do it: the descents and
/// Candidate Acquisition beams of every planned insert, and the Neighbor
/// Selection work of the plans and of the reverse edges. Every field is a
/// function of (data, params, seed), like the graph; summing is the only
/// arithmetic, so the build counts with plain integer adds and no clock.
/// [`crate::Hnsw::build_profile`] reads the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildProfile {
    /// The descents and CA beams, summed over every planned insert: one
    /// `scratch_checkouts` per plan, which is one
    /// [`crate::DistanceProvider::prepare_insert`].
    pub search: QueryProfile,
    /// [`crate::DistanceProvider::dominated`] calls.
    pub dominated: u64,
    /// Selected lanes offered to those calls.
    pub dominated_lanes: u64,
    /// Payload lanes appended ([`crate::DistanceProvider::append_payload`]).
    pub appended: u64,
    /// Reverse edges that overflowed their row and re-selected it.
    pub reprunes: u64,
    /// [`crate::DistanceProvider::dist_between`] rows those re-prunes scored.
    pub reprune_rows: u64,
}

impl BuildProfile {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: &BuildProfile) {
        self.search.add(&other.search);
        self.dominated += other.dominated;
        self.dominated_lanes += other.dominated_lanes;
        self.appended += other.appended;
        self.reprunes += other.reprunes;
        self.reprune_rows += other.reprune_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::{Hnsw, HnswParams};
    use crate::providers::FullPrecision;
    use vecstore::VectorSet;

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
}
