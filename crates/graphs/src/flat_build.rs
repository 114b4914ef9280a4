//! Shared construction skeleton for the flat (single-layer) graph methods.
//!
//! NSG and τ-MG differ from HNSW only in their Neighbor Selection rule and
//! in being single-layer with a medoid entry point (paper Section 2.1.1: all
//! of them share the CA + NS skeleton); Vamana starts from the same
//! skeleton. So they build on HNSW's batch builder itself ([`Hnsw`]'s
//! plan/apply batches), over one layer:
//!
//! 1. the medoid (the vector nearest the dataset mean) is inserted first
//!    and stays the entry;
//! 2. every other vertex is inserted in batches: its CA is a `C`-wide beam
//!    from the medoid over the graph as the batch found it, its NS keeps at
//!    most `R` neighbors under the method's [`PruneRule`] —
//!    [`crate::MrngRule`] for NSG, [`crate::TauRule`] for τ-MG,
//!    [`crate::AlphaRule`] for Vamana — and a reverse edge that overflows
//!    its row is re-pruned as in HNSW, under the MRNG rule;
//! 3. every vertex the medoid cannot reach is linked from the nearest
//!    vertex a beam from the medoid finds for it.
//!
//! Incremental insertion is what makes the graph navigable: a vertex
//! inserted early links far, and the MRNG re-prune keeps such an edge while
//! no nearer neighbor points the same way. Re-pruned under τ-MG's slack or
//! Vamana's α, a full row would keep its nearest vertices instead; so would
//! a second sweep re-planning every row over the finished graph, whose
//! beams return only near candidates. Both measurably cost recall.
//!
//! Every NS decision goes through [`DistanceProvider::dominated`], so
//! plugging in Flash runs its batched NS kernel here exactly as it does in
//! HNSW (the paper's Figure 14). The flat builders — [`crate::nsg::build`],
//! [`crate::taumg::build`], [`crate::vamana::build`] and
//! [`crate::hcnng::build`] — return a [`FrozenGraph`] over a one-layer
//! [`GraphLayers`] whose entry is the medoid.

use crate::graph::GraphLayers;
use crate::hnsw::Hnsw;
use crate::layers_search::FrozenGraph;
use crate::provider::{DistanceProvider, PruneRule};
use rayon::prelude::*;
use vecstore::VectorSet;

/// Shared parameters of the flat builders.
#[derive(Debug, Clone, Copy)]
pub struct FlatParams {
    /// Maximum out-degree `R`.
    pub r: usize,
    /// Candidate pool size `C`: the width of each vertex's beam.
    pub c: usize,
}

impl Default for FlatParams {
    fn default() -> Self {
        Self { r: 16, c: 128 }
    }
}

/// Builds a flat graph whose NS prunes under `rule`, then repairs its
/// connectivity; returns the provider paired with the one-layer topology
/// entered at the medoid.
pub(crate) fn build_flat<P: DistanceProvider, R: PruneRule>(
    provider: P,
    params: FlatParams,
    rule: &R,
) -> FrozenGraph<P> {
    let n = provider.len();
    if n == 0 {
        return freeze(provider, Vec::new(), 0);
    }
    let entry = medoid(&provider);
    let mut graph = Hnsw::flat(provider, params.c, params.r);
    graph.insert_all(entry, rule);
    // A beam from the entry reaches only what the entry reaches, so its
    // nearest hit for an unreachable vertex is an anchor that makes it
    // reachable. The anchor's row may exceed `R` by the vertices it adopts.
    let mut adj = graph.rows(0);
    let reached = reachable_mask(&adj, entry);
    let base = graph.provider().base();
    let adopted: Vec<(u32, u32)> = (0..n as u32)
        .into_par_iter()
        .filter(|&x| !reached[x as usize])
        .map(|x| {
            let nearest = graph.search(base.get(x as usize), 1, params.c);
            (nearest[0].id as u32, x)
        })
        .collect();
    for (anchor, x) in adopted {
        adj[anchor as usize].push(x);
    }
    freeze(graph.into_provider(), adj, entry)
}

/// Pairs `provider` with the nested adjacency `adj` frozen as a one-layer
/// topology entered at `entry` — how every flat builder ends.
pub(crate) fn freeze<P: DistanceProvider>(
    provider: P,
    adj: Vec<Vec<u32>>,
    entry: u32,
) -> FrozenGraph<P> {
    FrozenGraph::new(provider, GraphLayers::from_nested(vec![adj], entry, 0))
}

/// The flat builders' entry: the vector nearest the dataset mean under the
/// provider's distance, the first of equals. The provider must hold at
/// least one vector.
pub(crate) fn medoid<P: DistanceProvider>(provider: &P) -> u32 {
    let ctx = provider.prepare_query(&dataset_mean(provider.base()));
    (0..provider.len() as u32)
        .map(|i| (provider.dist_to(&ctx, i), i))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or(0, |(_, i)| i)
}

/// The dataset mean, accumulated in `f64` and rounded to `f32` once.
fn dataset_mean(base: &VectorSet) -> Vec<f32> {
    let mut mean = vec![0.0f64; base.dim()];
    for v in base.iter() {
        for (m, &x) in mean.iter_mut().zip(v.iter()) {
            *m += f64::from(x);
        }
    }
    let n = base.len() as f64;
    mean.iter().map(|&m| (m / n) as f32).collect()
}

/// BFS reachability from `entry` over nested adjacency (the builders'
/// pre-freeze form).
pub(crate) fn reachable_mask(adj: &[Vec<u32>], entry: u32) -> Vec<bool> {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[entry as usize] = true;
    queue.push_back(entry);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_follows_directed_edges() {
        let cycle = [vec![1], vec![2], vec![0]];
        assert_eq!(reachable_mask(&cycle, 0), vec![true; 3]);
        let island = [vec![1], vec![0], vec![]];
        assert_eq!(reachable_mask(&island, 0), vec![true, true, false]);
        assert_eq!(reachable_mask(&island, 2), vec![false, false, true]);
    }
}
