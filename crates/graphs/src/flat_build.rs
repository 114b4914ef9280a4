//! Shared construction skeleton for the flat (single-layer) graph methods.
//!
//! NSG and τ-MG differ from HNSW only in their Neighbor Selection rule and
//! in being single-layer with a medoid entry point (paper Section 2.1.1: all
//! of them share the CA + NS skeleton); Vamana starts from the same
//! skeleton. This module implements that skeleton once:
//!
//! 1. build a helper HNSW over the same [`DistanceProvider`] (its CA stage
//!    *is* the candidate acquisition the flat builders need);
//! 2. compute the medoid (vector closest to the dataset mean);
//! 3. for every vertex, acquire a candidate pool via beam search and prune
//!    it with HNSW's Neighbor Selection routine under the method's
//!    [`PruneRule`] — [`crate::MrngRule`] for NSG, [`crate::TauRule`] for
//!    τ-MG, [`crate::AlphaRule`] for Vamana;
//! 4. repair connectivity so every vertex is reachable from the medoid.
//!
//! Every NS decision goes through [`DistanceProvider::dominated`], so
//! plugging in Flash runs its batched NS kernel here exactly as it does in
//! HNSW (the paper's Figure 14). The flat builders — [`crate::nsg::build`],
//! [`crate::taumg::build`], [`crate::vamana::build`] and
//! [`crate::hcnng::build`] — return a [`FrozenGraph`] over a one-layer
//! [`GraphLayers`] whose entry is the medoid.

use crate::graph::GraphLayers;
use crate::hnsw::{select_neighbors, Hnsw, HnswParams};
use crate::layers_search::FrozenGraph;
use crate::provider::{DistanceProvider, PruneRule};
use rayon::prelude::*;
use vecstore::VectorSet;

/// Shared parameters of the flat builders.
#[derive(Debug, Clone, Copy)]
pub struct FlatParams {
    /// Maximum out-degree `R`.
    pub r: usize,
    /// Candidate pool size `C` used during CA (also the helper HNSW's `C`).
    pub c: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlatParams {
    fn default() -> Self {
        Self {
            r: 16,
            c: 128,
            seed: 0x5eed,
        }
    }
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

/// Builds a flat graph with the given pruning rule, stopping just before
/// the CSR freeze: returns the nested adjacency, the entry point, and the
/// provider. Builders that post-process edges (Vamana's α-pass) mutate the
/// nested form before they [`freeze`].
pub(crate) fn build_flat<P: DistanceProvider, Rule: PruneRule>(
    provider: P,
    params: FlatParams,
    rule: &Rule,
) -> (Vec<Vec<u32>>, u32, P) {
    let n = provider.len();
    if n == 0 {
        return (Vec::new(), 0, provider);
    }

    // Step 1: helper HNSW supplies the candidate pools.
    let helper = Hnsw::build(
        provider,
        HnswParams {
            c: params.c,
            r: params.r.max(8),
            seed: params.seed,
        },
    );

    // Step 2: medoid = vector nearest the dataset mean.
    let medoid = {
        let mean = dataset_mean(helper.provider().base());
        let hits = helper.search(&mean, 1, params.c);
        hits.first().map(|h| h.id as u32).unwrap_or(0)
    };

    // Step 3: per-vertex CA (beam search from the medoid side via the
    // helper index) + NS with the method's rule.
    let helper_ref = &helper;
    let mut adj: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|x| {
            let provider = helper_ref.provider();
            let pool = helper_ref.search(provider.base().get(x as usize), params.c, params.c);
            let candidates: Vec<(f32, u32)> = pool
                .iter()
                .filter(|h| h.id != u64::from(x))
                .map(|h| (h.dist, h.id as u32))
                .collect();
            let mut selected = Vec::with_capacity(params.r);
            let mut block = P::NodePayload::default();
            select_neighbors(
                provider,
                rule,
                &candidates,
                params.r,
                &mut selected,
                &mut block,
            );
            selected
        })
        .collect();

    // Step 4: connectivity repair — attach unreachable vertices to their
    // nearest reachable candidate (NSG's tree-linking step, simplified).
    for _round in 0..8 {
        let reached = reachable_mask(&adj, medoid);
        let todo: Vec<u32> = (0..n as u32).filter(|&i| !reached[i as usize]).collect();
        if todo.is_empty() {
            break;
        }
        for x in todo {
            let base = helper.provider().base();
            let pool = helper.search(base.get(x as usize), params.c, params.c);
            let anchor = pool
                .iter()
                .find(|h| h.id != u64::from(x) && reached[h.id as usize])
                .map(|h| h.id as u32)
                .unwrap_or(medoid);
            adj[anchor as usize].push(x);
        }
    }

    (adj, medoid, helper.into_provider())
}

/// The dataset mean, accumulated in `f64` and rounded to `f32` once — the
/// point the flat builders' medoid entry is the nearest vector to.
pub(crate) fn dataset_mean(base: &VectorSet) -> Vec<f32> {
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
