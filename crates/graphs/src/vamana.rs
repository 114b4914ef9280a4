//! Vamana — the DiskANN graph builder (Jayaram Subramanya et al., NeurIPS
//! 2019), reproduced as a generality target beyond the paper's Figure 14.
//!
//! The paper's Section 2.1.1 places Vamana in the same construction family
//! as HNSW/NSG/τ-MG: a Candidate Acquisition stage (greedy beam search for
//! a per-vertex candidate pool) followed by Neighbor Selection — the one
//! routine every builder shares, here under the **α-RNG "RobustPrune"**
//! rule ([`AlphaRule`]), which keeps an edge to `v` unless an
//! already-selected `u` satisfies `α·δ(u,v) ≤ δ(x,v)`. Because both stages
//! route every distance through [`DistanceProvider`], plugging in the Flash
//! provider accelerates Vamana construction exactly as it does the three
//! graphs the paper evaluates.
//!
//! The build follows DiskANN's two-pass recipe:
//!
//! 1. **Pass 1** (`α = 1`): the shared flat-build skeleton produces a
//!    pruned graph from per-vertex candidate pools.
//! 2. **Pass 2** (`α > 1`): every vertex re-prunes the union of its current
//!    neighbors and its two-hop neighborhood with the slacked rule, then
//!    reverse edges are inserted with overflow re-pruning — this is the
//!    pass that creates the long-range "highway" edges DiskANN relies on.

use crate::flat_build::{build_flat, freeze, reachable_mask, FlatParams};
use crate::hnsw::select_neighbors;
use crate::layers_search::FrozenGraph;
use crate::provider::{AlphaRule, DistanceProvider};
use rayon::prelude::*;

/// Vamana construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VamanaParams {
    /// Maximum out-degree `R`.
    pub r: usize,
    /// Candidate pool size `L` (DiskANN's search-list size; plays the role
    /// of the paper's `C`).
    pub c: usize,
    /// The α slack of the second pruning pass (`α ≥ 1`; DiskANN defaults
    /// to 1.2).
    pub alpha: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VamanaParams {
    fn default() -> Self {
        Self {
            r: 16,
            c: 128,
            alpha: 1.2,
            seed: 0x5eed,
        }
    }
}

/// Builds a Vamana graph — pass 1 with `α = 1`, pass 2 with
/// `params.alpha` — and returns the provider paired with a one-layer
/// topology entered at the medoid.
pub fn build<P: DistanceProvider>(provider: P, params: VamanaParams) -> FrozenGraph<P> {
    let flat = FlatParams {
        r: params.r,
        c: params.c,
        seed: params.seed,
    };
    // Both refinement passes mutate per-vertex lists, so the graph stays
    // nested until the final freeze into CSR.
    let (mut adj, entry, provider) = build_flat(provider, flat, &AlphaRule::new(1.0));
    if adj.len() > 2 {
        alpha_pass(&provider, &mut adj, params);
        repair_connectivity(&mut adj, entry);
    }
    freeze(provider, adj, entry)
}

/// The α refinement pass: every vertex re-prunes its one- and two-hop
/// neighborhood with the slacked rule, then reverse edges are inserted
/// (with overflow re-pruning from the receiving vertex's perspective).
/// Both prunes are the shared Neighbor Selection routine under
/// [`AlphaRule`].
fn alpha_pass<P: DistanceProvider>(provider: &P, adj: &mut Vec<Vec<u32>>, params: VamanaParams) {
    let rule = AlphaRule::new(params.alpha);
    let n = adj.len();
    let by_distance = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));

    // Re-prune pools in parallel; pools are read-only views of the pass-1
    // adjacency, so no locking is needed.
    let new_adj: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|x| {
            let mut pool: Vec<u32> = Vec::with_capacity(params.c);
            pool.extend_from_slice(&adj[x as usize]);
            for &nb in &adj[x as usize] {
                pool.extend_from_slice(&adj[nb as usize]);
            }
            pool.sort_unstable();
            pool.dedup();
            pool.retain(|&v| v != x);
            let mut cands: Vec<(f32, u32)> = pool
                .iter()
                .map(|&v| (provider.dist_between(x, v), v))
                .collect();
            cands.sort_by(by_distance);
            let mut selected = Vec::with_capacity(params.r);
            let mut block = P::NodePayload::default();
            select_neighbors(provider, &rule, &cands, params.r, &mut selected, &mut block);
            selected
        })
        .collect();
    *adj = new_adj;

    // Reverse-edge insertion (sequential: mutates many lists).
    let mut block = P::NodePayload::default();
    for x in 0..n as u32 {
        let outs = adj[x as usize].clone();
        for v in outs {
            let row = &mut adj[v as usize];
            if row.contains(&x) {
                continue;
            }
            if row.len() < params.r {
                row.push(x);
            } else {
                let mut cands: Vec<(f32, u32)> = row
                    .iter()
                    .chain(std::iter::once(&x))
                    .map(|&u| (provider.dist_between(v, u), u))
                    .collect();
                cands.sort_by(by_distance);
                select_neighbors(provider, &rule, &cands, params.r, row, &mut block);
            }
        }
    }
}

/// Guarantees reachability from the entry after re-pruning: unreachable
/// vertices are linked from the entry (the entry's list may exceed `R`,
/// mirroring NSG's simplified tree-linking repair).
fn repair_connectivity(adj: &mut [Vec<u32>], entry: u32) {
    let seen = reachable_mask(adj, entry);
    let orphans: Vec<u32> = seen
        .iter()
        .enumerate()
        .filter(|(_, &s)| !s)
        .map(|(x, _)| x as u32)
        .collect();
    adj[entry as usize].extend(orphans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use crate::stats::GraphStats;
    use crate::{search_layers, search_layers_rerank};
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

    fn build_grid(side: usize, alpha: f32) -> FrozenGraph<FullPrecision> {
        build(
            FullPrecision::new(grid(side)),
            VamanaParams {
                r: 8,
                c: 32,
                alpha,
                seed: 11,
            },
        )
    }

    #[test]
    fn finds_nearest_on_grid() {
        let index = build_grid(10, 1.2);
        let hits = search_layers(index.provider(), index.layers(), &[6.2, 3.1], 1, 32);
        assert_eq!(hits[0].id, 63, "expected grid point (6,3)");
    }

    #[test]
    fn fully_reachable_after_alpha_pass() {
        let index = build_grid(9, 1.3);
        assert_eq!(GraphStats::from_layers(index.layers()).reachable, 81);
    }

    #[test]
    fn alpha_one_matches_param_default_degrees() {
        // α = 1 must still produce a legal bounded-degree graph.
        let index = build_grid(8, 1.0);
        let g = index.layers();
        for i in 0..g.len() {
            if i == g.entry as usize {
                continue; // repair may oversize the entry
            }
            let deg = g.neighbors(0, i as u32).len();
            assert!(deg <= 8, "degree {deg} at {i}");
        }
    }

    #[test]
    fn higher_alpha_keeps_at_least_as_many_edges() {
        // The α slack makes domination *harder*, so pools retain more
        // (or equal) edges before the R cap bites.
        let tight = build_grid(10, 1.0);
        let slack = build_grid(10, 1.4);
        let (slack, tight) = (slack.layers().base_edges(), tight.layers().base_edges());
        assert!(slack >= tight, "α=1.4 edges {slack} < α=1.0 edges {tight}");
    }

    #[test]
    fn recall_high_on_grid() {
        let base = grid(12);
        let index = build(
            FullPrecision::new(base.clone()),
            VamanaParams {
                r: 8,
                c: 48,
                alpha: 1.2,
                seed: 3,
            },
        );
        let gt = vecstore::ground_truth(&base, &base.slice(0, 30), 3);
        let mut hit = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found = search_layers(index.provider(), index.layers(), base.get(qi), 3, 48);
            let ids: Vec<u64> = found.iter().map(|r| r.id).collect();
            hit += truth
                .iter()
                .filter(|t| ids.contains(&u64::from(t.id)))
                .count();
        }
        let recall = hit as f64 / 90.0;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn empty_and_single_vector() {
        let empty = build(
            FullPrecision::new(VectorSet::new(2)),
            VamanaParams::default(),
        );
        assert!(search_layers(empty.provider(), empty.layers(), &[0.0, 0.0], 1, 8).is_empty());

        let mut one = VectorSet::new(2);
        one.push(&[5.0, 5.0]);
        let index = build(FullPrecision::new(one), VamanaParams::default());
        let hits = search_layers(index.provider(), index.layers(), &[0.0, 0.0], 1, 8);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn search_rerank_sorted_exact() {
        let index = build_grid(8, 1.2);
        let hits = search_layers_rerank(index.provider(), index.layers(), &[3.3, 3.3], 4, 32, 3);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(hits[0].id, 3 * 8 + 3);
    }
}
