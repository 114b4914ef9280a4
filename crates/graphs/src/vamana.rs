//! Vamana — the DiskANN graph builder (Jayaram Subramanya et al., NeurIPS
//! 2019), reproduced as a generality target beyond the paper's Figure 14.
//!
//! The paper's Section 2.1.1 places Vamana in the same construction family
//! as HNSW/NSG/τ-MG: a Candidate Acquisition stage (greedy beam search for
//! a per-vertex candidate pool) followed by Neighbor Selection (here the
//! **α-RNG "RobustPrune"** rule, which keeps an edge to `v` unless an
//! already-selected `u` satisfies `α·δ(u,v) ≤ δ(x,v)`). Because both stages
//! route every distance through [`DistanceProvider`], plugging in the Flash
//! provider accelerates Vamana construction exactly as it does the three
//! graphs the paper evaluates.
//!
//! The build follows DiskANN's two-pass recipe:
//!
//! 1. **Pass 1** (`α = 1`): the shared flat-build skeleton produces an
//!    MRNG-pruned graph from per-vertex candidate pools.
//! 2. **Pass 2** (`α > 1`): every vertex re-prunes the union of its current
//!    neighbors and its two-hop neighborhood with the slacked rule, then
//!    reverse edges are inserted with overflow re-pruning — this is the
//!    pass that creates the long-range "highway" edges DiskANN relies on.

use crate::flat_build::{build_flat_nested, AlphaRule, FlatParams, PruneRule};
use crate::graph::{FlatGraph, GraphLayers};
use crate::layers_search::FrozenGraph;
use crate::provider::DistanceProvider;
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

/// A built Vamana index.
pub struct Vamana<P: DistanceProvider> {
    provider: P,
    graph: FlatGraph,
    params: VamanaParams,
}

impl<P: DistanceProvider> Vamana<P> {
    /// Builds the index: pass 1 with `α = 1`, pass 2 with `params.alpha`.
    pub fn build(provider: P, params: VamanaParams) -> Self {
        let flat = FlatParams {
            r: params.r,
            c: params.c,
            seed: params.seed,
        };
        // Both refinement passes mutate per-vertex lists, so the graph stays
        // nested until the final freeze into CSR.
        let (mut adj, entry, provider) = build_flat_nested(provider, flat, &AlphaRule::new(1.0));
        if adj.len() > 2 {
            alpha_pass(&provider, &mut adj, entry, params);
            repair_connectivity(&mut adj, entry);
        }
        Self {
            provider,
            graph: FlatGraph::from_nested(&adj, entry),
            params,
        }
    }

    /// The navigating graph.
    pub fn graph(&self) -> &FlatGraph {
        &self.graph
    }

    /// The distance provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// Construction parameters.
    pub fn params(&self) -> &VamanaParams {
        &self.params
    }

    /// Index size: adjacency + provider auxiliary bytes.
    pub fn index_bytes(&self) -> usize {
        self.graph.adjacency_bytes() + self.provider.aux_bytes()
    }

    /// Ends construction: the provider paired with the graph as a
    /// one-layer topology, the form every serving path holds.
    pub fn into_frozen(self) -> FrozenGraph<P> {
        FrozenGraph::new(self.provider, GraphLayers::from_flat(self.graph))
    }
}

/// The α refinement pass: every vertex re-prunes its one- and two-hop
/// neighborhood with the slacked rule, then reverse edges are inserted
/// (with overflow re-pruning from the receiving vertex's perspective).
fn alpha_pass<P: DistanceProvider>(
    provider: &P,
    adj: &mut Vec<Vec<u32>>,
    _entry: u32,
    params: VamanaParams,
) {
    let rule = AlphaRule::new(params.alpha);
    let n = adj.len();

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
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            robust_prune(provider, &rule, &cands, params.r)
        })
        .collect();
    *adj = new_adj;

    // Reverse-edge insertion (sequential: mutates many lists).
    for x in 0..n as u32 {
        let outs = adj[x as usize].clone();
        for v in outs {
            if adj[v as usize].contains(&x) {
                continue;
            }
            if adj[v as usize].len() < params.r {
                adj[v as usize].push(x);
            } else {
                let mut cands: Vec<(f32, u32)> = adj[v as usize]
                    .iter()
                    .chain(std::iter::once(&x))
                    .map(|&u| (provider.dist_between(v, u), u))
                    .collect();
                cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                adj[v as usize] = robust_prune(provider, &rule, &cands, params.r);
            }
        }
    }
}

/// DiskANN's RobustPrune over a distance-sorted candidate list.
fn robust_prune<P: DistanceProvider>(
    provider: &P,
    rule: &AlphaRule,
    sorted_cands: &[(f32, u32)],
    r: usize,
) -> Vec<u32> {
    let mut selected: Vec<(f32, u32)> = Vec::with_capacity(r);
    for &(d, v) in sorted_cands {
        if selected.len() >= r {
            break;
        }
        let dominated = selected
            .iter()
            .any(|&(_, u)| rule.dominated(d, provider.dist_between(u, v)));
        if !dominated {
            selected.push((d, v));
        }
    }
    selected.into_iter().map(|(_, v)| v).collect()
}

/// Guarantees reachability from the entry after re-pruning: unreachable
/// vertices are linked from the entry (the entry's list may exceed `R`,
/// mirroring NSG's simplified tree-linking repair).
fn repair_connectivity(adj: &mut [Vec<u32>], entry: u32) {
    let seen = crate::flat_build::reachable_mask(adj, entry);
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

    fn build_grid(side: usize, alpha: f32) -> Vamana<FullPrecision> {
        Vamana::build(
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
        let index = build_grid(10, 1.2).into_frozen();
        let hits = search_layers(index.provider(), index.layers(), &[6.2, 3.1], 1, 32);
        assert_eq!(hits[0].id, 63, "expected grid point (6,3)");
    }

    #[test]
    fn fully_reachable_after_alpha_pass() {
        let index = build_grid(9, 1.3);
        assert_eq!(index.graph().reachable_from_entry(), 81);
    }

    #[test]
    fn alpha_one_matches_param_default_degrees() {
        // α = 1 must still produce a legal bounded-degree graph.
        let index = build_grid(8, 1.0);
        let g = index.graph();
        for i in 0..g.len() {
            if i == g.entry as usize {
                continue; // repair may oversize the entry
            }
            let deg = g.neighbors(i as u32).len();
            assert!(deg <= 8, "degree {deg} at {i}");
        }
    }

    #[test]
    fn higher_alpha_keeps_at_least_as_many_edges() {
        // The α slack makes domination *harder*, so pools retain more
        // (or equal) edges before the R cap bites.
        let tight = build_grid(10, 1.0);
        let slack = build_grid(10, 1.4);
        assert!(
            slack.graph().edges() >= tight.graph().edges(),
            "α=1.4 edges {} < α=1.0 edges {}",
            slack.graph().edges(),
            tight.graph().edges()
        );
    }

    #[test]
    fn recall_high_on_grid() {
        let base = grid(12);
        let index = Vamana::build(
            FullPrecision::new(base.clone()),
            VamanaParams {
                r: 8,
                c: 48,
                alpha: 1.2,
                seed: 3,
            },
        );
        let index = index.into_frozen();
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
        let empty = Vamana::build(
            FullPrecision::new(VectorSet::new(2)),
            VamanaParams::default(),
        )
        .into_frozen();
        assert!(search_layers(empty.provider(), empty.layers(), &[0.0, 0.0], 1, 8).is_empty());

        let mut one = VectorSet::new(2);
        one.push(&[5.0, 5.0]);
        let index = Vamana::build(FullPrecision::new(one), VamanaParams::default()).into_frozen();
        let hits = search_layers(index.provider(), index.layers(), &[0.0, 0.0], 1, 8);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn alpha_below_one_rejected() {
        let _ = AlphaRule::new(0.9);
    }

    #[test]
    fn search_rerank_sorted_exact() {
        let index = build_grid(8, 1.2).into_frozen();
        let hits = search_layers_rerank(index.provider(), index.layers(), &[3.3, 3.3], 4, 32, 3);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(hits[0].id, 3 * 8 + 3);
    }
}
