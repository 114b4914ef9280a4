//! Shared construction skeleton for the flat (single-layer) graph methods.
//!
//! NSG and τ-MG differ from HNSW only in their edge-selection rule and in
//! being single-layer with a medoid entry point (paper Section 2.1.1: all
//! of them share the CA + NS skeleton). This module implements that shared
//! skeleton once:
//!
//! 1. build a helper HNSW over the same [`DistanceProvider`] (its CA stage
//!    *is* the candidate acquisition the flat builders need);
//! 2. compute the medoid (vector closest to the dataset mean);
//! 3. for every vertex, acquire a candidate pool via beam search and prune
//!    it with the method-specific rule;
//! 4. repair connectivity so every vertex is reachable from the medoid.
//!
//! Because every distance flows through the provider, plugging in Flash
//! accelerates NSG and τ-MG exactly as the paper's Figure 14 reports.

use crate::graph::FlatGraph;
use crate::hnsw::{Hnsw, HnswParams};
use crate::provider::DistanceProvider;
use crate::Hit;
use rayon::prelude::*;

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

/// An edge-pruning rule: given the candidate's distance to the inserted
/// vertex (`d_xv`) and its distance to an already-selected neighbor
/// (`d_uv`), decide whether the candidate is *dominated* (pruned).
pub trait PruneRule: Sync {
    /// Returns `true` if the candidate should be pruned.
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool;
}

/// MRNG rule (NSG): prune `v` when some selected `u` satisfies
/// `δ(u,v) < δ(x,v)`.
pub struct MrngRule;

impl PruneRule for MrngRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        d_uv < d_xv
    }
}

/// τ-MG rule: prune `v` only when `δ(u,v) < δ(x,v) − 3τ` (distances, not
/// squares), retaining extra edges that guarantee τ-monotonic search paths.
/// We adapt the rule to squared-distance bookkeeping by comparing square
/// roots, which is exact.
pub struct TauRule {
    /// The monotonicity slack τ (in distance units).
    pub tau: f32,
}

impl PruneRule for TauRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        let margin = d_xv.max(0.0).sqrt() - 3.0 * self.tau;
        margin > 0.0 && d_uv.max(0.0).sqrt() < margin
    }
}

/// Vamana's α-RNG rule (DiskANN): prune `v` when some selected `u`
/// satisfies `α · δ(u,v) ≤ δ(x,v)`. With squared-distance bookkeeping this
/// is `α² · d_uv ≤ d_xv`. `α = 1` coincides with [`MrngRule`] (up to the
/// boundary case); `α > 1` keeps longer "highway" edges that shorten
/// search paths at the cost of degree.
pub struct AlphaRule {
    /// α² — the rule compares squared distances, so the slack is squared
    /// once at construction time.
    pub alpha_sq: f32,
}

impl AlphaRule {
    /// Builds the rule from the DiskANN-style α (distance units, `α ≥ 1`).
    pub fn new(alpha: f32) -> Self {
        assert!(alpha >= 1.0, "Vamana requires α ≥ 1, got {alpha}");
        Self {
            alpha_sq: alpha * alpha,
        }
    }
}

impl PruneRule for AlphaRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        self.alpha_sq * d_uv <= d_xv
    }
}

/// Builds a flat graph with the given pruning rule. Returns the graph and
/// hands the provider back to the caller.
pub fn build_flat<P: DistanceProvider, Rule: PruneRule>(
    provider: P,
    params: FlatParams,
    rule: &Rule,
) -> (FlatGraph, P) {
    let (adj, entry, provider) = build_flat_nested(provider, params, rule);
    (FlatGraph::from_nested(&adj, entry), provider)
}

/// [`build_flat`] stopping just before the CSR freeze: returns the nested
/// adjacency, the entry point, and the provider. Builders that post-process
/// edges (Vamana's α-pass) mutate the nested form and freeze once at the
/// end.
pub(crate) fn build_flat_nested<P: DistanceProvider, Rule: PruneRule>(
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
        let base = helper.provider().base();
        let dim = base.dim();
        let mut mean = vec![0.0f64; dim];
        for v in base.iter() {
            for (m, &x) in mean.iter_mut().zip(v.iter()) {
                *m += f64::from(x);
            }
        }
        let mean_f32: Vec<f32> = mean.iter().map(|&m| (m / n as f64) as f32).collect();
        let hits = helper.search(&mean_f32, 1, params.c);
        hits.first().map(|h| h.id as u32).unwrap_or(0)
    };

    // Step 3: per-vertex CA (beam search from the medoid side via the
    // helper index) + NS with the method's rule.
    let helper_ref = &helper;
    let adj: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|x| {
            let base = helper_ref.provider().base();
            let pool: Vec<Hit> = helper_ref.search(base.get(x as usize), params.c, params.c);
            let provider = helper_ref.provider();
            let mut selected: Vec<(f32, u32)> = Vec::with_capacity(params.r);
            for hit in pool.iter().filter(|h| h.id != u64::from(x)) {
                if selected.len() >= params.r {
                    break;
                }
                let dominated = selected.iter().any(|&(_, u)| {
                    rule.dominated(hit.dist, provider.dist_between(u, hit.id as u32))
                });
                if !dominated {
                    selected.push((hit.dist, hit.id as u32));
                }
            }
            selected.into_iter().map(|(_, v)| v).collect()
        })
        .collect();

    let mut adj = adj;

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

/// BFS reachability over nested adjacency (the builders' pre-freeze form).
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
    fn mrng_rule_is_strict_domination() {
        let r = MrngRule;
        assert!(r.dominated(1.0, 0.5));
        assert!(!r.dominated(1.0, 1.5));
        assert!(!r.dominated(1.0, 1.0));
    }

    #[test]
    fn tau_rule_keeps_more_edges_than_mrng() {
        let mrng = MrngRule;
        let tau = TauRule { tau: 0.5 };
        // A candidate MRNG would prune (d_uv < d_xv) survives with slack.
        let d_xv = 4.0; // distance 2.0
        let d_uv = 3.0; // distance ~1.73 < 2.0 → MRNG prunes
        assert!(mrng.dominated(d_xv, d_uv));
        assert!(!tau.dominated(d_xv, d_uv), "slack 3τ = 1.5 must retain it");
    }

    #[test]
    fn tau_rule_still_prunes_far_dominated_edges() {
        let tau = TauRule { tau: 0.1 };
        // d_xv = 100 (dist 10), d_uv = 1 (dist 1) → 1 < 10 - 0.3 → pruned.
        assert!(tau.dominated(100.0, 1.0));
    }
}
