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
//! DiskANN builds in two passes, `α = 1` and then `α` over the finished
//! graph. Here one batched pass of the shared flat skeleton
//! ([`crate::flat_build`]) prunes under `α` from the start: a re-planning
//! second pass draws every row's pool from the finished graph's nearest
//! vertices and so loses the long edges early inserts made.

use crate::flat_build::{build_flat, FlatParams};
use crate::layers_search::FrozenGraph;
use crate::provider::{AlphaRule, DistanceProvider};

/// Vamana construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VamanaParams {
    /// Maximum out-degree `R`.
    pub r: usize,
    /// Candidate pool size `L` (DiskANN's search-list size; plays the role
    /// of the paper's `C`).
    pub c: usize,
    /// The α slack of the pruning rule (`α ≥ 1`; DiskANN defaults to 1.2).
    pub alpha: f32,
}

impl Default for VamanaParams {
    fn default() -> Self {
        Self {
            r: 16,
            c: 128,
            alpha: 1.2,
        }
    }
}

/// Builds a Vamana graph under the α-RNG rule with `params.alpha` and
/// returns the provider paired with a one-layer topology entered at the
/// medoid.
pub fn build<P: DistanceProvider>(provider: P, params: VamanaParams) -> FrozenGraph<P> {
    let flat = FlatParams {
        r: params.r,
        c: params.c,
    };
    build_flat(provider, flat, &AlphaRule::new(params.alpha))
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
            VamanaParams { r: 8, c: 32, alpha },
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
