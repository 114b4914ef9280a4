//! NSG — the Navigating Spreading-out Graph (Fu et al., reproduced for the
//! paper's Figure 14 generality experiment).
//!
//! NSG builds a single-layer graph by pruning per-vertex candidate pools
//! with the MRNG rule and navigating from a medoid entry point. Its CA and
//! NS stages route through the same [`DistanceProvider`] as HNSW, so the
//! Flash provider accelerates NSG construction unchanged.

use crate::flat_build::{build_flat, FlatParams};
use crate::layers_search::FrozenGraph;
use crate::provider::{DistanceProvider, MrngRule};

/// NSG construction parameters.
pub type NsgParams = FlatParams;

/// Builds an NSG (batched inserts under the MRNG rule, then the
/// connectivity repair): the provider paired with a one-layer topology
/// entered at the medoid.
pub fn build<P: DistanceProvider>(provider: P, params: NsgParams) -> FrozenGraph<P> {
    build_flat(provider, params, &MrngRule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use crate::search_layers;
    use crate::stats::GraphStats;
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
    fn nsg_finds_nearest_on_grid() {
        let nsg = build(FullPrecision::new(grid(10)), NsgParams { r: 8, c: 32 });
        let hits = search_layers(nsg.provider(), nsg.layers(), &[4.1, 6.2], 1, 32);
        assert_eq!(hits[0].id, 46);
    }

    #[test]
    fn nsg_is_fully_reachable() {
        let nsg = build(FullPrecision::new(grid(9)), NsgParams { r: 6, c: 24 });
        assert_eq!(nsg.layers().num_layers(), 1);
        assert_eq!(GraphStats::from_layers(nsg.layers()).reachable, 81);
    }

    #[test]
    fn degrees_bounded_modulo_repair() {
        let nsg = build(FullPrecision::new(grid(8)), NsgParams { r: 6, c: 24 });
        // Connectivity repair may add a few extra edges beyond R.
        let g = nsg.layers();
        for node in 0..g.len() {
            let deg = g.neighbors(0, node as u32).len();
            assert!(deg <= 6 + 4, "degree {deg} too large");
        }
    }

    #[test]
    fn recall_reasonable_on_grid() {
        let base = grid(12);
        let nsg = build(FullPrecision::new(base.clone()), NsgParams { r: 8, c: 48 });
        let gt = vecstore::ground_truth(&base, &base.slice(0, 30), 3);
        let mut hit = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found = search_layers(nsg.provider(), nsg.layers(), base.get(qi), 3, 48);
            let ids: Vec<u64> = found.iter().map(|r| r.id).collect();
            hit += truth
                .iter()
                .filter(|t| ids.contains(&u64::from(t.id)))
                .count();
        }
        let recall = hit as f64 / (30.0 * 3.0);
        assert!(recall > 0.9, "recall {recall}");
    }
}
