//! τ-MG — the τ-monotonic graph (Peng et al., reproduced for the paper's
//! Figure 14 generality experiment).
//!
//! τ-MG relaxes the MRNG pruning rule with a slack term so that, for any
//! query within τ of a database vector, a monotonic search path to it
//! exists. Construction therefore keeps *more* edges than NSG: a candidate
//! is pruned only if a selected neighbor is closer to it by a 3τ margin.
//! Like NSG, the whole pipeline runs on [`DistanceProvider`] distances, so
//! Flash plugs in unchanged.

use crate::flat_build::{build_flat, FlatParams};
use crate::layers_search::FrozenGraph;
use crate::provider::{DistanceProvider, TauRule};

/// τ-MG construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TauMgParams {
    /// Shared CA/NS parameters.
    pub flat: FlatParams,
    /// Monotonicity slack τ (in distance units, not squared).
    pub tau: f32,
}

impl Default for TauMgParams {
    fn default() -> Self {
        Self {
            flat: FlatParams::default(),
            tau: 0.1,
        }
    }
}

/// Builds a τ-MG with the τ-relaxed pruning rule: the provider paired with
/// a one-layer topology entered at the medoid.
pub fn build<P: DistanceProvider>(provider: P, params: TauMgParams) -> FrozenGraph<P> {
    build_flat(provider, params.flat, &TauRule { tau: params.tau })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
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
    fn taumg_finds_nearest_on_grid() {
        let index = build(
            FullPrecision::new(grid(10)),
            TauMgParams {
                flat: FlatParams { r: 8, c: 32 },
                tau: 0.2,
            },
        );
        let hits = crate::search_layers(index.provider(), index.layers(), &[7.2, 2.9], 1, 32);
        assert_eq!(hits[0].id, 73);
    }

    #[test]
    fn taumg_connected() {
        let index = build(
            FullPrecision::new(grid(9)),
            TauMgParams {
                flat: FlatParams { r: 8, c: 24 },
                tau: 0.2,
            },
        );
        assert_eq!(GraphStats::from_layers(index.layers()).reachable, 81);
    }

    #[test]
    fn tau_slack_yields_denser_graph_than_nsg() {
        let base = grid(10);
        let flat = FlatParams { r: 8, c: 32 };
        let nsg = crate::nsg::build(FullPrecision::new(base.clone()), flat);
        let taumg = build(FullPrecision::new(base), TauMgParams { flat, tau: 0.5 });
        let (dense, sparse) = (taumg.layers().base_edges(), nsg.layers().base_edges());
        assert!(dense >= sparse, "τ-MG {dense} edges vs NSG {sparse}");
    }
}
