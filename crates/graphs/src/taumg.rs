//! τ-MG — the τ-monotonic graph (Peng et al., reproduced for the paper's
//! Figure 14 generality experiment).
//!
//! τ-MG relaxes the MRNG pruning rule with a slack term so that, for any
//! query within τ of a database vector, a monotonic search path to it
//! exists. Construction therefore keeps *more* edges than NSG: a candidate
//! is pruned only if a selected neighbor is closer to it by a 3τ margin.
//! Like NSG, the whole pipeline runs on [`DistanceProvider`] distances, so
//! Flash plugs in unchanged.

use crate::flat_build::{build_flat, FlatParams, TauRule};
use crate::graph::{FlatGraph, GraphLayers};
use crate::layers_search::FrozenGraph;
use crate::provider::DistanceProvider;

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

/// A built τ-MG index.
pub struct TauMg<P: DistanceProvider> {
    provider: P,
    graph: FlatGraph,
    params: TauMgParams,
}

impl<P: DistanceProvider> TauMg<P> {
    /// Builds the index with the τ-relaxed pruning rule.
    pub fn build(provider: P, params: TauMgParams) -> Self {
        let rule = TauRule { tau: params.tau };
        let (graph, provider) = build_flat(provider, params.flat, &rule);
        Self {
            provider,
            graph,
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
    pub fn params(&self) -> &TauMgParams {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsg::{Nsg, NsgParams};
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
    fn taumg_finds_nearest_on_grid() {
        let index = TauMg::build(
            FullPrecision::new(grid(10)),
            TauMgParams {
                flat: FlatParams {
                    r: 8,
                    c: 32,
                    seed: 3,
                },
                tau: 0.2,
            },
        );
        let index = index.into_frozen();
        let hits = crate::search_layers(index.provider(), index.layers(), &[7.2, 2.9], 1, 32);
        assert_eq!(hits[0].id, 73);
    }

    #[test]
    fn taumg_connected() {
        let index = TauMg::build(
            FullPrecision::new(grid(9)),
            TauMgParams {
                flat: FlatParams {
                    r: 8,
                    c: 24,
                    seed: 5,
                },
                tau: 0.2,
            },
        );
        assert_eq!(index.graph().reachable_from_entry(), 81);
    }

    #[test]
    fn tau_slack_yields_denser_graph_than_nsg() {
        let base = grid(10);
        let nsg = Nsg::build(
            FullPrecision::new(base.clone()),
            NsgParams {
                r: 8,
                c: 32,
                seed: 11,
            },
        );
        let taumg = TauMg::build(
            FullPrecision::new(base),
            TauMgParams {
                flat: FlatParams {
                    r: 8,
                    c: 32,
                    seed: 11,
                },
                tau: 0.5,
            },
        );
        assert!(
            taumg.graph().edges() >= nsg.graph().edges(),
            "τ-MG {} edges vs NSG {}",
            taumg.graph().edges(),
            nsg.graph().edges()
        );
    }
}
