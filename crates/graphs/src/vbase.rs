//! VBase-style search termination (Zhang et al., OSDI 2023), reproduced for
//! the paper's Figure 13 generality experiment.
//!
//! VBase's observation ("relaxed monotonicity"): once a graph traversal has
//! entered the query's neighborhood, the distances of newly expanded
//! vertices stop improving on the running result set; instead of expanding
//! until the fixed `ef` beam is exhausted, terminate when a window of `W`
//! consecutive expansions yields no improvement to the top-k. Construction
//! is untouched, so Flash-built graphs benefit directly.
//!
//! Only the termination loop is VBase's own. The upper-layer descent and
//! each expansion's gather-and-score step are the serving beam's
//! ([`crate::layers_search`]), so the two score identical blocks.

use crate::graph::GraphLayers;
use crate::layers_search::{descend, gather_and_score};
use crate::provider::DistanceProvider;
use crate::scratch::with_scratch;
use crate::Hit;

/// Search with relaxed-monotonicity termination.
///
/// Expands vertices best-first; terminates when either the frontier is
/// exhausted or the last `window` expansions failed to improve the k-th
/// best distance. `window` plays the role the beam width `ef` plays in
/// standard HNSW search (bigger → higher recall, slower).
///
/// Per-query state is pooled, and each expansion scores its unvisited
/// neighbors in one [`DistanceProvider::dist_to_neighbors`] call —
/// bit-identical to the per-neighbor loop, since the windowed-termination
/// decisions depend only on the distances, not on when they were computed.
pub fn search_vbase<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    window: usize,
) -> Vec<Hit> {
    if graph.is_empty() {
        return Vec::new();
    }
    let window = window.max(1);
    // The entry is admitted unconditionally, so the top-k never holds
    // fewer than one vertex.
    let cap = k.max(1);
    let ctx = provider.prepare_query(query);

    with_scratch(|scratch| {
        let levels = (graph.max_layer, 1);
        let (cur, cur_d) = descend(provider, graph, &ctx, graph.entry, levels, scratch);

        // Base-layer expansion with windowed termination.
        scratch.visited.begin(graph.len());
        scratch.visited.check_and_mark(cur);
        scratch.profile.visited_inserts += 1;
        scratch.beam.reset();
        scratch.beam.push_result(cur_d, cur, cap);
        scratch.beam.push_frontier(cur_d, cur);

        let mut since_improvement = 0usize;
        while let Some((_, u)) = scratch.beam.pop_frontier() {
            if since_improvement >= window {
                break;
            }
            scratch.profile.hops_base += 1;
            gather_and_score(provider, graph, &ctx, 0, u, scratch);
            let mut improved = false;
            for (&nb, &nd) in scratch.ids.iter().zip(&scratch.dists) {
                // Strict `<`: only a real improvement of the k-th best
                // resets the window.
                if scratch.beam.len() < k || nd < scratch.beam.worst() {
                    scratch.beam.push_result(nd, nb, cap);
                    improved = true;
                }
                // Frontier admission stays generous so the walk can cross
                // plateaus; the window handles termination.
                scratch.beam.push_frontier(nd, nb);
            }
            if improved {
                since_improvement = 0;
            } else {
                since_improvement += 1;
            }
        }

        scratch.beam.drain_hits(usize::MAX)
    })
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
    fn finds_nearest_with_reasonable_window() {
        let base = grid(12);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 2,
            },
        );
        let graph = index.freeze();
        let hits = search_vbase(index.provider(), &graph, &[6.2, 3.9], 1, 24);
        assert_eq!(hits[0].id, 6 * 12 + 4);
    }

    #[test]
    fn bigger_window_never_hurts_recall() {
        let base = grid(14);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 3,
            },
        );
        let graph = index.freeze();
        let gt = vecstore::ground_truth(&base, &base.slice(0, 20), 5);
        let recall = |window: usize| -> f64 {
            let mut hit = 0;
            for (qi, truth) in gt.iter().enumerate() {
                let found = search_vbase(index.provider(), &graph, base.get(qi), 5, window);
                let ids: Vec<u64> = found.iter().map(|r| r.id).collect();
                hit += truth
                    .iter()
                    .filter(|t| ids.contains(&u64::from(t.id)))
                    .count();
            }
            hit as f64 / (20.0 * 5.0)
        };
        let small = recall(2);
        let large = recall(40);
        assert!(
            large >= small,
            "window 40 recall {large} < window 2 recall {small}"
        );
        assert!(large > 0.9, "large-window recall {large}");
    }

    #[test]
    fn returns_at_most_k() {
        let base = grid(6);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 16,
                r: 4,
                seed: 4,
            },
        );
        let graph = index.freeze();
        let hits = search_vbase(index.provider(), &graph, &[2.0, 2.0], 3, 16);
        assert!(hits.len() <= 3);
        assert!(!hits.is_empty());
    }
}
