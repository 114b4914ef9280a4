//! The serving beam: standard HNSW search over a frozen [`GraphLayers`]
//! topology.
//!
//! [`crate::Hnsw::search`] traverses the index's internal locked node
//! records and exists for an index that is still ingesting. Once
//! construction ends every graph index — HNSW or flat — is a
//! [`FrozenGraph`], and [`search_layers_filtered`] is the one beam that
//! answers plain, filtered and reranked queries over it. The topology is
//! also the *persisted* representation (the format `persist` writes), so
//! a graph built overnight is reloaded and served without the builder's
//! data structures — the deployment the paper's maintenance scenario
//! implies. Any [`DistanceProvider`] works: rebuild the provider
//! deterministically from the dataset (codecs re-train/encode from the
//! same seed) and pair it with the loaded graph.
//!
//! The kernel is allocation-free in steady state: per-query state lives in
//! a pooled [`crate::scratch::SearchScratch`], and each expanded candidate's
//! unvisited neighbors are scored as one block through
//! [`DistanceProvider::dist_to_neighbors`] (register-resident LUT lookups on
//! the Flash path) while the next candidate's data is prefetched. Results
//! are bit-identical to the naive per-neighbor loop: gathering first and
//! scoring second changes neither the visit order nor any admission
//! decision, because distances carry no side effects.

use crate::graph::GraphLayers;
use crate::provider::DistanceProvider;
use crate::scratch::{with_scratch, SearchScratch};
use crate::Hit;
use metrics::QueryProfile;

/// What every graph index is once construction ends: a distance provider
/// paired with the frozen topology built through it. The engine's graph
/// index, the LSM segments and the per-label partitions all hold one and
/// answer queries with [`search_layers_filtered`] over its two halves.
pub struct FrozenGraph<P> {
    provider: P,
    layers: GraphLayers,
}

impl<P: DistanceProvider> FrozenGraph<P> {
    /// Pairs a provider with a topology over the same vectors.
    ///
    /// # Panics
    /// Panics if the provider and topology disagree on the vector count.
    pub fn new(provider: P, layers: GraphLayers) -> Self {
        assert_eq!(
            provider.len(),
            layers.len(),
            "provider covers {} vectors, topology {}",
            provider.len(),
            layers.len()
        );
        Self { provider, layers }
    }

    /// The distance provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// The frozen topology.
    pub fn layers(&self) -> &GraphLayers {
        &self.layers
    }

    /// Served index size in bytes: adjacency ids + provider auxiliary
    /// state. The construction-time neighbor payload blocks
    /// ([`crate::Hnsw::index_bytes`] counts them) are gone by now.
    pub fn index_bytes(&self) -> usize {
        self.layers.adjacency_bytes() + self.provider.aux_bytes()
    }
}

/// Splits `n` distance evaluations coded-vs-exact with the provider's
/// hoisted `coded()` flag (`cf ∈ {0, 1}`) — a multiply instead of a
/// branch, so the profile costs nothing on the beam's hot loop.
#[inline]
fn add_evals(profile: &mut QueryProfile, n: u64, cf: u64) {
    profile.dist_coded += n * cf;
    profile.dist_exact += n * (1 - cf);
}

/// k-NN beam search (greedy upper-layer descent, `ef`-wide base beam)
/// over a frozen topology.
pub fn search_layers<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
) -> Vec<Hit> {
    // The filtered beam with an accept-all predicate *is* the plain beam:
    // every admitted vertex enters the result set, so the two loops are
    // identical. Delegating keeps one copy of the descent + beam.
    search_layers_filtered(provider, graph, query, k, ef, &|_| true)
}

/// Greedy descent through the upper layers, scoring each neighbor row as
/// one block. Returns the layer-0 entry candidate and its distance.
pub(crate) fn descend<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    ctx: &P::QueryCtx,
    scratch: &mut SearchScratch<P::NodePayload>,
) -> (u32, f32) {
    let cf = provider.coded() as u64;
    let mut cur = graph.entry;
    let mut cur_d = provider.dist_to(ctx, cur);
    add_evals(&mut scratch.profile, 1, cf);
    for layer in (1..=graph.max_layer).rev() {
        loop {
            let row = graph.neighbors(layer, cur);
            if row.is_empty() {
                break;
            }
            scratch.ids.clear();
            scratch.ids.extend_from_slice(row);
            provider.sync_payload(&mut scratch.payload, &scratch.ids);
            provider.dist_to_neighbors(ctx, &scratch.ids, &scratch.payload, &mut scratch.dists);
            scratch.profile.hops_upper += 1;
            scratch.profile.rows_scored += 1;
            scratch.profile.codeword_bytes += provider.payload_bytes(row.len()) as u64;
            add_evals(&mut scratch.profile, row.len() as u64, cf);
            let mut improved = false;
            for (&nb, &d) in scratch.ids.iter().zip(&scratch.dists) {
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    (cur, cur_d)
}

/// k-NN beam search over a frozen topology restricted to vectors accepted
/// by `accept` (hybrid / attribute-constrained ANNS): the beam *traverses*
/// every vertex — rejected vertices still route the search, as in
/// hnswlib's filtering mode — but only accepted vertices enter the result
/// set, so recall is measured against the filtered ground truth.
pub fn search_layers_filtered<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
    accept: &(dyn Fn(u32) -> bool + Sync),
) -> Vec<Hit> {
    if graph.is_empty() {
        return Vec::new();
    }
    let ef = ef.max(k).max(1);
    let ctx = provider.prepare_query(query);
    let cf = provider.coded() as u64;

    with_scratch::<P::NodePayload, _>(|scratch| {
        let (cur, cur_d) = descend(provider, graph, &ctx, scratch);

        scratch.visited.begin(graph.len());
        scratch.visited.check_and_mark(cur);
        scratch.profile.visited_inserts += 1;
        // The result set holds only accepted vertices; the frontier
        // expands all.
        scratch.beam.reset();
        if accept(cur) {
            scratch.beam.push_result(cur_d, cur, ef);
        }
        scratch.beam.push_frontier(cur_d, cur);

        while let Some((d, u)) = scratch.beam.pop_frontier() {
            if d > scratch.beam.worst() && scratch.beam.len() >= ef {
                break;
            }
            // Gather the unvisited neighbors, then score them as one block.
            scratch.ids.clear();
            for &nb in graph.neighbors(0, u) {
                if !scratch.visited.check_and_mark(nb) {
                    scratch.ids.push(nb);
                }
            }
            scratch.profile.hops_base += 1;
            scratch.profile.visited_inserts += scratch.ids.len() as u64;
            if scratch.ids.is_empty() {
                continue;
            }
            // Overlap the next candidate's misses with this block's scoring.
            if let Some(next) = scratch.beam.peek_frontier() {
                provider.prefetch(next);
                simdops::prefetch_slice(graph.neighbors(0, next));
            }
            provider.sync_payload(&mut scratch.payload, &scratch.ids);
            provider.dist_to_neighbors(&ctx, &scratch.ids, &scratch.payload, &mut scratch.dists);
            scratch.profile.rows_scored += 1;
            scratch.profile.codeword_bytes += provider.payload_bytes(scratch.ids.len()) as u64;
            add_evals(&mut scratch.profile, scratch.ids.len() as u64, cf);
            for (&nb, &nd) in scratch.ids.iter().zip(&scratch.dists) {
                scratch.beam.offer(nd, nb, ef, || accept(nb));
            }
        }
        scratch.beam.drain_hits(k)
    })
}

/// Per-node payload blocks for a frozen graph's base layer, built once at
/// load/freeze time — the serving-side half of the paper's access-aware
/// layout (Section 3.3.4). [`search_layers`] must rebuild the expanded
/// node's codeword block from the global code table on every expansion
/// (the frozen topology stores adjacency only); with a sidecar the block
/// is a plain read, so steady-state serving does no layout work at all.
pub struct NodePayloads<PL> {
    rows: Vec<PL>,
}

impl<PL: Default> NodePayloads<PL> {
    /// Builds the base-layer payload block of every node.
    pub fn build<P: DistanceProvider<NodePayload = PL>>(provider: &P, graph: &GraphLayers) -> Self {
        let rows = (0..graph.len())
            .map(|node| {
                let mut payload = PL::default();
                provider.sync_payload(&mut payload, graph.neighbors(0, node as u32));
                payload
            })
            .collect();
        Self { rows }
    }

    /// The prebuilt payload block of `node`'s base-layer neighbor row.
    #[inline]
    pub fn row(&self, node: u32) -> &PL {
        &self.rows[node as usize]
    }

    /// Number of node rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// [`search_layers`] over prebuilt [`NodePayloads`]: identical `(dist, id)`
/// results, but each expansion scores its *whole* neighbor row against the
/// node's resident block instead of gathering unvisited ids and rebuilding
/// a block for them. Scoring already-visited lanes is redundant work, but
/// it is batched SIMD work on data the expansion touches anyway — cheaper
/// than the per-expansion gather + block rebuild it replaces. Bit-exact
/// because distances carry no side effects and the admission loop walks
/// the row in order, skipping visited lanes exactly where the gathering
/// kernel never queued them.
pub fn search_layers_cached<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    payloads: &NodePayloads<P::NodePayload>,
    query: &[f32],
    k: usize,
    ef: usize,
) -> Vec<Hit> {
    if graph.is_empty() {
        return Vec::new();
    }
    let ef = ef.max(k).max(1);
    let ctx = provider.prepare_query(query);
    let cf = provider.coded() as u64;

    with_scratch::<P::NodePayload, _>(|scratch| {
        let (cur, cur_d) = descend(provider, graph, &ctx, scratch);

        scratch.visited.begin(graph.len());
        scratch.visited.check_and_mark(cur);
        scratch.profile.visited_inserts += 1;
        scratch.beam.reset();
        scratch.beam.push_result(cur_d, cur, ef);
        scratch.beam.push_frontier(cur_d, cur);

        while let Some((d, u)) = scratch.beam.pop_frontier() {
            if d > scratch.beam.worst() && scratch.beam.len() >= ef {
                break;
            }
            let row = graph.neighbors(0, u);
            if row.is_empty() {
                continue;
            }
            if let Some(next) = scratch.beam.peek_frontier() {
                provider.prefetch(next);
                simdops::prefetch_slice(graph.neighbors(0, next));
            }
            provider.dist_to_neighbors(&ctx, row, payloads.row(u), &mut scratch.dists);
            // Whole-row scoring: every lane is evaluated, visited or not,
            // and the prebuilt block is read in full.
            scratch.profile.hops_base += 1;
            scratch.profile.rows_scored += 1;
            scratch.profile.codeword_bytes += provider.payload_bytes(row.len()) as u64;
            add_evals(&mut scratch.profile, row.len() as u64, cf);
            for (&nb, &nd) in row.iter().zip(&scratch.dists) {
                if scratch.visited.check_and_mark(nb) {
                    continue;
                }
                scratch.profile.visited_inserts += 1;
                scratch.beam.offer(nd, nb, ef, || true);
            }
        }
        scratch.beam.drain_hits(k)
    })
}

/// [`search_layers`] followed by exact reranking on the provider's raw
/// vectors (the paper's Flash search pipeline).
pub fn search_layers_rerank<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
    rerank_factor: usize,
) -> Vec<Hit> {
    let pool = search_layers(
        provider,
        graph,
        query,
        (k * rerank_factor.max(1)).max(k),
        ef,
    );
    crate::rerank_exact(provider.base(), query, pool, k)
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
    fn frozen_search_matches_live_search() {
        let base = grid(12);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 5,
            },
        );
        let frozen = index.freeze();
        let provider = FullPrecision::new(base);
        for q in [[3.2f32, 7.1], [0.1, 0.1], [11.0, 11.0], [5.5, 5.5]] {
            let live: Vec<u64> = index.search(&q, 5, 48).iter().map(|r| r.id).collect();
            let cold: Vec<u64> = search_layers(&provider, &frozen, &q, 5, 48)
                .iter()
                .map(|r| r.id)
                .collect();
            assert_eq!(live, cold, "query {q:?}");
        }
    }

    #[test]
    fn cached_payloads_match_plain_search() {
        let base = grid(11);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 3,
            },
        );
        let frozen = index.freeze();
        let provider = FullPrecision::new(base);
        let payloads = NodePayloads::build(&provider, &frozen);
        assert_eq!(payloads.len(), frozen.len());
        for q in [[2.3f32, 8.8], [0.0, 10.9], [5.5, 5.4], [10.1, 0.2]] {
            let plain = search_layers(&provider, &frozen, &q, 6, 40);
            let cached = search_layers_cached(&provider, &frozen, &payloads, &q, 6, 40);
            assert_eq!(plain.len(), cached.len(), "query {q:?}");
            for (a, b) in plain.iter().zip(&cached) {
                assert_eq!((a.id, a.dist), (b.id, b.dist), "query {q:?}");
            }
        }
    }

    #[test]
    fn empty_graph_returns_nothing() {
        let g = GraphLayers::from_nested(vec![vec![]], 0, 0);
        let provider = FullPrecision::new(VectorSet::new(2));
        assert!(search_layers(&provider, &g, &[0.0, 0.0], 3, 8).is_empty());
    }

    #[test]
    fn rerank_orders_exactly() {
        let base = grid(9);
        let index = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 32,
                r: 8,
                seed: 9,
            },
        );
        let frozen = index.freeze();
        let provider = FullPrecision::new(base);
        let hits = search_layers_rerank(&provider, &frozen, &[4.4, 4.4], 4, 32, 3);
        assert_eq!(hits[0].id, 4 * 9 + 4);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
}
