//! The one greedy descent (`descend`) and the one `ef`-wide beam
//! (`beam_search`) of the crate: HNSW's Candidate Acquisition,
//! [`crate::Hnsw::search`] and every serving query run them. Both are
//! generic over a crate-private row source (`Rows`), which answers three
//! things about a node: its neighbor row at a layer, the payload block of
//! that row if one is resident, and a prefetch of both.
//!
//! * A frozen [`GraphLayers`] has no blocks.
//! * HNSW's row records ([`crate::Hnsw`]'s slab) hold every row's block
//!   beside its ids, one address computation away — when the provider
//!   keeps blocks at all: a provider without a payload has none resident.
//! * A frozen graph with prebuilt [`NodePayloads`] is resident at layer 0.
//!
//! A beam expansion of a row **with a resident block** scores the whole
//! row against it and checks the lanes against the visited set afterwards;
//! at the epoch's last beam (layer 0) only the lanes a full beam can still
//! admit, since nothing reads the epoch afterwards, while upper layers
//! share it with the layers below. A row **without one** is gathered: its
//! unvisited ids are collected without a branch per lane (every id is
//! written, the length advances by its not-seen bit), marked, and scored
//! against no block — the provider reads each from its global state
//! (Flash: table lookups straight on the packed code rows; full precision:
//! one vector each) — so no visited lane is scored (`gather_and_score`,
//! which [`crate::vbase`] also calls). Either way the next frontier
//! candidate's row (and block) is prefetched while this one is scored. The
//! descent scores each upper-layer row whole, building its block with
//! [`DistanceProvider::sync_payload`] when none is resident.
//!
//! A beam offers only the lanes of a 64-lane mask a full beam can still
//! admit (`admissible`). The results of both expansions are bit-identical:
//! distances carry no side effects, both mark every lane at upper layers,
//! and at layer 0 a lane the mask refuses is refused by every later offer.
//! Callers own the visited epoch and the beam's entry distance.
//!
//! Once construction ends every graph index is a [`FrozenGraph`], served
//! allocation-free through [`search_layers_filtered`] with a pooled
//! [`crate::scratch::SearchScratch`]. The topology is also what `persist`
//! writes, so a graph built overnight is reloaded and served without the
//! builder, paired with a provider re-derived from the dataset.

use crate::graph::GraphLayers;
use crate::provider::{Blocks, DistanceProvider};
use crate::scratch::{with_scratch, Beam, SearchScratch};
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
/// constant `coded()` flag (`cf ∈ {0, 1}`) — a multiply instead of a
/// branch, so the profile costs nothing on the beam's hot loop.
#[inline]
fn add_evals<P: DistanceProvider>(profile: &mut QueryProfile, provider: &P, n: usize) {
    let cf = provider.coded() as u64;
    profile.dist_coded += n as u64 * cf;
    profile.dist_exact += n as u64 * (1 - cf);
}

/// Counts one block of `n` ids scored by `dist_to_neighbors`.
#[inline]
fn add_block<P: DistanceProvider>(profile: &mut QueryProfile, provider: &P, n: usize) {
    profile.rows_scored += 1;
    profile.codeword_bytes += provider.payload_bytes(n) as u64;
    add_evals(profile, provider, n);
}

/// Lanes one admission mask covers.
const MASK_LANES: usize = 64;

/// The admission mask of up to [`MASK_LANES`] scored lanes: bit `j` is set
/// when `dists[j]` could still enter the beam. While the result set is
/// short of `ef` every lane could; once it is full only lanes with
/// `d ≤ worst` can, and since a full beam's worst never rises, a lane
/// cleared here is refused by every later offer too.
#[inline]
fn admissible(dists: &[f32], beam: &Beam, ef: usize) -> u64 {
    if beam.len() < ef {
        return every(dists.len());
    }
    let worst = beam.worst();
    (dists.iter().enumerate()).fold(0, |mask, (j, &d)| mask | (u64::from(d <= worst) << j))
}

/// The mask of all `n` lanes, `1 ≤ n ≤ MASK_LANES`.
#[inline]
fn every(n: usize) -> u64 {
    debug_assert!((1..=MASK_LANES).contains(&n));
    u64::MAX >> (MASK_LANES - n)
}

/// The set lanes of `mask`, ascending.
#[inline]
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Where the descent and the beam read a node's neighbor row, and whether
/// the payload block of that row is resident.
pub(crate) trait Rows {
    /// `node`'s neighbor row at `layer` (empty when it has none there).
    fn row(&self, layer: usize, node: u32) -> &[u32];

    /// That row's payload block when one is resident; with `None` the
    /// beam gathers the ids it scores and scores them against no block,
    /// and the descent builds the row's block.
    fn resident(&self, layer: usize, node: u32) -> Option<&[u8]>;

    /// Hint that `node`'s row at `layer`, and its block if resident, will
    /// be read shortly. Computes addresses only: it reads nothing.
    fn prefetch(&self, layer: usize, node: u32);
}

impl Rows for GraphLayers {
    #[inline]
    fn row(&self, layer: usize, node: u32) -> &[u32] {
        self.neighbors(layer, node)
    }

    #[inline]
    fn resident(&self, _layer: usize, _node: u32) -> Option<&[u8]> {
        None
    }

    #[inline]
    fn prefetch(&self, layer: usize, node: u32) {
        simdops::prefetch_slice(self.neighbors(layer, node));
    }
}

/// A frozen topology whose base-layer blocks are prebuilt.
struct Prebuilt<'a> {
    graph: &'a GraphLayers,
    payloads: &'a NodePayloads,
}

impl Rows for Prebuilt<'_> {
    #[inline]
    fn row(&self, layer: usize, node: u32) -> &[u32] {
        self.graph.neighbors(layer, node)
    }

    #[inline]
    fn resident(&self, layer: usize, node: u32) -> Option<&[u8]> {
        (layer == 0 && self.payloads.stride > 0).then(|| self.payloads.row(node))
    }

    #[inline]
    fn prefetch(&self, layer: usize, node: u32) {
        self.graph.prefetch(layer, node);
        if let Some(block) = self.resident(layer, node) {
            simdops::prefetch_slice(block);
        }
    }
}

/// Greedy descent from `entry` through layers `top` down to `bottom`
/// (none when `bottom > top`): at each layer, move to the closest neighbor
/// while one is closer, scoring each row as one block. Returns the vertex
/// it ends on and its distance.
pub(crate) fn descend<P: DistanceProvider, S: Rows + ?Sized>(
    provider: &P,
    rows: &S,
    ctx: &P::QueryCtx,
    entry: u32,
    (top, bottom): (usize, usize),
    scratch: &mut SearchScratch,
) -> (u32, f32) {
    let mut cur = entry;
    let mut cur_d = provider.dist_to(ctx, cur);
    add_evals(&mut scratch.profile, provider, 1);
    for layer in (bottom..=top).rev() {
        loop {
            let row = rows.row(layer, cur);
            if row.is_empty() {
                break;
            }
            let block = match rows.resident(layer, cur) {
                Some(block) => block,
                None => {
                    provider.sync_payload(&mut scratch.payload, row);
                    scratch.payload.as_bytes()
                }
            };
            provider.dist_to_neighbors(ctx, row, block, &mut scratch.dists);
            scratch.profile.hops_upper += 1;
            add_block(&mut scratch.profile, provider, row.len());
            let mut improved = false;
            for (&nb, &d) in row.iter().zip(&scratch.dists) {
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

/// The gathering half of an expansion of `node` at `layer`: marks the
/// row's unvisited ids visited and leaves them in `scratch.ids` — every id
/// is written and the length advances by its not-seen bit, so no lane
/// branches — then, unless there are none, prefetches the next frontier
/// candidate and scores the ids into `scratch.dists` against no payload
/// block: the provider reads each id from its global state.
#[inline]
pub(crate) fn gather_and_score<P: DistanceProvider, S: Rows + ?Sized>(
    provider: &P,
    rows: &S,
    ctx: &P::QueryCtx,
    layer: usize,
    node: u32,
    scratch: &mut SearchScratch,
) {
    let row = rows.row(layer, node);
    let ids = &mut scratch.ids;
    ids.resize(row.len(), 0);
    let mut len = 0;
    for &nb in row {
        ids[len] = nb;
        len += usize::from(!scratch.visited.check_and_mark(nb));
    }
    ids.truncate(len);
    scratch.profile.visited_inserts += len as u64;
    if len == 0 {
        return;
    }
    // Overlap the next candidate's misses with this row's scoring.
    if let Some(next) = scratch.beam.peek_frontier() {
        provider.prefetch(next);
        rows.prefetch(layer, next);
    }
    provider.dist_to_neighbors(ctx, &scratch.ids, &[], &mut scratch.dists);
    scratch.profile.rows_scored += 1;
    scratch.profile.codeword_bytes += (len * provider.code_row_bytes()) as u64;
    add_evals(&mut scratch.profile, provider, len);
}

/// Beam search at `layer` from `entry` at distance `entry_d`, with room for
/// `ef` results: leaves the result set in `scratch.beam` for the caller to
/// drain. The beam *traverses* every vertex it reaches, but only vertices
/// `accept` passes enter the result set (filtered search routes through
/// rejected vertices, as in hnswlib's filtering mode). The caller owns the
/// visited epoch: the entry is admitted whether or not it was visited, and
/// at `layer` 0 — the epoch's last beam — a resident expansion leaves the
/// lanes it cannot admit unmarked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn beam_search<P, S, A>(
    provider: &P,
    rows: &S,
    ctx: &P::QueryCtx,
    (entry, entry_d): (u32, f32),
    layer: usize,
    ef: usize,
    accept: A,
    scratch: &mut SearchScratch,
) where
    P: DistanceProvider,
    S: Rows + ?Sized,
    A: Fn(u32) -> bool,
{
    let ef = ef.max(1);
    scratch.visited.check_and_mark(entry);
    scratch.profile.visited_inserts += 1;
    scratch.beam.reset();
    if accept(entry) {
        scratch.beam.push_result(entry_d, entry, ef);
    }
    scratch.beam.push_frontier(entry_d, entry);

    while let Some((d, u)) = scratch.beam.pop_frontier() {
        if d > scratch.beam.worst() && scratch.beam.len() >= ef {
            break;
        }
        scratch.profile.hops_base += 1;
        let Some(block) = rows.resident(layer, u) else {
            gather_and_score(provider, rows, ctx, layer, u, scratch);
            let SearchScratch {
                ids, dists, beam, ..
            } = &mut *scratch;
            for (ids, dists) in ids.chunks(MASK_LANES).zip(dists.chunks(MASK_LANES)) {
                for j in lanes(admissible(dists, beam, ef)) {
                    beam.offer(dists[j], ids[j], ef, || accept(ids[j]));
                }
            }
            continue;
        };
        // Whole-row scoring: every lane is evaluated, visited or not, and
        // the resident block is read in full.
        let row = rows.row(layer, u);
        if row.is_empty() {
            continue;
        }
        if let Some(next) = scratch.beam.peek_frontier() {
            rows.prefetch(layer, next);
        }
        provider.dist_to_neighbors(ctx, row, block, &mut scratch.dists);
        add_block(&mut scratch.profile, provider, row.len());
        let SearchScratch {
            visited,
            dists,
            beam,
            profile,
            ..
        } = &mut *scratch;
        for (ids, dists) in row.chunks(MASK_LANES).zip(dists.chunks(MASK_LANES)) {
            // Only the epoch's last beam may leave unadmittable lanes
            // unmarked.
            let mask = if layer == 0 {
                admissible(dists, beam, ef)
            } else {
                every(dists.len())
            };
            for j in lanes(mask) {
                if visited.check_and_mark(ids[j]) {
                    continue;
                }
                profile.visited_inserts += 1;
                beam.offer(dists[j], ids[j], ef, || accept(ids[j]));
            }
        }
    }
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
    search_layers_filtered(provider, graph, query, k, ef, &|_| true)
}

/// k-NN beam search over a frozen topology restricted to vectors accepted
/// by `accept` (hybrid / attribute-constrained ANNS): rejected vertices
/// still route the search, but only accepted ones are returned, so recall
/// is measured against the filtered ground truth.
pub fn search_layers_filtered<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
    accept: &(dyn Fn(u32) -> bool + Sync),
) -> Vec<Hit> {
    search_frozen(provider, graph, graph, query, k, ef, accept)
}

/// The serving query over `graph`, its base-layer beam reading rows from
/// `rows`: one scratch checkout, the descent, the beam, the best `k`.
fn search_frozen<P, S, A>(
    provider: &P,
    graph: &GraphLayers,
    rows: &S,
    query: &[f32],
    k: usize,
    ef: usize,
    accept: A,
) -> Vec<Hit>
where
    P: DistanceProvider,
    S: Rows,
    A: Fn(u32) -> bool,
{
    if graph.is_empty() {
        return Vec::new();
    }
    let ctx = provider.prepare_query(query);
    with_scratch(|scratch| {
        let levels = (graph.max_layer, 1);
        let entry = descend(provider, graph, &ctx, graph.entry, levels, scratch);
        scratch.visited.begin(graph.len());
        beam_search(provider, rows, &ctx, entry, 0, ef.max(k), accept, scratch);
        scratch.beam.drain_hits(k)
    })
}

/// Per-node payload blocks for a frozen graph's base layer, built once at
/// load/freeze time — the serving-side half of the paper's access-aware
/// layout (Section 3.3.4). [`search_layers`] has no block to read (the
/// frozen topology stores adjacency only): it scores the ids it gathers
/// from the global code table one by one. With a sidecar each expansion
/// scores its node's resident block whole instead. The blocks sit at one
/// fixed stride, the block size of the widest row; a provider without a
/// payload has a stride of 0, and its rows are gathered as without one.
pub struct NodePayloads {
    bytes: Vec<u8>,
    stride: usize,
    len: usize,
}

impl NodePayloads {
    /// Builds the base-layer payload block of every node.
    pub fn build<P: DistanceProvider>(provider: &P, graph: &GraphLayers) -> Self {
        let len = graph.len();
        let widest = (0..len).map(|node| graph.layer(0).degree(node)).max();
        let stride = provider.payload_bytes(widest.unwrap_or(0));
        let mut bytes = vec![0; len * stride];
        let mut block = Blocks::default();
        for (node, dst) in bytes.chunks_exact_mut(stride.max(1)).enumerate() {
            provider.sync_payload(&mut block, graph.neighbors(0, node as u32));
            dst[..block.as_bytes().len()].copy_from_slice(block.as_bytes());
        }
        Self { bytes, stride, len }
    }

    /// The prebuilt payload block of `node`'s base-layer neighbor row.
    #[inline]
    pub fn row(&self, node: u32) -> &[u8] {
        let at = node as usize * self.stride;
        &self.bytes[at..at + self.stride]
    }

    /// Number of node rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// [`search_layers`] over prebuilt [`NodePayloads`]: identical `(dist, id)`
/// results, but each base-layer expansion scores its *whole* neighbor row
/// against the node's resident block instead of gathering unvisited ids
/// and scoring them from the global code table. Scoring already-visited
/// lanes is redundant work, but it is batched SIMD work on one contiguous
/// block instead of one code-row read per gathered id.
pub fn search_layers_cached<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    payloads: &NodePayloads,
    query: &[f32],
    k: usize,
    ef: usize,
) -> Vec<Hit> {
    let rows = Prebuilt { graph, payloads };
    search_frozen(provider, graph, &rows, query, k, ef, |_| true)
}

/// [`search_layers`] followed by exact reranking on the provider's raw
/// vectors (the paper's Flash search pipeline): [`crate::rerank_exact`]
/// walks the pool in the beam's coded-distance order and stops each exact
/// distance once it is past the `k`-th best so far.
pub fn search_layers_rerank<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
    rerank_factor: usize,
) -> Vec<Hit> {
    let pool_k = (k * rerank_factor.max(1)).max(k);
    let pool = search_layers(provider, graph, query, pool_k, ef);
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
