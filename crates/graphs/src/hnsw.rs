//! Generic HNSW construction and search (paper Algorithm 1).
//!
//! The builder is parameterized over a [`DistanceProvider`], so the same
//! construction loop yields HNSW, HNSW-PQ, HNSW-SQ, HNSW-PCA and HNSW-Flash
//! depending only on which provider is plugged in — mirroring how the paper
//! integrates each coding method into the hnswlib pipeline for a fair
//! comparison.
//!
//! Construction follows the standard multi-threaded recipe: vertex levels
//! are drawn from an exponentially decaying distribution up front, vertices
//! are inserted in parallel (rayon), each insert performs a greedy descent
//! through the upper layers followed by a beam search with `ef = C` per
//! layer (**Candidate Acquisition**), then the heuristic pruning rule keeps
//! at most `R` diverse neighbors (**Neighbor Selection**) and adds reverse
//! edges, pruning overflow with the same rule. Per-node mutexes protect
//! neighbor lists and, under the same lock, the provider's node payloads
//! (e.g. Flash codeword blocks).
//!
//! The builder never re-derives a payload it already has. Neighbor
//! Selection appends each kept vertex to a scratch block as it goes — the
//! block the provider answers [`DistanceProvider::dominated`] from — and
//! that block *is* the payload of the list it selected: it is swapped into
//! the node record. A reverse edge that fits appends one lane
//! ([`DistanceProvider::append_payload`]). Everything an insert needs —
//! visited set, [`crate::scratch`]'s beam, candidate / selected / prune
//! lists, the scratch block — comes from one pooled per-thread
//! [`SearchScratch`], so steady-state construction allocates only the ADT
//! of the inserted vector and the node rows it grows.

use crate::graph::GraphLayers;
use crate::layers_search::FrozenGraph;
use crate::provider::DistanceProvider;
use crate::scratch::{with_pooled, SearchScratch};
use crate::Hit;
use metrics::QueryProfile;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Construction hyper-parameters (paper Section 2.2).
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Maximum candidate-set size `C` (a.k.a. `efConstruction`).
    pub c: usize,
    /// Maximum neighbors `R` in layers above the base; the base layer allows
    /// `2R`, following the original paper and hnswlib.
    pub r: usize,
    /// RNG seed for level sampling.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            c: 128,
            r: 16,
            seed: 0x5eed,
        }
    }
}

impl HnswParams {
    /// Neighbor capacity at `layer`.
    #[inline]
    pub fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.r * 2
        } else {
            self.r
        }
    }
}

/// Hard cap on sampled levels; with `ml = 1/ln(R)` even billion-scale
/// graphs stay far below this.
const MAX_LEVEL: usize = 24;

struct NodeData<PL> {
    /// Neighbor lists, one per layer `0..=level`.
    neighbors: Vec<Vec<u32>>,
    /// Provider payloads parallel to `neighbors`.
    payloads: Vec<PL>,
}

struct EntryPoint {
    node: u32,
    level: usize,
    initialized: bool,
}

/// An HNSW index under construction or ready for search.
pub struct Hnsw<P: DistanceProvider> {
    provider: P,
    params: HnswParams,
    levels: Vec<u8>,
    nodes: Vec<Mutex<NodeData<P::NodePayload>>>,
    entry: RwLock<EntryPoint>,
}

impl<P: DistanceProvider> Hnsw<P> {
    /// Prepares an empty index over the provider's vectors: levels are
    /// sampled, node records allocated, nothing inserted yet.
    pub fn new(provider: P, params: HnswParams) -> Self {
        assert!(params.r >= 1, "R must be at least 1");
        assert!(params.c >= params.r, "C must be at least R (paper: R <= C)");
        let n = provider.len();
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let ml = 1.0 / f64::ln((params.r.max(2)) as f64);
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
            })
            .collect();
        let nodes = levels
            .iter()
            .map(|&l| {
                let layers = usize::from(l) + 1;
                Mutex::new(NodeData {
                    neighbors: vec![Vec::new(); layers],
                    payloads: (0..layers).map(|_| P::NodePayload::default()).collect(),
                })
            })
            .collect();
        Self {
            provider,
            params,
            levels,
            nodes,
            entry: RwLock::new(EntryPoint {
                node: 0,
                level: 0,
                initialized: false,
            }),
        }
    }

    /// Builds the index over all provider vectors with parallel insertion.
    pub fn build(provider: P, params: HnswParams) -> Self {
        let index = Self::new(provider, params);
        let n = index.provider.len();
        if n == 0 {
            return index;
        }
        // Seed the graph with the highest-level node so the parallel phase
        // always finds an initialized entry point.
        let seed_node = (0..n).max_by_key(|&i| index.levels[i]).unwrap() as u32;
        index.insert(seed_node);
        (0..n as u32)
            .into_par_iter()
            .filter(|&i| i != seed_node)
            .for_each(|i| {
                index.insert(i);
            });
        index
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The distance provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// Number of vectors the index covers.
    pub fn len(&self) -> usize {
        self.provider.len()
    }

    /// Whether the index covers no vectors.
    pub fn is_empty(&self) -> bool {
        self.provider.is_empty()
    }

    /// Sampled level of `id`.
    pub fn level_of(&self, id: u32) -> usize {
        usize::from(self.levels[id as usize])
    }

    /// Inserts database vector `id` into the graph (paper Algorithm 1,
    /// lines 2–8). Thread-safe; every vector should be inserted exactly
    /// once.
    ///
    /// Known deviation from Algorithm 1, recorded rather than fixed: one
    /// visited epoch spans all of a vertex's layers (`begin` runs once per
    /// insert), so a vertex reached at layer `l + 1` is invisible to the
    /// layer-`l` beam of the same insert, where the paper searches each
    /// layer afresh. Beginning an epoch per layer changes every graph and
    /// every committed baseline, so it waits for a PR of its own (ROADMAP).
    pub fn insert(&self, id: u32) {
        let level = usize::from(self.levels[id as usize]);
        // First insertion initializes the entry point.
        {
            let mut ep = self.entry.write();
            if !ep.initialized {
                ep.node = id;
                ep.level = level;
                ep.initialized = true;
                return;
            }
        }

        let ctx = self.provider.prepare_insert(id);
        let (mut cur, ep_level) = {
            let ep = self.entry.read();
            (ep.node, ep.level)
        };

        // Construction cost is not query cost: the profile is discarded,
        // and the scratch checkout is the uncounted one.
        let mut discard = QueryProfile::new();
        with_pooled::<P::NodePayload, _>(|scratch| {
            // Greedy descent through layers above this vertex's level.
            let mut layer = ep_level;
            while layer > level {
                cur = self.greedy_closest(&ctx, cur, layer, scratch, &mut discard);
                layer -= 1;
            }

            // CA + NS per layer, top-down.
            scratch.visited.begin(self.nodes.len());
            for l in (0..=level.min(ep_level)).rev() {
                self.search_layer(&ctx, cur, self.params.c, l, scratch, &mut discard);
                let SearchScratch {
                    candidates,
                    selected,
                    prune,
                    payload,
                    ..
                } = &mut *scratch;
                let Some(&(_, nearest)) = candidates.first() else {
                    continue;
                };
                cur = nearest;
                self.select_neighbors(candidates, self.params.cap(l), selected, payload);

                // Install this vertex's neighbor list; the block NS built
                // while selecting is its payload.
                {
                    let mut node = self.nodes[id as usize].lock();
                    node.neighbors[l].clear();
                    node.neighbors[l].extend_from_slice(selected);
                    std::mem::swap(&mut node.payloads[l], payload);
                }
                // Reverse edges (line 7 of Algorithm 1). `selected` is a
                // subsequence of `candidates`, so one forward walk pairs
                // each kept vertex with its distance.
                let mut kept = selected.iter().peekable();
                for &(d, y) in candidates.iter() {
                    if kept.next_if_eq(&&y).is_some() {
                        self.link(y, id, d, l, prune, payload);
                    }
                }
            }
        });

        // Promote the entry point if this vertex tops the hierarchy.
        if level > ep_level {
            let mut ep = self.entry.write();
            if level > ep.level {
                ep.node = id;
                ep.level = level;
            }
        }
    }

    /// Greedy walk to the locally closest vertex at `layer` (used for the
    /// descent through upper layers, ef = 1).
    fn greedy_closest(
        &self,
        ctx: &P::QueryCtx,
        start: u32,
        layer: usize,
        scratch: &mut SearchScratch<P::NodePayload>,
        profile: &mut QueryProfile,
    ) -> u32 {
        let cf = self.provider.coded() as u64;
        let mut cur = start;
        let mut cur_d = self.provider.dist_to(ctx, cur);
        profile.dist_coded += cf;
        profile.dist_exact += 1 - cf;
        let SearchScratch { ids, dists, .. } = scratch;
        loop {
            self.neighbor_dists(ctx, cur, layer, ids, dists, profile);
            profile.hops_upper += 1;
            let mut improved = false;
            for (&id, &d) in ids.iter().zip(dists.iter()) {
                if d < cur_d {
                    cur = id;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Copies `node`'s neighbor ids at `layer` into `ids` and their
    /// distances to the prepared vector into `dists`, under the node lock so
    /// a payload-carrying provider sees a consistent (ids, payload) pair.
    #[inline]
    fn neighbor_dists(
        &self,
        ctx: &P::QueryCtx,
        node: u32,
        layer: usize,
        ids: &mut Vec<u32>,
        dists: &mut Vec<f32>,
        profile: &mut QueryProfile,
    ) {
        let guard = self.nodes[node as usize].lock();
        ids.clear();
        if layer >= guard.neighbors.len() {
            dists.clear();
            return;
        }
        ids.extend_from_slice(&guard.neighbors[layer]);
        self.provider
            .dist_to_neighbors(ctx, ids, &guard.payloads[layer], dists);
        let cf = self.provider.coded() as u64;
        let n = ids.len() as u64;
        profile.rows_scored += 1;
        profile.dist_coded += n * cf;
        profile.dist_exact += n * (1 - cf);
        profile.codeword_bytes += self.provider.payload_bytes(ids.len()) as u64;
    }

    /// Beam search at one layer (the Candidate Acquisition stage): leaves
    /// up to `ef` nearest vertices in `scratch.candidates`, ascending by
    /// `(distance, id)`. The caller owns the visited epoch.
    fn search_layer(
        &self,
        ctx: &P::QueryCtx,
        entry: u32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch<P::NodePayload>,
        profile: &mut QueryProfile,
    ) {
        let SearchScratch {
            visited,
            beam,
            ids,
            dists,
            candidates,
            ..
        } = scratch;
        // The entry is admitted unconditionally, so the result set never
        // holds fewer than one vertex.
        let ef = ef.max(1);
        let cf = self.provider.coded() as u64;
        let d0 = self.provider.dist_to(ctx, entry);
        profile.dist_coded += cf;
        profile.dist_exact += 1 - cf;
        visited.check_and_mark(entry);
        profile.visited_inserts += 1;

        beam.reset();
        beam.push_result(d0, entry, ef);
        beam.push_frontier(d0, entry);
        while let Some((d, u)) = beam.pop_frontier() {
            if d > beam.worst() && beam.len() >= ef {
                break;
            }
            self.neighbor_dists(ctx, u, layer, ids, dists, profile);
            profile.hops_base += 1;
            for (&id, &nd) in ids.iter().zip(dists.iter()) {
                if visited.check_and_mark(id) {
                    continue;
                }
                profile.visited_inserts += 1;
                beam.offer(nd, id, ef, || true);
            }
        }
        candidates.clear();
        candidates.extend(beam.drain_sorted());
    }

    /// The heuristic Neighbor Selection rule: walk candidates in ascending
    /// distance; keep `v` unless some already-selected `u` is closer to `v`
    /// than `v` is to the inserted vector (paper Section 2.2's MRNG-style
    /// rule). Leaves at most `cap` kept ids in `selected`, in candidate
    /// order, and `block` as their payload, lane for lane — the block the
    /// provider answers [`DistanceProvider::dominated`] from as it grows.
    fn select_neighbors(
        &self,
        candidates: &[(f32, u32)],
        cap: usize,
        selected: &mut Vec<u32>,
        block: &mut P::NodePayload,
    ) {
        // The first candidate is always kept, and its append at lane 0 is
        // what discards the block's previous contents.
        debug_assert!(!candidates.is_empty() && cap >= 1);
        selected.clear();
        for &(d, v) in candidates {
            if selected.len() >= cap {
                break;
            }
            if !self.provider.dominated(v, d, selected, block) {
                self.provider.append_payload(block, selected.len(), v);
                selected.push(v);
            }
        }
    }

    /// Adds the reverse edge `y → x`, pruning with the same heuristic if
    /// `y`'s list overflows its capacity. `prune` and `block` are scratch
    /// for that re-selection.
    fn link(
        &self,
        y: u32,
        x: u32,
        d_xy: f32,
        layer: usize,
        prune: &mut Vec<(f32, u32)>,
        block: &mut P::NodePayload,
    ) {
        let mut node = self.nodes[y as usize].lock();
        if layer >= node.neighbors.len() {
            return; // y does not exist at this layer (stale candidate)
        }
        let NodeData {
            neighbors,
            payloads,
        } = &mut *node;
        let (row, payload) = (&mut neighbors[layer], &mut payloads[layer]);
        if row.contains(&x) {
            return;
        }
        let cap = self.params.cap(layer);
        if row.len() < cap {
            // One more lane; the rest of the block is already right.
            self.provider.append_payload(payload, row.len(), x);
            row.push(x);
            return;
        }
        // Re-run the selection heuristic over current neighbors + x, with
        // distances measured from y; the block it builds replaces y's.
        prune.clear();
        prune.extend(
            row.iter()
                .map(|&nb| (self.provider.dist_between(y, nb), nb)),
        );
        prune.push((d_xy, x));
        prune.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.select_neighbors(prune, cap, row, block);
        std::mem::swap(payload, block);
    }

    /// k-NN search over the live graph (the paper's search procedure:
    /// greedy descent, then a base-layer beam search with `ef`, reporting
    /// provider distances) — the same `search_layer` loop `insert`
    /// uses, so it works while the index is still ingesting and supplies
    /// the flat builders' candidate pools. Serving goes through
    /// [`Self::into_frozen`] and [`crate::search_layers`] instead.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Hit> {
        let ep = self.entry.read();
        if !ep.initialized {
            return Vec::new();
        }
        let (mut cur, ep_level) = (ep.node, ep.level);
        drop(ep);

        let ctx = self.provider.prepare_query(query);
        let mut profile = QueryProfile::new();
        let hits = with_pooled::<P::NodePayload, _>(|scratch| {
            for layer in (1..=ep_level).rev() {
                cur = self.greedy_closest(&ctx, cur, layer, scratch, &mut profile);
            }
            scratch.visited.begin(self.nodes.len());
            self.search_layer(&ctx, cur, ef.max(k), 0, scratch, &mut profile);
            scratch
                .candidates
                .iter()
                .take(k)
                .map(|&(dist, id)| Hit {
                    id: u64::from(id),
                    dist,
                })
                .collect()
        });
        crate::scratch::profile_record(profile);
        hits
    }

    /// Freezes the adjacency into a read-only [`GraphLayers`]: the
    /// builder's nested per-node lists are packed into the cache-line
    /// aligned CSR layout in one pass.
    pub fn freeze(&self) -> GraphLayers {
        let ep = self.entry.read();
        let max_layer = ep.level;
        let n = self.nodes.len();
        let mut layers = vec![vec![Vec::new(); n]; max_layer + 1];
        for (i, node) in self.nodes.iter().enumerate() {
            let guard = node.lock();
            for (l, nbrs) in guard.neighbors.iter().enumerate() {
                if l <= max_layer {
                    layers[l][i] = nbrs.clone();
                }
            }
        }
        GraphLayers::from_nested(layers, ep.node, max_layer)
    }

    /// Ends construction: freezes the adjacency, keeps the provider, and
    /// drops the per-node lock records and payload blocks — the form every
    /// serving path holds.
    pub fn into_frozen(self) -> FrozenGraph<P> {
        let layers = self.freeze();
        FrozenGraph::new(self.provider, layers)
    }

    /// Size of the index under construction in bytes (Figure 7's metric):
    /// the provider's auxiliary state (codes and tables; the baseline's
    /// full-precision vectors), plus per row the neighbor ids it holds and
    /// the payload blocks covering them — `⌈len / 16⌉` blocks for Flash,
    /// nothing for an empty row.
    pub fn index_bytes(&self) -> usize {
        let mut total = self.provider.aux_bytes();
        self.for_each_row(|_, _, ids, _| {
            total += std::mem::size_of_val(ids) + self.provider.payload_bytes(ids.len());
        });
        total
    }

    /// Visits every `(node, layer)` row with its neighbor ids and payload,
    /// each under its node lock — for the payload-invariant tests.
    #[doc(hidden)]
    pub fn for_each_row(&self, mut f: impl FnMut(u32, usize, &[u32], &P::NodePayload)) {
        for (i, node) in self.nodes.iter().enumerate() {
            let guard = node.lock();
            for (l, (ids, payload)) in guard.neighbors.iter().zip(&guard.payloads).enumerate() {
                f(i as u32, l, ids, payload);
            }
        }
    }

    /// Consumes the index, returning the provider.
    pub fn into_provider(self) -> P {
        self.provider
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use vecstore::{ground_truth, VectorSet};

    fn grid_2d(side: usize) -> VectorSet {
        let mut s = VectorSet::new(2);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f32, j as f32]);
            }
        }
        s
    }

    fn build_grid(side: usize) -> Hnsw<FullPrecision> {
        let base = grid_2d(side);
        Hnsw::build(
            FullPrecision::new(base),
            HnswParams {
                c: 32,
                r: 8,
                seed: 7,
            },
        )
    }

    #[test]
    fn exact_on_tiny_grid() {
        let index = build_grid(10);
        let hits = index.search(&[3.1, 4.2], 1, 16);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 34, "expected grid point (3,4)");
    }

    #[test]
    fn recall_high_on_grid() {
        let index = build_grid(16); // 256 points
        let base = index.provider().base().clone();
        let mut queries = VectorSet::new(2);
        for i in 0..20 {
            queries.push(&[(i % 15) as f32 + 0.3, (i / 4) as f32 + 0.4]);
        }
        let gt = ground_truth(&base, &queries, 5);
        let mut hit = 0;
        let mut total = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found = index.search(queries.get(qi), 5, 48);
            let found_ids: Vec<u64> = found.iter().map(|r| r.id).collect();
            for t in truth {
                total += 1;
                if found_ids.contains(&u64::from(t.id)) {
                    hit += 1;
                }
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.95, "recall {recall}");
    }

    #[test]
    fn degrees_respect_caps() {
        let index = build_grid(12);
        let g = index.freeze();
        let r = index.params().r;
        for l in 0..g.num_layers() {
            let cap = if l == 0 { 2 * r } else { r };
            for nbrs in g.layer(l).rows() {
                assert!(nbrs.len() <= cap, "layer {l} degree {} > {cap}", nbrs.len());
            }
        }
    }

    #[test]
    fn no_self_edges_or_duplicates() {
        let index = build_grid(10);
        let g = index.freeze();
        for l in 0..g.num_layers() {
            for (i, nbrs) in g.layer(l).rows().enumerate() {
                assert!(!nbrs.contains(&(i as u32)), "self edge at {i}");
                let mut sorted = nbrs.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), nbrs.len(), "duplicate edge at {i}");
            }
        }
    }

    #[test]
    fn base_layer_connected() {
        let index = build_grid(10);
        let g = index.freeze();
        // BFS over layer 0 from the entry point.
        let n = g.len();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[g.entry as usize] = true;
        queue.push_back(g.entry);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(0, u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(count, n, "base layer must be fully reachable");
    }

    #[test]
    fn empty_index_searches_empty() {
        let index = Hnsw::build(FullPrecision::new(VectorSet::new(2)), HnswParams::default());
        assert!(index.search(&[0.0, 0.0], 3, 8).is_empty());
    }

    #[test]
    fn single_vector_index() {
        let mut s = VectorSet::new(2);
        s.push(&[1.0, 1.0]);
        let index = Hnsw::build(FullPrecision::new(s), HnswParams::default());
        let hits = index.search(&[0.0, 0.0], 1, 4);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn index_bytes_positive_and_scales() {
        let small = build_grid(6);
        let big = build_grid(12);
        assert!(small.index_bytes() > 0);
        assert!(big.index_bytes() > small.index_bytes());
    }

    #[test]
    fn search_results_sorted_ascending() {
        let index = build_grid(10);
        let hits = index.search(&[5.5, 5.5], 8, 32);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
}
