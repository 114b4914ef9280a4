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
//! neighbor lists; the provider's node payloads (e.g. Flash codeword
//! blocks) are kept in sync under the same lock.

use crate::graph::GraphLayers;
use crate::layers_search::FrozenGraph;
use crate::provider::DistanceProvider;
use crate::visited::{VisitedList, VisitedPool};
use crate::{Hit, OrdF32};
use metrics::QueryProfile;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    visited: VisitedPool,
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
            visited: VisitedPool::new(n),
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

        // Greedy descent through layers above this vertex's level.
        // Construction cost is not query cost: the profile is discarded.
        let mut discard = QueryProfile::new();
        let mut layer = ep_level;
        while layer > level {
            cur = self.greedy_closest(&ctx, cur, layer, &mut discard);
            layer -= 1;
        }

        // CA + NS per layer, top-down.
        let mut visited = self.visited.take();
        for l in (0..=level.min(ep_level)).rev() {
            let candidates =
                self.search_layer(&ctx, cur, self.params.c, l, &mut visited, &mut discard);
            if candidates.is_empty() {
                continue;
            }
            cur = candidates[0].1;
            let selected = self.select_neighbors(&candidates, self.params.cap(l));

            // Install this vertex's neighbor list.
            {
                let mut node = self.nodes[id as usize].lock();
                node.neighbors[l] = selected.clone();
                let NodeData {
                    neighbors,
                    payloads,
                } = &mut *node;
                self.provider.sync_payload(&mut payloads[l], &neighbors[l]);
            }
            // Reverse edges (line 7 of Algorithm 1).
            for &(d, y) in candidates.iter().filter(|&&(_, y)| selected.contains(&y)) {
                self.link(y, id, d, l);
            }
        }
        self.visited.put(visited);

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
        profile: &mut QueryProfile,
    ) -> u32 {
        let cf = self.provider.coded() as u64;
        let mut cur = start;
        let mut cur_d = self.provider.dist_to(ctx, cur);
        profile.dist_coded += cf;
        profile.dist_exact += 1 - cf;
        let mut ids = Vec::new();
        let mut dists = Vec::new();
        loop {
            self.neighbor_dists(ctx, cur, layer, &mut ids, &mut dists, profile);
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

    /// Beam search at one layer (the Candidate Acquisition stage): returns
    /// up to `ef` nearest vertices, ascending by distance.
    fn search_layer(
        &self,
        ctx: &P::QueryCtx,
        entry: u32,
        ef: usize,
        layer: usize,
        visited: &mut VisitedList,
        profile: &mut QueryProfile,
    ) -> Vec<(f32, u32)> {
        let cf = self.provider.coded() as u64;
        let d0 = self.provider.dist_to(ctx, entry);
        profile.dist_coded += cf;
        profile.dist_exact += 1 - cf;
        visited.check_and_mark(entry);
        profile.visited_inserts += 1;

        // `top` is a max-heap of the best `ef` (farthest on top);
        // `frontier` a min-heap of vertices to expand.
        let mut top: BinaryHeap<(OrdF32, u32)> = BinaryHeap::with_capacity(ef + 1);
        let mut frontier: BinaryHeap<(Reverse<OrdF32>, u32)> = BinaryHeap::new();
        top.push((OrdF32(d0), entry));
        frontier.push((Reverse(OrdF32(d0)), entry));

        let mut ids = Vec::new();
        let mut dists = Vec::new();
        while let Some((Reverse(OrdF32(d)), u)) = frontier.pop() {
            let worst = top.peek().map(|&(OrdF32(w), _)| w).unwrap_or(f32::INFINITY);
            if d > worst && top.len() >= ef {
                break;
            }
            self.neighbor_dists(ctx, u, layer, &mut ids, &mut dists, profile);
            profile.hops_base += 1;
            for (&id, &nd) in ids.iter().zip(dists.iter()) {
                if visited.check_and_mark(id) {
                    continue;
                }
                profile.visited_inserts += 1;
                let worst = top.peek().map(|&(OrdF32(w), _)| w).unwrap_or(f32::INFINITY);
                // `<=` rather than `<`: quantized providers produce integer
                // distances with heavy ties, and rejecting boundary ties
                // strands true neighbors outside the beam.
                if top.len() < ef || nd <= worst {
                    top.push((OrdF32(nd), id));
                    if top.len() > ef {
                        top.pop();
                    }
                    frontier.push((Reverse(OrdF32(nd)), id));
                }
            }
        }

        let mut out: Vec<(f32, u32)> = top.into_iter().map(|(OrdF32(d), id)| (d, id)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The heuristic Neighbor Selection rule: walk candidates in ascending
    /// distance; keep `v` unless some already-selected `u` is closer to `v`
    /// than `v` is to the inserted vector (paper Section 2.2's MRNG-style
    /// rule).
    fn select_neighbors(&self, candidates: &[(f32, u32)], r: usize) -> Vec<u32> {
        let mut selected: Vec<(f32, u32)> = Vec::with_capacity(r);
        for &(d, v) in candidates {
            if selected.len() >= r {
                break;
            }
            let dominated = selected
                .iter()
                .any(|&(_, u)| self.provider.dist_between(u, v) < d);
            if !dominated {
                selected.push((d, v));
            }
        }
        selected.into_iter().map(|(_, v)| v).collect()
    }

    /// Adds the reverse edge `y → x`, pruning with the same heuristic if
    /// `y`'s list overflows its capacity.
    fn link(&self, y: u32, x: u32, d_xy: f32, layer: usize) {
        let cap = self.params.cap(layer);
        let mut node = self.nodes[y as usize].lock();
        if layer >= node.neighbors.len() {
            return; // y does not exist at this layer (stale candidate)
        }
        if node.neighbors[layer].contains(&x) {
            return;
        }
        if node.neighbors[layer].len() < cap {
            node.neighbors[layer].push(x);
        } else {
            // Re-run the selection heuristic over current neighbors + x,
            // with distances measured from y.
            let mut cands: Vec<(f32, u32)> = node.neighbors[layer]
                .iter()
                .map(|&nb| (self.provider.dist_between(y, nb), nb))
                .collect();
            cands.push((d_xy, x));
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            node.neighbors[layer] = self.select_neighbors(&cands, cap);
        }
        let NodeData {
            neighbors,
            payloads,
        } = &mut *node;
        self.provider
            .sync_payload(&mut payloads[layer], &neighbors[layer]);
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
        for layer in (1..=ep_level).rev() {
            cur = self.greedy_closest(&ctx, cur, layer, &mut profile);
        }
        let mut visited = self.visited.take();
        let found = self.search_layer(&ctx, cur, ef.max(k), 0, &mut visited, &mut profile);
        self.visited.put(visited);
        crate::scratch::profile_record(profile);
        found
            .into_iter()
            .take(k)
            .map(|(dist, id)| Hit {
                id: u64::from(id),
                dist,
            })
            .collect()
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

    /// Total index size in bytes: adjacency ids + provider auxiliary state +
    /// node payloads (Figure 7's metric; the baseline additionally counts
    /// its full-precision vectors via the provider's `aux_bytes`).
    pub fn index_bytes(&self) -> usize {
        let mut total = self.provider.aux_bytes();
        for node in &self.nodes {
            let guard = node.lock();
            for (l, nbrs) in guard.neighbors.iter().enumerate() {
                total += nbrs.len() * std::mem::size_of::<u32>();
                let _ = l;
            }
            for (l, _) in guard.payloads.iter().enumerate() {
                total += self.provider.payload_bytes(self.params.cap(l));
            }
        }
        total
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
