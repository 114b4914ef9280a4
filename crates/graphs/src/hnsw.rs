//! Generic HNSW construction and search (paper Algorithm 1).
//!
//! The builder is parameterized over a [`DistanceProvider`], so the same
//! construction loop yields HNSW, HNSW-PQ, HNSW-SQ, HNSW-PCA and HNSW-Flash
//! depending only on which provider is plugged in — mirroring how the paper
//! integrates each coding method into the hnswlib pipeline for a fair
//! comparison.
//!
//! Each vertex follows the standard recipe: its level is drawn up front from
//! an exponentially decaying distribution; its insert performs a greedy
//! descent through the upper layers followed by a beam search with `ef = C`
//! per layer (**Candidate Acquisition**), keeps at most `R` diverse
//! neighbors by the heuristic pruning rule (**Neighbor Selection**) and adds
//! reverse edges, pruning overflow with the same rule.
//!
//! The rows live at the paper's access-aware layout (Section 3.3.4), as
//! hnswlib keeps level 0: one slab allocated up front and indexed by node
//! id, every layer-0 row a fixed-stride record of its length, `2R` id slots
//! and the provider's payload block for `2R` lanes, so a hop reaches a row
//! and its block with one address computation; each node's upper rows
//! (`R` slots) are one record array of its own (`crate::slab`). No row
//! is a `Vec` of its own, and [`Hnsw::freeze`] packs the CSR straight from
//! the records.
//!
//! The descent and the beam are the crate's one pair of search loops,
//! [`crate::layers_search`]'s, which serving runs too. Here they read the
//! row records. Where the provider keeps payload blocks (Flash) they are
//! resident: an expansion scores its whole row against the block, then
//! checks the lanes against the visited set — at layer 0, the insert's last
//! beam, only the lanes a full beam can still admit — while the next
//! frontier node's record is prefetched. Where it keeps none (full
//! precision, PQ, SQ, PCA, OPQ) an expansion gathers the unvisited ids and
//! scores only those, as hnswlib does; serving gathers the same way.
//! [`Hnsw::search`] runs the same two loops at query time.
//!
//! [`Hnsw::build`] inserts batch-synchronously (ParlayANN, Manohar et al.,
//! PPoPP 2024): batches on a fixed schedule — one vertex per 16 already in
//! the graph, 1 to 256 (`BATCH_DIVISOR`, `MAX_BATCH`) — each in two phases.
//! The flat builders ([`crate::flat_build`]) run the same batches over one
//! layer, planning under their own [`PruneRule`] with base rows capped at
//! `R`; HNSW plans under [`MrngRule`] with base rows of `2R`.
//!
//! * **plan** (`&self`, on every core): every vertex of the batch runs its
//!   descent, CA and NS against the graph as it stood when the batch began,
//!   and returns its rows, their payload blocks and the distances to the
//!   neighbors it kept;
//! * **apply** (`&mut self`): the rows are installed, then the reverse edges
//!   are added target by target in the order one-at-a-time insertion
//!   generates them, targets split across workers by disjoint id ranges.
//!
//! Planning only reads and applying owns the index, so the borrow checker
//! keeps the phases apart and no row record needs a lock. The graph is a
//! function of (data, params, seed) at any thread count, and
//! [`Hnsw::insert`] is a batch of one: inserting every vertex one at a time
//! in build order reproduces sequential HNSW exactly
//! (`tests/build_identity.rs` pins both graphs).
//!
//! The builder never re-derives a payload it already has. Neighbor
//! Selection appends each kept vertex to a scratch block as it goes — the
//! block the provider answers [`DistanceProvider::dominated`] from — and
//! that block *is* the payload of the list it selected: it is copied into
//! the row record with the ids. A reverse edge that fits appends one lane
//! ([`DistanceProvider::append_payload`]) in the target's record; one that
//! overflows re-selects the row's ids and block in place. Everything a plan
//! or an apply job needs — visited set, [`crate::scratch`]'s beam,
//! candidate / selected / prune lists, the scratch block — comes from one
//! pooled per-thread [`SearchScratch`].

use crate::graph::{CsrLayer, GraphLayers};
use crate::layers_search::{beam_search, descend, FrozenGraph};
use crate::provider::{DistanceProvider, MrngRule, PruneRule};
use crate::scratch::{with_pooled, SearchScratch};
use crate::slab::{RowLayout, RowMut, Slab};
use crate::stats::BuildProfile;
use crate::Hit;
use metrics::QueryProfile;
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

/// [`Hnsw::build`]'s schedule: a batch holds one vertex per `BATCH_DIVISOR`
/// already in the graph. Vertices of one batch do not see each other, so a
/// batch stays a small slice of the graph it searches.
const BATCH_DIVISOR: usize = 16;

/// The largest batch [`Hnsw::build`] plans at once.
const MAX_BATCH: usize = 256;

/// Size of the next batch when `inserted` vertices are in the graph.
fn batch_len(inserted: usize) -> usize {
    (inserted / BATCH_DIVISOR).clamp(1, MAX_BATCH)
}

/// Id ranges an apply splits the nodes into, one job each.
const APPLY_RANGES: usize = 64;

#[derive(Clone, Copy, Default)]
struct EntryPoint {
    node: u32,
    level: usize,
}

/// A row an insert decided against the graph as its batch found it:
/// `(layer, kept, block)` — the neighbors Neighbor Selection kept, each
/// with its distance (the reverse edge to add), and the row's payload
/// block ([`DistanceProvider::payload_bytes`] of the kept count).
type PlannedRow = (usize, Vec<(f32, u32)>, Vec<u8>);

/// An insert's plan: its rows, and what deciding them counted.
type Plan = (Vec<PlannedRow>, BuildProfile);

/// The reverse edge `target → source`: `(target, source, layer, dist)`.
type ReverseEdge = (u32, u32, usize, f32);

/// An HNSW index under construction or ready for search.
pub struct Hnsw<P: DistanceProvider> {
    provider: P,
    params: HnswParams,
    levels: Vec<u8>,
    /// Every row record. Layer 0's rows hold up to `2R` ids, or `R` for a
    /// flat builder's one layer; upper rows `R`.
    slab: Slab,
    /// `None` until the first insert.
    entry: Option<EntryPoint>,
    /// What every batch so far counted.
    profile: BuildProfile,
}

impl<P: DistanceProvider> Hnsw<P> {
    /// Prepares an empty index over the provider's vectors: levels are
    /// sampled, row records allocated, nothing inserted yet.
    pub fn new(provider: P, params: HnswParams) -> Self {
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let ml = 1.0 / f64::ln((params.r.max(2)) as f64);
        let levels = (0..provider.len())
            .map(|_| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
            })
            .collect();
        Self::with_levels(provider, params, params.cap(0), levels)
    }

    /// An empty one-layer index for the flat builders: every vertex at
    /// level 0, candidate pools of `c`, rows of at most `r`.
    pub(crate) fn flat(provider: P, c: usize, r: usize) -> Self {
        let levels = vec![0; provider.len()];
        Self::with_levels(provider, HnswParams { c, r, seed: 0 }, r, levels)
    }

    fn with_levels(provider: P, params: HnswParams, base_cap: usize, levels: Vec<u8>) -> Self {
        assert!(params.r >= 1, "R must be at least 1");
        assert!(params.c >= params.r, "C must be at least R (paper: R <= C)");
        let row = |cap| RowLayout::new(cap, provider.payload_bytes(cap));
        let slab = Slab::new(&levels, row(base_cap), row(params.r));
        Self {
            provider,
            params,
            levels,
            slab,
            entry: None,
            profile: BuildProfile::default(),
        }
    }

    /// Builds the index over all provider vectors, batch by batch on every
    /// core. Build order: the highest-level vertex (the last of equals)
    /// first, then ids ascending.
    pub fn build(provider: P, params: HnswParams) -> Self {
        let mut index = Self::new(provider, params);
        let n = index.len() as u32;
        if let Some(top) = (0..n).max_by_key(|&i| index.levels[i as usize]) {
            index.insert_all(top, &MrngRule);
        }
        index
    }

    /// Inserts every vertex, `first` and then the rest by id ascending, in
    /// batches on [`Self::build`]'s schedule, selecting neighbors under
    /// `rule`.
    pub(crate) fn insert_all<R: PruneRule>(&mut self, first: u32, rule: &R) {
        let n = self.len() as u32;
        let order: Vec<u32> = std::iter::once(first)
            .chain((0..n).filter(|&i| i != first))
            .collect();
        let mut inserted = 0;
        while inserted < order.len() {
            let end = (inserted + batch_len(inserted)).min(order.len());
            self.insert_batch(&order[inserted..end], rule);
            inserted = end;
        }
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// What construction so far did, summed over every insert: the
    /// descents and CA beams of the plans, and the Neighbor Selection work
    /// of the plans and the reverse edges.
    pub fn build_profile(&self) -> &BuildProfile {
        &self.profile
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
    /// lines 2–8) as a batch of one, so a sequence of inserts is
    /// sequential HNSW. Every vector should be inserted exactly once.
    ///
    /// Known deviation from Algorithm 1, recorded rather than fixed: one
    /// visited epoch spans all of a vertex's layers (`begin` runs once per
    /// insert), so a vertex reached at layer `l + 1` is invisible to the
    /// layer-`l` beam of the same insert, where the paper searches each
    /// layer afresh. Beginning an epoch per layer changes every graph and
    /// every committed baseline, so it waits for a PR of its own (ROADMAP).
    pub fn insert(&mut self, id: u32) {
        self.insert_batch(&[id], &MrngRule);
    }

    /// Plans every vertex of `batch` in parallel against the graph as it
    /// stands, then applies the plans in batch order. Into an empty graph a
    /// vertex only becomes the entry point, so that batch holds one.
    fn insert_batch<R: PruneRule>(&mut self, batch: &[u32], rule: &R) {
        debug_assert!(self.entry.is_some() || batch.len() <= 1);
        let this = &*self;
        let plans: Vec<_> = batch
            .par_iter()
            .map(|&id| {
                this.entry
                    .map_or_else(Plan::default, |entry| this.plan(id, entry, rule))
            })
            .collect();
        self.apply(batch, plans);
    }

    /// Decides `id`'s rows against the graph as it stands, from `entry`:
    /// greedy descent through the layers above its level, then CA and NS
    /// under `rule` per layer, top-down. The plan's counts start from its
    /// one checkout.
    fn plan<R: PruneRule>(&self, id: u32, entry: EntryPoint, rule: &R) -> Plan {
        let level = self.level_of(id);
        let ctx = self.provider.prepare_insert(id);
        let (provider, slab) = (&self.provider, &self.slab);
        // Construction cost is not query cost: the scratch checkout is the
        // uncounted one, and the profile the search loops leave in it goes
        // to the plan, not to the thread's ledger.
        with_pooled(|scratch| {
            scratch.profile = QueryProfile {
                scratch_checkouts: 1,
                ..QueryProfile::new()
            };
            let mut counts = BuildProfile::default();
            let levels = (entry.level, level + 1);
            let mut cur = descend(provider, slab, &ctx, entry.node, levels, scratch);
            scratch.visited.begin(slab.len());
            let (mut rows, c) = (Vec::new(), self.params.c);
            for layer in (0..=level.min(entry.level)).rev() {
                beam_search(provider, slab, &ctx, cur, layer, c, |_| true, scratch);
                let SearchScratch {
                    beam,
                    candidates,
                    selected,
                    payload,
                    ..
                } = &mut *scratch;
                candidates.clear();
                candidates.extend(beam.drain_sorted());
                let Some(&(d, nearest)) = candidates.first() else {
                    continue;
                };
                cur = (nearest, d);
                let cap = slab.cap(layer);
                selected.resize(cap, 0);
                let block = payload.sized(provider.payload_bytes(cap));
                let len =
                    select_neighbors(provider, rule, candidates, selected, block, &mut counts);
                // The kept ids are a subsequence of `candidates`, so one
                // forward walk pairs each with its distance.
                let mut kept = selected[..len].iter().peekable();
                let kept = candidates
                    .iter()
                    .filter(|&&(_, y)| kept.next_if_eq(&&y).is_some())
                    .copied()
                    .collect();
                rows.push((layer, kept, block[..provider.payload_bytes(len)].to_vec()));
            }
            counts.search = scratch.profile;
            (rows, counts)
        })
    }

    /// Installs the plans of `batch` in batch order — rows, then the entry
    /// point if a vertex tops the hierarchy — and adds their reverse edges
    /// (line 7 of Algorithm 1): per target in the order one-at-a-time
    /// insertion generates them, targets split across workers by disjoint
    /// id ranges. Every plan's counts and every link's join the index's.
    fn apply(&mut self, batch: &[u32], plans: Vec<Plan>) {
        let mut edges: Vec<ReverseEdge> = Vec::new();
        for (&id, (rows, counts)) in batch.iter().zip(plans) {
            self.profile.add(&counts);
            for (layer, kept, block) in rows {
                edges.extend(kept.iter().map(|&(dist, y)| (y, id, layer, dist)));
                let mut row = (self.slab.row_mut(layer, id))
                    .expect("a vertex has a row at each layer up to its level");
                for (slot, &(_, y)) in row.slots.iter_mut().zip(&kept) {
                    *slot = y;
                }
                row.set_len(kept.len());
                row.block[..block.len()].copy_from_slice(&block);
            }
            let level = self.level_of(id);
            if self.entry.is_none_or(|entry| level > entry.level) {
                self.entry = Some(EntryPoint { node: id, level });
            }
        }
        // Stable: each target keeps its edges in generation order.
        edges.sort_by_key(|edge| edge.0);
        let span = self.len().div_ceil(APPLY_RANGES);
        let (provider, edges) = (&self.provider, &edges);
        let mut ranges = self.slab.ranges_mut(span);
        let linked: Vec<BuildProfile> = (ranges.par_iter_mut())
            .map(|range| {
                let first = range.first();
                let edges = &edges[edges.partition_point(|e| e.0 < first)..];
                let end = first + range.len() as u32;
                let edges = &edges[..edges.partition_point(|e| e.0 < end)];
                with_pooled(|scratch| {
                    let mut counts = BuildProfile::default();
                    for &edge in edges {
                        // `None`: the target has no row at this layer (a
                        // stale candidate).
                        if let Some(row) = range.row_mut(edge.2, edge.0) {
                            link(provider, row, edge, &mut scratch.prune, &mut counts);
                        }
                    }
                    counts
                })
            })
            .collect();
        for counts in &linked {
            self.profile.add(counts);
        }
    }

    /// k-NN search over the live graph (the paper's search procedure:
    /// greedy descent, then a base-layer beam search with `ef`, reporting
    /// provider distances) — the descent and beam `insert` runs, so it
    /// works while the index is still ingesting and finds the anchors of
    /// the flat builders' connectivity repair. Serving goes through
    /// [`Self::into_frozen`] and [`crate::search_layers`] instead.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Hit> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let ctx = self.provider.prepare_query(query);
        let (provider, slab) = (&self.provider, &self.slab);
        with_pooled(|scratch| {
            scratch.profile = QueryProfile::new();
            let cur = descend(provider, slab, &ctx, entry.node, (entry.level, 1), scratch);
            scratch.visited.begin(slab.len());
            beam_search(provider, slab, &ctx, cur, 0, ef.max(k), |_| true, scratch);
            crate::scratch::profile_record(scratch.profile);
            scratch.beam.drain_hits(k)
        })
    }

    /// Freezes the adjacency into a read-only [`GraphLayers`]: each layer's
    /// rows are packed from the row records straight into the cache-line
    /// aligned CSR layout.
    pub fn freeze(&self) -> GraphLayers {
        let entry = self.entry.unwrap_or_default();
        let layers = (0..=entry.level)
            .map(|l| CsrLayer::from_rows(self.len(), |node| self.slab.ids(l, node as u32)))
            .collect();
        GraphLayers::from_layers(layers, entry.node, entry.level)
    }

    /// Every node's neighbor row at `layer`, nested (empty where a node has
    /// none).
    pub(crate) fn rows(&self, layer: usize) -> Vec<Vec<u32>> {
        (0..self.len() as u32)
            .map(|node| self.slab.ids(layer, node).to_vec())
            .collect()
    }

    /// Ends construction: freezes the adjacency, keeps the provider, and
    /// drops the row records and their payload blocks — the form every
    /// serving path holds.
    pub fn into_frozen(self) -> FrozenGraph<P> {
        let layers = self.freeze();
        FrozenGraph::new(self.provider, layers)
    }

    /// Size of the index under construction in bytes (Figure 7's metric):
    /// the provider's auxiliary state (codes and tables; the baseline's
    /// full-precision vectors), plus per row the neighbor ids it holds and
    /// the payload blocks covering them — `⌈len / 16⌉` blocks for Flash,
    /// nothing for an empty row. This is the paper's per-row count, not the
    /// allocation: the slab gives every node room for `2R` ids and their
    /// blocks at layer 0, and `R` at each layer above.
    pub fn index_bytes(&self) -> usize {
        let mut total = self.provider.aux_bytes();
        self.for_each_row(|_, _, ids, _| {
            total += std::mem::size_of_val(ids) + self.provider.payload_bytes(ids.len());
        });
        total
    }

    /// Visits every `(node, layer)` row with its neighbor ids and its
    /// payload block, read from the row record (sized for the row's
    /// capacity, not its length) — for the payload-invariant tests, and
    /// the rows `repro` measures unit costs on.
    #[doc(hidden)]
    pub fn for_each_row(&self, mut f: impl FnMut(u32, usize, &[u32], &[u8])) {
        for node in 0..self.len() as u32 {
            for layer in 0..=self.level_of(node) {
                f(
                    node,
                    layer,
                    self.slab.ids(layer, node),
                    self.slab.block(layer, node),
                );
            }
        }
    }

    /// Consumes the index, returning the provider.
    pub fn into_provider(self) -> P {
        self.provider
    }
}

/// Neighbor Selection, the one routine every builder prunes with: walk
/// candidates in ascending distance; keep `v` unless `rule` finds it
/// dominated by some already-selected `u` (HNSW and NSG pass [`MrngRule`],
/// paper Section 2.2's rule: `u` is closer to `v` than `v` is to the vertex
/// being linked). Writes the kept ids to the front of `slots`, in candidate
/// order, at most `slots.len()` of them, and returns how many; `block`
/// becomes their payload, lane for lane — the block the provider answers
/// [`DistanceProvider::dominated`] from as it grows, sized for
/// `slots.len()` lanes. `counts` gains its `dominated` calls, the lanes
/// offered to them and its appends. Public only so that `repro` prices
/// Neighbor Selection by running this very routine.
#[doc(hidden)]
pub fn select_neighbors<P: DistanceProvider, R: PruneRule>(
    provider: &P,
    rule: &R,
    candidates: &[(f32, u32)],
    slots: &mut [u32],
    block: &mut [u8],
    counts: &mut BuildProfile,
) -> usize {
    // The first candidate is always kept, and its append at lane 0 is
    // what starts the block afresh.
    debug_assert!(!slots.is_empty());
    let mut len = 0;
    for &(d, v) in candidates {
        if len == slots.len() {
            break;
        }
        counts.dominated += 1;
        counts.dominated_lanes += len as u64;
        if !provider.dominated(rule, v, d, &slots[..len], block) {
            provider.append_payload(block, len, v);
            slots[len] = v;
            len += 1;
        }
    }
    counts.appended += len as u64;
    len
}

/// Adds the reverse edge `y → x` to `y`'s `row`, pruning with the same
/// heuristic if the row overflows its capacity: the re-selection writes
/// the kept ids and their block over the row's own. `prune` is scratch for
/// its input; `counts` gains the append or the re-prune.
fn link<P: DistanceProvider>(
    provider: &P,
    mut row: RowMut<'_>,
    (y, x, _, d_xy): ReverseEdge,
    prune: &mut Vec<(f32, u32)>,
    counts: &mut BuildProfile,
) {
    if row.ids().contains(&x) {
        return;
    }
    let len = row.len();
    if len < row.slots.len() {
        // One more lane; the rest of the block is already right.
        provider.append_payload(row.block, len, x);
        counts.appended += 1;
        row.slots[len] = x;
        row.set_len(len + 1);
        return;
    }
    // Re-run the selection heuristic over current neighbors + x, with
    // distances measured from y.
    prune.clear();
    prune.extend(
        row.ids()
            .iter()
            .map(|&nb| (provider.dist_between(y, nb), nb)),
    );
    counts.reprunes += 1;
    counts.reprune_rows += len as u64;
    prune.push((d_xy, x));
    prune.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let kept = select_neighbors(provider, &MrngRule, prune, row.slots, row.block, counts);
    row.set_len(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use std::sync::atomic::{AtomicU64, Ordering};
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

    /// [`FullPrecision`] counting its Candidate Acquisition evaluations
    /// (every `dist_to`, the default `dist_to_neighbors` loop included)
    /// and its Neighbor Selection distances.
    struct Counting {
        inner: FullPrecision,
        ca: AtomicU64,
        ns: AtomicU64,
    }

    impl DistanceProvider for Counting {
        type QueryCtx = Vec<f32>;

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn base(&self) -> &VectorSet {
            self.inner.base()
        }

        fn prepare_insert(&self, id: u32) -> Vec<f32> {
            self.inner.prepare_insert(id)
        }

        fn prepare_query(&self, v: &[f32]) -> Vec<f32> {
            self.inner.prepare_query(v)
        }

        fn dist_to(&self, ctx: &Vec<f32>, id: u32) -> f32 {
            self.ca.fetch_add(1, Ordering::Relaxed);
            self.inner.dist_to(ctx, id)
        }

        fn dist_between(&self, a: u32, b: u32) -> f32 {
            self.ns.fetch_add(1, Ordering::Relaxed);
            self.inner.dist_between(a, b)
        }
    }

    /// The CA work of a build without a payload: an expansion scores only
    /// the neighbors it has not visited, as hnswlib does. Scoring every lane
    /// of every expanded row instead made 1 096 997 evaluations of this
    /// build; Neighbor Selection's count does not depend on the row source.
    #[test]
    fn full_build_scores_only_unvisited_neighbors() {
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 1500, 1, 8);
        let provider = Counting {
            inner: FullPrecision::new(base),
            ca: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        };
        let params = HnswParams {
            c: 64,
            r: 8,
            seed: 3,
        };
        let index = Hnsw::build(provider, params);
        let counted = index.provider();
        let (ca, ns) = (
            counted.ca.load(Ordering::Relaxed),
            counted.ns.load(Ordering::Relaxed),
        );
        assert_eq!((ca, ns), (486_561, 311_357));
        // The build's own count of its CA lanes is the provider's.
        let search = index.build_profile().search;
        assert_eq!((search.dist_exact, search.dist_coded), (ca, 0));
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
