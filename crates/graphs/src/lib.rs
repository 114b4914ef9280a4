//! Graph-based ANNS algorithms with pluggable distance computation.
//!
//! Every graph method the paper touches — HNSW, NSG, τ-MG, and here also
//! Vamana — shares the same construction skeleton (Section 2.1.1):
//! **Candidate Acquisition** (CA, a greedy beam search collecting the
//! top-`C` candidates for each inserted vertex) followed by **Neighbor
//! Selection** (NS, a pruning heuristic that keeps at most `R` diverse
//! neighbors). NS is one routine for all of them, HNSW's; a method differs
//! only in the [`PruneRule`] it passes — [`MrngRule`] (HNSW, NSG),
//! [`TauRule`] (τ-MG), [`AlphaRule`] (Vamana). Distance computation inside
//! CA and NS is the 90 %+ cost the paper attacks, so this crate routes
//! *every* distance through the [`DistanceProvider`] trait:
//!
//! * [`providers::FullPrecision`] — the standard float path (baseline HNSW);
//! * [`providers::PqProvider`] — HNSW-PQ (ADC in CA, SDC in NS);
//! * [`providers::SqProvider`] — HNSW-SQ (integer codes);
//! * [`providers::PcaProvider`] — HNSW-PCA (projected vectors);
//! * `flash::FlashProvider` (in the `flash` crate) — the paper's method,
//!   which additionally overrides the *batched* CA and NS distance hooks
//!   ([`DistanceProvider::dist_to_neighbors`], [`DistanceProvider::dominated`])
//!   and maintains per-node codeword blocks through
//!   [`DistanceProvider::append_payload`].
//!
//! [`Hnsw`] is the one builder with a type of its own: it keeps growing
//! (streaming `insert`) until [`Hnsw::into_frozen`]. The flat builders —
//! [`nsg::build`], [`taumg::build`], [`vamana::build`] and [`hcnng::build`]
//! — run to the end and return a [`FrozenGraph`] over a one-layer
//! [`GraphLayers`], the form every serving path holds. NSG, τ-MG and Vamana
//! build through HNSW's own batch builder, every vertex on one layer, under
//! their own rule ([`flat_build`]); HCNNG is MST-based and has no CA or NS
//! stage.
//!
//! CA at insert time, [`Hnsw::search`] and serving run one greedy descent
//! and one beam ([`layers_search`]) over the builder's row records or a frozen
//! [`GraphLayers`]. Search-side optimizations evaluated in the paper's
//! Figure 13 live in [`adsampling`] and [`vbase`]; both operate on an
//! already-built [`GraphLayers`] and are orthogonal to the construction
//! path (VBase reuses the beam's descent and gather-and-score step).

pub mod adsampling;
pub mod filtered;
pub mod flat_build;
pub mod graph;
pub mod hcnng;
pub mod hnsw;
pub mod layers_search;
pub mod nsg;
pub mod persist;
pub mod provider;
pub mod providers;
pub mod scratch;
mod slab;
pub mod stats;
pub mod taumg;
pub mod vamana;
pub mod vbase;
mod visited;

pub use filtered::{LabeledHnsw, LabeledParams};
pub use graph::{CsrLayer, GraphLayers, LINE_U32S};
pub use hcnng::HcnngParams;
pub use hnsw::{Hnsw, HnswParams};
pub use layers_search::{
    search_layers, search_layers_cached, search_layers_filtered, search_layers_rerank, FrozenGraph,
    NodePayloads,
};
pub use metrics::QueryProfile;
pub use nsg::NsgParams;
pub use provider::{AlphaRule, Blocks, DistanceProvider, MrngRule, PruneRule, TauRule};
pub use scratch::{
    profile_record, profile_reset, profile_take, register_scratch_metrics, scratch_stats,
    scratch_stats_global, ScratchStats,
};
pub use taumg::TauMgParams;
pub use vamana::VamanaParams;

/// One search hit: a database vector id and its distance to the query.
///
/// This is the **single result type of the whole workspace**: every graph
/// search in this crate, the LSM maintenance layer, and the `engine`
/// serving API return it. Ids are `u64` so
/// externally-stable LSM ids and in-graph positional ids share one type;
/// in-graph ids always fit, since graphs address vertices with `u32`.
///
/// Every search path returns hits sorted ascending by `(dist, id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Database vector id (graph-positional, or the stable external id for
    /// LSM searches).
    pub id: u64,
    /// Distance reported by the search path (squared L2; approximate for
    /// compressed providers unless reranked).
    pub dist: f32,
}

/// The order every search path returns hits in: ascending `dist`, ties by
/// `id`.
pub fn by_dist_then_id(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// The `k` first of `hits` under [`by_dist_then_id`], sorted: the `k` best
/// are selected first, so only they are sorted. Two hits the order ties
/// are equal bit for bit, so this is exactly the full sort's prefix.
pub fn k_best(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    if hits.len() > k {
        hits.select_nth_unstable_by(k, by_dist_then_id);
        hits.truncate(k);
    }
    hits.sort_unstable_by(by_dist_then_id);
    hits
}

/// Exact rerank shared by every search path in the workspace: rescore
/// `pool` with full-precision squared-L2 distances against `base`, sort
/// ascending by `(dist, id)`, and keep the best `k` ([`nearest_exact`]).
/// Centralized here so the frozen-topology serving path, the `engine`
/// crate and callers reranking a live [`Hnsw::search`] pool all share one
/// formula. The profile counts every pool entry as one exact evaluation
/// begun, whether or not the bound cut it short.
pub fn rerank_exact(
    base: &vecstore::VectorSet,
    query: &[f32],
    pool: Vec<Hit>,
    k: usize,
) -> Vec<Hit> {
    scratch::profile_record(QueryProfile {
        dist_exact: pool.len() as u64,
        rerank_pool: pool.len() as u64,
        ..QueryProfile::new()
    });
    let candidates = pool.iter().map(|h| (h.id, base.get(h.id as usize)));
    nearest_exact(query, candidates, k)
}

/// The `k` best of `candidates` — `(id, vector)` pairs — by exact squared
/// L2 to `query`, sorted ascending by `(dist, id)`: the first `k` of the
/// fully scored and sorted list, ties and repeated ids included.
///
/// Candidates are scored in the order given. Once `k` are kept, each is
/// bounded by the `k`-th best distance so far ([`simdops::l2_sq_bounded`]),
/// and one the kernel abandons is dropped: its distance exceeds `k` others,
/// so it could not have made the cut. Candidates sorted roughly best first
/// (a beam's pool) set a tight bound early.
pub fn nearest_exact<'a>(
    query: &[f32],
    candidates: impl IntoIterator<Item = (u64, &'a [f32])>,
    k: usize,
) -> Vec<Hit> {
    let candidates = candidates.into_iter();
    // `k` comes from the request; the list never outgrows the candidates.
    let mut best: Vec<Hit> = Vec::with_capacity(k.min(candidates.size_hint().0) + 1);
    if k == 0 {
        return best;
    }
    for (id, v) in candidates {
        // Until `k` are kept there is no bound, so the plain kernel runs.
        let dist = match best.get(k - 1) {
            None => simdops::l2_sq(query, v),
            Some(kth) => match simdops::l2_sq_bounded(query, v, kth.dist) {
                Some(dist) => dist,
                None => continue,
            },
        };
        let hit = Hit { id, dist };
        let at = best.partition_point(|b| by_dist_then_id(b, &hit).is_le());
        if at < k {
            best.insert(at, hit);
            best.truncate(k);
        }
    }
    best
}

/// `f32` wrapper with a total order (via `f32::total_cmp`) so distances can
/// live in heaps. NaNs sort greatest; construction never produces them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF32(pub f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rerank_exact` before the bound: score the whole pool, sort, cut.
    fn rerank_unbounded(
        base: &vecstore::VectorSet,
        query: &[f32],
        pool: Vec<Hit>,
        k: usize,
    ) -> Vec<Hit> {
        let mut exact: Vec<Hit> = pool
            .into_iter()
            .map(|h| Hit {
                id: h.id,
                dist: simdops::l2_sq(query, base.get(h.id as usize)),
            })
            .collect();
        exact.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        exact.truncate(k);
        exact
    }

    /// The bounded rerank keeps the unbounded one's ids and distance bits:
    /// pools in beam order, reversed (the larger id of each tie first) and
    /// shuffled, with repeated ids and exact ties (identical vectors),
    /// shorter than `k`, and `k = 0`. Vectors are 256-d, so the kernel
    /// checks its bound mid-vector. In the second set their last 128 floats
    /// are zero, so that check sees the whole distance, and a tie with the
    /// `k`-th best must still reach the list.
    #[test]
    fn bounded_rerank_equals_the_unbounded_reference() {
        let (raw, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 150, 4, 5);
        let bits = |hits: &[Hit]| -> Vec<(u64, u32)> {
            hits.iter().map(|h| (h.id, h.dist.to_bits())).collect()
        };
        for zero_tail in [false, true] {
            let row = |v: &[f32]| {
                let mut v = v.to_vec();
                if zero_tail {
                    v[128..].fill(0.0);
                }
                v
            };
            // Row 150 + i repeats row i: every distance ties under two ids.
            let mut base = vecstore::VectorSet::with_capacity(raw.dim(), 300);
            for v in raw.iter().chain(raw.iter()) {
                base.push(&row(v));
            }
            for q in queries.iter() {
                let q = &row(q)[..];
                let mut by_dist: Vec<Hit> = (0..base.len() as u64)
                    .map(|id| Hit {
                        id,
                        dist: simdops::l2_sq(q, base.get(id as usize)),
                    })
                    .collect();
                by_dist.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
                let beam_order: Vec<Hit> = by_dist[..80].to_vec();
                let shuffled: Vec<Hit> = (0..97u64)
                    .map(|i| by_dist[(i * 37 % 97) as usize])
                    .collect();
                let repeated: Vec<Hit> = (0..60u64)
                    .map(|i| Hit {
                        id: i % 7 + 146,
                        dist: 0.0,
                    })
                    .collect();
                let reversed: Vec<Hit> = beam_order.iter().rev().copied().collect();
                for pool in [beam_order, shuffled, repeated, reversed] {
                    for k in [0usize, 1, 3, 10, 79, 80, 200] {
                        let want = rerank_unbounded(&base, q, pool.clone(), k);
                        let got = rerank_exact(&base, q, pool.clone(), k);
                        let at = format!("zero tail {zero_tail} k {k} pool {}", pool.len());
                        assert_eq!(bits(&got), bits(&want), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn ordf32_orders_like_floats() {
        let mut v = vec![OrdF32(3.0), OrdF32(-1.0), OrdF32(0.5)];
        v.sort();
        assert_eq!(v, vec![OrdF32(-1.0), OrdF32(0.5), OrdF32(3.0)]);
    }

    #[test]
    fn ordf32_handles_infinities() {
        assert!(OrdF32(f32::NEG_INFINITY) < OrdF32(0.0));
        assert!(OrdF32(f32::INFINITY) > OrdF32(1e30));
    }
}
