//! The distance-computation abstraction shared by all graph builders, and
//! the Neighbor Selection rules it applies.

use vecstore::VectorSet;

/// A payload block a caller owns: what [`DistanceProvider::sync_payload`]
/// fills, the block Neighbor Selection builds, the frozen descent's block of
/// the upper-layer row it scores. Every block a provider reads or writes is
/// a byte slice in the same layout whoever holds it — one of these, a row
/// record of [`crate::Hnsw`]'s slab, or a row of [`crate::NodePayloads`].
#[derive(Debug, Default, Clone)]
pub struct Blocks {
    pub(crate) bytes: Vec<u8>,
}

impl Blocks {
    /// The block's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Sized to `len` bytes, every byte of the result writable as a block.
    pub(crate) fn sized(&mut self, len: usize) -> &mut [u8] {
        self.bytes.resize(len, 0);
        &mut self.bytes
    }
}

/// Supplies every distance the CA and NS stages need, plus the hooks that
/// let a codec co-locate per-node data with the adjacency lists (the heart
/// of Flash's access-aware layout, Section 3.3.4 of the paper).
///
/// **Payload blocks.** A provider may keep a block of bytes beside each
/// neighbor list, [`Self::payload_bytes`] of them for a list of a given
/// capacity (Flash: the neighbors' codewords; every other provider keeps
/// none, 0 bytes). The block is always a byte slice, so one layout serves
/// the builder's fixed-stride row records, Neighbor Selection's scratch
/// block, the frozen descent and [`crate::NodePayloads`].
///
/// **The lane invariant.** A block mirrors one neighbor list: lane `j`
/// holds whatever the provider keeps for `ids[j]`, and nothing else in the
/// block depends on the list. Two functions write blocks and both keep it:
/// [`Self::sync_payload`] rebuilds every lane from a list and
/// [`Self::append_payload`] writes one lane at the list's end; a block may
/// also be copied whole with its list. The HNSW builder uses only the last
/// two — it never re-derives a lane it already has.
///
/// Construction shares one provider across the pool: a batch of inserts
/// plans on every core at once, each insert holding its own
/// [`Self::QueryCtx`], so every method must be cheap to call concurrently.
pub trait DistanceProvider: Sync + Send {
    /// Per-insert / per-query scratch state. For PQ and Flash this is the
    /// asymmetric distance table of the inserted vector; for the
    /// full-precision path it is just the query vector itself.
    type QueryCtx: Send;

    /// Number of database vectors.
    fn len(&self) -> usize;

    /// Whether the provider holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw vectors (used for reranking, medoid computation, and the
    /// final recall evaluation — never inside the CA/NS hot loops).
    fn base(&self) -> &VectorSet;

    /// Builds the scratch state for inserting database vector `id`.
    fn prepare_insert(&self, id: u32) -> Self::QueryCtx;

    /// Builds the scratch state for an external query vector.
    fn prepare_query(&self, v: &[f32]) -> Self::QueryCtx;

    /// CA-stage distance from the prepared vector to database vector `id`.
    fn dist_to(&self, ctx: &Self::QueryCtx, id: u32) -> f32;

    /// NS-stage distance between two database vectors.
    fn dist_between(&self, a: u32, b: u32) -> f32;

    /// Batched CA-stage distances from the prepared vector to all of `ids`
    /// (a visited vertex's neighbor list). `block` is either the block of
    /// that list (the lane invariant; it may hold lanes past `ids.len()`,
    /// which are ignored) or covers only some leading blocks of it, or none
    /// (`&[]`, what the beam passes for the unvisited ids it gathers): the
    /// provider then reads each uncovered id from its global state, at the
    /// cost of [`Self::code_row_bytes`] per id. Either way the distances
    /// equal [`Self::dist_to`]'s, bit for bit.
    ///
    /// The default implementation loops over [`Self::dist_to`] — one random
    /// memory access per neighbor, exactly the baseline behaviour the paper
    /// profiles. Flash overrides this with register-resident table lookups
    /// on a covering block, and lookups straight on its packed code rows
    /// otherwise.
    fn dist_to_neighbors(
        &self,
        ctx: &Self::QueryCtx,
        ids: &[u32],
        _block: &[u8],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(ids.iter().map(|&id| self.dist_to(ctx, id)));
    }

    /// Rebuilds `blocks` from scratch for the list `ids`: sized to
    /// [`Self::payload_bytes`]`(ids.len())`, every lane appended from the
    /// provider's global state. [`crate::NodePayloads::build`] runs it once
    /// per node, and the frozen descent once per upper-layer row it scores
    /// (a frozen topology stores adjacency only). The serving beam builds no
    /// block: it scores the ids it gathers against none.
    fn sync_payload(&self, blocks: &mut Blocks, ids: &[u32]) {
        let block = blocks.sized(self.payload_bytes(ids.len()));
        for (lane, &id) in ids.iter().enumerate() {
            self.append_payload(block, lane, id);
        }
    }

    /// Writes `id` into lane `lane` of `block`, where `lane` is the length
    /// of the list before `id` joins it and `block` holds at least
    /// [`Self::payload_bytes`]`(lane + 1)` bytes. Lane 0 starts a new list:
    /// the bytes of lanes past the list's end are whatever they were, and
    /// no reader looks at them.
    /// Construction calls this on the target's row record for a reverse
    /// edge, and on its scratch block as Neighbor Selection keeps each
    /// vertex.
    fn append_payload(&self, _block: &mut [u8], _lane: usize, _id: u32) {}

    /// The one question Neighbor Selection asks: does `rule` prune the
    /// candidate `v`, at distance `d` from the vertex being linked, against
    /// some vertex `u` of `selected` — `rule.dominated(d, dist_between(u, v))`
    /// for any `u`? `block` holds `selected` lane for lane (built by
    /// [`Self::append_payload`]), so a provider whose NS distance is a
    /// table lookup can answer from the block in batches (Flash: one SIMD
    /// lookup per 16 selected vertices, the rule applied to each lane).
    /// For every rule, an override must give the default's answer, which
    /// ignores the block.
    fn dominated<R: PruneRule>(
        &self,
        rule: &R,
        v: u32,
        d: f32,
        selected: &[u32],
        _block: &[u8],
    ) -> bool {
        selected
            .iter()
            .any(|&u| rule.dominated(d, self.dist_between(u, v)))
    }

    /// Hint that the distance data of `id` (codes, or the raw vector) will
    /// be needed shortly. Search kernels call this for the *next* frontier
    /// candidate while the current candidate's block is being scored, so
    /// the lines are in flight before the beam gets there. Purely advisory;
    /// the default does nothing.
    #[inline]
    fn prefetch(&self, _id: u32) {}

    /// Whether this provider's CA-stage distances are computed against
    /// compressed codes (`true` for PQ/OPQ/SQ/PCA/Flash) rather than
    /// full-precision vectors. Purely observational: query-cost profiles
    /// use it to split distance evaluations coded-vs-exact. Constant per
    /// provider, so kernels hoist it out of their loops.
    fn coded(&self) -> bool {
        false
    }

    /// Bytes of compressed per-vector state this provider stores globally
    /// (codes, tables) — for index-size accounting. Excludes payload blocks,
    /// which the graph accounts separately.
    fn aux_bytes(&self) -> usize {
        0
    }

    /// Bytes of the payload block of a neighbor list of capacity `cap`
    /// (0: the provider keeps no blocks). Sizes every block the builder
    /// holds, and the index-size accounting of Figure 7.
    fn payload_bytes(&self, _cap: usize) -> usize {
        0
    }

    /// Bytes of the global code row [`Self::dist_to`] reads for one vector:
    /// what scoring an id against a block that does not cover it reads.
    /// The query profile's `codeword_bytes` counts it for every gathered
    /// id, as it counts [`Self::payload_bytes`] for every block scored; the
    /// default 0 keeps a provider out of that counter, as its default
    /// payload size does.
    fn code_row_bytes(&self) -> usize {
        0
    }
}

/// A Neighbor Selection rule: given a candidate's distance to the vertex
/// being linked (`d_xv`) and its distance to an already-selected neighbor
/// (`d_uv`), decide whether the candidate is *dominated* (pruned). Every
/// builder selects neighbors with one routine and differs only in the rule
/// it passes; [`DistanceProvider::dominated`] applies it.
pub trait PruneRule: Sync {
    /// Returns `true` if the candidate should be pruned.
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool;
}

/// MRNG rule (HNSW, NSG): prune `v` when some selected `u` satisfies
/// `δ(u,v) < δ(x,v)`.
pub struct MrngRule;

impl PruneRule for MrngRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        d_uv < d_xv
    }
}

/// τ-MG rule: prune `v` only when `δ(u,v) < δ(x,v) − 3τ` (distances, not
/// squares), retaining extra edges that guarantee τ-monotonic search paths.
/// We adapt the rule to squared-distance bookkeeping by comparing square
/// roots, which is exact.
pub struct TauRule {
    /// The monotonicity slack τ (in distance units).
    pub tau: f32,
}

impl PruneRule for TauRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        let margin = d_xv.max(0.0).sqrt() - 3.0 * self.tau;
        margin > 0.0 && d_uv.max(0.0).sqrt() < margin
    }
}

/// Vamana's α-RNG rule (DiskANN): prune `v` when some selected `u`
/// satisfies `α · δ(u,v) ≤ δ(x,v)`. With squared-distance bookkeeping this
/// is `α² · d_uv ≤ d_xv`. `α = 1` coincides with [`MrngRule`] (up to the
/// boundary case); `α > 1` keeps longer "highway" edges that shorten
/// search paths at the cost of degree.
pub struct AlphaRule {
    /// α² — the rule compares squared distances, so the slack is squared
    /// once at construction time.
    pub alpha_sq: f32,
}

impl AlphaRule {
    /// Builds the rule from the DiskANN-style α (distance units, `α ≥ 1`).
    pub fn new(alpha: f32) -> Self {
        assert!(alpha >= 1.0, "Vamana requires α ≥ 1, got {alpha}");
        Self {
            alpha_sq: alpha * alpha,
        }
    }
}

impl PruneRule for AlphaRule {
    #[inline]
    fn dominated(&self, d_xv: f32, d_uv: f32) -> bool {
        self.alpha_sq * d_uv <= d_xv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mrng_rule_is_strict_domination() {
        let r = MrngRule;
        assert!(r.dominated(1.0, 0.5));
        assert!(!r.dominated(1.0, 1.5));
        assert!(!r.dominated(1.0, 1.0));
    }

    #[test]
    fn tau_rule_keeps_more_edges_than_mrng() {
        let mrng = MrngRule;
        let tau = TauRule { tau: 0.5 };
        // A candidate MRNG would prune (d_uv < d_xv) survives with slack.
        let d_xv = 4.0; // distance 2.0
        let d_uv = 3.0; // distance ~1.73 < 2.0 → MRNG prunes
        assert!(mrng.dominated(d_xv, d_uv));
        assert!(!tau.dominated(d_xv, d_uv), "slack 3τ = 1.5 must retain it");
    }

    #[test]
    fn tau_rule_still_prunes_far_dominated_edges() {
        let tau = TauRule { tau: 0.1 };
        // d_xv = 100 (dist 10), d_uv = 1 (dist 1) → 1 < 10 - 0.3 → pruned.
        assert!(tau.dominated(100.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn alpha_below_one_rejected() {
        let _ = AlphaRule::new(0.9);
    }
}
