//! The distance-computation abstraction shared by all graph builders.

use vecstore::VectorSet;

/// Supplies every distance the CA and NS stages need, plus the hooks that
/// let a codec co-locate per-node data with the adjacency lists (the heart
/// of Flash's access-aware layout, Section 3.3.4 of the paper).
///
/// **The lane invariant.** A payload mirrors one neighbor list: lane `j`
/// holds whatever the provider keeps for `ids[j]`, and nothing else in the
/// payload depends on the list. Three functions write payloads and all
/// keep it: [`Self::sync_payload`] rebuilds every lane from a list,
/// [`Self::append_payload`] writes one lane at the list's end, and a
/// whole payload may be moved from one owner to another with its list.
/// The HNSW builder uses only the last two — it never re-derives a lane
/// it already has.
///
/// Implementations must be cheap to call concurrently: construction inserts
/// vertices from many threads, each holding its own [`Self::QueryCtx`].
pub trait DistanceProvider: Sync + Send {
    /// Per-insert / per-query scratch state. For PQ and Flash this is the
    /// asymmetric distance table of the inserted vector; for the
    /// full-precision path it is just the query vector itself.
    type QueryCtx: Send;

    /// Per-node data stored *inside* the graph's node records, mutated under
    /// the node's lock. Flash keeps its subspace-major neighbor codeword
    /// blocks here; baseline providers use `()`. `'static` because search
    /// kernels pool payload-typed scratch state in thread-local storage
    /// keyed by `TypeId` (see [`crate::scratch`]).
    type NodePayload: Send + Sync + Default + 'static;

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
    /// (a visited vertex's neighbor list). `payload` is the visited vertex's
    /// node payload, whose layout mirrors `ids` (the lane invariant).
    ///
    /// The default implementation loops over [`Self::dist_to`] — one random
    /// memory access per neighbor, exactly the baseline behaviour the paper
    /// profiles. Flash overrides this with register-resident table lookups.
    fn dist_to_neighbors(
        &self,
        ctx: &Self::QueryCtx,
        ids: &[u32],
        _payload: &Self::NodePayload,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(ids.iter().map(|&id| self.dist_to(ctx, id)));
    }

    /// Rebuilds `payload` from scratch for the list `ids` — every lane
    /// gathered from the provider's global state. This is the serving-side
    /// gather (a frozen topology stores adjacency only, so each expansion
    /// builds the block of the ids it is about to score) and what
    /// [`crate::NodePayloads::build`] runs once per node.
    fn sync_payload(&self, _payload: &mut Self::NodePayload, _ids: &[u32]) {}

    /// Writes `id` into lane `lane` of `payload`, where `lane` is the
    /// length of the list before `id` joins it. Lane 0 starts a new list:
    /// whatever the payload held before is discarded. Construction calls
    /// this under the owning node's lock for a reverse edge, and on its
    /// scratch block as Neighbor Selection keeps each vertex.
    fn append_payload(&self, _payload: &mut Self::NodePayload, _lane: usize, _id: u32) {}

    /// The one question Neighbor Selection asks: is some vertex of
    /// `selected` closer to `v` than `d`? `payload` holds `selected` lane
    /// for lane (built by [`Self::append_payload`]), so a provider whose
    /// NS distance is a table lookup can answer from the block in batches
    /// (Flash: one SIMD lookup per 16 selected vertices). Must equal the
    /// default, which ignores the payload.
    fn dominated(&self, v: u32, d: f32, selected: &[u32], _payload: &Self::NodePayload) -> bool {
        selected.iter().any(|&u| self.dist_between(u, v) < d)
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
    /// (codes, tables) — for index-size accounting. Excludes node payloads,
    /// which the graph accounts separately.
    fn aux_bytes(&self) -> usize {
        0
    }

    /// Bytes one node payload occupies for a neighbor list of capacity
    /// `cap`. Used for index-size accounting (Figure 7).
    fn payload_bytes(&self, _cap: usize) -> usize {
        0
    }
}
