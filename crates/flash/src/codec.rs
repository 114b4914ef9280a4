//! The Flash codec: PCA → subspace codebooks → shared-grid quantized
//! distance tables (paper Sections 3.3.2 and 3.3.3).

use quantizers::{train_subspaces, PcaCodec, Span};
use simdops::{dist16, dist16_rows, LUT_BATCH};
use std::cell::RefCell;
use vecstore::VectorSet;

mod bytes;

/// Number of centroids per subspace. Fixed at 16 so one ADT (16 × 8-bit
/// quantized distances) fills exactly one 128-bit register and codewords
/// are 4 bits (`L_F = 4`).
pub const K: usize = LUT_BATCH;

/// Bits per quantized distance-table entry (`H` in the paper). Fixed at 8:
/// with `K = 16` one subspace's ADT is `16 × 8 = 128` bits.
pub const H_BITS: u32 = 8;

/// Flash hyper-parameters (paper Section 3.3.6).
#[derive(Debug, Clone, Copy)]
pub struct FlashParams {
    /// Dimensionality of retained principal components (`d_F`).
    pub d_f: usize,
    /// Number of subspaces (`M_F`).
    pub m_f: usize,
    /// Training-sample size for PCA and the codebooks.
    pub train_sample: usize,
    /// Lloyd iterations per codebook.
    pub kmeans_iters: usize,
    /// RNG seed for codebook initialization.
    pub seed: u64,
    /// Quantile of the per-subspace partial-distance distribution that maps
    /// to the top of the 8-bit grid. `1.0` reproduces the paper's literal
    /// `dist_max`; values below 1 trade resolution in the (irrelevant) far
    /// tail — which clamps to 255 — for resolution in the near band where
    /// the CA/NS comparisons actually happen.
    pub grid_quantile: f64,
}

impl FlashParams {
    /// Sensible defaults mirroring the paper's tuned settings
    /// (`d_F = 64`, `M_F = 16` on their embedding datasets), clamped for
    /// small input dimensionalities.
    pub fn auto(dim: usize) -> Self {
        let d_f = dim.min(64);
        let m_f = d_f.min(16);
        Self {
            d_f,
            m_f,
            train_sample: 10_000,
            kmeans_iters: 12,
            seed: 0xF1A5,
            grid_quantile: 0.5,
        }
    }

    /// Overrides `d_F`.
    pub fn with_d_f(mut self, d_f: usize) -> Self {
        self.d_f = d_f;
        self
    }

    /// Overrides `M_F`.
    pub fn with_m_f(mut self, m_f: usize) -> Self {
        self.m_f = m_f;
        self
    }
}

/// A trained Flash codec.
///
/// Holds the PCA basis, the `M_F` codebooks of `K = 16` centroids, the
/// shared quantization grid (`dist_min`, `Δ`), and the pre-quantized
/// symmetric distance table (SDT) used by the Neighbor Selection stage.
#[derive(Debug, Clone)]
pub struct FlashCodec {
    pca: PcaCodec,
    spans: Vec<Span>,
    /// Concatenated codebooks, each stored dimension-major for
    /// [`simdops::dist16`]: subspace `s` holds `spans[s].len * K` floats from
    /// `spans[s].start * K`, coordinate `t` of centroid `c` at `t * K + c`.
    codebooks: Vec<f32>,
    /// Quantization grid shared by ADT and SDT (paper: same `Δ` and `H` for
    /// both so CA- and NS-stage values are comparable).
    dist_min: f32,
    inv_delta: f32,
    /// Per-centroid mean squared residual, `M_F * K` floats (the correction
    /// term making ADT and SDT unbiased estimates of true distances).
    residuals: Vec<f32>,
    /// Quantized SDT: `M_F * K * K` bytes, stored second-code-major:
    /// `SDT_s[a][b]` — first code `a`, second code `b` — is entry
    /// `s*256 + b*16 + a`, so the 16 distances *to* a fixed `b` are one
    /// contiguous run (see [`FlashCodec::sdt_to`]). The table is not
    /// symmetric: `dists[b] + residual[a] + residual[b]` rounds per order.
    sdt: Vec<u8>,
    /// [`FlashCodec::quantization_error`] of the training sample — the
    /// yardstick a later batch's error is compared with to tell whether it
    /// still fits this codec.
    train_error: f64,
}

thread_local! {
    /// Projection scratch of the per-vector paths ([`FlashCodec::encode`],
    /// [`FlashCodec::adt`]): an insert or a query allocates only the tables
    /// it returns.
    static PROJECTED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows projected per [`FlashCodec::encode_batch`] step — enough to amortize
/// streaming the basis, small enough that the projections stay in cache
/// until they are encoded.
const ENCODE_BATCH_ROWS: usize = 256;

/// Rows [`FlashCodec::quantization_error`] averages over (a stride sample):
/// enough for a stable mean, few enough to price a check at well under a
/// millisecond at 256-d.
const ERROR_SAMPLE: usize = 256;

impl FlashCodec {
    /// Trains PCA, the subspace codebooks, the quantization grid and the
    /// SDT on (a sample of) `data`. The result is a deterministic function
    /// of `(data, params)` at a given SIMD dispatch level.
    ///
    /// # Panics
    /// Panics if `data` is empty, `m_f == 0`, `m_f > d_f`, or
    /// `d_f > data.dim()`.
    pub fn train(data: &VectorSet, params: FlashParams) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(params.m_f >= 1, "M_F must be positive");
        assert!(params.d_f >= params.m_f, "d_F must be at least M_F");
        assert!(
            params.d_f <= data.dim(),
            "d_F cannot exceed the input dimensionality"
        );

        let sample = data.stride_sample(params.train_sample);
        // PCA stabilizes with far fewer samples than the codebooks need, and
        // its covariance pass is O(sample · D²) — fit it on a subsample.
        let pca_sample = sample.stride_sample((4 * params.d_f).max(512));
        let pca = PcaCodec::fit(&pca_sample, params.d_f);

        // Project the sample once; codebooks are trained in PCA space.
        let n = sample.len();
        let mut projected = vec![0.0f32; n * params.d_f];
        pca.project_batch(sample.as_flat(), &mut projected);

        // The codebooks train concurrently, one 16-centroid k-means per span
        // of the projection, span `s` seeded `seed.wrapping_add(s)`
        // (`quantizers::train_subspaces`, PQ's trainer too). What crosses
        // subspaces runs here, in subspace order: one `dist16_rows` pass over
        // the sample yields each centroid's mean squared residual, and —
        // corrected by those residuals — the ADT-like values the grid is
        // calibrated on.
        //
        // Table entries are *corrected* by the residual energies
        // (E[δ²(x,y)] ≈ δ²(c_x,c_y) + r_x + r_y for independent cell
        // residuals), which puts the asymmetric (one residual already exact)
        // and symmetric (two residuals dropped) tables on the same scale —
        // without it, SDT values systematically undershoot ADT values and
        // the NS pruning rule over-fires.
        //
        // Shared quantization grid: dist_max = Σ_s (the `grid_quantile` of
        // subspace s over both the sample→centroid (ADT-like) and
        // centroid→centroid (SDT) values); dist_min = min over subspaces.
        let subspaces = train_subspaces(
            &projected,
            params.d_f,
            params.m_f,
            K,
            params.kmeans_iters,
            params.seed,
        );
        drop(projected);
        let q = params.grid_quantile.clamp(0.0, 1.0);
        let mut codebooks = vec![0.0f32; params.d_f * K];
        let mut residuals = vec![0.0f32; params.m_f * K];
        let mut centroid_dists = vec![0.0f32; params.m_f * K * K];
        let mut dist_max_sum = 0.0f32;
        let mut dist_min_all = f32::INFINITY;
        let mut partials = vec![0.0f32; n * K + K * K];
        for (s, sub) in subspaces.iter().enumerate() {
            let (span, result) = (sub.span, &sub.kmeans);
            let codebook = &mut codebooks[span.start * K..(span.start + span.len) * K];
            simdops::dist16_block(&result.centroids, span.len, codebook);
            let codebook = &*codebook;

            let (to_centroids, between) = partials.split_at_mut(n * K);
            dist16_rows(&sub.points, codebook, to_centroids);
            let mut sums = [0.0f64; K];
            let mut counts = [0usize; K];
            for (dists, &a) in to_centroids.chunks_exact(K).zip(&result.assignments) {
                sums[a as usize] += f64::from(dists[a as usize]);
                counts[a as usize] += 1;
            }
            let residual = &mut residuals[s * K..(s + 1) * K];
            for c in 0..K {
                if counts[c] > 0 {
                    residual[c] = (sums[c] / counts[c] as f64) as f32;
                }
            }
            for dists in to_centroids.chunks_exact_mut(K) {
                for (d, &r) in dists.iter_mut().zip(residual.iter()) {
                    *d += r;
                }
            }
            dist16_rows(&result.centroids, codebook, between);
            for (row, &ra) in between.chunks_exact_mut(K).zip(residual.iter()) {
                for (slot, &rb) in row.iter_mut().zip(residual.iter()) {
                    *slot = *slot + ra + rb;
                }
            }
            centroid_dists[s * K * K..(s + 1) * K * K].copy_from_slice(between);

            let idx = ((partials.len() - 1) as f64 * q) as usize;
            dist_min_all = partials.iter().copied().fold(dist_min_all, f32::min);
            dist_max_sum += *partials.select_nth_unstable_by(idx, f32::total_cmp).1;
        }
        let delta = (dist_max_sum - dist_min_all).max(f32::MIN_POSITIVE);

        let mut codec = Self {
            pca,
            spans: subspaces.iter().map(|sub| sub.span).collect(),
            codebooks,
            dist_min: dist_min_all,
            inv_delta: ((1u32 << H_BITS) - 1) as f32 / delta,
            residuals,
            sdt: Vec::new(),
            train_error: 0.0,
        };
        // Pre-quantized SDT, shared by every insertion (paper: resides in
        // cache, eliminating NS-stage vector fetches). `centroid_dists` is
        // first-code-major; the stored table is its per-subspace transpose.
        codec.sdt = vec![0u8; centroid_dists.len()];
        for (i, &d) in centroid_dists.iter().enumerate() {
            codec.sdt[sdt_at(i / (K * K), i / K % K, i % K)] = codec.quantize(d);
        }
        codec.train_error = codec.quantization_error(&sample);
        codec
    }

    /// Mean input-space quantization error over a stride sample of 256
    /// rows of `data`: the squared distance from each vector to its
    /// reconstruction, which is its PCA residual (the energy of `v − mean`
    /// off the retained components) plus its codeword error (the distance
    /// from its projection to its centroids), averaged. `0` for an empty
    /// `data`.
    ///
    /// # Panics
    /// Panics if `data`'s dimensionality is not the codec's input's.
    pub fn quantization_error(&self, data: &VectorSet) -> f64 {
        assert_eq!(data.dim(), self.input_dim(), "dimensionality mismatch");
        let sample = data.stride_sample(ERROR_SAMPLE);
        let d_f = self.d_f();
        let mut projected = vec![0.0f32; sample.len() * d_f];
        self.pca.project_batch(sample.as_flat(), &mut projected);
        let mut sum = 0.0f64;
        for (v, p) in sample.iter().zip(projected.chunks_exact(d_f)) {
            let kept: f32 = p.iter().map(|x| x * x).sum();
            let residual = (simdops::l2_sq(v, self.pca.mean()) - kept).max(0.0);
            let codeword: f32 = (0..self.subspaces())
                .map(|s| {
                    let dists = self.centroid_dists(s, p);
                    dists[usize::from(nearest(&dists))]
                })
                .sum();
            sum += f64::from(residual + codeword);
        }
        sum / sample.len().max(1) as f64
    }

    /// [`Self::quantization_error`] of the codec's own training sample,
    /// measured when it was trained.
    pub fn train_error(&self) -> f64 {
        self.train_error
    }

    /// Number of subspaces `M_F`.
    pub fn subspaces(&self) -> usize {
        self.spans.len()
    }

    /// Retained principal dimensions `d_F`.
    pub fn d_f(&self) -> usize {
        self.pca.kept_dims()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        use quantizers::Codec as _;
        self.pca.dim()
    }

    /// The quantized symmetric distance table (`M_F * 256` bytes): the
    /// entry for first code `a` and second code `b` in subspace `s` is at
    /// `s*256 + b*16 + a`.
    pub fn sdt(&self) -> &[u8] {
        &self.sdt
    }

    /// Overwrites the SDT with `f(s, a, b)` for first code `a` and second
    /// code `b` — lets a test plant a visibly asymmetric table.
    #[cfg(test)]
    pub(crate) fn set_sdt_with(&mut self, f: impl Fn(usize, usize, usize) -> u8) {
        for s in 0..self.subspaces() {
            for a in 0..K {
                for b in 0..K {
                    self.sdt[sdt_at(s, a, b)] = f(s, a, b);
                }
            }
        }
    }

    /// Fills `table` (`M_F * 16` bytes, subspace-major) with the SDT
    /// distances *to* the code sequence `b`: `table[s*16 + a]` is
    /// `SDT_s[a][b[s]]`. That is the shape of an ADT, so
    /// [`simdops::lut16_batch`] over a block of first codes yields 16
    /// [`Self::sdc_quantized`]`(·, b)` sums at once — Neighbor Selection
    /// as a register-resident lookup (paper Section 3.3.5).
    #[inline]
    pub fn sdt_to(&self, b: &[u8], table: &mut [u8]) {
        debug_assert_eq!(b.len(), self.subspaces());
        for (s, (&cb, row)) in b.iter().zip(table.chunks_exact_mut(K)).enumerate() {
            let at = sdt_at(s, 0, usize::from(cb));
            row.copy_from_slice(&self.sdt[at..at + K]);
        }
    }

    /// Squared distances from subspace `s` of a projected vector to that
    /// subspace's 16 centroids — the one computation codeword selection and
    /// ADT generation share (paper Remark (2)).
    #[inline]
    fn centroid_dists(&self, s: usize, projected: &[f32]) -> [f32; K] {
        let span = self.spans[s];
        dist16(
            &projected[span.start..span.start + span.len],
            &self.codebooks[span.start * K..(span.start + span.len) * K],
        )
    }

    /// Quantizes one subspace's centroid distances into its 16-byte ADT.
    /// Table entries estimate distances to *vectors* coded `c`, hence the
    /// residual correction.
    #[inline]
    fn quantize_adt(&self, s: usize, dists: &[f32; K], adt: &mut [u8]) {
        let residual = &self.residuals[s * K..(s + 1) * K];
        for ((slot, &d), &r) in adt.iter_mut().zip(dists.iter()).zip(residual.iter()) {
            *slot = self.quantize(d + r);
        }
    }

    /// Quantizes one partial distance onto the shared 8-bit grid
    /// (paper Equation 9), clamping out-of-range values.
    #[inline]
    pub fn quantize(&self, dist: f32) -> u8 {
        let t = (dist - self.dist_min) * self.inv_delta;
        t.clamp(0.0, 255.0) as u8
    }

    /// Projects a full-dimensional vector onto the principal components.
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        self.pca.project(v)
    }

    /// Runs `f` on the projection of `v`, held in this thread's scratch.
    fn with_projected<R>(&self, v: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
        PROJECTED.with_borrow_mut(|buf| {
            buf.resize(self.d_f(), 0.0);
            self.pca.project_into(v, buf);
            f(buf)
        })
    }

    /// Encodes a *projected* vector, simultaneously emitting its codewords
    /// (4-bit values stored one per byte) and its quantized ADT
    /// (`M_F * 16` bytes, subspace-major) — the integrated implementation
    /// the paper's Remark (2) describes: codeword selection and ADT
    /// generation share the same centroid distance computations.
    pub fn encode_projected(&self, projected: &[f32]) -> (Vec<u8>, Vec<u8>) {
        assert_eq!(
            projected.len(),
            self.d_f(),
            "projected dimensionality mismatch"
        );
        let m = self.subspaces();
        let mut codes = vec![0u8; m];
        let mut adt = vec![0u8; m * K];
        for (s, (code, table)) in codes.iter_mut().zip(adt.chunks_exact_mut(K)).enumerate() {
            let dists = self.centroid_dists(s, projected);
            // Codeword selection stays on the raw centroid distance.
            *code = nearest(&dists);
            self.quantize_adt(s, &dists, table);
        }
        (codes, adt)
    }

    /// Convenience: project then encode.
    pub fn encode(&self, v: &[f32]) -> (Vec<u8>, Vec<u8>) {
        self.with_projected(v, |projected| self.encode_projected(projected))
    }

    /// The quantized ADT of `v` alone (`M_F * 16` bytes) — what an insert or
    /// a query needs; equal to the table [`Self::encode`] returns.
    pub fn adt(&self, v: &[f32]) -> Vec<u8> {
        let mut adt = vec![0u8; self.subspaces() * K];
        self.with_projected(v, |projected| {
            for (s, table) in adt.chunks_exact_mut(K).enumerate() {
                self.quantize_adt(s, &self.centroid_dists(s, projected), table);
            }
        });
        adt
    }

    /// Codewords of every vector of `data` (`len * M_F` bytes), equal to
    /// concatenating the codes [`Self::encode`] returns. Projects in batches
    /// through a bounded transient buffer.
    pub fn encode_batch(&self, data: &VectorSet) -> Vec<u8> {
        let (m, d_f, dim) = (self.subspaces(), self.d_f(), data.dim());
        let mut codes = vec![0u8; data.len() * m];
        let mut projected = vec![0.0f32; ENCODE_BATCH_ROWS.min(data.len()) * d_f];
        for (rows, codes) in data
            .as_flat()
            .chunks(ENCODE_BATCH_ROWS * dim)
            .zip(codes.chunks_mut(ENCODE_BATCH_ROWS * m))
        {
            let projected = &mut projected[..rows.len() / dim * d_f];
            self.pca.project_batch(rows, projected);
            for (p, row_codes) in projected.chunks_exact(d_f).zip(codes.chunks_exact_mut(m)) {
                for (s, code) in row_codes.iter_mut().enumerate() {
                    *code = nearest(&self.centroid_dists(s, p));
                }
            }
        }
        codes
    }

    /// Quantized symmetric distance between two code sequences (the
    /// NS-stage distance; a pure SDT lookup, no vector access).
    #[inline]
    pub fn sdc_quantized(&self, a: &[u8], b: &[u8]) -> u16 {
        debug_assert_eq!(a.len(), self.subspaces());
        debug_assert_eq!(b.len(), self.subspaces());
        let mut acc = 0u16;
        for (s, (&ca, &cb)) in a.iter().zip(b.iter()).enumerate() {
            acc += u16::from(self.sdt[sdt_at(s, usize::from(ca), usize::from(cb))]);
        }
        acc
    }

    /// Reconstructs the derived vector in PCA space (centroid
    /// concatenation), for the Theorem-1 error analysis.
    pub fn reconstruct_projected(&self, codes: &[u8]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.d_f()];
        for (span, &c) in self.spans.iter().zip(codes.iter()) {
            for (t, x) in (span.start..).zip(&mut out[span.start..span.start + span.len]) {
                *x = self.codebooks[t * K + usize::from(c)];
            }
        }
        out
    }

    /// Bytes of shared codec state (codebooks as f32 + SDT + PCA basis).
    pub fn shared_bytes(&self) -> usize {
        let basis_bytes = self.input_dim() * self.d_f() * 4;
        self.codebooks.len() * 4 + self.sdt.len() + basis_bytes
    }
}

/// Where `SDT_s[a][b]` (first code `a`, second code `b`) lives in
/// [`FlashCodec::sdt`] — the one place that knows the storage order.
#[inline]
fn sdt_at(s: usize, a: usize, b: usize) -> usize {
    s * K * K + b * K + a
}

/// Index of the first minimum of one subspace's centroid distances.
#[inline]
fn nearest(dists: &[f32; K]) -> u8 {
    let mut best = 0usize;
    for c in 1..K {
        if dists[c] < dists[best] {
            best = c;
        }
    }
    best as u8
}

/// Implements the quantizers `Codec` trait so the Theorem-1 reliability
/// estimator can evaluate Flash alongside PQ/SQ/PCA. Reconstruction lifts
/// the centroid concatenation back through the PCA basis.
impl quantizers::Codec for FlashCodec {
    fn dim(&self) -> usize {
        self.input_dim()
    }

    fn reconstruct(&self, v: &[f32]) -> Vec<f32> {
        let (codes, _) = self.encode(v);
        let in_pca = self.reconstruct_projected(&codes);
        self.pca.lift(&in_pca)
    }

    fn code_bytes(&self) -> usize {
        // 4-bit codewords, two per byte.
        self.subspaces().div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdops::lut16_single;

    fn dataset(n: usize, dim: usize, seed: u64) -> VectorSet {
        // Cluster-rich data matching the embedding workloads Flash targets.
        let spec = vecstore::DatasetSpec::new(dim, 100, 0.96, 0.4, seed);
        vecstore::generate(&spec, n, 1, seed).0
    }

    fn codec(dim: usize, d_f: usize, m_f: usize) -> (FlashCodec, VectorSet) {
        let data = dataset(500, dim, 11);
        let params = FlashParams {
            d_f,
            m_f,
            train_sample: 400,
            kmeans_iters: 10,
            seed: 1,
            grid_quantile: 0.5,
        };
        (FlashCodec::train(&data, params), data)
    }

    #[test]
    fn codes_fit_four_bits() {
        let (c, data) = codec(64, 32, 8);
        for i in 0..50 {
            let (codes, adt) = c.encode(data.get(i));
            assert_eq!(codes.len(), 8);
            assert_eq!(adt.len(), 8 * 16);
            assert!(codes.iter().all(|&x| x < 16));
        }
    }

    #[test]
    fn own_code_is_argmin_centroid() {
        let _serial = crate::tests::serialize_level_tests();
        // Per subspace, the emitted codeword must be the centroid
        // minimizing the raw projected distance. (The ADT entry at the own
        // codeword is *not* necessarily the row minimum: table entries
        // carry the per-centroid residual correction while codeword
        // selection deliberately stays on the raw centroid distance.)
        let (c, data) = codec(64, 32, 8);
        let projected = c.project(data.get(3));
        let (codes, _adt) = c.encode(data.get(3));
        for (s, span) in c.spans.iter().enumerate() {
            let sub = &projected[span.start..span.start + span.len];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for cand in 0..K {
                let mut one_hot = vec![0u8; c.subspaces()];
                one_hot[s] = cand as u8;
                let centroid = &c.reconstruct_projected(&one_hot)[span.start..][..span.len];
                let d = simdops::l2_sq(sub, centroid);
                if d < best_d {
                    best_d = d;
                    best = cand;
                }
            }
            assert_eq!(usize::from(codes[s]), best, "subspace {s}");
        }
    }

    #[test]
    fn quantized_distances_preserve_gross_ordering() {
        // Rank correlation between quantized ADC distances and exact
        // distances must be strongly positive. Use quantile 1.0 so no pair
        // falls in the (deliberately) clamped far band.
        let data = dataset(500, 64, 11);
        let c = FlashCodec::train(
            &data,
            FlashParams {
                d_f: 48,
                m_f: 12,
                train_sample: 400,
                kmeans_iters: 10,
                seed: 1,
                grid_quantile: 1.0,
            },
        );
        let q = data.get(0);
        let (_, adt) = c.encode(q);
        let m = c.subspaces();
        let mut pairs: Vec<(u16, f32)> = (1..200)
            .map(|i| {
                let (codes, _) = c.encode(data.get(i));
                let approx = lut16_single(&adt, &codes, m);
                let exact = simdops::l2_sq(q, data.get(i));
                (approx, exact)
            })
            .collect();
        // Count concordant pairs on a subsample.
        let mut concordant = 0usize;
        let mut total = 0usize;
        pairs.truncate(80);
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                let (qa, ea) = pairs[i];
                let (qb, eb) = pairs[j];
                // Only score pairs whose exact distances are meaningfully
                // apart; ordering within a near-tie band is below the
                // resolution any 4-bit codec can promise (Theorem 1 needs
                // |e·u − b| ≥ |E|, which near-ties violate by definition).
                if (ea - eb).abs() < 0.2 * ea.min(eb) {
                    continue;
                }
                total += 1;
                if (qa < qb) == (ea < eb) || qa == qb {
                    concordant += 1;
                }
            }
        }
        let tau = concordant as f64 / total as f64;
        assert!(tau > 0.8, "concordance {tau} too low");
    }

    #[test]
    fn sdc_symmetric_and_small_diagonal() {
        let (c, data) = codec(64, 32, 8);
        let (a, _) = c.encode(data.get(1));
        let (b, _) = c.encode(data.get(2));
        assert_eq!(c.sdc_quantized(&a, &b), c.sdc_quantized(&b, &a));
        // The diagonal is the residual-correction floor (2·r per subspace),
        // not zero — it estimates the distance between two distinct vectors
        // sharing a code. It must still sit well below typical distances.
        let self_d = c.sdc_quantized(&a, &a);
        let max_d = (0..60)
            .map(|i| c.sdc_quantized(&a, &c.encode(data.get(i)).0))
            .max()
            .unwrap();
        assert!(self_d <= max_d / 2, "diag {self_d} vs max {max_d}");
    }

    #[test]
    fn adt_and_sdt_share_a_grid() {
        let _serial = crate::tests::serialize_level_tests();
        // For a vector that coincides with its centroid, the ADT entry for
        // centroid t is η(δ²(c_code, c_t) + r_t) while the SDT entry
        // (code, t) is η(δ²(c_code, c_t) + r_code + r_t): on a shared grid
        // they must differ by exactly the quantized residual of the own
        // code (±2 for the two independent floor roundings).
        let (c, data) = codec(64, 32, 8);
        let (codes, _) = c.encode(data.get(0));
        let projected = c.reconstruct_projected(&codes);
        let (codes2, adt2) = c.encode_projected(&projected);
        assert_eq!(codes, codes2, "reconstruction must encode to itself");
        for s in 0..c.subspaces() {
            let own = usize::from(codes[s]);
            let shift = (c.residuals[s * K + own] * c.inv_delta).round() as i16;
            for t in 0..K {
                let via_adt = i16::from(adt2[s * K + t]);
                let via_sdt = i16::from(c.sdt()[sdt_at(s, own, t)]);
                // SDT saturates at 255; skip clamped entries.
                if via_sdt == 255 || via_adt == 255 {
                    continue;
                }
                assert!(
                    ((via_sdt - via_adt) - shift).abs() <= 2,
                    "subspace {s} centroid {t}: adt {via_adt}, sdt {via_sdt}, shift {shift}"
                );
            }
        }
    }

    #[test]
    fn training_is_deterministic_to_the_byte() {
        let _serial = crate::tests::serialize_level_tests();
        // Same input, same codec: basis, codebooks, grid, residuals and SDT.
        let (a, data) = codec(64, 16, 8);
        let (b, _) = codec(64, 16, 8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.codebooks), bits(&b.codebooks));
        assert_eq!(bits(&a.residuals), bits(&b.residuals));
        assert_eq!(a.sdt, b.sdt);
        assert_eq!(a.dist_min.to_bits(), b.dist_min.to_bits());
        assert_eq!(a.inv_delta.to_bits(), b.inv_delta.to_bits());
        // `{:?}` prints every float of the basis in round-trip form.
        assert_eq!(format!("{:?}", a.pca), format!("{:?}", b.pca));
        // d_F = 16 of 64 dims takes the top-k eigen solver; 32 took Jacobi.
        for i in 0..data.len() {
            assert_eq!(a.encode(data.get(i)), b.encode(data.get(i)));
        }
    }

    #[test]
    fn subspace_seeds_wrap_past_u64_max() {
        let _serial = crate::tests::serialize_level_tests();
        // Subspace `s` trains with seed `seed + s`, which must wrap: it
        // overflowed in a debug build when that sum was a plain `+`.
        let data = dataset(300, 32, 5);
        let params = FlashParams {
            d_f: 16,
            m_f: 4,
            train_sample: 300,
            kmeans_iters: 5,
            seed: u64::MAX,
            grid_quantile: 0.5,
        };
        let c = FlashCodec::train(&data, params);
        let projected: Vec<f32> = data.iter().flat_map(|v| c.project(v)).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (s, span) in c.spans.iter().enumerate() {
            let sub: Vec<f32> = (projected.chunks_exact(16))
                .flat_map(|p| p[span.start..span.start + span.len].to_vec())
                .collect();
            let seed = u64::MAX.wrapping_add(s as u64);
            let want = quantizers::kmeans(&sub, span.len, K, 5, seed);
            let mut block = vec![0.0f32; span.len * K];
            simdops::dist16_block(&want.centroids, span.len, &mut block);
            let got = &c.codebooks[span.start * K..(span.start + span.len) * K];
            assert_eq!(bits(got), bits(&block), "subspace {s}");
        }
    }

    #[test]
    fn adt_and_batch_codes_equal_what_encode_returns() {
        let _serial = crate::tests::serialize_level_tests();
        let (c, data) = codec(64, 32, 8);
        let codes = c.encode_batch(&data);
        for (i, row) in codes.chunks_exact(c.subspaces()).enumerate() {
            let (one, adt) = c.encode(data.get(i));
            assert_eq!(row, one, "vector {i}");
            assert_eq!(c.adt(data.get(i)), adt, "vector {i}");
        }
        // 500 vectors: one full batch and a ragged one.
        assert_eq!(codes.len(), 500 * c.subspaces());
    }

    #[test]
    fn reliability_estimator_accepts_flash() {
        let (c, data) = codec(64, 48, 12);
        let report = quantizers::comparison_reliability(&c, &data.slice(0, 120), 100, 5);
        assert_eq!(report.total, 100);
        // Triples pit each vector's two *nearest* neighbors against each
        // other — the hardest comparisons in the workload (their bisector
        // hyperplane passes right next to the anchor). Agreement well above
        // chance is what Theorem 1 needs; CA/NS comparisons against the
        // wider candidate set are far easier than this worst case.
        assert!(
            report.agreement_fraction() > 0.6,
            "agreement {}",
            report.agreement_fraction()
        );
    }

    #[test]
    fn more_principal_dims_reduce_reconstruction_error() {
        let data = dataset(400, 64, 13);
        let small = FlashCodec::train(
            &data,
            FlashParams {
                d_f: 8,
                m_f: 8,
                train_sample: 300,
                kmeans_iters: 8,
                seed: 2,
                grid_quantile: 0.9,
            },
        );
        let large = FlashCodec::train(
            &data,
            FlashParams {
                d_f: 48,
                m_f: 8,
                train_sample: 300,
                kmeans_iters: 8,
                seed: 2,
                grid_quantile: 0.9,
            },
        );
        use quantizers::Codec as _;
        let err = |c: &FlashCodec| -> f32 {
            (0..60)
                .map(|i| simdops::l2_sq(data.get(i), &c.reconstruct(data.get(i))))
                .sum()
        };
        assert!(err(&large) < err(&small));
    }

    #[test]
    fn quantization_error_is_the_reconstruction_distance() {
        use quantizers::Codec as _;
        let (c, data) = codec(64, 16, 8);
        let sample = data.stride_sample(ERROR_SAMPLE);
        let direct: f64 = (sample.iter())
            .map(|v| f64::from(simdops::l2_sq(v, &c.reconstruct(v))))
            .sum::<f64>()
            / sample.len() as f64;
        let error = c.quantization_error(&data);
        assert!(
            (error - direct).abs() < 1e-3 * direct,
            "{error} vs {direct}"
        );
        // The training sample is the 400-row stride of the same 500 rows.
        let trained = c.train_error();
        assert!(
            trained > 0.0 && (trained / error - 1.0).abs() < 0.2,
            "{trained} vs {error}"
        );
    }

    #[test]
    fn code_bytes_packs_nibbles() {
        let (c, _) = codec(64, 32, 8);
        use quantizers::Codec as _;
        assert_eq!(c.code_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "d_F must be at least M_F")]
    fn rejects_m_f_above_d_f() {
        let data = dataset(50, 16, 15);
        let _ = FlashCodec::train(
            &data,
            FlashParams {
                d_f: 4,
                m_f: 8,
                train_sample: 50,
                kmeans_iters: 4,
                seed: 3,
                grid_quantile: 0.9,
            },
        );
    }
}
