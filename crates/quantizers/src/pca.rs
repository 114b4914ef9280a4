//! Principal Component Analysis codec (paper Section 3.2.3).
//!
//! PCA rotates vectors into the eigenbasis of the data covariance and keeps
//! the first `d_PCA` coordinates. Because the rotation is orthogonal it
//! preserves distances, so distances between projected vectors approximate
//! true distances with an error governed by the discarded eigenvalue mass —
//! the paper selects `d_PCA` as the smallest dimension reaching a target
//! cumulative variance fraction (0.9 in their experiments).

use crate::Codec;
use linalg::{covariance_about, mean_of_rows, symmetric_eigen, symmetric_eigen_topk, Matrix};
use vecstore::VectorSet;

/// A fitted PCA model with a chosen retained dimensionality.
#[derive(Debug, Clone)]
pub struct PcaCodec {
    mean: Vec<f32>,
    /// Principal components, one per **row** (`solved × dim`), sorted by
    /// descending eigenvalue — the layout `simdops::gemm_nt` projects
    /// through. May hold fewer than `dim` rows when fitted with the top-k
    /// solver.
    components: Matrix,
    /// `components · mean`: projecting `v − mean` is projecting `v` and
    /// subtracting this, which spares every projection a centered copy.
    mean_projection: Vec<f32>,
    eigenvalues: Vec<f32>,
    /// Total eigenvalue mass (covariance trace) — the denominator of
    /// cumulative-variance fractions even when only `k` pairs were solved.
    total_variance: f64,
    /// Retained dimensionality `d_PCA`.
    keep: usize,
}

impl PcaCodec {
    /// Fits the eigenbasis to (a sample of) `data` and retains `keep`
    /// components.
    ///
    /// Solver choice: when `keep` is a small fraction of the input dimension
    /// the top-k subspace iteration (`O(keep·d²)`) replaces the full Jacobi
    /// sweep (`O(d³)`) — this keeps PCA preprocessing a small slice of
    /// indexing time, as the paper's Eigen-based implementation enjoys.
    ///
    /// # Panics
    /// Panics if `data` is empty or `keep` is zero or exceeds the
    /// dimensionality.
    pub fn fit(data: &VectorSet, keep: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit PCA on an empty dataset");
        let dim = data.dim();
        assert!(keep >= 1 && keep <= dim, "keep must be in 1..=dim");

        let mean = mean_of_rows(data.as_flat(), dim);
        let cov = covariance_about(data.as_flat(), &mean);

        let (dec, total_variance) = if keep * 3 <= dim {
            symmetric_eigen_topk(&cov, keep, 0xE16E)
        } else {
            let dec = symmetric_eigen(&cov);
            let total = dec.eigenvalues.iter().map(|&x| f64::from(x.max(0.0))).sum();
            (dec, total)
        };
        let components = dec.eigenvectors.transpose();
        let mut mean_projection = vec![0.0f32; components.rows()];
        simdops::gemm_nt(&mean, components.as_slice(), dim, &mut mean_projection);
        Self {
            mean,
            components,
            mean_projection,
            eigenvalues: dec.eigenvalues,
            total_variance,
            keep,
        }
    }

    /// Fits and then chooses `d_PCA` as the smallest dimensionality whose
    /// cumulative variance fraction reaches `alpha` (the paper's `f(d) ≥ α`
    /// rule, α = 0.9 in its experiments). Solves progressively larger top-k
    /// subspaces, doubling until the target mass is covered.
    pub fn fit_for_variance(data: &VectorSet, alpha: f64) -> Self {
        let dim = data.dim();
        let mut k = 32.min(dim);
        loop {
            let model = Self::fit(data, k);
            let d = model.dims_for_variance(alpha);
            // Trust the answer only if it lies strictly inside the solved
            // subspace (otherwise more components may be needed).
            if d < model.components.rows() || model.components.rows() == dim {
                return model.with_dims(d);
            }
            k = (k * 2).min(dim);
        }
    }

    /// Retained dimensionality `d_PCA`.
    pub fn kept_dims(&self) -> usize {
        self.keep
    }

    /// Reassembles a fitted model from the parts its accessors expose
    /// ([`Self::mean`], [`Self::components`], [`Self::mean_projection`],
    /// [`Self::eigenvalues`], [`Self::total_variance`], [`Self::kept_dims`]),
    /// so a serializer can store them bit for bit instead of refitting.
    ///
    /// # Errors
    /// Refuses parts whose lengths disagree (`components` must hold
    /// `mean_projection.len()` rows of `mean.len()` floats, one eigenvalue
    /// per row, `1 <= keep <= rows <= dim`) or that hold a non-finite float.
    pub fn from_parts(
        mean: Vec<f32>,
        components: Vec<f32>,
        mean_projection: Vec<f32>,
        eigenvalues: Vec<f32>,
        total_variance: f64,
        keep: usize,
    ) -> Result<Self, &'static str> {
        let (dim, rows) = (mean.len(), mean_projection.len());
        if dim == 0 || rows > dim || keep == 0 || keep > rows {
            return Err("PCA needs 1 <= kept <= solved <= dim");
        }
        if components.len() != rows * dim || eigenvalues.len() != rows {
            return Err("PCA parts disagree on the solved component count");
        }
        let floats = [&mean, &components, &mean_projection, &eigenvalues];
        if !total_variance.is_finite() || floats.iter().any(|v| v.iter().any(|x| !x.is_finite())) {
            return Err("PCA parts hold a non-finite value");
        }
        Ok(Self {
            mean,
            components: Matrix::from_vec(rows, dim, components),
            mean_projection,
            eigenvalues,
            total_variance,
            keep,
        })
    }

    /// The mean subtracted before projecting (`dim` floats).
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Every solved component, row-major (`rows × dim`, descending
    /// eigenvalue); the first [`Self::kept_dims`] rows are the basis.
    pub fn components(&self) -> &[f32] {
        self.components.as_slice()
    }

    /// `components · mean`, one float per solved component.
    pub fn mean_projection(&self) -> &[f32] {
        &self.mean_projection
    }

    /// Total eigenvalue mass (covariance trace).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Changes the retained dimensionality without refitting.
    ///
    /// # Panics
    /// Panics if `keep` is zero or exceeds the number of solved components.
    pub fn with_dims(mut self, keep: usize) -> Self {
        assert!(
            keep >= 1 && keep <= self.components.rows(),
            "keep exceeds solved components"
        );
        self.keep = keep;
        self
    }

    /// Eigenvalues (descending).
    pub fn eigenvalues(&self) -> &[f32] {
        &self.eigenvalues
    }

    /// Smallest `d` with cumulative variance fraction `>= alpha`, measured
    /// against the full variance mass (covariance trace).
    pub fn dims_for_variance(&self, alpha: f64) -> usize {
        if self.total_variance <= 0.0 {
            return 1;
        }
        let mut acc = 0.0;
        for (i, &l) in self.eigenvalues.iter().enumerate() {
            acc += f64::from(l.max(0.0));
            if acc / self.total_variance >= alpha {
                return i + 1;
            }
        }
        self.eigenvalues.len()
    }

    /// Projects `v` to the retained `d_PCA` coordinates (the compact code).
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.keep];
        self.project_into(v, &mut out);
        out
    }

    /// [`Self::project`] into a caller-provided buffer of `d_PCA` floats.
    ///
    /// # Panics
    /// Panics if `v` is not one input vector or `out` not `d_PCA` long.
    pub fn project_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.mean.len(), "dimensionality mismatch");
        self.project_batch(v, out);
    }

    /// Projects every `dim`-float row of `rows` into the matching
    /// `d_PCA`-float row of `out`. A row comes out bit-identical to
    /// projecting it alone.
    ///
    /// # Panics
    /// Panics if `rows` is not whole input vectors or `out` does not hold
    /// `d_PCA` floats per row.
    pub fn project_batch(&self, rows: &[f32], out: &mut [f32]) {
        let dim = self.mean.len();
        let kept = &self.components.as_slice()[..self.keep * dim];
        simdops::gemm_nt(rows, kept, dim, out);
        for row in out.chunks_exact_mut(self.keep) {
            for (x, &m) in row.iter_mut().zip(self.mean_projection.iter()) {
                *x -= m;
            }
        }
    }

    /// Squared distance between two projections (the HNSW-PCA distance).
    pub fn dist_sq_projected(&self, a: &[f32], b: &[f32]) -> f32 {
        simdops::l2_sq(a, b)
    }

    /// Lifts a projection back to the original space: `mean + A_{1:k} · p`.
    pub fn lift(&self, projected: &[f32]) -> Vec<f32> {
        assert_eq!(projected.len(), self.keep, "projection length mismatch");
        let mut out = self.mean.clone();
        for (j, &pj) in projected.iter().enumerate() {
            if pj == 0.0 {
                continue;
            }
            for (o, &c) in out.iter_mut().zip(self.components.row(j).iter()) {
                *o += pj * c;
            }
        }
        out
    }
}

impl Codec for PcaCodec {
    fn dim(&self) -> usize {
        self.mean.len()
    }

    fn reconstruct(&self, v: &[f32]) -> Vec<f32> {
        self.lift(&self.project(v))
    }

    fn code_bytes(&self) -> usize {
        self.keep * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Data living (noisily) on a 2-D plane inside 6-D space.
    fn planar_data(n: usize, seed: u64) -> VectorSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorSet::with_capacity(6, n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-3.0..3.0);
            let b: f32 = rng.gen_range(-2.0..2.0);
            let mut eps = || rng.gen_range(-0.01..0.01);
            // Plane spanned by (1,1,0,0,1,0)/√3 and (0,0,1,1,0,1)/√3 offset by 5.
            let v = [
                5.0 + a + eps(),
                5.0 + a + eps(),
                5.0 + b + eps(),
                5.0 + b + eps(),
                5.0 + a + eps(),
                5.0 + b + eps(),
            ];
            s.push(&v);
        }
        s
    }

    #[test]
    fn two_components_capture_planar_data() {
        let data = planar_data(500, 3);
        let pca = PcaCodec::fit(&data, 6);
        assert!(
            pca.dims_for_variance(0.99) <= 2,
            "planar data needs <= 2 dims"
        );
    }

    #[test]
    fn reconstruction_error_small_on_plane() {
        let data = planar_data(400, 5);
        let pca = PcaCodec::fit(&data, 2);
        let mut worst = 0.0f32;
        for v in data.iter() {
            worst = worst.max(simdops::l2_sq(v, &pca.reconstruct(v)));
        }
        assert!(worst < 0.01, "worst reconstruction error {worst}");
    }

    #[test]
    fn projection_distance_approximates_true_distance() {
        let data = planar_data(300, 7);
        let pca = PcaCodec::fit(&data, 2);
        let a = data.get(0);
        let b = data.get(1);
        let true_d = simdops::l2_sq(a, b);
        let proj_d = pca.dist_sq_projected(&pca.project(a), &pca.project(b));
        assert!(
            (true_d - proj_d).abs() < 0.05 * (1.0 + true_d),
            "{true_d} vs {proj_d}"
        );
    }

    #[test]
    fn full_rank_projection_is_isometric() {
        let data = planar_data(200, 9);
        let pca = PcaCodec::fit(&data, 6);
        let a = data.get(2);
        let b = data.get(3);
        let true_d = simdops::l2_sq(a, b);
        let proj_d = pca.dist_sq_projected(&pca.project(a), &pca.project(b));
        assert!((true_d - proj_d).abs() < 1e-3 * (1.0 + true_d));
    }

    #[test]
    fn variance_dims_monotone_in_alpha() {
        let data = planar_data(300, 11);
        let pca = PcaCodec::fit(&data, 6);
        assert!(pca.dims_for_variance(0.5) <= pca.dims_for_variance(0.9));
        assert!(pca.dims_for_variance(0.9) <= pca.dims_for_variance(0.999));
    }

    #[test]
    fn fit_for_variance_sets_keep() {
        let data = planar_data(300, 13);
        let pca = PcaCodec::fit_for_variance(&data, 0.99);
        assert_eq!(pca.kept_dims(), pca.dims_for_variance(0.99));
        assert!(pca.kept_dims() <= 2);
    }

    #[test]
    fn code_bytes_reflects_kept_dims() {
        let data = planar_data(100, 15);
        let pca = PcaCodec::fit(&data, 3);
        assert_eq!(pca.code_bytes(), 12);
    }
}
