//! Baseline compact-coding methods (paper Section 3.2).
//!
//! Before designing Flash, the paper integrates three mainstream compression
//! methods into HNSW construction and studies why each falls short:
//!
//! * [`pq`] — Product Quantization: subspace codebooks, asymmetric (ADC) and
//!   symmetric (SDC) distance computation;
//! * [`sq`] — Scalar Quantization: per-dimension affine mapping to integers;
//! * [`pca`] — Principal Component Analysis: orthogonal projection keeping
//!   the high-variance components;
//! * [`kmeans`] — the shared Lloyd/k-means++ trainer;
//! * [`reliability`] — the Theorem-1 *comparison-reliability estimator*: the
//!   fraction of sampled `(u, v, w)` triples whose distance comparison
//!   survives compression (`|e·u − b| ≥ |E|`), the paper's principled way of
//!   tuning compression error.
//!
//! All quantizers implement the [`Codec`] trait so the estimator and the
//! graph layer treat them uniformly.

pub mod kmeans;
pub mod opq;
pub mod pca;
pub mod pq;
pub mod reliability;
pub mod sq;

pub use kmeans::{kmeans, train_subspaces, KMeansResult, Span, Subspace};
pub use opq::OptimizedProductQuantizer;
pub use pca::PcaCodec;
pub use pq::ProductQuantizer;
pub use reliability::{comparison_reliability, ReliabilityReport};
pub use sq::ScalarQuantizer;

/// A lossy vector codec: anything that can produce the *derived vector*
/// `u' = reconstruct(u)` of the paper's Theorem 1 (the decoded approximation
/// living in the original space, so `E_u = u − u'`).
pub trait Codec {
    /// Dimensionality of vectors this codec accepts.
    fn dim(&self) -> usize;

    /// Encodes and decodes `v`, returning the lossy approximation in the
    /// original `dim()`-dimensional space.
    fn reconstruct(&self, v: &[f32]) -> Vec<f32>;

    /// Compressed-code size in bytes for one vector (index-size accounting).
    fn code_bytes(&self) -> usize;
}
