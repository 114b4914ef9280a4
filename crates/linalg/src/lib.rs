//! Dense linear-algebra substrate for the `hnsw-flash` workspace.
//!
//! The paper's reference implementation uses the C++ Eigen library for all
//! matrix manipulation (principal-component extraction, codebook generation,
//! distance-table creation). This crate provides the small subset that the
//! reproduction needs, on `simdops` kernels where the work is `d²`-sized:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the usual products,
//! * [`stats`] — mean / centering / covariance of a sample matrix,
//! * [`eigen`] — a cyclic-Jacobi eigendecomposition for symmetric matrices
//!   (exactly what PCA needs: covariance matrices are symmetric PSD),
//! * [`rotation`] — random orthonormal matrices (Gram–Schmidt of a Gaussian
//!   ensemble), used by the ADSampling search variant.
//!
//! The public storage type is `f32`, matching the vector data used
//! throughout the ANNS stack. The `d²`-sized products of PCA fitting
//! (covariance, block power iteration) run in `f32` on `simdops::gemm_nt`;
//! means, the Jacobi solver and the small matrix–vector helpers accumulate
//! in `f64`.

pub mod eigen;
pub mod matrix;
pub mod rotation;
pub mod stats;

pub use eigen::{symmetric_eigen, symmetric_eigen_topk, EigenDecomposition};
pub use matrix::Matrix;
pub use rotation::random_orthogonal;
pub use stats::{covariance, covariance_about, mean_of_rows, mean_vector};
