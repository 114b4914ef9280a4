//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA (Section 3.3.2 of the paper) needs the eigenvalues and eigenvectors of
//! the data covariance matrix — always symmetric positive semi-definite.
//! The cyclic Jacobi algorithm is a good fit: it is simple, numerically
//! robust (it works directly with orthogonal rotations), and for the matrix
//! sizes in this workload (D ≤ ~1024) its O(D³) sweeps are acceptable as a
//! one-off preprocessing cost.
//!
//! The Jacobi solver computes in `f64` regardless of the `f32` public
//! interface. [`symmetric_eigen_topk`], for the leading few pairs of a large
//! matrix, does its `d²`-sized products in `f32` and hands Jacobi only a
//! `k × k` problem.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = V Λ Vᵀ`.
///
/// Eigenpairs are sorted by **descending** eigenvalue, which is the order PCA
/// consumes them in (largest-variance component first).
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f32>,
    /// Eigenvectors as matrix **columns**: `eigenvectors.column j` pairs with
    /// `eigenvalues[j]`. Stored as a `d x d` matrix whose `(i, j)` entry is
    /// the `i`-th coordinate of the `j`-th eigenvector.
    pub eigenvectors: Matrix,
}

impl EigenDecomposition {
    /// Extracts eigenvector `j` as an owned vector.
    pub fn eigenvector(&self, j: usize) -> Vec<f32> {
        (0..self.eigenvectors.rows())
            .map(|i| self.eigenvectors[(i, j)])
            .collect()
    }

    /// Returns the basis of the top `k` eigenvectors as a `d x k` matrix
    /// (columns are eigenvectors), i.e. the PCA projection matrix `A_{1:k}`.
    pub fn top_k_basis(&self, k: usize) -> Matrix {
        let d = self.eigenvectors.rows();
        assert!(
            k <= d,
            "requested {k} components from a {d}-dimensional decomposition"
        );
        let mut basis = Matrix::zeros(d, k);
        for i in 0..d {
            for j in 0..k {
                basis[(i, j)] = self.eigenvectors[(i, j)];
            }
        }
        basis
    }
}

/// Maximum number of full Jacobi sweeps before giving up. Convergence for
/// well-conditioned covariance matrices typically takes 6–12 sweeps.
const MAX_SWEEPS: usize = 48;

/// Off-diagonal Frobenius-norm threshold (relative to the matrix norm) at
/// which we declare convergence. PCA only needs the leading subspace to a
/// few decimal digits, so this is deliberately loose.
const CONVERGENCE_EPS: f64 = 1e-9;

/// Computes the eigendecomposition of a symmetric matrix with cyclic Jacobi
/// rotations.
///
/// # Panics
/// Panics if the matrix is not square. Symmetry is assumed (only the upper
/// triangle drives the rotations); passing a non-symmetric matrix yields the
/// decomposition of its symmetric part.
pub fn symmetric_eigen(matrix: &Matrix) -> EigenDecomposition {
    let n = matrix.rows();
    assert_eq!(
        n,
        matrix.cols(),
        "eigendecomposition requires a square matrix"
    );

    // Work in f64. `a` is the matrix being diagonalized, `v` accumulates the
    // rotations (columns end up as eigenvectors).
    let mut a: Vec<f64> = matrix.as_slice().iter().map(|&x| f64::from(x)).collect();
    // Symmetrize defensively so tiny asymmetries from f32 covariance
    // accumulation cannot stall convergence.
    for i in 0..n {
        for j in (i + 1)..n {
            let s = 0.5 * (a[i * n + j] + a[j * n + i]);
            a[i * n + j] = s;
            a[j * n + i] = s;
        }
    }
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let norm: f64 = a
        .iter()
        .map(|x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);

    for _sweep in 0..MAX_SWEEPS {
        let mut off: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i * n + j] * a[i * n + j];
            }
        }
        if off.sqrt() <= CONVERGENCE_EPS * norm {
            break;
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                // Classic Jacobi rotation angle selection.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // A <- Jᵀ A J applied to rows/cols p and q.
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                // Accumulate the rotation into V.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Extract, sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let eigs: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
    order.sort_by(|&x, &y| eigs[y].partial_cmp(&eigs[x]).expect("eigenvalue NaN"));

    let mut eigenvalues = Vec::with_capacity(n);
    let mut eigenvectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        eigenvalues.push(eigs[src] as f32);
        for i in 0..n {
            eigenvectors[(i, dst)] = v[i * n + src] as f32;
        }
    }

    EigenDecomposition {
        eigenvalues,
        eigenvectors,
    }
}

/// Upper bound on block-power iterations; the convergence test below
/// normally stops well short of it.
const TOPK_MAX_ITERS: usize = 20;

/// Block-power iterations stop once one more multiplication by the matrix
/// raises the variance captured by the subspace, `Σ qᵢᵀ A qᵢ`, by less than
/// this fraction of it. PCA consumes the subspace, not individual vectors,
/// and the captured variance is what a slower convergence would still add.
const TOPK_CAPTURE_TOL: f64 = 1e-4;

/// Computes the top-`k` eigenpairs of a symmetric PSD matrix by subspace
/// (block power) iteration followed by a Rayleigh–Ritz step —
/// `O(k · d² · iters)` instead of Jacobi's `O(d³ · sweeps)`, which matters
/// when `k ≪ d` (PCA keeping 64 of 768 dimensions, the Flash configuration).
///
/// The `d²`-sized products run in `f32` on [`simdops::gemm_nt`]; only the
/// final `k × k` eigenproblem goes through the `f64` Jacobi solver. The
/// result is a deterministic function of `(matrix, k, seed)` at a given
/// SIMD dispatch level.
///
/// Also returns the matrix trace, which equals the *total* eigenvalue mass
/// and lets callers compute cumulative-variance fractions without the full
/// spectrum.
///
/// # Panics
/// Panics if the matrix is not square or `k` is zero or exceeds the
/// dimension.
pub fn symmetric_eigen_topk(matrix: &Matrix, k: usize, seed: u64) -> (EigenDecomposition, f64) {
    let n = matrix.rows();
    assert_eq!(
        n,
        matrix.cols(),
        "eigendecomposition requires a square matrix"
    );
    assert!(k >= 1 && k <= n, "k must be in 1..=n");

    let a = matrix.as_slice();
    let trace: f64 = (0..n).map(|i| f64::from(a[i * n + i])).sum();

    // Working basis, one vector per row (`k × n`), randomly initialized then
    // orthonormalized.
    let mut rng_state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(13);
    let mut next = move || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((rng_state >> 33) as f64) / (1u64 << 31) as f64 - 1.0) as f32
    };
    let mut q: Vec<f32> = (0..k * n).map(|_| next()).collect();
    orthonormalize(&mut q, n);

    // Each pass computes Z = Q·A (row i is A·qᵢ, A being symmetric) and
    // re-orthonormalizes it into the next Q. The loop leaves Z = Q·A for
    // the Q it returns.
    let mut z = vec![0.0f32; k * n];
    let mut captured_before = 0.0f64;
    for iter in 0..=TOPK_MAX_ITERS {
        simdops::gemm_nt(&q, a, n, &mut z);
        let captured: f64 = q
            .chunks_exact(n)
            .zip(z.chunks_exact(n))
            .map(|(qi, zi)| f64::from(simdops::inner_product(qi, zi)))
            .sum();
        let converged = iter > 0 && captured - captured_before <= TOPK_CAPTURE_TOL * captured;
        if converged || iter == TOPK_MAX_ITERS {
            break;
        }
        captured_before = captured;
        std::mem::swap(&mut q, &mut z);
        orthonormalize(&mut q, n);
    }

    // Rayleigh–Ritz: the eigenpairs of T = Q A Qᵀ (k × k) are the best
    // approximations the converged subspace holds; rotate Q onto them.
    let mut t = vec![0.0f32; k * k];
    simdops::gemm_nt(&q, &z, n, &mut t);
    let ritz = symmetric_eigen(&Matrix::from_vec(k, k, t));

    let mut eigenvectors = Matrix::zeros(n, k);
    let mut rotated = vec![0.0f32; n];
    for j in 0..k {
        rotated.fill(0.0);
        for (i, qi) in q.chunks_exact(n).enumerate() {
            let w = ritz.eigenvectors[(i, j)];
            for (r, &x) in rotated.iter_mut().zip(qi.iter()) {
                *r += w * x;
            }
        }
        for (row, &x) in rotated.iter().enumerate() {
            eigenvectors[(row, j)] = x;
        }
    }
    (
        EigenDecomposition {
            eigenvalues: ritz.eigenvalues,
            eigenvectors,
        },
        trace,
    )
}

/// A row whose norm falls by this factor while its predecessors are
/// projected out lay in their span, up to `f32` rounding.
const DEGENERATE_SHRINK: f32 = 1e-5;

/// Modified Gram–Schmidt over the rows of a `k × n` matrix. A row that
/// turns out to lie in the span of its predecessors (a rank-deficient
/// input) is restarted from a coordinate axis.
fn orthonormalize(rows: &mut [f32], n: usize) {
    let k = rows.len() / n;
    for j in 0..k {
        let (done, rest) = rows.split_at_mut(j * n);
        let row = &mut rest[..n];
        let mut before = simdops::norm_sq(row).sqrt();
        project_out(done, row);
        let mut norm = simdops::norm_sq(row).sqrt();
        // Some axis always survives: `j < n` orthonormal rows cannot span
        // all `n` coordinate axes.
        let mut axis = j;
        while norm <= DEGENERATE_SHRINK * before {
            row.fill(0.0);
            row[axis % n] = 1.0;
            axis += 1;
            before = 1.0;
            project_out(done, row);
            norm = simdops::norm_sq(row).sqrt();
        }
        let inv = 1.0 / norm;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Subtracts from `row` its components along each orthonormal row of `done`.
fn project_out(done: &[f32], row: &mut [f32]) {
    for prev in done.chunks_exact(row.len()) {
        let dot = simdops::inner_product(row, prev);
        for (x, &p) in row.iter_mut().zip(prev.iter()) {
            *x -= dot * p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(dec: &EigenDecomposition) -> Matrix {
        // V Λ Vᵀ
        let n = dec.eigenvalues.len();
        let mut lambda = Matrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = dec.eigenvalues[i];
        }
        dec.eigenvectors
            .matmul(&lambda)
            .matmul(&dec.eigenvectors.transpose())
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let dec = symmetric_eigen(&m);
        assert_eq!(dec.eigenvalues, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let dec = symmetric_eigen(&m);
        assert!((dec.eigenvalues[0] - 3.0).abs() < 1e-5);
        assert!((dec.eigenvalues[1] - 1.0).abs() < 1e-5);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0 = dec.eigenvector(0);
        assert!((v0[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((v0[0] - v0[1]).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 3.0, 0.0, 0.2],
            &[0.5, 0.0, 2.0, 0.1],
            &[0.0, 0.2, 0.1, 1.0],
        ]);
        let dec = symmetric_eigen(&m);
        let r = reconstruct(&dec);
        assert!(
            m.max_abs_diff(&r) < 1e-4,
            "reconstruction error too high: {:?}",
            r
        );
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 4.0, 0.5], &[1.0, 0.5, 3.0]]);
        let dec = symmetric_eigen(&m);
        let vtv = dec.eigenvectors.transpose().matmul(&dec.eigenvectors);
        let id = Matrix::identity(3);
        assert!(vtv.max_abs_diff(&id) < 1e-5);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let m = Matrix::from_rows(&[
            &[1.0, 0.3, 0.0, 0.0],
            &[0.3, 7.0, 0.1, 0.0],
            &[0.0, 0.1, 4.0, 0.2],
            &[0.0, 0.0, 0.2, 2.0],
        ]);
        let dec = symmetric_eigen(&m);
        for w in dec.eigenvalues.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn top_k_basis_shape() {
        let m = Matrix::identity(5);
        let dec = symmetric_eigen(&m);
        let b = dec.top_k_basis(2);
        assert_eq!(b.rows(), 5);
        assert_eq!(b.cols(), 2);
    }

    #[test]
    fn topk_matches_jacobi_on_leading_pairs() {
        let m = Matrix::from_rows(&[
            &[5.0, 2.0, 1.0, 0.0],
            &[2.0, 4.0, 0.5, 0.3],
            &[1.0, 0.5, 3.0, 0.1],
            &[0.0, 0.3, 0.1, 1.0],
        ]);
        let full = symmetric_eigen(&m);
        let (top, trace) = symmetric_eigen_topk(&m, 2, 7);
        assert!((trace - 13.0).abs() < 1e-9, "trace {trace}");
        for j in 0..2 {
            assert!(
                (top.eigenvalues[j] - full.eigenvalues[j]).abs() < 1e-2,
                "eigenvalue {j}: {} vs {}",
                top.eigenvalues[j],
                full.eigenvalues[j]
            );
            // Eigenvectors up to sign.
            let a = top.eigenvector(j);
            let b = full.eigenvector(j);
            let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!(
                dot.abs() > 0.99,
                "eigenvector {j} misaligned: |dot| = {}",
                dot.abs()
            );
        }
    }

    #[test]
    fn topk_basis_is_orthonormal() {
        let m = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.0], &[0.5, 0.0, 2.0]]);
        let (top, _) = symmetric_eigen_topk(&m, 3, 1);
        let vtv = top.eigenvectors.transpose().matmul(&top.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-4);
    }

    /// Planted spectrum in 768-d: `A = U Λ Uᵀ + ε·I` with `U` a random
    /// orthonormal 768 × 12 block. The solver must recover span(U) — checked
    /// by principal angles, whose squared cosines are the eigenvalues of
    /// `M Mᵀ` for `M = Uᵀ V` — and the planted eigenvalues.
    #[test]
    fn topk_recovers_planted_low_rank_subspace_in_768d() {
        let (n, rank) = (768usize, 12usize);
        // U: Gram–Schmidt (in f64) of `rank` pseudo-random columns.
        let mut state = 42u64;
        let mut cols: Vec<Vec<f64>> = (0..rank)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
                    })
                    .collect()
            })
            .collect();
        for c in 0..rank {
            for prev in 0..c {
                let (done, rest) = cols.split_at_mut(c);
                let dot: f64 = rest[0].iter().zip(&done[prev]).map(|(x, p)| x * p).sum();
                for (x, p) in rest[0].iter_mut().zip(&done[prev]) {
                    *x -= dot * p;
                }
            }
            let norm = cols[c].iter().map(|x| x * x).sum::<f64>().sqrt();
            cols[c].iter_mut().for_each(|x| *x /= norm);
        }
        let mut u = Matrix::zeros(n, rank);
        for (c, col) in cols.iter().enumerate() {
            for (i, &x) in col.iter().enumerate() {
                u[(i, c)] = x as f32;
            }
        }
        let lambda: Vec<f32> = (0..rank).map(|i| (rank - i) as f32).collect();
        let mut a = Matrix::zeros(n, n);
        for (c, &l) in lambda.iter().enumerate() {
            for i in 0..n {
                let li = l * u[(i, c)];
                for j in 0..n {
                    a[(i, j)] += li * u[(j, c)];
                }
            }
        }
        for i in 0..n {
            a[(i, i)] += 1e-3;
        }

        let (top, trace) = symmetric_eigen_topk(&a, rank, 9);
        let want_trace: f64 = lambda.iter().map(|&l| f64::from(l)).sum::<f64>() + 0.768;
        assert!((trace - want_trace).abs() < 1e-2, "trace {trace}");
        for (got, want) in top.eigenvalues.iter().zip(lambda.iter()) {
            assert!((got - (want + 1e-3)).abs() < 1e-3, "{got} vs {want}");
        }

        let mut m = Matrix::zeros(rank, rank);
        for r in 0..rank {
            for c in 0..rank {
                m[(r, c)] = (0..n).map(|i| u[(i, r)] * top.eigenvectors[(i, c)]).sum();
            }
        }
        let cos_sq = symmetric_eigen(&m.matmul(&m.transpose())).eigenvalues;
        let smallest = cos_sq.last().copied().expect("rank is positive");
        assert!(
            smallest > 0.9999,
            "largest principal angle too wide: cos² = {smallest}"
        );
    }

    /// More components requested than the matrix has rank: the surplus
    /// directions are arbitrary but the basis must stay orthonormal and the
    /// leading pairs exact.
    #[test]
    fn topk_survives_rank_below_k() {
        let v = [1.0f32, 2.0, 3.0, 4.0];
        let mut m = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                m[(i, j)] = v[i] * v[j];
            }
        }
        let (top, _) = symmetric_eigen_topk(&m, 3, 5);
        assert!((top.eigenvalues[0] - 30.0).abs() < 1e-3);
        assert!(top.eigenvalues[1].abs() < 1e-3 && top.eigenvalues[2].abs() < 1e-3);
        let vtv = top.eigenvectors.transpose().matmul(&top.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-4);
    }

    #[test]
    fn handles_rank_deficient_matrix() {
        // Rank-1: outer product of (1,2,3) with itself.
        let v = [1.0f32, 2.0, 3.0];
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                m[(i, j)] = v[i] * v[j];
            }
        }
        let dec = symmetric_eigen(&m);
        // One eigenvalue = |v|^2 = 14, others ~ 0.
        assert!((dec.eigenvalues[0] - 14.0).abs() < 1e-4);
        assert!(dec.eigenvalues[1].abs() < 1e-4);
        assert!(dec.eigenvalues[2].abs() < 1e-4);
    }
}
