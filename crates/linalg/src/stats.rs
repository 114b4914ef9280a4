//! Sample statistics over row-major sample matrices.
//!
//! A "sample matrix" here is a [`Matrix`] whose rows are observations
//! (database vectors) and whose columns are features (vector dimensions) —
//! the layout Section 3.3.2 of the paper uses when deriving the covariance
//! matrix `Σ = (1/n) Ṡᵀ Ṡ` of the centered data `Ṡ`.

use crate::matrix::Matrix;

/// Computes the per-dimension mean `ū = (1/n) Σ uᵢ` of the sample rows.
///
/// # Panics
/// Panics if the matrix has zero rows.
pub fn mean_vector(samples: &Matrix) -> Vec<f32> {
    mean_of_rows(samples.as_slice(), samples.cols())
}

/// [`mean_vector`] over a borrowed row-major buffer of `d`-float rows.
///
/// # Panics
/// Panics if `rows` is empty or not whole rows.
pub fn mean_of_rows(rows: &[f32], d: usize) -> Vec<f32> {
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(d),
        "mean of an empty or ragged sample"
    );
    let n = rows.len() / d;
    let mut acc = vec![0.0f64; d];
    for row in rows.chunks_exact(d) {
        for (a, &x) in acc.iter_mut().zip(row.iter()) {
            *a += f64::from(x);
        }
    }
    acc.into_iter().map(|a| (a / n as f64) as f32).collect()
}

/// Centers the samples in place by subtracting `mean` from every row.
///
/// # Panics
/// Panics if `mean.len()` does not match the column count.
pub fn center_rows(samples: &mut Matrix, mean: &[f32]) {
    assert_eq!(mean.len(), samples.cols(), "mean dimensionality mismatch");
    for i in 0..samples.rows() {
        for (x, &m) in samples.row_mut(i).iter_mut().zip(mean.iter()) {
            *x -= m;
        }
    }
}

/// Computes the `d x d` covariance matrix `Σ = (1/n) Ṡᵀ Ṡ` of the samples,
/// centering internally (the input is not modified).
///
/// # Panics
/// Panics if the matrix has zero rows.
pub fn covariance(samples: &Matrix) -> Matrix {
    let mean = mean_vector(samples);
    covariance_about(samples.as_slice(), &mean)
}

/// Rows transposed per [`covariance_about`] block: bounds the centered,
/// transposed copy at `d × 1024` floats however large the sample is.
const COV_BLOCK_ROWS: usize = 1024;

/// Covariance of borrowed row-major `rows` about a `mean` already computed
/// (its length is the dimensionality).
///
/// `Ṡᵀ Ṡ` is a product of the centered sample with itself along the sample
/// axis, so each block of rows is centered and transposed into `d × block`
/// and multiplied on [`simdops::gemm_nt`] — `f32` accumulation, ample for
/// PCA, which consumes covariance entries far below 24 bits. Both triangles
/// come out of the same dot product with its operands swapped, so the result
/// is exactly symmetric.
///
/// # Panics
/// Panics if `rows` is empty or not whole rows of `mean.len()` floats.
pub fn covariance_about(rows: &[f32], mean: &[f32]) -> Matrix {
    let d = mean.len();
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(d),
        "covariance of an empty or ragged sample"
    );
    let n = rows.len() / d;
    let mut acc = vec![0.0f32; d * d];
    let mut product = vec![0.0f32; d * d];
    let mut transposed = vec![0.0f32; d * COV_BLOCK_ROWS.min(n)];
    for block in rows.chunks(COV_BLOCK_ROWS * d) {
        let len = block.len() / d;
        let columns = &mut transposed[..d * len];
        for (i, row) in block.chunks_exact(d).enumerate() {
            for (j, (&x, &m)) in row.iter().zip(mean.iter()).enumerate() {
                columns[j * len + i] = x - m;
            }
        }
        simdops::gemm_nt(columns, columns, len, &mut product);
        for (a, &p) in acc.iter_mut().zip(product.iter()) {
            *a += p;
        }
    }
    let inv_n = 1.0 / n as f32;
    for a in &mut acc {
        *a *= inv_n;
    }
    Matrix::from_vec(d, d, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_rows() {
        let m = Matrix::from_rows(&[&[2.0, 4.0], &[2.0, 4.0], &[2.0, 4.0]]);
        assert_eq!(mean_vector(&m), vec![2.0, 4.0]);
    }

    #[test]
    fn center_rows_zeroes_the_mean() {
        let mut m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]);
        let mean = mean_vector(&m);
        center_rows(&mut m, &mean);
        let new_mean = mean_vector(&m);
        for x in new_mean {
            assert!(x.abs() < 1e-6);
        }
    }

    #[test]
    fn covariance_of_decorrelated_axes() {
        // x-axis varies with variance 1 (population), y fixed.
        let m = Matrix::from_rows(&[&[-1.0, 5.0], &[1.0, 5.0]]);
        let cov = covariance(&m);
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(cov[(0, 1)].abs() < 1e-6);
        assert!(cov[(1, 0)].abs() < 1e-6);
        assert!(cov[(1, 1)].abs() < 1e-6);
    }

    #[test]
    fn covariance_is_symmetric() {
        let m = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[-1.0, 0.0, 2.5],
            &[0.3, -2.0, 1.0],
            &[4.0, 1.0, -1.0],
        ]);
        let cov = covariance(&m);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(cov[(i, j)], cov[(j, i)]);
            }
        }
    }

    #[test]
    fn covariance_captures_correlation_sign() {
        // y = x exactly: positive off-diagonal.
        let m = Matrix::from_rows(&[&[-1.0, -1.0], &[0.0, 0.0], &[1.0, 1.0]]);
        let cov = covariance(&m);
        assert!(cov[(0, 1)] > 0.0);
        assert!((cov[(0, 0)] - cov[(0, 1)]).abs() < 1e-6);
    }
}
