use crate::{LinalgError, Mat};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// Used by the Gaussian-process regression baseline ([`maopt-bo`]) to factor
/// kernel matrices: solving with the factor is `O(n²)` per right-hand side and
/// the log-determinant falls out of the diagonal.
///
/// [`maopt-bo`]: ../maopt_bo/index.html
///
/// # Example
///
/// ```
/// use maopt_linalg::{Cholesky, Mat};
///
/// # fn main() -> Result<(), maopt_linalg::LinalgError> {
/// let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// // Verify A x = b
/// assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cholesky {
    /// Lower-triangular factor `L`, packed by rows: `L[i, ..=i]` starts at
    /// offset `i·(i+1)/2`.
    l: Vec<f64>,
    /// Dimension `n` of the factored matrix.
    n: usize,
}

/// Offset of row `i` in the packed lower triangle.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Right-hand sides [`Cholesky::solve_many`] carries through one
    /// substitution pass together.
    pub const BLOCK: usize = 16;

    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed, not
    /// verified. This is [`Cholesky::push_row`] applied to each row of `a`
    /// in turn.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is
    /// non-positive, and [`LinalgError::DimensionMismatch`] for a non-square
    /// input.
    pub fn new(a: &Mat) -> Result<Self, LinalgError> {
        let n = a.require_square()?;
        let mut ch = Cholesky {
            l: Vec::with_capacity(row_start(n)),
            n: 0,
        };
        for i in 0..n {
            ch.push_row(&a.row(i)[..=i])?;
        }
        Ok(ch)
    }

    /// Grows the factor of the `n × n` matrix `A` to the factor of the
    /// `(n+1) × (n+1)` matrix whose leading block is `A` and whose last
    /// row is `row = A[n, ..=n]`, in `O(n²)`.
    ///
    /// Row `n` of `L` depends only on `row` and the rows before it
    /// (Cholesky–Banachiewicz order), so growing a factor one row at a time
    /// gives bit for bit the factor [`Cholesky::new`] computes for the
    /// whole matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] with `index = n` if the
    /// new diagonal pivot is non-positive, and
    /// [`LinalgError::DimensionMismatch`] if `row.len() != n + 1`. The
    /// factor is left unchanged on error.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        let i = self.n;
        if row.len() != i + 1 {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("row of length {}", i + 1),
                found: format!("length {}", row.len()),
            });
        }
        let start = self.l.len();
        self.l.extend_from_slice(row);
        let (done, new) = self.l.split_at_mut(start);
        for j in 0..i {
            let lj = &done[row_start(j)..row_start(j) + j + 1];
            let sum = new[..j]
                .iter()
                .zip(lj)
                .fold(new[j], |sum, (lik, ljk)| sum - lik * ljk);
            new[j] = sum / lj[j];
        }
        let pivot = new[..i].iter().fold(new[i], |sum, lik| sum - lik * lik);
        if pivot <= 0.0 || !pivot.is_finite() {
            self.l.truncate(start);
            return Err(LinalgError::NotPositiveDefinite { index: i });
        }
        new[i] = pivot.sqrt();
        self.n += 1;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor `L`, as a dense copy.
    pub fn factor(&self) -> Mat {
        Mat::from_fn(self.n, self.n, |i, j| {
            if j <= i {
                self.l[row_start(i) + j]
            } else {
                0.0
            }
        })
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_many(&mut x, 1)?;
        Ok(x)
    }

    /// Solves `A·X = B` in place for `width` right-hand sides.
    ///
    /// `rhs` is the row-major `n × width` matrix `B`: column `c` is one
    /// right-hand side, and it holds the solution on return. Columns are
    /// solved [`Cholesky::BLOCK`] at a time, with the innermost loop running
    /// across the block, so the independent substitution chains overlap
    /// instead of waiting on one another. Every column is computed with the
    /// same operations in the same order as [`Cholesky::solve`], so each
    /// equals `solve` of that column bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `rhs.len() != self.dim() * width`.
    pub fn solve_many(&self, rhs: &mut [f64], width: usize) -> Result<(), LinalgError> {
        let n = self.n;
        if rhs.len() != n * width {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{n}×{width} right-hand sides ({} values)", n * width),
                found: format!("{} values", rhs.len()),
            });
        }
        let blocked = width - width % Self::BLOCK;
        for col in (0..blocked).step_by(Self::BLOCK) {
            self.solve_lanes::<{ Self::BLOCK }>(rhs, width, col);
        }
        for col in blocked..width {
            self.solve_lanes::<1>(rhs, width, col);
        }
        Ok(())
    }

    /// Forward then backward substitution for the `W` right-hand sides in
    /// columns `col..col + W` of the row-major `n × stride` block `x`.
    ///
    /// For each column, row `i` of the forward pass is
    /// `(b[i] − Σ_{j<i} L[i,j]·y[j]) / L[i,i]` and of the backward pass
    /// `(y[i] − Σ_{j>i} L[j,i]·x[j]) / L[i,i]`, both summed in ascending `j`.
    fn solve_lanes<const W: usize>(&self, x: &mut [f64], stride: usize, col: usize) {
        let n = self.n;
        // Forward: L·Y = B.
        for i in 0..n {
            let li = &self.l[row_start(i)..row_start(i) + i + 1];
            let (done, rest) = x.split_at_mut(i * stride);
            let xi = &mut rest[col..col + W];
            let mut acc = [0.0; W];
            acc.copy_from_slice(xi);
            for (lij, yj) in li[..i].iter().zip(done.chunks_exact(stride)) {
                let yj = &yj[col..col + W];
                for c in 0..W {
                    acc[c] -= lij * yj[c];
                }
            }
            for c in 0..W {
                xi[c] = acc[c] / li[i];
            }
        }
        // Backward: Lᵀ·X = Y, reading column i of L below the diagonal.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * stride);
            let xi = &mut head[i * stride + col..i * stride + col + W];
            let mut acc = [0.0; W];
            acc.copy_from_slice(xi);
            let mut lji = row_start(i + 1) + i;
            for (j, xj) in (i + 1..n).zip(tail.chunks_exact(stride)) {
                let l = self.l[lji];
                let xj = &xj[col..col + W];
                for c in 0..W {
                    acc[c] -= l * xj[c];
                }
                lji += j + 1;
            }
            let lii = self.l[row_start(i) + i];
            for c in 0..W {
                xi[c] = acc[c] / lii;
            }
        }
    }

    /// Log-determinant of the original matrix: `2·Σ log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[row_start(i) + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Mat {
        // A = Bᵀ B + I is SPD for any B.
        let b = Mat::from_rows(&[&[1.0, 2.0, 0.0], &[0.5, -1.0, 2.0], &[3.0, 0.0, 1.0]]);
        let mut a = b.transpose().matmul(&b);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        let recon = l.matmul(&l.transpose());
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd3();
        let b = [1.0, -2.0, 0.5];
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::Lu::new(a).unwrap().solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd3();
        let ld = Cholesky::new(&a).unwrap().log_det();
        let det = crate::Lu::new(a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn solve_checks_rhs_length() {
        let ch = Cholesky::new(&Mat::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }
}
