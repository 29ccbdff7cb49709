//! Dense matrices over GF(256).
//!
//! Only what the erasure codec needs: construction (zero, identity,
//! Vandermonde), multiplication, row extraction, and Gauss–Jordan
//! inversion.  Matrices are small (at most 255×255) so a dense row-major
//! `Vec<Gf256>` is the right representation; no sparse cleverness.

use sharqfec_gf256::Gf256;

/// A dense row-major matrix over GF(256).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl core::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    /// A dimensionless (0 × 0) placeholder, the initial state of reusable
    /// scratch matrices; give it a shape with [`Matrix::reset`] before use.
    fn default() -> Matrix {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// The identity matrix of the given size.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major nested slice (for tests and docs).
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[u8]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut m = Matrix::zero(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = Gf256(v);
            }
        }
        m
    }

    /// The `rows x cols` Vandermonde matrix with evaluation points
    /// `x_r = α^r`: entry `(r, c) = x_r ^ c`.
    ///
    /// Every square submatrix formed by choosing any `cols` *rows* is
    /// invertible because the `x_r` are pairwise distinct — the property the
    /// erasure code's "any k of n" guarantee rests on.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 255` (the points would repeat) or dims are zero.
    pub fn vandermonde(rows: usize, cols: usize) -> Matrix {
        assert!(
            rows <= 255,
            "at most 255 distinct evaluation points exist in GF(256)*"
        );
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            let x = Gf256::alpha_pow(r);
            for c in 0..cols {
                m[(r, c)] = x.pow(c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A new matrix consisting of the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::default();
        m.select_rows_into(self, indices);
        m
    }

    /// Reshapes this matrix in place to `rows × cols` with every entry
    /// zeroed, reusing the existing allocation when its capacity suffices.
    /// This is what lets decode scratch buffers go allocation-free once
    /// they have seen their largest shape.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Gf256::ZERO);
    }

    /// Overwrites `self` with the selected rows of `src`, in order,
    /// reusing `self`'s storage.
    pub fn select_rows_into(&mut self, src: &Matrix, indices: &[usize]) {
        self.reset(indices.len(), src.cols);
        for (dst, &s) in indices.iter().enumerate() {
            self.data[dst * self.cols..(dst + 1) * self.cols].copy_from_slice(src.row(s));
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    let add = a * rhs[(k, c)];
                    out[(r, c)] += add;
                }
            }
        }
        out
    }

    /// Gauss–Jordan inverse.  Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        let mut a = self.clone();
        let mut inv = Matrix::default();
        a.invert_into(&mut inv).then_some(inv)
    }

    /// Allocation-reusing Gauss–Jordan: reduces `self` in place (leaving it
    /// as the identity on success) and writes the inverse into `inv`, whose
    /// storage is reused.  Returns `false` if `self` is singular, in which
    /// case both matrices hold partially-reduced garbage.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn invert_into(&mut self, inv: &mut Matrix) -> bool {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        inv.reset(n, n);
        for i in 0..n {
            inv[(i, i)] = Gf256::ONE;
        }
        for col in 0..n {
            // Find a pivot: any nonzero entry works (exact field arithmetic,
            // no numerical-stability concerns).
            let Some(pivot_row) = (col..n).find(|&r| !self[(r, col)].is_zero()) else {
                return false;
            };
            if pivot_row != col {
                self.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            let pivot = self[(col, col)];
            let pinv = pivot.inverse().expect("pivot chosen nonzero");
            self.scale_row(col, pinv);
            inv.scale_row(col, pinv);
            for r in 0..n {
                if r != col {
                    let factor = self[(r, col)];
                    if !factor.is_zero() {
                        self.add_scaled_row(col, r, factor);
                        inv.add_scaled_row(col, r, factor);
                    }
                }
            }
        }
        true
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= factor;
        }
    }

    /// `row[dst] += factor * row[src]` (subtraction == addition in GF(2^8)).
    fn add_scaled_row(&mut self, src: usize, dst: usize, factor: Gf256) {
        for c in 0..self.cols {
            let add = factor * self[(src, c)];
            self[(dst, c)] += add;
        }
    }

    /// Entries the storage holds without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether this matrix is the identity.
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        (0..self.rows).all(|r| {
            (0..self.cols).all(|c| self[(r, c)] == if r == c { Gf256::ONE } else { Gf256::ZERO })
        })
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_that_thing() {
        let m = Matrix::vandermonde(5, 3);
        let id = Matrix::identity(5);
        assert_eq!(id.mul(&m), m);
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let id = Matrix::identity(7);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn inverse_round_trips() {
        let m = Matrix::vandermonde(6, 6);
        let inv = m.inverse().expect("square Vandermonde inverts");
        assert!(m.mul(&inv).is_identity());
        assert!(inv.mul(&m).is_identity());
    }

    #[test]
    fn singular_matrix_returns_none() {
        // Two identical rows.
        let m = Matrix::from_rows(&[&[1, 2, 3], &[1, 2, 3], &[0, 1, 0]]);
        assert!(m.inverse().is_none());
        // All-zero matrix.
        assert!(Matrix::zero(4, 4).inverse().is_none());
    }

    #[test]
    fn inverse_requires_pivot_search_with_leading_zero() {
        // Leading zero forces a row swap in Gauss-Jordan.
        let m = Matrix::from_rows(&[&[0, 1], &[1, 0]]);
        let inv = m.inverse().unwrap();
        assert!(m.mul(&inv).is_identity());
    }

    #[test]
    fn vandermonde_row_entries_are_powers() {
        let m = Matrix::vandermonde(4, 3);
        for r in 0..4 {
            let x = Gf256::alpha_pow(r);
            for c in 0..3 {
                assert_eq!(m[(r, c)], x.pow(c));
            }
        }
    }

    #[test]
    fn every_square_row_selection_of_vandermonde_inverts() {
        // The core guarantee behind "any k of n": exhaustively verify for a
        // small group.
        let n = 8;
        let k = 3;
        let v = Matrix::vandermonde(n, k);
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let sub = v.select_rows(&[a, b, c]);
                    assert!(
                        sub.inverse().is_some(),
                        "rows {a},{b},{c} should be independent"
                    );
                }
            }
        }
    }

    #[test]
    fn invert_into_reuses_buffers_across_shapes() {
        let mut scratch = Matrix::default();
        let mut inv = Matrix::default();
        for n in [6usize, 3, 5] {
            let m = Matrix::vandermonde(n, n);
            scratch.select_rows_into(&m, &(0..n).collect::<Vec<_>>());
            assert!(scratch.invert_into(&mut inv));
            assert!(m.mul(&inv).is_identity(), "n={n}");
        }
        // Singular input reports failure through the same path.
        let singular = Matrix::from_rows(&[&[1, 2], &[1, 2]]);
        scratch.select_rows_into(&singular, &[0, 1]);
        assert!(!scratch.invert_into(&mut inv));
    }

    #[test]
    fn select_rows_preserves_content_and_order() {
        let m = Matrix::vandermonde(5, 4);
        let s = m.select_rows(&[4, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), m.row(4));
        assert_eq!(s.row(1), m.row(0));
        assert_eq!(s.row(2), m.row(2));
    }

    #[test]
    fn multiplication_agrees_with_hand_example() {
        // Over GF(2^8): [[1,2],[3,4]] * [[5],[6]]
        let a = Matrix::from_rows(&[&[1, 2], &[3, 4]]);
        let b = Matrix::from_rows(&[&[5], &[6]]);
        let p = a.mul(&b);
        assert_eq!(p[(0, 0)], Gf256(1) * Gf256(5) + Gf256(2) * Gf256(6));
        assert_eq!(p[(1, 0)], Gf256(3) * Gf256(5) + Gf256(4) * Gf256(6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_multiplication_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    #[should_panic(expected = "only square")]
    fn non_square_inverse_panics() {
        let _ = Matrix::zero(2, 3).inverse();
    }

    #[test]
    fn debug_render_contains_dimensions() {
        let s = format!("{:?}", Matrix::identity(2));
        assert!(s.contains("Matrix(2x2)"));
    }
}
