//! Dense matrices over a prime field, with naive and Strassen
//! multiplication.
//!
//! The paper's per-node evaluation algorithms (§4.2, §5.3, §10.2) reduce to
//! a constant number of `N × N` matrix multiplications per term, so matrix
//! multiplication with a nontrivial exponent `ω < 3` is the engine of every
//! polynomial-time result. We substitute Strassen (`ω = log2 7 ≈ 2.807`)
//! for the Le Gall tensor the paper cites — every claim is parameterized by
//! the bilinear rank bound, so the code path is identical.

use camelot_ff::PrimeField;

/// Operand size at or below which multiplication stays naive.
const STRASSEN_THRESHOLD: usize = 64;

/// A dense row-major matrix over `Z_q`.
///
/// # Examples
///
/// ```
/// use camelot_ff::PrimeField;
/// use camelot_linalg::Matrix;
///
/// let f = PrimeField::new(97)?;
/// let a = Matrix::from_fn(2, 2, |i, j| (i + j) as u64);
/// let id = Matrix::identity(2);
/// assert_eq!(a.mul(&f, &id), a);
/// # Ok::<(), camelot_ff::FieldError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// All-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Builds entries from a function of `(row, col)`. Values must already
    /// be reduced.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> u64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets entry at `(i, j)` (pass a reduced value).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: u64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Raw row-major data.
    #[must_use]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| field.add(a, b)).collect(),
        }
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn sub(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| field.sub(a, b)).collect(),
        }
    }

    /// Entrywise (Hadamard) product — the `χ ∘ H(r)` masking steps of the
    /// clique circuit (§4.2).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| field.mul(a, b)).collect(),
        }
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self, field: &PrimeField) -> u64 {
        self.data.iter().fold(0, |acc, &v| field.add(acc, v))
    }

    /// Trace (square matrices).
    ///
    /// # Panics
    ///
    /// Panics if not square.
    #[must_use]
    pub fn trace(&self, field: &PrimeField) -> u64 {
        assert_eq!(self.rows, self.cols, "trace of a non-square matrix");
        (0..self.rows).fold(0, |acc, i| field.add(acc, self.data[i * self.cols + i]))
    }

    /// Matrix product, dispatching to Strassen for large square
    /// power-of-two operands and to the naive kernel otherwise.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    #[must_use]
    pub fn mul(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let n = self.rows;
        if n == self.cols && n == other.cols && n > STRASSEN_THRESHOLD && n.is_power_of_two() {
            return self.mul_strassen(field, other);
        }
        self.mul_naive(field, other)
    }

    /// Schoolbook product (kept public for baselines and tests).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    #[must_use]
    pub fn mul_naive(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // lint:hot-begin(matrix-mul-naive) — the schoolbook inner loop
        // every Strassen base case bottoms out in: Barrett `mul_add`, no
        // `%`, no clones, no allocation.
        for i in 0..self.rows {
            let row_o = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0 {
                    continue;
                }
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_o.iter_mut().zip(row_b) {
                    *o = field.mul_add(*o, a, b);
                }
            }
        }
        // lint:hot-end
        out
    }

    /// Strassen product for square power-of-two operands (public for the
    /// op-count experiments; [`Matrix::mul`] dispatches automatically).
    ///
    /// # Panics
    ///
    /// Panics unless both operands are square with the same power-of-two
    /// size.
    #[must_use]
    pub fn mul_strassen(&self, field: &PrimeField, other: &Matrix) -> Matrix {
        let n = self.rows;
        assert!(
            self.cols == n && other.rows == n && other.cols == n && n.is_power_of_two(),
            "Strassen requires square power-of-two operands"
        );
        if n <= STRASSEN_THRESHOLD {
            return self.mul_naive(field, other);
        }
        let h = n / 2;
        let (a11, a12, a21, a22) = self.quadrants();
        let (b11, b12, b21, b22) = other.quadrants();
        let m1 = a11.add(field, &a22).mul_strassen(field, &b11.add(field, &b22));
        let m2 = a21.add(field, &a22).mul_strassen(field, &b11);
        let m3 = a11.mul_strassen(field, &b12.sub(field, &b22));
        let m4 = a22.mul_strassen(field, &b21.sub(field, &b11));
        let m5 = a11.add(field, &a12).mul_strassen(field, &b22);
        let m6 = a21.sub(field, &a11).mul_strassen(field, &b11.add(field, &b12));
        let m7 = a12.sub(field, &a22).mul_strassen(field, &b21.add(field, &b22));
        let c11 = m1.add(field, &m4).sub(field, &m5).add(field, &m7);
        let c12 = m3.add(field, &m5);
        let c21 = m2.add(field, &m4);
        let c22 = m1.sub(field, &m2).add(field, &m3).add(field, &m6);
        Matrix::assemble(h, &c11, &c12, &c21, &c22)
    }

    /// Zero-pads to a larger shape (top-left corner keeps the data).
    ///
    /// # Panics
    ///
    /// Panics if the new shape is smaller.
    #[must_use]
    pub fn pad_to(&self, rows: usize, cols: usize) -> Matrix {
        assert!(rows >= self.rows && cols >= self.cols, "pad_to cannot shrink");
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..self.rows {
            out.data[i * cols..i * cols + self.cols]
                .copy_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
        out
    }

    fn quadrants(&self) -> (Matrix, Matrix, Matrix, Matrix) {
        let h = self.rows / 2;
        let block = |r0: usize, c0: usize| {
            let mut m = Matrix::zeros(h, h);
            for i in 0..h {
                let src = (r0 + i) * self.cols + c0;
                m.data[i * h..(i + 1) * h].copy_from_slice(&self.data[src..src + h]);
            }
            m
        };
        (block(0, 0), block(0, h), block(h, 0), block(h, h))
    }

    fn assemble(h: usize, c11: &Matrix, c12: &Matrix, c21: &Matrix, c22: &Matrix) -> Matrix {
        let n = 2 * h;
        let mut out = Matrix::zeros(n, n);
        for i in 0..h {
            out.data[i * n..i * n + h].copy_from_slice(&c11.data[i * h..(i + 1) * h]);
            out.data[i * n + h..(i + 1) * n].copy_from_slice(&c12.data[i * h..(i + 1) * h]);
            out.data[(h + i) * n..(h + i) * n + h].copy_from_slice(&c21.data[i * h..(i + 1) * h]);
            out.data[(h + i) * n + h..(h + i + 1) * n]
                .copy_from_slice(&c22.data[i * h..(i + 1) * h]);
        }
        out
    }
}

/// `out = X · Yᵀ` on row-major slices: `x` is `rows × inner`, `y` is
/// `cols × inner`, `out` is `rows × cols`. Every entry is the dot product
/// of two contiguous rows ([`PrimeField::dot`]: one Barrett reduction per
/// eight products), so a product against a transposed operand needs
/// neither the transposed copy nor an output allocation — the form the
/// `(6 2)`-circuit's per-point term uses six times.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn mul_transposed_into(
    field: &PrimeField,
    x: &[u64],
    y: &[u64],
    inner: usize,
    out: &mut [u64],
) {
    assert!(inner > 0, "inner dimension must be positive");
    assert!(x.len().is_multiple_of(inner) && y.len().is_multiple_of(inner), "ragged operand");
    let cols = y.len() / inner;
    assert_eq!(out.len(), x.len() / inner * cols, "output shape mismatch");
    // lint:hot-begin(matrix-mul-transposed)
    for (row_x, row_o) in x.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (row_y, o) in y.chunks_exact(inner).zip(row_o) {
            *o = field.dot(row_x, row_y);
        }
    }
    // lint:hot-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_ff::{RngLike, SplitMix64};

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    fn random_matrix(field: &PrimeField, r: usize, c: usize, rng: &mut SplitMix64) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.next_u64() % field.modulus())
    }

    #[test]
    fn identity_is_neutral() {
        let field = f();
        let mut rng = SplitMix64::new(1);
        let a = random_matrix(&field, 5, 5, &mut rng);
        assert_eq!(a.mul(&field, &Matrix::identity(5)), a);
        assert_eq!(Matrix::identity(5).mul(&field, &a), a);
    }

    #[test]
    fn naive_mul_small_known() {
        let field = f();
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as u64);
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j + 1) as u64);
        let c = a.mul_naive(&field, &b);
        assert_eq!(c.get(0, 0), 22);
        assert_eq!(c.get(0, 1), 28);
        assert_eq!(c.get(1, 0), 49);
        assert_eq!(c.get(1, 1), 64);
    }

    #[test]
    fn strassen_matches_naive() {
        let field = f();
        let mut rng = SplitMix64::new(2);
        for n in [128usize, 256] {
            let a = random_matrix(&field, n, n, &mut rng);
            let b = random_matrix(&field, n, n, &mut rng);
            assert_eq!(a.mul_strassen(&field, &b), a.mul_naive(&field, &b), "n = {n}");
        }
    }

    #[test]
    fn transposed_product_matches_naive() {
        let field = f();
        let mut rng = SplitMix64::new(7);
        for (r, inner, c) in
            [(1usize, 1usize, 1usize), (4, 4, 4), (8, 8, 8), (3, 17, 5), (9, 64, 2)]
        {
            let a = random_matrix(&field, r, inner, &mut rng);
            let b = random_matrix(&field, c, inner, &mut rng);
            let mut out = vec![u64::MAX; r * c];
            mul_transposed_into(&field, a.data(), b.data(), inner, &mut out);
            assert_eq!(
                out,
                a.mul_naive(&field, &b.transpose()).data(),
                "{r}x{inner} · ({c}x{inner})ᵀ"
            );
        }
    }

    #[test]
    fn mul_dispatch_handles_rectangles() {
        let field = f();
        let mut rng = SplitMix64::new(3);
        let a = random_matrix(&field, 3, 70, &mut rng);
        let b = random_matrix(&field, 70, 9, &mut rng);
        let c = a.mul(&field, &b);
        assert_eq!((c.rows(), c.cols()), (3, 9));
        assert_eq!(c, a.mul_naive(&field, &b));
    }

    #[test]
    fn add_sub_hadamard_are_entrywise() {
        let field = f();
        let mut rng = SplitMix64::new(4);
        let a = random_matrix(&field, 4, 6, &mut rng);
        let b = random_matrix(&field, 4, 6, &mut rng);
        let s = a.add(&field, &b);
        assert_eq!(s.sub(&field, &b), a);
        let h = a.hadamard(&field, &b);
        assert_eq!(h.get(2, 3), field.mul(a.get(2, 3), b.get(2, 3)));
    }

    #[test]
    fn transpose_involution_and_product_rule() {
        let field = f();
        let mut rng = SplitMix64::new(5);
        let a = random_matrix(&field, 4, 7, &mut rng);
        let b = random_matrix(&field, 7, 3, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.mul(&field, &b).transpose(), b.transpose().mul(&field, &a.transpose()));
    }

    #[test]
    fn trace_and_sum() {
        let field = f();
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as u64);
        assert_eq!(a.trace(&field), 4 + 8);
        assert_eq!(a.sum(&field), (0..9).sum::<u64>());
    }

    #[test]
    fn pad_preserves_topleft() {
        let field = f();
        let mut rng = SplitMix64::new(6);
        let a = random_matrix(&field, 3, 5, &mut rng);
        let p = a.pad_to(8, 8);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(p.get(i, j), a.get(i, j));
            }
        }
        assert_eq!(p.get(7, 7), 0);
        // Padding commutes with multiplication on the embedded block.
        let b = random_matrix(&field, 5, 4, &mut rng);
        let full = a.mul(&field, &b);
        let padded = a.pad_to(8, 8).mul(&field, &b.pad_to(8, 8));
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(padded.get(i, j), full.get(i, j));
            }
        }
    }
}
