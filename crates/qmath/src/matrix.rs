//! Small dense complex matrices.
//!
//! Gate unitaries are `2^k × 2^k` with `k ≤ ~7` (fusion kernels cap the
//! size), so a simple row-major `Vec<Complex64>` is the right representation:
//! contiguous, cache-friendly, no blocking needed at these sizes.

use crate::complex::Complex64;
use crate::EPS;
use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(0, 0);
        m.set_identity(n);
        m
    }

    /// Overwrites `self` with the `rows × cols` zero matrix, reusing the
    /// existing allocation when its capacity suffices.
    pub fn set_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Overwrites `self` with the `n × n` identity, reusing the existing
    /// allocation when its capacity suffices.
    pub fn set_identity(&mut self, n: usize) {
        self.set_zeros(n, n);
        for i in 0..n {
            self[(i, i)] = Complex64::ONE;
        }
    }

    /// Creates a matrix from row-major data. Panics if the length is not
    /// `rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Convenience constructor from `(re, im)` pairs in row-major order.
    pub fn from_reim(rows: usize, cols: usize, data: &[(f64, f64)]) -> Self {
        Matrix::from_rows(
            rows,
            cols,
            data.iter()
                .map(|&(re, im)| Complex64::new(re, im))
                .collect(),
        )
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate transpose (dagger).
    pub fn dagger(&self) -> Matrix {
        let mut m = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(c, r)] = self[(r, c)].conj();
            }
        }
        m
    }

    /// Kronecker product `self ⊗ other`.
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let mut m = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let a = self[(r1, c1)];
                if a.is_zero(0.0) {
                    continue;
                }
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        m[(r1 * other.rows + r2, c1 * other.cols + c2)] = a * other[(r2, c2)];
                    }
                }
            }
        }
        m
    }

    /// `true` if `self · selfᴴ = I` within `eps`.
    pub fn is_unitary(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = self * &self.dagger();
        prod.approx_eq(&Matrix::identity(self.rows), eps)
    }

    /// `true` if all off-diagonal entries are ≤ `eps` in modulus.
    pub fn is_diagonal(&self, eps: f64) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|r| (0..self.cols).all(|c| r == c || self[(r, c)].is_zero(eps)))
    }

    /// `true` if all entries off the anti-diagonal are ≤ `eps` in modulus.
    pub fn is_anti_diagonal(&self, eps: f64) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|r| {
                (0..self.cols).all(|c| r + c == self.cols - 1 || self[(r, c)].is_zero(eps))
            })
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Matrix, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Overwrites `self` with `src` scaled entry-wise by `s`, reusing the
    /// existing allocation when its capacity suffices. Used by the
    /// scale-folding kernel path to avoid a fresh matrix clone per gate.
    pub fn clone_scaled_from(&mut self, src: &Matrix, s: Complex64) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|&v| v * s));
    }

    /// Matrix-vector product into a caller-provided output buffer
    /// (`out.len() == rows`, `v.len() == cols`). The fused-kernel hot path.
    pub fn mul_vec_into(&self, v: &[Complex64], out: &mut [Complex64]) {
        debug_assert_eq!(v.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = Complex64::ZERO;
            for (m, x) in row.iter().zip(v.iter()) {
                acc = m.mul_add(*x, acc);
            }
            *o = acc;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix dimension mismatch in multiply");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams through rhs rows contiguously.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero(0.0) {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, b) in orow.iter_mut().zip(rrow.iter()) {
                    *o = a.mul_add(*b, *o);
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Checks two matrices are equal up to a global phase factor, i.e.
/// `a = e^{iφ} b` for some φ. Quantum gates that differ only by global phase
/// are physically identical.
pub fn equal_up_to_global_phase(a: &Matrix, b: &Matrix, eps: f64) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return false;
    }
    // Find the largest entry of b to divide by.
    let mut best = (0usize, 0usize);
    let mut best_norm = -1.0f64;
    for r in 0..b.rows() {
        for c in 0..b.cols() {
            let n = b[(r, c)].norm_sqr();
            if n > best_norm {
                best_norm = n;
                best = (r, c);
            }
        }
    }
    if best_norm <= eps * eps {
        // b is (numerically) zero; equal iff a is too.
        return a.as_slice().iter().all(|z| z.is_zero(eps));
    }
    let phase = a[best] / b[best];
    if (phase.norm() - 1.0).abs() > 1e-6 {
        return false;
    }
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if !a[(r, c)].approx_eq(phase * b[(r, c)], eps.max(1e-9)) {
                return false;
            }
        }
    }
    true
}

/// Returns `true` when the matrix is unitary within the crate default
/// tolerance — convenience for assertions.
pub fn assert_unitary(m: &Matrix) -> bool {
    m.is_unitary(EPS.max(1e-9) * m.rows() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Matrix {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Matrix::from_reim(2, 2, &[(s, 0.0), (s, 0.0), (s, 0.0), (-s, 0.0)])
    }

    fn x() -> Matrix {
        Matrix::from_reim(2, 2, &[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    }

    #[test]
    fn identity_is_unitary_and_diagonal() {
        let i4 = Matrix::identity(4);
        assert!(i4.is_unitary(1e-12));
        assert!(i4.is_diagonal(0.0));
        assert!(!i4.is_anti_diagonal(0.0));
    }

    #[test]
    fn h_squared_is_identity() {
        let hh = &h() * &h();
        assert!(hh.approx_eq(&Matrix::identity(2), 1e-12));
        assert!(h().is_unitary(1e-12));
    }

    #[test]
    fn x_is_anti_diagonal() {
        assert!(x().is_anti_diagonal(0.0));
        assert!(!x().is_diagonal(0.0));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let k = x().kron(&Matrix::identity(2));
        assert_eq!(k.rows(), 4);
        // X ⊗ I maps |00> -> |10>: column 0 has a 1 in row 2.
        assert!(k[(2, 0)].approx_eq(Complex64::ONE, 1e-12));
        assert!(k[(0, 0)].is_zero(1e-12));
        assert!(k.is_unitary(1e-12));
    }

    #[test]
    fn dagger_of_product() {
        let a = h();
        let b = x();
        let ab = &a * &b;
        let ba_dag = &b.dagger() * &a.dagger();
        assert!(ab.dagger().approx_eq(&ba_dag, 1e-12));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = h().kron(&x());
        let v: Vec<Complex64> = (0..4)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut out = vec![Complex64::ZERO; 4];
        m.mul_vec_into(&v, &mut out);
        for r in 0..4 {
            let mut acc = Complex64::ZERO;
            for c in 0..4 {
                acc = m[(r, c)].mul_add(v[c], acc);
            }
            assert!(out[r].approx_eq(acc, 1e-12));
        }
    }

    /// A deterministic "random" unitary: a product of axis rotations with
    /// angles derived from `seed`.
    fn pseudo_random_unitary(seed: u64) -> Matrix {
        let a = (seed as f64) * 0.7;
        let b = (seed as f64) * 1.3 + 0.4;
        let (ca, sa) = (a.cos(), a.sin());
        let rot = Matrix::from_reim(2, 2, &[(ca, 0.0), (-sa, 0.0), (sa, 0.0), (ca, 0.0)]);
        let phase = Matrix::from_rows(
            2,
            2,
            vec![
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::cis(b),
            ],
        );
        &rot * &phase
    }

    #[test]
    fn unitarity_is_closed_under_product_and_kron() {
        for seed in 0..8u64 {
            let u = pseudo_random_unitary(seed);
            let v = pseudo_random_unitary(seed + 100);
            assert!(u.is_unitary(1e-10), "seed {seed}");
            assert!((&u * &v).is_unitary(1e-10), "product, seed {seed}");
            assert!(u.kron(&v).is_unitary(1e-10), "kron, seed {seed}");
        }
    }

    #[test]
    fn dagger_inverts_unitaries() {
        for seed in 0..8u64 {
            let u = pseudo_random_unitary(seed).kron(&pseudo_random_unitary(seed + 50));
            let id = &u * &u.dagger();
            assert!(
                id.approx_eq(&Matrix::identity(4), 1e-10),
                "u·u† != I at seed {seed}"
            );
        }
    }

    #[test]
    fn non_unitary_is_detected() {
        let mut m = Matrix::identity(2);
        m[(0, 0)] = Complex64::new(2.0, 0.0); // breaks column normalization
        assert!(!m.is_unitary(1e-9));
        assert!(!Matrix::zeros(2, 2).is_unitary(1e-9));
    }

    #[test]
    fn global_phase_equality() {
        let a = h();
        let mut b = h();
        let phase = Complex64::cis(1.234);
        for r in 0..2 {
            for c in 0..2 {
                b[(r, c)] *= phase;
            }
        }
        assert!(equal_up_to_global_phase(&a, &b, 1e-9));
        assert!(!equal_up_to_global_phase(&a, &x(), 1e-9));
    }
}
