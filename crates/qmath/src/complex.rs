//! Double-precision complex numbers.
//!
//! A minimal, `Copy`, `#[repr(C)]` complex type. We implement it ourselves
//! (rather than pulling `num-complex`) to keep the dependency surface at the
//! approved set and to control inlining on the multiply-add paths that
//! dominate state-vector simulation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Layout-compatible with `[f64; 2]` / C `double complex`, which is what a
/// real GPU kernel would consume; the simulated device memory in
/// `atlas-machine` stores amplitudes as contiguous `Complex64`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates `re + im·i`.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a real number `re + 0i`.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Returns `e^{iθ} = cos θ + i sin θ` (a unit phase).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²` — the measurement probability of an amplitude.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Fused multiply-add: `self * b + acc`. The inner loop of every gate
    /// application is a chain of these.
    #[inline(always)]
    pub fn mul_add(self, b: Complex64, acc: Complex64) -> Complex64 {
        Complex64 {
            re: acc.re + self.re * b.re - self.im * b.im,
            im: acc.im + self.re * b.im + self.im * b.re,
        }
    }

    /// `true` if both components have exactly the bits of `other`'s —
    /// unlike `==`, `+0.0` and `-0.0` differ.
    #[inline]
    pub fn bit_eq(self, other: Complex64) -> bool {
        self.re.to_bits() == other.re.to_bits() && self.im.to_bits() == other.im.to_bits()
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Complex64 {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// `true` if both components are within `eps` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Complex64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }

    /// `true` if `|z| ≤ eps`.
    #[inline]
    pub fn is_zero(self, eps: f64) -> bool {
        self.re.abs() <= eps && self.im.abs() <= eps
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        Complex64 {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        assert_eq!(a + b, Complex64::new(1.25, 1.0));
        assert_eq!(a - b, Complex64::new(1.75, -5.0));
        // (1.5 - 2i)(-0.25 + 3i) = -0.375 + 4.5i + 0.5i + 6 = 5.625 + 5i
        assert_eq!(a * b, Complex64::new(5.625, 5.0));
        assert!(((a / b) * b).approx_eq(a, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let z = Complex64::cis(k as f64 * 0.5);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
        assert!(Complex64::cis(std::f64::consts::PI).approx_eq(Complex64::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex64::new(0.3, 0.7);
        let b = Complex64::new(-1.1, 0.2);
        let acc = Complex64::new(5.0, -5.0);
        assert!(a.mul_add(b, acc).approx_eq(a * b + acc, 1e-12));
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert!((z * z.conj()).approx_eq(Complex64::real(25.0), 1e-12));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(
            format!("{}", Complex64::new(1.0, -1.0)),
            "1.000000-1.000000i"
        );
        assert_eq!(
            format!("{}", Complex64::new(0.0, 2.0)),
            "0.000000+2.000000i"
        );
    }
}
