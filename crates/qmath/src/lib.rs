//! # atlas-qmath
//!
//! Numeric substrate for the Atlas quantum-circuit simulator: complex
//! arithmetic, small dense complex matrices (gate unitaries and fused
//! kernels), and the bit/index manipulation utilities that state-vector
//! simulation is built on (strided amplitude addressing, qubit/bit
//! permutations).
//!
//! Everything in this crate is deterministic and allocation-conscious: the
//! hot paths (complex multiply-add, index gather) are `#[inline]` and free of
//! heap traffic, per the project's HPC guidelines.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod complex;
pub mod matrix;
pub mod perm;

pub use bits::{clear_bit, deposit_bits, extract_bits, insert_bit, insert_bits, set_bit, test_bit};
pub use complex::Complex64;
pub use matrix::Matrix;
pub use perm::QubitPermutation;

/// Default absolute tolerance used by approximate comparisons throughout the
/// workspace (amplitudes, unitarity checks, fidelity assertions).
pub const EPS: f64 = 1e-10;
