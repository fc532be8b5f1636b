//! # atlas-stabilizer
//!
//! A CHP-style stabilizer tableau simulator (Aaronson & Gottesman,
//! "Improved simulation of stabilizer circuits") — the polynomial-time
//! fast path behind Atlas' backend dispatch. Where the sharded
//! statevector engine pays `2^n` amplitudes, the tableau tracks the
//! state's stabilizer group in `O(n²)` bits and replays Clifford gates
//! in `O(n)` word operations, so 200- or 2000-qubit Clifford circuits
//! are cheap (cf. arXiv 2603.14641 for the GPU-scaled version of the
//! same data structure).
//!
//! The tableau stores `2n` generator rows (destabilizers then
//! stabilizers) plus one scratch row, each row bit-packed into `u64`
//! words: an X bit-matrix, a Z bit-matrix and a sign column. Row `i`
//! represents the Pauli operator `(-1)^{r_i} · Π_q W_q` with
//! `W ∈ {I, X, Y, Z}` selected by the `(x, z)` bit pair of qubit `q`
//! (`(1,1)` is `Y`, with its `i` folded into the convention). Row
//! products track signs with the word-parallel form of the paper's `g`
//! function, so every query that terminates in a sign — measurement,
//! Pauli expectation, basis-state probability — is exact, never
//! floating point.
//!
//! What the crate offers beyond gate replay:
//!
//! * **Measurement** with caller-supplied randomness
//!   ([`Tableau::measure_with`]), plus *forced* measurement
//!   ([`Tableau::measure_forced`]) whose returned branch probability
//!   (1, ½ or 0) powers exact basis-state probabilities.
//! * **Shot sampling** ([`Tableau::sample_words`]) driven by the
//!   splittable counter RNG: shot `i` is a pure function of
//!   `(seed, i)`, identical across thread counts and schedules.
//! * **Pauli expectations** ([`Tableau::expectation`]) in `{-1, 0, +1}`
//!   by destabilizer-pairing decomposition.
//! * **Canonical form** ([`Tableau::canonical_stabilizers`]): a unique
//!   row-reduced generator set usable as a state-equality predicate at
//!   any width.
//! * **Statevector conversion** ([`Tableau::to_statevector`]): Gaussian
//!   elimination + Gray-code coset enumeration yields the exact `2^n`
//!   amplitude vector (n ≤ 30) with a canonical global phase — what
//!   the CLI's `--top` enumerates on this backend.

#![forbid(unsafe_code)]

pub mod convert;
pub mod tableau;

pub use tableau::{inverse_circuit, Tableau};
