//! # atlas-statevec
//!
//! The Schrödinger-style state-vector engine: amplitude storage, gate
//! application kernels — one function per family (general `k`-qubit dense,
//! diagonal, permutation, controlled, whole-slice scale), each taking the
//! per-worker [`scratch`] arena that makes steady-state execution
//! allocation-free and the [`Pool`] their passes run on ([`apply`]) — gate
//! fusion into dense kernel matrices with structure-aware classification
//! ([`FastKernel`]), measurement reductions ([`measure`]), the persistent
//! worker [`pool`] every threaded kernel, reduction and shard program runs
//! on, and the [`mod@reference`] simulator and kernel oracles everything else is
//! tested against. See `docs/PERFORMANCE.md` for the kernel dispatch
//! table and the scratch-arena lifecycle.
//!
//! All apply functions operate on raw `&mut [Complex64]` amplitude slices so
//! that `atlas-machine` device memories and `atlas-core` shards can reuse
//! them without copies.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod apply;
pub mod fused;
pub mod measure;
pub mod pool;
pub mod reference;
pub mod scratch;
mod split;
pub mod state;

pub use apply::{apply_controlled_matrix, apply_diag, apply_matrix, apply_permutation, scale};
pub use fused::{apply_kernel, apply_reduced, FastKernel};
pub use fused::{classify_kernel, fuse_gate_into, fuse_gates};
pub use measure::{TopK, MEASURE_CHUNK};
pub use pool::{with_pool, Pool};
pub use reference::{apply_gate, simulate_reference};
pub use scratch::Scratch;
pub use state::StateVector;
