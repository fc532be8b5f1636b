//! # atlas-machine
//!
//! A simulated multi-node, multi-GPU cluster — the execution substrate that
//! stands in for the paper's Perlmutter testbed (64 nodes × 4 A100 GPUs,
//! NVLink intra-node, Slingshot inter-node, NCCL collectives).
//!
//! A run is one model clock plus, optionally, the amplitudes:
//!
//! * the [`Clock`] charges simulated time — kernel costs accumulate per
//!   device and fold into the ledger at stage barriers; stage-transition
//!   all-to-alls are charged exactly, from per-source-shard counts of how
//!   many of its equal-sized destination blocks stay on its GPU, stay on
//!   its node, or leave it ([`Clock::charge_permute`]). It holds no
//!   amplitudes, so a **dry run** is a clock alone: this is how
//!   paper-scale experiments (28–36 qubits on up to 256 simulated GPUs)
//!   are reproduced on a host without 0.5 PB of RAM;
//! * the [`Machine`] holds the shards of a **functional run** as real
//!   `Vec<Complex64>` buffers: kernels genuinely transform amplitudes
//!   (validated against the reference simulator), and the all-to-all
//!   itself runs in place on the executor's worker pool, as pairwise swaps
//!   that each worker owns whole classes of ([`Machine::permute_state`]).
//!   It charges nothing.
//!
//! The executor charges the clock by one walk over the plan whether or not
//! a machine runs beside it, so a dry run and a functional run of the same
//! plan report the same numbers.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cost;
pub mod machine;
pub mod topology;
mod traffic;

pub use cost::{Clock, CostModel, MachineReport, StageTiming};
pub use machine::{Machine, ShardOp, ShardProgram, ShmPartList};
pub use topology::MachineSpec;
