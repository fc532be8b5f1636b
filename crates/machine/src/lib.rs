//! # atlas-machine
//!
//! A simulated multi-node, multi-GPU cluster — the execution substrate that
//! stands in for the paper's Perlmutter testbed (64 nodes × 4 A100 GPUs,
//! NVLink intra-node, Slingshot inter-node, NCCL collectives).
//!
//! Two execution modes share one code path:
//!
//! * **functional** — shards of the state vector are real `Vec<Complex64>`
//!   buffers; kernels genuinely transform amplitudes (validated against the
//!   reference simulator), and the clock model charges simulated time;
//! * **dry-run** — no amplitudes are allocated; only the clock model runs.
//!   This is how paper-scale experiments (28–36 qubits on up to 256
//!   simulated GPUs) are reproduced on a host without 0.5 PB of RAM.
//!
//! Time accounting is bulk-synchronous: kernel costs accumulate per device
//! and fold into the ledger at stage barriers; stage-transition all-to-alls
//! are charged exactly, from per-source-shard counts of how many of its
//! equal-sized destination blocks stay on its GPU, stay on its node, or
//! leave it (see [`Machine::permute_state`]). In functional mode the
//! all-to-all itself runs on the executor's worker pool, each worker
//! filling whole destination shards.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cost;
pub mod machine;
pub mod topology;
mod traffic;

pub use cost::CostModel;
pub use machine::{Machine, MachineReport, ShardOp, ShardProgram, ShmPartList, StageTiming};
pub use topology::MachineSpec;
