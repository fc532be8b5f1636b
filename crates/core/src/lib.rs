//! # atlas-core
//!
//! The paper's contribution: hierarchical partitioning of quantum circuits
//! for distributed GPU simulation.
//!
//! * [`staging`] — the circuit **staging** problem (§IV): split the circuit
//!   into stages, each with a local/regional/global qubit partition such
//!   that every gate's non-insular qubits are local, minimizing stage count
//!   and then communication cost (Eq. 2) via the binary ILP of Eqs. 3–11.
//! * [`kernelize`] — the circuit **kernelization** problem (§V): partition
//!   each stage's gates into fusion / shared-memory kernels with the
//!   dynamic program of Algorithms 3–4 under Constraint 1 (weak convexity
//!   + monotonicity), with the Appendix-B optimizations.
//! * [`exec`] — the compiled plan's data types ([`exec::FullPlan`] and
//!   its parts) and the crate-private PARTITION / **EXECUTE** bodies of
//!   Alg. 1: shard the state vector across the machine, run each stage's
//!   kernels per shard with insular-qubit specialization, and perform
//!   the all-to-all qubit remapping between stages.
//! * [`session`] — the one way in: [`Planner`] compiles a circuit once
//!   into a [`CompiledPlan`]; the plan executes any number of
//!   same-structure circuits (plan-once/run-many parameter sweeps) into
//!   [`Execution`]s, or replays the clock model alone (`dry_run`).
//!   SIMULATE (Alg. 1 l.18–20) is `planner.plan(&c)?.execute(&c)?`.
//! * [`backend`] — engine dispatch one layer above: [`BackendPlan`] is a
//!   closed enum — all-Clifford circuits route to the
//!   `atlas-stabilizer` tableau, everything else runs the sharded
//!   statevector path — and [`BackendRun`] the unified query surface.
//! * [`noise`] — depolarizing noise as Pauli-twirled stochastic
//!   trajectories that share one fingerprint (plan-once sweeps).
//!
//! Every fallible public API returns the workspace-wide structured
//! [`AtlasError`] (re-exported from `atlas-error`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod config;
mod detmap;
pub mod exec;
pub mod kernelize;
pub mod noise;
pub mod plan;
pub mod session;
pub mod staging;

pub use atlas_error::AtlasError;
pub use backend::{BackendPlan, BackendRun, StabilizerPlan};
pub use config::{AtlasConfig, BackendKind, MemoryBudget};
pub use plan::{Kernel, KernelKind, QubitPartition, Stage};
pub use session::{CircuitFingerprint, CompiledPlan, Execution, Planner};
