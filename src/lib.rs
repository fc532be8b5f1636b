//! # Atlas — hierarchical partitioning for quantum circuit simulation
//!
//! The crate-level documentation below is the repository README verbatim,
//! so its quick-start examples run as doctests and CI catches any drift
//! between the README and the API.
#![doc = include_str!("../README.md")]

pub use atlas_analyze as analyze;
pub use atlas_baselines as baselines;
pub use atlas_circuit as circuit;
pub use atlas_core as core;
pub use atlas_machine as machine;
pub use atlas_qmath as qmath;
pub use atlas_sampler as sampler;
pub use atlas_serve as serve;
pub use atlas_stabilizer as stabilizer;
pub use atlas_statevec as statevec;
pub use atlas_telemetry as telemetry;

/// The names most programs need.
pub mod prelude {
    pub use atlas_circuit::{generators::Family, Circuit, Gate, GateKind};
    pub use atlas_core::backend::{BackendPlan, BackendRun};
    pub use atlas_core::config::{AtlasConfig, BackendKind, KernelAlgo, MemoryBudget, StagingAlgo};
    pub use atlas_core::session::{CircuitFingerprint, CompiledPlan, Execution, Planner};
    pub use atlas_error::AtlasError;
    pub use atlas_machine::{CostModel, MachineSpec};
    pub use atlas_qmath::Complex64;
    pub use atlas_sampler::{Measurements, PauliString};
    pub use atlas_statevec::{simulate_reference, StateVector};
    pub use atlas_telemetry::{MetricsRegistry, Recorder, TraceFormat, TraceMeta};
}
