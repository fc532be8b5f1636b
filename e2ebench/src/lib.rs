//! # atlas-e2e-bench
//!
//! The program behind `BENCHMARK.json`: one end-to-end + per-layer
//! benchmark of the Atlas pipeline on four workloads that each make one
//! layer do most of the work. See `README.md` in this directory for the
//! workloads, the metric catalogue, the layer → end-to-end table and how
//! to run and compare.
//!
//! Two clocks appear in the output and never mix: **host** time (units
//! `s`, `ms`, read with `Instant` around calls into the engine's public
//! functions) and **simulated** time (unit `model_s`, the cost model's
//! clock, a pure function of the plan).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod compare;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod stats;
pub mod stream;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["dense22", "shuffle22", "plan36", "serve16"];

/// Options of one `--workload` invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Drives every generated input; same seed, same inputs.
    pub seed: u64,
    /// How long the timed section runs (each workload also has a minimum
    /// number of passes or jobs it never goes below).
    pub seconds: f64,
    /// `false`: end-to-end metrics, recorder off. `true`: per-layer
    /// metrics from a run with the recorder on.
    pub trace: bool,
    /// Reduced sizes for the smoke test; refused by `--compare`.
    pub quick: bool,
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<metrics::RunResult> {
    match workload {
        "dense22" | "shuffle22" | "plan36" => Some(batch::run(workload, opts)),
        "serve16" => Some(serve::run(opts)),
        _ => None,
    }
}
