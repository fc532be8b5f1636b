//! # atlas-error
//!
//! [`AtlasError`] — the one structured error type every public fallible
//! API in the workspace returns.
//!
//! Before this crate existed, failures crossed crate boundaries as bare
//! `String`s, so a caller could not tell "this circuit is too small for
//! the requested machine split" (fix the shape and retry) from "the
//! request does not fit the memory budget" (shrink it or run dry)
//! without parsing prose. The enum below gives each failure family an
//! identity that `match` can dispatch on — the `atlas-sim` CLI maps
//! variants to distinct process exit codes, and tests assert on
//! variants instead of message fragments.
//!
//! The type is hand-rolled in the `thiserror` idiom (a `Display` arm and
//! a structured payload per variant) because the workspace builds
//! offline with no external dependencies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// Structured error type of the Atlas workspace.
///
/// Every variant carries the data a caller needs to react
/// programmatically; [`fmt::Display`] renders the same information as a
/// human-readable one-liner. The enum is `#[non_exhaustive]` so future
/// PRs can add failure families without a breaking release.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AtlasError {
    /// The circuit has fewer qubits than the machine shape requires
    /// (`n < L + G`): there is nothing to shard.
    CircuitTooSmall {
        /// Number of circuit qubits `n`.
        qubits: u32,
        /// Requested local qubits per device `L`.
        local: u32,
        /// Requested global (inter-node) qubits `G`.
        global: u32,
    },
    /// The staging solver could not produce a valid stage decomposition.
    StagingFailed {
        /// Which staging algorithm failed (e.g. `"IlpSearch"`).
        algo: &'static str,
        /// What went wrong.
        reason: String,
    },
    /// A plan-level invariant is violated: a stage cover, kernel cover
    /// or qubit partition failed validation.
    InvalidPlan {
        /// Which invariant broke.
        reason: String,
    },
    /// A configuration was rejected at a planning door
    /// (`AtlasConfig::validate` refuses incoherent combinations instead
    /// of letting them fail deep inside the pipeline).
    InvalidConfig {
        /// Which combination is incoherent.
        reason: String,
    },
    /// Text input (a Pauli string, a QASM file, a CLI value) failed to
    /// parse.
    ParseError {
        /// What was being parsed (e.g. `"Pauli string"`).
        what: &'static str,
        /// Byte offset of the offending character in the input, when a
        /// single position is to blame.
        position: Option<usize>,
        /// What went wrong.
        message: String,
    },
    /// A circuit was executed against a `CompiledPlan` whose structural
    /// fingerprint it does not match: plans are reusable across
    /// *same-structure* circuits (same gate graph, different gate
    /// parameters), not across arbitrary ones.
    PlanMismatch {
        /// Why the circuit cannot run under the plan.
        reason: String,
    },
    /// A serve-mode session pool rejected a submission because its
    /// bounded job queue is full — typed backpressure instead of
    /// unbounded queueing. Retry after in-flight jobs drain, or raise
    /// the pool's queue capacity.
    Overloaded {
        /// Jobs queued at the moment of rejection.
        queued: usize,
        /// The pool's queue capacity.
        capacity: usize,
    },
    /// A serve job panicked mid-flight. The panic was caught at the job
    /// boundary — the worker thread and the rest of the pool keep
    /// serving — and answered in-band as this typed error instead of
    /// tearing the process down.
    JobPanicked {
        /// Pool-assigned id of the job that panicked.
        job: u64,
        /// A short rendering of the panic payload (the `&str`/`String`
        /// message when the payload carries one).
        payload_summary: String,
    },
    /// A request's peak memory demand (state + ping-pong spare +
    /// scratch) exceeds the configured [`MemoryBudget`] — rejected
    /// *before* any amplitude allocation instead of aborting on OOM.
    /// Shrink the circuit, raise the budget, or use a dry run.
    ///
    /// [`MemoryBudget`]: https://docs.rs/atlas-core
    ResourceExhausted {
        /// Peak bytes the request would have to allocate.
        needed: u64,
        /// The enforced budget in bytes.
        budget: u64,
    },
    /// The session pool could not spawn one of its worker threads during
    /// construction. Workers already started were torn down cleanly.
    WorkerSpawnFailed {
        /// Workers successfully started before the failure.
        started: usize,
        /// Workers the pool configuration requested.
        requested: usize,
        /// The OS error message.
        reason: String,
    },
}

impl AtlasError {
    /// Convenience constructor for [`AtlasError::InvalidPlan`].
    pub fn invalid_plan(reason: impl Into<String>) -> Self {
        AtlasError::InvalidPlan {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`AtlasError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        AtlasError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// A short stable machine-readable name for the variant (used in
    /// logs and test diagnostics; the CLI derives its exit codes from
    /// the variant itself, not this string).
    pub fn kind(&self) -> &'static str {
        match self {
            AtlasError::CircuitTooSmall { .. } => "circuit-too-small",
            AtlasError::StagingFailed { .. } => "staging-failed",
            AtlasError::InvalidPlan { .. } => "invalid-plan",
            AtlasError::InvalidConfig { .. } => "invalid-config",
            AtlasError::ParseError { .. } => "parse-error",
            AtlasError::PlanMismatch { .. } => "plan-mismatch",
            AtlasError::Overloaded { .. } => "overloaded",
            AtlasError::JobPanicked { .. } => "job-panicked",
            AtlasError::ResourceExhausted { .. } => "resource-exhausted",
            AtlasError::WorkerSpawnFailed { .. } => "worker-spawn-failed",
        }
    }
}

impl fmt::Display for AtlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtlasError::CircuitTooSmall {
                qubits,
                local,
                global,
            } => write!(
                f,
                "circuit of {qubits} qubits too small for L={local}, G={global}"
            ),
            AtlasError::StagingFailed { algo, reason } => {
                write!(f, "staging ({algo}) failed: {reason}")
            }
            AtlasError::InvalidPlan { reason } => write!(f, "invalid plan: {reason}"),
            AtlasError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            AtlasError::ParseError {
                what,
                position,
                message,
            } => match position {
                Some(p) => write!(f, "cannot parse {what} (at position {p}): {message}"),
                None => write!(f, "cannot parse {what}: {message}"),
            },
            AtlasError::PlanMismatch { reason } => write!(f, "plan mismatch: {reason}"),
            AtlasError::Overloaded { queued, capacity } => write!(
                f,
                "session pool overloaded: {queued} job(s) queued at capacity \
                 {capacity}; retry after in-flight jobs drain or raise the \
                 queue capacity"
            ),
            AtlasError::JobPanicked {
                job,
                payload_summary,
            } => write!(
                f,
                "job {job} panicked ({payload_summary}); the pool kept serving"
            ),
            AtlasError::ResourceExhausted { needed, budget } => write!(
                f,
                "request needs a peak of {needed} bytes but the memory \
                 budget is {budget}; shrink the circuit, raise the budget, \
                 or use a dry run"
            ),
            AtlasError::WorkerSpawnFailed {
                started,
                requested,
                reason,
            } => write!(
                f,
                "could not spawn pool worker {started} of {requested}: \
                 {reason}; already-started workers were torn down"
            ),
        }
    }
}

impl std::error::Error for AtlasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_a_single_informative_line() {
        let cases: Vec<(AtlasError, &str)> = vec![
            (
                AtlasError::CircuitTooSmall {
                    qubits: 4,
                    local: 5,
                    global: 1,
                },
                "circuit of 4 qubits too small for L=5, G=1",
            ),
            (
                AtlasError::invalid_plan("gate 3 not covered"),
                "invalid plan: gate 3 not covered",
            ),
            (
                AtlasError::invalid_config("threads = 0"),
                "invalid config: threads = 0",
            ),
            (
                AtlasError::ParseError {
                    what: "Pauli string",
                    position: Some(2),
                    message: "invalid character 'Q'".into(),
                },
                "cannot parse Pauli string (at position 2): invalid character 'Q'",
            ),
            (
                AtlasError::JobPanicked {
                    job: 7,
                    payload_summary: "index out of bounds".into(),
                },
                "job 7 panicked (index out of bounds); the pool kept serving",
            ),
            (
                AtlasError::ResourceExhausted {
                    needed: 1024,
                    budget: 512,
                },
                "request needs a peak of 1024 bytes but the memory budget is \
                 512; shrink the circuit, raise the budget, or use a dry run",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
            assert!(!e.to_string().contains('\n'));
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let all = [
            AtlasError::CircuitTooSmall {
                qubits: 0,
                local: 0,
                global: 0,
            },
            AtlasError::StagingFailed {
                algo: "IlpSearch",
                reason: String::new(),
            },
            AtlasError::invalid_plan(""),
            AtlasError::invalid_config(""),
            AtlasError::ParseError {
                what: "x",
                position: None,
                message: String::new(),
            },
            AtlasError::PlanMismatch {
                reason: String::new(),
            },
            AtlasError::Overloaded {
                queued: 0,
                capacity: 0,
            },
            AtlasError::JobPanicked {
                job: 0,
                payload_summary: String::new(),
            },
            AtlasError::ResourceExhausted {
                needed: 0,
                budget: 0,
            },
            AtlasError::WorkerSpawnFailed {
                started: 0,
                requested: 0,
                reason: String::new(),
            },
        ];
        let mut kinds: Vec<_> = all.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len());
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&AtlasError::invalid_plan("x"));
    }
}
