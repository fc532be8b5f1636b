//! Tunable parameters of the Atlas pipeline, with the paper's defaults.
//!
//! An [`AtlasConfig`] is a plain struct literal over [`Default`];
//! [`AtlasConfig::validate`] is the one rule set, enforced at every door
//! into the engine (`Planner::plan`, `Planner::plan_backend`, the serve
//! pool's constructor).

use atlas_error::AtlasError;
use atlas_telemetry::Recorder;

/// Which algorithm picks the stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagingAlgo {
    /// Atlas: the ILP model solved by the structure-exploiting search
    /// (default — see `staging::search`). The generic branch-and-bound
    /// over the same model is not selectable: it is the test oracle the
    /// search is checked against (`staging::ilp_model`, tests only).
    IlpSearch,
    /// The SnuQS greedy heuristic (§VII-D baseline).
    Snuqs,
}

/// Which simulation engine runs the circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Dispatch on circuit structure: all-Clifford circuits run on the
    /// stabilizer tableau, circuits with a long Clifford prefix
    /// fast-forward on the tableau and hand off to the statevector
    /// engine, everything else runs on the statevector engine (default).
    #[default]
    Auto,
    /// Force the sharded statevector engine (≤ 63 qubits).
    Statevec,
    /// Force the stabilizer tableau (all-Clifford circuits only, up to
    /// thousands of qubits).
    Stabilizer,
}

impl BackendKind {
    /// The CLI spelling of the variant.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Statevec => "statevec",
            BackendKind::Stabilizer => "stabilizer",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = AtlasError;

    fn from_str(s: &str) -> Result<Self, AtlasError> {
        match s {
            "auto" => Ok(BackendKind::Auto),
            "statevec" => Ok(BackendKind::Statevec),
            "stabilizer" => Ok(BackendKind::Stabilizer),
            other => Err(AtlasError::invalid_config(format!(
                "unknown backend '{other}' (expected auto|statevec|stabilizer)"
            ))),
        }
    }
}

/// A peak-memory admission budget for functional EXECUTE requests.
///
/// A functional run of an `n`-qubit circuit allocates, at peak, the
/// sharded state (`2^n` amplitudes × 16 bytes), the ping-pong spare used
/// by state reshuffles (a full second copy), and one shard of local
/// scratch (`2^L` amplitudes × 16 bytes). The budget computes that peak
/// **before** any allocation and rejects the request with a typed
/// [`AtlasError::ResourceExhausted`] instead of letting the allocator
/// abort the process — the admission gate of the session API, the serve
/// pool and the CLI.
///
/// Dry runs never allocate amplitudes and are never gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: u64,
}

impl MemoryBudget {
    /// The sharded engine's own functional ceiling: 30 qubits at any
    /// shard layout (state + spare + one full-width scratch shard =
    /// 3 × 2^30 × 16 bytes = 48 GiB). Budgets above this are clamped —
    /// the engine cannot index wider functional states regardless of
    /// available RAM.
    pub const ENGINE_CEILING: u64 = 3 * 16 * (1 << 30);

    /// The single-host default used by the `atlas-sim` CLI: 3 GiB of
    /// peak state, which admits exactly the circuits the historical
    /// `n > 26` auto-dry heuristic admitted (26 qubits at any `L ≤ 26`).
    pub const SINGLE_HOST: u64 = 3 * 16 * (1 << 26);

    /// A budget of `bytes` peak bytes per functional request.
    pub fn bytes(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// The configured limit in bytes (before the engine-ceiling clamp).
    pub fn limit(&self) -> u64 {
        self.bytes
    }

    /// Peak bytes a functional `n`-qubit run allocates under `L` local
    /// qubits per device: state + ping-pong spare + one scratch shard.
    /// Saturates at `u64::MAX` for unrepresentable widths.
    pub fn peak_bytes(n: u32, local_qubits: u32) -> u64 {
        let amp = |q: u32| -> u128 { 16u128 << q.min(63) };
        let peak = 2 * amp(n) + amp(local_qubits.min(n));
        u64::try_from(peak).unwrap_or(u64::MAX)
    }

    /// The budget actually enforced: the configured limit clamped to
    /// [`ENGINE_CEILING`](MemoryBudget::ENGINE_CEILING).
    pub fn enforced(&self) -> u64 {
        self.bytes.min(Self::ENGINE_CEILING)
    }

    /// Whether an `n`-qubit functional run fits the budget.
    pub fn admits(&self, n: u32, local_qubits: u32) -> bool {
        Self::peak_bytes(n, local_qubits) <= self.enforced()
    }

    /// Gates an `n`-qubit functional run: `Ok(())` when it fits,
    /// [`AtlasError::ResourceExhausted`] with the exact peak and budget
    /// otherwise.
    pub fn admit(&self, n: u32, local_qubits: u32) -> Result<(), AtlasError> {
        if self.admits(n, local_qubits) {
            Ok(())
        } else {
            Err(AtlasError::ResourceExhausted {
                needed: Self::peak_bytes(n, local_qubits),
                budget: self.enforced(),
            })
        }
    }

    /// The widest circuit the budget admits under `L` local qubits per
    /// device (`0` when even one qubit is over budget) — what the CLI
    /// reports as "the functional limit".
    pub fn max_functional_qubits(&self, local_qubits: u32) -> u32 {
        (1..=63u32)
            .take_while(|&n| self.admits(n, local_qubits))
            .last()
            .unwrap_or(0)
    }
}

impl Default for MemoryBudget {
    /// Defaults to the engine ceiling — the session API behaves exactly
    /// as before (any `n ≤ 30` runs), except that wider requests now
    /// return a typed error instead of asserting.
    fn default() -> Self {
        MemoryBudget {
            bytes: Self::ENGINE_CEILING,
        }
    }
}

/// Which algorithm groups a stage's gates into kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelAlgo {
    /// Atlas: the KERNELIZE DP (Algorithms 3–4), with pruning threshold T.
    Dp,
    /// ORDERED KERNELIZE (Algorithm 5) — "Atlas-Naive".
    Ordered,
    /// Greedy fusion packing up to the given qubit count (§VII-E
    /// baseline; 5 is the most cost-efficient size).
    Greedy(u32),
    /// Greedy hybrid packing choosing fusion or shared-memory per group
    /// (HyQuas-style SHM-GROUPING / TransMM selection).
    GreedyHybrid(u32),
}

/// Configuration for staging, kernelization and execution.
#[derive(Clone, Debug)]
pub struct AtlasConfig {
    /// Inter-node communication cost factor `c` in the staging objective
    /// (Eq. 2). The paper sets 3 (§VI-C).
    pub inter_node_cost_factor: i64,
    /// Kernelization DP pruning threshold `T` (Appendix B-f). The paper
    /// sets 500.
    pub pruning_threshold: usize,
    /// Staging algorithm.
    pub staging: StagingAlgo,
    /// Kernelization algorithm.
    pub kernelizer: KernelAlgo,
    /// Unpermute the final state back to the identity qubit layout after
    /// the last stage (needed when reading amplitudes out; benchmarks that
    /// reproduce the paper's timing leave it off, as the paper reports the
    /// simulation time with the final layout in place).
    pub final_unpermute: bool,
    /// Host threads the functional executor may use: above `1`, one
    /// worker pool of this many threads runs the whole execution — shard
    /// programs one per worker (one per simulated GPU), or, when shards
    /// are fewer than threads, each kernel's index groups split across
    /// the workers — and the all-to-alls and measurement reductions run on
    /// a pool of the same size. `1` (the default) is fully serial.
    /// Amplitudes are bit-identical for every value — only wall-clock
    /// changes. Dry-run mode ignores it (the clock model is not threaded).
    pub threads: usize,
    /// Measurement shots to draw after a functional run (`0` = none).
    /// Sampling runs on the sharded state and the bitstrings land in
    /// `Execution::samples`; with a fixed [`seed`] they are
    /// byte-identical for every thread count and machine shape. (More
    /// shots can always be drawn later through
    /// `Execution::measurements`.)
    ///
    /// [`seed`]: AtlasConfig::seed
    pub shots: usize,
    /// Seed of the counter-based measurement RNG (shot `i` draws a pure
    /// function of `(seed, i)`). With [`noise`](AtlasConfig::noise) it
    /// additionally seeds the trajectory selector draws.
    pub seed: u64,
    /// Depolarizing error probability per gate-touched qubit (`0.0` =
    /// noiseless). Each noisy run is a Pauli-twirled stochastic
    /// trajectory: with probability `noise` a uniformly random X/Y/Z is
    /// injected after the gate on each qubit it touches. Trajectory `i`
    /// is a pure function of ([`seed`](AtlasConfig::seed)`, i`), so
    /// results are byte-identical across thread and worker counts.
    pub noise: f64,
    /// Number of stochastic trajectories to average when
    /// [`noise`](AtlasConfig::noise)` > 0` (ignored when noiseless).
    pub trajectories: usize,
    /// Which simulation engine runs the circuit.
    pub backend: BackendKind,
    /// Peak-memory admission budget for functional EXECUTE requests.
    /// Checked *before* any amplitude allocation by the session API, the
    /// serve pool's submission path and the CLI; an over-budget request
    /// returns [`AtlasError::ResourceExhausted`] instead of aborting.
    /// Defaults to the engine's own functional ceiling (48 GiB ≙ 30
    /// qubits), which preserves the historical behavior for every
    /// admissible width.
    pub memory_budget: MemoryBudget,
    /// Telemetry handle threaded through planning, execution, sampling
    /// and the serve pool. Disabled by default — every recording call in
    /// the pipeline is then a single-branch no-op. Enabling it never
    /// changes model-level output (amplitudes, samples, simulated
    /// seconds): wall-clock rides the trace channel only.
    pub recorder: Recorder,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            inter_node_cost_factor: 3,
            pruning_threshold: 500,
            staging: StagingAlgo::IlpSearch,
            kernelizer: KernelAlgo::Dp,
            final_unpermute: false,
            threads: 1,
            shots: 0,
            seed: 0,
            noise: 0.0,
            trajectories: 1,
            backend: BackendKind::Auto,
            memory_budget: MemoryBudget::default(),
            recorder: Recorder::default(),
        }
    }
}

impl AtlasConfig {
    /// Checks the configuration for incoherent combinations, so a bad
    /// literal fails with a typed [`AtlasError::InvalidConfig`] at the
    /// API boundary instead of deep inside the pipeline. `Planner::plan`,
    /// `Planner::plan_backend` and the serve pool's constructor all call
    /// this; nothing reaches the engine unvalidated.
    ///
    /// Rejected (each with a message naming the offending field): zero
    /// `threads`; a non-zero `seed` without `shots` or `noise`; a `noise`
    /// probability outside `[0, 1]`; zero `trajectories` under noise;
    /// a negative Eq. 2 cost factor (zero stays legal as the
    /// communication-cost-blind ablation); a zero memory budget; and a
    /// degenerate kernelizer (`Dp` with `pruning_threshold = 0`, greedy
    /// packers with `max_qubits = 0`). Only the final combination counts
    /// — a knob the chosen algorithms never read (e.g. the pruning
    /// threshold under `Ordered`) may hold any value.
    ///
    /// ```
    /// use atlas_core::AtlasConfig;
    /// let cfg = AtlasConfig { threads: 8, shots: 1024, ..AtlasConfig::default() };
    /// assert!(cfg.validate().is_ok());
    /// let bad = AtlasConfig { threads: 0, ..AtlasConfig::default() };
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), AtlasError> {
        if self.threads == 0 {
            return Err(AtlasError::invalid_config(
                "threads = 0: the executor needs at least one host thread",
            ));
        }
        if self.seed != 0 && self.shots == 0 && self.noise == 0.0 {
            return Err(AtlasError::invalid_config(format!(
                "seed {} set without shots or noise: the seed only affects \
                 shot sampling and noise-trajectory draws",
                self.seed
            )));
        }
        if !(0.0..=1.0).contains(&self.noise) || self.noise.is_nan() {
            return Err(AtlasError::invalid_config(format!(
                "noise = {}: the per-qubit error probability must lie in [0, 1]",
                self.noise
            )));
        }
        if self.noise > 0.0 && self.trajectories == 0 {
            return Err(AtlasError::invalid_config(
                "trajectories = 0 with noise > 0: a noisy run needs at least \
                 one stochastic trajectory",
            ));
        }
        // `inter_node_cost_factor = 0` is a legitimate ablation
        // (communication-cost-blind staging); negative factors would make
        // the Eq. 2 objective reward extra communication.
        if self.inter_node_cost_factor < 0 {
            return Err(AtlasError::invalid_config(format!(
                "inter_node_cost_factor = {}: a negative Eq. 2 factor rewards \
                 communication",
                self.inter_node_cost_factor
            )));
        }
        if self.memory_budget.limit() == 0 {
            return Err(AtlasError::invalid_config(
                "memory_budget = 0 bytes: no functional request could ever \
                 be admitted",
            ));
        }
        match self.kernelizer {
            KernelAlgo::Dp if self.pruning_threshold == 0 => {
                return Err(AtlasError::invalid_config(
                    "pruning_threshold = 0: the kernelize DP would prune every \
                     candidate kernel",
                ));
            }
            KernelAlgo::Greedy(0) | KernelAlgo::GreedyHybrid(0) => {
                return Err(AtlasError::invalid_config(
                    "greedy kernelizer with max_qubits = 0 cannot hold any gate",
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Configuration for functional-correctness runs: the defaults plus a
    /// final unpermute so amplitudes are directly comparable to the
    /// reference simulator.
    pub fn for_validation() -> Self {
        AtlasConfig {
            final_unpermute: true,
            ..Default::default()
        }
    }

    /// HyQuas-style configuration: SnuQS-like greedy staging plus greedy
    /// hybrid (fusion / shared-memory) grouping. Used by
    /// `atlas-baselines`.
    pub fn hyquas_like() -> Self {
        AtlasConfig {
            staging: StagingAlgo::Snuqs,
            kernelizer: KernelAlgo::GreedyHybrid(6),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per rule of `validate()`: every incoherent literal must
    /// be rejected with `AtlasError::InvalidConfig` (the variant the CLI
    /// maps to a usage error), with a message naming the offending knob.
    #[test]
    fn validate_rejects_incoherent_combinations() {
        use KernelAlgo::{Dp, Greedy, GreedyHybrid};
        type Spoil = fn(&mut AtlasConfig);
        let cases: [(Spoil, &str); 11] = [
            (|c| c.threads = 0, "threads"),
            (|c| c.seed = 3, "seed"),
            (|c| c.noise = -0.1, "noise"),
            (|c| c.noise = 1.5, "noise"),
            (|c| c.noise = f64::NAN, "noise"),
            (|c| (c.noise, c.trajectories) = (0.05, 0), "trajectories"),
            (|c| c.inter_node_cost_factor = -1, "inter_node_cost_factor"),
            (
                |c| c.memory_budget = MemoryBudget::bytes(0),
                "memory_budget",
            ),
            (
                |c| (c.kernelizer, c.pruning_threshold) = (Dp, 0),
                "pruning_threshold",
            ),
            (|c| c.kernelizer = Greedy(0), "max_qubits"),
            (|c| c.kernelizer = GreedyHybrid(0), "max_qubits"),
        ];
        for (spoil, needle) in cases {
            let mut cfg = AtlasConfig::default();
            spoil(&mut cfg);
            match cfg.validate() {
                Err(AtlasError::InvalidConfig { reason }) => assert!(
                    reason.contains(needle),
                    "expected reason mentioning '{needle}', got: {reason}"
                ),
                other => panic!("{cfg:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn seed_is_coherent_with_noise_alone() {
        // A noisy run draws trajectory selectors from the seed even with
        // zero shots, so seed + noise (no shots) must validate.
        let d = AtlasConfig::default;
        let cfg = AtlasConfig {
            seed: 11,
            noise: 0.02,
            trajectories: 4,
            ..d()
        };
        assert!(cfg.validate().is_ok());
        // Boundary probabilities are legal.
        assert!(AtlasConfig { noise: 0.0, ..d() }.validate().is_ok());
        let certain = AtlasConfig {
            noise: 1.0,
            shots: 1,
            ..d()
        };
        assert!(certain.validate().is_ok());
    }

    #[test]
    fn backend_kind_parses_and_round_trips() {
        use std::str::FromStr;
        for kind in [
            BackendKind::Auto,
            BackendKind::Statevec,
            BackendKind::Stabilizer,
        ] {
            assert_eq!(BackendKind::from_str(kind.name()).unwrap(), kind);
        }
        assert!(matches!(
            BackendKind::from_str("tensor"),
            Err(AtlasError::InvalidConfig { .. })
        ));
        assert_eq!(BackendKind::default(), BackendKind::Auto);
    }

    #[test]
    fn only_the_knobs_the_chosen_algorithms_read_are_judged() {
        let d = AtlasConfig::default;
        let seeded = AtlasConfig {
            seed: 9,
            shots: 16,
            ..d()
        };
        assert!(seeded.validate().is_ok());
        // Zero pruning threshold is fine off the DP kernelizer.
        let ordered = AtlasConfig {
            kernelizer: KernelAlgo::Ordered,
            pruning_threshold: 0,
            ..d()
        };
        assert!(ordered.validate().is_ok());
    }

    /// The budget formula is the machine's actual allocation profile:
    /// state + ping-pong spare (two full copies) + one scratch shard.
    #[test]
    fn memory_budget_peak_formula_and_admission() {
        // n = 10, L = 5: 2·2^10·16 + 2^5·16 bytes.
        assert_eq!(MemoryBudget::peak_bytes(10, 5), 2 * 16 * 1024 + 16 * 32);
        // Scratch is one shard, never wider than the state itself.
        assert_eq!(MemoryBudget::peak_bytes(10, 30), 3 * 16 * 1024);
        // The single-host default admits exactly the historical 26-qubit
        // functional limit, at any shard layout.
        let single = MemoryBudget::bytes(MemoryBudget::SINGLE_HOST);
        assert!(single.admits(26, 26));
        assert!(single.admits(26, 5));
        assert!(!single.admits(27, 5));
        assert_eq!(single.max_functional_qubits(5), 26);
        // The default budget is the engine ceiling: 30 qubits, typed
        // rejection (not an assert) beyond it.
        let default = MemoryBudget::default();
        assert!(default.admits(30, 30));
        match default.admit(31, 5) {
            Err(AtlasError::ResourceExhausted { needed, budget }) => {
                assert_eq!(needed, MemoryBudget::peak_bytes(31, 5));
                assert_eq!(budget, MemoryBudget::ENGINE_CEILING);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Budgets above the ceiling are clamped: RAM cannot buy qubits
        // the engine cannot index.
        assert!(!MemoryBudget::bytes(u64::MAX).admits(31, 5));
        // Saturating peak for very wide requests.
        assert_eq!(MemoryBudget::peak_bytes(63, 63), u64::MAX);
    }

    #[test]
    fn struct_level_validate_catches_nonzero_seed_without_shots() {
        let cfg = AtlasConfig {
            seed: 5,
            ..AtlasConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(AtlasConfig::default().validate().is_ok());
        assert!(AtlasConfig::for_validation().validate().is_ok());
        assert!(AtlasConfig::hyquas_like().validate().is_ok());
    }
}
