//! Tunable parameters of the Atlas pipeline, with the paper's defaults.
//!
//! An [`AtlasConfig`] is a plain struct literal over [`Default`];
//! [`AtlasConfig::validate`] is the one rule set, enforced at every door
//! into the engine (`Planner::plan`, `Planner::plan_backend`, the serve
//! pool's constructor). It holds what decides a plan and what runs it —
//! not the workloads on the finished state: shots and seeds are
//! arguments of the calls that draw them (`Measurements::sample`,
//! `BackendRun::sample_words`), noise those of `noise::Trajectories`.

use atlas_error::AtlasError;
use atlas_telemetry::Recorder;

/// The widest state the sharded engine indexes, in qubits.
const ENGINE_QUBITS: u32 = 30;

/// Bytes of an `n`-qubit state (`2^n` amplitudes × 16), saturating.
fn state_bytes(n: u32) -> u64 {
    u64::try_from(16u128 << n.min(63)).unwrap_or(u64::MAX)
}

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
    /// stabilizer tableau, everything else on the statevector engine
    /// (default). One circuit runs on one engine end to end.
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

    /// Whether `Planner::plan_backend` runs a circuit on the tableau alone
    /// under this backend: an all-Clifford one on any but `Statevec`.
    pub fn runs_on_tableau(self, clifford: bool) -> bool {
        clifford && self != BackendKind::Statevec
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
/// sharded state (`2^n` amplitudes × 16 bytes) — once: stage transitions
/// exchange amplitudes in place — plus one shard (`2^L` amplitudes × 16
/// bytes) of headroom for kernel scratch, whose buffers never exceed a
/// shard; under [`AtlasConfig::final_unpermute`] the gathered copy of the
/// state comes on top. [`AtlasConfig::admit`] computes that peak
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
    /// The default budget: the peak of the widest run the sharded engine
    /// indexes without gathering its state — 30 qubits with a full-width
    /// scratch shard (2 × 2^30 × 16 bytes = 32 GiB). Whatever the budget,
    /// [`AtlasConfig::admit`] admits no more than the config's own
    /// 30-qubit peak: RAM cannot buy qubits the engine cannot index.
    pub const ENGINE_CEILING: u64 = 2 * 16 * (1 << 30);

    /// The single-host default used by the `atlas-sim` CLI: 2 GiB of
    /// peak state, which admits exactly the circuits the historical
    /// `n > 26` auto-dry heuristic admitted (26 qubits at any `L ≤ 26`).
    pub const SINGLE_HOST: u64 = 2 * 16 * (1 << 26);

    /// A budget of `bytes` peak bytes per functional request.
    pub fn bytes(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// The configured limit in bytes (before admission's 30-qubit clamp).
    pub fn limit(&self) -> u64 {
        self.bytes
    }

    /// Peak bytes a functional `n`-qubit run allocates under `L` local
    /// qubits per device: the state + one scratch shard.
    /// Saturates at `u64::MAX` for unrepresentable widths.
    pub fn peak_bytes(n: u32, local_qubits: u32) -> u64 {
        state_bytes(n).saturating_add(state_bytes(local_qubits.min(n)))
    }

    /// Peak bytes a draw of `shots` bitstrings of `words` 64-bit words
    /// holds, whichever engine draws it: `Measurements::sample` keeps five
    /// shot-length 8-byte buffers live at once (variates, their order, the
    /// sorted variates, resolved indices, the output — `sample_counts`
    /// aggregates after the first four are freed), the tableau's
    /// `sample_words` one `Vec` of `words` words per shot (24 + 8·`words`
    /// bytes). Saturates at `u64::MAX`.
    pub fn sample_bytes(shots: usize, words: usize) -> u64 {
        let per_shot = (24 + 8 * words as u128).max(40);
        u64::try_from(shots as u128 * per_shot).unwrap_or(u64::MAX)
    }
}

impl Default for MemoryBudget {
    /// Defaults to the engine ceiling — any `n ≤ 30` run that does not
    /// gather its state fits, and wider requests return a typed error
    /// instead of asserting.
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
    /// Charge the final move back to the identity qubit layout on the
    /// model clock, and gather the state into
    /// [`Execution::state`](crate::session::Execution::state).
    ///
    /// Every functional run ends in the identity layout whatever this
    /// says; the knob selects only the charge and the gather. Benchmarks
    /// that reproduce the paper's timing leave it off, as the paper reports
    /// the simulation time with the final layout in place; validation runs
    /// that read amplitudes out turn it on.
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
    /// Which simulation engine runs the circuit.
    pub backend: BackendKind,
    /// Peak-memory admission budget for functional EXECUTE requests.
    /// Checked *before* any amplitude allocation by the session API, the
    /// serve pool's submission path and the CLI; an over-budget request
    /// returns [`AtlasError::ResourceExhausted`] instead of aborting.
    /// Defaults to the engine's own functional ceiling (32 GiB ≙ 30
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
    /// `threads`; a negative Eq. 2 cost factor (zero stays legal as the
    /// communication-cost-blind ablation); a zero memory budget; and a
    /// degenerate kernelizer (`Dp` with `pruning_threshold = 0`, greedy
    /// packers with `max_qubits = 0`). Only the final combination counts
    /// — a knob the chosen algorithms never read (e.g. the pruning
    /// threshold under `Ordered`) may hold any value.
    ///
    /// ```
    /// use atlas_core::AtlasConfig;
    /// let cfg = AtlasConfig { threads: 8, ..AtlasConfig::default() };
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

    /// Peak bytes a functional `n`-qubit run of this config allocates
    /// under `L` local qubits: [`MemoryBudget::peak_bytes`], plus one more
    /// copy of the state under [`final_unpermute`](AtlasConfig::final_unpermute),
    /// whose gather runs while the machine still holds its shards.
    pub fn peak_bytes(&self, n: u32, local_qubits: u32) -> u64 {
        self.resident_bytes(n)
            .saturating_add(state_bytes(local_qubits.min(n)))
    }

    /// Bytes that outlive EXECUTE: the state, and its gathered copy.
    fn resident_bytes(&self, n: u32) -> u64 {
        state_bytes(n).saturating_mul(1 + u64::from(self.final_unpermute))
    }

    /// The admission gate of every functional run — the session API's
    /// `execute*`, the serve pool's submission and the CLI: `Ok(())` when
    /// [`peak_bytes`](AtlasConfig::peak_bytes) fits the memory budget,
    /// [`AtlasError::ResourceExhausted`] with that peak and the budget
    /// otherwise.
    pub fn admit(&self, n: u32, local_qubits: u32) -> Result<(), AtlasError> {
        self.admit_bytes(self.peak_bytes(n, local_qubits))
    }

    /// The gate of [`admit`](AtlasConfig::admit) and [`admit_draw`](AtlasConfig::admit_draw):
    /// `needed` bytes against the budget, clamped to this config's own
    /// 30-qubit peak (the engine indexes at most 30 qubits).
    fn admit_bytes(&self, needed: u64) -> Result<(), AtlasError> {
        let widest = self.peak_bytes(ENGINE_QUBITS, ENGINE_QUBITS);
        let budget = self.memory_budget.limit().min(widest);
        if needed <= budget {
            Ok(())
        } else {
            Err(AtlasError::ResourceExhausted { needed, budget })
        }
    }

    /// [`admit`](AtlasConfig::admit) for a run that then draws `shots`
    /// ([`MemoryBudget::sample_bytes`]) in place of its freed scratch
    /// shard, beside the resident state — or, `on_tableau`
    /// ([`BackendKind::runs_on_tableau`]), beside nothing sizeable.
    pub fn admit_draw(
        &self,
        n: u32,
        local_qubits: u32,
        shots: usize,
        on_tableau: bool,
    ) -> Result<(), AtlasError> {
        if on_tableau {
            return self.admit_bytes(MemoryBudget::sample_bytes(shots, n.div_ceil(64) as usize));
        }
        let shard_or_draw =
            state_bytes(local_qubits.min(n)).max(MemoryBudget::sample_bytes(shots, 1));
        self.admit_bytes(self.resident_bytes(n).saturating_add(shard_or_draw))
    }

    /// The widest circuit [`admit`](AtlasConfig::admit) lets through under
    /// `L` local qubits per device (`0` when even one qubit is over
    /// budget) — what the CLI reports as "the functional limit".
    pub fn max_functional_qubits(&self, local_qubits: u32) -> u32 {
        (1..=63u32)
            .take_while(|&n| self.admit(n, local_qubits).is_ok())
            .last()
            .unwrap_or(0)
    }

    /// Configuration for functional-correctness runs: the defaults plus a
    /// final unpermute, so the run gathers its amplitudes for comparison
    /// with the reference simulator.
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
        let cases: [(Spoil, &str); 6] = [
            (|c| c.threads = 0, "threads"),
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
        // Zero pruning threshold is fine off the DP kernelizer.
        let ordered = AtlasConfig {
            kernelizer: KernelAlgo::Ordered,
            pruning_threshold: 0,
            ..AtlasConfig::default()
        };
        assert!(ordered.validate().is_ok());
    }

    /// The budget formula is the machine's actual allocation profile:
    /// the state, held once, + one scratch shard.
    #[test]
    fn memory_budget_peak_formula_and_admission() {
        // n = 10, L = 5: 2^10·16 + 2^5·16 bytes.
        assert_eq!(MemoryBudget::peak_bytes(10, 5), 16 * 1024 + 16 * 32);
        // Scratch is one shard, never wider than the state itself.
        assert_eq!(MemoryBudget::peak_bytes(10, 30), 2 * 16 * 1024);
        let with = |bytes, final_unpermute| AtlasConfig {
            memory_budget: MemoryBudget::bytes(bytes),
            final_unpermute,
            ..AtlasConfig::default()
        };
        // The single-host default admits exactly the historical 26-qubit
        // functional limit, at any shard layout.
        let single = with(MemoryBudget::SINGLE_HOST, false);
        assert!(single.admit(26, 26).is_ok());
        assert!(single.admit(26, 5).is_ok());
        assert!(single.admit(27, 5).is_err());
        assert_eq!(single.max_functional_qubits(5), 26);
        // The default budget is the engine ceiling: 30 qubits, typed
        // rejection (not an assert) beyond it.
        let default = AtlasConfig::default();
        assert_eq!(default.peak_bytes(30, 30), MemoryBudget::ENGINE_CEILING);
        assert!(default.admit(30, 30).is_ok());
        assert_eq!(default.max_functional_qubits(5), 30);
        match default.admit(31, 5) {
            Err(AtlasError::ResourceExhausted { needed, budget }) => {
                assert_eq!(needed, MemoryBudget::peak_bytes(31, 5));
                assert_eq!(budget, MemoryBudget::ENGINE_CEILING);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // A gathered run holds the state twice at its end, so the default
        // budget admits it up to 29 qubits.
        let gathered = AtlasConfig::for_validation();
        assert_eq!(gathered.peak_bytes(10, 5), 2 * 16 * 1024 + 16 * 32);
        assert!(gathered.admit(29, 29).is_ok());
        assert!(gathered.admit(30, 30).is_err());
        assert_eq!(gathered.max_functional_qubits(5), 29);
        // Budgets above a config's 30-qubit peak are clamped to it: RAM
        // buys every qubit the engine indexes, gathered or not, and no
        // more.
        for final_unpermute in [false, true] {
            let unbounded = with(u64::MAX, final_unpermute);
            assert!(unbounded.admit(30, 30).is_ok());
            assert_eq!(unbounded.max_functional_qubits(5), 30);
            match unbounded.admit(31, 5) {
                Err(AtlasError::ResourceExhausted { budget, .. }) => {
                    assert_eq!(budget, unbounded.peak_bytes(30, 30));
                }
                other => panic!("expected ResourceExhausted, got {other:?}"),
            }
        }
        // Saturating peak for very wide requests.
        assert_eq!(MemoryBudget::peak_bytes(63, 63), u64::MAX);
        // A draw: five 8-byte buffers per shot, or one 24-byte Vec header
        // plus its words when the bitstrings are wider.
        assert_eq!(MemoryBudget::sample_bytes(0, 1), 0);
        assert_eq!(MemoryBudget::sample_bytes(10, 1), 400);
        assert_eq!(MemoryBudget::sample_bytes(10, 4), 560);
        assert_eq!(MemoryBudget::sample_bytes(1 << 53, 1), 40 << 53);
        assert_eq!(MemoryBudget::sample_bytes(usize::MAX, 1), u64::MAX);
        // A draw shares the budget with what outlives EXECUTE, not with
        // its scratch shard: the 26-qubit boundary still admits a modest
        // draw — up to the freed shard — and no draw can hold 2^53 shots.
        let shard_shots = (16usize << 26) / 40;
        for l in [5, 26] {
            assert!(single.admit_draw(26, l, 4, false).is_ok());
        }
        assert!(single.admit_draw(26, 26, shard_shots, false).is_ok());
        assert!(single.admit_draw(26, 26, shard_shots + 1, false).is_err());
        match single.admit_draw(26, 26, 1 << 53, false) {
            Err(AtlasError::ResourceExhausted { needed, budget }) => {
                assert_eq!(needed, (16 << 26) + (40 << 53));
                assert_eq!(budget, MemoryBudget::SINGLE_HOST);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert!(single.admit_draw(8, 8, 1 << 53, false).is_err());
        assert!(single.admit_draw(27, 5, 4, false).is_err());
        // The gathered copy outlives EXECUTE too.
        let gathered = with(2 * (16 << 20) + (16 << 10), true);
        let shard_shots = (16 << 10) / 40;
        assert!(gathered.admit_draw(20, 10, shard_shots, false).is_ok());
        assert!(gathered.admit_draw(20, 10, shard_shots + 1, false).is_err());
        // On the tableau the draw is all there is, at any width.
        assert!(single.admit_draw(1000, 1000, 1 << 20, true).is_ok());
        assert!(single.admit_draw(8, 8, 1 << 53, true).is_err());
    }

    /// Dropping the relayout's twin from the formula moved no admission:
    /// the rescaled constants admit exactly the `(n, L)` the twin-charging
    /// formula `2·2^n·16 + 2^min(L,n)·16` admitted under the old
    /// constants (48 GiB engine ceiling, 3 GiB single host).
    #[test]
    fn rescaled_budgets_admit_what_the_twin_charging_formula_admitted() {
        let old_peak = |n: u32, l: u32| -> u64 {
            let amp = |q: u32| -> u128 { 16u128 << q.min(63) };
            u64::try_from(2 * amp(n) + amp(l.min(n))).unwrap_or(u64::MAX)
        };
        let budgets = [
            (MemoryBudget::ENGINE_CEILING, 3 * 16 * (1u64 << 30)),
            (MemoryBudget::SINGLE_HOST, 3 * 16 * (1u64 << 26)),
        ];
        for (new, old) in budgets {
            let cfg = AtlasConfig {
                memory_budget: MemoryBudget::bytes(new),
                ..AtlasConfig::default()
            };
            for n in 0..=63 {
                for l in 0..=n {
                    assert_eq!(
                        cfg.admit(n, l).is_ok(),
                        old_peak(n, l) <= old,
                        "n={n} L={l} under {new} bytes (was {old})"
                    );
                }
            }
        }
        assert_eq!(
            MemoryBudget::default().limit(),
            MemoryBudget::ENGINE_CEILING
        );
    }

    #[test]
    fn the_preset_configs_validate() {
        assert!(AtlasConfig::default().validate().is_ok());
        assert!(AtlasConfig::for_validation().validate().is_ok());
        assert!(AtlasConfig::hyquas_like().validate().is_ok());
    }
}
