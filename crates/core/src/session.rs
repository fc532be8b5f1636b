//! The typed simulation session: [`Planner`] → [`CompiledPlan`] →
//! [`Execution`].
//!
//! Atlas's whole value proposition is that PARTITION (the staging ILP
//! plus the KERNELIZE DP, Algorithm 1 lines 1–8) is expensive and
//! EXECUTE (lines 9–17) is where the time should go. The session API
//! makes that split first-class:
//!
//! 1. [`Planner::new`] captures the machine shape, cost model and
//!    configuration;
//! 2. [`Planner::plan`] runs PARTITION **once**, producing a
//!    [`CompiledPlan`] that owns the [`FullPlan`], the per-stage qubit
//!    mappings, and a [`CircuitFingerprint`] of the planned circuit;
//! 3. [`CompiledPlan::execute`] runs EXECUTE — **as many times as you
//!    like** — against any circuit whose structural fingerprint matches
//!    (same gate graph, different gate parameters), returning an
//!    [`Execution`] with the clock report, the sharded
//!    [`Measurements`] engine, pre-drawn samples, and (optionally) the
//!    gathered state. [`CompiledPlan::dry_run`] replays the clock model
//!    alone at any scale.
//!
//! An N-point VQC/QAOA parameter sweep therefore pays for staging and
//! kernelization exactly once (`atlas_core::staging::staging_invocations`
//! observes this; `tests/plan_once.rs` enforces it), which is how the
//! extended Atlas paper (arXiv:2408.09055) amortizes partitioning across
//! same-structure circuits.
//!
//! ## Why parameter changes are safe
//!
//! The plan depends on the circuit only through (a) each gate's qubit
//! indices, (b) each gate's *insularity signature* (diagonal /
//! anti-diagonal / non-insular per qubit position — what staging and
//! specialization key on), and (c) each gate's cost-model class (its
//! [`GateKind`] discriminant). Gate *matrices* are rebuilt from the
//! circuit handed to [`CompiledPlan::execute`] on every run. The
//! fingerprint hashes exactly (a)–(c), so a match guarantees the plan is
//! valid for the new circuit and a mismatch is rejected with
//! [`AtlasError::PlanMismatch`] before any state is allocated.
//!
//! [`GateKind`]: atlas_circuit::GateKind

use crate::config::AtlasConfig;
use crate::exec::{self, FullPlan};
use atlas_circuit::{insular, Circuit};
use atlas_error::AtlasError;
use atlas_machine::{CostModel, Machine, MachineReport, MachineSpec};
use atlas_sampler::Measurements;
use atlas_statevec::{Pool, StateVector};

/// Structural fingerprint of a circuit: everything PARTITION's output
/// depends on, and nothing it doesn't.
///
/// Two circuits with equal fingerprints have the same qubit count and
/// the same gate sequence up to *parameter values* — same gate kinds on
/// the same qubits with the same insularity signatures — so a plan
/// compiled for one executes the other correctly. Parameterized
/// rotations with generic angles (`RZ(0.3)` vs `RZ(0.7)`) fingerprint
/// identically; a parameter that crosses an insularity special case
/// (`RX(θ)` → `RX(π)` is anti-diagonal) changes the fingerprint, which
/// is exactly right because the plan's specialization templates would
/// no longer apply.
///
/// Implements `Hash`, so it can key a shared plan cache directly (the
/// `atlas-serve` session pool does). Every hashed token is
/// domain-tagged — see [`CircuitFingerprint::of`]'s `fp_domain`
/// constants — so distinct value classes (qubit indices, insularity
/// kinds, mnemonic bytes, the gate separator) can never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CircuitFingerprint {
    hash: u64,
    num_qubits: u32,
    num_gates: usize,
}

/// FNV-1a step over one 64-bit value (hand-rolled: no external hashing
/// deps, and the value must be stable across runs for snapshot tests).
#[inline]
fn fnv_mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 16, 32, 48] {
        h ^= (v >> shift) & 0xffff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Domain tags for the fingerprint's token classes. Every value is
/// mixed as `(domain << 48) | value`, so tokens from different classes
/// can **never** be equal (values are `< 2^48` by construction: qubit
/// indices are `u32`, name bytes are `u8`).
///
/// The pre-fix scheme used overlapping ad-hoc offsets — qubits mixed as
/// `0x100 + q`, which collided with the insularity tags `0x201–0x203`
/// at `q = 257..=259` and the gate separator `0x300` at `q = 512`. That
/// aliasing is latent territory today (gate-kind mnemonics happen to
/// delimit every gate and fix its arity), but becomes a plan-cache
/// poisoning vector the moment circuits reach hundreds of qubits or a
/// gate class without that grammar invariant appears. Explicit domains
/// make class disjointness structural instead of coincidental.
mod fp_domain {
    /// Circuit width (`num_qubits`), mixed once up front.
    pub const NUM_QUBITS: u64 = 1;
    /// One token per byte of the gate-kind mnemonic.
    pub const NAME_BYTE: u64 = 2;
    /// One token per qubit index, in gate-position order.
    pub const QUBIT: u64 = 3;
    /// One token per per-position insularity kind.
    pub const INSULARITY: u64 = 4;
    /// Gate separator, mixed once per gate.
    pub const SEPARATOR: u64 = 5;
}

/// Builds a domain-separated fingerprint token: `(domain << 48) | value`.
#[inline]
fn fp_token(domain: u64, value: u64) -> u64 {
    debug_assert!(value < 1 << 48, "token value must leave the tag bits free");
    (domain << 48) | value
}

/// Numeric encoding of an insularity kind inside the
/// [`fp_domain::INSULARITY`] domain.
#[inline]
fn fp_insularity_value(kind: insular::InsularKind) -> u64 {
    match kind {
        insular::InsularKind::Diagonal => 0,
        insular::InsularKind::AntiDiagonal => 1,
        insular::InsularKind::NonInsular => 2,
    }
}

impl CircuitFingerprint {
    /// Fingerprints a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv_mix(
            h,
            fp_token(fp_domain::NUM_QUBITS, circuit.num_qubits() as u64),
        );
        for gate in circuit.gates() {
            // (c) cost-model class: the gate-kind mnemonic.
            for b in gate.kind.name().bytes() {
                h = fnv_mix(h, fp_token(fp_domain::NAME_BYTE, b as u64));
            }
            // (a) qubit indices, in gate-position order.
            for q in gate.qubits.iter() {
                h = fnv_mix(h, fp_token(fp_domain::QUBIT, q as u64));
            }
            // (b) insularity signature per qubit position (numeric, so
            // parameter special cases like RX(π) are captured).
            for kind in insular::gate_insularity(gate) {
                h = fnv_mix(
                    h,
                    fp_token(fp_domain::INSULARITY, fp_insularity_value(kind)),
                );
            }
            h = fnv_mix(h, fp_token(fp_domain::SEPARATOR, 0));
        }
        CircuitFingerprint {
            hash: h,
            num_qubits: circuit.num_qubits(),
            num_gates: circuit.num_gates(),
        }
    }

    /// The 64-bit structural hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of qubits of the fingerprinted circuit.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates of the fingerprinted circuit.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// The acceptance test every engine's run applies before touching
    /// any state: `Ok(())` when `circuit` has this fingerprint,
    /// [`AtlasError::PlanMismatch`] otherwise.
    pub(crate) fn check(&self, circuit: &Circuit) -> Result<(), AtlasError> {
        let fp = CircuitFingerprint::of(circuit);
        if fp == *self {
            return Ok(());
        }
        Err(AtlasError::PlanMismatch {
            reason: format!(
                "circuit ({} qubits, {} gates, hash {:#018x}) does not match \
                 the planned structure ({} qubits, {} gates, hash {:#018x}); \
                 plans are reusable across same-structure circuits only — \
                 re-plan for a structurally different circuit",
                fp.num_qubits, fp.num_gates, fp.hash, self.num_qubits, self.num_gates, self.hash,
            ),
        })
    }
}

/// Phase 1 of a session: captures the machine shape, cost model and
/// configuration, and turns circuits into [`CompiledPlan`]s.
///
/// ```
/// use atlas_core::session::Planner;
/// use atlas_core::AtlasConfig;
/// use atlas_machine::{CostModel, MachineSpec};
///
/// let circuit = atlas_circuit::generators::ghz(8);
/// let spec = MachineSpec { nodes: 2, gpus_per_node: 2, local_qubits: 5 };
/// let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
/// let compiled = planner.plan(&circuit).unwrap();
/// let run = compiled.execute(&circuit).unwrap();
/// assert!((run.measurements.probability(0) - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Planner {
    spec: MachineSpec,
    cost: CostModel,
    cfg: AtlasConfig,
}

impl Planner {
    /// Creates a planner for one machine shape + cost model + config.
    ///
    /// Construction is infallible; [`Planner::plan`] runs
    /// [`AtlasConfig::validate`] (a config is a plain struct literal, so
    /// the planning door is where its rules are enforced) and checks the
    /// circuit/shape fit.
    pub fn new(spec: MachineSpec, cost: CostModel, cfg: AtlasConfig) -> Self {
        Planner { spec, cost, cfg }
    }

    /// The machine shape this planner targets.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The configuration this planner plans under.
    pub fn config(&self) -> &AtlasConfig {
        &self.cfg
    }

    /// The cost model plans are priced under (the `atlas-analyze`
    /// verifier replays it to prove clock-model conservation).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// PARTITION (Algorithm 1 lines 1–8): stage, map, specialize and
    /// kernelize `circuit`, returning a reusable [`CompiledPlan`].
    ///
    /// Errors: [`AtlasError::InvalidConfig`] for an incoherent
    /// configuration, [`AtlasError::CircuitTooSmall`] when
    /// `n < L + G`, and staging failures (the search's runaway stage
    /// bound exhausted).
    pub fn plan(&self, circuit: &Circuit) -> Result<CompiledPlan, AtlasError> {
        self.cfg.validate()?;
        let n = circuit.num_qubits();
        // The sharded engine indexes amplitudes and qubit masks with
        // `u64`, so 63 qubits is its hard ceiling. Reject wider circuits
        // with a typed error *before* any mask arithmetic — the circuit
        // type itself allows thousands of qubits for the stabilizer
        // backend (`Planner::plan_backend` routes those).
        if n > 63 {
            return Err(AtlasError::invalid_config(format!(
                "{n} qubits exceed the statevector backend's 63-qubit \
                 limit; all-Clifford circuits this wide run on the \
                 stabilizer backend (backend = auto or stabilizer)"
            )));
        }
        let l = self.spec.local_qubits;
        let g = self.spec.global_qubits();
        if n < l + g {
            return Err(AtlasError::CircuitTooSmall {
                qubits: n,
                local: l,
                global: g,
            });
        }
        let plan = exec::plan(circuit, l, g, &self.cost, &self.cfg)?;
        Ok(CompiledPlan {
            plan,
            spec: self.spec,
            cost: self.cost.clone(),
            cfg: self.cfg.clone(),
            fingerprint: CircuitFingerprint::of(circuit),
        })
    }
}

/// Phase 2 of a session: a PARTITION result bound to the machine shape
/// it was planned for, executable many times.
///
/// Owns the [`FullPlan`] (stages, per-stage qubit mappings, insular
/// specialization templates, kernel lists) and the
/// [`CircuitFingerprint`] of the planned circuit. [`execute`] accepts
/// any circuit with a matching fingerprint — same gate graph, different
/// gate parameters — so a parameter sweep plans once and runs N times.
///
/// [`execute`]: CompiledPlan::execute
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    plan: FullPlan,
    spec: MachineSpec,
    cost: CostModel,
    cfg: AtlasConfig,
    fingerprint: CircuitFingerprint,
}

impl CompiledPlan {
    /// The underlying execution plan.
    pub fn plan(&self) -> &FullPlan {
        &self.plan
    }

    /// The structural fingerprint of the circuit this plan was compiled
    /// from — the acceptance test of [`CompiledPlan::execute`].
    pub fn fingerprint(&self) -> &CircuitFingerprint {
        &self.fingerprint
    }

    /// The machine shape the plan targets.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The configuration the plan was compiled under.
    pub fn config(&self) -> &AtlasConfig {
        &self.cfg
    }

    /// The cost model the plan was priced under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.plan.stages.len()
    }

    /// Checks that `circuit` may run under this plan.
    pub fn accepts(&self, circuit: &Circuit) -> bool {
        CircuitFingerprint::of(circuit) == self.fingerprint
    }

    /// EXECUTE (Algorithm 1 lines 9–17) on a fresh `|0…0⟩` machine.
    ///
    /// Callable any number of times. `circuit` must match the plan's
    /// structural fingerprint (gate matrices are re-read from *this*
    /// circuit, so sweep points with different rotation angles reuse the
    /// plan); otherwise [`AtlasError::PlanMismatch`] is returned before
    /// any state is allocated.
    pub fn execute(&self, circuit: &Circuit) -> Result<Execution, AtlasError> {
        let run = self.execute_with(circuit, &|| false)?;
        Ok(run.expect("a never-stop probe cannot interrupt EXECUTE"))
    }

    /// [`execute`](CompiledPlan::execute) with a cooperative
    /// interruption probe, polled at every stage barrier of EXECUTE —
    /// the serve pool's cancellation and deadline hook.
    ///
    /// Returns `Ok(None)` when the probe stopped the run (the partial
    /// state is dropped; nothing is measured), `Ok(Some(_))` on
    /// completion. A probe that never fires is unobservable: results are
    /// byte-identical to [`execute`](CompiledPlan::execute).
    pub fn execute_with(
        &self,
        circuit: &Circuit,
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Option<Execution>, AtlasError> {
        self.fingerprint.check(circuit)?;
        // Admission control: compute the run's peak bytes (state +
        // ping-pong spare + scratch) *before* allocating anything.
        self.cfg
            .memory_budget
            .admit(self.plan.n, self.spec.local_qubits)?;
        let machine = Machine::new(self.spec, self.cost.clone(), self.plan.n, false);
        self.run_on(machine, circuit, false, should_stop)
    }

    /// EXECUTE starting from a caller-supplied state instead of
    /// `|0…0⟩` — the stabilizer→statevector hybrid handoff. `initial`
    /// is given in the identity qubit layout (index bit `q` = qubit
    /// `q`); it is loaded into the sharded machine and pre-permuted into
    /// the plan's stage-0 layout before the kernels run (a fresh
    /// `|0…0⟩` machine can skip that because the all-zero state is
    /// layout-invariant).
    pub fn execute_from(
        &self,
        circuit: &Circuit,
        initial: &StateVector,
    ) -> Result<Execution, AtlasError> {
        self.fingerprint.check(circuit)?;
        if initial.num_qubits() != self.plan.n {
            return Err(AtlasError::invalid_plan(format!(
                "initial state has {} qubits, plan expects {}",
                initial.num_qubits(),
                self.plan.n
            )));
        }
        self.cfg
            .memory_budget
            .admit(self.plan.n, self.spec.local_qubits)?;
        let machine = Machine::with_state(self.spec, self.cost.clone(), initial);
        let run = self.run_on(machine, circuit, true, &|| false)?;
        Ok(run.expect("a never-stop probe cannot interrupt EXECUTE"))
    }

    /// Shared EXECUTE body of [`execute`](CompiledPlan::execute) and
    /// [`execute_from`](CompiledPlan::execute_from). `Ok(None)` means
    /// `should_stop` interrupted the run at a stage barrier.
    fn run_on(
        &self,
        mut machine: Machine,
        circuit: &Circuit,
        permute_in: bool,
        should_stop: &dyn Fn() -> bool,
    ) -> Result<Option<Execution>, AtlasError> {
        machine.set_recorder(self.cfg.recorder.clone());
        if permute_in {
            if let Some(sp0) = self.plan.stages.first() {
                let perm = atlas_qmath::QubitPermutation::from_map(sp0.mapping.clone());
                if !perm.is_identity() {
                    machine.permute_state(&perm, 0, &Pool::SERIAL);
                }
            }
        }
        if !exec::execute(
            &mut machine,
            Some(circuit),
            &self.plan,
            &self.cfg,
            should_stop,
        ) {
            // Interrupted at a stage barrier: the state is partial —
            // drop it unmeasured.
            return Ok(None);
        }
        let state = self.cfg.final_unpermute.then(|| machine.gather_state());
        let report = machine.report();
        let mapping = self.plan.final_mapping(self.cfg.final_unpermute);
        let measurements = Measurements::new(machine, mapping, self.cfg.threads.max(1));
        let samples = (self.cfg.shots > 0).then(|| {
            let rec = &self.cfg.recorder;
            let t = rec.start();
            let samples = measurements.sample(self.cfg.shots, self.cfg.seed);
            rec.span(
                "sample.draw",
                t,
                true,
                0,
                0,
                0,
                &[("shots", self.cfg.shots as u64), ("seed", self.cfg.seed)],
            );
            rec.flush();
            samples
        });
        Ok(Some(Execution {
            report,
            state,
            measurements,
            samples,
        }))
    }

    /// Replays the clock model alone (no amplitudes, any qubit count) —
    /// the paper-scale dry-run mode. Needs no circuit: dry costs are
    /// charged straight from the plan.
    pub fn dry_run(&self) -> MachineReport {
        let mut machine = Machine::new(self.spec, self.cost.clone(), self.plan.n, true);
        machine.set_recorder(self.cfg.recorder.clone());
        let done = exec::execute(&mut machine, None, &self.plan, &self.cfg, &|| false);
        debug_assert!(done, "a never-stop probe cannot interrupt EXECUTE");
        machine.report()
    }
}

/// Phase 3 of a session: one finished functional EXECUTE.
///
/// Carries the clock/traffic report and the sharded [`Measurements`]
/// engine (which owns the machine's shard buffers); `state` is only
/// populated when the run's config set
/// [`final_unpermute`](AtlasConfig::final_unpermute), and `samples` only
/// when it set [`shots`](AtlasConfig::shots)` > 0`.
#[derive(Debug)]
pub struct Execution {
    /// Machine clock and traffic report for this run.
    pub report: MachineReport,
    /// The gathered final state in the identity qubit layout (only with
    /// [`AtlasConfig::final_unpermute`]; sweeps leave it off and read
    /// through `measurements`).
    pub state: Option<StateVector>,
    /// Measurement engine over the sharded final state: shots,
    /// marginals, Pauli expectations and top outcomes, all in place.
    pub measurements: Measurements,
    /// Pre-drawn shots when the config requested them (equal to
    /// `measurements.sample(cfg.shots, cfg.seed)`).
    pub samples: Option<Vec<u64>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators::{self, Family};
    use atlas_statevec::simulate_reference;

    fn small_spec() -> MachineSpec {
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 5,
        }
    }

    /// Regression test for the fingerprint domain-aliasing bug: under
    /// the pre-fix mixing, qubit `q` was tokenized as `0x100 + q`, so
    /// the qubit tokens at `q = 257..=259` were *equal* to the
    /// insularity tags (`0x201`–`0x203`) and at `q = 512` to the gate
    /// separator (`0x300`). Today's 63-qubit circuit cap keeps those
    /// indices out of reach, but a fingerprint keying a shared plan
    /// cache must not rely on that: the moment a wider backend lands
    /// (ROADMAP item 4 targets thousands of stabilizer qubits), the
    /// aliasing becomes a cache-poisoning vector. This test calls the
    /// *production* token constructors and fails against the old
    /// values: `0x100 + 257 == 0x201` etc.
    #[test]
    fn fingerprint_tokens_are_domain_separated() {
        use super::{fp_domain, fp_insularity_value, fp_token};
        use atlas_circuit::insular::InsularKind;
        // The exact collisions of the old scheme, as documentation:
        assert_eq!(0x100u64 + 257, 0x201); // qubit 257 == Diagonal tag
        assert_eq!(0x100u64 + 258, 0x202); // qubit 258 == AntiDiagonal tag
        assert_eq!(0x100u64 + 259, 0x203); // qubit 259 == NonInsular tag
        assert_eq!(0x100u64 + 512, 0x300); // qubit 512 == gate separator

        // The fixed scheme: no qubit token may equal any token of any
        // other class, for any representable qubit index — in
        // particular the four indices above.
        let ins_tokens: Vec<u64> = [
            InsularKind::Diagonal,
            InsularKind::AntiDiagonal,
            InsularKind::NonInsular,
        ]
        .into_iter()
        .map(|k| fp_token(fp_domain::INSULARITY, fp_insularity_value(k)))
        .collect();
        let separator = fp_token(fp_domain::SEPARATOR, 0);
        for q in [0u64, 1, 62, 256, 257, 258, 259, 511, 512, u32::MAX as u64] {
            let qt = fp_token(fp_domain::QUBIT, q);
            for &it in &ins_tokens {
                assert_ne!(qt, it, "qubit {q} token aliases an insularity tag");
            }
            assert_ne!(qt, separator, "qubit {q} token aliases the separator");
            for b in 0u64..=255 {
                assert_ne!(qt, fp_token(fp_domain::NAME_BYTE, b));
            }
            assert_ne!(qt, fp_token(fp_domain::NUM_QUBITS, q));
        }
        // Cross-class disjointness holds for every pair, not just
        // qubits: same value under different domains, different tokens.
        let domains = [
            fp_domain::NUM_QUBITS,
            fp_domain::NAME_BYTE,
            fp_domain::QUBIT,
            fp_domain::INSULARITY,
            fp_domain::SEPARATOR,
        ];
        for (i, &a) in domains.iter().enumerate() {
            for &b in &domains[i + 1..] {
                for v in [0u64, 3, 257, 512, (1 << 32) - 1] {
                    assert_ne!(fp_token(a, v), fp_token(b, v));
                }
            }
        }
    }

    #[test]
    fn fingerprint_ignores_generic_parameters() {
        let a = generators::qaoa(8);
        let b = a.map_params(|_, _, p| p + 0.125);
        assert_eq!(CircuitFingerprint::of(&a), CircuitFingerprint::of(&b));
    }

    #[test]
    fn fingerprint_sees_structure() {
        let a = generators::ghz(6);
        let mut b = generators::ghz(6);
        b.h(3); // extra gate
        assert_ne!(CircuitFingerprint::of(&a), CircuitFingerprint::of(&b));
        // Same kinds, different wiring.
        let mut c1 = Circuit::new(4);
        c1.h(0).cx(0, 1);
        let mut c2 = Circuit::new(4);
        c2.h(0).cx(0, 2);
        assert_ne!(CircuitFingerprint::of(&c1), CircuitFingerprint::of(&c2));
    }

    #[test]
    fn fingerprint_sees_insularity_special_cases() {
        // RX(θ) is non-insular for generic θ but anti-diagonal at θ = π:
        // the plan's specialization templates differ, so the fingerprint
        // must too.
        let mut generic = Circuit::new(2);
        generic.rx(0.7, 0).cx(0, 1);
        let mut special = Circuit::new(2);
        special.rx(std::f64::consts::PI, 0).cx(0, 1);
        assert_ne!(
            CircuitFingerprint::of(&generic),
            CircuitFingerprint::of(&special)
        );
    }

    #[test]
    fn execute_rejects_structurally_different_circuit() {
        let circuit = generators::ghz(8);
        let planner = Planner::new(small_spec(), CostModel::default(), AtlasConfig::default());
        let compiled = planner.plan(&circuit).unwrap();
        let mut other = generators::ghz(8);
        other.h(7);
        assert!(!compiled.accepts(&other));
        match compiled.execute(&other) {
            Err(AtlasError::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
    }

    #[test]
    fn planner_rejects_too_small_circuit_and_bad_config() {
        let circuit = generators::ghz(4);
        let planner = Planner::new(small_spec(), CostModel::default(), AtlasConfig::default());
        match planner.plan(&circuit) {
            Err(AtlasError::CircuitTooSmall {
                qubits: 4,
                local: 5,
                global: 1,
            }) => {}
            other => panic!("expected CircuitTooSmall, got {other:?}"),
        }
        let bad = AtlasConfig {
            threads: 0,
            ..AtlasConfig::default()
        };
        let planner = Planner::new(MachineSpec::single_gpu(4), CostModel::default(), bad);
        match planner.plan(&circuit) {
            Err(AtlasError::InvalidConfig { .. }) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    // ---- engine tests: PARTITION + EXECUTE against the dense reference ----

    fn check_family(fam: Family, n: u32, spec: MachineSpec) {
        let circuit = fam.generate(n);
        let cfg = AtlasConfig::for_validation();
        let run = Planner::new(spec, CostModel::default(), cfg)
            .plan(&circuit)
            .and_then(|compiled| compiled.execute(&circuit))
            .unwrap_or_else(|e| panic!("{fam:?} n={n}: {e}"));
        let got = run.state.expect("final_unpermute gathers the state");
        let want = simulate_reference(&circuit);
        let diff = got.max_abs_diff(&want);
        assert!(
            diff < 1e-9,
            "{fam:?} n={n} L={} G={}: distributed result diverged by {diff}",
            spec.local_qubits,
            spec.global_qubits()
        );
    }

    #[test]
    fn all_families_match_reference_on_multi_gpu() {
        // 2 nodes × 2 GPUs, L = n-3: every family must agree with the
        // reference amplitudes through staging, kernelization, insular
        // specialization and the all-to-alls.
        for fam in Family::table1() {
            let n = 9;
            let spec = MachineSpec {
                nodes: 2,
                gpus_per_node: 2,
                local_qubits: n - 3,
            };
            check_family(fam, n, spec);
        }
    }

    #[test]
    fn qft_matches_on_many_small_shards() {
        // Aggressive split: L = 5 on an 10-qubit circuit → 32 shards,
        // multiple stages guaranteed.
        let spec = MachineSpec {
            nodes: 4,
            gpus_per_node: 2,
            local_qubits: 5,
        };
        check_family(Family::Qft, 10, spec);
        check_family(Family::Su2Random, 10, spec);
        check_family(Family::WState, 10, spec);
    }

    #[test]
    fn offloaded_execution_matches() {
        // More shards than GPUs: DRAM offload path.
        let spec = MachineSpec {
            nodes: 1,
            gpus_per_node: 2,
            local_qubits: 5,
        };
        check_family(Family::Ae, 10, spec);
        check_family(Family::Ghz, 10, spec);
    }

    #[test]
    fn single_gpu_no_staging() {
        let spec = MachineSpec::single_gpu(8);
        check_family(Family::Vqc, 8, spec);
    }

    #[test]
    fn functional_run_hands_out_measurements_without_unpermute() {
        // No final unpermute: the state stays in the last stage's layout,
        // yet the measurement handle reports logical-order results that
        // match the dense reference.
        let circuit = Family::Qft.generate(9);
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 6,
        };
        let cfg = AtlasConfig {
            shots: 32,
            seed: 11,
            ..AtlasConfig::default() // final_unpermute = false
        };
        let run = Planner::new(spec, CostModel::default(), cfg)
            .plan(&circuit)
            .unwrap()
            .execute(&circuit)
            .unwrap();
        assert!(run.state.is_none(), "no gather without final_unpermute");
        let m = run.measurements;
        // cfg.shots/cfg.seed drew the samples already.
        let samples = run.samples.expect("cfg.shots > 0 pre-draws samples");
        assert_eq!(samples.len(), 32);
        assert_eq!(samples, m.sample(32, 11));
        let want = simulate_reference(&circuit);
        for x in [0u64, 1, 100, 511] {
            assert!((m.probability(x) - want.probability(x)).abs() < 1e-9);
        }
        let top = m.top(4);
        let dense = want.top_probabilities(4);
        assert_eq!(
            top.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            dense.iter().map(|&(i, _)| i).collect::<Vec<_>>()
        );
        assert!((m.total_norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dry_run_produces_report_without_state() {
        // Paper scale: 2^30 amplitudes are never allocated — the dry walk
        // charges the clock model straight from the plan.
        let circuit = Family::Qft.generate(30);
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 26,
        };
        let report = Planner::new(spec, CostModel::default(), AtlasConfig::default())
            .plan(&circuit)
            .unwrap()
            .dry_run();
        assert!(report.total_secs > 0.0);
        assert!(report.kernels > 0);
    }

    use atlas_circuit::Circuit;
}
