//! Backend dispatch: one planning entry point
//! ([`Planner::plan_backend`]) returning a [`BackendPlan`] — a closed
//! enum over two engines, dispatched by `match` — whose
//! [`BackendPlan::run`] yields a [`BackendRun`].
//!
//! The session flow (plan once → execute many → sample/expect) is
//! engine-agnostic: what varies is *how* a circuit runs, not how plans
//! are keyed (the [`CircuitFingerprint`]) or how results are queried
//! (shots, Pauli expectations, basis-state probabilities). Next to the
//! sharded statevector, all-Clifford circuits replay on the CHP tableau
//! ([`StabilizerPlan`]) in polynomial time — thousands of qubits where
//! the statevector engine caps at 63. One circuit runs on one engine
//! end to end.
//!
//! [`BackendKind::Auto`] sends all-Clifford circuits to the tableau and
//! everything else to the statevector engine; `Statevec` and
//! `Stabilizer` force an engine and fail with a typed
//! [`AtlasError::InvalidConfig`] when the circuit does not fit it.

use crate::config::BackendKind;
use crate::session::{CircuitFingerprint, CompiledPlan, Execution, Planner};
use atlas_circuit::Circuit;
use atlas_error::AtlasError;
use atlas_sampler::{CounterRng, PauliString};
use atlas_stabilizer::Tableau;
use atlas_telemetry::Recorder;

/// A compiled stabilizer-backend plan: the fingerprint plus the recorder
/// its runs record through. There is no PARTITION stage — tableau replay
/// needs no staging, kernelization or machine shape — so "planning" is
/// fingerprinting, and `run` replays the (structure-matching) circuit
/// on a fresh tableau.
#[derive(Clone, Debug)]
pub struct StabilizerPlan {
    fingerprint: CircuitFingerprint,
    recorder: Recorder,
}

impl StabilizerPlan {
    /// Compiles a plan for `circuit` (which must be all-Clifford when
    /// later executed — checked at `run`, not here, since only the
    /// structure is captured).
    pub(crate) fn new(circuit: &Circuit, recorder: Recorder) -> Self {
        StabilizerPlan {
            fingerprint: CircuitFingerprint::of(circuit),
            recorder,
        }
    }

    fn run(&self, circuit: &Circuit) -> Result<BackendRun, AtlasError> {
        self.fingerprint.check(circuit)?;
        let rec = &self.recorder;
        let t = rec.start();
        let tableau = Tableau::from_circuit(circuit)?;
        rec.span(
            "stabilizer.run",
            t,
            true,
            0,
            0,
            0,
            &[
                ("qubits", circuit.num_qubits() as u64),
                ("gates", circuit.num_gates() as u64),
            ],
        );
        rec.flush();
        let recorder = rec.clone();
        Ok(BackendRun::Stabilizer(StabilizerRun { tableau, recorder }))
    }
}

/// The dispatcher: whichever plan [`Planner::plan_backend`] chose.
#[derive(Clone, Debug)]
pub enum BackendPlan {
    /// The sharded statevector engine end to end. Boxed: a
    /// `CompiledPlan` is hundreds of bytes, a `StabilizerPlan` a
    /// fingerprint and a recorder handle.
    Statevec(Box<CompiledPlan>),
    /// The CHP tableau end to end.
    Stabilizer(StabilizerPlan),
}

impl BackendPlan {
    /// The structural fingerprint this plan was compiled from.
    pub fn fingerprint(&self) -> &CircuitFingerprint {
        match self {
            BackendPlan::Statevec(p) => p.fingerprint(),
            BackendPlan::Stabilizer(p) => &p.fingerprint,
        }
    }

    /// The CLI name of the engine that will run the circuit.
    pub fn backend_name(&self) -> &'static str {
        match self {
            BackendPlan::Statevec(_) => "statevec",
            BackendPlan::Stabilizer(_) => "stabilizer",
        }
    }

    /// Whether `circuit` may run under this plan (same structure, any
    /// gate parameters).
    pub fn accepts(&self, circuit: &Circuit) -> bool {
        CircuitFingerprint::of(circuit) == *self.fingerprint()
    }

    /// Executes a structure-matching circuit, returning the unified
    /// query surface; [`AtlasError::PlanMismatch`] otherwise.
    pub fn run(&self, circuit: &Circuit) -> Result<BackendRun, AtlasError> {
        match self {
            BackendPlan::Statevec(p) => p
                .execute(circuit)
                .map(|e| BackendRun::Statevec(Box::new(e))),
            BackendPlan::Stabilizer(p) => p.run(circuit),
        }
    }
}

/// A finished stabilizer-backend execution: the final tableau, and the
/// plan's recorder, which its shot draws record through.
#[derive(Clone, Debug)]
pub struct StabilizerRun {
    /// The post-circuit tableau — every exact query runs against it.
    pub tableau: Tableau,
    recorder: Recorder,
}

/// One finished backend execution, queryable the same way regardless of
/// which engine produced it. Bitstrings are bit-packed `u64` words —
/// bit `q % 64` of word `q / 64` is qubit `q` — so results scale past
/// 64 qubits on the stabilizer side; statevector results always occupy
/// a single word.
#[derive(Debug)]
pub enum BackendRun {
    /// A statevector [`Execution`] (report, measurements engine, state).
    /// Boxed: an `Execution` is hundreds of bytes, a `StabilizerRun` a
    /// fraction of that, and runs are handled through `&self` queries.
    Statevec(Box<Execution>),
    /// A stabilizer [`StabilizerRun`].
    Stabilizer(StabilizerRun),
}

impl BackendRun {
    /// Words per bitstring for this run's width.
    pub fn num_words(&self) -> usize {
        match self {
            BackendRun::Statevec(_) => 1,
            BackendRun::Stabilizer(r) => r.tableau.num_words(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        match self {
            BackendRun::Statevec(e) => e.measurements.num_qubits(),
            BackendRun::Stabilizer(r) => r.tableau.num_qubits() as u32,
        }
    }

    /// Draws `shots` samples with `seed` (shot `i` is a pure function of
    /// `(seed, i)` on both engines), as bit-packed words. Each call is one
    /// det `sample.draw` span on the run's recorder, as
    /// [`Measurements::sample`](atlas_sampler::Measurements::sample)
    /// records on the statevector side.
    pub fn sample_words(&self, shots: usize, seed: u64) -> Vec<Vec<u64>> {
        match self {
            BackendRun::Statevec(e) => e
                .measurements
                .sample(shots, seed)
                .into_iter()
                .map(|v| vec![v])
                .collect(),
            BackendRun::Stabilizer(r) => {
                let t = r.recorder.start();
                let rng = CounterRng::new(seed);
                let draw = (0..shots as u64).map(|shot| r.tableau.sample_words(&rng, shot));
                let words = draw.collect();
                let args = [("shots", shots as u64), ("seed", seed)];
                r.recorder.span("sample.draw", t, true, 0, 0, 0, &args);
                r.recorder.flush();
                words
            }
        }
    }

    /// The expectation `⟨ψ|P|ψ⟩` of a Pauli string over logical qubits.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.expectation(p),
            BackendRun::Stabilizer(r) => r.tableau.expectation(p),
        }
    }

    /// Probability of the basis state packed in `bits`.
    pub fn probability_of_bits(&self, bits: &[u64]) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.probability(bits[0]),
            BackendRun::Stabilizer(r) => r.tableau.probability_of_bits(bits),
        }
    }

    /// Probability that measuring qubit `q` yields `1`.
    pub fn marginal_one(&self, q: u32) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.marginal(&[q])[1],
            BackendRun::Stabilizer(r) => r.tableau.marginal_one_prob(q as usize),
        }
    }
}

impl Planner {
    /// PARTITION with backend dispatch: compiles `circuit` for the
    /// engine selected by [`AtlasConfig::backend`](crate::AtlasConfig::backend).
    ///
    /// * `Auto` — all-Clifford circuits get a [`StabilizerPlan`];
    ///   everything else gets the statevector [`CompiledPlan`].
    /// * `Statevec` — always the statevector plan; circuits wider than
    ///   63 qubits are rejected with [`AtlasError::InvalidConfig`].
    /// * `Stabilizer` — always the tableau; non-Clifford circuits are
    ///   rejected with [`AtlasError::InvalidConfig`] naming the first
    ///   offending gate.
    pub fn plan_backend(&self, circuit: &Circuit) -> Result<BackendPlan, AtlasError> {
        let cfg = self.config();
        cfg.validate()?;
        if cfg.backend.runs_on_tableau(circuit.is_clifford()) {
            let plan = StabilizerPlan::new(circuit, cfg.recorder.clone());
            return Ok(BackendPlan::Stabilizer(plan));
        }
        match cfg.backend {
            BackendKind::Statevec | BackendKind::Auto => {
                Ok(BackendPlan::Statevec(Box::new(self.plan(circuit)?)))
            }
            BackendKind::Stabilizer => {
                let at = circuit.clifford_prefix_len();
                Err(AtlasError::invalid_config(format!(
                    "backend = stabilizer requires an all-Clifford circuit, \
                     but gate {at} is '{}'; use backend = auto to dispatch \
                     mixed circuits",
                    circuit.gates()[at].kind.name()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtlasConfig;
    use atlas_circuit::generators;
    use atlas_machine::{CostModel, MachineSpec};
    use atlas_sampler::PauliOp;

    fn planner(backend: BackendKind) -> Planner {
        let cfg = AtlasConfig {
            backend,
            final_unpermute: true,
            ..AtlasConfig::default()
        };
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 5,
        };
        Planner::new(spec, CostModel::default(), cfg)
    }

    #[test]
    fn auto_routes_clifford_circuits_to_the_tableau() {
        let c = generators::clifford(8);
        let plan = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        assert!(matches!(plan, BackendPlan::Stabilizer(_)));
        assert_eq!(plan.backend_name(), "stabilizer");
        assert!(plan.accepts(&c));
    }

    #[test]
    fn auto_routes_qaoa_to_statevec() {
        // QAOA opens with a wall of H gates — a Clifford prefix — but one
        // circuit runs on one engine: any non-Clifford gate means statevec.
        let qaoa = generators::qaoa(8);
        assert!(qaoa.clifford_prefix_len() > 0);
        let plan = planner(BackendKind::Auto).plan_backend(&qaoa).unwrap();
        assert!(matches!(plan, BackendPlan::Statevec(_)));
        assert_eq!(plan.backend_name(), "statevec");
    }

    #[test]
    fn forced_backends_reject_unfit_circuits() {
        let qaoa = generators::qaoa(8);
        match planner(BackendKind::Stabilizer).plan_backend(&qaoa) {
            Err(AtlasError::InvalidConfig { reason }) => {
                assert!(reason.contains("all-Clifford"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let wide = generators::ghz(200);
        match planner(BackendKind::Statevec).plan_backend(&wide) {
            Err(AtlasError::InvalidConfig { reason }) => {
                assert!(reason.contains("63"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn wide_clifford_circuit_plans_and_samples_through_the_session() {
        // The acceptance bar: a 200-qubit all-Clifford circuit plans and
        // samples through Planner::plan_backend.
        let c = generators::ghz(200);
        let planner = Planner::new(
            MachineSpec::single_gpu(5),
            CostModel::default(),
            AtlasConfig::default(),
        );
        let plan = planner.plan_backend(&c).unwrap();
        assert_eq!(plan.backend_name(), "stabilizer");
        let run = plan.run(&c).unwrap();
        assert_eq!(run.num_qubits(), 200);
        let samples = run.sample_words(32, 9);
        assert_eq!(samples.len(), 32);
        let zeros = vec![0u64; run.num_words()];
        let ones = {
            let mut v = vec![u64::MAX; 3];
            v.push((1u64 << (200 - 192)) - 1);
            v
        };
        for s in &samples {
            assert!(*s == zeros || *s == ones, "GHZ shot must be all-0 or all-1");
        }
        let zz = PauliString::from_ops(200, &[(0, PauliOp::Z), (199, PauliOp::Z)]);
        assert_eq!(run.expectation(&zz), 1.0);
    }

    #[test]
    fn stabilizer_draw_is_one_sample_draw_span() {
        let recorder = Recorder::enabled();
        let cfg = AtlasConfig {
            recorder: recorder.clone(),
            ..AtlasConfig::default()
        };
        let c = generators::clifford(6);
        let planner = Planner::new(MachineSpec::single_gpu(5), CostModel::default(), cfg);
        let run = planner.plan_backend(&c).unwrap().run(&c).unwrap();
        assert!(matches!(run, BackendRun::Stabilizer(_)));
        assert_eq!(run.sample_words(24, 5).len(), 24);
        let draws: Vec<_> = recorder
            .drain()
            .into_iter()
            .filter(|e| e.name == "sample.draw")
            .collect();
        assert_eq!(draws.len(), 1);
        assert!(draws[0].det);
        assert_eq!(draws[0].args(), [("shots", 24), ("seed", 5)]);
    }

    #[test]
    fn stabilizer_plan_rejects_structure_mismatch() {
        let c = generators::clifford(6);
        let plan = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        let mut other = generators::clifford(6);
        other.h(0);
        assert!(!plan.accepts(&other));
        assert!(matches!(
            plan.run(&other),
            Err(AtlasError::PlanMismatch { .. })
        ));
    }
}
