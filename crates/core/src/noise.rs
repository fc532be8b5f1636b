//! Depolarizing noise as Pauli-twirled stochastic trajectories.
//!
//! A depolarizing channel of strength `p` after each gate is simulated
//! by its Pauli twirl: with probability `p`, inject a uniformly random
//! X/Y/Z on each qubit the gate touched. Averaging measurement
//! statistics over trajectories converges to the channel's output.
//!
//! The load-bearing design point is **plan-once**: every trajectory
//! shares one [`CircuitFingerprint`] and therefore one compiled plan.
//! [`noisy_template`] inserts an identity [`PauliNoise`] slot after
//! each gate on each touched qubit; [`Trajectories::circuit`] re-draws
//! only the slot *selectors* via [`Circuit::map_params`], and `PauliNoise`'s
//! insularity is selector-independent by construction (see
//! `atlas_circuit::insular`), so the structural fingerprint never
//! moves. A noisy N-trajectory sweep pays PARTITION exactly once, on
//! any backend.
//!
//! Determinism: trajectory `i`'s selector draws come from
//! `CounterRng::new(seed).split(SELECTOR_STREAM).split(i)` and its
//! sampling seed from `CounterRng::new(seed).split(SAMPLE_STREAM)
//! .u64_at(i)` — pure functions of `(seed, i)`, independent of thread
//! count, shard layout and serve-pool worker count.
//!
//! [`CircuitFingerprint`]: crate::session::CircuitFingerprint
//! [`PauliNoise`]: GateKind::PauliNoise

use crate::backend::{BackendPlan, BackendRun};
use atlas_circuit::{Circuit, GateKind};
use atlas_error::AtlasError;
use atlas_sampler::CounterRng;
use std::collections::BTreeMap;

/// RNG stream tag for per-trajectory Pauli selector draws.
const SELECTOR_STREAM: u64 = 0x6e6f_6973; // "nois"
/// RNG stream tag for per-trajectory sampling seeds.
const SAMPLE_STREAM: u64 = 0x7368_6f74; // "shot"

/// Builds the noisy template of `circuit`: after every gate, one
/// identity `PauliNoise(0)` slot per touched qubit. The template is
/// what gets planned; trajectories only re-parameterize it.
pub fn noisy_template(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), format!("{}_noisy", circuit.name()));
    for g in circuit.gates() {
        out.push(*g);
        for q in g.qubits.iter() {
            out.add(GateKind::PauliNoise(0.0), &[q]);
        }
    }
    out
}

/// A validated noisy sweep: depolarizing strength `p`, trajectory count
/// and the seed every trajectory and its shots are drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trajectories {
    p: f64,
    count: usize,
    seed: u64,
}

impl Trajectories {
    /// Errors with [`AtlasError::InvalidConfig`] when `p` lies outside
    /// `[0, 1]` (or is NaN) or `count` is zero.
    pub fn new(p: f64, count: usize, seed: u64) -> Result<Self, AtlasError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(AtlasError::invalid_config(format!(
                "noise = {p}: the per-qubit error probability must lie in [0, 1]"
            )));
        }
        if count == 0 {
            return Err(AtlasError::invalid_config(
                "trajectories = 0: a noisy run needs at least one stochastic \
                 trajectory",
            ));
        }
        Ok(Trajectories { p, count, seed })
    }

    /// The depolarizing strength.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The number of trajectories.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Instantiates trajectory `t` of a noisy template: each `PauliNoise`
    /// slot draws, from the pure function of `(seed, t, slot index)`,
    /// either the identity (probability `1 − p`) or a uniform X/Y/Z.
    /// All other gate parameters pass through untouched.
    pub fn circuit(&self, template: &Circuit, t: u64) -> Circuit {
        let rng = CounterRng::new(self.seed).split(SELECTOR_STREAM).split(t);
        let mut slot = 0u64;
        template.map_params(|gi, _, param| {
            if !matches!(template.gates()[gi].kind, GateKind::PauliNoise(_)) {
                return param;
            }
            let k = slot;
            slot += 1;
            if rng.f64_at(2 * k) < self.p {
                // 1 = X, 2 = Y, 3 = Z, uniformly.
                1.0 + (rng.u64_at(2 * k + 1) % 3) as f64
            } else {
                0.0
            }
        })
    }

    /// Runs the sweep through one compiled plan of `template`: each
    /// trajectory executed under `plan` and sampled for its share of
    /// `shots` (trajectory `t` gets `shots / count` plus one of the
    /// remainder).
    pub fn run(
        &self,
        plan: &BackendPlan,
        template: &Circuit,
        shots: usize,
    ) -> Result<NoisyOutcome, AtlasError> {
        let k = self.count;
        let sample_seeds = CounterRng::new(self.seed).split(SAMPLE_STREAM);
        let mut counts: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        for t in 0..k {
            let traj_shots = shots / k + usize::from(t < shots % k);
            if traj_shots == 0 {
                continue;
            }
            let run: BackendRun = plan.run(&self.circuit(template, t as u64))?;
            for s in run.sample_words(traj_shots, sample_seeds.u64_at(t as u64)) {
                *counts.entry(s).or_insert(0) += 1;
            }
        }
        Ok(NoisyOutcome {
            counts: counts.into_iter().collect(),
            trajectories: k,
            shots,
        })
    }
}

/// Aggregated output of a noisy trajectory sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoisyOutcome {
    /// Shot counts per bit-packed outcome, ascending by bitstring —
    /// summed across all trajectories.
    pub counts: Vec<(Vec<u64>, u64)>,
    /// Trajectories executed.
    pub trajectories: usize,
    /// Total shots drawn (across trajectories).
    pub shots: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AtlasConfig, BackendKind};
    use crate::session::{CircuitFingerprint, Planner};
    use atlas_circuit::generators;
    use atlas_machine::{CostModel, MachineSpec};

    fn planner(backend: BackendKind) -> Planner {
        let cfg = AtlasConfig {
            backend,
            ..AtlasConfig::default()
        };
        Planner::new(MachineSpec::single_gpu(5), CostModel::default(), cfg)
    }

    fn sweep(p: f64, seed: u64) -> Trajectories {
        Trajectories::new(p, 6, seed).unwrap()
    }

    #[test]
    fn template_inserts_one_slot_per_touched_qubit() {
        let c = generators::ghz(5); // 1 H + 4 CX = 1 + 4·2 = 9 slots
        let t = noisy_template(&c);
        assert_eq!(t.num_gates(), c.num_gates() + 9);
        let slots = t
            .gates()
            .iter()
            .filter(|g| matches!(g.kind, GateKind::PauliNoise(_)))
            .count();
        assert_eq!(slots, 9);
    }

    #[test]
    fn trajectories_share_the_template_fingerprint() {
        let t = noisy_template(&generators::qaoa(6));
        let base = CircuitFingerprint::of(&t);
        for traj in 0..8 {
            let c = sweep(0.3, 11).circuit(&t, traj);
            assert_eq!(
                CircuitFingerprint::of(&c),
                base,
                "trajectory {traj} broke plan-once"
            );
        }
    }

    #[test]
    fn trajectory_draws_are_pure_functions_of_seed_and_index() {
        let t = noisy_template(&generators::clifford(4));
        let a = sweep(0.2, 7).circuit(&t, 3);
        let b = sweep(0.2, 7).circuit(&t, 3);
        assert_eq!(a.gates().len(), b.gates().len());
        for (x, y) in a.gates().iter().zip(b.gates()) {
            assert_eq!(x.kind.params(), y.kind.params());
        }
        // A different trajectory index draws differently somewhere.
        let c = sweep(0.9, 7).circuit(&t, 4);
        let differs = a
            .gates()
            .iter()
            .zip(c.gates())
            .any(|(x, y)| x.kind.params() != y.kind.params());
        assert!(differs);
    }

    #[test]
    fn zero_noise_trajectory_is_all_identity() {
        let t = noisy_template(&generators::ghz(4));
        let c = sweep(0.0, 5).circuit(&t, 0);
        for g in c.gates() {
            if let GateKind::PauliNoise(sel) = g.kind {
                assert_eq!(sel, 0.0);
            }
        }
    }

    #[test]
    fn noisy_sweep_is_deterministic_and_plan_once() {
        let template = noisy_template(&generators::ghz(6));
        let plan = planner(BackendKind::Auto).plan_backend(&template).unwrap();
        // GHZ + Pauli noise is all-Clifford: the tableau runs it.
        assert_eq!(plan.backend_name(), "stabilizer");
        let a = sweep(0.1, 13).run(&plan, &template, 100).unwrap();
        let b = sweep(0.1, 13).run(&plan, &template, 100).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shots, 100);
        assert_eq!(a.trajectories, 6);
        assert_eq!(a.counts.iter().map(|(_, c)| c).sum::<u64>(), 100);
        // Noise must actually corrupt some shots at p = 0.1 over 9
        // slots: the noiseless GHZ support is exactly {0…0, 1…1}.
        assert!(a.counts.len() > 2, "expected corrupted outcomes");
    }

    #[test]
    fn statevec_and_stabilizer_agree_on_noisy_trajectory_distributions() {
        // Shot-level draws are engine-specific (inverse-CDF vs
        // measurement cascade), so the cross-engine contract is exact
        // distribution equality per trajectory, not byte-equal shots.
        let template = noisy_template(&generators::ghz(6));
        let sv_plan = planner(BackendKind::Statevec).plan_backend(&template);
        let st_plan = planner(BackendKind::Stabilizer).plan_backend(&template);
        let (sv_plan, st_plan) = (sv_plan.unwrap(), st_plan.unwrap());
        for t in 0..4u64 {
            let c = sweep(0.15, 21).circuit(&template, t);
            let (a, b) = (sv_plan.run(&c).unwrap(), st_plan.run(&c).unwrap());
            for idx in 0..(1u64 << 6) {
                assert!(
                    (a.probability_of_bits(&[idx]) - b.probability_of_bits(&[idx])).abs() < 1e-9,
                    "trajectory {t}: p({idx}) differs"
                );
            }
        }
    }

    /// The two rules of a noisy sweep, each rejected with
    /// `InvalidConfig` naming the offending value.
    #[test]
    fn trajectories_reject_a_bad_probability_or_count() {
        for (p, count, needle) in [
            (-0.1, 4, "noise"),
            (1.5, 4, "noise"),
            (f64::NAN, 4, "noise"),
            (0.05, 0, "trajectories"),
        ] {
            match Trajectories::new(p, count, 3) {
                Err(AtlasError::InvalidConfig { reason }) => assert!(
                    reason.contains(needle),
                    "expected reason mentioning '{needle}', got: {reason}"
                ),
                other => panic!("p = {p}, count = {count} should be rejected, got {other:?}"),
            }
        }
    }

    /// Boundary probabilities are legal: p = 0 draws only identities,
    /// p = 1 corrupts every slot.
    #[test]
    fn trajectories_accept_the_boundary_probabilities() {
        let t = noisy_template(&generators::ghz(4));
        for p in [0.0, 1.0] {
            let sweep = Trajectories::new(p, 4, 11).unwrap();
            assert_eq!((sweep.p(), sweep.count()), (p, 4));
            for g in sweep.circuit(&t, 2).gates() {
                if let GateKind::PauliNoise(sel) = g.kind {
                    assert_eq!(sel != 0.0, p == 1.0, "p = {p}: selector {sel}");
                }
            }
        }
    }
}
