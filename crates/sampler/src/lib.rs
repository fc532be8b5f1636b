//! # atlas-sampler
//!
//! The sharded measurement engine: shot sampling, marginal probability
//! distributions, and Pauli-string expectation values computed **directly
//! on the distributed, still-permuted state** — the full `2^n` vector is
//! never gathered or unpermuted.
//!
//! Atlas partitions the state across device shards precisely so that the
//! whole vector never has to live in one place; this crate extends that
//! property past the last gate. Real workloads consume *measurements*
//! (QAOA energies, Grover success probabilities, sampled bitstrings),
//! and each of them reduces over the shards in place:
//!
//! * **shots** — inverse-CDF sampling over a logical-order chunked CDF
//!   ([`Machine::logical_chunk_norms`] / [`Machine::resolve_targets`]),
//!   seeded by a counter-based, schedule-independent [`CounterRng`]:
//!   with a fixed seed the sampled bitstrings are byte-identical across
//!   thread counts and shard layouts;
//! * **Pauli expectations** — `⟨ψ|P|ψ⟩` via one flip mask, one sign mask
//!   and an `i^{#Y}` prefactor ([`PauliString`]), reduced per shard with
//!   cross-shard partner reads and no data movement;
//! * **marginals / top outcomes** — per-shard accumulation and bounded
//!   top-`k` heaps, merged in shard order.
//!
//! The final qubit permutation left behind by staged execution is undone
//! **in index space**, per sampled bitstring / per Pauli term, through a
//! byte-LUT [`atlas_qmath::IndexPermuter`] — not by re-laying-out
//! amplitudes.
//!
//! Entry point: [`Measurements`], handed out as
//! `atlas_core::session::Execution::measurements` by every functional run.
//!
//! [`Machine::logical_chunk_norms`]: atlas_machine::Machine::logical_chunk_norms
//! [`Machine::resolve_targets`]: atlas_machine::Machine::resolve_targets

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod pauli;
pub mod rng;

pub use engine::{count_samples, Measurements, SAMPLE_CHUNK_BITS};
pub use pauli::{PauliOp, PauliString};
pub use rng::CounterRng;

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::Circuit;
    use atlas_machine::{CostModel, Machine, MachineSpec};
    use atlas_statevec::simulate_reference;

    fn spec() -> MachineSpec {
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 3,
        }
    }

    /// A dense 5-qubit state distributed over 4 shards, plus its dense
    /// reference, under a non-trivial final layout.
    fn permuted_fixture() -> (Measurements, atlas_statevec::StateVector, Vec<u32>) {
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q).rz(0.11 * (q + 2) as f64, q);
        }
        prep.cx(0, 4).cp(0.8, 2, 3).cx(1, 3);
        let reference = simulate_reference(&prep);
        let mut machine = Machine::with_state(spec(), CostModel::default(), &reference);
        // Final layout: logical q at physical mapping[q].
        let mapping: Vec<u32> = vec![2, 4, 0, 3, 1];
        let perm = atlas_qmath::QubitPermutation::from_map(mapping.clone());
        machine.permute_state(&perm, 0, &atlas_statevec::Pool::SERIAL);
        (
            Measurements::new(machine, mapping.clone(), 1),
            reference,
            mapping,
        )
    }

    #[test]
    fn probability_and_top_undo_the_permutation() {
        let (m, reference, _) = permuted_fixture();
        for x in 0..32u64 {
            assert!((m.probability(x) - reference.probability(x)).abs() < 1e-12);
        }
        let want = reference.top_probabilities(6);
        let got = m.top(6);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            want.iter().map(|&(i, _)| i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expectation_matches_dense_on_permuted_state() {
        let (m, reference, _) = permuted_fixture();
        for s in ["ZIIIZ", "IXIXI", "YZXIY", "XXXXX", "IIIII", "ZYIXZ"] {
            let p: PauliString = s.parse().unwrap();
            let want = dense_expectation(&reference, &p);
            let got = m.expectation(&p);
            assert!((got - want).abs() < 1e-10, "{s}: got {got}, want {want}");
        }
    }

    #[test]
    fn marginal_matches_dense() {
        let (m, reference, _) = permuted_fixture();
        let dist = m.marginal(&[4, 1]);
        for (v, &got) in dist.iter().enumerate() {
            let want: f64 = (0..32usize)
                .filter(|x| ((x >> 4) & 1) | (((x >> 1) & 1) << 1) == v)
                .map(|x| reference.probability(x as u64))
                .sum();
            assert!((got - want).abs() < 1e-12);
        }
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_seed_deterministic_and_distribution_shaped() {
        let (m, reference, _) = permuted_fixture();
        let a = m.sample(512, 7);
        let b = m.sample(512, 7);
        assert_eq!(a, b);
        assert_ne!(a, m.sample(512, 8), "different seeds should differ");
        // Empirical frequencies within a loose multinomial tolerance.
        let counts = m.sample_counts(4096, 1);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4096);
        for (x, c) in counts {
            let p = reference.probability(x);
            let phat = c as f64 / 4096.0;
            assert!(
                (phat - p).abs() < 0.05 + 3.0 * (p * (1.0 - p) / 4096.0).sqrt(),
                "outcome {x}: empirical {phat}, true {p}"
            );
        }
    }

    /// The Pauli sign/flip/prefactor convention checked against the gate
    /// unitaries themselves: for each single-qubit Pauli `P`, the engine's
    /// expectation on an arbitrary 1-qubit state must equal `⟨ψ|Pψ⟩`
    /// computed by multiplying the actual `2×2` matrix — an oracle that
    /// shares no formula with `PauliString::phase_prefactor`.
    #[test]
    fn single_qubit_expectations_match_gate_matrices() {
        use atlas_circuit::{Gate, GateKind};
        let alpha = atlas_qmath::Complex64::new(0.6, 0.1);
        let beta = atlas_qmath::Complex64::new(0.2, -0.7);
        let sv = atlas_statevec::StateVector::from_amplitudes(vec![alpha, beta]);
        let machine = Machine::with_state(MachineSpec::single_gpu(1), CostModel::default(), &sv);
        let m = Measurements::new(machine, vec![0], 1);
        for (s, kind) in [("X", GateKind::X), ("Y", GateKind::Y), ("Z", GateKind::Z)] {
            let mat = Gate::new(kind, &[0]).matrix();
            let p_psi = [
                mat[(0, 0)] * alpha + mat[(0, 1)] * beta,
                mat[(1, 0)] * alpha + mat[(1, 1)] * beta,
            ];
            let want = (alpha.conj() * p_psi[0] + beta.conj() * p_psi[1]).re;
            let got = m.expectation(&s.parse().unwrap());
            assert!((got - want).abs() < 1e-12, "<{s}>: got {got}, want {want}");
        }
    }

    /// Dense-reference Pauli expectation via direct basis-state algebra.
    fn dense_expectation(sv: &atlas_statevec::StateVector, p: &PauliString) -> f64 {
        let flip = p.x_mask() | p.y_mask();
        let sign = p.z_mask() | p.y_mask();
        let pref = match p.y_mask().count_ones() % 4 {
            0 => atlas_qmath::Complex64::ONE,
            1 => atlas_qmath::Complex64::I,
            2 => -atlas_qmath::Complex64::ONE,
            _ => -atlas_qmath::Complex64::I,
        };
        let amps = sv.amplitudes();
        let mut acc = atlas_qmath::Complex64::ZERO;
        for (x, &a) in amps.iter().enumerate() {
            let s = if (x as u64 & sign).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            acc += amps[x ^ flip as usize].conj() * a * s;
        }
        let z = pref * acc;
        assert!(z.im.abs() < 1e-10);
        z.re
    }
}
