//! Baseline simulators: functional agreement with the reference, and the
//! qualitative performance ordering the paper's Fig. 5 reports. Plus QASM
//! round-trip semantics.

mod common;

use atlas::baselines;
use atlas::circuit::qasm;
use atlas::prelude::*;
use proptest::prelude::*;

#[test]
fn hyquas_like_matches_reference() {
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    for fam in [Family::Qft, Family::Ising, Family::Dj, Family::GraphState] {
        let c = fam.generate(9);
        let out = baselines::hyquas(&c, spec, CostModel::default(), false).unwrap();
        let got = out.state.expect("functional");
        let want = simulate_reference(&c);
        let diff = got.max_abs_diff(&want);
        assert!(diff < 1e-9, "{fam:?}: hyquas diverged by {diff}");
    }
}

#[test]
fn atlas_beats_baselines_at_scale() {
    // Fig. 5's qualitative claim at the model level: on a multi-node
    // machine Atlas' model time is below HyQuas-like, cuQuantum-like and
    // Qiskit-like for the communication-heavy families.
    let spec = MachineSpec {
        nodes: 4,
        gpus_per_node: 4,
        local_qubits: 14,
    };
    for fam in [Family::Qft, Family::Su2Random, Family::QpeExact] {
        let c = fam.generate(20);
        let cost = CostModel::default();
        let atlas_t = Planner::new(spec, cost.clone(), AtlasConfig::default())
            .plan(&c)
            .unwrap()
            .dry_run()
            .total_secs;
        let hyquas_t = baselines::hyquas(&c, spec, cost.clone(), true)
            .unwrap()
            .report
            .total_secs;
        let cuq_t = baselines::cuquantum(&c, spec, cost.clone(), true)
            .unwrap()
            .report
            .total_secs;
        let qiskit_t = baselines::qiskit(&c, spec, cost.clone(), true)
            .unwrap()
            .report
            .total_secs;
        assert!(
            atlas_t <= hyquas_t * 1.05,
            "{fam:?}: atlas {atlas_t} vs hyquas {hyquas_t}"
        );
        assert!(
            atlas_t < cuq_t,
            "{fam:?}: atlas {atlas_t} vs cuquantum {cuq_t}"
        );
        assert!(
            atlas_t < qiskit_t,
            "{fam:?}: atlas {atlas_t} vs qiskit {qiskit_t}"
        );
        assert!(
            qiskit_t > cuq_t,
            "{fam:?}: qiskit must be the slowest baseline"
        );
    }
}

#[test]
fn atlas_beats_qdao_beyond_gpu_memory() {
    // Fig. 7's qualitative claim: offloaded Atlas is more than an order
    // of magnitude faster than QDAO-like execution.
    let spec = MachineSpec::single_gpu(24);
    let c = Family::Qft.generate(30);
    let cost = CostModel::default();
    let atlas_t = Planner::new(spec, cost.clone(), AtlasConfig::default())
        .plan(&c)
        .unwrap()
        .dry_run()
        .total_secs;
    let qdao_t = baselines::qdao_run(&c, spec, cost, 24, 19)
        .unwrap()
        .report
        .total_secs;
    assert!(
        qdao_t > 5.0 * atlas_t,
        "QDAO ({qdao_t:.2}s) should trail Atlas ({atlas_t:.2}s) by far"
    );
}

#[test]
fn qasm_roundtrip_gate_for_gate_on_every_family() {
    // Bit-exact round-trip: the writer emits shortest-round-trip floats,
    // so re-parsing must reproduce the exact gate list (kinds, parameters
    // and qubits), not just equivalent semantics.
    for fam in Family::table1() {
        let c = fam.generate(8);
        let back = qasm::from_qasm(&qasm::to_qasm(&c)).unwrap();
        assert_eq!(back.num_qubits(), c.num_qubits(), "{fam:?}");
        assert_eq!(back.gates(), c.gates(), "{fam:?}: gate lists differ");
    }
    // The non-Table-I generators round-trip too.
    use atlas::circuit::generators;
    for c in [
        generators::hhl_padded(4, 9),
        generators::qaoa(8),
        generators::grover(8),
    ] {
        let back = qasm::from_qasm(&qasm::to_qasm(&c)).unwrap();
        assert_eq!(back.gates(), c.gates(), "{}: gate lists differ", c.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Swap-based baselines agree with the reference on random circuits.
    #[test]
    fn swap_baselines_match_reference(circuit in common::arb_circuit(7, 30)) {
        let spec = MachineSpec { nodes: 2, gpus_per_node: 2, local_qubits: 5 };
        let want = simulate_reference(&circuit);
        let cu = baselines::cuquantum(&circuit, spec, CostModel::default(), false)
            .unwrap().state.unwrap();
        prop_assert!(cu.max_abs_diff(&want) < 1e-9);
    }

    /// QASM round-trips preserve semantics, not just syntax.
    #[test]
    fn qasm_roundtrip_preserves_amplitudes(circuit in common::arb_circuit(6, 25)) {
        let text = qasm::to_qasm(&circuit);
        let back = qasm::from_qasm(&text).unwrap();
        let a = simulate_reference(&circuit);
        let b = simulate_reference(&back);
        prop_assert!(a.max_abs_diff(&b) < 1e-9);
    }
}
