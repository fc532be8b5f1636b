//! Shared differential-correctness harness for the integration tests.
//!
//! Three ingredients every suite reuses:
//!
//! * [`arb_circuit`] — a proptest strategy generating arbitrary
//!   well-formed circuits over the full gate alphabet;
//! * the configuration space — [`all_staging_algos`], [`all_kernel_algos`]
//!   and [`machine_shapes`] enumerate every `StagingAlgo`, every
//!   `KernelAlgo` and a ladder of machine splits (single GPU, intra-node,
//!   inter-node, many-shard) so tests can sweep the full cross product;
//! * [`assert_matches_reference`] — runs the hierarchical pipeline under
//!   one configuration and asserts amplitude-level agreement with the
//!   dense reference simulator, with a diagnostic that names the exact
//!   (circuit, algo, shape) combination on failure.
//!
//! Fixed-seed regression circuits live in [`regression_circuits`]: GHZ,
//! QAOA and Grover from `circuit::generators`, whose internal seeding is
//! deterministic, so a failing combination reproduces exactly.

// Each integration-test binary compiles this module separately and uses a
// different slice of it.
#![allow(dead_code)]

use atlas::prelude::*;
use proptest::prelude::*;

/// Picks `k` distinct qubits out of `n` from an index seed.
fn pick_qubits(n: u32, k: usize, seed: u64) -> Vec<u32> {
    let mut qs: Vec<u32> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..qs.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        qs.swap(i, j);
    }
    qs.truncate(k);
    qs
}

/// Strategy: one random gate over `n` qubits.
fn arb_gate(n: u32) -> impl Strategy<Value = Gate> {
    (0usize..18, any::<u64>(), -3.0f64..3.0).prop_map(move |(kind_idx, seed, theta)| {
        use GateKind::*;
        let (kind, arity) = match kind_idx {
            0 => (H, 1),
            1 => (X, 1),
            2 => (Y, 1),
            3 => (Z, 1),
            4 => (S, 1),
            5 => (T, 1),
            6 => (RX(theta), 1),
            7 => (RY(theta), 1),
            8 => (RZ(theta), 1),
            9 => (P(theta), 1),
            10 => (CX, 2),
            11 => (CZ, 2),
            12 => (CP(theta), 2),
            13 => (CRY(theta), 2),
            14 => (Swap, 2),
            15 => (RZZ(theta), 2),
            16 => (CCX, 3),
            _ => (CCZ, 3),
        };
        Gate::new(kind, &pick_qubits(n, arity, seed))
    })
}

/// Strategy: a random circuit with `n` qubits and up to `max_gates` gates.
pub fn arb_circuit(n: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::named(n, "random");
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// One gate from the Clifford alphabet (the stabilizer backend's
/// domain), chosen by `kind_idx` with qubits drawn from `seed`.
fn clifford_gate_from(n: u32, kind_idx: usize, seed: u64) -> Gate {
    use GateKind::*;
    let (kind, arity) = match kind_idx {
        0 => (H, 1),
        1 => (X, 1),
        2 => (Y, 1),
        3 => (Z, 1),
        4 => (S, 1),
        5 => (Sdg, 1),
        6 => (SX, 1),
        7 => (CX, 2),
        8 => (CY, 2),
        9 => (CZ, 2),
        _ => (Swap, 2),
    };
    Gate::new(kind, &pick_qubits(n, arity, seed))
}

/// Strategy: one random gate from the Clifford alphabet over `n` qubits.
fn arb_clifford_gate(n: u32) -> impl Strategy<Value = Gate> {
    (0usize..11, any::<u64>())
        .prop_map(move |(kind_idx, seed)| clifford_gate_from(n, kind_idx, seed))
}

/// Strategy: a random all-Clifford circuit with `n` qubits and up to
/// `max_gates` gates.
pub fn arb_clifford_circuit(n: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_clifford_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::named(n, "random_clifford");
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// Strategy: a random all-Clifford circuit whose qubit count itself
/// varies over `min_n..=max_n` (the vendored proptest shim has no
/// `prop_flat_map`, so the width is folded into the same draw).
pub fn arb_clifford_circuit_sized(
    min_n: u32,
    max_n: u32,
    max_gates: usize,
) -> impl Strategy<Value = Circuit> {
    (
        min_n..max_n + 1,
        proptest::collection::vec((0usize..11, any::<u64>()), 1..max_gates),
    )
        .prop_map(|(n, specs)| {
            let mut c = Circuit::named(n, "random_clifford");
            for (kind_idx, seed) in specs {
                c.push(clifford_gate_from(n, kind_idx, seed));
            }
            c
        })
}

/// Every staging algorithm `AtlasConfig` accepts.
pub fn all_staging_algos() -> [StagingAlgo; 2] {
    [StagingAlgo::IlpSearch, StagingAlgo::Snuqs]
}

/// Every kernelization algorithm `AtlasConfig` accepts (the parameterized
/// variants at their paper settings: greedy fusion at the cost-efficient
/// 5 qubits, greedy hybrid at HyQuas' 6).
pub fn all_kernel_algos() -> [KernelAlgo; 4] {
    [
        KernelAlgo::Dp,
        KernelAlgo::Ordered,
        KernelAlgo::Greedy(5),
        KernelAlgo::GreedyHybrid(6),
    ]
}

/// Machine shapes for an `n`-qubit circuit, smallest split first:
/// single GPU (no communication), one node × 4 GPUs (regional all-to-alls
/// only), 2 × 2 (inter-node), and — when the circuit is big enough to
/// leave ≥ 3 local qubits — a 4 × 2 many-shard split with heavy
/// remapping. Always at least three shapes for `n ≥ 5`.
pub fn machine_shapes(n: u32) -> Vec<MachineSpec> {
    let mut shapes = vec![
        MachineSpec::single_gpu(n),
        MachineSpec {
            nodes: 1,
            gpus_per_node: 4,
            local_qubits: n - 2,
        },
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: n - 3,
        },
    ];
    if n >= 7 {
        shapes.push(MachineSpec {
            nodes: 4,
            gpus_per_node: 2,
            local_qubits: n - 4,
        });
    }
    shapes
}

/// Compact human-readable shape label for assertion messages.
pub fn shape_label(spec: &MachineSpec) -> String {
    format!(
        "{}x{} L={}",
        spec.nodes, spec.gpus_per_node, spec.local_qubits
    )
}

/// The fixed-seed regression circuits: GHZ, QAOA (MaxCut ring, p = 2) and
/// Grover, all from `circuit::generators` whose seeding is deterministic,
/// sized so the full algorithm cross product stays fast.
pub fn regression_circuits() -> Vec<Circuit> {
    use atlas::circuit::generators;
    vec![
        generators::ghz(9),
        generators::qaoa(8),
        generators::grover(6),
    ]
}

/// Plans `circuit` under `cfg` and executes it once (SIMULATE,
/// Algorithm 1 lines 18–20).
pub fn run_session(circuit: &Circuit, spec: MachineSpec, cfg: &AtlasConfig) -> Execution {
    Planner::new(spec, CostModel::default(), cfg.clone())
        .plan(circuit)
        .and_then(|compiled| compiled.execute(circuit))
        .expect("simulation failed")
}

/// Runs the full Atlas pipeline under `cfg` and returns the final state.
pub fn run_atlas_with(circuit: &Circuit, spec: MachineSpec, cfg: &AtlasConfig) -> StateVector {
    run_session(circuit, spec, cfg)
        .state
        .expect("final_unpermute gathers the state")
}

/// Runs the pipeline with the validation defaults.
pub fn run_atlas(circuit: &Circuit, spec: MachineSpec) -> StateVector {
    run_atlas_with(circuit, spec, &AtlasConfig::for_validation())
}

/// The fixed-seed all-Clifford regression circuits: GHZ and the seeded
/// random-Clifford family (both from `circuit::generators`, both
/// deterministic), sized so the full algorithm cross product stays fast.
pub fn clifford_regression_circuits() -> Vec<Circuit> {
    use atlas::circuit::generators;
    vec![generators::ghz(9), generators::clifford(8)]
}

/// A deterministic probe set of Pauli strings for an `n`-qubit backend
/// differential: every single-qubit Z, the edge ZZ correlator, XX and
/// YY on the first pair, and the full X string.
pub fn pauli_probes(n: u32) -> Vec<PauliString> {
    use atlas::sampler::PauliOp;
    let mut probes: Vec<PauliString> = (0..n)
        .map(|q| PauliString::from_ops(n, &[(q, PauliOp::Z)]))
        .collect();
    probes.push(PauliString::from_ops(
        n,
        &[(0, PauliOp::Z), (n - 1, PauliOp::Z)],
    ));
    probes.push(PauliString::from_ops(
        n,
        &[(0, PauliOp::X), (1, PauliOp::X)],
    ));
    probes.push(PauliString::from_ops(
        n,
        &[(0, PauliOp::Y), (1, PauliOp::Y)],
    ));
    probes.push(PauliString::from_ops(
        n,
        &(0..n).map(|q| (q, PauliOp::X)).collect::<Vec<_>>(),
    ));
    probes
}

/// Backend-vs-backend differential: on an all-Clifford circuit, the
/// sharded statevector pipeline under `(staging, kernelizer, spec)` and
/// the CHP stabilizer tableau must agree — on the support (every
/// basis-state probability), on every single-qubit marginal and on the
/// [`pauli_probes`] expectations — to within `1e-9`.
pub fn assert_backends_agree(
    circuit: &Circuit,
    spec: MachineSpec,
    staging: StagingAlgo,
    kernelizer: KernelAlgo,
) {
    let n = circuit.num_qubits();
    assert!(n <= 16, "support enumeration needs a small circuit");
    let mut cfg = AtlasConfig::for_validation();
    cfg.staging = staging;
    cfg.kernelizer = kernelizer;
    let label = format!(
        "{} under {staging:?} x {kernelizer:?} on {}",
        circuit.name(),
        shape_label(&spec)
    );
    cfg.backend = BackendKind::Statevec;
    let sv = Planner::new(spec, CostModel::default(), cfg.clone())
        .plan_backend(circuit)
        .unwrap_or_else(|e| panic!("{label}: statevec plan failed: {e}"));
    cfg.backend = BackendKind::Stabilizer;
    let st = Planner::new(spec, CostModel::default(), cfg)
        .plan_backend(circuit)
        .unwrap_or_else(|e| panic!("{label}: stabilizer plan failed: {e}"));
    assert_eq!(sv.backend_name(), "statevec");
    assert_eq!(st.backend_name(), "stabilizer");
    let rv = sv
        .run(circuit)
        .unwrap_or_else(|e| panic!("{label}: statevec run failed: {e}"));
    let rs = st
        .run(circuit)
        .unwrap_or_else(|e| panic!("{label}: stabilizer run failed: {e}"));
    for q in 0..n {
        let (a, b) = (rv.marginal_one(q), rs.marginal_one(q));
        assert!((a - b).abs() < 1e-9, "{label}: marginal({q}) {a} vs {b}");
    }
    for idx in 0..(1u64 << n) {
        let (a, b) = (
            rv.probability_of_bits(&[idx]),
            rs.probability_of_bits(&[idx]),
        );
        assert!((a - b).abs() < 1e-9, "{label}: p({idx}) {a} vs {b}");
    }
    for p in pauli_probes(n) {
        let (a, b) = (rv.expectation(&p), rs.expectation(&p));
        assert!((a - b).abs() < 1e-9, "{label}: <{p}> {a} vs {b}");
    }
}

/// Differential check: the distributed pipeline under
/// `(staging, kernelizer, spec)` must reproduce `simulate_reference`'s
/// amplitudes on `circuit` to within `1e-9`.
pub fn assert_matches_reference(
    circuit: &Circuit,
    spec: MachineSpec,
    staging: StagingAlgo,
    kernelizer: KernelAlgo,
) {
    let mut cfg = AtlasConfig::for_validation();
    cfg.staging = staging;
    cfg.kernelizer = kernelizer;
    let got = run_atlas_with(circuit, spec, &cfg);
    let want = simulate_reference(circuit);
    let diff = got.max_abs_diff(&want);
    assert!(
        diff < 1e-9,
        "{} under {staging:?} x {kernelizer:?} on {}: diverged by {diff:e}",
        circuit.name(),
        shape_label(&spec),
    );
}
