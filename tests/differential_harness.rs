//! The differential-correctness harness: every combination of
//! `StagingAlgo` × `KernelAlgo` × machine shape must reproduce the dense
//! reference simulator's amplitudes, on fixed-seed regression circuits
//! (GHZ / QAOA / Grover) and on arbitrary random circuits.
//!
//! This is the guarantee every later performance or refactoring PR leans
//! on: the hierarchical pipeline (staging ILP → kernelization DP →
//! insular specialization → sharded execution with all-to-alls) is
//! amplitude-exact under *every* planner configuration, not just the
//! defaults.
//!
//! Both staging algorithms (`IlpSearch`, `Snuqs`) sweep the same shape
//! ladder, down to deep splits at `L = n - 4`; every algorithm is
//! differentially validated on ≥ 3 shapes.

mod common;

use atlas::circuit::generators;
use atlas::prelude::*;
use proptest::prelude::*;

/// Sweeps the full (staging × kernelizer × shape) cross product for one
/// regression circuit.
fn sweep_cross_product(circuit: &Circuit) {
    for staging in common::all_staging_algos() {
        for spec in common::machine_shapes(circuit.num_qubits()) {
            for kernelizer in common::all_kernel_algos() {
                common::assert_matches_reference(circuit, spec, staging, kernelizer);
            }
        }
    }
}

/// Pulls one circuit out of the shared regression list by name prefix,
/// so the sweeps below stay tied to `common::regression_circuits()`.
fn regression(prefix: &str) -> Circuit {
    common::regression_circuits()
        .into_iter()
        .find(|c| c.name().starts_with(prefix))
        .unwrap_or_else(|| panic!("no regression circuit named {prefix}*"))
}

#[test]
fn ghz_all_algorithms_all_shapes() {
    sweep_cross_product(&regression("ghz"));
}

#[test]
fn qaoa_all_algorithms_all_shapes() {
    sweep_cross_product(&regression("qaoa"));
}

#[test]
fn grover_all_algorithms_all_shapes() {
    sweep_cross_product(&regression("grover"));
}

/// Guard against drift: every circuit in the shared regression list must
/// have a per-circuit sweep above. Adding a circuit to
/// `regression_circuits()` without extending the sweeps fails here.
#[test]
fn every_regression_circuit_is_swept() {
    let names: Vec<String> = common::regression_circuits()
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    assert_eq!(
        names,
        ["ghz_9", "qaoa_8", "grover_6"],
        "regression_circuits() changed — add a matching *_all_algorithms_all_shapes sweep"
    );
}

/// The scalable staging algorithms additionally handle a Grover instance
/// whose ~150-gate staging model is far beyond the exact ILP — the
/// paper's motivation for the structure-exploiting search — on the deep
/// splits, under every kernelizer.
#[test]
fn grover_deep_splits_under_scalable_staging() {
    let circuit = generators::grover(8);
    for staging in [StagingAlgo::IlpSearch, StagingAlgo::Snuqs] {
        for spec in common::machine_shapes(8) {
            for kernelizer in common::all_kernel_algos() {
                common::assert_matches_reference(&circuit, spec, staging, kernelizer);
            }
        }
    }
}

/// The regression circuits also satisfy their analytic structure — a
/// sanity layer underneath the differential one, so a bug that breaks
/// both the pipeline *and* the reference simulator identically still
/// trips an assertion.
#[test]
fn regression_circuits_have_expected_structure() {
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };

    // GHZ(9): all mass on |0…0⟩ and |1…1⟩, half each.
    let ghz = generators::ghz(9);
    let s = common::run_atlas(&ghz, spec);
    assert!((s.probability(0) - 0.5).abs() < 1e-9);
    assert!((s.probability((1 << 9) - 1) - 0.5).abs() < 1e-9);

    // QAOA(8): a unitary circuit — the state stays normalized.
    let qaoa = generators::qaoa(8);
    let s = common::run_atlas(&qaoa, spec);
    let norm: f64 = (0..1u64 << 8).map(|i| s.probability(i)).sum();
    assert!((norm - 1.0).abs() < 1e-9, "norm drifted to {norm}");

    // Grover(8): 5 data qubits + 3 V-chain ancillas; after ⌊π/4·√32⌋
    // rounds the marked item dominates and the ancillas are restored, so
    // one data-register basis state holds most of the probability mass.
    let grover = generators::grover(8);
    let s = common::run_atlas(&grover, spec);
    let (best, p) = (0..1u64 << 8)
        .map(|i| (i, s.probability(i)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert!(p > 0.5, "marked item only reaches p={p}");
    assert!(best < 1 << 5, "ancillas not restored: best index {best:#x}");

    // The same generator call is bit-identical run to run (fixed seed).
    assert_eq!(generators::qaoa(8).gates(), generators::qaoa(8).gates());
    assert_eq!(generators::grover(8).gates(), generators::grover(8).gates());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits over the full gate alphabet, random picks from the
    /// algorithm and machine-shape grids.
    #[test]
    fn random_circuits_under_every_algorithm_combination(
        circuit in common::arb_circuit(7, 30),
        staging_idx in 0usize..2,
        kernel_idx in 0usize..4,
        shape_idx in 0usize..4,
    ) {
        let staging = common::all_staging_algos()[staging_idx];
        let kernelizer = common::all_kernel_algos()[kernel_idx];
        let shapes = common::machine_shapes(7);
        let spec = shapes[shape_idx % shapes.len()];
        common::assert_matches_reference(&circuit, spec, staging, kernelizer);
    }
}
