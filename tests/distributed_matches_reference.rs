//! End-to-end functional validation: the full Atlas pipeline (staging ILP
//! → kernelization DP → insular specialization → sharded execution with
//! all-to-alls) must reproduce the reference simulator's amplitudes on
//! every benchmark family, machine shape, and on arbitrary random
//! circuits.

mod common;

use atlas::prelude::*;
use proptest::prelude::*;

#[test]
fn every_family_on_a_16_gpu_cluster() {
    // 4 nodes × 4 GPUs, L = n-4: all sixteen shards exercised.
    for fam in Family::table1() {
        let n = 10;
        let circuit = fam.generate(n);
        let spec = MachineSpec {
            nodes: 4,
            gpus_per_node: 4,
            local_qubits: n - 4,
        };
        let got = common::run_atlas(&circuit, spec);
        let want = simulate_reference(&circuit);
        let diff = got.max_abs_diff(&want);
        assert!(diff < 1e-9, "{fam:?}: diverged by {diff}");
    }
}

#[test]
fn hhl_case_study_circuit() {
    // The Table II workload (gates ≫ qubits), shrunk to a testable size.
    let circuit = atlas::circuit::generators::hhl_padded(5, 9);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    let got = common::run_atlas(&circuit, spec);
    let want = simulate_reference(&circuit);
    assert!(got.max_abs_diff(&want) < 1e-8);
}

#[test]
fn extreme_split_many_stages() {
    // L = 4 on 11 qubits: long stage chains, heavy remapping.
    for fam in [Family::Qft, Family::Su2Random, Family::Ae] {
        let circuit = fam.generate(11);
        let spec = MachineSpec {
            nodes: 4,
            gpus_per_node: 2,
            local_qubits: 4,
        };
        let got = common::run_atlas(&circuit, spec);
        let want = simulate_reference(&circuit);
        let diff = got.max_abs_diff(&want);
        assert!(diff < 1e-9, "{fam:?}: diverged by {diff}");
    }
}

#[test]
fn all_staging_algorithms_agree_functionally() {
    use atlas::core::config::StagingAlgo;
    let circuit = Family::QpeExact.generate(9);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    let want = simulate_reference(&circuit);
    for algo in [StagingAlgo::IlpSearch, StagingAlgo::Snuqs] {
        let cfg = AtlasConfig {
            staging: algo,
            ..AtlasConfig::for_validation()
        };
        let got = common::run_atlas_with(&circuit, spec, &cfg);
        assert!(got.max_abs_diff(&want) < 1e-9, "{algo:?} diverged");
    }
}

#[test]
fn all_kernelizers_agree_functionally() {
    use atlas::core::config::KernelAlgo;
    let circuit = Family::Vqc.generate(9);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    let want = simulate_reference(&circuit);
    for algo in [
        KernelAlgo::Dp,
        KernelAlgo::Ordered,
        KernelAlgo::Greedy(5),
        KernelAlgo::GreedyHybrid(6),
    ] {
        let cfg = AtlasConfig {
            kernelizer: algo,
            ..AtlasConfig::for_validation()
        };
        let got = common::run_atlas_with(&circuit, spec, &cfg);
        assert!(got.max_abs_diff(&want) < 1e-9, "{algo:?} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits over the full alphabet, random machine splits.
    #[test]
    fn random_circuits_match_reference(
        circuit in common::arb_circuit(7, 40),
        nodes_log in 0u32..3,
        l in 3u32..6,
    ) {
        let g = nodes_log.min(7 - l);
        let spec = MachineSpec {
            nodes: 1 << g,
            gpus_per_node: 2,
            local_qubits: l,
        };
        let got = common::run_atlas(&circuit, spec);
        let want = simulate_reference(&circuit);
        prop_assert!(got.max_abs_diff(&want) < 1e-9,
            "diverged by {}", got.max_abs_diff(&want));
    }
}
