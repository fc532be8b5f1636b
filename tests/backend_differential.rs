//! Backend-vs-backend differential: on all-Clifford circuits the
//! sharded statevector pipeline and the CHP stabilizer tableau are two
//! independent implementations of the same physics, so they must agree
//! on every observable query — basis-state supports, single-qubit
//! marginals and Pauli expectations — to within `1e-9`.
//!
//! Coverage comes from three directions:
//!
//! * the fixed-seed Clifford regression families (GHZ and the seeded
//!   `clifford` generator) swept across every `StagingAlgo`, every
//!   `KernelAlgo` and the machine-shape ladder;
//! * random all-Clifford circuits from the proptest strategy in
//!   `tests/common`;
//! * the `atlas-sim` binary itself, where `--backend statevec` and
//!   `--backend stabilizer` must print byte-identical measurement lines
//!   for the `--family ghz`/`--family clifford` circuits.

mod common;

use atlas::prelude::*;
use proptest::prelude::*;

/// The full acceptance sweep: both fixed-seed Clifford families, every
/// staging algorithm x every kernelizer x the shape ladder. The machine
/// shape and algorithm choice must be invisible in the physics.
#[test]
fn clifford_families_agree_across_staging_kernel_and_shape_sweep() {
    for circuit in common::clifford_regression_circuits() {
        for staging in common::all_staging_algos() {
            for kernelizer in common::all_kernel_algos() {
                for spec in common::machine_shapes(circuit.num_qubits()) {
                    common::assert_backends_agree(&circuit, spec, staging, kernelizer);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random Clifford circuits on an inter-node shape: the tableau is
    /// the oracle for the distributed engine (and vice versa).
    #[test]
    fn random_clifford_circuits_agree(circuit in common::arb_clifford_circuit(6, 40)) {
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 3,
        };
        common::assert_backends_agree(&circuit, spec, StagingAlgo::IlpSearch, KernelAlgo::Dp);
    }
}

mod cli {
    use std::process::{Command, Output};

    fn atlas_sim(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_atlas-sim"))
            .args(args)
            .output()
            .expect("failed to launch atlas-sim")
    }

    fn stdout_ok(args: &[&str]) -> String {
        let out = atlas_sim(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    /// The measurement lines (`expect`/`top`/shot histograms) of a run,
    /// with the banner lines (which legitimately differ per backend)
    /// stripped.
    fn measurement_lines(stdout: &str) -> Vec<String> {
        stdout
            .lines()
            .filter(|l| {
                l.starts_with("expect") || l.starts_with("top outcomes") || l.starts_with("  |")
            })
            .map(str::to_string)
            .collect()
    }

    /// `atlas-sim --family ghz` must print byte-identical expectation
    /// and top-outcome lines under both forced backends.
    #[test]
    fn ghz_family_measurements_agree_between_backends() {
        let args = |backend: &'static str| {
            vec![
                "--family",
                "ghz",
                "-n",
                "10",
                "--backend",
                backend,
                "--expect",
                "ZIIIIIIIIZ",
                "--expect",
                "XXXXXXXXXX",
                "--expect",
                "ZIIIIIIIII",
                "--top",
                "2",
            ]
        };
        let sv = measurement_lines(&stdout_ok(&args("statevec")));
        let st = measurement_lines(&stdout_ok(&args("stabilizer")));
        assert!(
            sv.contains(&"expect  : <ZIIIIIIIIZ> = 1.000000000".to_string()),
            "{sv:?}"
        );
        assert_eq!(sv, st, "ghz measurement output differs between backends");
    }

    /// The seeded `clifford` family is deterministic, so the two
    /// backends see the same circuit; their exact expectations (always
    /// 0 or ±1 on a stabilizer state) must agree through the CLI too.
    #[test]
    fn clifford_family_expectations_agree_between_backends() {
        let probes = ["ZIIIIIII", "IIIZIIII", "IIIIIIIZ", "ZIIIIIIZ", "XXIIIIII"];
        let mut args_sv = vec!["--family", "clifford", "-n", "8", "--backend", "statevec"];
        let mut args_st = vec!["--family", "clifford", "-n", "8", "--backend", "stabilizer"];
        for p in &probes {
            args_sv.extend(["--expect", p]);
            args_st.extend(["--expect", p]);
        }
        let sv = measurement_lines(&stdout_ok(&args_sv));
        let st = measurement_lines(&stdout_ok(&args_st));
        assert_eq!(sv.len(), probes.len());
        assert_eq!(st.len(), probes.len());
        let value = |line: &str| -> f64 {
            line.rsplit('=')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("unparseable expectation '{line}': {e}"))
        };
        for (a, b) in sv.iter().zip(&st) {
            // Stabilizer-state expectations are exactly 0 or +/-1 on the
            // tableau; the statevector sum may sit within float noise of
            // them (its rendering of -2.8e-17 is "-0.000000000", so the
            // lines need not match byte-for-byte).
            let exact = value(b);
            assert!(
                exact == 0.0 || exact == 1.0 || exact == -1.0,
                "non-stabilizer expectation printed: {b}"
            );
            assert!(
                (value(a) - exact).abs() < 1e-9,
                "expectations diverge between backends: '{a}' vs '{b}'"
            );
        }
    }
}
