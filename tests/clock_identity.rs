//! One model clock: a dry run and a functional run of the same plan
//! charge the same walk over it, so `CompiledPlan::dry_run` equals the
//! report of `CompiledPlan::execute` bit for bit — every `MachineReport`
//! field, `per_step` and `kernels` included — on every machine shape,
//! DRAM-offloaded ones too, and whether or not the run unpermutes at the
//! end. The HyQuas-like baseline, which runs on the same executor, reports
//! one clock in both modes as well.

use atlas::baselines;
use atlas::circuit::{generators, qasm};
use atlas::machine::MachineReport;
use atlas::prelude::*;

/// Ends in an X and a Y on the two non-local qubits of a `2 × 2`, `L = 4`
/// machine: relabel flips still pending after the last stage, which a
/// functional run applies to its amplitudes and neither run charges.
const TRAILING_FLIPS: &str = "OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[6];
h q[0];
cx q[0],q[1];
t q[0];
x q[5];
y q[4];
";

/// Every field of a report as raw bits, labelled.
fn fields(r: &MachineReport) -> Vec<(String, u64)> {
    let mut out = vec![
        ("total_secs".to_string(), r.total_secs.to_bits()),
        ("compute_secs".to_string(), r.compute_secs.to_bits()),
        ("comm_secs".to_string(), r.comm_secs.to_bits()),
        ("swap_secs".to_string(), r.swap_secs.to_bits()),
        ("bytes_intra".to_string(), r.bytes_intra),
        ("bytes_inter".to_string(), r.bytes_inter),
        ("kernels".to_string(), r.kernels),
        ("steps".to_string(), r.per_step.len() as u64),
    ];
    for (i, s) in r.per_step.iter().enumerate() {
        out.extend([
            (format!("per_step[{i}].compute"), s.compute.to_bits()),
            (format!("per_step[{i}].comm"), s.comm.to_bits()),
            (format!("per_step[{i}].swap"), s.swap.to_bits()),
            (format!("per_step[{i}].bytes_intra"), s.bytes_intra),
            (format!("per_step[{i}].bytes_inter"), s.bytes_inter),
        ]);
    }
    out
}

/// The first field where `dry` and `functional` differ, if any.
fn first_difference(dry: &MachineReport, functional: &MachineReport) -> Option<String> {
    let (d, f) = (fields(dry), fields(functional));
    d.iter()
        .zip(&f)
        .find(|(a, b)| a != b)
        .map(|((name, a), (_, b))| format!("{name}: dry {a:#x}, functional {b:#x}"))
        .or_else(|| (d.len() != f.len()).then(|| "per_step length".to_string()))
}

/// Machine shapes of the corpus for an `n`-qubit circuit: the first three
/// offload shards to DRAM, the last does not.
fn shapes(n: u32) -> [MachineSpec; 4] {
    let spec = |nodes, gpus_per_node, local_qubits| MachineSpec {
        nodes,
        gpus_per_node,
        local_qubits,
    };
    [
        spec(2, 2, n - 4),
        spec(4, 4, n - 6),
        spec(1, 2, n - 3),
        spec(2, 2, n - 2),
    ]
}

/// Table I plus the two regression generators, at `n` qubits.
fn circuits(n: u32) -> Vec<Circuit> {
    let mut out: Vec<Circuit> = Family::table1().iter().map(|f| f.generate(n)).collect();
    out.extend([generators::qaoa(n), generators::grover(n)]);
    out
}

#[test]
fn dry_run_equals_the_functional_report_bit_for_bit() {
    let mut corpus: Vec<(Circuit, MachineSpec)> = Vec::new();
    for n in [10, 12] {
        for circuit in circuits(n) {
            corpus.extend(shapes(n).map(|spec| (circuit.clone(), spec)));
        }
    }
    let mut flips = qasm::from_qasm(TRAILING_FLIPS).unwrap();
    flips.set_name("trailing-flips");
    let two_by_two = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 4,
    };
    corpus.push((flips, two_by_two));

    let mut failures = Vec::new();
    let mut plans = 0;
    for (circuit, spec) in &corpus {
        for final_unpermute in [false, true] {
            let cfg = AtlasConfig {
                final_unpermute,
                ..AtlasConfig::default()
            };
            let compiled = Planner::new(*spec, CostModel::default(), cfg)
                .plan(circuit)
                .unwrap();
            let functional = compiled.execute(circuit).unwrap().report;
            plans += 1;
            if let Some(diff) = first_difference(&compiled.dry_run(), &functional) {
                failures.push(format!(
                    "{} n={} {}x{} L={} final_unpermute={final_unpermute}: {diff}",
                    circuit.name(),
                    circuit.num_qubits(),
                    spec.nodes,
                    spec.gpus_per_node,
                    spec.local_qubits,
                ));
            }
        }
    }
    assert_eq!(plans, 2 * (2 * 13 * 4 + 1));
    assert!(
        failures.is_empty(),
        "{} of {plans} runs report another clock dry than functional:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn hyquas_reports_one_clock_dry_and_functional() {
    let mut failures = Vec::new();
    for circuit in circuits(10) {
        for spec in shapes(10) {
            let run = |dry| baselines::hyquas(&circuit, spec, CostModel::default(), dry).unwrap();
            let (dry, functional) = (run(true), run(false));
            if let Some(diff) = first_difference(&dry.report, &functional.report) {
                failures.push(format!(
                    "{} {}x{} L={}: {diff}",
                    circuit.name(),
                    spec.nodes,
                    spec.gpus_per_node,
                    spec.local_qubits,
                ));
            }
            // The functional state is read back in logical order.
            let got = functional.state.expect("functional");
            let want = simulate_reference(&circuit);
            assert!(got.max_abs_diff(&want) < 1e-9, "{}", circuit.name());
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
