//! Anatomy of a partition: run PARTITION (staging ILP + kernelization DP)
//! on a QFT circuit and print the full hierarchical plan — stages, qubit
//! partitions, kernels and their kinds — the structure of the paper's
//! Fig. 1.
//!
//! ```sh
//! cargo run --release --example partition_anatomy
//! ```

use atlas::core::plan::KernelKind;
use atlas::prelude::*;

fn main() {
    let n = 12;
    let circuit = atlas::circuit::generators::qft(n);
    // 4 nodes × 8 GPUs holding 2^7 amplitudes each: L = 7, R = 3, G = 2.
    let spec = MachineSpec {
        nodes: 4,
        gpus_per_node: 8,
        local_qubits: 7,
    };
    let (l, g) = (spec.local_qubits, spec.global_qubits());

    let compiled = Planner::new(spec, CostModel::default(), AtlasConfig::default())
        .plan(&circuit)
        .expect("planning failed");
    let plan = compiled.plan();

    println!(
        "PARTITION(qft-{n}) with L={l} local, R={} regional, G={g} global qubits",
        n - l - g
    );
    println!(
        "stages: {}   staging cost (Eq. 2): {}   kernel cost (Eq. 12): {:.4} ns/amp\n",
        plan.stages.len(),
        plan.staging_cost,
        plan.kernel_cost
    );

    for (k, sp) in plan.stages.iter().enumerate() {
        let p = &sp.stage.partition;
        println!("── stage {k} ──────────────────────────────────────");
        println!("  local    qubits: {:?}", p.local);
        println!("  regional qubits: {:?}", p.regional);
        println!("  global   qubits: {:?}", p.global);
        println!(
            "  gates: {} total, {} with local content, {} reduced to per-shard scalars",
            sp.stage.gates.len(),
            sp.templates.len(),
            sp.scalars.len()
        );
        for (ki, kernel) in sp.kernels.iter().enumerate() {
            let kind = match kernel.kind {
                KernelKind::Fusion => "fusion",
                KernelKind::SharedMemory => "shm   ",
            };
            println!(
                "    K{ki:<2} [{kind}] {:2} gates on physical bits {:?}",
                kernel.gates.len(),
                kernel.qubits
            );
        }
    }

    println!("\n(Every CP gate of the QFT is all-insular — Definition 2 — which is");
    println!("why whole phase ladders become per-shard scalars or reduced 1-qubit");
    println!("gates, and the staging ILP only has to localize the H gates.)");
}
