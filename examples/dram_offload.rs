//! DRAM offloading (§VII-C): simulating circuits whose state exceeds GPU
//! memory by streaming shards between host DRAM and the device.
//!
//! Part 1 runs a real 20-qubit QFT on a simulated single GPU that only
//! holds 2^16 amplitudes (16 shards swap through it) and verifies the
//! amplitudes against the reference simulator.
//!
//! Part 2 reproduces the Fig. 7 setting at paper scale in dry-run mode:
//! qft-30 with 28 local qubits on one GPU, Atlas vs the QDAO-like
//! baseline.
//!
//! ```sh
//! cargo run --release --example dram_offload
//! ```

use atlas::baselines;
use atlas::prelude::*;

fn main() {
    // ---- Part 1: functional offloaded run --------------------------------
    let n = 20;
    let circuit = atlas::circuit::generators::qft(n);
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 1,
        local_qubits: 16,
    };
    assert!(
        spec.offloading(n),
        "16 shards through 1 GPU — offloading engaged"
    );

    let cfg = AtlasConfig::for_validation();
    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .expect("planning failed");
    let run = compiled.execute(&circuit).expect("execution failed");
    let state = run.state.expect("final_unpermute gathers the state");
    let reference = simulate_reference(&circuit);

    println!("qft-{n} through a single simulated GPU holding 2^16 amplitudes");
    println!("  shards (DRAM)   : {}", spec.num_shards(n));
    println!("  stages          : {}", compiled.num_stages());
    println!("  swap time       : {:.4} s", run.report.swap_secs);
    println!("  total model time: {:.4} s", run.report.total_secs);
    println!(
        "  max |Δamp| vs reference: {:.2e}",
        state.max_abs_diff(&reference)
    );
    assert!(state.max_abs_diff(&reference) < 1e-9);

    // ---- Part 2: paper-scale model, Atlas vs QDAO (Fig. 7 point) ---------
    let n = 30;
    let circuit = atlas::circuit::generators::qft(n);
    let spec = MachineSpec::single_gpu(28);
    // Dry run: the clock model alone, no amplitudes.
    let atlas = Planner::new(spec, CostModel::default(), AtlasConfig::default())
        .plan(&circuit)
        .expect("planning failed")
        .dry_run();
    let qdao = baselines::qdao_run(&circuit, spec, CostModel::default(), 28, 19)
        .expect("qdao model failed");

    println!("\nqft-{n} beyond GPU memory on 1 GPU (dry-run clock model):");
    println!("  Atlas : {:8.2} s", atlas.total_secs);
    println!("  QDAO  : {:8.2} s", qdao.report.total_secs);
    println!(
        "  speedup: {:.0}×",
        qdao.report.total_secs / atlas.total_secs
    );
}
