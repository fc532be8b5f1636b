//! Stabilizer-vs-statevector backend benchmark; writes
//! `BENCH_stabilizer.json`.
//!
//! Times, once each, the same end-to-end query — plan, execute, draw 64
//! seeded shots — through both engines on the seeded `clifford` family
//! (8·n gates) at n ∈ {12, 24, 200}. The statevector engine stores
//! 2^n amplitudes, so it only runs where that fits (n ≤ 24; quick mode
//! stops at 12); the tableau is O(n²) bits and covers all three sizes,
//! which is exactly the asymmetry the JSON records — at n = 200 the
//! `statevec_secs` field is `null` because no dense engine can
//! represent the state at all, while the tableau still answers in
//! milliseconds.
//!
//! `ATLAS_BENCH_QUICK=1` shrinks the statevector ceiling for the CI
//! compile-and-run smoke; the committed `BENCH_stabilizer.json` comes
//! from a full run.

use atlas_circuit::{generators, Circuit};
use atlas_core::config::{AtlasConfig, BackendKind};
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use std::time::Instant;

const SHOTS: usize = 64;
const SEED: u64 = 7;

fn quick() -> bool {
    std::env::var("ATLAS_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Single-shard planner with the given forced backend. The machine
/// shape is capped at the functional limit — the tableau ignores it,
/// the statevector cases all fit in one shard.
fn planner(n: u32, backend: BackendKind) -> Planner {
    let cfg = AtlasConfig {
        threads: 1,
        backend,
        ..AtlasConfig::default()
    };
    Planner::new(
        MachineSpec::single_gpu(n.min(26)),
        CostModel::default(),
        cfg,
    )
}

/// Wall-clock seconds for one full query through `backend`: plan the
/// circuit, execute it, draw the seeded shots.
fn time_backend(circuit: &Circuit, backend: BackendKind) -> f64 {
    let planner = planner(circuit.num_qubits(), backend);
    let t = Instant::now();
    let plan = planner.plan_backend(circuit).expect("plan");
    let run = plan.run(circuit).expect("run");
    let samples = run.sample_words(SHOTS, SEED);
    assert_eq!(samples.len(), SHOTS);
    t.elapsed().as_secs_f64()
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let statevec_max = if quick() { 12 } else { 24 };
    let mut cases = Vec::new();
    for n in [12u32, 24, 200] {
        let circuit = generators::clifford(n);
        let tableau_secs = time_backend(&circuit, BackendKind::Stabilizer);
        let statevec_secs =
            (n <= statevec_max).then(|| time_backend(&circuit, BackendKind::Statevec));
        let (sv, speedup) = match statevec_secs {
            Some(s) => (format!("{s:.6}"), format!("{:.3}", s / tableau_secs)),
            None => ("null".into(), "null".into()),
        };
        cases.push(format!(
            "    \"n{n}\": {{\n      \"qubits\": {n},\n      \"gates\": {},\n      \"tableau_secs\": {tableau_secs:.6},\n      \"statevec_secs\": {sv},\n      \"speedup\": {speedup}\n    }}",
            circuit.num_gates(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"stabilizer_vs_statevec\",\n  \"quick\": {},\n  \"host_cpus\": {host_cpus},\n  \"shots\": {SHOTS},\n  \"seed\": {SEED},\n  \"cases\": {{\n{}\n  }}\n}}\n",
        quick(),
        cases.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stabilizer.json");
    std::fs::write(path, &json).expect("write BENCH_stabilizer.json");
    println!("\nwrote {path}:\n{json}");
}
