//! Sharded-measurement-engine benchmarks: 1024 seeded inverse-CDF samples
//! and a diagonal (`Z…Z`) Pauli-string expectation on a 16-qubit
//! functional run distributed over 8 shards (2 nodes × 2 GPUs, L = 13).
//!
//! Neither path gathers the state, and neither translates an index: the
//! run ends in the logical layout. The end-to-end view of
//! sampling is `e2ebench`'s `sampler.*` layers, measured on every
//! workload that samples.

use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use atlas_sampler::{Measurements, PauliString};
use criterion::{criterion_group, criterion_main, Criterion};

fn measurements_for(n: u32, l: u32) -> Measurements {
    let circuit = atlas_circuit::generators::qaoa(n);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: l,
    };
    let compiled = Planner::new(spec, CostModel::default(), AtlasConfig::default())
        .plan(&circuit)
        .expect("plan");
    compiled.execute(&circuit).expect("execute").measurements
}

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    let m = measurements_for(16, 13);
    let zz: PauliString = "ZZZZZZZZZZZZZZZZ".parse().unwrap();
    g.bench_function("sample_1024_n16", |b| b.iter(|| m.sample(1024, 7)));
    g.bench_function("expect_diag_n16", |b| b.iter(|| m.expectation(&zz)));
    g.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
