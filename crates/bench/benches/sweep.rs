//! Plan-once/run-many sweep benchmark.
//!
//! Times the two halves of a QAOA parameter sweep through the session
//! API (`Planner` → `CompiledPlan` → `Execution`) separately: PARTITION
//! (staging search + kernelize DP), which a sweep pays once, and EXECUTE
//! of one shifted point, which it pays per point — planning excluded by
//! construction, which is the property the API exists to provide.

use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use criterion::{criterion_group, criterion_main, Criterion};

fn spec_for(n: u32) -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: n - 3,
    }
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    let base = atlas_circuit::generators::qaoa(14);
    let planner = Planner::new(spec_for(14), CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(&base).expect("plan");
    g.bench_function("plan_qaoa_n14", |b| {
        b.iter(|| planner.plan(&base).expect("plan"))
    });
    g.bench_function("execute_point_n14", |b| {
        let point = base.map_params(|_, _, p| p + 0.3);
        b.iter(|| compiled.execute(&point).expect("execute"))
    });
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
