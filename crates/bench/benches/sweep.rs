//! Plan-once/run-many sweep benchmarks + the `BENCH_sweep.json`
//! emitter.
//!
//! Times an N-point QAOA parameter sweep through the session API
//! (`Planner` → `CompiledPlan` → `Execution`): PARTITION (staging ILP +
//! kernelize DP) runs once, then every sweep point pays EXECUTE only —
//! per-point execute time is reported *excluding* planning, which is
//! the property the API exists to provide. For contrast the JSON also
//! records the cost of one point that re-plans (`plan` + `execute`
//! back to back, what a sweep that ignored the `CompiledPlan` would
//! pay per point) and the resulting amortization factor.
//!
//! Single-core CI containers record `host_cpus` so wall-clock numbers
//! stay interpretable across hosts.

use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use criterion::{criterion_group, Criterion};
use std::time::Instant;

const N: u32 = 20;
const POINTS: usize = 6;

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
    // Small shape for the criterion smoke; the emitter below runs the
    // paper-scale sweep.
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

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Runs one sweep shape and renders its JSON object. Returns the
/// formatted block (2-space indented under the top-level object).
fn sweep_shape_json(n: u32, host_cpus: usize) -> String {
    let base = atlas_circuit::generators::qaoa(n);
    let spec = spec_for(n);
    let cfg = AtlasConfig {
        threads: host_cpus.min(8),
        ..AtlasConfig::default()
    };
    let planner = Planner::new(spec, CostModel::default(), cfg);

    // PARTITION once, timed.
    let t = Instant::now();
    let compiled = planner.plan(&base).expect("plan");
    let plan_secs = t.elapsed().as_secs_f64();

    // EXECUTE per sweep point, planning excluded by construction.
    let mut execute_secs = Vec::with_capacity(POINTS);
    for i in 0..POINTS {
        let point = base.map_params(|_, _, p| p + 0.1 * i as f64);
        let t = Instant::now();
        let run = compiled.execute(&point).expect("execute");
        execute_secs.push(t.elapsed().as_secs_f64());
        assert!((run.measurements.total_norm() - 1.0).abs() < 1e-9);
    }
    let mean_execute = execute_secs.iter().sum::<f64>() / POINTS as f64;

    // One re-planning point for contrast: plan + execute back to back.
    let one_shot_secs = best_of(1, || {
        let replanned = planner.plan(&base).expect("plan");
        replanned.execute(&base).expect("execute");
    });

    let sweep_session = plan_secs + execute_secs.iter().sum::<f64>();
    let sweep_one_shot = one_shot_secs * POINTS as f64;
    let per_point: Vec<String> = execute_secs.iter().map(|s| format!("{s:.6}")).collect();
    format!(
        "{{\n    \"qubits\": {n},\n    \"shards\": {},\n    \"points\": {POINTS},\n    \"staging_runs\": 1,\n    \"plan_secs\": {plan_secs:.6},\n    \"execute_secs_per_point\": [{}],\n    \"mean_execute_secs\": {mean_execute:.6},\n    \"one_shot_simulate_secs\": {one_shot_secs:.6},\n    \"sweep_total_secs_session\": {sweep_session:.6},\n    \"sweep_total_secs_replanning\": {sweep_one_shot:.6},\n    \"amortization_speedup\": {:.3}\n  }}",
        spec.num_shards(n),
        per_point.join(", "),
        sweep_one_shot / sweep_session,
    )
}

fn emit_json() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Two regimes: a plan-bound shape (small state, PARTITION dominates —
    // where plan-once pays most) and an execute-bound one (the 2^20
    // state dwarfs the ~100-gate staging problem).
    let plan_bound = sweep_shape_json(14, host_cpus);
    let execute_bound = sweep_shape_json(N, host_cpus);
    let json = format!(
        "{{\n  \"bench\": \"plan_once_run_many_sweep\",\n  \"host_cpus\": {host_cpus},\n  \"plan_bound_qaoa14\": {plan_bound},\n  \"execute_bound_qaoa20\": {execute_bound}\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("\nwrote {path}:\n{json}");
}

criterion_group!(benches, bench_sweep);

fn main() {
    benches();
    emit_json();
}
