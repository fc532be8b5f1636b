//! Proof that the session pool amortizes PARTITION across *tenants*:
//! N clients submitting structurally identical circuits drive the
//! staging solver exactly once, through the shared fingerprint-keyed
//! plan cache.
//!
//! Own integration-test binary — and therefore own process — because
//! `atlas_core::staging::staging_invocations()` is a process-global
//! counter: unrelated tests planning concurrently in the same binary
//! would race it. (Same reason `tests/plan_once.rs` is separate.)

use atlas::core::staging::staging_invocations;
use atlas::prelude::*;
use atlas::serve::{JobOutcome, JobOutput, JobRequest, ServeConfig, SessionPool};

/// Runs the 3 × 4 same-structure jobs on a pool of `workers` and
/// checks the plan-once books. The pool is paused while the jobs queue
/// up, so at `workers > 1` several same-fingerprint jobs are dispatched
/// together and arrive while the first one's plan is in flight.
fn run_same_structure(workers: usize) {
    const TENANTS: usize = 3;
    const JOBS_PER_TENANT: usize = 4;
    let base = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let cfg = AtlasConfig {
        threads: 1,
        ..AtlasConfig::default()
    };
    let serve = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let pool = SessionPool::new(spec, CostModel::default(), cfg, serve).unwrap();

    let before = staging_invocations();
    pool.pause();
    let mut handles = Vec::new();
    for t in 0..TENANTS {
        for j in 0..JOBS_PER_TENANT {
            // Different parameters per job — same structure, so every
            // job shares one cached plan.
            let point = base.map_params(|_, _, p| p + 0.05 * (t * JOBS_PER_TENANT + j) as f64);
            handles.push(
                pool.submit(&format!("tenant-{t}"), point, JobRequest::Execute)
                    .unwrap(),
            );
        }
    }
    pool.resume();
    for h in handles {
        match h.wait().unwrap() {
            JobOutcome::Output(JobOutput::Executed { norm, .. }) => {
                assert!((norm - 1.0).abs() < 1e-9)
            }
            other => panic!("expected Executed, got {other:?}"),
        }
    }
    assert_eq!(
        staging_invocations() - before,
        1,
        "{TENANTS} tenants x {JOBS_PER_TENANT} jobs on {workers} worker(s) must invoke \
         PARTITION exactly once"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.cache_misses, 1, "workers = {workers}");
    assert_eq!(
        stats.cache_hits,
        (TENANTS * JOBS_PER_TENANT - 1) as u64,
        "workers = {workers}"
    );
    assert_eq!(stats.jobs_completed, (TENANTS * JOBS_PER_TENANT) as u64);
    assert_eq!(stats.analyze_plans_checked, 1, "workers = {workers}");
}

/// One test, so the worker counts run one after another: the staging
/// counter is process-global.
#[test]
fn many_tenants_same_structure_plan_exactly_once() {
    for workers in [1, 2, 4] {
        run_same_structure(workers);
    }
}
