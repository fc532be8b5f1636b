//! Proof that plan-once/run-many is real: an N-point parameter sweep
//! through the session API invokes the staging solver (the expensive
//! PARTITION phase) exactly once.
//!
//! This lives in its own integration-test binary — and therefore its
//! own process — because `atlas_core::staging::staging_invocations()`
//! is a process-global counter: unrelated tests planning concurrently
//! in the same binary would race it.

use atlas::core::staging::staging_invocations;
use atlas::prelude::*;

#[test]
fn n_point_sweep_plans_exactly_once() {
    let base = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());

    let before_plan = staging_invocations();
    let compiled = planner.plan(&base).unwrap();
    assert_eq!(
        staging_invocations() - before_plan,
        1,
        "plan() runs the staging solver exactly once"
    );

    // An 8-point sweep: same fingerprint per point, zero further
    // staging-solver invocations.
    let fingerprint = *compiled.fingerprint();
    let before_sweep = staging_invocations();
    for i in 0..8 {
        let point = base.map_params(|_, _, p| p + 0.2 * i as f64);
        assert_eq!(
            CircuitFingerprint::of(&point),
            fingerprint,
            "point {i}: re-parameterization must preserve the fingerprint"
        );
        let run = compiled.execute(&point).unwrap();
        assert!((run.measurements.total_norm() - 1.0).abs() < 1e-9);
    }
    assert_eq!(
        staging_invocations(),
        before_sweep,
        "execute() must never re-stage"
    );
}
