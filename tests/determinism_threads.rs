//! Thread-count determinism: the parallel shard execution engine must
//! produce **byte-identical** amplitude vectors no matter how many host
//! threads it runs on.
//!
//! This is a stronger property than the differential harness's 1e-9
//! tolerance — it holds because serial and parallel execution run the
//! same compiled shard programs, and every threaded kernel in
//! `atlas_statevec::apply` performs the same floating-point operations
//! as its serial twin, merely distributed across threads (no cross-group
//! reductions anywhere in the engine).

mod common;

use atlas::core::noise::{self, NoisyOutcome};
use atlas::prelude::*;

/// Runs `circuit` on `spec` with the given thread count and returns the
/// final state.
fn run_with_threads(circuit: &Circuit, spec: MachineSpec, threads: usize) -> StateVector {
    let cfg = AtlasConfig {
        threads,
        ..AtlasConfig::for_validation()
    };
    common::run_atlas_with(circuit, spec, &cfg)
}

fn assert_byte_identical(a: &StateVector, b: &StateVector, label: &str) {
    assert_eq!(a.num_qubits(), b.num_qubits());
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{label}: amplitude {i} differs between thread counts: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn one_and_eight_threads_are_byte_identical_on_regression_circuits() {
    for circuit in common::regression_circuits() {
        for spec in common::machine_shapes(circuit.num_qubits()) {
            let serial = run_with_threads(&circuit, spec, 1);
            let parallel = run_with_threads(&circuit, spec, 8);
            assert_byte_identical(
                &serial,
                &parallel,
                &format!("{} on {}", circuit.name(), common::shape_label(&spec)),
            );
        }
    }
}

/// Plans the noisy template of `circuit` on `spec` and runs the full
/// trajectory sweep with the given thread count.
fn run_noisy_with(circuit: &Circuit, spec: MachineSpec, threads: usize) -> NoisyOutcome {
    let cfg = AtlasConfig {
        threads,
        ..AtlasConfig::for_validation()
    };
    let planner = Planner::new(spec, CostModel::default(), cfg);
    let template = noise::noisy_template(circuit);
    let plan = planner.plan_backend(&template).expect("noisy plan");
    let sweep = noise::Trajectories::new(0.05, 7, 41).expect("valid sweep");
    sweep.run(&plan, &template, 96).expect("noisy sweep")
}

/// Noise trajectories are drawn from the splittable counter RNG, keyed
/// only by `(seed, trajectory index)` — so the aggregated shot counts
/// must be **byte-identical** across thread counts *and* across machine
/// shapes (the shard layout must not leak into the physics).
#[test]
fn noisy_trajectories_are_identical_across_threads_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let shapes = common::machine_shapes(circuit.num_qubits());
    let baseline = run_noisy_with(&circuit, shapes[0], 1);
    assert_eq!(baseline.trajectories, 7);
    assert_eq!(baseline.shots, 96);
    assert_eq!(
        baseline.counts.iter().map(|(_, c)| c).sum::<u64>(),
        96,
        "every shot must land in exactly one outcome bucket"
    );
    for spec in shapes {
        for threads in [1, 2, 8] {
            let got = run_noisy_with(&circuit, spec, threads);
            assert_eq!(
                baseline,
                got,
                "noisy outcome drifted at t={threads} on {}",
                common::shape_label(&spec)
            );
        }
    }
}

#[test]
fn intermediate_thread_counts_are_byte_identical() {
    // Shard-parallel (shards ≥ threads) and intra-shard (shards < threads)
    // execution must agree with the serial run as well: 16 shards of
    // qaoa(9) exercise the first, and one 2^16-amplitude shard of
    // qaoa(16) the second — large enough that its kernels cross their
    // work cutoffs and really split over the pool.
    let many_shards = MachineSpec {
        nodes: 4,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let cases = [
        (atlas::circuit::generators::qaoa(9), many_shards),
        (
            atlas::circuit::generators::qaoa(16),
            MachineSpec::single_gpu(16),
        ),
    ];
    for (circuit, spec) in cases {
        let baseline = run_with_threads(&circuit, spec, 1);
        for t in [2, 3, 8] {
            let got = run_with_threads(&circuit, spec, t);
            assert_byte_identical(
                &baseline,
                &got,
                &format!("{} t={t} on {}", circuit.name(), common::shape_label(&spec)),
            );
        }
    }
}
