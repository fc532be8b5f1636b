//! Trace determinism: telemetry must observe, never perturb.
//!
//! Two properties, both load-bearing for the telemetry layer:
//!
//! 1. **Model outputs are byte-identical with tracing on and off.** The
//!    recorder reads wall clocks, but nothing it measures may flow back
//!    into amplitudes, samples or the model clock.
//! 2. **The deterministic subsequence of the trace is schedule-free.**
//!    [`det_signature`] — the sorted, timestamp-/lane-stripped rendering
//!    of every `det` event — must be identical across host thread counts
//!    and across serve worker counts, because every `det` event is keyed
//!    by model-level coordinates (stage, shard, submission order), never
//!    by which OS thread happened to record it.

mod common;

use atlas::prelude::*;
use atlas::serve::{JobOutcome, JobRequest, ServeConfig, SessionPool};
use atlas::telemetry::det_signature;
use common::run_session;

fn spec() -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    }
}

/// Runs `circuit` with a live recorder at the given thread count, draws
/// 64 shots at seed 11, and returns the canonical det signature plus the
/// model-level outputs.
fn traced_run(circuit: &Circuit, threads: usize) -> (String, StateVector, Vec<u64>) {
    let recorder = Recorder::enabled();
    let cfg = AtlasConfig {
        threads,
        recorder: recorder.clone(),
        ..AtlasConfig::for_validation()
    };
    let out = run_session(circuit, spec(), &cfg);
    let samples = out.measurements.sample(64, 11);
    assert_eq!(recorder.dropped(), 0, "trace overflowed its sink");
    (
        det_signature(&recorder.drain()),
        out.state.expect("final_unpermute gathers the state"),
        samples,
    )
}

fn assert_byte_identical(a: &StateVector, b: &StateVector, label: &str) {
    assert_eq!(a.num_qubits(), b.num_qubits());
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{label}: amplitude {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// Property 2 for the plan/execute/sample pipeline: one circuit, three
/// thread counts, one det signature.
#[test]
fn det_signature_is_identical_across_thread_counts() {
    let circuit = atlas::circuit::generators::qaoa(7);
    let (baseline, base_state, base_samples) = traced_run(&circuit, 1);
    assert!(!baseline.is_empty(), "trace recorded no det events");
    // The signature covers every pipeline phase the recorder instruments.
    for name in [
        "plan.stage",
        "plan.kernelize",
        "exec.build_programs",
        "kernel.apply",
        "machine.reshuffle",
        "machine.step",
        "stage.barrier",
        "sample.draw",
    ] {
        assert!(baseline.contains(name), "det signature lost '{name}'");
    }
    for threads in [2, 8] {
        let (sig, state, samples) = traced_run(&circuit, threads);
        assert_eq!(baseline, sig, "det signature drifted at t={threads}");
        assert_byte_identical(&base_state, &state, &format!("t={threads}"));
        assert_eq!(base_samples, samples, "samples drifted at t={threads}");
    }
}

/// Property 1: enabling the recorder changes nothing the model can see.
#[test]
fn outputs_are_byte_identical_with_tracing_on_and_off() {
    let circuit = atlas::circuit::generators::grover(7);
    let untraced_cfg = AtlasConfig {
        threads: 2,
        ..AtlasConfig::for_validation()
    };
    let untraced = run_session(&circuit, spec(), &untraced_cfg);
    let (_, traced_state, traced_samples) = traced_run(&circuit, 2);
    assert_byte_identical(
        &untraced.state.expect("state"),
        &traced_state,
        "tracing on vs off",
    );
    assert_eq!(
        untraced.measurements.sample(64, 11),
        traced_samples,
        "samples differ with tracing enabled"
    );
    let retraced_cfg = AtlasConfig {
        recorder: Recorder::enabled(),
        ..untraced_cfg
    };
    let retraced = run_session(&circuit, spec(), &retraced_cfg);
    assert_eq!(
        untraced.report.total_secs.to_bits(),
        retraced.report.total_secs.to_bits(),
        "model clock differs with tracing enabled"
    );
}

/// One serve round: a fixed four-job stream over distinct circuits (so
/// each plans exactly once regardless of worker interleaving), submitted
/// up front so multiple workers genuinely race, then awaited in
/// submission order. Returns the det signature, the rendered outputs and
/// the final pool stats.
fn serve_round(workers: usize) -> (String, Vec<String>, atlas::serve::PoolStats) {
    use atlas::circuit::generators;
    let recorder = Recorder::enabled();
    let cfg = AtlasConfig {
        threads: 1,
        final_unpermute: true,
        recorder: recorder.clone(),
        ..AtlasConfig::default()
    };
    let pool = SessionPool::new(
        spec(),
        CostModel::default(),
        cfg,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .expect("pool");
    let jobs: Vec<(&str, Circuit, JobRequest)> = vec![
        ("alice", generators::qaoa(7), JobRequest::Execute),
        ("bob", generators::ghz(8), JobRequest::Execute),
        (
            "alice",
            generators::grover(6),
            JobRequest::Sample { shots: 32, seed: 7 },
        ),
        ("carol", generators::clifford(8), JobRequest::Plan),
    ];
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|(tenant, circuit, req)| pool.submit(tenant, circuit, req).expect("submit"))
        .collect();
    let outputs: Vec<String> = tickets
        .into_iter()
        .map(|t| match t.wait().expect("job failed") {
            JobOutcome::Output(out) => format!("{out:?}"),
            JobOutcome::Cancelled => panic!("job unexpectedly cancelled"),
            JobOutcome::DeadlineExceeded => panic!("job unexpectedly hit a deadline"),
        })
        .collect();
    let stats = pool.shutdown();
    assert_eq!(recorder.dropped(), 0, "trace overflowed its sink");
    (det_signature(&recorder.drain()), outputs, stats)
}

/// Property 2 for the serve pool: worker count is a scheduling knob, so
/// neither the job outputs nor the det signature may depend on it —
/// `serve.job` spans are keyed by pool-assigned submission order, and
/// queue-wait timing is non-det by construction.
#[test]
fn serve_det_signature_is_identical_across_worker_counts() {
    let (base_sig, base_out, base_stats) = serve_round(1);
    assert!(
        base_sig.contains("serve.job"),
        "no serve.job spans in trace"
    );
    assert!(
        !base_sig.contains("serve.queue_wait"),
        "wall-clock queue wait leaked into the det signature"
    );
    // The round's `Sample` job draws through `Measurements::sample`,
    // which records the draw at every worker count.
    assert!(
        base_sig.contains("sample.draw"),
        "no sample.draw in serve trace"
    );
    let (sig, out, stats) = serve_round(4);
    assert_eq!(base_sig, sig, "det signature drifted at workers=4");
    assert_eq!(base_out, out, "job outputs drifted at workers=4");
    assert_eq!(base_stats.jobs_submitted, stats.jobs_submitted);
    assert_eq!(base_stats.jobs_completed, stats.jobs_completed);
    assert_eq!(base_stats.cache_misses, stats.cache_misses);
}

/// A noisy sweep draws each trajectory's share of the shots through
/// `BackendRun::sample_words`, so 8 trajectories and 40 shots record 8
/// `sample.draw` spans whose shots sum to 40 — and no draw the output
/// did not use.
#[test]
fn noisy_sweep_records_one_draw_per_trajectory() {
    use atlas::core::noise::{self, Trajectories};
    let recorder = Recorder::enabled();
    let cfg = AtlasConfig {
        threads: 1,
        recorder: recorder.clone(),
        ..AtlasConfig::default()
    };
    let template = noise::noisy_template(&atlas::circuit::generators::qaoa(8));
    let planner = Planner::new(MachineSpec::single_gpu(8), CostModel::default(), cfg);
    let plan = planner.plan_backend(&template).expect("noisy plan");
    let sweep = Trajectories::new(0.05, 8, 11).expect("valid sweep");
    let outcome = sweep.run(&plan, &template, 40).expect("noisy sweep");
    assert_eq!(outcome.shots, 40);
    let draws: Vec<_> = recorder
        .drain()
        .into_iter()
        .filter(|e| e.name == "sample.draw")
        .collect();
    assert_eq!(draws.len(), 8, "one draw per trajectory");
    assert!(draws.iter().all(|e| e.det));
    let shots: u64 = draws
        .iter()
        .map(|e| e.args()[0])
        .map(|(k, v)| {
            assert_eq!(k, "shots");
            v
        })
        .sum();
    assert_eq!(shots, 40);
}
