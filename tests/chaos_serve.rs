//! Chaos tests: seeded fault storms against the session pool.
//!
//! The fault-injection harness ([`FaultPlan`]) decides, as a pure
//! function of `(seed, site, job id)`, which jobs panic, get force-
//! cancelled, hit deadline pressure, or fail allocation. These tests
//! drive multi-tenant storms through it and hold the pool to the
//! failure contract of `docs/SERVE.md`:
//!
//! * **exact accounting** — completed + cancelled + deadline-exceeded
//!   + panicked + failed = submitted, with rejections counted apart;
//! * **blast-radius zero** — jobs not selected by any fault site are
//!   byte-identical to a fault-free run;
//! * **scheduling-invariance** — the same seed produces the same
//!   per-job outcomes for any worker count;
//! * **reservation recovery** — a panic while planning frees the
//!   fingerprint's single-flight reservation, so it never wedges the
//!   pool (or a job parked on that fingerprint) for later jobs.

use std::time::{Duration, Instant};

use atlas::prelude::*;
use atlas::serve::{
    FaultPlan, FaultSite, JobOutcome, JobOutput, JobRequest, PoolStats, ServeConfig, SessionPool,
};

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];
const STORM_JOBS: u64 = 24;

fn spec() -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    }
}

/// Single-threaded jobs with the state gathered, so "byte-identical"
/// below means amplitudes to the last bit, not just summaries.
fn cfg() -> AtlasConfig {
    AtlasConfig {
        threads: 1,
        final_unpermute: true,
        ..AtlasConfig::default()
    }
}

fn pool_with(fault: FaultPlan, workers: usize) -> SessionPool {
    SessionPool::new(
        spec(),
        CostModel::default(),
        cfg(),
        ServeConfig {
            workers,
            queue_capacity: 64,
            cache_capacity: 32,
            fault_plan: fault,
        },
    )
    .unwrap()
}

/// Storm job `i`: structurally *unique* (i + 1 trailing RZ gates), so
/// every job is a plan-cache miss no matter which worker ran first —
/// the [`FaultSite::PlanPanic`] schedule stays scheduling-invariant.
fn storm_circuit(i: u64) -> Circuit {
    let mut c = atlas::circuit::generators::qaoa(8);
    for k in 0..=i {
        c.rz(0.1 + 0.05 * k as f64, (k % 8) as u32);
    }
    c
}

/// Storm job `i`'s request: cycle through all four kinds.
fn storm_request(i: u64) -> JobRequest {
    match i % 4 {
        0 => JobRequest::Execute,
        1 => JobRequest::Sample { shots: 16, seed: 7 },
        2 => JobRequest::Expect {
            pauli: "IIIIIIZZ".parse().unwrap(),
        },
        _ => JobRequest::Plan,
    }
}

/// Mirror of the worker's fault priority order (`process_job_inner`):
/// the first site to claim a job decides its outcome.
fn expected_site(plan: &FaultPlan, id: u64) -> Option<FaultSite> {
    [
        FaultSite::WorkerPanic,
        FaultSite::ForceCancel,
        FaultSite::DeadlinePressure,
        FaultSite::PlanPanic,
        FaultSite::AllocFail,
    ]
    .into_iter()
    .find(|&site| plan.should_inject(site, id))
}

fn outcome_kind(r: &Result<JobOutcome, AtlasError>) -> &'static str {
    match r {
        Ok(JobOutcome::Output(_)) => "ok",
        Ok(JobOutcome::Cancelled) => "cancelled",
        Ok(JobOutcome::DeadlineExceeded) => "deadline-exceeded",
        Err(AtlasError::JobPanicked { .. }) => "panicked",
        Err(AtlasError::ResourceExhausted { .. }) => "resource-exhausted",
        Err(_) => "failed",
    }
}

fn expected_kind(site: Option<FaultSite>) -> &'static str {
    match site {
        None => "ok",
        Some(FaultSite::WorkerPanic) | Some(FaultSite::PlanPanic) => "panicked",
        Some(FaultSite::ForceCancel) => "cancelled",
        Some(FaultSite::DeadlinePressure) => "deadline-exceeded",
        Some(FaultSite::AllocFail) => "resource-exhausted",
    }
}

/// Runs the standard 24-job multi-tenant storm and returns, per job id,
/// the outcome kind and (for completed jobs) the full output rendered
/// via `Debug` — amplitudes included — plus the final pool counters.
fn run_storm(
    fault: FaultPlan,
    workers: usize,
) -> (Vec<&'static str>, Vec<Option<String>>, PoolStats) {
    let pool = pool_with(fault, workers);
    let mut handles = Vec::new();
    for i in 0..STORM_JOBS {
        let tenant = TENANTS[(i % 3) as usize];
        let h = pool
            .submit_blocking(tenant, storm_circuit(i), storm_request(i))
            .expect("storm jobs fit the budget and block for queue space");
        assert_eq!(h.id(), i, "accepted ids are dense in submission order");
        handles.push(h);
    }
    let mut kinds = Vec::new();
    let mut outputs = Vec::new();
    for h in handles {
        let r = h.wait();
        kinds.push(outcome_kind(&r));
        outputs.push(match r {
            Ok(JobOutcome::Output(out)) => Some(format!("{out:?}")),
            _ => None,
        });
    }
    let stats = pool.shutdown();
    (kinds, outputs, stats)
}

/// The tentpole invariant: a seeded storm over ≥ 3 fault kinds has
/// (a) outcomes exactly matching the schedule derived from the seed,
/// (b) exact accounting, (c) byte-identical outputs for fault-free
/// jobs, and (d) identical per-job outcomes across worker counts.
#[test]
fn seeded_storm_accounting_blast_radius_and_worker_invariance() {
    let fault = FaultPlan::seeded(2024, 200_000);

    // The expected schedule is a pure function of the seed — derive it
    // here, independently of the pool.
    let expected: Vec<_> = (0..STORM_JOBS).map(|i| expected_site(&fault, i)).collect();
    let distinct_kinds = {
        let mut kinds: Vec<_> = expected.iter().flatten().collect();
        kinds.sort_by_key(|s| format!("{s:?}"));
        kinds.dedup();
        kinds.len()
    };
    assert!(
        distinct_kinds >= 3,
        "storm seed must exercise >= 3 fault kinds, got {distinct_kinds}: {expected:?}"
    );
    let clean = expected.iter().filter(|s| s.is_none()).count();
    assert!(
        clean >= 4,
        "storm seed must leave some jobs fault-free, got {clean}"
    );

    let (kinds4, outputs4, stats4) = run_storm(fault.clone(), 4);

    // (a) Outcomes match the derived schedule exactly.
    for (i, site) in expected.iter().enumerate() {
        assert_eq!(
            kinds4[i],
            expected_kind(*site),
            "job {i}: expected {site:?}"
        );
    }

    // (b) Exact accounting: every accepted job reaches exactly one
    // terminal counter; nothing was rejected in this storm.
    assert_eq!(stats4.jobs_submitted, STORM_JOBS);
    assert_eq!(stats4.jobs_rejected, 0);
    assert_eq!(
        stats4.jobs_completed
            + stats4.jobs_cancelled
            + stats4.jobs_deadline_exceeded
            + stats4.jobs_panicked
            + stats4.jobs_failed,
        stats4.jobs_submitted,
        "terminal counters must sum to submissions: {stats4:?}"
    );
    assert!(stats4.jobs_panicked >= 1, "{stats4:?}");

    // (c) Blast radius: fault-free jobs are byte-identical to a run
    // with no fault plan at all.
    let (kinds0, outputs0, stats0) = run_storm(FaultPlan::disabled(), 4);
    assert!(kinds0.iter().all(|&k| k == "ok"), "{kinds0:?}");
    assert_eq!(stats0.jobs_completed, STORM_JOBS);
    for (i, site) in expected.iter().enumerate() {
        if site.is_none() {
            assert_eq!(
                outputs4[i], outputs0[i],
                "fault-free job {i} was perturbed by the storm"
            );
        }
    }

    // (d) Same seed, different worker count: identical per-job
    // outcomes and identical outputs.
    let (kinds1, outputs1, stats1) = run_storm(fault, 1);
    assert_eq!(kinds4, kinds1);
    assert_eq!(outputs4, outputs1);
    assert_eq!(stats4.jobs_panicked, stats1.jobs_panicked);
    assert_eq!(stats4.jobs_cancelled, stats1.jobs_cancelled);
    assert_eq!(stats4.jobs_deadline_exceeded, stats1.jobs_deadline_exceeded);
    assert_eq!(stats4.jobs_failed, stats1.jobs_failed);
}

/// A panic *while planning* (after the miss reserved the fingerprint,
/// outside the cache lock) must free the reservation: the next job with
/// the same circuit plans it afresh and completes, and the
/// stats/dequeue-log accessors (which take the shared locks) keep
/// working.
#[test]
fn plan_panic_frees_the_reservation() {
    // Find a seed whose PlanPanic stream claims job 0 but not job 1 —
    // self-documenting, and independent of the RNG's internals.
    let seed = (0u64..)
        .find(|&s| {
            let p = FaultPlan::with_rates(s, [0, 500_000, 0, 0, 0]);
            p.should_inject(FaultSite::PlanPanic, 0) && !p.should_inject(FaultSite::PlanPanic, 1)
        })
        .unwrap();
    let fault = FaultPlan::with_rates(seed, [0, 500_000, 0, 0, 0]);
    let pool = pool_with(fault, 1);
    let circuit = atlas::circuit::generators::qaoa(8);

    // Job 0 panics while planning, holding the fingerprint's reservation.
    let h0 = pool
        .submit_blocking("alice", circuit.clone(), JobRequest::Plan)
        .unwrap();
    match h0.wait() {
        Err(AtlasError::JobPanicked {
            job,
            payload_summary,
        }) => {
            assert_eq!(job, 0);
            assert!(
                payload_summary.contains("while planning"),
                "summary should carry the panic message, got: {payload_summary}"
            );
        }
        other => panic!("expected JobPanicked, got {other:?}"),
    }

    // The unwind freed the reservation: the same fingerprint plans
    // cleanly now (job 0 never published, so this is a second miss).
    let h1 = pool
        .submit_blocking("bob", circuit.clone(), JobRequest::Execute)
        .unwrap();
    match h1.wait().expect("pool must keep serving after a panic") {
        JobOutcome::Output(JobOutput::Executed { norm, .. }) => {
            assert!((norm - 1.0).abs() < 1e-9);
        }
        other => panic!("expected Executed, got {other:?}"),
    }

    // Both lock-taking accessors still work, and the books balance.
    assert_eq!(pool.dequeue_log(), vec![0, 1]);
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_submitted, 2);
    assert_eq!(stats.jobs_panicked, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.cache_misses, 2, "the panicked miss never published");
    assert_eq!(stats.cache_entries, 1);
}

/// Resource admission at the pool boundary: an over-budget request is
/// rejected typed at submission — it never consumes a job id, a queue
/// slot, or (crucially) any amplitude memory.
#[test]
fn oversized_request_rejected_at_admission() {
    // Default budget = the engine ceiling: 40 qubits is over it by
    // three orders of magnitude. Building the Circuit is cheap; only
    // EXECUTE would allocate. The pool gathers states
    // (`final_unpermute`), so the peak counts the gathered copy too.
    let pool = pool_with(FaultPlan::disabled(), 1);
    let big = atlas::circuit::generators::ghz(40);
    match pool.submit("alice", big, JobRequest::Execute) {
        Err(AtlasError::ResourceExhausted { needed, budget }) => {
            assert_eq!(needed, MemoryBudget::peak_bytes(40, 5) + (16 << 40));
            assert_eq!(budget, MemoryBudget::ENGINE_CEILING);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    // A budget of one state plus one shard admits the job only when the
    // pool does not gather the state.
    for (final_unpermute, admitted) in [(true, false), (false, true)] {
        let cfg = AtlasConfig {
            final_unpermute,
            memory_budget: MemoryBudget::bytes(MemoryBudget::peak_bytes(8, 5)),
            ..cfg()
        };
        let pool = SessionPool::new(spec(), CostModel::default(), cfg, ServeConfig::default());
        let pool = pool.unwrap();
        let job = pool.submit(
            "alice",
            atlas::circuit::generators::qaoa(8),
            JobRequest::Execute,
        );
        assert_eq!(job.is_ok(), admitted, "final_unpermute = {final_unpermute}");
        if let Ok(handle) = job {
            assert!(handle.wait().is_ok());
        }
        pool.shutdown();
    }

    // A pool-accepted job is a budget decision, not a hardcoded width:
    // under a 1 KiB budget even 8 qubits is over.
    let tight = AtlasConfig {
        memory_budget: MemoryBudget::bytes(1 << 10),
        ..cfg()
    };
    let tight_pool =
        SessionPool::new(spec(), CostModel::default(), tight, ServeConfig::default()).unwrap();
    let small = atlas::circuit::generators::qaoa(8);
    assert!(matches!(
        tight_pool.submit("alice", small, JobRequest::Execute),
        Err(AtlasError::ResourceExhausted { .. })
    ));
    let stats = tight_pool.shutdown();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 0, "rejected jobs are not submissions");

    let stats = pool.shutdown();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 0);
}

/// `submit_timeout` is bounded backpressure: a stalled pool rejects
/// typed after the wait instead of holding the client forever.
#[test]
fn submit_timeout_rejects_after_bounded_wait() {
    let pool = pool_with(FaultPlan::disabled(), 1);
    pool.pause();
    let circuit = atlas::circuit::generators::qaoa(8);
    // Fill the queue to capacity while dispatch is paused.
    let queued: Vec<_> = (0..64)
        .map(|_| {
            pool.submit("alice", circuit.clone(), JobRequest::Plan)
                .unwrap()
        })
        .collect();
    let t0 = Instant::now();
    match pool.submit_timeout(
        "bob",
        circuit.clone(),
        JobRequest::Plan,
        Duration::from_millis(50),
    ) {
        Err(AtlasError::Overloaded { queued, capacity }) => {
            assert_eq!((queued, capacity), (64, 64));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "the wait must actually be waited out"
    );
    pool.resume();
    for h in queued {
        h.wait().expect("queued jobs still run");
    }
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 64);
}

/// A zero deadline is deterministically expired at dispatch: the job
/// queues, runs nothing, and answers `DeadlineExceeded` — on every run,
/// for any worker count.
#[test]
fn zero_deadline_expires_at_dispatch() {
    for workers in [1, 4] {
        let pool = pool_with(FaultPlan::disabled(), workers);
        let circuit = atlas::circuit::generators::qaoa(8);
        let h = pool
            .submit_with_deadline("alice", circuit, JobRequest::Execute, Duration::ZERO)
            .unwrap();
        match h.wait() {
            Ok(JobOutcome::DeadlineExceeded) => {}
            other => panic!("workers={workers}: expected DeadlineExceeded, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.jobs_deadline_exceeded, 1);
        assert_eq!(stats.jobs_completed, 0);
    }
}

/// A generous deadline never perturbs the result: byte-identical to an
/// undeadlined run.
#[test]
fn unexpired_deadline_is_invisible() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let pool = pool_with(FaultPlan::disabled(), 1);
    let plain = pool
        .submit_blocking("alice", circuit.clone(), JobRequest::Execute)
        .unwrap()
        .wait()
        .unwrap();
    let dead = pool
        .submit_with_deadline(
            "alice",
            circuit,
            JobRequest::Execute,
            Duration::from_secs(3600),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(format!("{plain:?}"), format!("{dead:?}"));
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_deadline_exceeded, 0);
}
