//! Integration tests of the multi-tenant session pool (`atlas-serve`):
//! cache-hit/cache-miss differential (byte-identical outputs), tenant
//! round-robin fairness, bounded-queue backpressure, cancellation, and
//! a many-client stress run whose accounting must balance exactly.
//!
//! The plan-*once* property (the staging-invocation counter across
//! tenants) lives in `tests/serve_plan_once.rs`, its own process, so
//! the global counter is not shared with unrelated tests.

use atlas::prelude::*;
use atlas::serve::{JobOutcome, JobOutput, JobRequest, ServeConfig, SessionPool};

fn spec() -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    }
}

/// Single-threaded jobs; gather the state so the differential can
/// compare amplitudes bit-for-bit.
fn cfg() -> AtlasConfig {
    AtlasConfig {
        threads: 1,
        final_unpermute: true,
        ..AtlasConfig::default()
    }
}

fn pool(serve: ServeConfig) -> SessionPool {
    SessionPool::new(spec(), CostModel::default(), cfg(), serve).unwrap()
}

fn executed(outcome: Result<JobOutcome, AtlasError>) -> JobOutput {
    match outcome.expect("job failed") {
        JobOutcome::Output(out) => out,
        JobOutcome::Cancelled => panic!("job unexpectedly cancelled"),
        JobOutcome::DeadlineExceeded => panic!("job unexpectedly hit a deadline"),
    }
}

/// Acceptance criterion: a cache **hit** must produce byte-identical
/// results to a cache **miss** — same model clock, same kernel count,
/// same amplitudes to the last bit. (This is exactly what the fixed
/// fingerprint protects: an aliased fingerprint would hand a tenant
/// some *other* circuit's plan.)
#[test]
fn cache_hit_is_byte_identical_to_cache_miss() {
    let circuit = atlas::circuit::generators::qaoa(8);

    // Fresh pool, fresh cache: this run PLANs (miss).
    let cold = pool(ServeConfig::default());
    let miss = executed(
        cold.submit("a", circuit.clone(), JobRequest::Execute)
            .unwrap()
            .wait(),
    );
    // Same pool, same fingerprint: this run reuses the plan (hit).
    let hit = executed(
        cold.submit("b", circuit.clone(), JobRequest::Execute)
            .unwrap()
            .wait(),
    );
    let stats = cold.shutdown();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);

    let (
        JobOutput::Executed {
            model_secs: m0,
            kernels: k0,
            norm: n0,
            top: t0,
            state: s0,
        },
        JobOutput::Executed {
            model_secs: m1,
            kernels: k1,
            norm: n1,
            top: t1,
            state: s1,
        },
    ) = (miss, hit)
    else {
        panic!("expected Executed outputs");
    };
    assert_eq!(m0.to_bits(), m1.to_bits(), "model clock drifted on a hit");
    assert_eq!(k0, k1);
    assert_eq!(n0.to_bits(), n1.to_bits());
    assert_eq!(t0.len(), t1.len());
    for ((b0, p0), (b1, p1)) in t0.iter().zip(&t1) {
        assert_eq!(b0, b1);
        assert_eq!(p0.to_bits(), p1.to_bits());
    }
    let (s0, s1) = (s0.expect("state gathered"), s1.expect("state gathered"));
    for (x, y) in s0.amplitudes().iter().zip(s1.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

/// Sampling through the pool equals sampling through the session API
/// directly — the pool adds scheduling, not physics.
#[test]
fn pooled_sampling_matches_direct_session() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let p = pool(ServeConfig::default());
    let out = executed(
        p.submit(
            "t",
            circuit.clone(),
            JobRequest::Sample { shots: 64, seed: 9 },
        )
        .unwrap()
        .wait(),
    );
    let JobOutput::Sampled { counts } = out else {
        panic!("expected Sampled");
    };
    let direct = Planner::new(spec(), CostModel::default(), cfg())
        .plan(&circuit)
        .unwrap()
        .execute(&circuit)
        .unwrap();
    assert_eq!(counts, direct.measurements.sample_counts(64, 9));
}

/// Worker-count invariance: the pool's concurrency knob is scheduling,
/// not physics, so fixed-seed outputs of the deterministic Clifford
/// families must be **byte-identical** whether one worker or four drain
/// the queue — even with several tenants' jobs in flight at once.
#[test]
fn fixed_seed_outputs_are_identical_across_worker_counts() {
    let families = [
        atlas::circuit::generators::ghz(9),
        atlas::circuit::generators::clifford(8),
    ];
    let run_all = |workers: usize| -> Vec<(Vec<(u64, u64)>, u64)> {
        let p = pool(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        // Enqueue everything before waiting so multi-worker pools
        // genuinely execute jobs concurrently.
        let mut handles = Vec::new();
        for (i, c) in families.iter().enumerate() {
            for j in 0..3u64 {
                handles.push(
                    p.submit(
                        format!("tenant-{i}-{j}").as_str(),
                        c.clone(),
                        JobRequest::Sample {
                            shots: 64,
                            seed: 7 + j,
                        },
                    )
                    .unwrap(),
                );
            }
        }
        let outs: Vec<(Vec<(u64, u64)>, u64)> = handles
            .into_iter()
            .map(|h| {
                let JobOutput::Sampled { counts } = executed(h.wait()) else {
                    panic!("expected Sampled");
                };
                let total = counts.iter().map(|(_, c)| c).sum();
                (counts, total)
            })
            .collect();
        p.shutdown();
        outs
    };
    let baseline = run_all(1);
    for (counts, total) in &baseline {
        assert_eq!(*total, 64);
        assert!(!counts.is_empty());
    }
    for workers in [2, 4] {
        assert_eq!(
            baseline,
            run_all(workers),
            "sampled counts drifted at workers = {workers}"
        );
    }
}

/// Round-robin across tenants: one flooding tenant cannot starve the
/// others. Submission order a0,a1,a2,b0,c0 must dispatch as
/// a0,b0,c0,a1,a2 (one job per tenant per ring pass; FIFO per tenant).
#[test]
fn tenants_are_scheduled_round_robin() {
    let p = pool(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    p.pause(); // line the queue up deterministically
    let circuit = atlas::circuit::generators::qaoa(8);
    let ids: Vec<u64> = [("alice", 3), ("bob", 1), ("carol", 1)]
        .iter()
        .flat_map(|&(tenant, jobs)| {
            (0..jobs)
                .map(|_| {
                    p.submit(tenant, circuit.clone(), JobRequest::Plan)
                        .unwrap()
                        .id()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let (a0, a1, a2, b0, c0) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
    p.resume();
    p.wait_idle();
    assert_eq!(
        p.dequeue_log(),
        vec![a0, b0, c0, a1, a2],
        "round-robin must interleave tenants, FIFO within a tenant"
    );
}

/// Backpressure: a full queue fast-fails with the typed
/// [`AtlasError::Overloaded`] carrying the exact depth and capacity,
/// and counts the rejection; draining reopens the pool.
#[test]
fn full_queue_rejects_with_typed_overloaded() {
    let p = pool(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 4,
        ..ServeConfig::default()
    });
    p.pause();
    let circuit = atlas::circuit::generators::qaoa(8);
    let h0 = p.submit("t", circuit.clone(), JobRequest::Plan).unwrap();
    let h1 = p.submit("t", circuit.clone(), JobRequest::Plan).unwrap();
    match p.submit("t", circuit.clone(), JobRequest::Plan) {
        Err(AtlasError::Overloaded {
            queued: 2,
            capacity: 2,
        }) => {}
        other => panic!("expected Overloaded{{2,2}}, got {other:?}"),
    }
    p.resume();
    executed(h0.wait());
    executed(h1.wait());
    p.wait_idle();
    // Space again: accepted.
    let h2 = p.submit("t", circuit, JobRequest::Plan).unwrap();
    executed(h2.wait());
    let stats = p.shutdown();
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_submitted, 3);
    assert_eq!(stats.max_queued, 2, "queue never exceeds its capacity");
}

/// A token cancelled while the job is still queued answers
/// `Cancelled` without running EXECUTE.
#[test]
fn queued_jobs_cancel_cleanly() {
    let p = pool(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    p.pause();
    let circuit = atlas::circuit::generators::qaoa(8);
    let keep = p.submit("t", circuit.clone(), JobRequest::Execute).unwrap();
    let drop_ = p.submit("t", circuit, JobRequest::Execute).unwrap();
    drop_.cancel();
    assert!(drop_.cancel_token().is_cancelled());
    p.resume();
    executed(keep.wait());
    match drop_.wait() {
        Ok(JobOutcome::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let stats = p.shutdown();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_completed, 1);
}

/// Job-level failures come back typed on the handle, in-band — they
/// don't poison the pool or other tenants.
#[test]
fn typed_errors_are_answered_in_band() {
    let p = pool(ServeConfig::default());
    // 4 qubits < L + G = 6.
    let tiny = atlas::circuit::generators::ghz(4);
    match p.submit("t", tiny, JobRequest::Execute).unwrap().wait() {
        Err(AtlasError::CircuitTooSmall { qubits: 4, .. }) => {}
        other => panic!("expected CircuitTooSmall, got {other:?}"),
    }
    // Mismatched Pauli width is caught before EXECUTE.
    let circuit = atlas::circuit::generators::qaoa(8);
    let pauli: PauliString = "ZZ".parse().unwrap();
    match p
        .submit("t", circuit.clone(), JobRequest::Expect { pauli })
        .unwrap()
        .wait()
    {
        Err(AtlasError::InvalidConfig { reason }) => {
            assert!(reason.contains("Pauli"), "unhelpful reason: {reason}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // The pool still serves healthy jobs afterwards.
    executed(p.submit("t", circuit, JobRequest::Plan).unwrap().wait());
    let stats = p.shutdown();
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.jobs_completed, 1);
}

/// A shot count read off a job line is admitted like the state: a draw
/// the memory budget cannot hold (2^53 shots, 40 bytes each) answers
/// in-band as `resource-exhausted` at submission, consumes no job id, and
/// the next job still answers.
#[test]
fn oversized_shot_draw_is_rejected_in_band() {
    use atlas::serve::{parse_job, render_response};
    let p = pool(ServeConfig::default());
    let huge = parse_job(
        r#"{"id":"huge","tenant":"a","op":"sample","family":"ghz","n":8,"shots":9007199254740992,"seed":1}"#,
    )
    .unwrap();
    let rejected = p.submit(&huge.tenant, huge.circuit, huge.request);
    let Err(e) = rejected else {
        panic!("2^53 shots admitted");
    };
    assert!(matches!(e, AtlasError::ResourceExhausted { .. }), "{e:?}");
    let line = render_response(&huge.id, &Err(e));
    assert!(
        line.starts_with(r#"{"id":"huge","ok":false,"kind":"resource-exhausted""#),
        "{line}"
    );
    let ghz = atlas::circuit::generators::ghz(8);
    let next = p
        .submit("a", ghz, JobRequest::Sample { shots: 16, seed: 1 })
        .unwrap();
    assert_eq!(next.id(), 0, "the rejected draw consumed a job id");
    match executed(next.wait()) {
        JobOutput::Sampled { counts } => {
            assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u64>(), 16)
        }
        other => panic!("expected Sampled, got {other:?}"),
    }
    let stats = p.shutdown();
    assert_eq!((stats.jobs_rejected, stats.jobs_completed), (1, 1));
}

/// The LRU plan cache is bounded: distinct fingerprints beyond the
/// capacity evict the coldest plan, and the counters stay consistent.
#[test]
fn plan_cache_is_bounded_lru() {
    let p = pool(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    // Three structurally distinct circuits (different gate counts).
    let mut circuits = Vec::new();
    for extra in 0..3 {
        let mut c = atlas::circuit::generators::ghz(8);
        for q in 0..extra {
            c.h(q);
        }
        circuits.push(c);
    }
    for c in &circuits {
        executed(p.submit("t", c.clone(), JobRequest::Plan).unwrap().wait());
    }
    // Re-run the most recent one: still cached. The oldest was evicted.
    executed(
        p.submit("t", circuits[2].clone(), JobRequest::Plan)
            .unwrap()
            .wait(),
    );
    executed(
        p.submit("t", circuits[0].clone(), JobRequest::Plan)
            .unwrap()
            .wait(),
    );
    let stats = p.shutdown();
    assert_eq!(stats.cache_entries, 2);
    assert_eq!(
        stats.cache_misses, 4,
        "circuits[0] re-planned after eviction"
    );
    assert_eq!(stats.cache_hits, 1, "circuits[2] was still resident");
    assert_eq!(stats.cache_evictions, 2);
}

/// Many-client stress: concurrent tenants over a tight queue with
/// scattered cancellations. Every handle resolves, the queue never
/// overruns its bound, and the pool's accounting balances exactly.
#[test]
fn concurrent_tenants_with_cancellations_balance_exactly() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const TENANTS: usize = 4;
    const JOBS_PER_TENANT: usize = 6;
    let p = Arc::new(pool(ServeConfig {
        workers: 2,
        queue_capacity: 3,
        cache_capacity: 4,
        ..ServeConfig::default()
    }));
    let ok = Arc::new(AtomicU64::new(0));
    let cancelled = Arc::new(AtomicU64::new(0));
    let base = atlas::circuit::generators::qaoa(8);

    let clients: Vec<_> = (0..TENANTS)
        .map(|t| {
            let (p, ok, cancelled) = (p.clone(), ok.clone(), cancelled.clone());
            let base = base.clone();
            std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                for j in 0..JOBS_PER_TENANT {
                    // Shifted parameters: same fingerprint, shared plan.
                    let point = base.map_params(|_, _, x| x + 0.01 * (t * 7 + j) as f64);
                    // Blocking submit: backpressure, not job loss.
                    let h = p
                        .submit_blocking(&tenant, point, JobRequest::Execute)
                        .expect("submit_blocking never rejects");
                    if (t + j) % 3 == 0 {
                        h.cancel(); // may land before or after dispatch
                    }
                    match h.wait().expect("no typed failures in this workload") {
                        JobOutcome::Output(JobOutput::Executed { norm, .. }) => {
                            assert!((norm - 1.0).abs() < 1e-9);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        JobOutcome::Output(other) => panic!("unexpected output {other:?}"),
                        JobOutcome::Cancelled => {
                            cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        JobOutcome::DeadlineExceeded => {
                            panic!("no deadlines in this workload")
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let p = Arc::into_inner(p).expect("all clients done");
    let stats = p.shutdown();
    let total = (TENANTS * JOBS_PER_TENANT) as u64;
    assert_eq!(stats.jobs_submitted, total);
    assert_eq!(stats.jobs_rejected, 0, "blocking submits never reject");
    assert_eq!(
        stats.jobs_completed + stats.jobs_cancelled,
        total,
        "every job terminates exactly once"
    );
    assert_eq!(stats.jobs_completed, ok.load(Ordering::Relaxed));
    assert_eq!(stats.jobs_cancelled, cancelled.load(Ordering::Relaxed));
    assert!(
        stats.max_queued <= 3,
        "queue depth {} exceeded its bound",
        stats.max_queued
    );
    // One structure: one plan, shared by everyone who executed. Jobs
    // cancelled *at dequeue* skip the cache lookup; jobs cancelled
    // after it don't — the split is timing-dependent, so the lookup
    // count is bracketed: every completed job looked up the cache,
    // every cancelled one may or may not have.
    assert_eq!(stats.cache_misses, 1);
    let lookups = stats.cache_hits + stats.cache_misses;
    assert!(
        lookups >= stats.jobs_completed && lookups <= total,
        "cache lookups {lookups} outside [{}, {total}]",
        stats.jobs_completed
    );
}
