//! `serve16`: a closed loop of clients against one `SessionPool`.
//!
//! Each client submits its next job only after `JobHandle::wait`
//! returned the previous one — callers that wait for replies make a
//! closed loop, so a slower pool receives less load and the queue cannot
//! grow without bound. Client count = worker count = `min(2, cpus)`;
//! every job runs its kernels on one thread.
//!
//! The job stream is a pure function of `--seed` ([`crate::stream`]):
//! 18 circuit structures (6 families × n ∈ {14, 16, 18}, i.e. 256 KiB /
//! 1 MiB / 4 MiB states around this host's 4 MiB L2) drawn with Zipf(1)
//! popularity against an 8-entry plan cache, so the LRU both hits and
//! evicts; every job is a parameter shift of its structure.

use crate::batch::{shifted, verify_all};
use crate::host;
use crate::layers;
use crate::metrics::{RunResult, Values};
use crate::stats;
use crate::stream::{self, Op};
use crate::Opts;
use atlas_circuit::{generators, Circuit};
use atlas_core::session::Planner;
use atlas_core::AtlasConfig;
use atlas_machine::{CostModel, MachineSpec};
use atlas_sampler::{PauliOp, PauliString};
use atlas_serve::{JobOutcome, JobOutput, JobRequest, ServeConfig, SessionPool};
use atlas_telemetry::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The timed loop runs whole blocks of the stream (each block asks for
/// every structure equally often) and never fewer than this many: 216
/// jobs, so the 95th percentile always has ten samples beyond it.
const MIN_BLOCKS: u64 = 3;
const SHOTS: usize = 4096;
const CACHE_CAPACITY: usize = 8;
/// Set-up repeats whose median is `setup_s` (a set-up plans most of the
/// 18 structures, so the cap on total run time affords two).
const SETUPS: usize = 2;
/// ~60 events per job; sized so a 30 s traced loop cannot overflow.
const SINK_EVENTS: usize = 1 << 18;

/// The structure table, in popularity-rank order: every family at every
/// size, 18 distinct structures.
///
/// Sizes cycle middle, small, large by rank, which puts 31 % of a
/// block's jobs on the small states, 47 % on the middle ones (rank 0
/// among them) and 22 % on the large ones. The median job is then a
/// cache hit on a middle-sized state and the 95th percentile lies inside
/// the large-state group — neither sits on the gap between two groups,
/// where one job more or less would move it by a factor.
fn structures(quick: bool) -> Vec<Circuit> {
    let sizes: [u32; 3] = if quick { [10, 8, 10] } else { [16, 14, 18] };
    let families: [fn(u32) -> Circuit; 6] = [
        generators::qaoa,
        generators::vqc,
        generators::qft,
        generators::ising,
        generators::su2random,
        generators::ae,
    ];
    (0..18)
        .map(|rank| families[(rank / 3 + 2 * (rank % 3)) % 6](sizes[rank % 3]))
        .collect()
}

/// One pool shape serves every size: 2 nodes × 2 GPUs with the local
/// width of the smallest structure's `n − 3`, so the three sizes run as
/// 32, 8 and 128 shards.
fn spec(quick: bool) -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: if quick { 7 } else { 11 },
    }
}

fn engine_config(rec: &Recorder) -> AtlasConfig {
    AtlasConfig {
        threads: 1,
        recorder: rec.clone(),
        ..AtlasConfig::default()
    }
}

/// The pool request for one drawn job on an `n`-qubit structure.
fn request(draw: &stream::JobDraw, n: u32) -> JobRequest {
    match draw.op {
        Op::Execute => JobRequest::Execute,
        Op::Sample => JobRequest::Sample {
            shots: SHOTS,
            seed: draw.shot_seed,
        },
        Op::Expect => JobRequest::Expect {
            pauli: PauliString::from_ops(n, &[(0, PauliOp::Z), (n / 2, PauliOp::X)]),
        },
    }
}

struct Serving {
    pool: SessionPool,
    bases: Vec<Circuit>,
    clients: usize,
    seed: u64,
}

/// One finished job as its client saw it.
struct Done {
    latency_ms: f64,
    ok: bool,
}

impl Serving {
    /// Builds the pool, checks it against the reference simulator and
    /// runs the warm-up jobs. Returns the set-up check's verdict.
    fn setup(opts: &Opts, rec: &Recorder) -> (Self, bool) {
        let workers = host::bench_threads();
        let pool = SessionPool::new(
            spec(opts.quick),
            CostModel::default(),
            engine_config(rec),
            ServeConfig {
                workers,
                cache_capacity: CACHE_CAPACITY,
                ..ServeConfig::default()
            },
        )
        .expect("a valid pool configuration");
        let s = Serving {
            pool,
            bases: structures(opts.quick),
            clients: workers,
            seed: opts.seed,
        };
        let ok = s.reference_agrees() && s.warm_up();
        (s, ok)
    }

    /// One `Execute` per structure, least popular first: plans every
    /// structure once, warms both workers' arenas, and leaves the cache
    /// holding the 8 most popular structures — the same start for every
    /// seed.
    fn warm_up(&self) -> bool {
        let shift = stream::param_shift(self.seed, 0, 0);
        let handles: Vec<_> = self
            .bases
            .iter()
            .rev()
            .map(|base| {
                self.pool
                    .submit_blocking("warm", shifted(base, shift), JobRequest::Execute)
            })
            .collect();
        handles.into_iter().all(|h| {
            matches!(
                h.and_then(|h| h.wait()),
                Ok(JobOutcome::Output(JobOutput::Executed { norm, .. })) if (norm - 1.0).abs() <= 1e-9
            )
        })
    }

    /// The most popular structure through the pool against the dense
    /// reference: the four top outcomes must carry the reference
    /// probabilities to 1e-9.
    fn reference_agrees(&self) -> bool {
        let c = shifted(&self.bases[0], stream::param_shift(self.seed, 0, 0));
        let reference = atlas_statevec::simulate_reference(&c);
        let outcome = self
            .pool
            .submit("check", c, JobRequest::Execute)
            .and_then(|h| h.wait());
        match outcome {
            Ok(JobOutcome::Output(JobOutput::Executed { norm, top, .. })) => {
                (norm - 1.0).abs() <= 1e-9
                    && top.len() == 4
                    && top
                        .iter()
                        .all(|&(bits, p)| (reference.probability(bits) - p).abs() <= 1e-9)
            }
            _ => false,
        }
    }

    /// Submits job `index` of the stream and waits for it.
    fn one_job(&self, client: usize, index: u64) -> Done {
        let draw = stream::job(self.seed, index, self.bases.len());
        let base = &self.bases[draw.structure];
        let circuit = shifted(base, draw.shift);
        let request = request(&draw, base.num_qubits());
        let tenant = ["tenant-a", "tenant-b"][client % 2];
        let t = Instant::now();
        let outcome = self
            .pool
            .submit(tenant, circuit, request)
            .and_then(|h| h.wait());
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        // Anything but a well-formed output — a typed error, a refusal,
        // a cancellation, a panic answered in-band — is a failed job.
        let ok = match outcome {
            Ok(JobOutcome::Output(JobOutput::Executed { norm, .. })) => (norm - 1.0).abs() <= 1e-9,
            Ok(JobOutcome::Output(JobOutput::Sampled { counts })) => {
                counts.iter().map(|&(_, c)| c).sum::<u64>() == SHOTS as u64
            }
            Ok(JobOutcome::Output(JobOutput::Expectation { value })) => value.abs() <= 1.0 + 1e-9,
            _ => false,
        };
        Done { latency_ms, ok }
    }

    /// Runs the closed loop over whole blocks of the stream until
    /// `seconds` have passed and `min_blocks` are done. Returns the jobs
    /// and the wall time from the first submit to the last completion.
    fn closed_loop(&self, seconds: f64, min_blocks: u64) -> (Vec<Done>, f64) {
        let next = AtomicU64::new(0);
        // Jobs below the limit run; a client that reaches it either
        // opens the next block or, once time is up, stops.
        let limit = AtomicU64::new(min_blocks * stream::BLOCK);
        let started = Instant::now();
        let done: Vec<Done> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.clients)
                .map(|client| {
                    let (next, limit) = (&next, &limit);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let mut open = limit.load(Ordering::Relaxed);
                            while index >= open && started.elapsed().as_secs_f64() < seconds {
                                // Whoever loses the race sees the winner's limit.
                                open = match limit.compare_exchange(
                                    open,
                                    open + stream::BLOCK,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => open + stream::BLOCK,
                                    Err(now) => now,
                                };
                            }
                            if index >= open {
                                break mine;
                            }
                            mine.push(self.one_job(client, index));
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect()
        });
        (done, started.elapsed().as_secs_f64())
    }

    fn timed_loop(&self, opts: &Opts, seconds: f64) -> (Vec<Done>, f64) {
        if opts.quick {
            self.closed_loop(0.0, 1)
        } else {
            self.closed_loop(seconds, MIN_BLOCKS)
        }
    }
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_ms).collect()
}

/// Runs `serve16`.
pub fn run(opts: &Opts) -> RunResult {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Opts) -> RunResult {
    let off = Recorder::default();
    let mut setups = Vec::new();
    let (s, setup_ok) = loop {
        let t = Instant::now();
        let built = Serving::setup(opts, &off);
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == SETUPS || opts.quick {
            break built;
        }
        // The previous pool (and its workers) ends before the next starts.
        drop(built);
    };
    let (done, wall_s) = s.timed_loop(opts, opts.seconds);
    let stats = s.pool.shutdown();

    let mut res = RunResult::default();
    res.attempted = done.len() as u64;
    res.failed = done.iter().filter(|d| !d.ok).count() as u64;
    res.correct = setup_ok && res.failed == 0;
    let lat = latencies(&done);
    let v = &mut res.values;
    v.insert("latency_p50_ms", stats::median(&lat));
    v.insert("latency_tail_ms", stats::percentile(&lat, 95.0));
    v.insert("work_per_s", done.len() as f64 / wall_s);
    v.insert("peak_rss_mb", host::peak_rss_mb());
    v.insert("setup_s", stats::median(&setups));
    let (q1, q3) = stats::quartiles(&lat);
    res.notes.push(format!(
        "job latency: n={} q1={q1:.3}ms median={:.3}ms q3={q3:.3}ms; latency_tail_ms is p95 \
         ({} samples beyond it; highest percentile with >= 10 beyond: {:?})",
        lat.len(),
        stats::median(&lat),
        lat.len() / 20,
        stats::highest_percentile(lat.len()),
    ));
    res.notes.push(format!(
        "closed loop: {} clients, {} workers, wall {wall_s:.3}s; jobs submitted {} completed {} \
         failed {} (incl. warm-up); cache hits {} misses {} evictions {}; set-ups {:?} s",
        s.clients,
        stats.workers,
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_submitted - stats.jobs_completed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        setups,
    ));
    res
}

/// The per-layer run: half the time on an untraced pool, half on a
/// traced one; the ratio of their median latencies is the tracing
/// overhead.
fn traced(opts: &Opts) -> RunResult {
    let copy_gbps = host::copy_gbps();
    let half = opts.seconds / 2.0;
    let (plain, plain_ok) = Serving::setup(opts, &Recorder::default());
    let (plain_done, _) = plain.timed_loop(opts, half);
    drop(plain);

    let rec = Recorder::with_capacity(SINK_EVENTS, atlas_telemetry::DEFAULT_LOCAL_CAPACITY);
    let (s, traced_ok) = Serving::setup(opts, &rec);
    // Timed-section numbers only: discard the warm-up's events and
    // remember its counters.
    rec.drain();
    let warm = s.pool.stats();
    let (done, _) = s.timed_loop(opts, half);
    let bases = s.bases.clone();
    let end = s.pool.shutdown();
    let events = rec.drain();

    let mut res = RunResult::default();
    res.attempted = (plain_done.len() + done.len()) as u64;
    res.failed = plain_done.iter().chain(&done).filter(|d| !d.ok).count() as u64;
    res.correct = plain_ok && traced_ok && res.failed == 0 && rec.dropped() == 0;

    let mut v = Values::new();
    layers::engine_layers(&events, 1, 0, &mut v);
    layers::model_clock_from_steps(&events, &mut v);
    let plan_s = v["staging.search_s"] + v["kernelize.dp_s"];
    v.insert("exec.plan_s", plan_s);
    v.insert("serve.miss_plan_s", plan_s);
    let queue = layers::span_ms(&events, "serve.queue_wait");
    let service = layers::span_ms(&events, "serve.job");
    v.insert("serve.jobs", done.len() as f64);
    v.insert("serve.queue_wait_p50_ms", stats::median(&queue));
    v.insert("serve.queue_wait_p95_ms", stats::percentile(&queue, 95.0));
    v.insert("serve.service_p50_ms", stats::median(&service));
    let hits = end.cache_hits - warm.cache_hits;
    let misses = end.cache_misses - warm.cache_misses;
    v.insert("serve.cache_hits", hits as f64);
    v.insert("serve.cache_misses", misses as f64);
    v.insert(
        "serve.cache_evictions",
        (end.cache_evictions - warm.cache_evictions) as f64,
    );
    v.insert(
        "serve.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert("serve.max_queued", end.max_queued as f64);
    v.insert(
        "statevec.scratch_table_hits",
        (end.scratch_table_hits - warm.scratch_table_hits) as f64,
    );
    v.insert(
        "statevec.scratch_table_misses",
        (end.scratch_table_misses - warm.scratch_table_misses) as f64,
    );

    // What the pool's admission gate costs per distinct structure: the
    // gate itself runs under the cache lock and has no span, so the bench
    // plans and verifies every structure once, directly, off the clock.
    let planner = Planner::new(
        spec(opts.quick),
        CostModel::default(),
        engine_config(&Recorder::default()),
    );
    let plans: Result<Vec<_>, _> = bases.iter().map(|c| planner.plan(c)).collect();
    res.correct &= match &plans {
        Ok(plans) => {
            let pairs: Vec<_> = bases.iter().zip(plans).collect();
            verify_all(&pairs, &mut v)
        }
        Err(_) => false,
    };
    v.insert(
        "circuit.gates",
        bases.iter().map(|c| c.num_gates() as f64).sum(),
    );

    // A client sees queue wait + service + the submit/wait channel hops.
    let seen: f64 = latencies(&done).iter().sum();
    let spanned: f64 = queue.iter().chain(&service).sum();
    v.insert("bench.unattributed_share", 1.0 - spanned / seen);
    v.insert(
        "telemetry.overhead_rel",
        stats::median(&latencies(&done)) / stats::median(&latencies(&plain_done)) - 1.0,
    );
    v.insert("telemetry.events", events.len() as f64);
    layers::run_facts(&rec, done.len(), end.workers, copy_gbps, &mut v);
    res.values = v;
    res.notes.push(format!(
        "untraced jobs {} (p50 {:.3}ms), traced jobs {} (p50 {:.3}ms); hit rate is approximate \
         (client interleaving is not fixed)",
        plain_done.len(),
        stats::median(&latencies(&plain_done)),
        done.len(),
        stats::median(&latencies(&done)),
    ));
    res
}
