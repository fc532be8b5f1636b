//! The multi-tenant session pool: a bounded job queue, a worker team,
//! and a shared LRU cache of [`CompiledPlan`]s keyed by
//! [`CircuitFingerprint`].
//!
//! ## Design
//!
//! Atlas splits simulation into an expensive PARTITION (staging ILP +
//! kernelization DP) and a cheap, repeatable EXECUTE. A serving
//! deployment sees many clients sending structurally identical circuits
//! (parameter sweeps, VQE iterations, the same ansatz from different
//! users), so the pool amortizes PARTITION across *tenants*: the first
//! job with a given structural fingerprint plans, everyone else reuses
//! the cached [`CompiledPlan`].
//!
//! * **Plan-exactly-once** — a cache miss reserves its fingerprint
//!   (single-flight) and plans *outside* the cache lock; a job arriving
//!   for a key that is being planned parks until the plan is published,
//!   so two concurrent jobs with the same fingerprint can never both
//!   invoke PARTITION, while hits on other keys (and misses on other
//!   keys) never wait behind it. EXECUTE runs outside every lock.
//! * **Fairness** — tenants are scheduled round-robin: the dispatcher
//!   cycles through tenants with queued work and takes one job per
//!   visit, so a tenant that floods the queue cannot starve the others
//!   (a tenant's own jobs still run in submission order).
//! * **Backpressure** — the queue is bounded. [`SessionPool::submit`]
//!   fast-fails with [`AtlasError::Overloaded`] when full;
//!   [`SessionPool::submit_blocking`] waits for space instead, and
//!   [`SessionPool::submit_timeout`] waits a bounded time before
//!   failing typed.
//! * **Admission** — a job whose peak memory demand (the state, one
//!   scratch shard and the gathered copy under
//!   [`AtlasConfig::final_unpermute`]; for a sample job, the larger of
//!   that and the state and gathered copy beside its shots,
//!   [`MemoryBudget::sample_bytes`](atlas_core::config::MemoryBudget::sample_bytes))
//!   exceeds
//!   [`AtlasConfig::memory_budget`] ([`AtlasConfig::admit_draw`]) is
//!   rejected at submission with [`AtlasError::ResourceExhausted`],
//!   before it holds a queue slot and long before any amplitude
//!   allocation could abort the process.
//! * **Cancellation** — every job carries a [`CancelToken`], honored at
//!   dequeue, after plan lookup, and at every stage barrier inside
//!   EXECUTE (the deterministic preemption points — a kernel is never
//!   torn mid-shard).
//! * **Deadlines** — a job may carry a relative deadline
//!   ([`SessionPool::submit_with_deadline`]); expiry is checked at the
//!   same points as cancellation and answers
//!   [`JobOutcome::DeadlineExceeded`].
//! * **Panic isolation** — a job that panics (its own bug, or a panic
//!   re-raised from the EXECUTE worker team) is caught at the job
//!   boundary and answered in-band as [`AtlasError::JobPanicked`]; the
//!   worker thread and the rest of the pool keep serving, and every
//!   shared lock recovers from poison instead of unwrapping it.
//! * **Fault injection** — a seeded [`FaultPlan`] deterministically
//!   injects panics, forced cancellations, deadline pressure and
//!   allocation failures at named sites (zero-cost when disabled); see
//!   [`crate::fault`].
//!
//! Everything a job *returns* is deterministic: outputs carry model
//! time (simulated seconds), counts and amplitudes — never wall-clock
//! readings or cache-hit flags, so a response stream is byte-identical
//! across runs, worker counts and cache states. Wall-clock and cache
//! behavior are observable only in the aggregate [`PoolStats`]. The
//! single wall-clock read in this crate is `wall_now`, used only to
//! evaluate deadlines.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atlas_circuit::Circuit;
use atlas_core::config::AtlasConfig;
use atlas_core::session::{CircuitFingerprint, CompiledPlan, Planner};
use atlas_error::AtlasError;
use atlas_machine::{CostModel, MachineSpec};
use atlas_sampler::PauliString;
use atlas_statevec::{scratch, StateVector};
use atlas_telemetry::SpanStart;

use crate::fault::{FaultPlan, FaultSite};

/// The one audited wall-clock read of the serve crate. Deadlines are
/// *defined* against real elapsed time, so they cannot be modeled; all
/// deterministic outputs stay clear of this function.
fn wall_now() -> Instant {
    // lint: allow(wall-clock) — deadlines are defined against real elapsed time; single audited read site.
    Instant::now()
}

/// Locks a mutex, recovering from poison instead of propagating it.
///
/// Every critical section in this module leaves its data consistent at
/// every panic point (counters are monotonic, the cache map changes by
/// single inserts and removes), so the poison flag carries no
/// information the pool needs — a panicked job must not wedge the shared
/// locks for everyone else.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool shape: worker count, queue bound, plan-cache bound, and the
/// (normally disabled) fault-injection schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing jobs. Each worker runs one job at a
    /// time; EXECUTE-level parallelism inside a job is governed by
    /// [`AtlasConfig::threads`] as usual.
    pub workers: usize,
    /// Maximum number of *queued* (not yet dispatched) jobs before
    /// [`SessionPool::submit`] rejects with [`AtlasError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum number of cached [`CompiledPlan`]s; the least recently
    /// used entry is evicted on overflow.
    pub cache_capacity: usize,
    /// Deterministic fault-injection schedule (disabled by default);
    /// see [`FaultPlan`].
    pub fault_plan: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 32,
            fault_plan: FaultPlan::disabled(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), AtlasError> {
        for (name, v) in [
            ("workers", self.workers),
            ("queue_capacity", self.queue_capacity),
            ("cache_capacity", self.cache_capacity),
        ] {
            if v == 0 {
                return Err(AtlasError::InvalidConfig {
                    reason: format!("ServeConfig::{name} must be at least 1"),
                });
            }
        }
        Ok(())
    }
}

/// What a job asks the pool to do with its circuit.
#[derive(Clone, Debug)]
pub enum JobRequest {
    /// PARTITION only: plan (or hit the cache) and report plan shape.
    Plan,
    /// Full EXECUTE; reports the model clock and the top outcomes, and
    /// gathers the state when the pool's [`AtlasConfig::final_unpermute`]
    /// is set.
    Execute,
    /// EXECUTE, then draw seeded measurement shots.
    Sample {
        /// Number of shots.
        shots: usize,
        /// RNG seed (fixed seed ⇒ byte-identical samples).
        seed: u64,
    },
    /// EXECUTE, then compute one Pauli-string expectation value.
    Expect {
        /// The observable.
        pauli: PauliString,
    },
}

/// The deterministic result payload of a finished job.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// Result of [`JobRequest::Plan`].
    Planned {
        /// Number of stages.
        stages: usize,
        /// Staging objective value (inter-node transition cost).
        staging_cost: i64,
        /// Whether staging is provably optimal.
        optimal: bool,
    },
    /// Result of [`JobRequest::Execute`].
    Executed {
        /// Simulated end-to-end seconds (model clock, deterministic).
        model_secs: f64,
        /// Kernels launched.
        kernels: u64,
        /// Total state norm (≈ 1.0; a correctness canary).
        norm: f64,
        /// The 4 most probable outcomes, `(bits, probability)`.
        top: Vec<(u64, f64)>,
        /// Gathered final state, only when the pool's config set
        /// [`AtlasConfig::final_unpermute`].
        state: Option<StateVector>,
    },
    /// Result of [`JobRequest::Sample`]: `(bits, count)` sorted by
    /// descending count, then ascending bits.
    Sampled {
        /// Outcome counts.
        counts: Vec<(u64, u64)>,
    },
    /// Result of [`JobRequest::Expect`].
    Expectation {
        /// ⟨ψ|P|ψ⟩ (real by construction).
        value: f64,
    },
}

/// Terminal state of a job: produced a result, was cancelled, or ran
/// out its deadline.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran and produced its output.
    Output(JobOutput),
    /// The job's [`CancelToken`] fired before (or during) EXECUTE.
    Cancelled,
    /// The job's deadline expired before (or during) EXECUTE. A job
    /// submitted with a zero deadline is deterministically expired at
    /// dispatch.
    DeadlineExceeded,
}

/// Cooperative cancellation flag, cloneable and thread-safe.
///
/// Honored at every point where abandoning the job is sound: when the
/// job is dequeued, again after plan lookup, and at every stage barrier
/// inside EXECUTE (shards are never left torn mid-kernel).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A submitted job: its id, its cancel token, and the receiving end of
/// its one-shot result channel.
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    cancel: CancelToken,
    rx: mpsc::Receiver<Result<JobOutcome, AtlasError>>,
}

impl JobHandle {
    /// Pool-assigned job id (also the key of the dequeue log).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This job's cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests cancellation of this job.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job reaches a terminal state. A pool torn down
    /// before answering reads as [`JobOutcome::Cancelled`].
    pub fn wait(self) -> Result<JobOutcome, AtlasError> {
        self.rx.recv().unwrap_or(Ok(JobOutcome::Cancelled))
    }
}

/// Monotonic aggregate counters of a pool (all since construction).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that ran to a successful output.
    pub jobs_completed: u64,
    /// Jobs that terminated with a typed error (panicked jobs are
    /// counted under [`jobs_panicked`](PoolStats::jobs_panicked)
    /// instead).
    pub jobs_failed: u64,
    /// Jobs cancelled before or during EXECUTE.
    pub jobs_cancelled: u64,
    /// Jobs whose deadline expired before or during EXECUTE.
    pub jobs_deadline_exceeded: u64,
    /// Jobs that panicked and were answered
    /// [`AtlasError::JobPanicked`] (the pool survived each one).
    pub jobs_panicked: u64,
    /// Submissions rejected at admission: a full queue
    /// ([`AtlasError::Overloaded`]) or a request over the memory budget
    /// ([`AtlasError::ResourceExhausted`]). Rejected jobs never consume
    /// a job id.
    pub jobs_rejected: u64,
    /// Plan-cache hits (PARTITION skipped).
    pub cache_hits: u64,
    /// Plan-cache misses (PARTITION ran).
    pub cache_misses: u64,
    /// Plans evicted by the LRU policy.
    pub cache_evictions: u64,
    /// Plans currently cached.
    pub cache_entries: usize,
    /// High-water mark of the queue depth.
    pub max_queued: usize,
    /// Worker threads.
    pub workers: usize,
    /// Offset-table memo hits inside the workers' scratch arenas
    /// (see `atlas_statevec::Scratch`); covers the worker threads
    /// themselves, i.e. everything when [`AtlasConfig::threads`] is 1.
    pub scratch_table_hits: u64,
    /// Offset-table memo misses (tables built).
    pub scratch_table_misses: u64,
    /// Offset-table memo LRU evictions.
    pub scratch_table_evictions: u64,
    /// Plans run through the `atlas-analyze` cache admission gate (once
    /// per cache miss that planned, counted when its result is
    /// published — worker-count-invariant).
    pub analyze_plans_checked: u64,
    /// Plans the verifier rejected (never cached, job fails typed).
    pub analyze_plans_rejected: u64,
}

impl PoolStats {
    /// Plan-cache hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One queued job.
struct QueuedJob {
    id: u64,
    circuit: Circuit,
    request: JobRequest,
    cancel: CancelToken,
    /// Absolute expiry instant, armed at submission (`None` = no
    /// deadline).
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<JobOutcome, AtlasError>>,
    /// Telemetry anchor taken at submission — the `serve.queue_wait`
    /// span runs from here to dispatch (wall-clock only, never in the
    /// response stream).
    submitted: SpanStart,
}

/// Scheduler state under the queue mutex: per-tenant FIFOs plus the
/// round-robin ring. Invariant: a tenant key is in `ring` if and only
/// if its FIFO is non-empty.
#[derive(Default)]
struct SchedState {
    tenants: HashMap<String, VecDeque<QueuedJob>>,
    ring: VecDeque<String>,
    queued: usize,
    in_flight: usize,
    paused: bool,
    shutdown: bool,
    max_queued: usize,
    dequeue_log: Vec<u64>,
}

impl SchedState {
    /// Round-robin dispatch: next tenant in the ring gives up exactly
    /// one job.
    fn dequeue(&mut self) -> Option<QueuedJob> {
        let tenant = self.ring.pop_front()?;
        let fifo = self
            .tenants
            .get_mut(&tenant)
            .expect("ring invariant: tenant has a FIFO");
        let job = fifo.pop_front().expect("ring invariant: FIFO non-empty");
        if fifo.is_empty() {
            self.tenants.remove(&tenant);
        } else {
            self.ring.push_back(tenant);
        }
        self.queued -= 1;
        self.in_flight += 1;
        self.dequeue_log.push(job.id);
        Some(job)
    }
}

/// One plan-cache entry: a published plan with its last-use tick, or the
/// reservation of the one job planning that fingerprint.
enum Slot {
    Ready(u64, Arc<CompiledPlan>),
    Planning,
}

/// The LRU plan cache. Its lock covers the map and the counters only:
/// no plan is built or verified while it is held.
///
/// A miss counts itself, reserves [`Slot::Planning`] and plans with the
/// lock dropped (see [`plan_for`]); it re-takes the lock only to publish.
/// A job that finds its key `Planning` parks on [`Shared::plan_ready`]
/// and counts a hit only when it wakes to `Ready`; if the planner failed,
/// was rejected or panicked, the reservation is gone and the parked job
/// re-enters the lookup from the top (a miss of its own). So `hits`,
/// `misses` and the `analyze_*` counters are what one serial lock around
/// the whole miss path would count — plan-exactly-once per residency.
///
/// Poison-safety: no code panics while holding this lock (an injected
/// [`FaultSite::PlanPanic`] fires in the planning section, where the
/// [`Reservation`] drop guard frees the slot on unwind), and
/// [`lock_clean`] would clear a poison flag regardless.
struct PlanCache {
    map: HashMap<CircuitFingerprint, Slot>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Admission-gate outcomes (see [`plan_for`]): every freshly planned
    /// circuit is verified before it is published, so a malformed plan
    /// can never be cached — let alone replayed into another tenant's job.
    analyze_checked: u64,
    analyze_rejected: u64,
    /// Jobs parked on [`Shared::plan_ready`]; a publish with none parked
    /// skips the wake-up.
    parked: usize,
}

impl PlanCache {
    /// Published plans (reservations hold no plan and are not counted
    /// against `capacity`).
    fn ready_len(&self) -> usize {
        self.map
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(..)))
            .count()
    }
}

/// How long a submission is willing to wait for queue space.
enum Wait {
    /// Reject immediately when the queue is full.
    FastFail,
    /// Wait for space indefinitely.
    Block,
    /// Wait at most this long, then reject typed.
    Timeout(Duration),
}

/// State shared between the pool handle and its workers.
struct Shared {
    planner: Planner,
    queue_capacity: usize,
    /// Configured worker-team size (stable across shutdown, unlike the
    /// join-handle vector `stats` used to read).
    worker_count: usize,
    /// The fault-injection schedule ([`FaultPlan::disabled`] outside
    /// chaos tests).
    fault: FaultPlan,
    sched: Mutex<SchedState>,
    /// Wakes workers when work arrives (or on pause/shutdown edges).
    job_ready: Condvar,
    /// Wakes blocked submitters when queue space frees up.
    space_ready: Condvar,
    /// Wakes `wait_idle` when the pool drains.
    idle: Condvar,
    cache: Mutex<PlanCache>,
    /// Wakes jobs parked on a `Planning` slot when a reservation is
    /// published or freed.
    plan_ready: Condvar,
    next_id: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_deadline_exceeded: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Per-worker `(scratch hits, misses, evictions)` snapshots: each
    /// worker owns one slot and republishes its thread-local scratch
    /// totals after every job.
    scratch_totals: Vec<[AtomicU64; 3]>,
}

/// A running multi-tenant session pool. See the module docs for the
/// scheduling, caching, backpressure and failure contract.
pub struct SessionPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionPool {
    /// Spawns the worker team for one machine shape + cost model +
    /// simulation config + pool shape.
    ///
    /// `cfg` is validated up front (same rules as [`Planner::plan`]);
    /// `serve.workers/queue_capacity/cache_capacity` must all be ≥ 1.
    /// If the OS refuses a worker thread mid-construction, the workers
    /// already started are torn down and
    /// [`AtlasError::WorkerSpawnFailed`] is returned — the constructor
    /// never panics on spawn failure.
    pub fn new(
        spec: MachineSpec,
        cost: CostModel,
        cfg: AtlasConfig,
        serve: ServeConfig,
    ) -> Result<Self, AtlasError> {
        cfg.validate()?;
        serve.validate()?;
        let shared = Arc::new(Shared {
            planner: Planner::new(spec, cost, cfg),
            queue_capacity: serve.queue_capacity,
            worker_count: serve.workers,
            fault: serve.fault_plan.clone(),
            sched: Mutex::new(SchedState::default()),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            idle: Condvar::new(),
            cache: Mutex::new(PlanCache {
                map: HashMap::new(),
                tick: 0,
                capacity: serve.cache_capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
                analyze_checked: 0,
                analyze_rejected: 0,
                parked: 0,
            }),
            plan_ready: Condvar::new(),
            next_id: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_deadline_exceeded: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            scratch_totals: (0..serve.workers)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        });
        let mut workers = Vec::with_capacity(serve.workers);
        for slot in 0..serve.workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("atlas-serve-{slot}"))
                .spawn(move || worker_loop(&worker_shared, slot))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    let started = workers.len();
                    // The partial pool's Drop path shuts the started
                    // workers down cleanly (they have no queued work).
                    drop(SessionPool { shared, workers });
                    return Err(AtlasError::WorkerSpawnFailed {
                        started,
                        requested: serve.workers,
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(SessionPool { shared, workers })
    }

    /// The simulation config jobs run under.
    pub fn config(&self) -> &AtlasConfig {
        self.shared.planner.config()
    }

    /// Submits a job for `tenant`, fast-failing with
    /// [`AtlasError::Overloaded`] when the queue is full.
    pub fn submit(
        &self,
        tenant: &str,
        circuit: Circuit,
        request: JobRequest,
    ) -> Result<JobHandle, AtlasError> {
        self.submit_inner(tenant, circuit, request, Wait::FastFail, None)
    }

    /// Submits a job for `tenant`, blocking until queue space is
    /// available instead of rejecting.
    pub fn submit_blocking(
        &self,
        tenant: &str,
        circuit: Circuit,
        request: JobRequest,
    ) -> Result<JobHandle, AtlasError> {
        self.submit_inner(tenant, circuit, request, Wait::Block, None)
    }

    /// Submits a job for `tenant`, waiting at most `wait` for queue
    /// space before rejecting with [`AtlasError::Overloaded`] — bounded
    /// backpressure, so a stalled pool cannot hold a client hostage the
    /// way [`submit_blocking`](SessionPool::submit_blocking) would.
    pub fn submit_timeout(
        &self,
        tenant: &str,
        circuit: Circuit,
        request: JobRequest,
        wait: Duration,
    ) -> Result<JobHandle, AtlasError> {
        self.submit_inner(tenant, circuit, request, Wait::Timeout(wait), None)
    }

    /// Submits a job with a relative `deadline`, measured from now.
    ///
    /// The queue-space wait is bounded by the same deadline (expiry
    /// while still waiting for a slot reads as
    /// [`AtlasError::Overloaded`]); once queued, a job whose deadline
    /// expires before EXECUTE or at a stage barrier inside it is
    /// answered [`JobOutcome::DeadlineExceeded`]. A zero deadline is
    /// deterministically expired at dispatch — useful for tests and for
    /// load shedding.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        circuit: Circuit,
        request: JobRequest,
        deadline: Duration,
    ) -> Result<JobHandle, AtlasError> {
        self.submit_inner(
            tenant,
            circuit,
            request,
            Wait::Timeout(deadline),
            Some(deadline),
        )
    }

    fn submit_inner(
        &self,
        tenant: &str,
        circuit: Circuit,
        request: JobRequest,
        wait: Wait,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, AtlasError> {
        let shared = &self.shared;
        // Resource admission: reject a request whose peak bytes (EXECUTE's,
        // or the shots a sample job draws beside its result) exceed the
        // budget before it holds a queue slot — and long before EXECUTE
        // or the draw would attempt the allocation. Rejected jobs never
        // consume a job id, so accepted ids stay dense in submission
        // order regardless of rejections.
        let cfg = shared.planner.config();
        let shots = match request {
            JobRequest::Sample { shots, .. } => shots,
            _ => 0,
        };
        let (n, local) = (circuit.num_qubits(), shared.planner.spec().local_qubits);
        if let Err(e) = cfg.admit_draw(n, local, shots, false) {
            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let wait_until = match wait {
            Wait::Timeout(d) => wall_now().checked_add(d),
            _ => None,
        };
        let deadline_at = deadline.and_then(|d| wall_now().checked_add(d));
        let mut sched = lock_clean(&shared.sched);
        while sched.queued >= shared.queue_capacity {
            match wait {
                Wait::FastFail => {
                    shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(AtlasError::Overloaded {
                        queued: sched.queued,
                        capacity: shared.queue_capacity,
                    });
                }
                Wait::Block => {
                    sched = shared
                        .space_ready
                        .wait(sched)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Wait::Timeout(_) => match wait_until {
                    // An overflowed expiry instant is effectively
                    // unbounded: fall back to blocking.
                    None => {
                        sched = shared
                            .space_ready
                            .wait(sched)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(until) => {
                        let remaining = until.saturating_duration_since(wall_now());
                        if remaining.is_zero() {
                            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                            return Err(AtlasError::Overloaded {
                                queued: sched.queued,
                                capacity: shared.queue_capacity,
                            });
                        }
                        let (guard, _timed_out) = shared
                            .space_ready
                            .wait_timeout(sched, remaining)
                            .unwrap_or_else(PoisonError::into_inner);
                        sched = guard;
                    }
                },
            }
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        let job = QueuedJob {
            id,
            circuit,
            request,
            cancel: cancel.clone(),
            deadline: deadline_at,
            tx,
            submitted: shared.planner.config().recorder.start(),
        };
        match sched.tenants.entry(tenant.to_string()) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push_back(job),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(VecDeque::from([job]));
                sched.ring.push_back(tenant.to_string());
            }
        }
        sched.queued += 1;
        sched.max_queued = sched.max_queued.max(sched.queued);
        shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        drop(sched);
        shared.job_ready.notify_one();
        Ok(JobHandle { id, cancel, rx })
    }

    /// Stops dispatching (queued jobs stay queued; in-flight jobs
    /// finish). For tests that need to line up a queue deterministically.
    pub fn pause(&self) {
        lock_clean(&self.shared.sched).paused = true;
    }

    /// Resumes dispatching after [`SessionPool::pause`].
    pub fn resume(&self) {
        lock_clean(&self.shared.sched).paused = false;
        self.shared.job_ready.notify_all();
    }

    /// Blocks until no job is queued or in flight.
    pub fn wait_idle(&self) {
        let mut sched = lock_clean(&self.shared.sched);
        while sched.queued > 0 || sched.in_flight > 0 {
            sched = self
                .shared
                .idle
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The job ids in dispatch order — the observable fairness record
    /// (tests assert round-robin interleaving on it).
    pub fn dequeue_log(&self) -> Vec<u64> {
        lock_clean(&self.shared.sched).dequeue_log.clone()
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.shared;
        let (
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            analyze_checked,
            analyze_rejected,
        ) = {
            let c = lock_clean(&shared.cache);
            (
                c.hits,
                c.misses,
                c.evictions,
                c.ready_len(),
                c.analyze_checked,
                c.analyze_rejected,
            )
        };
        let max_queued = lock_clean(&shared.sched).max_queued;
        let mut scratch = [0u64; 3];
        for slot in &shared.scratch_totals {
            for (acc, cell) in scratch.iter_mut().zip(slot) {
                *acc += cell.load(Ordering::Relaxed);
            }
        }
        let stats = PoolStats {
            jobs_submitted: shared.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: shared.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: shared.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: shared.jobs_cancelled.load(Ordering::Relaxed),
            jobs_deadline_exceeded: shared.jobs_deadline_exceeded.load(Ordering::Relaxed),
            jobs_panicked: shared.jobs_panicked.load(Ordering::Relaxed),
            jobs_rejected: shared.jobs_rejected.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            max_queued,
            workers: shared.worker_count,
            scratch_table_hits: scratch[0],
            scratch_table_misses: scratch[1],
            scratch_table_evictions: scratch[2],
            analyze_plans_checked: analyze_checked,
            analyze_plans_rejected: analyze_rejected,
        };
        // Absorb the pool counters into the unified metrics registry, so
        // a trace export carries them alongside the span-level data.
        let rec = &shared.planner.config().recorder;
        if rec.is_enabled() {
            rec.metric_set("serve.jobs_submitted", stats.jobs_submitted);
            rec.metric_set("serve.jobs_completed", stats.jobs_completed);
            rec.metric_set("serve.jobs_failed", stats.jobs_failed);
            rec.metric_set("serve.jobs_cancelled", stats.jobs_cancelled);
            rec.metric_set("serve.jobs_deadline_exceeded", stats.jobs_deadline_exceeded);
            rec.metric_set("serve.jobs_panicked", stats.jobs_panicked);
            rec.metric_set("serve.jobs_rejected", stats.jobs_rejected);
            rec.metric_set("serve.plan_cache.entries", stats.cache_entries as u64);
            rec.metric_set("serve.queue.max_depth", stats.max_queued as u64);
            rec.metric_set("serve.workers", stats.workers as u64);
            rec.metric_set("analyze.plans_checked", stats.analyze_plans_checked);
            rec.metric_set("analyze.plans_rejected", stats.analyze_plans_rejected);
        }
        stats
    }

    /// Drains the queue, joins the workers and returns the final
    /// counters. Queued jobs still run (cancelled ones are answered
    /// [`JobOutcome::Cancelled`]).
    pub fn shutdown(mut self) -> PoolStats {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut sched = lock_clean(&self.shared.sched);
        sched.shutdown = true;
        // Shutdown overrides pause: a paused, dropped pool must not
        // hang its workers.
        sched.paused = false;
        drop(sched);
        self.shared.job_ready.notify_all();
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Looks up (or computes) the plan for `circuit`. PARTITION and the
/// admission gate run outside the cache lock, under a single-flight
/// reservation of the fingerprint — see [`PlanCache`].
fn plan_for(
    shared: &Shared,
    circuit: &Circuit,
    job_id: u64,
) -> Result<Arc<CompiledPlan>, AtlasError> {
    let reservation = match lookup(shared, CircuitFingerprint::of(circuit), job_id) {
        Lookup::Hit(plan) => return Ok(plan),
        Lookup::Miss(reservation) => reservation,
    };
    if shared.fault.should_inject(FaultSite::PlanPanic, job_id) {
        // In the planning section, after the reservation and outside the
        // lock: the unwind must free the reservation and wake the jobs
        // parked on it.
        panic!("injected fault: panic while planning at job {job_id}");
    }
    let plan = Arc::new(shared.planner.plan(circuit)?);
    // Cache admission gate: verify the freshly compiled plan before it
    // becomes shared state. A plan that fails static analysis is never
    // published, so it cannot be replayed into another tenant's job; the
    // submitting job fails with the verifier's typed diagnostic.
    let verdict = atlas_analyze::verify_plan(circuit, plan.plan(), plan.cost())
        .map(drop)
        .map_err(AtlasError::from);
    reservation.publish(plan, verdict)
}

/// What a cache lookup found: a published plan, or the reservation this
/// job now holds and must publish (or drop) after planning.
enum Lookup<'a> {
    Hit(Arc<CompiledPlan>),
    Miss(Reservation<'a>),
}

/// Finds `fp` in the cache, parking while another job plans it. A wait
/// is recorded as a non-det `serve.plan_wait` span (`ord` = job id).
fn lookup(shared: &Shared, fp: CircuitFingerprint, job_id: u64) -> Lookup<'_> {
    let rec = &shared.planner.config().recorder;
    let mut parked_at = None;
    let mut cache = lock_clean(&shared.cache);
    let found = loop {
        let c = &mut *cache;
        match c.map.get_mut(&fp) {
            Some(Slot::Ready(tick, plan)) => {
                c.tick += 1;
                *tick = c.tick;
                c.hits += 1;
                rec.metric_add("serve.plan_cache.hits", 1);
                break Lookup::Hit(Arc::clone(plan));
            }
            Some(Slot::Planning) => {
                parked_at.get_or_insert_with(|| rec.start());
                c.parked += 1;
                cache = shared
                    .plan_ready
                    .wait(cache)
                    .unwrap_or_else(PoisonError::into_inner);
                cache.parked -= 1;
            }
            None => {
                c.misses += 1;
                c.map.insert(fp, Slot::Planning);
                rec.metric_add("serve.plan_cache.misses", 1);
                break Lookup::Miss(Reservation {
                    shared,
                    fp,
                    open: true,
                });
            }
        }
    };
    drop(cache);
    if let Some(start) = parked_at {
        rec.span("serve.plan_wait", start, false, 0, 0, job_id as u32, &[]);
    }
    found
}

/// A job's [`Slot::Planning`] reservation of one fingerprint. Dropped
/// unpublished — the planner returned an error or the job unwound — it
/// removes the slot and wakes the parked jobs, which then re-enter the
/// lookup from the top.
struct Reservation<'a> {
    shared: &'a Shared,
    fp: CircuitFingerprint,
    /// Whether the slot is still this reservation's to free.
    open: bool,
}

impl Reservation<'_> {
    /// Publishes `plan` under the admission gate's `verdict`: an admitted
    /// plan replaces the reservation (evicting the least recently used
    /// published plan when full); a rejected one frees the slot and fails
    /// the job with the verifier's diagnostic.
    fn publish(
        mut self,
        plan: Arc<CompiledPlan>,
        verdict: Result<(), AtlasError>,
    ) -> Result<Arc<CompiledPlan>, AtlasError> {
        let rec = &self.shared.planner.config().recorder;
        let mut cache = lock_clean(&self.shared.cache);
        cache.analyze_checked += 1;
        let result = match verdict {
            Err(violation) => {
                cache.analyze_rejected += 1;
                rec.metric_add("analyze.plans_rejected", 1);
                cache.map.remove(&self.fp);
                Err(violation)
            }
            Ok(()) => {
                if cache.ready_len() >= cache.capacity {
                    let coldest = cache
                        .map
                        .iter()
                        .filter_map(|(k, slot)| match slot {
                            Slot::Ready(t, _) => Some((*t, *k)),
                            Slot::Planning => None,
                        })
                        .min_by_key(|(t, _)| *t)
                        .map(|(_, k)| k)
                        .expect("cache at capacity holds a published plan");
                    cache.map.remove(&coldest);
                    cache.evictions += 1;
                    rec.metric_add("serve.plan_cache.evictions", 1);
                }
                cache.tick += 1;
                let tick = cache.tick;
                cache
                    .map
                    .insert(self.fp, Slot::Ready(tick, Arc::clone(&plan)));
                Ok(plan)
            }
        };
        self.open = false;
        self.shared.wake_parked(cache);
        result
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.open {
            let mut cache = lock_clean(&self.shared.cache);
            cache.map.remove(&self.fp);
            self.shared.wake_parked(cache);
        }
    }
}

impl Shared {
    /// Releases the cache lock and wakes every parked job (each re-checks
    /// its own key).
    fn wake_parked(&self, cache: MutexGuard<'_, PlanCache>) {
        let any = cache.parked > 0;
        drop(cache);
        if any {
            self.plan_ready.notify_all();
        }
    }
}

/// Runs one job to its output, polling cancellation and the deadline at
/// every stage barrier inside EXECUTE.
fn run_job(
    plan: &CompiledPlan,
    circuit: &Circuit,
    request: &JobRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Result<JobOutcome, AtlasError> {
    // The stage-barrier probe: EXECUTE abandons the run at the next
    // barrier once this returns true. A probe that never fires leaves
    // results byte-identical to an unprobed run.
    let probe = || cancel.is_cancelled() || deadline.is_some_and(|d| wall_now() >= d);
    let interrupted = || {
        if cancel.is_cancelled() {
            JobOutcome::Cancelled
        } else {
            JobOutcome::DeadlineExceeded
        }
    };
    match request {
        JobRequest::Plan => {
            let p = plan.plan();
            Ok(JobOutcome::Output(JobOutput::Planned {
                stages: p.stages.len(),
                staging_cost: p.staging_cost,
                optimal: p.staging_optimal,
            }))
        }
        JobRequest::Execute => match plan.execute_with(circuit, &probe)? {
            None => Ok(interrupted()),
            Some(run) => Ok(JobOutcome::Output(JobOutput::Executed {
                model_secs: run.report.total_secs,
                kernels: run.report.kernels,
                norm: run.measurements.total_norm(),
                top: run.measurements.top(4),
                state: run.state,
            })),
        },
        JobRequest::Sample { shots, seed } => match plan.execute_with(circuit, &probe)? {
            None => Ok(interrupted()),
            Some(run) => Ok(JobOutcome::Output(JobOutput::Sampled {
                counts: run.measurements.sample_counts(*shots, *seed),
            })),
        },
        JobRequest::Expect { pauli } => {
            if pauli.num_qubits() != circuit.num_qubits() {
                return Err(AtlasError::InvalidConfig {
                    reason: format!(
                        "Pauli string spans {} qubit(s), circuit has {}",
                        pauli.num_qubits(),
                        circuit.num_qubits()
                    ),
                });
            }
            match plan.execute_with(circuit, &probe)? {
                None => Ok(interrupted()),
                Some(run) => Ok(JobOutcome::Output(JobOutput::Expectation {
                    value: run.measurements.expectation(pauli),
                })),
            }
        }
    }
}

/// Renders a panic payload as a short summary for
/// [`AtlasError::JobPanicked`] (the `&str`/`String` message when the
/// payload carries one).
fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Takes one dispatched job to its terminal result, isolating panics at
/// this boundary: a panic anywhere inside (the job's own logic, EXECUTE
/// worker panics re-raised by the statevec pool, or an injected
/// [`FaultSite::WorkerPanic`]/[`FaultSite::PlanPanic`]) becomes a typed
/// [`AtlasError::JobPanicked`] and the worker thread survives.
fn process_job(shared: &Shared, job: &QueuedJob) -> Result<JobOutcome, AtlasError> {
    match catch_unwind(AssertUnwindSafe(|| process_job_inner(shared, job))) {
        Ok(result) => result,
        Err(payload) => Err(AtlasError::JobPanicked {
            job: job.id,
            payload_summary: panic_summary(payload.as_ref()),
        }),
    }
}

fn process_job_inner(shared: &Shared, job: &QueuedJob) -> Result<JobOutcome, AtlasError> {
    let fault = &shared.fault;
    // Injected faults fire in a fixed priority order, so a job selected
    // by several sites still has exactly one deterministic outcome.
    if fault.should_inject(FaultSite::WorkerPanic, job.id) {
        panic!("injected fault: worker panic at job {}", job.id);
    }
    if fault.should_inject(FaultSite::ForceCancel, job.id) {
        job.cancel.cancel();
    }
    let forced_deadline = fault.should_inject(FaultSite::DeadlinePressure, job.id);
    let expired = || forced_deadline || job.deadline.is_some_and(|d| wall_now() >= d);
    if job.cancel.is_cancelled() {
        return Ok(JobOutcome::Cancelled);
    }
    if expired() {
        return Ok(JobOutcome::DeadlineExceeded);
    }
    let plan = plan_for(shared, &job.circuit, job.id)?;
    // Re-check after the (possibly long) planning phase; EXECUTE itself
    // re-checks at every stage barrier via the probe in `run_job`.
    if job.cancel.is_cancelled() {
        return Ok(JobOutcome::Cancelled);
    }
    if expired() {
        return Ok(JobOutcome::DeadlineExceeded);
    }
    if fault.should_inject(FaultSite::AllocFail, job.id) {
        // Model an admission-layer miss: the allocation this job would
        // have made is refused as if the budget were zero.
        return Err(AtlasError::ResourceExhausted {
            needed: shared
                .planner
                .config()
                .peak_bytes(job.circuit.num_qubits(), shared.planner.spec().local_qubits),
            budget: 0,
        });
    }
    run_job(&plan, &job.circuit, &job.request, &job.cancel, job.deadline)
}

/// Numeric request tag carried by `serve.job` span args.
fn request_kind(request: &JobRequest) -> u64 {
    match request {
        JobRequest::Plan => 0,
        JobRequest::Execute => 1,
        JobRequest::Sample { .. } => 2,
        JobRequest::Expect { .. } => 3,
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let rec = shared.planner.config().recorder.clone();
    loop {
        // Take the next job (or exit once shut down and drained).
        let job = {
            let mut sched = lock_clean(&shared.sched);
            loop {
                if sched.shutdown && sched.queued == 0 {
                    return;
                }
                if !sched.paused {
                    if let Some(job) = sched.dequeue() {
                        break job;
                    }
                }
                sched = shared
                    .job_ready
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.space_ready.notify_one();

        // Queue latency: submission → dispatch. Wall-clock, so det =
        // false (its duration and very presence depend on scheduling).
        rec.span(
            "serve.queue_wait",
            job.submitted,
            false,
            0,
            0,
            job.id as u32,
            &[],
        );
        let job_t = rec.start();
        let result = process_job(shared, &job);
        let outcome = match &result {
            Ok(JobOutcome::Output(_)) => 0u64,
            Ok(JobOutcome::Cancelled) => 1,
            Ok(JobOutcome::DeadlineExceeded) => 3,
            Err(AtlasError::JobPanicked { .. }) => 4,
            Err(_) => 2,
        };
        // `ord` is the pool-assigned job id (submission order), so the
        // span multiset is identical for every worker count.
        rec.span(
            "serve.job",
            job_t,
            true,
            0,
            0,
            job.id as u32,
            &[("kind", request_kind(&job.request)), ("outcome", outcome)],
        );
        rec.flush();
        match &result {
            Ok(JobOutcome::Output(_)) => &shared.jobs_completed,
            Ok(JobOutcome::Cancelled) => &shared.jobs_cancelled,
            Ok(JobOutcome::DeadlineExceeded) => &shared.jobs_deadline_exceeded,
            Err(AtlasError::JobPanicked { .. }) => &shared.jobs_panicked,
            Err(_) => &shared.jobs_failed,
        }
        .fetch_add(1, Ordering::Relaxed);
        // Republish this worker's thread-local scratch-memo totals
        // (monotonic, so a plain store is enough).
        let totals =
            scratch::with_thread(|s| [s.table_hits(), s.table_misses(), s.table_evictions()]);
        for (cell, v) in shared.scratch_totals[slot].iter().zip(totals) {
            cell.store(v, Ordering::Relaxed);
        }
        // The submitter may have dropped its handle; that's fine.
        let _ = job.tx.send(result);

        let mut sched = lock_clean(&shared.sched);
        sched.in_flight -= 1;
        if sched.queued == 0 && sched.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators;

    /// A pool whose one worker never gets a job: the tests drive
    /// `lookup`/`plan_for` on its shared state directly.
    fn idle_pool() -> SessionPool {
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 5,
        };
        let cfg = AtlasConfig {
            threads: 1,
            ..AtlasConfig::default()
        };
        SessionPool::new(spec, CostModel::default(), cfg, ServeConfig::default()).unwrap()
    }

    /// `(hits, misses, parked)`.
    fn counts(shared: &Shared) -> (u64, u64, usize) {
        let c = lock_clean(&shared.cache);
        (c.hits, c.misses, c.parked)
    }

    #[test]
    fn a_reservation_parks_only_its_own_key_and_a_freed_one_is_replanned() {
        let pool = idle_pool();
        let shared = &*pool.shared;
        let (a, b) = (generators::qaoa(8), generators::ghz(8));
        plan_for(shared, &b, 0).unwrap();
        let Lookup::Miss(reservation) = lookup(shared, CircuitFingerprint::of(&a), 1) else {
            panic!("A was never planned, so its lookup must miss");
        };
        // A cached key is served while A's plan is in flight.
        plan_for(shared, &b, 2).unwrap();
        assert_eq!(counts(shared), (1, 2, 0));

        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| plan_for(shared, &a, 3));
            // `parked` is raised under the lock the wait releases, so
            // once it reads 1 the waiter is asleep on `plan_ready`.
            let mut polls = 0;
            while counts(shared).2 == 0 {
                polls += 1;
                assert!(polls < 60_000, "the lookup of A never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            // Freed without a plan: the parked job re-enters from the top
            // and plans A itself.
            drop(reservation);
            let plan = waiter.join().unwrap().expect("the woken job plans A");
            assert_eq!(plan.plan().n, 8);
        });
        assert_eq!(counts(shared), (1, 3, 0), "one more miss, and no hit");
        let cache = lock_clean(&shared.cache);
        assert_eq!(cache.ready_len(), 2);
        assert!(matches!(
            cache.map.get(&CircuitFingerprint::of(&a)),
            Some(Slot::Ready(..))
        ));
    }
}
