//! Zero-allocation guarantee of the steady-state execution hot path.
//!
//! A counting global allocator wraps the system allocator; each test warms
//! the relevant scratch state with one pass, snapshots the allocation
//! counter, repeats the identical work, and asserts the second pass
//! allocated **nothing** — kernels, shard programs, stage transitions
//! with their interconnect charge, and stage barriers with their offload
//! charge. (The clock's per-step ledger is a growing `Vec<StageTiming>`;
//! the machine tests warm it past the steps they measure, so only a
//! capacity doubling could show up there.)
//! PARTITION gets a budget instead of a zero: a whole `plan` call may
//! allocate at most once per two DP child states. So does building a
//! stage's shard programs, which allocates its output: a warm build may
//! allocate at most half as often as the per-pattern fusion it replaced.
//!
//! No stage transition allocates a block of a shard's size or more, cold
//! or warm: the counting allocator also records each thread's largest
//! request, and a fresh machine's first all-to-all is held under one shard.
//! A whole functional run with its measurements, and a noisy trajectory
//! sweep dispatched under `BackendKind::Auto`, ask for no block of that
//! size beyond their machines' own shards.
//!
//! The counters are **per thread**: the harness runs this binary's tests
//! concurrently, and a measured region on `Pool::SERIAL` executes on the
//! test's own thread, so a test counts exactly its own allocations however
//! many neighbours are allocating at the same time. The pooled tests mark
//! their two workers and read the workers' allocations from a counter only
//! marked threads feed; they take turns on [`POOLED`], so that counter
//! holds one test's workers at a time.

use atlas::circuit::generators;
use atlas::core::exec::build_stage_programs;
use atlas::core::noise::{self, Trajectories};
use atlas::machine::{Clock, CostModel, Machine, MachineSpec, ShardOp, ShardProgram};
use atlas::prelude::*;
use atlas::qmath::{Complex64, QubitPermutation};
use atlas::statevec::{
    apply_controlled_matrix, apply_kernel, apply_matrix, classify_kernel, fuse_gates, measure,
    scratch, simulate_reference, with_pool, FastKernel, Pool, Scratch, StateVector,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

thread_local! {
    // `const` initializers and no destructors: reading or bumping these
    // from inside the allocator never allocates and never touches
    // torn-down thread-local state.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// `(floor, count)`: requests of at least `floor` bytes.
    static BLOCKS: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
    static MARKED_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by threads marked with [`mark_pool_workers`].
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The largest request a marked thread made since it was last reset.
static WORKER_LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Held by a test while it counts [`WORKER_ALLOCS`].
static POOLED: Mutex<()> = Mutex::new(());

/// Waits for this test's turn on [`POOLED`]; a neighbour that failed while
/// holding it does not fail this test too.
fn take_turn() -> MutexGuard<'static, ()> {
    POOLED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts one allocation of `size` bytes against the calling thread.
fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|m| m.set(m.get().max(size)));
    BLOCKS.with(|b| {
        let (floor, n) = b.get();
        if size >= floor {
            b.set((floor, n + 1));
        }
    });
    if MARKED_WORKER.with(Cell::get) {
        WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        WORKER_LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's `realloc` contract, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The calling thread's largest request since the previous call.
fn take_largest() -> usize {
    LARGEST.with(|m| m.replace(0))
}

/// Restarts the calling thread's count of requests of at least `floor`
/// bytes.
fn count_blocks_from(floor: usize) {
    BLOCKS.with(|b| b.set((floor, 0)));
}

/// The calling thread's requests of at least the floor since
/// [`count_blocks_from`].
fn blocks() -> u64 {
    BLOCKS.with(|b| b.get().1)
}

/// Runs `f` once on each worker of a two-thread `pool`: its two items wait
/// for each other, so each worker must take exactly one.
fn on_each_worker(pool: &Pool, f: &(dyn Fn() + Sync)) {
    assert_eq!(pool.threads(), 2);
    let both = Barrier::new(2);
    pool.run(2, &|_| {
        f();
        both.wait();
    });
}

/// Marks every worker of a two-thread `pool`.
fn mark_pool_workers(pool: &Pool) {
    on_each_worker(pool, &|| MARKED_WORKER.with(|m| m.set(true)));
}

fn dense_state(n: u32) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q).rz(0.1 * (q + 1) as f64, q);
    }
    simulate_reference(&c)
}

#[test]
fn warm_scratch_apply_layer_allocates_nothing() {
    let n = 12u32;
    let mut sv = dense_state(n);
    let mut scratch = Scratch::new();

    // One fused kernel per structural class, plus raw dense applies over
    // every dispatch layout (unrolled 1q/2q; the lane-blocked sweep on a
    // low window, strided, and at k = 6, its widest planes here).
    let dense_qs: Vec<Vec<u32>> = vec![
        vec![0],
        vec![7],
        vec![0, 1],
        vec![5, 2],
        vec![0, 1, 2],
        vec![2, 0, 1],
        vec![1, 5, 9],
        vec![8, 3, 6, 11],
        vec![10, 0, 4, 7, 2, 9],
    ];
    let mats: Vec<(Vec<u32>, atlas::qmath::Matrix)> = dense_qs
        .iter()
        .map(|qs| {
            let mut kc = Circuit::new(n);
            for (i, &q) in qs.iter().enumerate() {
                kc.h(q).rz(0.2 + i as f64, q);
                if i > 0 {
                    kc.cx(qs[i - 1], q);
                }
            }
            (qs.clone(), fuse_gates(qs, kc.gates()))
        })
        .collect();

    let mut diag_c = Circuit::new(n);
    diag_c.t(1).cp(0.7, 1, 3).rz(0.3, 3);
    let diag_kernel = classify_kernel(&fuse_gates(&[1, 3], diag_c.gates()));
    let mut perm_c = Circuit::new(n);
    perm_c.cx(2, 6).x(6).swap(2, 9);
    let perm_kernel = classify_kernel(&fuse_gates(&[2, 6, 9], perm_c.gates()));
    let ctrl_kernel = classify_kernel(&GateKind::CRY(0.8).matrix());
    // A controlled kernel whose two-target block goes through the sweep,
    // and a k = 5 diagonal (scaled into a pooled buffer).
    let ctrl2_matrix = GateKind::RXX(0.8).matrix();
    let mut diag5_c = Circuit::new(n);
    diag5_c
        .cp(0.4, 0, 3)
        .rz(0.9, 5)
        .cp(1.1, 5, 8)
        .t(11)
        .cp(0.2, 8, 11);
    let diag5_kernel = classify_kernel(&fuse_gates(&[0, 3, 5, 8, 11], diag5_c.gates()));
    assert!(matches!(diag5_kernel, FastKernel::Diagonal(_)));
    let mut dense_c = Circuit::new(n);
    dense_c.h(1).cx(1, 4).h(4);
    let dense_kernel = classify_kernel(&fuse_gates(&[1, 4], dense_c.gates()));

    let scale = Complex64::cis(0.37);

    let pass = |scratch: &mut Scratch, sv: &mut StateVector| {
        for (qs, m) in &mats {
            apply_matrix(scratch, sv.amplitudes_mut(), qs, m, &Pool::SERIAL);
        }
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[1, 3],
            &diag_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[2, 6, 9],
            &perm_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[5, 10],
            &ctrl_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[1, 4],
            &dense_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_controlled_matrix(
            scratch,
            sv.amplitudes_mut(),
            &[3],
            &[9, 6],
            &ctrl2_matrix,
            &Pool::SERIAL,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[0, 3, 5, 8, 11],
            &diag5_kernel,
            scale,
            &Pool::SERIAL,
        );
    };

    // Warm-up pass populates the arena (tables, pooled buffers).
    pass(&mut scratch, &mut sv);
    let misses = scratch.table_misses();

    let before = allocs();
    pass(&mut scratch, &mut sv);
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state apply layer performed {delta} heap allocations"
    );
    // Every qubit set was served from the memoized tables.
    assert_eq!(scratch.table_misses(), misses);
    assert!(scratch.table_hits() > 0);
}

/// Self-inverse transitions on a 10-qubit, L = 7 machine, one per mover
/// path: an exchange of a local bit with a shard bit in runs of 16, two
/// in tiles (local bit 2, local bit 0), a shard-local round, and a pure
/// shard relabel.
fn relayout_perms(n: u32) -> Vec<QubitPermutation> {
    [(4, 8), (2, 8), (0, 8), (0, 3), (8, 9)]
        .into_iter()
        .map(|(a, b)| {
            let mut map: Vec<u32> = (0..n).collect();
            map.swap(a, b);
            QubitPermutation::from_map(map)
        })
        .collect()
}

/// Applies every transition of `perms` twice, restoring the layout: each
/// one charged to `clock` and moved on `machine`, as the executor does.
fn relayout_round(
    clock: &mut Clock,
    machine: &mut Machine,
    perms: &[QubitPermutation],
    pool: &Pool,
) {
    for perm in perms {
        for _ in 0..2 {
            let step = clock.num_steps();
            clock.charge_permute(perm, 0);
            machine.permute_state(perm, 0, step, pool);
        }
    }
}

/// Charges `programs`' kernels to `clock`, shard by shard.
fn charge_programs(clock: &mut Clock, programs: &[ShardProgram]) {
    for (s, prog) in programs.iter().enumerate() {
        for op in prog {
            match op {
                ShardOp::Fusion { qubits, .. } => clock.charge_fusion(s, qubits.len() as u32),
                ShardOp::ShmParts { .. } => clock.charge_shm(s, 1.0),
                ShardOp::Scale(_) => {}
            }
        }
    }
}

/// A clock and a machine holding `state` on `spec`.
fn clock_and_machine(spec: MachineSpec, state: &StateVector) -> (Clock, Machine) {
    let clock = Clock::new(spec, CostModel::default(), state.num_qubits());
    (clock, Machine::with_state(spec, state))
}

#[test]
fn warm_machine_execute_and_relayout_allocate_no_buffers() {
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let (mut clock, mut machine) = clock_and_machine(spec, &reference);

    let h = Gate::new(GateKind::H, &[1]).matrix();
    let cp = Gate::new(GateKind::CP(0.6), &[0, 2]).matrix();
    let shm_parts: Arc<Vec<(Vec<u32>, atlas::qmath::Matrix)>> = Arc::new(vec![
        (vec![3u32], GateKind::T.matrix()),
        (vec![0u32, 4], GateKind::CP(0.3).matrix()),
    ]);
    let programs: Vec<ShardProgram> = (0..machine.num_shards())
        .map(|_| {
            vec![
                ShardOp::Fusion {
                    qubits: Arc::new(vec![1]),
                    kernel: Arc::new(classify_kernel(&h)),
                    scale: Complex64::cis(0.21),
                },
                ShardOp::Fusion {
                    qubits: Arc::new(vec![0, 2]),
                    kernel: Arc::new(classify_kernel(&cp)),
                    scale: Complex64::ONE,
                },
                ShardOp::ShmParts {
                    parts: shm_parts.clone(),
                    scale: Complex64::cis(0.11),
                },
                ShardOp::Scale(Complex64::cis(0.05)),
            ]
        })
        .collect();

    let perms = relayout_perms(n);
    // 8 shards on 4 GPUs: the barrier charges DRAM-offload swaps, so its
    // per-GPU shard count runs.
    assert!(spec.offloading(n));
    // Warm-up: the first program run builds the thread-local arena, the
    // first rounds allocate the shard-pointer and handle vectors. Four
    // rounds of 10 transitions and a barrier leave 44 steps in the clock
    // ledger (capacity 64), so the measured round's 11 fit without growing
    // it.
    charge_programs(&mut clock, &programs);
    machine.run_shard_programs(&programs, 0, &Pool::SERIAL);
    for _ in 0..4 {
        relayout_round(&mut clock, &mut machine, &perms, &Pool::SERIAL);
        clock.stage_barrier();
    }

    let before = allocs();
    charge_programs(&mut clock, &programs);
    machine.run_shard_programs(&programs, clock.num_steps(), &Pool::SERIAL);
    let kernel_delta = allocs() - before;
    let before = allocs();
    relayout_round(&mut clock, &mut machine, &perms, &Pool::SERIAL);
    clock.stage_barrier();
    let relayout_delta = allocs() - before;
    assert_eq!(
        kernel_delta, 0,
        "steady-state shard-program execution and its charge performed \
         {kernel_delta} heap allocations"
    );
    assert_eq!(
        relayout_delta, 0,
        "steady-state relayout, its charge and the stage barrier performed \
         {relayout_delta} heap allocations"
    );

    // And the engine still computes the right amplitudes.
    assert!(machine.gather_state().is_normalized(1e-9));
}

#[test]
fn enabled_recorder_steady_state_records_without_allocating() {
    // The telemetry contract: attaching a live recorder keeps the warm
    // execution hot path at ZERO heap allocations — events go into
    // fixed-capacity thread-local buffers and drain into a pre-reserved
    // sink, and metric republication only updates counter slots the
    // warm-up pass created; relayout records its spans the same way.
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let (mut clock, mut machine) = clock_and_machine(spec, &reference);
    let recorder = Recorder::enabled();
    clock.set_recorder(recorder.clone());
    machine.set_recorder(recorder.clone());

    let h = Gate::new(GateKind::H, &[1]).matrix();
    let programs: Vec<ShardProgram> = (0..machine.num_shards())
        .map(|_| {
            vec![ShardOp::Fusion {
                qubits: Arc::new(vec![1]),
                kernel: Arc::new(classify_kernel(&h)),
                scale: Complex64::ONE,
            }]
        })
        .collect();
    let perms = relayout_perms(n);

    // Warm-up: builds the scratch arena, the recorder's thread-local
    // event buffer, the metric registry's counter slots, the shard-pointer
    // and handle vectors, and a clock ledger with room for the measured
    // round.
    machine.run_shard_programs(&programs, 0, &Pool::SERIAL);
    for _ in 0..4 {
        relayout_round(&mut clock, &mut machine, &perms, &Pool::SERIAL);
        clock.stage_barrier();
    }

    let before = allocs();
    machine.run_shard_programs(&programs, clock.num_steps(), &Pool::SERIAL);
    relayout_round(&mut clock, &mut machine, &perms, &Pool::SERIAL);
    clock.stage_barrier();
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "recording-enabled steady state performed {delta} heap allocations"
    );

    // The measured region really recorded: every second-pass event is in
    // the sink (nothing overflowed), alongside the warm-up pass's.
    assert_eq!(recorder.dropped(), 0);
    let events = recorder.drain();
    let kernel_spans = events.iter().filter(|e| e.name == "kernel.apply").count();
    let steps = events.iter().filter(|e| e.name == "machine.step").count();
    assert_eq!(kernel_spans, 2 * machine.num_shards());
    // Every round: two transitions per permutation, then a barrier.
    assert_eq!(steps, 5 * (2 * perms.len() + 1));
}

#[test]
fn warm_pooled_relayout_allocates_nothing() {
    // Inside one pool scope the move runs on the workers, so their
    // allocations count as well as the submitting thread's.
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let (mut clock, mut machine) = clock_and_machine(spec, &reference);
    let perms = relayout_perms(n);
    let _turn = take_turn();
    with_pool(2, |pool| {
        mark_pool_workers(pool);
        // Four rounds of 10 transitions leave the clock ledger at 40 steps
        // (capacity 64): the measured round's 10 fit without growing it.
        for _ in 0..4 {
            relayout_round(&mut clock, &mut machine, &perms, pool);
        }
        let before = (allocs(), WORKER_ALLOCS.load(Ordering::Relaxed));
        relayout_round(&mut clock, &mut machine, &perms, pool);
        let main = allocs() - before.0;
        let workers = WORKER_ALLOCS.load(Ordering::Relaxed) - before.1;
        assert_eq!(
            (main, workers),
            (0, 0),
            "warm pooled relayout: allocations on the (submitting thread, workers)"
        );
    });
    let want = Machine::with_state(spec, &reference);
    assert_eq!(machine.gather_state(), want.gather_state());
}

#[test]
fn first_cross_shard_transition_allocates_no_amplitude_sized_block() {
    // A fresh machine's first all-to-all, serially and on a two-worker
    // pool: the exchange moves the state in place, so no thread asks for
    // a block of a shard's size — where a twin of the state would be one
    // such block per shard.
    let n = 14u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 11,
    };
    let shard_bytes = std::mem::size_of::<Complex64>() << spec.local_qubits;
    let reference = dense_state(n);
    // Local bits 0 and 5 trade places with shard bits 13 and 11.
    let mut map: Vec<u32> = (0..n).collect();
    map.swap(0, 13);
    map.swap(5, 11);
    let perm = QubitPermutation::from_map(map);

    let mut machine = Machine::with_state(spec, &reference);
    take_largest();
    machine.permute_state(&perm, 0, 0, &Pool::SERIAL);
    let serial = take_largest();
    assert!(
        serial < shard_bytes,
        "the first serial transition asked for {serial} bytes at once (a shard is {shard_bytes})"
    );

    let _turn = take_turn();
    let mut machine = Machine::with_state(spec, &reference);
    with_pool(2, |pool| {
        mark_pool_workers(pool);
        WORKER_LARGEST.store(0, Ordering::Relaxed);
        take_largest();
        machine.permute_state(&perm, 0, 0, pool);
        let largest = (take_largest(), WORKER_LARGEST.load(Ordering::Relaxed));
        assert!(
            largest.0.max(largest.1) < shard_bytes,
            "the first pooled transition's largest requests (submitting thread, workers): \
             {largest:?} bytes (a shard is {shard_bytes})"
        );
    });
    let mut scatter = Machine::with_state(spec, &reference);
    scatter.permute_state_scatter(&perm, 0);
    assert_eq!(machine.gather_state(), scatter.gather_state());
}

#[test]
fn functional_run_and_measurements_allocate_no_block_beyond_the_shards() {
    // Two serial workloads on one 2 × 2, L = 15 machine: a whole EXECUTE —
    // its transitions and the final move back to the logical layout — then
    // `sample`, `top` and `expectation`; and a noisy non-Clifford
    // trajectory sweep dispatched by `plan_backend` under `Auto`. Each
    // machine's own shards are its only requests of a shard's size: the
    // end move stays in place, nothing gathers the state, and no dense
    // state is built outside the sharded engine.
    let circuit = Family::Su2Random.generate(17);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 15,
    };
    let shard_bytes = std::mem::size_of::<Complex64>() << spec.local_qubits;
    let shards = spec.num_shards(circuit.num_qubits()) as u64;
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(&circuit).unwrap();
    let last = &compiled.plan().stages.last().unwrap().mapping;
    assert!(
        last.iter()
            .enumerate()
            .any(|(q, &p)| (q as u32 >= spec.local_qubits) != (p >= spec.local_qubits)),
        "the final move must exchange shard bits"
    );
    let zz: PauliString = "ZIIIIIIIIIIIIIIIZ".parse().unwrap();
    let xy: PauliString = "XIIIIIIIYIIIIIIIZ".parse().unwrap();
    let template = noise::noisy_template(&generators::qaoa(17));
    let noisy = planner.plan_backend(&template).unwrap();
    let sweep = Trajectories::new(0.05, 2, 3).unwrap();

    // Each case returns how many machines it filled.
    let execute = || {
        let run = compiled.execute(&circuit).unwrap();
        let samples = run.measurements.sample(64, 7);
        let top = run.measurements.top(8);
        let expect = [&zz, &xy].map(|p| run.measurements.expectation(p));
        assert_eq!((samples.len(), top.len()), (64, 8));
        assert!(expect.iter().all(|e| e.abs() <= 1.0 + 1e-9));
        assert_eq!(run.measurements.machine().num_shards() as u64, shards);
        1
    };
    let noisy_sweep = || {
        let outcome = sweep.run(&noisy, &template, 32).unwrap();
        assert_eq!(outcome.counts.iter().map(|(_, c)| c).sum::<u64>(), 32);
        outcome.trajectories as u64
    };
    let cases: [(&str, &dyn Fn() -> u64); 2] =
        [("execute", &execute), ("noisy auto sweep", &noisy_sweep)];
    for (name, case) in cases {
        take_largest();
        count_blocks_from(shard_bytes);
        let machines = case();
        let (largest, blocks) = (take_largest(), blocks());
        assert_eq!(
            (largest, blocks),
            (shard_bytes, machines * shards),
            "{name}: (largest request, requests of a shard's size or more) of its \
             {machines} run(s) and their measurements; a shard is {shard_bytes} bytes \
             and a machine has {shards}"
        );
    }
}

#[test]
fn warm_pooled_kernels_and_reduction_allocate_nothing() {
    // The intra-shard path: one 2^16-amplitude shard, above both work
    // cutoffs, so each kernel below splits its groups (or elements) over
    // the pool's workers, and a reduction runs its 16 chunks on them.
    let n = 16u32;
    let mut sv = dense_state(n);
    let dense_qs = [1u32, 5, 9];
    let mut dense_c = Circuit::new(n);
    dense_c.h(1).cx(1, 5).h(5).cx(5, 9).rz(0.4, 9).h(9);
    let dense_m = fuse_gates(&dense_qs, dense_c.gates());
    let perm_qs = [2u32, 6, 9];
    let mut perm_c = Circuit::new(n);
    perm_c.cx(2, 6).x(6).swap(2, 9);
    let perm_kernel = classify_kernel(&fuse_gates(&perm_qs, perm_c.gates()));
    assert!(matches!(perm_kernel, FastKernel::Permutation { .. }));
    let diag_qs = [0u32, 3, 5, 8, 11];
    let mut diag_c = Circuit::new(n);
    diag_c.cp(0.4, 0, 3).rz(0.9, 5).cp(1.1, 5, 8).t(11);
    let diag_kernel = classify_kernel(&fuse_gates(&diag_qs, diag_c.gates()));
    assert!(matches!(diag_kernel, FastKernel::Diagonal(_)));
    let scale = Complex64::cis(0.37);

    // A dense k = 3 sweep, a strided permutation (runs of 4 groups) and a
    // scaled diagonal.
    let pass = |scratch: &mut Scratch, sv: &mut StateVector, pool: &Pool| {
        apply_matrix(scratch, sv.amplitudes_mut(), &dense_qs, &dense_m, pool);
        let one = Complex64::ONE;
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &perm_qs,
            &perm_kernel,
            one,
            pool,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &diag_qs,
            &diag_kernel,
            scale,
            pool,
        );
    };

    let _turn = take_turn();
    with_pool(2, |pool| {
        mark_pool_workers(pool);
        // Warm-up: the caller's tables and pooled buffers, then each
        // worker's buffers, whichever ranges it draws later.
        let mut scratch = Scratch::new();
        pass(&mut scratch, &mut sv, pool);
        on_each_worker(pool, &|| {
            scratch::with_thread(|s| pass(s, &mut sv.clone(), &Pool::SERIAL));
        });
        let before = (allocs(), WORKER_ALLOCS.load(Ordering::Relaxed));
        pass(&mut scratch, &mut sv, pool);
        let kernels = (
            allocs() - before.0,
            WORKER_ALLOCS.load(Ordering::Relaxed) - before.1,
        );
        assert_eq!(
            kernels,
            (0, 0),
            "warm pooled kernels: allocations on the (submitting thread, workers)"
        );

        // The result vector is the caller's; the chunks allocate nothing.
        let serial = measure::chunk_norms(sv.amplitudes(), &Pool::SERIAL);
        assert_eq!(measure::chunk_norms(sv.amplitudes(), pool), serial);
        let before = WORKER_ALLOCS.load(Ordering::Relaxed);
        let norms = measure::chunk_norms(sv.amplitudes(), pool);
        let workers = WORKER_ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            workers, 0,
            "a warm pooled reduction allocated on the workers"
        );
        assert_eq!(norms.len(), 16);
    });
}

#[test]
fn warm_coalesced_programs_allocate_nothing() {
    // su2random's CX ladders: every stage's programs coalesce permutation
    // runs into relabel passes over unions of up to 9 local qubits. Warm,
    // they run with zero allocations, serially and on a two-worker pool
    // (8 shards: one pool item per shard, each on its worker's arena).
    let n = 12u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 9,
    };
    let circuit = Family::Su2Random.generate(n);
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(&circuit).expect("su2random plans");
    let plan = compiled.plan();
    let shards = spec.num_shards(n);
    let stages: Vec<Vec<ShardProgram>> = plan
        .stages
        .iter()
        .map(|sp| build_stage_programs(&circuit, sp, plan.l, shards))
        .collect();
    let relabels = stages
        .iter()
        .flatten()
        .flatten()
        .filter(|op| {
            matches!(op, ShardOp::Fusion { kernel, .. }
                if matches!(**kernel, FastKernel::Relabel { .. }))
        })
        .count();
    assert!(relabels > 0, "su2random n={n} coalesced nothing");
    let reference = dense_state(n);
    let mut machine = Machine::with_state(spec, &reference);
    let run_all = |machine: &mut Machine, pool: &Pool| {
        for programs in &stages {
            machine.run_shard_programs(programs, 0, pool);
        }
    };

    run_all(&mut machine, &Pool::SERIAL);
    let before = allocs();
    run_all(&mut machine, &Pool::SERIAL);
    let serial = allocs() - before;
    assert_eq!(serial, 0, "warm serial coalesced programs allocated");

    let _turn = take_turn();
    with_pool(2, |pool| {
        mark_pool_workers(pool);
        // Warm every worker's arena on every program, whichever shards it
        // draws later.
        on_each_worker(pool, &|| {
            let mut shard = vec![Complex64::ZERO; 1 << spec.local_qubits];
            scratch::with_thread(|s| {
                for op in stages.iter().flatten().flatten() {
                    if let ShardOp::Fusion {
                        qubits,
                        kernel,
                        scale,
                    } = op
                    {
                        apply_kernel(s, &mut shard, qubits, kernel, *scale, &Pool::SERIAL);
                    }
                }
            });
        });
        run_all(&mut machine, pool);
        let before = (allocs(), WORKER_ALLOCS.load(Ordering::Relaxed));
        run_all(&mut machine, pool);
        let pooled = (
            allocs() - before.0,
            WORKER_ALLOCS.load(Ordering::Relaxed) - before.1,
        );
        assert_eq!(
            pooled,
            (0, 0),
            "warm pooled coalesced programs: allocations on the (submitting thread, workers)"
        );
    });
}

#[test]
fn planning_allocates_less_than_once_per_two_dp_children() {
    // The KERNELIZE DP dominates PARTITION and builds its child states in
    // reused buffers; what it costs is then hashing and copying, not
    // `malloc`. The bound is on the whole `plan` call, per child state
    // reported by the `plan.kernelize` span's exact counter: staging, the
    // per-item map and each stage's warm-up fit well inside 0.5 (measured
    // 0.07), while one allocation per child creeping back in costs 1.0
    // (a cloned state, key and remap per child cost 13.6).
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 13,
    };
    let recorder = Recorder::enabled();
    let cfg = AtlasConfig {
        recorder: recorder.clone(),
        ..AtlasConfig::default()
    };
    let planner = Planner::new(spec, CostModel::default(), cfg);
    let circuit = Family::Su2Random.generate(16);

    let before = allocs();
    let plan = planner.plan(&circuit).expect("su2random plans");
    let spent = allocs() - before;

    let children: u64 = recorder
        .drain()
        .iter()
        .filter(|e| e.name == "plan.kernelize")
        .flat_map(|e| e.args().iter())
        .filter(|(name, _)| *name == "dp_children")
        .map(|&(_, v)| v)
        .sum();
    assert!(plan.num_stages() > 1 && children > 50_000, "{children}");
    assert!(
        2 * spent <= children,
        "planning performed {spent} heap allocations for {children} DP children"
    );
}

#[test]
fn warm_program_build_allocates_half_as_often_as_per_pattern_fusion() {
    // A `serve16` cache hit: vqc n = 16 on 2×2 GPUs, L = 11 (32 shards,
    // 3 stages). Fusing once per pattern by expand-and-multiply made
    // 36 321 allocations for one build of all stages: an expansion, its
    // position list and a product per gate per pattern. Prefix sharing and
    // row updates into reused buffers leave the reduced gate matrices, the
    // classified kernels and the programs themselves: 9 452.
    const PER_PATTERN_FUSION: u64 = 36_321;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 11,
    };
    let circuit = Family::Vqc.generate(16);
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(&circuit).expect("vqc plans");
    let plan = compiled.plan();
    let shards = spec.num_shards(circuit.num_qubits());
    let build = || {
        for sp in &plan.stages {
            drop(build_stage_programs(&circuit, sp, plan.l, shards));
        }
    };
    build();
    let before = allocs();
    build();
    let spent = allocs() - before;
    assert!(
        2 * spent <= PER_PATTERN_FUSION,
        "a warm build of vqc n=16 performed {spent} heap allocations \
         (per-pattern fusion: {PER_PATTERN_FUSION})"
    );
}
