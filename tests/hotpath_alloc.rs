//! Zero-allocation guarantee of the steady-state execution hot path.
//!
//! A counting global allocator wraps the system allocator; each test warms
//! the relevant scratch state with one pass, snapshots the allocation
//! counter, repeats the identical work, and asserts the second pass
//! allocated **nothing** (kernel level) or nothing amplitude-sized
//! (machine level, where per-step clock bookkeeping may grow a tiny
//! `Vec<StageTiming>`). PARTITION gets a budget instead of a zero: a whole
//! `plan` call may allocate at most once per two DP child states.
//!
//! The counters are **per thread**: the harness runs this binary's tests
//! concurrently, and every measured region executes on the test's own
//! thread (`Pool::SERIAL` and `threads == 1` kernels run inline), so a
//! test counts exactly its own allocations however many neighbours are
//! allocating at the same time.

use atlas::machine::{CostModel, Machine, MachineSpec, ShardOp, ShardProgram};
use atlas::prelude::*;
use atlas::qmath::{Complex64, QubitPermutation};
use atlas::statevec::{
    apply_controlled_matrix, apply_kernel, apply_matrix, classify_kernel, fuse_gates,
    simulate_reference, FastKernel, Pool, Scratch, StateVector,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Threshold above which an allocation counts as "large" (amplitude-buffer
/// sized, as opposed to clock-bookkeeping noise).
const LARGE: usize = 4096;

struct CountingAlloc;

thread_local! {
    // `const` initializers and no destructors: reading or bumping these
    // from inside the allocator never allocates and never touches
    // torn-down thread-local state.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes against the calling thread.
fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if size >= LARGE {
        LARGE_ALLOCS.with(|c| c.set(c.get() + 1));
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

/// Amplitude-sized allocations made so far by the calling thread.
fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
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
            apply_matrix(scratch, sv.amplitudes_mut(), qs, m, 1);
        }
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[1, 3],
            &diag_kernel,
            scale,
            1,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[2, 6, 9],
            &perm_kernel,
            scale,
            1,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[5, 10],
            &ctrl_kernel,
            scale,
            1,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[1, 4],
            &dense_kernel,
            scale,
            1,
        );
        apply_controlled_matrix(
            scratch,
            sv.amplitudes_mut(),
            &[3],
            &[9, 6],
            &ctrl2_matrix,
            1,
        );
        apply_kernel(
            scratch,
            sv.amplitudes_mut(),
            &[0, 3, 5, 8, 11],
            &diag5_kernel,
            scale,
            1,
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

#[test]
fn warm_machine_execute_and_relayout_allocate_no_buffers() {
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let mut machine = Machine::with_state(spec, CostModel::default(), &reference);

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
                    per_amp_ns: 1.0,
                    scale: Complex64::cis(0.11),
                },
                ShardOp::Scale(Complex64::cis(0.05)),
            ]
        })
        .collect();

    let mut map: Vec<u32> = (0..n).collect();
    map.swap(2, 8); // crosses the shard boundary → general ping-pong path
    let perm = QubitPermutation::from_map(map);

    // Warm-up: first program run builds the thread-local arena, first
    // permute allocates the ping-pong spare.
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0); // back to the original layout

    let before_large = large_allocs();
    let before_all = allocs();
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    let kernel_delta = allocs() - before_all;
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    machine.stage_barrier();
    let large_delta = large_allocs() - before_large;
    assert_eq!(
        kernel_delta, 0,
        "steady-state shard-program execution performed {kernel_delta} heap allocations"
    );
    assert_eq!(
        large_delta, 0,
        "steady-state relayout allocated {large_delta} amplitude-sized buffers"
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
    // warm-up pass created. Relayout keeps the same bar as the
    // recorder-off test above: no amplitude-sized buffers.
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let mut machine = Machine::with_state(spec, CostModel::default(), &reference);
    let recorder = Recorder::enabled();
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
    let mut map: Vec<u32> = (0..n).collect();
    map.swap(2, 8);
    let perm = QubitPermutation::from_map(map);

    // Warm-up: builds the scratch arena, the recorder's thread-local
    // event buffer, and the metric registry's counter slots.
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    machine.stage_barrier();

    let before_large = large_allocs();
    let before = allocs();
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    let kernel_delta = allocs() - before;
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    let large_delta = large_allocs() - before_large;
    assert_eq!(
        kernel_delta, 0,
        "recording-enabled steady state performed {kernel_delta} heap allocations"
    );
    assert_eq!(
        large_delta, 0,
        "recording-enabled relayout allocated {large_delta} amplitude-sized buffers"
    );

    // The measured region really recorded: every second-pass event is in
    // the sink (nothing overflowed), alongside the warm-up pass's.
    assert_eq!(recorder.dropped(), 0);
    let events = recorder.drain();
    let kernel_spans = events.iter().filter(|e| e.name == "kernel.apply").count();
    let reshuffles = events
        .iter()
        .filter(|e| e.name == "machine.reshuffle")
        .count();
    assert_eq!(kernel_spans, 2 * machine.num_shards());
    assert_eq!(reshuffles, 4);
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
