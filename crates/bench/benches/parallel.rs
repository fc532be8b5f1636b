//! Parallel-execution-engine benchmark: a dense 5-qubit fused unitary
//! applied to a 24-qubit amplitude array via `apply_matrix` (the
//! intra-shard path), on a pool of 1 thread vs 8 threads. The pool is
//! spawned once per thread count, outside the timed region, as `EXECUTE`
//! spawns it once per run.
//!
//! The end-to-end view of thread scaling is `e2ebench`'s `dense22`
//! workload, which reports `bench.threads` and `host.cpus` with every
//! run; this target keeps only the kernel-level criterion group.

use atlas_circuit::Circuit;
use atlas_statevec::{apply_gate, apply_matrix, fuse_gates, scratch, with_pool, Pool, StateVector};
use criterion::{criterion_group, criterion_main, Criterion};

const N: u32 = 24; // 2^24 amplitudes = 256 MiB of state

fn dense_state() -> StateVector {
    let mut c = Circuit::new(N);
    for q in 0..N {
        c.h(q);
        c.rz(0.1 * (q + 1) as f64, q);
    }
    let mut sv = StateVector::zero_state(N);
    for g in c.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}

fn fused_k5() -> (Vec<u32>, atlas_qmath::Matrix) {
    let qubits: Vec<u32> = (0..5).map(|i| i * 3 + 1).collect();
    let mut kc = Circuit::new(N);
    for (i, &q) in qubits.iter().enumerate() {
        kc.h(q);
        if i > 0 {
            kc.cx(qubits[i - 1], q);
        }
    }
    (qubits.clone(), fuse_gates(&qubits, kc.gates()))
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    let (qubits, fused) = fused_k5();
    for threads in [1usize, 8] {
        let base = dense_state();
        with_pool(threads, |pool| {
            g.bench_function(format!("fused_k5_24q_t{threads}"), |b| {
                b.iter_batched_ref(
                    || base.clone(),
                    |sv| apply_fused(sv, &qubits, &fused, pool),
                    criterion::BatchSize::LargeInput,
                )
            });
        });
    }
    // What a split kernel pays to reach parked workers, which the work
    // cutoffs of `atlas_statevec::apply` weigh against: 1000 `run`s of two
    // empty items on a two-thread pool (divide the time by 1000).
    with_pool(2, |pool| {
        g.bench_function("pool_dispatch_x1000_t2", |b| {
            b.iter(|| (0..1000).for_each(|_| pool.run(2, &|_| {})))
        });
    });
    g.finish();
}

/// The dense fused apply split over `pool`, with the calling thread's
/// scratch arena.
fn apply_fused(sv: &mut StateVector, qubits: &[u32], fused: &atlas_qmath::Matrix, pool: &Pool) {
    scratch::with_thread(|s| apply_matrix(s, sv.amplitudes_mut(), qubits, fused, pool));
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
