//! Criterion micro-benchmarks backing the cost-model constants: the CPU
//! analogues of the kernels the simulated machine charges for. These
//! demonstrate the cost *structure* the model encodes — fusion kernels
//! flat up to ~5 qubits then exponential, one state pass per gate when
//! nothing is fused, permutation/all-to-all costs — and measure
//! the planner's own throughput (staging + kernelization preprocessing).

use atlas_circuit::generators::Family;
use atlas_circuit::{Circuit, Gate, GateKind};
use atlas_core::config::AtlasConfig;
use atlas_core::kernelize::{self, KGate, KernelCost};
use atlas_machine::CostModel;
use atlas_qmath::QubitPermutation;
use atlas_statevec::{apply_gate, apply_matrix, fuse_gates, scratch, Pool, StateVector};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const N: u32 = 18; // 2^18 amplitudes = 4 MiB of state per run

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

fn bench_statevec(c: &mut Criterion) {
    let base = dense_state();
    let mut g = c.benchmark_group("statevec");
    g.sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    g.bench_function("apply_1q_h", |b| {
        b.iter_batched_ref(
            || base.clone(),
            |sv| apply_gate(sv.amplitudes_mut(), &Gate::new(GateKind::H, &[7])),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("apply_cx", |b| {
        b.iter_batched_ref(
            || base.clone(),
            |sv| apply_gate(sv.amplitudes_mut(), &Gate::new(GateKind::CX, &[3, 11])),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("apply_diag_cp", |b| {
        b.iter_batched_ref(
            || base.clone(),
            |sv| apply_gate(sv.amplitudes_mut(), &Gate::new(GateKind::CP(0.7), &[2, 9])),
            BatchSize::LargeInput,
        )
    });
    // Fusion kernel cost structure: k = 2 vs 5 vs 7 qubits.
    for k in [2u32, 5, 7] {
        let qubits: Vec<u32> = (0..k).map(|i| i * 2 + 1).collect();
        let mut kc = Circuit::new(N);
        for (i, &q) in qubits.iter().enumerate() {
            kc.h(q);
            if i > 0 {
                kc.cx(qubits[i - 1], q);
            }
        }
        let fused = fuse_gates(&qubits, kc.gates());
        g.bench_function(format!("fused_apply_k{k}"), |b| {
            b.iter_batched_ref(
                || base.clone(),
                |sv| {
                    scratch::with_thread(|s| {
                        apply_matrix(
                            s,
                            sv.amplitudes_mut(),
                            &qubits,
                            black_box(&fused),
                            &Pool::SERIAL,
                        )
                    })
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Gate-by-gate application of a 12-gate run (one state pass per gate).
    let mut shm_circ = Circuit::new(N);
    for i in 0..6 {
        shm_circ.cx(i, i + 6);
        shm_circ.t(i + 6);
    }
    g.bench_function("gate_by_gate_12gates", |b| {
        b.iter_batched_ref(
            || base.clone(),
            |sv| {
                for gate in shm_circ.gates() {
                    apply_gate(sv.amplitudes_mut(), gate);
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    use atlas_machine::{Machine, MachineSpec};
    let mut g = c.benchmark_group("machine");
    g.sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    let spec = MachineSpec {
        nodes: 4,
        gpus_per_node: 2,
        local_qubits: 12,
    };
    let state = dense_state(); // 18 qubits → 64 shards
    g.bench_function("all_to_all_permute_18q", |b| {
        let mut map: Vec<u32> = (0..N).collect();
        map.rotate_left(5);
        let perm = QubitPermutation::from_map(map);
        b.iter_batched(
            || Machine::with_state(spec, CostModel::default(), &state),
            |mut m| m.permute_state(black_box(&perm), 0, &Pool::SERIAL),
            BatchSize::LargeInput,
        )
    });
    // The interconnect charge alone: a dry machine moves no amplitudes.
    g.bench_function("charge_permute_36q_256gpus", |b| {
        let mut map: Vec<u32> = (0..36).collect();
        map.rotate_left(7);
        let perm = QubitPermutation::from_map(map);
        b.iter_batched(
            || Machine::new(MachineSpec::perlmutter(64), CostModel::default(), 36, true),
            |mut m| m.permute_state(black_box(&perm), 0, &Pool::SERIAL),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    let kc = KernelCost::from_machine(&CostModel::default());
    let cm = CostModel::default();
    for (fam, n) in [(Family::Qft, 28u32), (Family::Ising, 28)] {
        let circ = fam.generate(n);
        let gates: Vec<KGate> = circ
            .gates()
            .iter()
            .map(|gate| KGate {
                mask: gate.qubit_mask(),
                shm_ns: cm.shm_gate_unit_ns(gate),
            })
            .collect();
        g.bench_function(format!("kernelize_dp_{}_{n}", fam.name()), |b| {
            b.iter(|| kernelize::kernelize(black_box(&gates), &kc, 500))
        });
    }
    let circ = Family::Su2Random.generate(31);
    let cfg = AtlasConfig::default();
    g.bench_function("staging_search_su2random_31_L15", |b| {
        b.iter(|| atlas_core::staging::stage_circuit(black_box(&circ), 15, 2, &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_statevec, bench_machine, bench_planner);
criterion_main!(benches);
