//! Hot-path benchmark; writes `BENCH_hotpath.json`: the production kernels
//! vs. the in-tree generic oracles, measured in the same process on one
//! thread so the comparison is apples-to-apples, each side the best of
//! `reps` runs.
//!
//! Three layers, and the pool's dispatch cost:
//!
//! * **apply** — kernels over a `2^N`-amplitude state, production (warm
//!   scratch arena, `threads = 1`) vs. the family's `reference` oracle:
//!   dense unrolled contiguous k=1/k=2 and a strided k=1; the lane-blocked
//!   dense sweep on a contiguous k=5 window and strided at k=3..7, and the
//!   strided k=5 split over a two-thread pool (`k5_strided_threads2`); a
//!   controlled kernel (2 controls, 3 targets); a strided k=5 permutation;
//!   and a k=5 diagonal against the per-amplitude `extract_bits` loop
//!   written out below; and `perm_run_dense22`, the stage-0 shard-0
//!   program of su2random at `dense22`'s shape (n = 22 on 2×2 GPUs,
//!   L = 19), run as the per-kernel program of
//!   `tests/common/build_oracle.rs` (`generic_secs`) and as the program
//!   `build_stage_programs` emits, its permutation runs coalesced
//!   (`fast_secs`);
//! * **reshuffle** — `Machine` stage transitions: the in-place exchange
//!   (`permute_state`) vs. the per-amplitude scatter oracle
//!   (`permute_state_scatter`) for a cross-shard permutation with long
//!   runs (swap of a mid local bit with a global bit), one with short runs
//!   (low local bit ↔ global bit, tiled), a pure shard relabel (handle
//!   shuffle, no amplitude traffic at all), and a field swap that trades
//!   every local bit for a shard bit (tiles of eight blocks) on one and on
//!   two pool threads. Each transition has a `_cold` row — a fresh
//!   machine's first transition — and a `_warm` row — a repeat on the same
//!   machine;
//! * **build** — one execution's shard programs, every stage of a planned
//!   `serve16` structure (vqc n = 16 and qft n = 18 on 2×2 GPUs, L = 11):
//!   `build_stage_programs` (prefix-shared row-update fusion) vs. the
//!   per-pattern expand-and-multiply oracle in
//!   `tests/common/build_oracle.rs`;
//! * **`pool_dispatch_t2_us`** — one `Pool::run` of two empty items on a
//!   two-thread pool, the cost that `atlas_statevec::split`'s work cutoffs
//!   weigh a split against.
//!
//! `ATLAS_BENCH_QUICK=1` shrinks the state and repetition counts for the
//! CI perf-smoke step (the JSON schema is identical and gains
//! `"quick": true`). `host_cpus` and `isa` — the widest of the vector
//! extensions the dense sweep is compiled for that this CPU has — are
//! recorded because the dense rows depend on the latter and a reader
//! should know both; every number here is a *single-thread* one except
//! `pool_dispatch_t2_us` and the `fast_secs` of `k5_strided_threads2`
//! and the `field_swap_t0_threads2_*` rows.

// The coalescing oracle serves the exactness tests only.
#[allow(dead_code)]
#[path = "../../../tests/common/build_oracle.rs"]
mod build_oracle;

use atlas_circuit::{generators, Circuit};
use atlas_core::exec::build_stage_programs;
use atlas_core::session::Planner;
use atlas_core::AtlasConfig;
use atlas_machine::{CostModel, Machine, MachineSpec, ShardProgram};
use atlas_qmath::{extract_bits, Complex64, Matrix, QubitPermutation};
use atlas_statevec::reference::{
    apply_controlled_matrix_generic, apply_matrix_generic, apply_permutation_generic,
};
use atlas_statevec::{
    apply_controlled_matrix, apply_diag, apply_gate, apply_matrix, apply_permutation, fuse_gates,
    simulate_reference, with_pool, Pool, Scratch, StateVector,
};
use std::fmt::Write as _;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("ATLAS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Dense state over `n` qubits.
fn dense_state(n: u32) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
        c.rz(0.1 * (q + 1) as f64, q);
    }
    let mut sv = StateVector::zero_state(n);
    for g in c.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}

/// A dense unitary over `qs` (H/RZ/CX ladder fused).
fn dense_unitary(n: u32, qs: &[u32]) -> Matrix {
    let mut kc = Circuit::new(n);
    for (i, &q) in qs.iter().enumerate() {
        kc.h(q);
        kc.rz(0.37 + i as f64, q);
        if i > 0 {
            kc.cx(qs[i - 1], q);
        }
    }
    fuse_gates(qs, kc.gates())
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Case {
    name: &'static str,
    generic_secs: f64,
    fast_secs: f64,
}

impl Case {
    /// Guarded against a measured 0.0 (the handle-shuffle relabel case can
    /// undercut coarse monotonic clocks): the JSON must never contain
    /// `inf`, which `json.load` in the CI smoke step would reject.
    fn speedup(&self) -> f64 {
        self.generic_secs / self.fast_secs.max(1e-9)
    }
}

/// Times `fast` — after one untimed call, so the arena is warm — and
/// `generic` on the same state.
fn apply_case(
    name: &'static str,
    reps: usize,
    amps: &mut [Complex64],
    mut fast: impl FnMut(&mut [Complex64]),
    mut generic: impl FnMut(&mut [Complex64]),
) -> Case {
    fast(amps);
    let fast_secs = best_of(reps, || fast(amps));
    let generic_secs = best_of(reps, || generic(amps));
    let case = Case {
        name,
        generic_secs,
        fast_secs,
    };
    println!(
        "apply/{name:<19} generic {generic_secs:.4}s  fast {fast_secs:.4}s  speedup {:.2}x",
        case.speedup()
    );
    case
}

fn apply_cases(n: u32, reps: usize) -> Vec<Case> {
    let mut sv = dense_state(n);
    let amps = sv.amplitudes_mut();
    let scratch = &mut Scratch::new();
    // `k` qubits spread evenly over the slice, lowest qubit 1.
    let strided = |k: u32| -> Vec<u32> { (0..k).map(|i| i * ((n - 2) / k) + 1).collect() };
    let dense: Vec<(&'static str, Vec<u32>)> = vec![
        ("k1_contiguous", vec![0]),
        ("k1_strided", vec![n / 2]),
        ("k2_contiguous", vec![0, 1]),
        ("k5_contiguous", vec![0, 1, 2, 3, 4]),
        ("k3_strided", strided(3)),
        ("k4_strided", strided(4)),
        ("k5_strided", strided(5)),
        ("k6_strided", strided(6)),
        ("k7_strided", strided(7)),
    ];
    let mut cases: Vec<Case> = dense
        .into_iter()
        .map(|(name, qs)| {
            let m = dense_unitary(n, &qs);
            apply_case(
                name,
                reps,
                amps,
                |amps| apply_matrix(scratch, amps, &qs, &m, &Pool::SERIAL),
                |amps| apply_matrix_generic(amps, &qs, &m),
            )
        })
        .collect();

    let qs = strided(5);
    let m = dense_unitary(n, &qs);
    cases.push(with_pool(2, |pool| {
        apply_case(
            "k5_strided_threads2",
            reps,
            amps,
            |amps| apply_matrix(scratch, amps, &qs, &m, pool),
            |amps| apply_matrix_generic(amps, &qs, &m),
        )
    }));
    let (controls, targets) = qs.split_at(2);
    let m = dense_unitary(n, targets);
    cases.push(apply_case(
        "k5_controlled",
        reps,
        amps,
        |amps| apply_controlled_matrix(scratch, amps, controls, targets, &m, &Pool::SERIAL),
        |amps| apply_controlled_matrix_generic(amps, controls, targets, &m),
    ));
    // x → 5x + 3 (mod 32) is a bijection of the kernel basis.
    let dst: Vec<u32> = (0..32).map(|x| (5 * x + 3) % 32).collect();
    let phases: Vec<Complex64> = (0..32).map(|x| Complex64::cis(0.2 * x as f64)).collect();
    cases.push(apply_case(
        "perm_k5_strided",
        reps,
        amps,
        |amps| apply_permutation(scratch, amps, &qs, &dst, &phases, &Pool::SERIAL),
        |amps| apply_permutation_generic(amps, &qs, &dst, &phases),
    ));
    cases.push(apply_case(
        "diag_k5",
        reps,
        amps,
        |amps| apply_diag(amps, &qs, &phases, &Pool::SERIAL),
        |amps| {
            for (i, a) in amps.iter_mut().enumerate() {
                *a *= phases[extract_bits(i as u64, &qs) as usize];
            }
        },
    ));
    cases
}

/// Times the stage-0 shard-0 program of su2random at `dense22`'s shape
/// (quick: its n = 14, L = 11 shape) on a one-shard machine: the oracle's
/// per-kernel program against the coalesced one.
fn perm_run_case(reps: usize) -> Case {
    let (n, l) = if quick() { (14, 11) } else { (22, 19) };
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: l,
    };
    let circuit = generators::su2random(n);
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(&circuit).expect("su2random plans");
    let plan = compiled.plan();
    let (stage, shards) = (&plan.stages[0], spec.num_shards(n));
    let programs = |build: fn(&Circuit, &_, u32, usize) -> Vec<ShardProgram>| {
        let mut programs = build(&circuit, stage, plan.l, shards);
        programs.truncate(1);
        programs
    };
    let per_kernel = programs(build_oracle::oracle_stage_programs);
    let coalesced = programs(build_stage_programs);
    let one_shard = MachineSpec {
        nodes: 1,
        gpus_per_node: 1,
        local_qubits: l,
    };
    let mut machine = Machine::with_state(one_shard, &dense_state(l));
    let mut time = |programs: &[ShardProgram]| {
        machine.run_shard_programs(programs, 0, &Pool::SERIAL);
        best_of(reps, || {
            machine.run_shard_programs(programs, 0, &Pool::SERIAL)
        })
    };
    let case = Case {
        name: "perm_run_dense22",
        generic_secs: time(&per_kernel),
        fast_secs: time(&coalesced),
    };
    println!(
        "apply/{:<19} per-kernel {:.4}s ({} ops)  coalesced {:.4}s ({} ops)  speedup {:.2}x",
        case.name,
        case.generic_secs,
        per_kernel[0].len(),
        case.fast_secs,
        coalesced[0].len(),
        case.speedup()
    );
    case
}

/// Times `permute_state` on a pool of `threads` against the serial
/// scatter oracle, twice: `names.0` as a fresh machine's first transition
/// (each repetition on a new machine), `names.1` warm (repeated on one
/// machine). `perm` must be self-inverse: applying it repeatedly
/// round-trips the layout.
fn reshuffle_case(
    names: (&'static str, &'static str),
    spec: MachineSpec,
    state: &StateVector,
    perm: &QubitPermutation,
    threads: usize,
    reps: usize,
) -> [Case; 2] {
    let (cold_secs, warm_secs) = atlas_statevec::with_pool(threads, |pool| {
        let mut cold = f64::INFINITY;
        for _ in 0..reps {
            let mut machine = Machine::with_state(spec, state);
            cold = cold.min(best_of(1, || machine.permute_state(perm, 0, 0, pool)));
        }
        let mut machine = Machine::with_state(spec, state);
        machine.permute_state(perm, 0, 0, pool);
        (
            cold,
            best_of(reps, || machine.permute_state(perm, 0, 0, pool)),
        )
    });
    let mut machine = Machine::with_state(spec, state);
    let generic_secs = best_of(reps, || machine.permute_state_scatter(perm, 0));
    [(names.0, cold_secs), (names.1, warm_secs)].map(|(name, fast_secs)| {
        let case = Case {
            name,
            generic_secs,
            fast_secs,
        };
        println!(
            "reshuffle/{name:<30} scatter {generic_secs:.4}s  exchange {fast_secs:.4}s  \
             speedup {:.2}x",
            case.speedup()
        );
        case
    })
}

fn reshuffle_cases(n: u32, l: u32, field: (u32, u32), reps: usize) -> Vec<Case> {
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 4,
        local_qubits: l,
    };
    let reference = simulate_reference(&atlas_circuit::generators::ghz(n));
    let shapes: Vec<((&'static str, &'static str), u32, u32)> = vec![
        // (names, qubit a, qubit b) — a ↔ b swap.
        (
            (
                "long_runs_mid_local_x_global_cold",
                "long_runs_mid_local_x_global_warm",
            ),
            l / 2,
            n - 1,
        ),
        (
            (
                "short_runs_low_local_x_global_cold",
                "short_runs_low_local_x_global_warm",
            ),
            1,
            n - 1,
        ),
        (
            ("relabel_global_only_cold", "relabel_global_only_warm"),
            n - 2,
            n - 1,
        ),
    ];
    let mut cases: Vec<Case> = shapes
        .into_iter()
        .flat_map(|(names, a, b)| {
            let mut map: Vec<u32> = (0..n).collect();
            map.swap(a as usize, b as usize);
            let perm = QubitPermutation::from_map(map);
            reshuffle_case(names, spec, &reference, &perm, 1, reps)
        })
        .collect();

    // Field swap: every local bit trades places with a shard bit, so no
    // run is longer than one amplitude (t = 0) and every shard feeds
    // 2^L others — the all-to-all the relayout tiles, serial and pooled.
    let (n, l) = field;
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 4,
        local_qubits: l,
    };
    let state = dense_state(n);
    let mut map: Vec<u32> = (0..n).collect();
    for b in 0..l.min(n - l) {
        map.swap(b as usize, (b + l) as usize);
    }
    let perm = QubitPermutation::from_map(map);
    for (names, threads) in [
        (
            ("field_swap_t0_threads1_cold", "field_swap_t0_threads1_warm"),
            1,
        ),
        (
            ("field_swap_t0_threads2_cold", "field_swap_t0_threads2_warm"),
            2,
        ),
    ] {
        cases.extend(reshuffle_case(names, spec, &state, &perm, threads, reps));
    }
    cases
}

/// Times building every stage's programs for `circuit` on the `serve16`
/// pool shape: production vs. the per-pattern oracle.
fn build_case(name: &'static str, circuit: &Circuit, reps: usize) -> Case {
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 11,
    };
    let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
    let compiled = planner.plan(circuit).expect("serve16 structures plan");
    let plan = compiled.plan();
    let shards = spec.num_shards(circuit.num_qubits());
    let fast_secs = best_of(reps, || {
        for sp in &plan.stages {
            drop(build_stage_programs(circuit, sp, plan.l, shards));
        }
    });
    let generic_secs = best_of(reps, || {
        for sp in &plan.stages {
            drop(build_oracle::oracle_stage_programs(
                circuit, sp, plan.l, shards,
            ));
        }
    });
    let case = Case {
        name,
        generic_secs,
        fast_secs,
    };
    println!(
        "build/{name:<8} per-pattern {generic_secs:.4}s  prefix-shared {fast_secs:.4}s  \
         speedup {:.2}x",
        case.speedup()
    );
    case
}

fn build_cases(reps: usize) -> Vec<Case> {
    vec![
        build_case("vqc16", &generators::vqc(16), reps),
        build_case("qft18", &generators::qft(18), reps),
    ]
}

/// The widest vector extension this CPU has among those the lane-blocked
/// dense sweep is compiled for — the copy `atlas-statevec` selects.
fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Best-of-`reps` time of one `run` of two empty items on a two-thread
/// pool, in microseconds (each repetition times 1 000 runs).
fn pool_dispatch_t2_us(reps: usize) -> f64 {
    let secs = with_pool(2, |pool| {
        best_of(reps, || (0..1000).for_each(|_| pool.run(2, &|_| {})))
    });
    let us = secs / 1000.0 * 1e6;
    println!("pool/dispatch_t2 {us:.2}µs per run");
    us
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (n_apply, n_shuffle, l_shuffle, (n_field, l_field), reps) = if quick() {
        (16u32, 16u32, 14u32, (16u32, 8u32), 2usize)
    } else {
        (20, 22, 20, (20, 10), 5)
    };
    let mut apply = apply_cases(n_apply, reps);
    apply.push(perm_run_case(reps));
    let shuffle = reshuffle_cases(n_shuffle, l_shuffle, (n_field, l_field), reps);
    let build = build_cases(reps);
    let dispatch_us = pool_dispatch_t2_us(reps);

    let fmt_cases = |cases: &[Case]| -> String {
        let mut s = String::new();
        for (i, c) in cases.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{}\": {{\"generic_secs\": {:.6}, \"fast_secs\": {:.6}, \"speedup\": {:.3}}}{}",
                c.name,
                c.generic_secs,
                c.fast_secs,
                c.speedup(),
                if i + 1 < cases.len() { ",\n" } else { "\n" }
            );
        }
        s
    };
    let json = format!(
        "{{\n  \"bench\": \"hotpath_specialized_vs_generic\",\n  \"quick\": {},\n  \
         \"host_cpus\": {host_cpus},\n  \"isa\": \"{}\",\n  \"apply_qubits\": {n_apply},\n  \
         \"reshuffle_qubits\": {n_shuffle},\n  \"reshuffle_local_qubits\": {l_shuffle},\n  \
         \"field_swap_qubits\": {n_field},\n  \"field_swap_local_qubits\": {l_field},\n  \
         \"pool_dispatch_t2_us\": {dispatch_us:.3},\n  \
         \"apply\": {{\n{}  }},\n  \"reshuffle\": {{\n{}  }},\n  \"build\": {{\n{}  }}\n}}\n",
        quick(),
        isa(),
        fmt_cases(&apply),
        fmt_cases(&shuffle),
        fmt_cases(&build),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}:\n{json}");
}
