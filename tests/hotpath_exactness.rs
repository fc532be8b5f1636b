//! Byte-exactness of the specialized execution hot paths against their
//! in-tree generic oracles.
//!
//! The kernels in `atlas_statevec::apply` (one function per family, each
//! dispatching over layouts — unrolled `k ≤ 2`, the lane-blocked dense
//! sweep, contiguous low-window chunks, strided runs — and running the
//! chosen layout's loop on one thread or split over several) and the
//! table-driven relayout in `atlas_machine` are *replacements* for generic
//! code on the innermost `2^n` sweep — they are only admissible because
//! they perform the identical floating-point operations in the identical
//! order. These properties pin that down to the bit: any rounding
//! difference at all is a failure, not a tolerance question. Every family
//! is checked at every row of the layout table, at 1, 2 and 3 threads, on
//! slices on both sides of the work cutoffs below which a kernel stays on
//! one thread — which is also what keeps thread-count determinism intact —
//! and the kernels that block adjacent groups at the edges of their blocks.
//! The relayout runs through pools of 1, 2 and 3 threads too, and its
//! closed-form interconnect charge is checked against a walk over every
//! amplitude.
//!
//! Gate fusion is held to the same standard one level up: the row-update
//! primitive (`fuse_gate_into`, behind `fuse_gates`) against the
//! expand-and-multiply oracle, and every shard program
//! `build_stage_programs` emits — it shares gate prefixes between shard
//! patterns — against a per-pattern build over that oracle, op by op,
//! including which shards share one `Arc`'d kernel.

#[path = "common/build_oracle.rs"]
mod build_oracle;

use atlas::core::exec::build_stage_programs;
use atlas::machine::cost::AMP_BYTES;
use atlas::machine::{CostModel, Machine, MachineSpec, ShardOp, ShardProgram};
use atlas::prelude::*;
use atlas::qmath::{extract_bits, Complex64, Matrix, QubitPermutation};
use atlas::statevec::apply::{PARALLEL_ELEMENT_CUTOFF, PARALLEL_GROUP_CUTOFF};
use atlas::statevec::reference::{
    apply_controlled_matrix_generic, apply_matrix_generic, apply_permutation_generic,
    fuse_by_expansion,
};
use atlas::statevec::{
    apply_controlled_matrix, apply_diag, apply_matrix, apply_permutation, apply_reduced,
    fuse_gate_into, fuse_gates, scale, simulate_reference, with_pool, FastKernel, Pool, Scratch,
    StateVector,
};
use build_oracle::oracle_stage_programs;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Deterministic dense state from a seed: H/RZ/T walls with seeded angles
/// plus an entangling ladder.
fn dense_state(n: u32, seed: u64) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q)
            .rz(0.077 * ((seed % 97) as f64 + q as f64 + 1.0), q)
            .t(q);
    }
    for q in 1..n {
        c.cx(q - 1, q);
    }
    simulate_reference(&c)
}

/// A dense-ish unitary over `qs` from a seeded circuit on those qubits.
fn seeded_unitary(n: u32, qs: &[u32], seed: u64) -> Matrix {
    let mut kc = Circuit::new(n);
    for (i, &q) in qs.iter().enumerate() {
        kc.h(q).rz(0.31 + (seed % 13) as f64 * 0.17 + i as f64, q);
        if i > 0 {
            kc.cx(qs[i - 1], q);
        }
    }
    fuse_gates(qs, kc.gates())
}

/// Picks `k` distinct qubits below `n` from a seed, in a seed-dependent
/// (not necessarily sorted) order.
fn qubit_subset(n: u32, k: usize, seed: u64) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n).collect();
    shuffle(&mut all, &mut (seed | 1));
    all.truncate(k);
    all
}

fn assert_bits_eq(a: &StateVector, b: &StateVector, label: &str) {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{label}: amplitude {i}: {x:?} vs {y:?}"
        );
    }
}

/// Pool sizes every kernel runs on: the serial body, an even split and
/// an uneven one.
const THREADS: [usize; 3] = [1, 2, 3];

/// Asserts that `kernel(scratch, amps, pool)` turns `base` into exactly
/// the bits `oracle(amps)` does, on a pool of every size.
fn assert_matches_oracle(
    base: &StateVector,
    label: &str,
    oracle: impl Fn(&mut [Complex64]),
    kernel: impl Fn(&mut Scratch, &mut [Complex64], &Pool),
) {
    let mut want = base.clone();
    oracle(want.amplitudes_mut());
    let mut scratch = Scratch::new();
    for threads in THREADS {
        let mut got = base.clone();
        with_pool(threads, |pool| {
            kernel(&mut scratch, got.amplitudes_mut(), pool)
        });
        assert_bits_eq(&got, &want, &format!("{label} threads={threads}"));
    }
}

/// One qubit list per row of the dense dispatch table (module docs of
/// `atlas_statevec::apply`) on an `n ≥ 10`-qubit slice, plus kernels on
/// the slice's top qubit.
fn layout_rows(n: u32) -> Vec<Vec<u32>> {
    vec![
        vec![0],           // unrolled k = 1, contiguous pairs
        vec![n / 2],       // unrolled k = 1, strided
        vec![n - 1],       // unrolled k = 1 on the top qubit
        vec![0, 1],        // unrolled k = 2, contiguous
        vec![n / 2, 1],    // unrolled k = 2, strided
        vec![0, 1, 2],     // lane-blocked sweep, identity order
        vec![2, 0, 1],     // low_window
        vec![1, n / 2, 4], // strided
        vec![n - 1, 0, 3], // strided including the top qubit
    ]
}

/// Slice sizes (in qubits) that put `k = 1, 2, 3` kernels one size below
/// and exactly at [`PARALLEL_GROUP_CUTOFF`] groups (`2^{n-k}` of them).
fn group_cutoff_sizes() -> RangeInclusive<u32> {
    let bits = PARALLEL_GROUP_CUTOFF.trailing_zeros();
    bits..=bits + 3
}

/// Slice sizes one below and exactly at [`PARALLEL_ELEMENT_CUTOFF`]
/// amplitudes.
fn element_cutoff_sizes() -> RangeInclusive<u32> {
    let bits = PARALLEL_ELEMENT_CUTOFF.trailing_zeros();
    bits - 1..=bits
}

/// The inputs a family is checked on: the proptest-drawn `(n, qubits)`
/// case, then every [`layout_rows`] row at each of `sizes`, each paired
/// with a seeded dense state of its size.
fn inputs(
    drawn: (u32, Vec<u32>),
    sizes: RangeInclusive<u32>,
    seed: u64,
) -> Vec<(Vec<u32>, StateVector)> {
    let mut cases = vec![drawn];
    for n in sizes {
        cases.extend(layout_rows(n).into_iter().map(|qs| (n, qs)));
    }
    let mut states = BTreeMap::new();
    cases
        .into_iter()
        .map(|(n, qs)| {
            let state = states.entry(n).or_insert_with(|| dense_state(n, seed));
            (qs, state.clone())
        })
        .collect()
}

/// The proptest-drawn qubit list: `k` qubits of an `n`-qubit slice in
/// seed-dependent order, either the low window `{0..k}` or any subset.
fn drawn_qubits(n: u32, k: usize, seed: u64, contiguous: bool) -> Vec<u32> {
    let k = k.min(n as usize);
    if contiguous {
        qubit_subset(k as u32, k, seed)
    } else {
        qubit_subset(n, k, seed)
    }
}

/// Seeded unit phases, one per basis state of a `dim`-dimensional kernel.
fn seeded_phases(dim: usize, seed: u64) -> Vec<Complex64> {
    (0..dim)
        .map(|x| Complex64::cis(0.2 * x as f64 + (seed % 31) as f64))
        .collect()
}

/// The oracle of the element-wise passes: one multiply per amplitude, in
/// index order (a whole-slice scale is the `qs = []` case).
fn diag_oracle(amps: &mut [Complex64], qs: &[u32], diag: &[Complex64]) {
    for (i, a) in amps.iter_mut().enumerate() {
        *a *= diag[extract_bits(i as u64, qs) as usize];
    }
}

/// The layouts the lane-blocked sweep sees for a `k`-qubit kernel on an
/// `n`-qubit slice, as far as `n` has room for them: identity order, a
/// permuted low window, strided including qubit 0 (adjacent groups never
/// adjacent in memory), strided with every qubit ≥ 3 (eight adjacent
/// groups contiguous in memory).
fn lane_layouts(n: u32, k: u32) -> Vec<Vec<u32>> {
    let mut rows = vec![(0..k).collect(), (1..k).chain([0]).collect()];
    if n > k {
        rows.push([n - 1].into_iter().chain(0..k - 1).collect());
    }
    if n > k + 2 {
        rows.push([n - 1].into_iter().chain(3..k + 2).collect());
    }
    rows
}

/// Slice sizes that give a `k`-qubit kernel 1, 2, 4, 8 and 16 groups —
/// below, at and above one lane block of 8 — and exactly
/// [`PARALLEL_GROUP_CUTOFF`] groups, which three threads cut into ranges
/// that start and end inside a block.
fn block_edge_sizes(k: u32) -> impl Iterator<Item = u32> {
    (k..=k + 4).chain([k + PARALLEL_GROUP_CUTOFF.trailing_zeros()])
}

/// The lane-blocked dense sweep at its block edges, for every kernel
/// width it serves.
#[test]
fn lane_blocked_dense_matches_generic_at_block_edges() {
    for k in 3..=7u32 {
        for n in block_edge_sizes(k) {
            let base = dense_state(n, 11 * k as u64 + n as u64);
            for qs in lane_layouts(n, k) {
                let m = seeded_unitary(n, &qs, k as u64);
                assert_matches_oracle(
                    &base,
                    &format!("dense n={n} qs={qs:?}"),
                    |amps| apply_matrix_generic(amps, &qs, &m),
                    |scratch, amps, pool| apply_matrix(scratch, amps, &qs, &m, pool),
                );
            }
        }
    }
}

/// Controlled kernels with two targets and one or two controls go through
/// the same sweep with the control bits forced: same block edges.
#[test]
fn lane_blocked_controlled_matches_generic_at_block_edges() {
    for kc in 1..=2u32 {
        for n in block_edge_sizes(kc + 2) {
            let base = dense_state(n, 7 * kc as u64 + n as u64);
            // Controls first: a window rotated by one, and — where the
            // slice has room — the same with the top qubit as a control.
            let mut rows: Vec<Vec<u32>> = vec![(1..kc + 2).chain([0]).collect()];
            if n > kc + 2 {
                rows.push([n - 1].into_iter().chain(2..kc + 2).chain([0]).collect());
            }
            for all in rows {
                let (controls, targets) = all.split_at(kc as usize);
                let m = seeded_unitary(n, targets, n as u64);
                assert_matches_oracle(
                    &base,
                    &format!("ctrl n={n} {controls:?}->{targets:?}"),
                    |amps| apply_controlled_matrix_generic(amps, controls, targets, &m),
                    |scratch, amps, pool| {
                        apply_controlled_matrix(scratch, amps, controls, targets, &m, pool)
                    },
                );
            }
        }
    }
}

/// Strided permutation kernels move runs of `2^min(q, 4)` adjacent groups,
/// `q` the lowest kernel qubit: every run length, on slices of a few runs
/// and on one that three threads cut mid-run.
#[test]
fn permutation_runs_match_generic_at_run_edges() {
    for q in 0..=5u32 {
        for n in [
            q + 4,
            q + 5,
            q + 6,
            3 + PARALLEL_GROUP_CUTOFF.trailing_zeros(),
        ] {
            let qs = vec![n - 1, q, q + 2];
            let base = dense_state(n, 5 * q as u64 + n as u64);
            let dst: Vec<u32> = qubit_subset(8, 8, 0xABCD + q as u64);
            let phase = seeded_phases(8, q as u64);
            assert_matches_oracle(
                &base,
                &format!("perm n={n} qs={qs:?} dst={dst:?}"),
                |amps| apply_permutation_generic(amps, &qs, &dst, &phase),
                |scratch, amps, pool| apply_permutation(scratch, amps, &qs, &dst, &phase, pool),
            );
        }
    }
}

/// The `(n, spec)` shapes every relayout property runs on: the general
/// one; L = 2 and L = 1, where runs and tiles are narrower than a cache
/// line (the L = 1 one offloads 8 shards onto each GPU); and 2 shards,
/// fewer than the largest pool has threads.
fn relayout_shapes() -> [(u32, MachineSpec); 4] {
    let spec = |nodes, gpus_per_node, local_qubits| MachineSpec {
        nodes,
        gpus_per_node,
        local_qubits,
    };
    [
        (8, spec(2, 2, 5)),
        (6, spec(2, 2, 2)),
        (5, spec(1, 2, 1)),
        (7, spec(2, 1, 6)),
    ]
}

/// Seeded Fisher–Yates shuffle (LCG state in `s`).
fn shuffle(items: &mut [u32], s: &mut u64) {
    for i in (1..items.len()).rev() {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (*s >> 33) as usize % (i + 1));
    }
}

/// A transition's model-clock charge, re-derived amplitude by amplitude.
struct WalkedCharge {
    comm: f64,
    bytes_intra: u64,
    bytes_inter: u64,
}

/// The interconnect charge of `new = perm(old) ^ flip` from first
/// principles: count every amplitude's (source, destination) shard pair,
/// charge each cross-GPU block to its sender's GPU (same node) or node
/// (cross node), and let the busiest sender of each class set its time,
/// plus a collective latency and a local repack pass.
fn walked_charge(
    spec: &MachineSpec,
    n: u32,
    perm: &QubitPermutation,
    flip: u64,
    cost: &CostModel,
) -> WalkedCharge {
    let l = spec.local_qubits;
    let mut blocks: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for old in 0..1u64 << n {
        let new = perm.apply_index(old) ^ flip;
        *blocks
            .entry(((old >> l) as usize, (new >> l) as usize))
            .or_default() += 1;
    }
    let mut gpu_out = vec![0u64; spec.num_gpus()];
    let mut node_out = vec![0u64; spec.nodes];
    let (mut bytes_intra, mut bytes_inter, mut moved) = (0, 0, false);
    for (&(src, dst), &amps) in &blocks {
        if src == dst {
            continue;
        }
        moved = true;
        let bytes = (amps as f64 * AMP_BYTES) as u64;
        if spec.node_of_shard(n, src) != spec.node_of_shard(n, dst) {
            node_out[spec.node_of_shard(n, src)] += bytes;
            bytes_inter += bytes;
        } else if spec.gpu_of_shard(n, src) != spec.gpu_of_shard(n, dst) {
            gpu_out[spec.gpu_of_shard(n, src)] += bytes;
            bytes_intra += bytes;
        }
    }
    let busiest = |out: &[u64], bw: f64| out.iter().map(|&b| b as f64 / bw).fold(0.0, f64::max);
    let t_links = busiest(&gpu_out, cost.intra_node_bw).max(busiest(&node_out, cost.inter_node_bw));
    let t_local = if !perm.is_identity() || flip & ((1 << l) - 1) != 0 {
        2.0 * (1u64 << l) as f64 * cost.mem_pass_ns * 1e-9
    } else {
        0.0
    };
    let comm = if moved {
        t_links + cost.comm_latency_us * 1e-6 + t_local
    } else {
        t_local
    };
    WalkedCharge {
        comm,
        bytes_intra,
        bytes_inter,
    }
}

/// The bits of a complex number.
fn cbits(z: &Complex64) -> [u64; 2] {
    [z.re.to_bits(), z.im.to_bits()]
}

/// A matrix as plain bits, shape first.
fn matrix_bits(m: &Matrix) -> Vec<u64> {
    let mut v = vec![m.rows() as u64, m.cols() as u64];
    v.extend(m.as_slice().iter().flat_map(cbits));
    v
}

/// One shard op as plain bits: its kind, every qubit list and every
/// number in it, a compiled kernel's form and entries included.
fn op_bits(op: &ShardOp) -> Vec<u64> {
    let list = |v: &mut Vec<u64>, qs: &[u32]| {
        v.push(qs.len() as u64);
        v.extend(qs.iter().map(|&q| u64::from(q)));
    };
    let amps = |v: &mut Vec<u64>, zs: &[Complex64]| {
        v.push(zs.len() as u64);
        v.extend(zs.iter().flat_map(cbits));
    };
    let mut v = Vec::new();
    match op {
        ShardOp::Fusion {
            qubits,
            kernel,
            scale,
        } => {
            v.push(0);
            list(&mut v, qubits);
            v.extend(cbits(scale));
            match &**kernel {
                FastKernel::Identity => v.push(10),
                FastKernel::Diagonal(diag) => {
                    v.push(11);
                    amps(&mut v, diag);
                }
                FastKernel::Permutation { dst, phase } => {
                    v.push(12);
                    list(&mut v, dst);
                    amps(&mut v, phase);
                }
                FastKernel::Controlled {
                    controls,
                    targets,
                    matrix,
                } => {
                    v.push(13);
                    list(&mut v, controls);
                    list(&mut v, targets);
                    v.extend(matrix_bits(matrix));
                }
                FastKernel::Dense(m) => {
                    v.push(14);
                    v.extend(matrix_bits(m));
                }
            }
        }
        ShardOp::ShmParts {
            parts,
            per_amp_ns,
            scale,
        } => {
            v.extend([1, per_amp_ns.to_bits()]);
            v.extend(cbits(scale));
            for (qs, m) in parts.iter() {
                list(&mut v, qs);
                v.extend(matrix_bits(m));
            }
        }
        ShardOp::Scale(f) => {
            v.push(2);
            v.extend(cbits(f));
        }
    }
    v
}

/// Which shards share one `Arc` at op `j`: for every shard, the first
/// shard whose op `j` points at the same kernel or part list (`None` for
/// a scale op or no op).
fn arc_sharing(programs: &[ShardProgram], j: usize) -> Vec<Option<usize>> {
    let mut first: BTreeMap<*const (), usize> = BTreeMap::new();
    programs
        .iter()
        .enumerate()
        .map(|(s, prog)| {
            let ptr = match prog.get(j)? {
                ShardOp::Fusion { kernel, .. } => Arc::as_ptr(kernel).cast::<()>(),
                ShardOp::ShmParts { parts, .. } => Arc::as_ptr(parts).cast::<()>(),
                ShardOp::Scale(_) => return None,
            };
            Some(*first.entry(ptr).or_insert(s))
        })
        .collect()
}

/// Asserts that two stages' programs are the same ops, bit for bit, with
/// the same shards sharing one `Arc` at every op.
fn assert_same_programs(got: &[ShardProgram], want: &[ShardProgram], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: shard count");
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label}: shard {s}: op count");
        for (j, (a, b)) in g.iter().zip(w).enumerate() {
            assert!(
                op_bits(a) == op_bits(b),
                "{label}: shard {s} op {j} differs:\n{a:?}\nvs\n{b:?}"
            );
        }
    }
    let ops = want.iter().map(Vec::len).max().unwrap_or(0);
    for j in 0..ops {
        assert_eq!(
            arc_sharing(got, j),
            arc_sharing(want, j),
            "{label}: op {j}: Arc sharing differs"
        );
    }
}

/// A circuit most of whose gates read their upper-half qubits insularly —
/// controls, phases, X/Y relabels, three-qubit gates — so the staging
/// keeps those qubits non-local and every kernel has many shard patterns.
fn insular_heavy(n: u32, seed: u64) -> Circuit {
    use GateKind::*;
    let half = n / 2;
    let mut s = seed | 1;
    let mut draw = |m: u32| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % u64::from(m)) as u32
    };
    let mut c = Circuit::new(n);
    for q in 0..half {
        c.h(q);
    }
    for i in 0..12 * n {
        let hi = half + draw(n - half);
        let hi2 = half + (hi - half + 1 + draw(n - half - 1)) % (n - half);
        let lo = draw(half);
        let th = 0.1 + 0.37 * f64::from(i);
        let (kind, qs): (GateKind, Vec<u32>) = match draw(11) {
            0 => (CP(th), vec![hi, lo]),
            1 => (CX, vec![hi, lo]),
            2 => (CZ, vec![lo, hi]),
            3 => (RZ(th), vec![hi]),
            4 => (CRY(th), vec![hi, lo]),
            5 => (X, vec![hi]),
            6 => (Y, vec![hi]),
            7 => (CCX, vec![hi, hi2, lo]),
            8 => (RZZ(th), vec![hi, lo]),
            9 => (U3(th, 0.5, 0.3 * th), vec![lo]),
            _ => (CX, vec![lo, (lo + 1) % half]),
        };
        c.add(kind, &qs);
    }
    c
}

/// `build_stage_programs` — prefix-shared, row-update fusion — emits the
/// per-pattern expand-and-multiply oracle's programs op by op and bit for
/// bit, with the same `Arc` sharing, on every stage of: the 18 `serve16`
/// structures (n = 14/16/18 on 2×2, L = 11), shrunk `dense22` and
/// `shuffle22` shapes, and an insular-heavy circuit at several L.
#[test]
fn build_stage_programs_matches_the_per_pattern_oracle_bitwise() {
    use atlas::circuit::generators;
    let spec = |nodes, gpus_per_node, local_qubits| MachineSpec {
        nodes,
        gpus_per_node,
        local_qubits,
    };
    let families: [fn(u32) -> Circuit; 6] = [
        generators::qaoa,
        generators::vqc,
        generators::qft,
        generators::ising,
        generators::su2random,
        generators::ae,
    ];
    let mut cases: Vec<(String, Circuit, MachineSpec)> = Vec::new();
    for (f, family) in families.iter().enumerate() {
        for n in [14, 16, 18] {
            cases.push((format!("serve16 #{f} n={n}"), family(n), spec(2, 2, 11)));
        }
    }
    cases.push((
        "dense22 n=14".into(),
        generators::su2random(14),
        spec(2, 2, 11),
    ));
    for (n, l) in [(12, 4), (14, 6)] {
        cases.push((
            format!("shuffle22 n={n}"),
            generators::wstate(n),
            spec(4, 4, l),
        ));
    }
    for l in [4, 5, 6, 7] {
        let name = format!("insular-heavy L={l}");
        cases.push((name, insular_heavy(10, u64::from(l)), spec(2, 2, l)));
    }
    for (label, circuit, spec) in cases {
        let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
        let compiled = planner.plan(&circuit).expect("plans");
        let plan = compiled.plan();
        let shards = spec.num_shards(circuit.num_qubits());
        for (i, sp) in plan.stages.iter().enumerate() {
            assert_same_programs(
                &build_stage_programs(&circuit, sp, plan.l, shards),
                &oracle_stage_programs(&circuit, sp, plan.l, shards),
                &format!("{label} stage {i}"),
            );
        }
    }
}

/// A gate over `qs` drawn from a seed: kinds whose matrices hold exact
/// zeros (X, Y, CX, CZ, CP, RZ, RZZ, Swap, CCX, CCZ, CSwap) and dense
/// ones (H, U3, CRY, RXX).
fn drawn_gate(qs: &[u32], seed: u64) -> Gate {
    use GateKind::*;
    let th = 0.1 + (seed % 1000) as f64 * 0.0137;
    let kinds: &[GateKind] = match qs.len() {
        1 => &[X, Y, H, T, RZ(th), U3(th, 0.7 * th, 1.3)],
        2 => &[CX, CZ, CP(th), CRY(th), Swap, RXX(th), RZZ(th)],
        _ => &[CCX, CCZ, CSwap],
    };
    Gate::new(kinds[(seed >> 20) as usize % kinds.len()], qs)
}

/// A dense unitary over `qs`, fused by the oracle (U3 wall, CX ladder).
fn dense_part(qs: &[u32], seed: u64) -> Matrix {
    let th = 0.2 + (seed % 97) as f64 * 0.05;
    let mut gates: Vec<Gate> = qs
        .iter()
        .map(|&q| Gate::new(GateKind::U3(th, 0.4 + th, 1.1), &[q]))
        .collect();
    gates.extend(qs.windows(2).map(|w| Gate::new(GateKind::CX, w)));
    fuse_by_expansion(qs, gates.iter().map(|g| (g.qubits.as_slice(), g.matrix())))
}

/// Flips the sign of every exactly-zero component of `m` that `seed`
/// selects, so that both `+0` and `-0` entries occur.
fn sign_zeros(m: &mut Matrix, seed: u64) {
    let dim = m.rows();
    for r in 0..dim {
        for c in 0..dim {
            let bit = (r * dim + c) % 63;
            let z = &mut m[(r, c)];
            if z.re == 0.0 && (seed >> bit) & 1 == 1 {
                z.re = -z.re;
            }
            if z.im == 0.0 && (seed >> (62 - bit)) & 1 == 1 {
                z.im = -z.im;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fusion by row updates is the expand-and-multiply product, bit for
    /// bit: `fuse_gates` over random gates of arity 1..=3, and
    /// `fuse_gate_into` steps over the same gates' matrices with random
    /// `±0` signs or dense unitaries in their place, on kernels of
    /// k = 1..=7 qubits in random (non-monotone) order.
    #[test]
    fn fusion_matches_the_expansion_oracle_bitwise(
        k in 1usize..8,
        count in 1usize..12,
        seed in any::<u64>(),
    ) {
        let kq = qubit_subset(12, k, seed);
        let mut s = seed | 1;
        let mut circuit = Circuit::new(12);
        let mut parts: Vec<(Vec<u32>, Matrix)> = Vec::new();
        for _ in 0..count {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut qs = kq.clone();
            shuffle(&mut qs, &mut s.clone());
            qs.truncate(1 + (s >> 40) as usize % k.min(3));
            let gate = drawn_gate(&qs, s);
            circuit.push(gate);
            let mut m = if (s >> 50) % 4 == 0 { dense_part(&qs, s) } else { gate.matrix() };
            sign_zeros(&mut m, s.rotate_left(17));
            parts.push((qs, m));
        }
        let want = fuse_by_expansion(
            &kq,
            circuit.gates().iter().map(|g| (g.qubits.as_slice(), g.matrix())),
        );
        prop_assert_eq!(matrix_bits(&fuse_gates(&kq, circuit.gates())), matrix_bits(&want));

        let mut acc = Matrix::identity(1 << k);
        let mut next = Matrix::zeros(0, 0);
        for (qs, m) in &parts {
            fuse_gate_into(&mut next, &acc, &kq, qs, m);
            std::mem::swap(&mut acc, &mut next);
        }
        let want = fuse_by_expansion(&kq, parts.iter().map(|(qs, m)| (qs.as_slice(), m.clone())));
        prop_assert_eq!(matrix_bits(&acc), matrix_bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `apply_matrix` is byte-identical to the generic oracle for every
    /// k = 1..=5 across contiguous (low-window) and strided qubit subsets
    /// in random order, and at every layout row on both sides of the
    /// group cutoff.
    #[test]
    fn apply_matrix_fast_paths_match_generic_bitwise(
        n in 6u32..11,
        k in 1usize..6,
        seed in any::<u64>(),
        contiguous in any::<bool>(),
    ) {
        let drawn = (n, drawn_qubits(n, k, seed, contiguous));
        for (qs, base) in inputs(drawn, group_cutoff_sizes(), seed) {
            let m = seeded_unitary(base.num_qubits(), &qs, seed);
            assert_matches_oracle(
                &base,
                &format!("dense n={} qs={qs:?}", base.num_qubits()),
                |amps| apply_matrix_generic(amps, &qs, &m),
                |scratch, amps, pool| apply_matrix(scratch, amps, &qs, &m, pool),
            );
        }
    }

    /// `apply_permutation` matches its generic oracle bitwise over random
    /// in-kernel permutations with random phases.
    #[test]
    fn apply_permutation_fast_paths_match_generic_bitwise(
        n in 6u32..11,
        k in 1usize..5,
        seed in any::<u64>(),
        contiguous in any::<bool>(),
    ) {
        let drawn = (n, drawn_qubits(n, k, seed, contiguous));
        for (qs, base) in inputs(drawn, group_cutoff_sizes(), seed) {
            let dim = 1usize << qs.len();
            // Seeded permutation of the kernel basis + seeded unit phases.
            let dst: Vec<u32> = qubit_subset(dim as u32, dim, seed ^ 0xABCD);
            let phase = seeded_phases(dim, seed);
            assert_matches_oracle(
                &base,
                &format!("perm n={} qs={qs:?} dst={dst:?}", base.num_qubits()),
                |amps| apply_permutation_generic(amps, &qs, &dst, &phase),
                |scratch, amps, pool| {
                    apply_permutation(scratch, amps, &qs, &dst, &phase, pool)
                },
            );
        }
    }

    /// `apply_controlled_matrix` matches its generic oracle bitwise; the
    /// layout rows with at least two qubits split into one control and the
    /// remaining targets.
    #[test]
    fn apply_controlled_matrix_matches_generic_bitwise(
        n in 6u32..11,
        kc in 1usize..3,
        kt in 1usize..3,
        seed in any::<u64>(),
    ) {
        let drawn = (n, qubit_subset(n, kc + kt, seed));
        for (i, (all, base)) in inputs(drawn, group_cutoff_sizes(), seed).into_iter().enumerate() {
            if all.len() < 2 {
                continue;
            }
            let (controls, targets) = all.split_at(if i == 0 { kc } else { 1 });
            let m = seeded_unitary(base.num_qubits(), targets, seed);
            assert_matches_oracle(
                &base,
                &format!("ctrl n={} {controls:?}->{targets:?}", base.num_qubits()),
                |amps| apply_controlled_matrix_generic(amps, controls, targets, &m),
                |scratch, amps, pool| {
                    apply_controlled_matrix(scratch, amps, controls, targets, &m, pool)
                },
            );
        }
    }

    /// The element-wise families (`apply_diag`, `scale`) and the three
    /// branches of `apply_reduced` (1×1 scalar, diagonal, dense) match
    /// their oracles bitwise on both sides of the cutoff that governs each.
    #[test]
    fn elementwise_and_reduced_kernels_match_their_oracles_bitwise(
        n in 6u32..11,
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let drawn = (n, drawn_qubits(n, k, seed, false));
        let factor = Complex64::cis(0.4 + (seed % 17) as f64);
        let mut scalar = Matrix::zeros(1, 1);
        scalar[(0, 0)] = factor;
        for (qs, base) in inputs(drawn.clone(), element_cutoff_sizes(), seed) {
            let n = base.num_qubits();
            let diag = seeded_phases(1 << qs.len(), seed);
            let mut diag_matrix = Matrix::zeros(diag.len(), diag.len());
            for (x, &d) in diag.iter().enumerate() {
                diag_matrix[(x, x)] = d;
            }
            assert_matches_oracle(
                &base,
                &format!("diag n={n} qs={qs:?}"),
                |amps| diag_oracle(amps, &qs, &diag),
                |_, amps, pool| apply_diag(amps, &qs, &diag, pool),
            );
            assert_matches_oracle(
                &base,
                &format!("reduced-diag n={n} qs={qs:?}"),
                |amps| diag_oracle(amps, &qs, &diag),
                |scratch, amps, pool| apply_reduced(scratch, amps, &qs, &diag_matrix, pool),
            );
            assert_matches_oracle(
                &base,
                &format!("scale n={n}"),
                |amps| diag_oracle(amps, &[], &[factor]),
                |_, amps, pool| scale(amps, factor, pool),
            );
            assert_matches_oracle(
                &base,
                &format!("reduced-scalar n={n}"),
                |amps| diag_oracle(amps, &[], &[factor]),
                |scratch, amps, pool| apply_reduced(scratch, amps, &[], &scalar, pool),
            );
        }
        for (qs, base) in inputs(drawn, group_cutoff_sizes(), seed) {
            let m = seeded_unitary(base.num_qubits(), &qs, seed);
            assert_matches_oracle(
                &base,
                &format!("reduced-dense n={} qs={qs:?}", base.num_qubits()),
                |amps| apply_matrix_generic(amps, &qs, &m),
                |scratch, amps, pool| apply_reduced(scratch, amps, &qs, &m, pool),
            );
        }
    }

    /// The relayout engine is byte-identical to the per-amplitude scatter
    /// oracle for arbitrary permutations and flips — covering the
    /// shard-local in-place path, the pure relabel (handle-shuffle) path
    /// and the general pooled path — on every relayout shape, through
    /// pools of 1, 2 and 3 threads, and it charges the same model clock.
    #[test]
    fn permute_state_blocks_match_scatter_bitwise(
        seed in any::<u64>(),
        flip_seed in any::<u64>(),
        steps in 1usize..4,
    ) {
        for (n, spec) in relayout_shapes() {
            let reference = dense_state(n, seed);
            // Chain several transitions so ping-pong reuse (not just the
            // first, freshly-allocated pass) is exercised.
            let mut s = seed | 1;
            let transitions: Vec<(QubitPermutation, u64)> = (0..steps)
                .map(|step| {
                    let mut map: Vec<u32> = (0..n).collect();
                    shuffle(&mut map, &mut s);
                    let flip = flip_seed.rotate_left(step as u32 * 13) & ((1u64 << n) - 1);
                    (QubitPermutation::from_map(map), flip)
                })
                .collect();
            let mut scatter = Machine::with_state(spec, CostModel::default(), &reference);
            for (perm, flip) in &transitions {
                scatter.permute_state_scatter(perm, *flip);
            }
            let want = scatter.report();
            for threads in THREADS {
                let mut blocks = Machine::with_state(spec, CostModel::default(), &reference);
                with_pool(threads, |pool| {
                    for (perm, flip) in &transitions {
                        blocks.permute_state(perm, *flip, pool);
                    }
                });
                let label = format!("relayout n={n} L={} threads={threads}", spec.local_qubits);
                assert_bits_eq(&blocks.gather_state(), &scatter.gather_state(), &label);
                // Cost accounting must agree too (shared charge helper).
                let got = blocks.report();
                prop_assert_eq!(got.bytes_intra, want.bytes_intra);
                prop_assert_eq!(got.bytes_inter, want.bytes_inter);
                prop_assert_eq!(got.comm_secs.to_bits(), want.comm_secs.to_bits());
            }
        }
    }

    /// Shard-local and relabel-only transitions (the in-place and
    /// handle-shuffle fast paths) also match the scatter oracle, on every
    /// relayout shape and pool size.
    #[test]
    fn local_and_relabel_permutations_match_scatter_bitwise(
        seed in any::<u64>(),
        local_flip in any::<u64>(),
        high_flip in any::<u64>(),
    ) {
        for (n, spec) in relayout_shapes() {
            let l = spec.local_qubits;
            let reference = dense_state(n, seed);

            // Low-closed permutation: shuffle bits 0..l and l..n separately.
            let mut map: Vec<u32> = (0..n).collect();
            let mut s = seed | 1;
            shuffle(&mut map[..l as usize], &mut s);
            shuffle(&mut map[l as usize..], &mut s);
            let low_closed = QubitPermutation::from_map(map);
            let low_mask = (1u64 << l) - 1;
            let high_mask = ((1u64 << n) - 1) & !low_mask;
            let identity = QubitPermutation::identity(n as usize);
            let cases = [
                ("low-closed", &low_closed, (local_flip & low_mask) | (high_flip & high_mask)),
                // Pure relabel: identity permutation, only high flip bits.
                ("relabel", &identity, high_flip & high_mask),
            ];
            for (name, perm, flip) in cases {
                let mut scatter = Machine::with_state(spec, CostModel::default(), &reference);
                scatter.permute_state_scatter(perm, flip);
                for threads in THREADS {
                    let mut blocks = Machine::with_state(spec, CostModel::default(), &reference);
                    with_pool(threads, |pool| blocks.permute_state(perm, flip, pool));
                    assert_bits_eq(
                        &blocks.gather_state(),
                        &scatter.gather_state(),
                        &format!("{name} n={n} L={l} threads={threads}"),
                    );
                }
            }
        }
    }

    /// The closed-form interconnect charge equals the one re-derived from
    /// a walk over every amplitude, bit for bit, on random machine shapes
    /// (DRAM-offloading ones included), permutations and flips.
    #[test]
    fn closed_form_charge_matches_per_amplitude_walk(
        n in 1u32..11,
        shape in any::<u64>(),
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let l = 1 + (shape % n as u64) as u32;
        let g = ((shape >> 8) % (n - l + 1) as u64) as u32;
        let spec = MachineSpec {
            nodes: 1 << g,
            gpus_per_node: 1 << ((shape >> 16) % 4),
            local_qubits: l,
        };
        let mut map: Vec<u32> = (0..n).collect();
        let mut s = seed | 1;
        shuffle(&mut map, &mut s);
        let perm = QubitPermutation::from_map(map);
        let flip = flip & ((1u64 << n) - 1);

        let cost = CostModel::default();
        let mut dry = Machine::new(spec, cost.clone(), n, true);
        dry.permute_state(&perm, flip, &Pool::SERIAL);
        let got = dry.report();
        let want = walked_charge(&spec, n, &perm, flip, &cost);
        let shape = format!("n={n} L={l} {}x{}", spec.nodes, spec.gpus_per_node);
        prop_assert_eq!(got.per_step.len(), 1);
        prop_assert_eq!(
            (&shape, got.bytes_intra, got.bytes_inter, got.comm_secs.to_bits()),
            (&shape, want.bytes_intra, want.bytes_inter, want.comm.to_bits())
        );
    }
}
