//! The per-pattern oracle of `atlas_core::exec::build_stage_programs`.
//!
//! Builds a stage's shard programs the direct way: every fusion kernel is
//! fused once per distinct shard pattern, each insular-reduced gate
//! expanded to `2^k × 2^k` and multiplied onto the product
//! (`atlas_statevec::reference::fuse_by_expansion`). Scalars, scale
//! folding and shared-memory parts follow the production rules. The
//! production build shares gate prefixes between patterns and applies
//! gates to rows instead, then coalesces runs of unit-phase permutation
//! kernels; [`oracle_coalesced_programs`] redoes that last step naively,
//! one basis index and one qubit at a time. `tests/hotpath_exactness.rs`
//! pins the production build to the two op by op and bit for bit, and the
//! `hotpath` bench times the per-kernel programs against the coalesced
//! ones.
//!
//! Written against the member crates only, so both the integration tests
//! and `crates/bench` can include it with `#[path]`.

use atlas_circuit::{insular, Circuit, Gate};
use atlas_core::exec::{ReadBit, StagePlan};
use atlas_core::{Kernel, KernelKind};
use atlas_machine::{ShardOp, ShardProgram, ShmPartList};
use atlas_qmath::{Complex64, Matrix};
use atlas_statevec::reference::fuse_by_expansion;
use atlas_statevec::{classify_kernel, FastKernel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The shard bits of `shard` that `reads` look at.
fn pattern(reads: &[ReadBit], shard: u64, l: u32) -> u64 {
    reads
        .iter()
        .fold(0, |key, rb| key | (shard & (1 << (rb.phys - l))))
}

/// `gate` with every non-local qubit fixed to its value on `shard`.
fn reduce(gate: &Gate, reads: &[ReadBit], shard: u64, l: u32) -> Matrix {
    let mut m = gate.matrix();
    for rb in reads.iter().rev() {
        let b = ((shard >> (rb.phys - l)) & 1) as u8 ^ u8::from(rb.flip_snap);
        m = insular::fix_qubit(&m, rb.pos, b)
            .expect("non-local qubit must be insular")
            .matrix;
    }
    m
}

fn kernel_pattern(sp: &StagePlan, kernel: &Kernel, shard: u64, l: u32) -> u64 {
    kernel
        .gates
        .iter()
        .fold(0, |key, &t| key | pattern(&sp.templates[t].reads, shard, l))
}

/// The shard programs of one stage, built per pattern by the oracle.
pub fn oracle_stage_programs(
    circuit: &Circuit,
    sp: &StagePlan,
    l: u32,
    num_shards: usize,
) -> Vec<ShardProgram> {
    let mut scalars = vec![Complex64::ONE; num_shards];
    for st in &sp.scalars {
        let gate = &circuit.gates()[st.circuit_gate];
        for (s, acc) in scalars.iter_mut().enumerate() {
            *acc *= reduce(gate, &st.reads, s as u64, l)[(0, 0)];
        }
    }
    let mut pending: Vec<bool> = scalars
        .iter()
        .map(|sc| !sc.approx_eq(Complex64::ONE, 0.0))
        .collect();
    let mut programs: Vec<ShardProgram> = vec![Vec::new(); num_shards];
    for kernel in &sp.kernels {
        let qubits = Arc::new(kernel.qubits.clone());
        let mut fused = BTreeMap::new();
        let mut parts: BTreeMap<u64, Arc<ShmPartList>> = BTreeMap::new();
        for (s, prog) in programs.iter_mut().enumerate() {
            let key = kernel_pattern(sp, kernel, s as u64, l);
            let reduced = || {
                kernel.gates.iter().map(|&t| {
                    let tp = &sp.templates[t];
                    let gate = &circuit.gates()[tp.circuit_gate];
                    (
                        tp.local_phys.as_slice(),
                        reduce(gate, &tp.reads, s as u64, l),
                    )
                })
            };
            let mut scale = Complex64::ONE;
            match kernel.kind {
                KernelKind::Fusion => {
                    let kernel = fused
                        .entry(key)
                        .or_insert_with(|| {
                            Arc::new(classify_kernel(&fuse_by_expansion(
                                &kernel.qubits,
                                reduced(),
                            )))
                        })
                        .clone();
                    if pending[s] && kernel.can_fold_scale() {
                        scale = scalars[s];
                        pending[s] = false;
                    }
                    prog.push(ShardOp::Fusion {
                        qubits: qubits.clone(),
                        kernel,
                        scale,
                    });
                }
                KernelKind::SharedMemory => {
                    let parts = parts
                        .entry(key)
                        .or_insert_with(|| {
                            Arc::new(reduced().map(|(qs, m)| (qs.to_vec(), m)).collect())
                        })
                        .clone();
                    if pending[s] {
                        scale = scalars[s];
                        pending[s] = false;
                    }
                    prog.push(ShardOp::ShmParts { parts, scale });
                }
            }
        }
    }
    for (s, prog) in programs.iter_mut().enumerate() {
        if pending[s] {
            prog.push(ShardOp::Scale(scalars[s]));
        }
    }
    programs
}

/// The widest qubit union of a coalesced run on shards of `2^l`
/// amplitudes — the production build's private rule, restated: 11
/// qubits, and at most `l − 3`.
pub fn coalesce_cap(l: u32) -> usize {
    11.min(l.saturating_sub(3)) as usize
}

/// `true` if `z` is `Complex64::ONE` bit for bit (`+0.0` imaginary part).
fn is_one(z: &Complex64) -> bool {
    (z.re.to_bits(), z.im.to_bits()) == (1.0f64.to_bits(), 0.0f64.to_bits())
}

/// The qubits and permutation of `op` if it may join a run: an unscaled
/// fusion op whose kernel is a permutation with every phase exactly `ONE`.
fn run_member(op: &ShardOp) -> Option<(&[u32], &[u32])> {
    let ShardOp::Fusion {
        qubits,
        kernel,
        scale,
    } = op
    else {
        return None;
    };
    match &**kernel {
        FastKernel::Permutation { dst, phase } if is_one(scale) && phase.iter().all(is_one) => {
            Some((qubits.as_slice(), dst.as_slice()))
        }
        _ => None,
    }
}

/// Where a run of permutations sends basis state `x` of `union`, applied
/// one kernel at a time on an explicit qubit → bit assignment.
fn compose_naively(union: &[u32], members: &[(&[u32], &[u32])], x: usize) -> u32 {
    let mut bits: BTreeMap<u32, usize> = union
        .iter()
        .enumerate()
        .map(|(t, &q)| (q, (x >> t) & 1))
        .collect();
    for (qubits, dst) in members {
        let from = qubits
            .iter()
            .enumerate()
            .map(|(t, q)| bits[q] << t)
            .sum::<usize>();
        let to = dst[from] as usize;
        for (t, q) in qubits.iter().enumerate() {
            bits.insert(*q, (to >> t) & 1);
        }
    }
    union
        .iter()
        .enumerate()
        .map(|(t, q)| (bits[q] << t) as u32)
        .sum()
}

/// `programs` with every maximal run of two or more adjacent [`run_member`]
/// ops — cut where its qubit union would pass `cap` — replaced by one
/// `FastKernel::Relabel` op over the ascending union. Shards whose runs
/// hold the same kernels (by `Arc`) share one relabel.
pub fn oracle_coalesced_programs(programs: &[ShardProgram], cap: usize) -> Vec<ShardProgram> {
    let mut shared: BTreeMap<Vec<usize>, ShardOp> = BTreeMap::new();
    let mut out = Vec::new();
    for prog in programs {
        let mut coalesced = Vec::new();
        let mut i = 0;
        while i < prog.len() {
            let mut union: Vec<u32> = Vec::new();
            let mut j = i;
            while let Some((qubits, _)) = prog.get(j).and_then(run_member) {
                let mut wider = union.clone();
                wider.extend(qubits);
                wider.sort_unstable();
                wider.dedup();
                if j > i && wider.len() > cap {
                    break;
                }
                union = wider;
                j += 1;
            }
            if j - i < 2 {
                coalesced.push(prog[i].clone());
                i += 1;
                continue;
            }
            let key: Vec<usize> = prog[i..j]
                .iter()
                .map(|op| match op {
                    ShardOp::Fusion { kernel, .. } => Arc::as_ptr(kernel) as usize,
                    _ => unreachable!(),
                })
                .collect();
            let op = shared.entry(key).or_insert_with(|| {
                let members: Vec<_> = prog[i..j].iter().filter_map(run_member).collect();
                let dst = (0..1usize << union.len())
                    .map(|x| compose_naively(&union, &members, x))
                    .collect();
                ShardOp::Fusion {
                    qubits: Arc::new(union),
                    kernel: Arc::new(FastKernel::Relabel { dst }),
                    scale: Complex64::ONE,
                }
            });
            coalesced.push(op.clone());
            i = j;
        }
        out.push(coalesced);
    }
    out
}
