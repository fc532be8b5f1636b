//! The per-pattern oracle of `atlas_core::exec::build_stage_programs`.
//!
//! Builds a stage's shard programs the direct way: every fusion kernel is
//! fused once per distinct shard pattern, each insular-reduced gate
//! expanded to `2^k × 2^k` and multiplied onto the product
//! (`atlas_statevec::reference::fuse_by_expansion`). Scalars, scale
//! folding and shared-memory parts follow the production rules. The
//! production build shares gate prefixes between patterns and applies
//! gates to rows instead; `tests/hotpath_exactness.rs` pins it to this
//! oracle op by op and bit for bit, and the `hotpath` bench times the two.
//!
//! Written against the member crates only, so both the integration tests
//! and `crates/bench` can include it with `#[path]`.

use atlas_circuit::{insular, Circuit, Gate};
use atlas_core::exec::{ReadBit, StagePlan};
use atlas_core::{Kernel, KernelKind};
use atlas_machine::{ShardOp, ShardProgram, ShmPartList};
use atlas_qmath::{Complex64, Matrix};
use atlas_statevec::classify_kernel;
use atlas_statevec::reference::fuse_by_expansion;
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
