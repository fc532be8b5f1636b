//! The greedy kernelization baseline of §VII-E: walk the gate sequence,
//! packing gates into fusion kernels of up to `max_qubits` (5 is the most
//! cost-efficient size under the default cost model); start a new kernel
//! whenever the next gate would overflow.

use super::{mask_to_qubits, KGate, KernelCost, Kernelization};
use crate::plan::{Kernel, KernelKind};

/// Runs the greedy *hybrid* packer (HyQuas-style): groups gates
/// contiguously up to `max_qubits`, then realizes each group as whichever
/// of fusion / shared-memory is cheaper.
pub fn run_hybrid(gates: &[KGate], cost: &KernelCost, max_qubits: u32) -> Kernelization {
    let max_qubits = max_qubits.min(cost.max_shm.max(cost.max_fusion));
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut mask = 0u64;
    let mut shm_sum = 0.0;
    let mut total = 0.0;
    let mut flush = |cur: &mut Vec<usize>, mask: &mut u64, shm_sum: &mut f64, total: &mut f64| {
        if !cur.is_empty() {
            let q = mask.count_ones();
            let f = (q <= cost.max_fusion).then(|| cost.fusion(q));
            let s = (q <= cost.max_shm).then(|| cost.shm(*shm_sum));
            let (kind, c) = match (f, s) {
                (Some(a), Some(b)) if a <= b => (KernelKind::Fusion, a),
                (_, Some(b)) => (KernelKind::SharedMemory, b),
                (Some(a), None) => (KernelKind::Fusion, a),
                (None, None) => unreachable!("group capacity enforced"),
            };
            *total += c;
            kernels.push(Kernel {
                gates: std::mem::take(cur),
                kind,
                qubits: mask_to_qubits(*mask),
            });
            *mask = 0;
            *shm_sum = 0.0;
        }
    };
    for (j, gate) in gates.iter().enumerate() {
        if (mask | gate.mask).count_ones() > max_qubits {
            flush(&mut cur, &mut mask, &mut shm_sum, &mut total);
        }
        mask |= gate.mask;
        shm_sum += gate.shm_ns;
        cur.push(j);
    }
    flush(&mut cur, &mut mask, &mut shm_sum, &mut total);
    Kernelization {
        kernels,
        cost: total,
        search: Default::default(),
    }
}

/// Runs the greedy packer.
pub fn run(gates: &[KGate], cost: &KernelCost, max_qubits: u32) -> Kernelization {
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut mask = 0u64;
    let mut total = 0.0;
    let mut flush = |cur: &mut Vec<usize>, mask: &mut u64, total: &mut f64| {
        if !cur.is_empty() {
            *total += cost.fusion(mask.count_ones());
            kernels.push(Kernel {
                gates: std::mem::take(cur),
                kind: KernelKind::Fusion,
                qubits: mask_to_qubits(*mask),
            });
            *mask = 0;
        }
    };
    for (j, gate) in gates.iter().enumerate() {
        if (mask | gate.mask).count_ones() > max_qubits {
            flush(&mut cur, &mut mask, &mut total);
        }
        mask |= gate.mask;
        cur.push(j);
    }
    flush(&mut cur, &mut mask, &mut total);
    Kernelization {
        kernels,
        cost: total,
        search: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kc() -> KernelCost {
        KernelCost::from_machine(&atlas_machine::CostModel::default())
    }

    #[test]
    fn packs_up_to_limit() {
        let gates: Vec<KGate> = (0..10)
            .map(|q| KGate {
                mask: 1 << q,
                shm_ns: 0.004,
            })
            .collect();
        let out = run(&gates, &kc(), 5);
        assert_eq!(out.kernels.len(), 2);
        assert_eq!(out.kernels[0].qubits.len(), 5);
    }

    #[test]
    fn repeated_qubits_pack_into_one() {
        let gates: Vec<KGate> = (0..30)
            .map(|i| KGate {
                mask: 0b11 << (i % 2),
                shm_ns: 0.004,
            })
            .collect();
        let out = run(&gates, &kc(), 5);
        assert_eq!(out.kernels.len(), 1, "all gates fit in a 3-qubit kernel");
    }
}
