//! ORDERED KERNELIZE (Appendix A, Algorithm 5): the `O(|C|²)` dynamic
//! program over *contiguous* gate segments — "Atlas-Naive" in the
//! appendix figures. Optimal for Problem 1 restricted to the given gate
//! ordering (and therefore an upper bound certificate for KERNELIZE,
//! Theorem 6).

use super::{mask_to_qubits, KGate, KernelCost, Kernelization};
use crate::plan::{Kernel, KernelKind};

/// Cheapest realization (kind, cost) of the segment summary, if any.
fn segment_cost(cost: &KernelCost, qubits: u32, shm_sum: f64) -> Option<(KernelKind, f64)> {
    let f = (qubits <= cost.max_fusion).then(|| cost.fusion(qubits));
    let s = (qubits <= cost.max_shm).then(|| cost.shm(shm_sum));
    match (f, s) {
        (Some(a), Some(b)) if a <= b => Some((KernelKind::Fusion, a)),
        (_, Some(b)) => Some((KernelKind::SharedMemory, b)),
        (Some(a), None) => Some((KernelKind::Fusion, a)),
        (None, None) => None,
    }
}

/// Runs Algorithm 5.
pub fn run(gates: &[KGate], cost: &KernelCost) -> Kernelization {
    let n = gates.len();
    if n == 0 {
        return Kernelization {
            kernels: Vec::new(),
            cost: 0.0,
            search: Default::default(),
        };
    }
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut choice: Vec<(usize, KernelKind)> = vec![(0, KernelKind::Fusion); n + 1];
    dp[0] = 0.0;
    for i in 1..=n {
        // Extend the segment [j, i) backwards from j = i-1.
        let mut mask = 0u64;
        let mut shm = 0.0;
        for j in (0..i).rev() {
            mask |= gates[j].mask;
            shm += gates[j].shm_ns;
            let q = mask.count_ones();
            match segment_cost(cost, q, shm) {
                Some((kind, c)) => {
                    if dp[j] + c < dp[i] {
                        dp[i] = dp[j] + c;
                        choice[i] = (j, kind);
                    }
                }
                None => break, // wider segments only get worse
            }
        }
    }
    let mut kernels = Vec::new();
    let mut i = n;
    while i > 0 {
        let (j, kind) = choice[i];
        let mask = gates[j..i].iter().fold(0u64, |m, g| m | g.mask);
        kernels.push(Kernel {
            gates: (j..i).collect(),
            kind,
            qubits: mask_to_qubits(mask),
        });
        i = j;
    }
    kernels.reverse();
    Kernelization {
        kernels,
        cost: dp[n],
        search: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kc() -> KernelCost {
        KernelCost::from_machine(&atlas_machine::CostModel::default())
    }

    fn g(mask: u64) -> KGate {
        KGate {
            mask,
            shm_ns: 0.004,
        }
    }

    #[test]
    fn single_gate_single_kernel() {
        let out = run(&[g(0b1)], &kc());
        assert_eq!(out.kernels.len(), 1);
        assert!(out.cost > 0.0);
    }

    #[test]
    fn fusing_disjoint_gates_beats_separate_kernels() {
        // Five 1-qubit gates on distinct qubits fuse into one 5-qubit
        // kernel at the cost of a single pass.
        let gates: Vec<KGate> = (0..5).map(|q| g(1 << q)).collect();
        let out = run(&gates, &kc());
        assert_eq!(out.kernels.len(), 1);
        let single: f64 = gates.iter().map(|_| kc().fusion(1)).sum();
        assert!(out.cost < single);
    }

    #[test]
    fn matches_brute_force_on_small_inputs() {
        // Exhaustive segmentation of 8 gates: DP must equal the best.
        let gates: Vec<KGate> = [
            0b11u64, 0b110, 0b1001, 0b1, 0b11000, 0b100000, 0b110000, 0b1,
        ]
        .iter()
        .map(|&m| g(m))
        .collect();
        let cost = kc();
        let n = gates.len();
        // Enumerate all 2^(n-1) segmentations via cut bitmasks.
        let mut best = f64::INFINITY;
        for cuts in 0..(1u32 << (n - 1)) {
            let mut total = 0.0;
            let mut start = 0;
            let mut ok = true;
            for end in 1..=n {
                let boundary = end == n || cuts >> (end - 1) & 1 == 1;
                if boundary {
                    let mask = gates[start..end].iter().fold(0u64, |m, x| m | x.mask);
                    let shm: f64 = gates[start..end].iter().map(|x| x.shm_ns).sum();
                    match segment_cost(&cost, mask.count_ones(), shm) {
                        Some((_, c)) => total += c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                    start = end;
                }
            }
            if ok {
                best = best.min(total);
            }
        }
        let out = run(&gates, &cost);
        assert!(
            (out.cost - best).abs() < 1e-12,
            "dp {} vs brute {best}",
            out.cost
        );
    }

    #[test]
    fn kernels_partition_the_sequence() {
        let gates: Vec<KGate> = (0..20).map(|i| g(1 << (i % 7))).collect();
        let out = run(&gates, &kc());
        let mut covered: Vec<usize> = out.kernels.iter().flat_map(|k| k.gates.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..20).collect::<Vec<_>>());
    }
}
