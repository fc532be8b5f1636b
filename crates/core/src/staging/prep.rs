//! Staging presolve: reduce the circuit to the gates that actually
//! constrain staging.
//!
//! Gates whose qubits are all insular (CZ, CP, T, RZ, …) impose no locality
//! constraint — they can run in any stage their dependencies allow — so
//! they are dropped from the optimization model and re-inserted during
//! extraction. Dependencies are projected onto the kept gates transitively
//! through dropped ones. Adjacent kept gates with identical non-insular
//! masks (separated only by dropped gates acting inside their qubit sets)
//! are merged, which is cost- and feasibility-preserving.

use atlas_circuit::Circuit;

/// One optimization item: a (possibly merged) run of kept gates sharing a
/// non-insular qubit mask.
#[derive(Clone, Debug)]
pub struct StagingItem {
    /// Non-insular qubit mask (never 0 for kept items).
    pub mask: u64,
    /// Original gate indices folded into this item.
    pub orig: Vec<usize>,
}

/// The reduced staging problem.
#[derive(Clone, Debug)]
pub struct StagingProblem {
    /// Circuit width.
    pub n: u32,
    /// Local qubit count.
    pub l: u32,
    /// Global qubit count.
    pub g: u32,
    /// Inter-node cost factor `c` of Eq. 2.
    pub c_factor: i64,
    /// Kept items in program order.
    pub items: Vec<StagingItem>,
    /// Dependency edges between items (earlier, later), transitively closed
    /// through dropped gates; deduplicated.
    pub deps: Vec<(usize, usize)>,
    /// Per-gate non-insular masks of the *original* circuit (for
    /// extraction and validation).
    pub gate_masks: Vec<u64>,
}

impl StagingProblem {
    /// Builds the reduced problem. `R` is implied (`n - l - g`).
    pub fn build(circuit: &Circuit, l: u32, g: u32, c_factor: i64) -> Self {
        let n = circuit.num_qubits();
        assert!(l + g <= n, "L + G must not exceed n");
        let gate_masks = circuit.staging_masks();
        for (gi, &m) in gate_masks.iter().enumerate() {
            assert!(
                m.count_ones() <= l,
                "gate {gi} needs {} local qubits but L = {l}",
                m.count_ones()
            );
        }

        // Kept gates and merge pass. `pending_between` tracks the union of
        // qubits of gates seen since the last kept gate; a new kept gate
        // merges into the previous item only when its mask matches and
        // everything in between acted inside the merged item's qubit span.
        let mut items: Vec<StagingItem> = Vec::new();
        let mut last_item_full_qubits: u64 = 0;
        let mut between: u64 = 0;
        // For dependency projection: per qubit, the set of items that the
        // next gate on this qubit depends on.
        let mut lastk: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
        let mut deps: Vec<(usize, usize)> = Vec::new();

        for (gi, gate) in circuit.gates().iter().enumerate() {
            let mask = gate_masks[gi];
            let qmask = gate.qubit_mask();
            if mask == 0 {
                // Dropped: chain dependencies through it.
                let mut union: Vec<usize> = Vec::new();
                for q in gate.qubits.iter() {
                    for &it in &lastk[q as usize] {
                        if !union.contains(&it) {
                            union.push(it);
                        }
                    }
                }
                for q in gate.qubits.iter() {
                    lastk[q as usize] = union.clone();
                }
                between |= qmask;
                continue;
            }
            // Mergeable into the previous item? Requires an identical mask
            // and that everything since that item acted inside the merged
            // qubit span (so the merge cannot reorder across other items).
            let mergeable = items
                .last()
                .map(|it| it.mask == mask && between & !(last_item_full_qubits | qmask) == 0)
                .unwrap_or(false);
            if mergeable {
                let idx = items.len() - 1;
                // The gate may still depend on older items through qubits
                // the previous item did not touch — record those edges.
                for q in gate.qubits.iter() {
                    for &prev in &lastk[q as usize] {
                        if prev != idx {
                            deps.push((prev, idx));
                        }
                    }
                }
                items[idx].orig.push(gi);
                last_item_full_qubits |= qmask;
                for q in gate.qubits.iter() {
                    lastk[q as usize] = vec![idx];
                }
                between = 0;
                continue;
            }
            let idx = items.len();
            for q in gate.qubits.iter() {
                for &prev in &lastk[q as usize] {
                    if prev != idx {
                        deps.push((prev, idx));
                    }
                }
            }
            items.push(StagingItem {
                mask,
                orig: vec![gi],
            });
            last_item_full_qubits = qmask;
            between = 0;
            for q in gate.qubits.iter() {
                lastk[q as usize] = vec![idx];
            }
        }
        deps.sort_unstable();
        deps.dedup();
        StagingProblem {
            n,
            l,
            g,
            c_factor,
            items,
            deps,
            gate_masks,
        }
    }

    /// Computes the maximal closure: starting from `done` (a bitset over
    /// items), marks every item executable with `local_mask` as done,
    /// honouring dependencies. `succs` must come from
    /// [`StagingProblem::successors`]; `indeg[i]` is the number of
    /// unfinished predecessors and is updated in place. Returns the newly
    /// finished item indices in program order.
    pub fn closure(
        &self,
        done: &mut [u64],
        indeg: &mut [u32],
        succs: &[Vec<usize>],
        local_mask: u64,
    ) -> Vec<usize> {
        let mut finished = Vec::new();
        let mut ready: Vec<usize> = (0..self.items.len())
            .filter(|&i| !bit(done, i) && indeg[i] == 0 && self.items[i].mask & !local_mask == 0)
            .collect();
        while let Some(i) = ready.pop() {
            if bit(done, i) {
                continue;
            }
            set_bit(done, i);
            finished.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 && !bit(done, j) && self.items[j].mask & !local_mask == 0 {
                    ready.push(j);
                }
            }
        }
        finished.sort_unstable();
        finished
    }

    /// Per-item successor lists (cached on first use would need interior
    /// mutability; callers that loop should call once and reuse).
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut s = vec![Vec::new(); self.items.len()];
        for &(a, b) in &self.deps {
            s[a].push(b);
        }
        s
    }

    /// Initial in-degrees.
    pub fn indegrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.items.len()];
        for &(_, b) in &self.deps {
            d[b] += 1;
        }
        d
    }
}

/// Bitset helpers over `Vec<u64>`.
pub fn bit(bs: &[u64], i: usize) -> bool {
    bs[i >> 6] >> (i & 63) & 1 == 1
}

/// Sets bit `i`.
pub fn set_bit(bs: &mut [u64], i: usize) {
    bs[i >> 6] |= 1 << (i & 63);
}

/// An all-zero bitset able to hold `len` bits.
pub fn zero_bits(len: usize) -> Vec<u64> {
    vec![0u64; len.div_ceil(64)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators;

    #[test]
    fn all_insular_gates_are_dropped() {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).t(2).cp(0.3, 1, 3).h(1);
        let p = StagingProblem::build(&c, 2, 1, 3);
        // Kept: h(0), h(1). cz/t/cp are all-insular.
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.items[0].mask, 1 << 0);
        assert_eq!(p.items[1].mask, 1 << 1);
        // h(1) depends on h(0) through cz(0,1).
        assert_eq!(p.deps, vec![(0, 1)]);
    }

    #[test]
    fn ising_triplets_merge() {
        // cx(0,1) rz(1) cx(0,1): the two cx share a mask {1} and the rz
        // in between acts inside the span → one item.
        let mut c = Circuit::new(2);
        c.cx(0, 1).rz(0.5, 1).cx(0, 1);
        let p = StagingProblem::build(&c, 1, 0, 3);
        assert_eq!(p.items.len(), 1);
        assert_eq!(p.items[0].orig, vec![0, 2]);
    }

    #[test]
    fn qft_reduces_to_h_items() {
        let c = generators::qft(8);
        let p = StagingProblem::build(&c, 4, 2, 3);
        // All CP gates are all-insular; only the 8 H gates remain.
        assert_eq!(p.items.len(), 8);
        assert!(p.items.iter().all(|it| it.mask.count_ones() == 1));
    }

    #[test]
    fn closure_respects_locality_and_deps() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2);
        let p = StagingProblem::build(&c, 1, 0, 3);
        assert_eq!(p.items.len(), 3);
        let mut done = zero_bits(p.items.len());
        let mut indeg = p.indegrees();
        let succs = p.successors();
        // Local = {0}: only h(0) can run (cx target 1 is non-local).
        let fin = p.closure(&mut done, &mut indeg, &succs, 1 << 0);
        assert_eq!(fin, vec![0]);
        // Local = {1}: now cx can run.
        let fin = p.closure(&mut done, &mut indeg, &succs, 1 << 1);
        assert_eq!(fin, vec![1]);
        // h(2) still blocked until qubit 2 local.
        let fin = p.closure(&mut done, &mut indeg, &succs, 1 << 2);
        assert_eq!(fin, vec![2]);
    }

    #[test]
    #[should_panic(expected = "local qubits but L")]
    fn oversized_gate_rejected() {
        let mut c = Circuit::new(3);
        c.swap(0, 1); // 2 non-insular qubits
        let _ = StagingProblem::build(&c, 1, 0, 3);
    }
}
