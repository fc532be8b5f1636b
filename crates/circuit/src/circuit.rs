//! The circuit container: an ordered gate sequence over `n` qubits, with
//! dependency extraction and cached per-gate qubit masks.

use crate::gate::{Gate, GateKind};
use crate::insular;

/// A quantum circuit: `n` qubits and an ordered sequence of gates.
///
/// The sequence order is the program order used by the staging ILP and the
/// kernelization DP; two gates commute structurally when they share no
/// qubits (the algorithms additionally exploit insular-qubit commutation).
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    n: u32,
    gates: Vec<Gate>,
    name: String,
}

impl Circuit {
    /// The widest circuit the container accepts.
    pub const MAX_QUBITS: u32 = 4096;

    /// Creates an empty circuit over `n` qubits.
    ///
    /// The container itself is backend-agnostic and accepts up to
    /// [`Circuit::MAX_QUBITS`] qubits (the stabilizer tableau runs in
    /// polynomial space). The statevector planner enforces its own n ≤ 63
    /// bound — bitmask shard arithmetic — with a typed error at plan time.
    pub fn new(n: u32) -> Self {
        assert!(
            (1..=Self::MAX_QUBITS).contains(&n),
            "supported qubit range is 1..=4096"
        );
        Circuit {
            n,
            gates: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named circuit (name is carried through reports).
    pub fn named(n: u32, name: impl Into<String>) -> Self {
        let mut c = Circuit::new(n);
        c.name = name.into();
        c
    }

    /// Circuit name ("" if unset).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gate sequence.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate, validating qubit indices.
    pub fn push(&mut self, gate: Gate) {
        for q in gate.qubits.iter() {
            assert!(q < self.n, "gate qubit {q} out of range (n={})", self.n);
        }
        self.gates.push(gate);
    }

    /// Appends `kind` on `qubits`.
    pub fn add(&mut self, kind: GateKind, qubits: &[u32]) -> &mut Self {
        self.push(Gate::new(kind, qubits));
        self
    }

    // Convenience builders for the common gates.

    /// Hadamard on `q`.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.add(GateKind::H, &[q])
    }
    /// Pauli-X on `q`.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.add(GateKind::X, &[q])
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.add(GateKind::Y, &[q])
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.add(GateKind::Z, &[q])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.add(GateKind::T, &[q])
    }
    /// RX(θ) on `q`.
    pub fn rx(&mut self, theta: f64, q: u32) -> &mut Self {
        self.add(GateKind::RX(theta), &[q])
    }
    /// RY(θ) on `q`.
    pub fn ry(&mut self, theta: f64, q: u32) -> &mut Self {
        self.add(GateKind::RY(theta), &[q])
    }
    /// RZ(θ) on `q`.
    pub fn rz(&mut self, theta: f64, q: u32) -> &mut Self {
        self.add(GateKind::RZ(theta), &[q])
    }
    /// Phase(λ) on `q`.
    pub fn p(&mut self, lambda: f64, q: u32) -> &mut Self {
        self.add(GateKind::P(lambda), &[q])
    }
    /// CNOT with `control`, `target`.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.add(GateKind::CX, &[control, target])
    }
    /// Controlled-Z.
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.add(GateKind::CZ, &[a, b])
    }
    /// Controlled-phase(λ).
    pub fn cp(&mut self, lambda: f64, control: u32, target: u32) -> &mut Self {
        self.add(GateKind::CP(lambda), &[control, target])
    }
    /// SWAP.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.add(GateKind::Swap, &[a, b])
    }

    /// Dependency edges `E`: for every pair of gates adjacent on some qubit,
    /// the pair `(earlier_index, later_index)`. These are exactly the edges
    /// of constraint (8) in the staging ILP.
    pub fn dependencies(&self) -> Vec<(usize, usize)> {
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; self.n as usize];
        let mut edges = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            for q in g.qubits.iter() {
                if let Some(prev) = last_on_qubit[q as usize] {
                    edges.push((prev, i));
                }
                last_on_qubit[q as usize] = Some(i);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Circuit depth: longest chain of qubit-sharing gates.
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.n as usize];
        let mut max = 0;
        for g in &self.gates {
            let d = g
                .qubits
                .iter()
                .map(|q| qubit_depth[q as usize])
                .max()
                .unwrap_or(0)
                + 1;
            for q in g.qubits.iter() {
                qubit_depth[q as usize] = d;
            }
            max = max.max(d);
        }
        max
    }

    /// Per-gate masks of qubits that must be local (non-insular qubits),
    /// cached in one pass. Index-aligned with [`Circuit::gates`].
    pub fn non_insular_masks(&self) -> Vec<u64> {
        self.gates.iter().map(insular::non_insular_mask).collect()
    }

    /// Per-gate staging-locality masks (see [`insular::staging_mask`]).
    pub fn staging_masks(&self) -> Vec<u64> {
        self.gates.iter().map(insular::staging_mask).collect()
    }

    /// Histogram of gate names → count (for reports).
    pub fn gate_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for g in &self.gates {
            *counts.entry(g.kind.name()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Returns a structurally identical circuit with every gate
    /// parameter transformed by `f(gate_index, param_index, value)` —
    /// the re-parameterization primitive of plan-once/run-many sweeps
    /// (VQC/QAOA points share one partition plan; only angles change).
    ///
    /// Gate kinds, qubit wiring and program order are preserved exactly,
    /// so for generic parameter values the result has the same
    /// structural fingerprint as `self`. (A transform that lands a
    /// rotation exactly on an insularity special case such as `RX(π)`
    /// changes the fingerprint — measure zero in parameter space, and
    /// correctly rejected at execute time.)
    pub fn map_params(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> Circuit {
        let mut c = Circuit::named(self.n, self.name.clone());
        for (gi, g) in self.gates.iter().enumerate() {
            let params = g.kind.params();
            if params.is_empty() {
                c.push(*g);
                continue;
            }
            let mapped: Vec<f64> = params
                .iter()
                .enumerate()
                .map(|(pi, &p)| f(gi, pi, p))
                .collect();
            c.push(Gate::new(g.kind.with_params(&mapped), g.qubits.as_slice()));
        }
        c
    }

    /// Number of leading gates that are Clifford (see
    /// [`GateKind::is_clifford`]): `num_gates()` for an all-Clifford
    /// circuit, 0 when the very first gate is already non-Clifford —
    /// the index of the gate a forced stabilizer backend rejects.
    pub fn clifford_prefix_len(&self) -> usize {
        self.gates
            .iter()
            .position(|g| !g.kind.is_clifford())
            .unwrap_or(self.gates.len())
    }

    /// `true` when every gate is Clifford (the whole circuit can run on
    /// the stabilizer tableau backend).
    pub fn is_clifford(&self) -> bool {
        self.clifford_prefix_len() == self.num_gates()
    }

    /// Checks that `other` is a topologically equivalent reordering of this
    /// circuit: same multiset of gates and, for every pair of
    /// qubit-sharing gates, the same relative order.
    ///
    /// Used to validate kernelization output (Theorem 2).
    pub fn topologically_equivalent(&self, other: &Circuit) -> bool {
        if self.n != other.n || self.gates.len() != other.gates.len() {
            return false;
        }
        // Greedy matching: walk `other`'s gates; each must match the first
        // not-yet-consumed gate of `self` on each of its qubits.
        let mut next_on_qubit: Vec<std::collections::VecDeque<usize>> =
            vec![Default::default(); self.n as usize];
        for (i, g) in self.gates.iter().enumerate() {
            for q in g.qubits.iter() {
                next_on_qubit[q as usize].push_back(i);
            }
        }
        for g in &other.gates {
            // The candidate is the front of every involved qubit's queue and
            // must be the same gate index on all of them.
            let mut candidate: Option<usize> = None;
            for q in g.qubits.iter() {
                match next_on_qubit[q as usize].front() {
                    Some(&i) => match candidate {
                        None => candidate = Some(i),
                        Some(c) if c == i => {}
                        _ => return false,
                    },
                    None => return false,
                }
            }
            let idx = match candidate {
                Some(i) => i,
                None => return false,
            };
            if self.gates[idx] != *g {
                return false;
            }
            for q in g.qubits.iter() {
                next_on_qubit[q as usize].pop_front();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2).cz(0, 2);
        c
    }

    #[test]
    fn push_validates_range() {
        let mut c = Circuit::new(2);
        c.h(1);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn dependencies_are_adjacent_pairs() {
        let c = sample();
        let deps = c.dependencies();
        // h(0)->cx(0,1) on q0; cx(0,1)->cx(1,2) on q1; cx(1,2)->t(2) on q2;
        // cx(0,1)->cz(0,2) on q0; t(2)->cz(0,2) on q2.
        assert_eq!(deps, vec![(0, 1), (1, 2), (1, 4), (2, 3), (3, 4)]);
    }

    #[test]
    fn depth_counts_longest_chain() {
        let c = sample();
        assert_eq!(c.depth(), 5); // fully serial chain here
        let mut par = Circuit::new(4);
        par.h(0).h(1).h(2).h(3);
        assert_eq!(par.depth(), 1);
    }

    #[test]
    fn topological_equivalence_accepts_commuting_swap() {
        let mut a = Circuit::new(3);
        a.h(0).h(1).cx(0, 1).t(2);
        // t(2) commutes with everything on qubits 0,1.
        let mut b = Circuit::new(3);
        b.t(2).h(1).h(0).cx(0, 1);
        assert!(a.topologically_equivalent(&b));
        assert!(b.topologically_equivalent(&a));
    }

    #[test]
    fn topological_equivalence_rejects_dependency_violation() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1).h(0);
        assert!(!a.topologically_equivalent(&b));
    }

    #[test]
    fn topological_equivalence_rejects_different_gates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.x(0);
        assert!(!a.topologically_equivalent(&b));
    }

    #[test]
    fn clifford_prefix_and_classification() {
        let c = sample(); // h, cx, cx, t, cz — t is the first non-Clifford
        assert_eq!(c.clifford_prefix_len(), 3);
        assert!(!c.is_clifford());
        let mut all = Circuit::new(3);
        all.h(0).cx(0, 1).cz(1, 2).swap(0, 2);
        assert!(all.is_clifford());
        assert_eq!(all.clifford_prefix_len(), 4);
        let mut none = Circuit::new(2);
        none.t(0).h(1);
        assert_eq!(none.clifford_prefix_len(), 0);
    }

    #[test]
    fn wide_circuits_construct_beyond_the_statevector_bound() {
        // 200-qubit GHZ-style chain: container-level ops (deps, depth,
        // prefix classification) must work; only the statevector
        // planner bounds n at 63.
        let mut c = Circuit::new(200);
        c.h(0);
        for q in 0..199 {
            c.cx(q, q + 1);
        }
        assert_eq!(c.num_gates(), 200);
        assert!(c.is_clifford());
        assert_eq!(c.depth(), 200);
    }

    #[test]
    fn histogram_counts() {
        let c = sample();
        let hist = c.gate_histogram();
        assert!(hist.contains(&("cx", 2)));
        assert!(hist.contains(&("h", 1)));
    }

    #[test]
    fn non_insular_masks_match_gate_table() {
        let c = sample();
        let masks = c.non_insular_masks();
        assert_eq!(masks[0], 1 << 0); // h
        assert_eq!(masks[1], 1 << 1); // cx target q1
        assert_eq!(masks[2], 1 << 2); // cx target q2
        assert_eq!(masks[3], 0); // t diagonal
        assert_eq!(masks[4], 0); // cz all-insular
    }
}
