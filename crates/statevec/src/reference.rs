//! The reference simulator and the kernel oracles — everything the
//! production kernels are *tested against*, in one place.
//!
//! * [`simulate_reference`] / [`apply_gate`] — gate-by-gate, single-
//!   threaded simulation on the full state vector: the golden model the
//!   distributed executor is validated against.
//! * `apply_*_generic` — the allocation-per-call gather → multiply →
//!   scatter **oracles** of the structural kernels in [`crate::apply`].
//!   They never dispatch on layout and never thread; every production
//!   layout and thread count is pinned byte-identical to them by
//!   `tests/hotpath_exactness.rs`, and the hotpath bench measures the gap.
//! * [`fuse_by_expansion`] — the expand-and-multiply oracle of gate
//!   fusion: each gate embedded into a full `2^k × 2^k` matrix and
//!   multiplied onto the product so far. [`crate::fused::fuse_gates`] and
//!   the executor's per-shard program build are pinned bit-identical to it.
//!
//! Nothing in this module calls into [`crate::apply`]: a bug in a
//! production kernel can never be on both sides of a differential.

use crate::state::StateVector;
use atlas_circuit::{Circuit, Gate, GateKind};
use atlas_qmath::{deposit_bits, extract_bits, insert_bit, insert_bits, Complex64, Matrix};

/// Reference simulation: applies every gate of `circuit` in order to the
/// `|0…0⟩` state, single-threaded. This is the golden model the distributed
/// executor is validated against.
pub fn simulate_reference(circuit: &Circuit) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    for g in circuit.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}

/// Applies a gate, dispatching to the most specialized kernel available.
pub fn apply_gate(amps: &mut [Complex64], gate: &Gate) {
    use GateKind::*;
    let qs = gate.qubits.as_slice();
    match gate.kind {
        Swap => apply_swap(amps, qs[0], qs[1]),
        CX => apply_controlled_1q(amps, 1 << qs[0], qs[1], &X.matrix()),
        CY => apply_controlled_1q(amps, 1 << qs[0], qs[1], &Y.matrix()),
        CH => apply_controlled_1q(amps, 1 << qs[0], qs[1], &H.matrix()),
        CRX(t) => apply_controlled_1q(amps, 1 << qs[0], qs[1], &RX(t).matrix()),
        CRY(t) => apply_controlled_1q(amps, 1 << qs[0], qs[1], &RY(t).matrix()),
        CCX => apply_controlled_1q(amps, (1 << qs[0]) | (1 << qs[1]), qs[2], &X.matrix()),
        // Fredkin: swap conditioned on control — use the general path.
        CSwap => apply_matrix_generic(amps, qs, &gate.matrix()),
        _ => {
            let m = gate.matrix();
            if let Some(diag) = diagonal_of(&m) {
                if qs.len() == 1 {
                    apply_1q_diag(amps, qs[0], diag[0], diag[1]);
                } else {
                    apply_diag(amps, qs, &diag);
                }
            } else if qs.len() == 1 {
                apply_1q(amps, qs[0], &m);
            } else {
                apply_matrix_generic(amps, qs, &m);
            }
        }
    }
}

/// Extracts the diagonal of a matrix if it is diagonal; `None` otherwise.
fn diagonal_of(m: &Matrix) -> Option<Vec<Complex64>> {
    if !m.is_diagonal(1e-14) {
        return None;
    }
    Some((0..m.rows()).map(|i| m[(i, i)]).collect())
}

/// Applies a general single-qubit unitary to qubit `q`.
///
/// Complexity: one fused 2×2 multiply per amplitude pair (`2^{n-1}`
/// pairs), strided so the pair partner sits `2^q` elements away.
fn apply_1q(amps: &mut [Complex64], q: u32, m: &Matrix) {
    let (u00, u01, u10, u11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
    let half = amps.len() / 2;
    let stride = 1usize << q;
    for i in 0..half as u64 {
        let i0 = insert_bit(i, q) as usize;
        let i1 = i0 + stride;
        let a0 = amps[i0];
        let a1 = amps[i1];
        amps[i0] = u00.mul_add(a0, u01 * a1);
        amps[i1] = u10.mul_add(a0, u11 * a1);
    }
}

/// Applies a diagonal single-qubit gate `diag(d0, d1)` to qubit `q`.
fn apply_1q_diag(amps: &mut [Complex64], q: u32, d0: Complex64, d1: Complex64) {
    let bit = 1usize << q;
    let trivial0 = d0.approx_eq(Complex64::ONE, 0.0);
    for (i, a) in amps.iter_mut().enumerate() {
        if i & bit != 0 {
            *a *= d1;
        } else if !trivial0 {
            *a *= d0;
        }
    }
}

/// Applies a diagonal gate over `qubits`: amplitude `i` is scaled by
/// `diag[extract_bits(i, qubits)]`.
fn apply_diag(amps: &mut [Complex64], qubits: &[u32], diag: &[Complex64]) {
    for (i, a) in amps.iter_mut().enumerate() {
        *a *= diag[extract_bits(i as u64, qubits) as usize];
    }
}

/// Applies a single-qubit unitary `u` on `target`, controlled on all bits of
/// `control_mask` being 1.
fn apply_controlled_1q(amps: &mut [Complex64], control_mask: u64, target: u32, u: &Matrix) {
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    let tbit = 1usize << target;
    let cmask = control_mask as usize;
    for i0 in 0..amps.len() {
        if i0 & cmask == cmask && i0 & tbit == 0 {
            let i1 = i0 | tbit;
            let a0 = amps[i0];
            let a1 = amps[i1];
            amps[i0] = u00.mul_add(a0, u01 * a1);
            amps[i1] = u10.mul_add(a0, u11 * a1);
        }
    }
}

/// Swaps qubits `a` and `b`.
fn apply_swap(amps: &mut [Complex64], a: u32, b: u32) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for i in 0..amps.len() {
        // Visit each mismatched pair once: a-bit set, b-bit clear.
        if i & abit != 0 && i & bbit == 0 {
            amps.swap(i, (i & !abit) | bbit);
        }
    }
}

/// Embeds a gate unitary `m` (over `gate_qubits`, matrix bit `t` =
/// `gate_qubits[t]`) into the space of `kernel_qubits` (kernel bit `t` =
/// `kernel_qubits[t]`). Every gate qubit must appear in the kernel set.
fn expand_to_kernel(kernel_qubits: &[u32], gate_qubits: &[u32], m: &Matrix) -> Matrix {
    let kk = kernel_qubits.len();
    let kg = gate_qubits.len();
    assert_eq!(m.rows(), 1 << kg);
    // Position of each gate qubit inside the kernel index.
    let pos: Vec<u32> = gate_qubits
        .iter()
        .map(|q| {
            kernel_qubits
                .iter()
                .position(|kq| kq == q)
                .expect("gate qubit not in kernel") as u32
        })
        .collect();
    let dim = 1usize << kk;
    let mut out = Matrix::zeros(dim, dim);
    let gate_mask: u64 = pos.iter().fold(0, |acc, &p| acc | (1u64 << p));
    for row in 0..dim as u64 {
        let r_sub = extract_bits(row, &pos) as usize;
        let fixed = row & !gate_mask;
        for c_sub in 0..1u64 << kg {
            // Scatter c_sub back onto the gate bit positions.
            let mut col = fixed;
            for (t, &p) in pos.iter().enumerate() {
                col |= ((c_sub >> t) & 1) << p;
            }
            out[(row as usize, col as usize)] = m[(r_sub, c_sub as usize)];
        }
    }
    out
}

/// The expand-and-multiply fusion oracle: multiplies `parts` — gate
/// unitaries paired with their qubits, in program order — into one
/// unitary over `kernel_qubits` by embedding each into a full
/// `2^k × 2^k` matrix and multiplying it onto the product so far.
/// Allocates two matrices per part; the production path
/// ([`crate::fused::fuse_gate_into`]) does neither.
pub fn fuse_by_expansion<'a>(
    kernel_qubits: &[u32],
    parts: impl IntoIterator<Item = (&'a [u32], Matrix)>,
) -> Matrix {
    let mut acc = Matrix::identity(1 << kernel_qubits.len());
    for (qs, m) in parts {
        acc = &expand_to_kernel(kernel_qubits, qs, &m) * &acc;
    }
    acc
}

/// The generic gather → dense multiply → scatter oracle for
/// [`crate::apply::apply_matrix`]: allocates its buffers per call and
/// never takes a specialized path.
pub fn apply_matrix_generic(amps: &mut [Complex64], qubits: &[u32], m: &Matrix) {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    let mut sorted: Vec<u32> = qubits.to_vec();
    sorted.sort_unstable();
    let groups = amps.len() >> k;
    let dim = 1usize << k;
    let mut inbuf = vec![Complex64::ZERO; dim];
    let mut outbuf = vec![Complex64::ZERO; dim];
    // Precompute the in-group offsets once: offset[x] places the matrix
    // basis index x onto the amplitude index bits.
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, qubits)).collect();
    for g in 0..groups as u64 {
        let base = insert_bits(g, &sorted);
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        m.mul_vec_into(&inbuf, &mut outbuf);
        for (x, off) in offsets.iter().enumerate() {
            amps[(base | off) as usize] = outbuf[x];
        }
    }
}

/// The allocation-per-call reference oracle for [`crate::apply::apply_permutation`].
pub fn apply_permutation_generic(
    amps: &mut [Complex64],
    qubits: &[u32],
    dst: &[u32],
    phase: &[Complex64],
) {
    let k = qubits.len();
    let dim = 1usize << k;
    assert_eq!(dst.len(), dim);
    assert_eq!(phase.len(), dim);
    let mut sorted: Vec<u32> = qubits.to_vec();
    sorted.sort_unstable();
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, qubits)).collect();
    // out_off[x] is where basis index x lands after the permutation.
    let out_off: Vec<u64> = dst.iter().map(|&d| offsets[d as usize]).collect();
    let groups = amps.len() >> k;
    let mut inbuf = vec![Complex64::ZERO; dim];
    for g in 0..groups as u64 {
        let base = insert_bits(g, &sorted);
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        for (x, off) in out_off.iter().enumerate() {
            amps[(base | off) as usize] = phase[x] * inbuf[x];
        }
    }
}

/// The allocation-per-call reference oracle for
/// [`crate::apply::apply_controlled_matrix`].
pub fn apply_controlled_matrix_generic(
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
) {
    let kt = targets.len();
    assert_eq!(m.rows(), 1 << kt, "matrix size does not match target count");
    let cmask: u64 = controls.iter().fold(0, |acc, &c| acc | (1u64 << c));
    // Iterate the subspace directly: groups enumerate the bits outside
    // controls ∪ targets, with every control bit forced to 1.
    let mut all: Vec<u32> = controls.iter().chain(targets).copied().collect();
    all.sort_unstable();
    let dim = 1usize << kt;
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, targets)).collect();
    let groups = amps.len() >> all.len();
    let mut inbuf = vec![Complex64::ZERO; dim];
    let mut outbuf = vec![Complex64::ZERO; dim];
    for g in 0..groups as u64 {
        let base = insert_bits(g, &all) | cmask;
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        m.mul_vec_into(&inbuf, &mut outbuf);
        for (x, off) in offsets.iter().enumerate() {
            amps[(base | off) as usize] = outbuf[x];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies every gate through the *generic oracle* path only.
    fn run_general(c: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(c.num_qubits());
        for g in c.gates() {
            apply_matrix_generic(sv.amplitudes_mut(), g.qubits.as_slice(), &g.matrix());
        }
        sv
    }

    #[test]
    fn h_creates_superposition() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = simulate_reference(&c);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(sv.amplitudes()[0].approx_eq(Complex64::real(s), 1e-12));
        assert!(sv.amplitudes()[1].approx_eq(Complex64::real(s), 1e-12));
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = simulate_reference(&c);
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(3) - 0.5).abs() < 1e-12);
        assert!(sv.probability(1) < 1e-12);
        assert!(sv.probability(2) < 1e-12);
    }

    #[test]
    fn ghz_on_five_qubits() {
        let c = atlas_circuit::generators::ghz(5);
        let sv = simulate_reference(&c);
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(31) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn specialized_paths_match_general_path() {
        use GateKind::*;
        let kinds: Vec<(GateKind, Vec<u32>)> = vec![
            (H, vec![2]),
            (X, vec![0]),
            (Z, vec![3]),
            (T, vec![1]),
            (RZ(0.77), vec![2]),
            (P(1.3), vec![0]),
            (RX(0.4), vec![1]),
            (CX, vec![0, 3]),
            (CX, vec![3, 1]),
            (CZ, vec![1, 2]),
            (CP(0.9), vec![2, 0]),
            (CRY(1.7), vec![0, 2]),
            (CRZ(0.33), vec![3, 0]),
            (Swap, vec![0, 3]),
            (RZZ(0.5), vec![1, 3]),
            (RXX(0.8), vec![0, 2]),
            (CCX, vec![0, 2, 3]),
            (CCZ, vec![1, 2, 0]),
            (CSwap, vec![2, 0, 3]),
        ];
        // Build one circuit that layers everything, preceded by H-walls so
        // the state is dense.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
            c.t(q);
        }
        for (k, qs) in kinds {
            c.push(Gate::new(k, &qs));
        }
        let fast = simulate_reference(&c);
        let gen = run_general(&c);
        assert!(
            fast.approx_eq(&gen, 1e-10),
            "specialized dispatch diverged from general path: max diff {}",
            fast.max_abs_diff(&gen)
        );
        assert!(fast.is_normalized(1e-9));
    }

    #[test]
    fn expand_identity_gate() {
        let id = Matrix::identity(2);
        let big = expand_to_kernel(&[4, 7, 9], &[7], &id);
        assert!(big.approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn expanded_gate_is_unitary() {
        let m = GateKind::CRY(0.7).matrix();
        let big = expand_to_kernel(&[1, 3, 5, 8], &[5, 1], &m);
        assert!(big.is_unitary(1e-9));
    }

    #[test]
    #[should_panic(expected = "not in kernel")]
    fn gate_outside_kernel_panics() {
        let _ = expand_to_kernel(&[0, 1], &[2], &GateKind::H.matrix());
    }

    #[test]
    fn gate_order_convention_control_is_bit0() {
        // CX with control=1, target=0 applied to |01⟩ (qubit0=1? no:
        // index 2 = qubit1 set) must flip qubit 0.
        let mut sv = StateVector::basis_state(2, 2); // qubit1 = 1
        let g = Gate::new(GateKind::CX, &[1, 0]);
        apply_gate(sv.amplitudes_mut(), &g);
        assert!((sv.probability(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_across_families() {
        for fam in atlas_circuit::generators::Family::table1() {
            let c = fam.generate(6);
            let sv = simulate_reference(&c);
            assert!(sv.is_normalized(1e-8), "{fam:?} broke normalization");
        }
    }
}
