//! Gate kinds, their unitaries, and the `Gate` instance type.

use atlas_qmath::{Complex64, Matrix};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// The supported gate alphabet.
///
/// Parameterized rotations carry their angle. The set covers everything the
/// Table I / Table II benchmark families emit plus the common extras a
/// downstream user expects (`SX`, `U3`, `CSWAP`, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateKind {
    // --- single-qubit ---
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// S†.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// √X.
    SX,
    /// Rotation about X by θ.
    RX(f64),
    /// Rotation about Y by θ.
    RY(f64),
    /// Rotation about Z by θ.
    RZ(f64),
    /// Phase gate diag(1, e^{iλ}).
    P(f64),
    /// General single-qubit U(θ, φ, λ).
    U3(f64, f64, f64),
    // --- two-qubit; controls first in `Gate::qubits` ---
    /// Controlled-X. qubits = [control, target].
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-H.
    CH,
    /// Controlled phase diag(1,1,1,e^{iλ}).
    CP(f64),
    /// Controlled RX.
    CRX(f64),
    /// Controlled RY.
    CRY(f64),
    /// Controlled RZ.
    CRZ(f64),
    /// SWAP.
    Swap,
    /// ZZ interaction exp(-i θ/2 Z⊗Z).
    RZZ(f64),
    /// XX interaction exp(-i θ/2 X⊗X).
    RXX(f64),
    // --- three-qubit ---
    /// Toffoli. qubits = [c0, c1, target].
    CCX,
    /// Doubly-controlled Z.
    CCZ,
    /// Controlled SWAP (Fredkin). qubits = [control, t0, t1].
    CSwap,
    /// A stochastic Pauli-noise slot: applies I, X, Y or Z depending on
    /// the selector parameter (`sel.rem_euclid(4)` after rounding: 0 →
    /// I, 1 → X, 2 → Y, 3 → Z).
    ///
    /// Noise trajectories re-draw only the selector via
    /// `Circuit::map_params`, so every trajectory of a noisy circuit
    /// shares one structural fingerprint — the noisy-sweep equivalent
    /// of a parameter sweep. The insularity classifier treats the slot
    /// as non-insular regardless of the selector (see
    /// `insular::gate_insularity`), which keeps the compiled plan valid
    /// for all four Pauli outcomes.
    PauliNoise(f64),
}

impl GateKind {
    /// Number of qubits the gate acts on.
    pub fn arity(self) -> usize {
        use GateKind::*;
        match self {
            H | X | Y | Z | S | Sdg | T | Tdg | SX | RX(_) | RY(_) | RZ(_) | P(_) | U3(..)
            | PauliNoise(_) => 1,
            CX | CY | CZ | CH | CP(_) | CRX(_) | CRY(_) | CRZ(_) | Swap | RZZ(_) | RXX(_) => 2,
            CCX | CCZ | CSwap => 3,
        }
    }

    /// QASM-style lowercase mnemonic.
    pub fn name(self) -> &'static str {
        use GateKind::*;
        match self {
            H => "h",
            X => "x",
            Y => "y",
            Z => "z",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            SX => "sx",
            RX(_) => "rx",
            RY(_) => "ry",
            RZ(_) => "rz",
            P(_) => "p",
            U3(..) => "u3",
            CX => "cx",
            CY => "cy",
            CZ => "cz",
            CH => "ch",
            CP(_) => "cp",
            CRX(_) => "crx",
            CRY(_) => "cry",
            CRZ(_) => "crz",
            Swap => "swap",
            RZZ(_) => "rzz",
            RXX(_) => "rxx",
            CCX => "ccx",
            CCZ => "ccz",
            CSwap => "cswap",
            PauliNoise(_) => "pnoise",
        }
    }

    /// Which Pauli a noise selector resolves to: `sel.rem_euclid(4)`
    /// after rounding toward zero — 0 → I, 1 → X, 2 → Y, 3 → Z.
    ///
    /// Exposed so both backends and the trajectory sampler agree on
    /// the decoding without duplicating the arithmetic.
    pub fn pauli_noise_select(sel: f64) -> usize {
        (sel as i64).rem_euclid(4) as usize
    }

    /// `true` when the gate's unitary lies in the Clifford group for
    /// every parameter value it can take — the kinds the stabilizer
    /// tableau backend can replay. Parameterized rotations are excluded
    /// even at Clifford angles: dispatch is structural, so a sweep over
    /// angles must not flip backends mid-sweep.
    pub fn is_clifford(self) -> bool {
        use GateKind::*;
        matches!(
            self,
            H | X | Y | Z | S | Sdg | SX | CX | CY | CZ | Swap | PauliNoise(_)
        )
    }

    /// Gate parameters (rotation angles), in declaration order.
    pub fn params(self) -> Vec<f64> {
        use GateKind::*;
        match self {
            RX(t) | RY(t) | RZ(t) | P(t) | CP(t) | CRX(t) | CRY(t) | CRZ(t) | RZZ(t) | RXX(t)
            | PauliNoise(t) => {
                vec![t]
            }
            U3(a, b, c) => vec![a, b, c],
            _ => vec![],
        }
    }

    /// The same kind with its parameters replaced (in
    /// [`GateKind::params`] order). Parameterless kinds accept only an
    /// empty slice. This is the re-parameterization primitive behind
    /// plan-once/run-many sweeps: it can change angles but never the
    /// gate's arity, control structure, or cost class.
    ///
    /// # Panics
    /// If `params.len()` differs from the kind's parameter count.
    pub fn with_params(self, params: &[f64]) -> GateKind {
        use GateKind::*;
        let expect = self.params().len();
        assert_eq!(
            params.len(),
            expect,
            "{} takes {expect} parameter(s), got {}",
            self.name(),
            params.len()
        );
        match self {
            RX(_) => RX(params[0]),
            RY(_) => RY(params[0]),
            RZ(_) => RZ(params[0]),
            P(_) => P(params[0]),
            U3(..) => U3(params[0], params[1], params[2]),
            CP(_) => CP(params[0]),
            CRX(_) => CRX(params[0]),
            CRY(_) => CRY(params[0]),
            CRZ(_) => CRZ(params[0]),
            RZZ(_) => RZZ(params[0]),
            RXX(_) => RXX(params[0]),
            PauliNoise(_) => PauliNoise(params[0]),
            other => other,
        }
    }

    /// The base (uncontrolled) unitary for this kind. For controlled kinds
    /// this is the controlled matrix itself; see [`GateKind::matrix`].
    fn single_qubit_matrix(self) -> Option<Matrix> {
        use GateKind::*;
        let s = FRAC_1_SQRT_2;
        let m = match self {
            H => Matrix::from_reim(2, 2, &[(s, 0.0), (s, 0.0), (s, 0.0), (-s, 0.0)]),
            X => Matrix::from_reim(2, 2, &[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]),
            Y => Matrix::from_reim(2, 2, &[(0.0, 0.0), (0.0, -1.0), (0.0, 1.0), (0.0, 0.0)]),
            Z => Matrix::from_reim(2, 2, &[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (-1.0, 0.0)]),
            S => Matrix::from_reim(2, 2, &[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0)]),
            Sdg => Matrix::from_reim(2, 2, &[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, -1.0)]),
            T => {
                let t = Complex64::cis(std::f64::consts::FRAC_PI_4);
                Matrix::from_rows(
                    2,
                    2,
                    vec![Complex64::ONE, Complex64::ZERO, Complex64::ZERO, t],
                )
            }
            Tdg => {
                let t = Complex64::cis(-std::f64::consts::FRAC_PI_4);
                Matrix::from_rows(
                    2,
                    2,
                    vec![Complex64::ONE, Complex64::ZERO, Complex64::ZERO, t],
                )
            }
            SX => Matrix::from_reim(2, 2, &[(0.5, 0.5), (0.5, -0.5), (0.5, -0.5), (0.5, 0.5)]),
            RX(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_reim(2, 2, &[(c, 0.0), (0.0, -sn), (0.0, -sn), (c, 0.0)])
            }
            RY(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_reim(2, 2, &[(c, 0.0), (-sn, 0.0), (sn, 0.0), (c, 0.0)])
            }
            RZ(t) => {
                let e0 = Complex64::cis(-t / 2.0);
                let e1 = Complex64::cis(t / 2.0);
                Matrix::from_rows(2, 2, vec![e0, Complex64::ZERO, Complex64::ZERO, e1])
            }
            P(l) => Matrix::from_rows(
                2,
                2,
                vec![
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::cis(l),
                ],
            ),
            PauliNoise(sel) => match GateKind::pauli_noise_select(sel) {
                0 => Matrix::from_reim(2, 2, &[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]),
                1 => X.single_qubit_matrix().unwrap(),
                2 => Y.single_qubit_matrix().unwrap(),
                _ => Z.single_qubit_matrix().unwrap(),
            },
            U3(t, phi, lam) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                Matrix::from_rows(
                    2,
                    2,
                    vec![
                        Complex64::real(c),
                        Complex64::cis(lam).scale(-sn),
                        Complex64::cis(phi).scale(sn),
                        Complex64::cis(phi + lam).scale(c),
                    ],
                )
            }
            _ => return None,
        };
        Some(m)
    }

    /// Full `2^k × 2^k` unitary with the convention that basis-index bit `t`
    /// is qubit position `t` of the gate (`Gate::qubits[t]`).
    pub fn matrix(self) -> Matrix {
        use GateKind::*;
        if let Some(m) = self.single_qubit_matrix() {
            return m;
        }
        match self {
            CX => controlled(1, &X.single_qubit_matrix().unwrap()),
            CY => controlled(1, &Y.single_qubit_matrix().unwrap()),
            CZ => controlled(1, &Z.single_qubit_matrix().unwrap()),
            CH => controlled(1, &H.single_qubit_matrix().unwrap()),
            CP(l) => controlled(1, &P(l).single_qubit_matrix().unwrap()),
            CRX(t) => controlled(1, &RX(t).single_qubit_matrix().unwrap()),
            CRY(t) => controlled(1, &RY(t).single_qubit_matrix().unwrap()),
            CRZ(t) => controlled(1, &RZ(t).single_qubit_matrix().unwrap()),
            Swap => swap_matrix(),
            RZZ(t) => {
                let e = Complex64::cis(-t / 2.0);
                let f = Complex64::cis(t / 2.0);
                let mut m = Matrix::zeros(4, 4);
                // diag: parity of the two bits selects the phase sign.
                m[(0, 0)] = e;
                m[(1, 1)] = f;
                m[(2, 2)] = f;
                m[(3, 3)] = e;
                m
            }
            RXX(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                let ic = Complex64::real(c);
                let is = Complex64::new(0.0, -sn);
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = ic;
                m[(0, 3)] = is;
                m[(1, 1)] = ic;
                m[(1, 2)] = is;
                m[(2, 1)] = is;
                m[(2, 2)] = ic;
                m[(3, 0)] = is;
                m[(3, 3)] = ic;
                m
            }
            CCX => controlled(2, &X.single_qubit_matrix().unwrap()),
            CCZ => controlled(2, &Z.single_qubit_matrix().unwrap()),
            CSwap => controlled(1, &swap_matrix()),
            _ => unreachable!("single-qubit kinds handled above"),
        }
    }
}

/// Builds a controlled-U matrix with `nc` controls occupying the low bit
/// positions (qubit positions `0..nc`) and `U` on the remaining positions.
fn controlled(nc: usize, u: &Matrix) -> Matrix {
    let ut = u.rows();
    let dim = (1usize << nc) * ut;
    let cmask = (1usize << nc) - 1;
    let mut m = Matrix::zeros(dim, dim);
    for i in 0..dim {
        if i & cmask == cmask {
            // all controls set: apply U on the target bits
            for j_hi in 0..ut {
                let j = (j_hi << nc) | cmask;
                m[(i, j)] = u[(i >> nc, j_hi)];
            }
        } else {
            m[(i, i)] = Complex64::ONE;
        }
    }
    m
}

fn swap_matrix() -> Matrix {
    let mut m = Matrix::zeros(4, 4);
    m[(0, 0)] = Complex64::ONE;
    m[(1, 2)] = Complex64::ONE;
    m[(2, 1)] = Complex64::ONE;
    m[(3, 3)] = Complex64::ONE;
    m
}

/// An inline list of at most 4 qubit indices — gates never exceed 3 qubits
/// in our alphabet, and keeping this `Copy` keeps `Gate` allocation-free
/// (gate vectors reach ~2·10⁵ entries for `hhl`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qubits {
    buf: [u32; 4],
    len: u8,
}

impl Qubits {
    /// Creates a qubit list. Panics if more than 4 entries or duplicates.
    pub fn new(qs: &[u32]) -> Self {
        assert!(qs.len() <= 4, "gates have at most 4 qubits");
        for (i, a) in qs.iter().enumerate() {
            for b in &qs[i + 1..] {
                assert_ne!(a, b, "duplicate qubit in gate");
            }
        }
        let mut buf = [0u32; 4];
        buf[..qs.len()].copy_from_slice(qs);
        Qubits {
            buf,
            len: qs.len() as u8,
        }
    }

    /// Number of qubits.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when empty (never for a valid gate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The qubit indices as a slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len as usize]
    }

    /// Iterator over the qubit indices.
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, u32>> {
        self.as_slice().iter().copied()
    }

    /// Bitmask over qubit indices (requires indices < 64, which holds for
    /// every circuit this workspace targets).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.as_slice().iter().fold(0u64, |m, &q| m | (1u64 << q))
    }

    /// `true` if `q` is in the list.
    #[inline]
    pub fn contains(&self, q: u32) -> bool {
        self.as_slice().contains(&q)
    }
}

impl fmt::Debug for Qubits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_slice())
    }
}

impl<'a> IntoIterator for &'a Qubits {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A gate instance: a kind applied to specific circuit qubits.
///
/// Position `t` in `qubits` corresponds to basis-index bit `t` of
/// [`GateKind::matrix`]; controls come first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// What the gate is.
    pub kind: GateKind,
    /// Which circuit qubits it acts on.
    pub qubits: Qubits,
}

impl Gate {
    /// Creates a gate, checking arity.
    pub fn new(kind: GateKind, qubits: &[u32]) -> Self {
        assert_eq!(
            kind.arity(),
            qubits.len(),
            "wrong qubit count for {:?}",
            kind
        );
        Gate {
            kind,
            qubits: Qubits::new(qubits),
        }
    }

    /// The gate's full unitary (see [`GateKind::matrix`] for conventions).
    pub fn matrix(&self) -> Matrix {
        self.kind.matrix()
    }

    /// Number of qubits.
    #[inline]
    pub fn arity(&self) -> usize {
        self.qubits.len()
    }

    /// Bitmask of the gate's qubits.
    #[inline]
    pub fn qubit_mask(&self) -> u64 {
        self.qubits.mask()
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.kind.params();
        if params.is_empty() {
            write!(f, "{}", self.kind.name())?;
        } else {
            // `{:?}` prints the shortest string that parses back to the
            // same f64, so QASM round-trips are bit-exact.
            let ps: Vec<String> = params.iter().map(|p| format!("{p:?}")).collect();
            write!(f, "{}({})", self.kind.name(), ps.join(","))?;
        }
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, " {};", qs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_qmath::EPS;

    fn all_kinds() -> Vec<GateKind> {
        use GateKind::*;
        vec![
            H,
            X,
            Y,
            Z,
            S,
            Sdg,
            T,
            Tdg,
            SX,
            RX(0.7),
            RY(1.1),
            RZ(-0.3),
            P(2.2),
            U3(0.5, 1.5, -2.5),
            CX,
            CY,
            CZ,
            CH,
            CP(0.9),
            CRX(0.4),
            CRY(-1.2),
            CRZ(2.8),
            Swap,
            RZZ(0.6),
            RXX(1.4),
            CCX,
            CCZ,
            CSwap,
            PauliNoise(0.0),
            PauliNoise(1.0),
            PauliNoise(2.0),
            PauliNoise(3.0),
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for k in all_kinds() {
            let m = k.matrix();
            assert_eq!(m.rows(), 1 << k.arity(), "{k:?}");
            assert!(m.is_unitary(1e-9), "{k:?} not unitary");
        }
    }

    #[test]
    fn cx_truth_table() {
        // qubits = [control, target]; index bit 0 = control, bit 1 = target.
        let m = GateKind::CX.matrix();
        // |c=1,t=0> (idx 1) -> |c=1,t=1> (idx 3)
        assert!(m[(3, 1)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(1, 3)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(0, 0)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(2, 2)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(1, 1)].is_zero(EPS));
    }

    #[test]
    fn ccx_flips_only_when_both_controls_set() {
        let m = GateKind::CCX.matrix();
        // controls = bits 0,1; target = bit 2.
        // |c0=1,c1=1,t=0> = idx 3 -> idx 7.
        assert!(m[(7, 3)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(3, 7)].approx_eq(Complex64::ONE, EPS));
        for idx in [0usize, 1, 2, 4, 5, 6] {
            assert!(m[(idx, idx)].approx_eq(Complex64::ONE, EPS), "idx={idx}");
        }
    }

    #[test]
    fn swap_matrix_permutes() {
        let m = GateKind::Swap.matrix();
        assert!(m[(2, 1)].approx_eq(Complex64::ONE, EPS));
        assert!(m[(1, 2)].approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn rz_vs_p_differ_by_global_phase() {
        let rz = GateKind::RZ(0.8).matrix();
        let p = GateKind::P(0.8).matrix();
        assert!(atlas_qmath::matrix::equal_up_to_global_phase(&rz, &p, 1e-9));
    }

    #[test]
    fn u3_covers_named_gates() {
        use std::f64::consts::PI;
        let h = GateKind::U3(PI / 2.0, 0.0, PI).matrix();
        assert!(atlas_qmath::matrix::equal_up_to_global_phase(
            &h,
            &GateKind::H.matrix(),
            1e-9
        ));
        let x = GateKind::U3(PI, 0.0, PI).matrix();
        assert!(atlas_qmath::matrix::equal_up_to_global_phase(
            &x,
            &GateKind::X.matrix(),
            1e-9
        ));
    }

    #[test]
    fn pauli_noise_selector_decodes_and_wraps() {
        use GateKind::PauliNoise;
        // Selector 0..3 picks I, X, Y, Z; values wrap modulo 4
        // (including negatives, via rem_euclid).
        for (sel, want) in [
            (0.0, None),
            (1.0, Some(GateKind::X)),
            (2.0, Some(GateKind::Y)),
            (3.0, Some(GateKind::Z)),
            (4.0, None),
            (5.0, Some(GateKind::X)),
            (-1.0, Some(GateKind::Z)),
            (-3.0, Some(GateKind::X)),
        ] {
            let got = PauliNoise(sel).matrix();
            match want {
                Some(k) => assert!(
                    atlas_qmath::matrix::equal_up_to_global_phase(&got, &k.matrix(), 1e-12),
                    "sel={sel}"
                ),
                None => {
                    for i in 0..2 {
                        for j in 0..2 {
                            let want = if i == j {
                                Complex64::ONE
                            } else {
                                Complex64::ZERO
                            };
                            assert!(got[(i, j)].approx_eq(want, EPS), "sel={sel}");
                        }
                    }
                }
            }
        }
        // Re-parameterization changes the selector but not the name,
        // arity or Clifford-ness — the trajectory-sweep invariant.
        let g = PauliNoise(0.0).with_params(&[3.0]);
        assert_eq!(g, PauliNoise(3.0));
        assert_eq!(g.name(), "pnoise");
        assert!(g.is_clifford());
    }

    #[test]
    fn clifford_classification() {
        use GateKind::*;
        for k in all_kinds() {
            let expect = matches!(
                k,
                H | X | Y | Z | S | Sdg | SX | CX | CY | CZ | Swap | PauliNoise(_)
            );
            assert_eq!(k.is_clifford(), expect, "{k:?}");
        }
        // T and rotations stay non-Clifford even at Clifford angles:
        // dispatch must be structural.
        assert!(!T.is_clifford());
        assert!(!RZ(std::f64::consts::FRAC_PI_2).is_clifford());
    }

    #[test]
    fn qubits_mask_and_contains() {
        let q = Qubits::new(&[1, 5, 9]);
        assert_eq!(q.mask(), (1 << 1) | (1 << 5) | (1 << 9));
        assert!(q.contains(5));
        assert!(!q.contains(2));
        assert_eq!(q.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_qubits_rejected() {
        let _ = Gate::new(GateKind::CX, &[3, 3]);
    }

    #[test]
    fn display_format() {
        let g = Gate::new(GateKind::CP(0.5), &[0, 2]);
        let s = format!("{g}");
        assert!(s.starts_with("cp(0.5"));
        assert!(s.ends_with("q[0],q[2];"));
    }
}
