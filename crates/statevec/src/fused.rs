//! Gate fusion and the compiled forms of a fused kernel.
//!
//! Atlas fusion kernels (§VI-B, approach 1) multiply the gates of a kernel
//! into one `2^k × 2^k` unitary and apply it in one pass — the same thing
//! cuQuantum's apply-matrix does on a real GPU. This module owns the three
//! steps of that life cycle:
//!
//! * **Fuse.** [`fuse_gate_into`] is the one fusion primitive: it applies a
//!   gate to the *rows* of the product so far, so no gate is ever expanded
//!   to `2^k × 2^k` and nothing is allocated per gate. [`fuse_gates`] folds
//!   a gate list through it; the executor's per-shard build
//!   (`atlas_core::exec::build_stage_programs`) calls it on insular-reduced
//!   gates, once per gate prefix its shard patterns share. Both are bit for
//!   bit the expand-and-multiply oracle,
//!   [`crate::reference::fuse_by_expansion`] (the argument is on
//!   [`fuse_gate_into`]).
//! * **Classify.** [`classify_kernel`] inspects a fused matrix once and
//!   compiles it into its cheapest [`FastKernel`] form.
//! * **Apply.** [`apply_kernel`] dispatches a compiled kernel to the
//!   matching family in [`crate::apply`]; [`apply_reduced`] does the same,
//!   cheaply, for the small per-shard parts of shared-memory kernels.

use crate::apply::{
    self, apply_controlled_matrix, apply_diag, apply_matrix, apply_permutation, apply_relabel,
};
use crate::pool::Pool;
use crate::scratch::Scratch;
use atlas_circuit::Gate;
use atlas_qmath::{deposit_bits, extract_bits, Complex64, Matrix};

/// Most qubits one gate acts on (the capacity of `atlas_circuit::Qubits`).
const MAX_GATE_QUBITS: usize = 4;

/// One row-update fusion step: overwrites `out` with `E · acc`, where `acc`
/// is a `2^k × 2^k` product over `kernel_qubits` (kernel bit `t` =
/// `kernel_qubits[t]`) and `E` is the gate unitary `m` (matrix bit `t` =
/// `gate_qubits[t]`) embedded into that space. Every gate qubit must appear
/// in the kernel set. `out` is reshaped in place and allocates only when
/// it has never held a matrix this large.
///
/// Row `i` of the result is `Σ_c m[r(i)][c] · acc[src(c)]`, where `r(i)`
/// is `i`'s gate bits and the sum runs over the `2^g` rows `src(c)` that
/// share `i`'s non-gate bits.
///
/// **Bit identity.** Multiplying by the expansion, `&expanded * &acc`,
/// skips the exact zeros of row `i` of `expanded` and accumulates one
/// `mul_add` per remaining entry in ascending column order, starting from
/// `+0`. The nonzero entries of that row are exactly the nonzero entries of
/// `m`'s row `r(i)`, at columns `src(c)`. So visiting `c` in ascending
/// *kernel-index* order of `src(c)` — which differs from `c` order when the
/// gate qubits are not monotone in the kernel, e.g. `[5, 1]`; hence the
/// offsets are sorted once per call — and skipping exact (`±0`) zeros of
/// `m` performs the same operations in the same order.
pub fn fuse_gate_into(
    out: &mut Matrix,
    acc: &Matrix,
    kernel_qubits: &[u32],
    gate_qubits: &[u32],
    m: &Matrix,
) {
    let g = gate_qubits.len();
    assert!(
        g <= MAX_GATE_QUBITS,
        "gates have at most {MAX_GATE_QUBITS} qubits"
    );
    assert_eq!(m.rows(), 1 << g);
    let dim = 1usize << kernel_qubits.len();
    assert_eq!(acc.rows(), dim);
    // Position of each gate qubit inside the kernel index.
    let mut pos = [0u32; MAX_GATE_QUBITS];
    for (p, q) in pos.iter_mut().zip(gate_qubits) {
        *p = kernel_qubits
            .iter()
            .position(|kq| kq == q)
            .expect("gate qubit not in kernel") as u32;
    }
    let pos = &pos[..g];
    let gate_mask: u64 = pos.iter().fold(0, |acc, &p| acc | (1u64 << p));
    // (kernel-index offset, gate column) in ascending offset order.
    let mut cols = [(0u64, 0usize); 1 << MAX_GATE_QUBITS];
    let cols = &mut cols[..1 << g];
    for (c, col) in cols.iter_mut().enumerate() {
        *col = (deposit_bits(c as u64, pos), c);
    }
    cols.sort_unstable();

    out.set_zeros(dim, dim);
    for i in 0..dim {
        let fixed = i as u64 & !gate_mask;
        let mrow = m.row(extract_bits(i as u64, pos) as usize);
        let orow = out.row_mut(i);
        for &(off, c) in cols.iter() {
            let a = mrow[c];
            if a.is_zero(0.0) {
                continue;
            }
            for (o, b) in orow.iter_mut().zip(acc.row((fixed | off) as usize)) {
                *o = a.mul_add(*b, *o);
            }
        }
    }
}

/// Multiplies the gates of a kernel (in program order) into a single
/// unitary over `kernel_qubits`, one [`fuse_gate_into`] step per gate
/// through two reused buffers. Applying the result is equivalent to
/// applying the gates in sequence.
pub fn fuse_gates(kernel_qubits: &[u32], gates: &[Gate]) -> Matrix {
    let mut acc = Matrix::identity(1 << kernel_qubits.len());
    let mut next = Matrix::zeros(0, 0);
    for g in gates {
        fuse_gate_into(
            &mut next,
            &acc,
            kernel_qubits,
            g.qubits.as_slice(),
            &g.matrix(),
        );
        std::mem::swap(&mut acc, &mut next);
    }
    acc
}

/// Absolute tolerance for structure detection in [`classify_kernel`].
///
/// Fused matrices are products of exact gate unitaries, so structural
/// zeros are either exactly 0.0 or rounding residue a few ulps above it;
/// 1e-12 is far above any residue a ≤ 7-qubit product can accumulate and
/// far below any genuine matrix entry (gate entries are O(1)).
pub const KERNEL_CLASSIFY_TOL: f64 = 1e-12;

/// A fused kernel matrix compiled into the cheapest applicable form.
///
/// Atlas fusion kernels are dense `2^k × 2^k` products, but real circuits
/// produce heavily structured products — diagonal (phase-only gate runs),
/// permutation-with-phases (X/CX/swap-like), and controlled blocks — for
/// which the dense `O(4^k)`-per-group multiply is mostly wasted work.
/// [`classify_kernel`] inspects the matrix once at plan-specialization
/// time; [`apply_kernel`] then dispatches to the matching family in
/// [`crate::apply`].
#[derive(Clone, Debug)]
pub enum FastKernel {
    /// The identity — applying it is a no-op.
    Identity,
    /// Diagonal matrix: amplitude `i` is scaled by `diag[bits(i)]`.
    /// One multiply per amplitude, no gather/scatter.
    Diagonal(
        /// The diagonal entries, indexed by the kernel basis state.
        Vec<Complex64>,
    ),
    /// Permutation with phases: basis state `x` maps to `dst[x]` with
    /// factor `phase[x]`. `O(2^k)` per group instead of `O(4^k)`.
    Permutation {
        /// Destination basis index for each source basis index.
        dst: Vec<u32>,
        /// Phase factor applied to each source basis index.
        phase: Vec<Complex64>,
    },
    /// A phase-free relabel: basis state `x` maps to `dst[x]`, and every
    /// moved amplitude `a` becomes `ONE · (ONE · a)`. It is never
    /// classified from a matrix: the executor coalesces a run of two or
    /// more adjacent [`FastKernel::Permutation`] kernels whose phases are
    /// all bitwise `Complex64::ONE` into one of these over the union of
    /// their qubits, `dst` the composition of their permutations.
    ///
    /// **Why two multiplies.** `ONE · a` is `(1·re − 0·im, 1·im + 0·re)`,
    /// which returns every nonzero component unchanged but can flip the
    /// sign of a zero one: `(+0, −0)` becomes `(+0, +0)`, and `(−0, −0)`
    /// becomes `(+0, −0)`, then `(+0, +0)` on a second pass. Over all
    /// sixteen sign classes of `(re, im)` in `{+0, −0, +1, −1}²`, the map
    /// `a ↦ ONE · a` reaches its fixed point after exactly two
    /// applications, so `r ≥ 2` unit-phase passes leave `ONE · (ONE · a)`
    /// at the composed destination, bit for bit — which one pass, or a
    /// plain move, would not.
    Relabel {
        /// Destination basis index for each source basis index.
        dst: Vec<u32>,
    },
    /// Identity unless every control bit is set; then `matrix` acts on the
    /// target bits. Skips a `2^|controls|` fraction of the state.
    Controlled {
        /// Kernel-bit positions acting as controls.
        controls: Vec<u32>,
        /// Kernel-bit positions the sub-matrix acts on.
        targets: Vec<u32>,
        /// The unitary over `targets`, already projected.
        matrix: Matrix,
    },
    /// No exploitable *algebraic* structure — dense multiply. At apply
    /// time this still dispatches on **layout** (unrolled `k ≤ 2`,
    /// contiguous low-window chunks, generic gather; see
    /// [`crate::apply::apply_matrix`]).
    Dense(Matrix),
}

impl FastKernel {
    /// `true` if a per-shard scalar can be folded into this kernel's
    /// entries for free (everything but `Controlled`, whose untouched
    /// subspace must not be scaled, and the entry-free `Relabel`).
    pub fn can_fold_scale(&self) -> bool {
        !matches!(
            self,
            FastKernel::Controlled { .. } | FastKernel::Relabel { .. }
        )
    }

    /// `true` for a [`FastKernel::Permutation`] whose every phase is
    /// bitwise `Complex64::ONE` — `+1.0 + 0.0i`, not `−0.0i` — the kernels
    /// a [`FastKernel::Relabel`] may stand in for.
    pub fn is_unit_permutation(&self) -> bool {
        match self {
            FastKernel::Permutation { phase, .. } => phase.iter().all(|p| p.bit_eq(Complex64::ONE)),
            _ => false,
        }
    }
}

/// `true` if bit `p` of the kernel index acts as a control for `m`: the
/// matrix is identity on the `p = 0` subspace and never mixes the two
/// halves.
fn is_control_bit(m: &Matrix, p: u32) -> bool {
    let dim = m.rows();
    let pbit = 1usize << p;
    for r in 0..dim {
        for c in 0..dim {
            if r & pbit != 0 && c & pbit != 0 {
                continue; // the controlled block is unconstrained
            }
            let want = if r == c {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            if !m[(r, c)].approx_eq(want, KERNEL_CLASSIFY_TOL) {
                return false;
            }
        }
    }
    true
}

/// Inspects a fused kernel matrix and compiles it to its fast form.
///
/// Detection order matters: diagonal ⊂ is checked before permutation
/// (every diagonal is a trivial permutation, but the diagonal path is
/// cheaper), and controlled last (a fully-controlled phase is diagonal, a
/// controlled-X is a permutation — both already caught).
pub fn classify_kernel(m: &Matrix) -> FastKernel {
    let dim = m.rows();
    debug_assert_eq!(dim, m.cols());
    let k = dim.trailing_zeros();
    if m.is_diagonal(KERNEL_CLASSIFY_TOL) {
        let diag: Vec<Complex64> = (0..dim).map(|i| m[(i, i)]).collect();
        if diag
            .iter()
            .all(|d| d.approx_eq(Complex64::ONE, KERNEL_CLASSIFY_TOL))
        {
            return FastKernel::Identity;
        }
        return FastKernel::Diagonal(diag);
    }
    // Permutation: exactly one non-negligible entry per column (unitarity
    // then guarantees one per row).
    let mut dst = Vec::with_capacity(dim);
    let mut phase = Vec::with_capacity(dim);
    let mut seen_rows = vec![false; dim];
    let mut is_perm = true;
    'cols: for c in 0..dim {
        let mut hit: Option<usize> = None;
        for r in 0..dim {
            if !m[(r, c)].is_zero(KERNEL_CLASSIFY_TOL) {
                if hit.is_some() {
                    is_perm = false;
                    break 'cols;
                }
                hit = Some(r);
            }
        }
        match hit {
            Some(r) if !seen_rows[r] => {
                seen_rows[r] = true;
                dst.push(r as u32);
                phase.push(m[(r, c)]);
            }
            _ => {
                is_perm = false;
                break;
            }
        }
    }
    if is_perm {
        return FastKernel::Permutation { dst, phase };
    }
    // Controlled structure: collect every kernel bit acting as a control.
    let controls: Vec<u32> = (0..k).filter(|&p| is_control_bit(m, p)).collect();
    if !controls.is_empty() {
        let cmask: usize = controls.iter().fold(0, |acc, &p| acc | (1usize << p));
        let targets: Vec<u32> = (0..k).filter(|p| !controls.contains(p)).collect();
        let tdim = 1usize << targets.len();
        let expand = |sub: usize| -> usize {
            let mut full = cmask;
            for (t, &p) in targets.iter().enumerate() {
                full |= ((sub >> t) & 1) << p;
            }
            full
        };
        let mut sub = Matrix::zeros(tdim, tdim);
        for r in 0..tdim {
            for c in 0..tdim {
                sub[(r, c)] = m[(expand(r), expand(c))];
            }
        }
        return FastKernel::Controlled {
            controls,
            targets,
            matrix: sub,
        };
    }
    FastKernel::Dense(m.clone())
}

/// Applies a compiled kernel over physical qubit positions `qubits`,
/// folding the scalar `scale` in for free where the form allows it, its
/// passes split over `pool` (see [`crate::apply`]). Scaled diagonals,
/// phases and matrices go into `scratch`'s pooled buffers instead of
/// per-call allocations, and the sub-kernels reuse its offset tables.
///
/// A `scale != ONE` on a [`FastKernel::Controlled`] or
/// [`FastKernel::Relabel`] kernel costs a real extra pass; callers that
/// can emit a shared scale op elsewhere check
/// [`FastKernel::can_fold_scale`] first.
pub fn apply_kernel(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    kernel: &FastKernel,
    scale: Complex64,
    pool: &Pool,
) {
    let fold = !scale.approx_eq(Complex64::ONE, 0.0);
    match kernel {
        FastKernel::Identity => {
            if fold {
                apply::scale(amps, scale, pool);
            }
        }
        FastKernel::Diagonal(diag) => {
            if fold {
                let mut scaled = scratch.take_amps();
                scaled.extend(diag.iter().map(|&d| d * scale));
                apply_diag(amps, qubits, &scaled, pool);
                scratch.put_amps(scaled);
            } else {
                apply_diag(amps, qubits, diag, pool);
            }
        }
        FastKernel::Permutation { dst, phase } => {
            if fold {
                let mut scaled = scratch.take_amps();
                scaled.extend(phase.iter().map(|&p| p * scale));
                apply_permutation(scratch, amps, qubits, dst, &scaled, pool);
                scratch.put_amps(scaled);
            } else {
                apply_permutation(scratch, amps, qubits, dst, phase, pool);
            }
        }
        FastKernel::Relabel { dst } => {
            apply_relabel(scratch, amps, qubits, dst, pool);
            if fold {
                // No entries to fold into: a real extra pass.
                apply::scale(amps, scale, pool);
            }
        }
        FastKernel::Controlled {
            controls,
            targets,
            matrix,
        } => {
            if fold {
                // A scalar cannot fold into the kernel entries (the
                // untouched control-0 subspace must be scaled too), so it
                // costs a real extra pass here — a fold request must
                // never be dropped.
                apply::scale(amps, scale, pool);
            }
            let mut cphys = scratch.take_qubits();
            cphys.extend(controls.iter().map(|&p| qubits[p as usize]));
            let mut tphys = scratch.take_qubits();
            tphys.extend(targets.iter().map(|&p| qubits[p as usize]));
            apply_controlled_matrix(scratch, amps, &cphys, &tphys, matrix, pool);
            scratch.put_qubits(tphys);
            scratch.put_qubits(cphys);
        }
        FastKernel::Dense(m) => {
            if fold {
                let mut scaled = scratch.take_matrix();
                scaled.clone_scaled_from(m, scale);
                apply_matrix(scratch, amps, qubits, &scaled, pool);
                scratch.put_matrix(scaled);
            } else {
                apply_matrix(scratch, amps, qubits, m, pool);
            }
        }
    }
}

/// Applies a reduced shared-memory kernel part `m` over `qubits` with a
/// cheap structure dispatch: `1×1` scalar → whole-slice scale, diagonal →
/// diagonal pass (extracted into a pooled buffer), otherwise the dense
/// path. Parts are tiny per-shard specializations, so full
/// [`classify_kernel`] treatment would cost more than it saves.
pub fn apply_reduced(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    m: &Matrix,
    pool: &Pool,
) {
    if m.rows() == 1 {
        apply::scale(amps, m[(0, 0)], pool);
    } else if m.is_diagonal(KERNEL_CLASSIFY_TOL) {
        let mut diag = scratch.take_amps();
        diag.extend((0..m.rows()).map(|i| m[(i, i)]));
        apply_diag(amps, qubits, &diag, pool);
        scratch.put_amps(diag);
    } else {
        apply_matrix(scratch, amps, qubits, m, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_gate;
    use crate::state::StateVector;
    use atlas_circuit::{Circuit, GateKind};

    #[test]
    fn fused_application_matches_sequential() {
        // A 3-qubit kernel from a realistic gate mix.
        let mut c = Circuit::new(5);
        c.h(1)
            .cx(1, 3)
            .t(3)
            .cp(0.8, 4, 1)
            .h(4)
            .swap(1, 4)
            .rz(0.3, 3);
        let kernel_qubits = [1u32, 3, 4];
        let fused = fuse_gates(&kernel_qubits, c.gates());
        assert!(fused.is_unitary(1e-9));

        // Dense random-ish state.
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q).t(q).rx(0.3 + q as f64, q);
        }
        let mut sv_seq = StateVector::zero_state(5);
        for g in prep.gates() {
            apply_gate(sv_seq.amplitudes_mut(), g);
        }
        let mut sv_fused = sv_seq.clone();

        for g in c.gates() {
            apply_gate(sv_seq.amplitudes_mut(), g);
        }
        apply_matrix(
            &mut Scratch::new(),
            sv_fused.amplitudes_mut(),
            &kernel_qubits,
            &fused,
            &Pool::SERIAL,
        );

        assert!(
            sv_seq.approx_eq(&sv_fused, 1e-9),
            "fused vs sequential max diff = {}",
            sv_seq.max_abs_diff(&sv_fused)
        );
    }

    #[test]
    #[should_panic(expected = "not in kernel")]
    fn gate_outside_kernel_panics() {
        let m = GateKind::H.matrix();
        let acc = Matrix::identity(4);
        fuse_gate_into(&mut Matrix::zeros(0, 0), &acc, &[0, 1], &[2], &m);
    }

    #[test]
    fn classify_detects_identity_diagonal_permutation_controlled_dense() {
        // Identity: X · X.
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let m = fuse_gates(&[0], c.gates());
        assert!(matches!(classify_kernel(&m), FastKernel::Identity));

        // Diagonal: a run of phase gates.
        let mut c = Circuit::new(2);
        c.t(0).cp(0.7, 0, 1).rz(0.3, 1);
        let m = fuse_gates(&[0, 1], c.gates());
        assert!(matches!(classify_kernel(&m), FastKernel::Diagonal(_)));

        // Permutation: CX (with a phase-free X mixed in).
        let mut c = Circuit::new(2);
        c.cx(0, 1).x(0);
        let m = fuse_gates(&[0, 1], c.gates());
        assert!(matches!(
            classify_kernel(&m),
            FastKernel::Permutation { .. }
        ));

        // Controlled: CRY — identity on the control-0 half, dense block on
        // the control-1 half.
        let m = GateKind::CRY(0.9).matrix();
        match classify_kernel(&m) {
            FastKernel::Controlled {
                controls, targets, ..
            } => {
                assert_eq!(controls, vec![0]);
                assert_eq!(targets, vec![1]);
            }
            other => panic!("CRY classified as {other:?}"),
        }

        // Dense: H mixes everything.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let m = fuse_gates(&[0, 1], c.gates());
        assert!(matches!(classify_kernel(&m), FastKernel::Dense(_)));
    }

    #[test]
    fn apply_kernel_matches_dense_apply_for_every_class() {
        // One kernel per class, all applied both ways on a dense state.
        let kernels: Vec<Circuit> = {
            let mut v = Vec::new();
            let mut c = Circuit::new(5);
            c.x(1).x(1); // identity
            v.push(c);
            let mut c = Circuit::new(5);
            c.t(1).cp(0.7, 1, 3).rz(0.4, 3); // diagonal
            v.push(c);
            let mut c = Circuit::new(5);
            c.cx(1, 3).x(3).swap(1, 4); // permutation
            v.push(c);
            let mut c = Circuit::new(5);
            c.add(GateKind::CRY(0.8), &[4, 1]); // controlled
            v.push(c);
            let mut c = Circuit::new(5);
            c.h(1).cx(1, 3).h(3); // dense
            v.push(c);
            v
        };
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q).t(q).rx(0.2 + q as f64, q);
        }
        for kc in &kernels {
            let kq: Vec<u32> = (0..5)
                .filter(|&q| kc.gates().iter().any(|g| g.qubits.contains(q)))
                .collect();
            let fused = fuse_gates(&kq, kc.gates());
            let fast = classify_kernel(&fused);

            let mut a = StateVector::zero_state(5);
            for g in prep.gates() {
                apply_gate(a.amplitudes_mut(), g);
            }
            let mut b = a.clone();
            let scratch = &mut Scratch::new();
            apply_matrix(scratch, a.amplitudes_mut(), &kq, &fused, &Pool::SERIAL);
            apply_kernel(
                scratch,
                b.amplitudes_mut(),
                &kq,
                &fast,
                Complex64::ONE,
                &Pool::SERIAL,
            );
            assert!(
                a.approx_eq(&b, 1e-10),
                "{fast:?} diverged from dense apply: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    /// The sign classes of one amplitude component: `+0, −0, +1, −1`.
    const SIGN_CLASSES: [f64; 4] = [0.0, -0.0, 1.0, -1.0];

    fn bits(z: Complex64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn one_times_x_reaches_its_fixed_point_after_two_multiplies() {
        let one = |z: Complex64| Complex64::ONE * z;
        let mut one_is_not_enough = false;
        for re in SIGN_CLASSES {
            for im in SIGN_CLASSES {
                let x = Complex64::new(re, im);
                let twice = one(one(x));
                assert_eq!(bits(one(twice)), bits(twice), "{x:?}");
                one_is_not_enough |= bits(one(x)) != bits(twice);
            }
        }
        // (−0, −0) → (+0, −0) → (+0, +0): the relabel's second multiply
        // is load-bearing.
        assert!(one_is_not_enough);
    }

    /// A state whose amplitudes cycle through all sixteen sign classes of
    /// `(re, im)`, every fourth one a generic value instead.
    fn sign_class_state(n: u32) -> StateVector {
        let amps = (0..1usize << n)
            .map(|i| {
                if i % 4 == 3 {
                    return Complex64::new(0.1 + i as f64 * 1e-3, -0.7 / (1 + i) as f64);
                }
                let c = (i * 7 + i / 64) % 16;
                Complex64::new(SIGN_CLASSES[c & 3], SIGN_CLASSES[c >> 2])
            })
            .collect();
        StateVector::from_amplitudes(amps)
    }

    /// A seeded permutation of the `2^k` kernel basis states.
    fn seeded_dst(k: usize, seed: u64) -> Vec<u32> {
        let mut dst: Vec<u32> = (0..1u32 << k).collect();
        let mut s = seed | 1;
        for i in (1..dst.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            dst.swap(i, (s >> 33) as usize % (i + 1));
        }
        dst
    }

    #[test]
    fn relabel_equals_two_and_three_unit_phase_permutation_passes_bitwise() {
        // Runs whose union is a permuted low window, strided with qubit 0,
        // strided with a lowest qubit of 2 (blocks of non-adjacent
        // groups) and strided above qubit 4 (contiguous blocks).
        let cases: [(u32, [&[u32]; 3]); 4] = [
            (14, [&[2, 0, 1], &[3, 1], &[0, 3, 2]]),
            (15, [&[0, 6], &[6, 3, 0], &[3, 9]]),
            (16, [&[5, 2], &[9, 2, 12], &[12, 5]]),
            (17, [&[4, 7], &[11, 7, 4], &[6, 11]]),
        ];
        for (n, kernels) in cases {
            let start = sign_class_state(n);
            let dsts: Vec<Vec<u32>> = kernels
                .iter()
                .enumerate()
                .map(|(i, qs)| seeded_dst(qs.len(), n as u64 * 10 + i as u64))
                .collect();
            for r in [2, 3] {
                let mut union: Vec<u32> = kernels[..r].concat();
                union.sort_unstable();
                union.dedup();
                // Where the run sends each basis state of the union, one
                // kernel and one qubit at a time.
                let dst: Vec<u32> = (0..1u64 << union.len())
                    .map(|x| {
                        let mut full = deposit_bits(x, &union);
                        for (qs, d) in kernels[..r].iter().zip(&dsts) {
                            let to = u64::from(d[extract_bits(full, qs) as usize]);
                            for (t, &q) in qs.iter().enumerate() {
                                full = full & !(1 << q) | (to >> t & 1) << q;
                            }
                        }
                        extract_bits(full, &union) as u32
                    })
                    .collect();
                let relabel = FastKernel::Relabel { dst };
                for threads in [1, 2, 3] {
                    crate::with_pool(threads, |pool| {
                        let scratch = &mut Scratch::new();
                        let mut want = start.clone();
                        for (qs, d) in kernels[..r].iter().zip(&dsts) {
                            let phase = vec![Complex64::ONE; d.len()];
                            apply_permutation(scratch, want.amplitudes_mut(), qs, d, &phase, pool);
                        }
                        let mut got = start.clone();
                        let amps = got.amplitudes_mut();
                        apply_kernel(scratch, amps, &union, &relabel, Complex64::ONE, pool);
                        for (i, (a, b)) in
                            got.amplitudes().iter().zip(want.amplitudes()).enumerate()
                        {
                            assert_eq!(
                                bits(*a),
                                bits(*b),
                                "n={n} r={r} threads={threads} amp {i}: {a:?} vs {b:?}"
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn apply_kernel_folds_scale() {
        let mut c = Circuit::new(3);
        c.t(0).cp(0.5, 0, 2);
        let kq = [0u32, 2];
        let fused = fuse_gates(&kq, c.gates());
        let fast = classify_kernel(&fused);
        assert!(fast.can_fold_scale());
        let s = Complex64::cis(0.9);

        let mut prep = Circuit::new(3);
        prep.h(0).h(1).h(2).t(1);
        let mut a = StateVector::zero_state(3);
        for g in prep.gates() {
            apply_gate(a.amplitudes_mut(), g);
        }
        let mut b = a.clone();
        let scratch = &mut Scratch::new();
        apply_matrix(scratch, a.amplitudes_mut(), &kq, &fused, &Pool::SERIAL);
        for amp in a.amplitudes_mut() {
            *amp *= s;
        }
        apply_kernel(scratch, b.amplitudes_mut(), &kq, &fast, s, &Pool::SERIAL);
        assert!(a.approx_eq(&b, 1e-12));
    }
}
