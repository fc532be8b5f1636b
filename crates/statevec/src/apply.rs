//! Gate-application kernels over raw amplitude slices.
//!
//! The general path handles any `k`-qubit unitary via gather → dense
//! multiply → scatter (Eq. (1) of the paper generalized to `k` qubits).
//! Specialized families cover the shapes that dominate real fused kernels
//! — diagonal, permutation-with-phases, controlled, whole-slice scale —
//! mirroring what a production GPU simulator specializes in its kernel
//! zoo.
//!
//! ## One kernel per family
//!
//! Each family is **one** function taking the [`Scratch`] arena (where it
//! needs buffers or offset tables) and the [`Pool`] its ranges run on;
//! [`Pool::SERIAL`] gives the serial kernel. The function picks a layout —
//!
//! | layout                         | dense | permutation | controlled |
//! |--------------------------------|:-----:|:-----------:|:----------:|
//! | unrolled `k = 1` (`q = 0` contiguous pairs, else strided) | ✓ | | |
//! | unrolled `k = 2` (`{0,1}` in order contiguous, else strided) | ✓ | | |
//! | `low_window` (qubit *set* `{0..k)`): gather/scatter inside each contiguous chunk | | ✓ | |
//! | strided runs of adjacent groups with a memoized offset table | | ✓ | |
//! | the lane-blocked sweep, `k ≥ 3` (below) | ✓ | | ✓ |
//!
//! — and writes that layout's loop once, as the body of a split from the
//! crate's private `split` module: contiguous layouts (and the
//! element-wise diagonal and scale passes) over safe `&mut` sub-slices,
//! strided ones over disjoint group ranges of a shared view. On a
//! one-thread pool — or below the [`PARALLEL_GROUP_CUTOFF`] /
//! [`PARALLEL_ELEMENT_CUTOFF`] work cutoffs — the body runs once over the
//! whole slice on the calling thread with the arena's buffers; otherwise
//! the slice is cut into one share per pool thread, and each share runs
//! the same body as a [`Pool::run`] item with its worker's arena buffers.
//! Either way a warm kernel allocates nothing.
//!
//! Every layout performs **the same floating-point operations in the same
//! order** as the family's `*_generic` oracle in [`crate::reference`], and
//! no body reduces across groups, so every layout and every pool size
//! produces byte-identical amplitudes (pinned by
//! `tests/hotpath_exactness.rs`).
//!
//! ## The lane-blocked sweep
//!
//! Every dense multiply of `k ≥ 3` — whatever the qubit layout, and the
//! target block of a controlled kernel — goes through one body,
//! `lane_sweep`: it gathers `LANES = 8` consecutive groups into split
//! re/im planes, keeps one accumulator per output row *per lane*, and lets
//! the compiler turn the lane dimension into vector registers. The body is
//! compiled three times (baseline, AVX2, AVX-512F) and the widest copy the
//! CPU supports is picked once per process; the copies differ in
//! instruction selection only, and none is built with `fma`, whose single
//! rounding would break the contract above. `docs/PERFORMANCE.md` has the
//! layout, the order argument and the measurements.

use crate::pool::Pool;
use crate::scratch::{Bufs, OffsetTable, Scratch};
use crate::split::{for_chunk_ranges, for_group_ranges, AmpCell};
use atlas_qmath::{extract_bits, insert_bit, insert_bits, Complex64, Matrix};
use std::sync::OnceLock;

pub use crate::split::{PARALLEL_ELEMENT_CUTOFF, PARALLEL_GROUP_CUTOFF};

/// Applies an arbitrary unitary `m` over `qubits` (matrix bit `t` =
/// `qubits[t]`) on `pool`: unrolled for `k ≤ 2`, the lane-blocked sweep
/// (module docs) from `k = 3` up. Byte-identical to
/// [`crate::reference::apply_matrix_generic`] on every path.
///
/// Complexity: `O(4^k)` complex MACs per group × `2^{n-k}` groups, i.e.
/// `2^{n+k}` MACs total.
pub fn apply_matrix(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    m: &Matrix,
    pool: &Pool,
) {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    match k {
        1 => return apply_matrix_1q(amps, qubits[0], m, pool),
        2 => return apply_matrix_2q(amps, qubits[0], qubits[1], m, pool),
        _ => {}
    }
    let table = scratch.tables.lookup(qubits);
    let dense = Dense {
        sorted: &table.sorted,
        fixed: 0,
        offsets: &table.offsets,
        m,
    };
    gather_multiply_scatter(selected_sweep(), amps, &dense, pool, &mut scratch.bufs);
}

/// Groups gathered per block of the dense multiply — the vector width the
/// body is written for: one AVX-512 register of `f64`, two AVX2, four SSE2.
pub(crate) const LANES: usize = 8;

/// Matrix rows accumulated per pass over a gathered block: `RB × LANES`
/// real and as many imaginary accumulators — 8 of the 32 registers of
/// AVX-512, all 16 of AVX2.
const RB: usize = 4;

/// What one dense sweep applies: groups enumerate the bits outside
/// `sorted` (ascending), every bit of `fixed` is forced to 1 (the controls
/// of a controlled kernel), and `m` acts on the in-group `offsets`.
struct Dense<'a> {
    sorted: &'a [u32],
    fixed: u64,
    offsets: &'a [u64],
    m: &'a Matrix,
}

/// A compiled copy of [`lane_sweep`].
///
/// # Safety
/// The CPU must have the feature the copy was compiled for, which is what
/// [`supported_sweeps`] checks before handing one out.
type Sweep = unsafe fn(&AmpCell<'_>, u64, u64, &Dense<'_>, &mut Bufs);

/// The strided gather → dense multiply → scatter sweep shared by the dense
/// and controlled families, through `sweep` — [`selected_sweep`] everywhere
/// outside the test that compares the copies.
fn gather_multiply_scatter(
    sweep: Sweep,
    amps: &mut [Complex64],
    dense: &Dense<'_>,
    pool: &Pool,
    bufs: &mut Bufs,
) {
    let groups = amps.len() >> dense.sorted.len();
    for_group_ranges(amps, groups, pool, bufs, |view, lo, hi, bufs| {
        // SAFETY: `sweep` comes from `supported_sweeps`, which hands out a
        // feature-compiled copy only after detecting that feature here.
        unsafe { sweep(view, lo, hi, dense, bufs) }
    });
}

/// The one dense body: applies `d` to the groups `lo..hi` of `view`,
/// [`LANES`] groups per multiply.
///
/// A block of `LANES` consecutive groups is gathered into split re/im
/// planes laid out `[basis index][lane]`; each output row is then one
/// accumulator *per lane*, started at `+0.0` and updated column by column
/// with the expression tree of `Complex64::mul_add` — so every amplitude
/// sees exactly the operations, in exactly the order, of the oracle's
/// `Matrix::mul_vec_into`, and the vector unit works *across* groups,
/// never inside a row sum. The `(hi - lo) % LANES` groups left over go
/// through that scalar multiply itself.
#[inline(always)]
fn lane_sweep(view: &AmpCell<'_>, lo: u64, hi: u64, d: &Dense<'_>, bufs: &mut Bufs) {
    let dim = d.offsets.len();
    bufs.resize(dim);
    bufs.load_planes(d.m);
    let mut g = lo;
    while g + LANES as u64 <= hi {
        let bases: [u64; LANES] =
            std::array::from_fn(|l| insert_bits(g + l as u64, d.sorted) | d.fixed);
        for ((xr, xi), off) in bufs.xre.iter_mut().zip(&mut bufs.xim).zip(d.offsets) {
            for (l, base) in bases.iter().enumerate() {
                let a = view.read((base | off) as usize);
                (xr[l], xi[l]) = (a.re, a.im);
            }
        }
        let mut r = 0;
        while r + RB <= dim {
            multiply_rows::<RB>(r, bufs);
            r += RB;
        }
        while r < dim {
            multiply_rows::<1>(r, bufs);
            r += 1;
        }
        for ((yr, yi), off) in bufs.yre.iter().zip(&bufs.yim).zip(d.offsets) {
            for (l, base) in bases.iter().enumerate() {
                view.write((base | off) as usize, Complex64::new(yr[l], yi[l]));
            }
        }
        g += LANES as u64;
    }
    for g in g..hi {
        let base = insert_bits(g, d.sorted) | d.fixed;
        for (x, off) in d.offsets.iter().enumerate() {
            bufs.inbuf[x] = view.read((base | off) as usize);
        }
        d.m.mul_vec_into(&bufs.inbuf, &mut bufs.outbuf);
        for (x, off) in d.offsets.iter().enumerate() {
            view.write((base | off) as usize, bufs.outbuf[x]);
        }
    }
}

/// Rows `r..r + R` of the matrix planes times the gathered block, into the
/// output planes.
#[inline(always)]
fn multiply_rows<const R: usize>(r: usize, bufs: &mut Bufs) {
    let dim = bufs.xre.len();
    let mut acc_re = [[0.0f64; LANES]; R];
    let mut acc_im = [[0.0f64; LANES]; R];
    let rows: [(&[f64], &[f64]); R] = std::array::from_fn(|i| {
        let row = (r + i) * dim..(r + i + 1) * dim;
        (&bufs.mre[row.clone()], &bufs.mim[row])
    });
    for (c, (xr, xi)) in bufs.xre.iter().zip(&bufs.xim).enumerate() {
        for i in 0..R {
            let (mr, mi) = (rows[i].0[c], rows[i].1[c]);
            for l in 0..LANES {
                acc_re[i][l] = (acc_re[i][l] + mr * xr[l]) - mi * xi[l];
                acc_im[i][l] = (acc_im[i][l] + mr * xi[l]) + mi * xr[l];
            }
        }
    }
    bufs.yre[r..r + R].copy_from_slice(&acc_re);
    bufs.yim[r..r + R].copy_from_slice(&acc_im);
}

fn sweep_portable(view: &AmpCell<'_>, lo: u64, hi: u64, d: &Dense<'_>, bufs: &mut Bufs) {
    lane_sweep(view, lo, hi, d, bufs)
}

// Never `fma`: a contracted multiply-add rounds once where the oracle
// rounds twice, which would break byte identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(view: &AmpCell<'_>, lo: u64, hi: u64, d: &Dense<'_>, bufs: &mut Bufs) {
    lane_sweep(view, lo, hi, d, bufs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_avx512f(view: &AmpCell<'_>, lo: u64, hi: u64, d: &Dense<'_>, bufs: &mut Bufs) {
    lane_sweep(view, lo, hi, d, bufs)
}

/// The compiled copies of [`lane_sweep`] this host can run, narrowest
/// first. They differ in instruction selection only: no output may depend
/// on which one ran.
fn supported_sweeps() -> impl Iterator<Item = Sweep> {
    let mut sweeps: [Option<Sweep>; 3] = [Some(sweep_portable), None, None];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            sweeps[1] = Some(sweep_avx2);
        }
        if is_x86_feature_detected!("avx512f") {
            sweeps[2] = Some(sweep_avx512f);
        }
    }
    sweeps.into_iter().flatten()
}

/// The widest supported copy, picked once per process.
fn selected_sweep() -> Sweep {
    static SELECTED: OnceLock<Sweep> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        supported_sweeps()
            .last()
            .expect("the portable copy always runs")
    })
}

/// Unrolled dense single-qubit kernel, byte-identical to the generic
/// path: each output is accumulated `ZERO → +m·a` in matrix-column order,
/// exactly like `Matrix::mul_vec_into`.
fn apply_matrix_1q(amps: &mut [Complex64], q: u32, m: &Matrix, pool: &Pool) {
    let (m00, m01) = (m[(0, 0)], m[(0, 1)]);
    let (m10, m11) = (m[(1, 0)], m[(1, 1)]);
    let bufs = &mut Bufs::default();
    if q == 0 {
        for_chunk_ranges(amps, 2, pool, PARALLEL_GROUP_CUTOFF, bufs, |_, sub, _| {
            for pair in sub.chunks_exact_mut(2) {
                let (a0, a1) = (pair[0], pair[1]);
                pair[0] = m01.mul_add(a1, m00.mul_add(a0, Complex64::ZERO));
                pair[1] = m11.mul_add(a1, m10.mul_add(a0, Complex64::ZERO));
            }
        });
        return;
    }
    let stride = 1usize << q;
    let groups = amps.len() / 2;
    for_group_ranges(amps, groups, pool, bufs, |view, lo, hi, _| {
        for g in lo..hi {
            let i0 = insert_bit(g, q) as usize;
            let i1 = i0 | stride;
            let (a0, a1) = (view.read(i0), view.read(i1));
            view.write(i0, m01.mul_add(a1, m00.mul_add(a0, Complex64::ZERO)));
            view.write(i1, m11.mul_add(a1, m10.mul_add(a0, Complex64::ZERO)));
        }
    });
}

/// Unrolled dense two-qubit kernel (matrix bit 0 = `q0`, bit 1 = `q1`),
/// byte-identical to the generic path.
fn apply_matrix_2q(amps: &mut [Complex64], q0: u32, q1: u32, m: &Matrix, pool: &Pool) {
    let s0 = 1usize << q0;
    let s1 = 1usize << q1;
    let sorted = if q0 < q1 { [q0, q1] } else { [q1, q0] };
    let mut mm = [[Complex64::ZERO; 4]; 4];
    for (r, row) in mm.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = m[(r, c)];
        }
    }
    let row_dot = |row: &[Complex64; 4], a: &[Complex64; 4]| {
        row[3].mul_add(
            a[3],
            row[2].mul_add(
                a[2],
                row[1].mul_add(a[1], row[0].mul_add(a[0], Complex64::ZERO)),
            ),
        )
    };
    let bufs = &mut Bufs::default();
    if q0 == 0 && q1 == 1 {
        // Contiguous group in memory order: no index math at all.
        for_chunk_ranges(amps, 4, pool, PARALLEL_GROUP_CUTOFF, bufs, |_, sub, _| {
            for chunk in sub.chunks_exact_mut(4) {
                let a = [chunk[0], chunk[1], chunk[2], chunk[3]];
                for (r, row) in mm.iter().enumerate() {
                    chunk[r] = row_dot(row, &a);
                }
            }
        });
        return;
    }
    let groups = amps.len() >> 2;
    for_group_ranges(amps, groups, pool, bufs, |view, lo, hi, _| {
        for g in lo..hi {
            let b = insert_bits(g, &sorted) as usize;
            let idx = [b, b | s0, b | s1, b | s0 | s1];
            let a = idx.map(|i| view.read(i));
            for (r, row) in mm.iter().enumerate() {
                view.write(idx[r], row_dot(row, &a));
            }
        }
    });
}

/// Amplitudes per run of [`apply_diag`]: the index bits below `log2` of it
/// go through a table, the bits above are extracted once per run.
const DIAG_RUN: usize = 256;

/// Applies a general diagonal gate over `qubits` on `pool`: amplitude `i`
/// is scaled by `diag[extract_bits(i, qubits)]`.
///
/// Complexity: one complex multiply per amplitude, a single sequential
/// pass — memory-bandwidth bound, no gather/scatter.
pub fn apply_diag(amps: &mut [Complex64], qubits: &[u32], diag: &[Complex64], pool: &Pool) {
    assert_eq!(diag.len(), 1 << qubits.len());
    if amps.len() < DIAG_RUN || qubits.len() > u16::BITS as usize {
        for (i, a) in amps.iter_mut().enumerate() {
            *a *= diag[extract_bits(i as u64, qubits) as usize];
        }
        return;
    }
    // What the low index bits contribute to the kernel index, tabulated
    // once per call instead of extracted once per amplitude.
    let low: [u16; DIAG_RUN] = std::array::from_fn(|i| extract_bits(i as u64, qubits) as u16);
    for_chunk_ranges(
        amps,
        DIAG_RUN,
        pool,
        PARALLEL_ELEMENT_CUTOFF / DIAG_RUN,
        &mut Bufs::default(),
        |offset, sub, _| {
            for (r, run) in sub.chunks_mut(DIAG_RUN).enumerate() {
                let high = extract_bits((offset + r * DIAG_RUN) as u64, qubits) as usize;
                for (a, &x) in run.iter_mut().zip(&low) {
                    *a *= diag[high | x as usize];
                }
            }
        },
    );
}

/// Multiplies every amplitude by `factor` on `pool`.
pub fn scale(amps: &mut [Complex64], factor: Complex64, pool: &Pool) {
    for_chunk_ranges(
        amps,
        1,
        pool,
        PARALLEL_ELEMENT_CUTOFF,
        &mut Bufs::default(),
        |_, sub, _| {
            for a in sub.iter_mut() {
                *a *= factor;
            }
        },
    );
}

/// Applies a `k`-qubit permutation-with-phases kernel over `qubits` on
/// `pool`: for every group, `out[dst[x]] = phase[x] * in[x]` over the
/// matrix basis indices `x`. This is the fast path for
/// X-like / CX-like / swap-like fused kernels, replacing the dense
/// `O(4^k)` multiply per group with an `O(2^k)` gather + scaled scatter.
/// Byte-identical to [`crate::reference::apply_permutation_generic`].
pub fn apply_permutation(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    dst: &[u32],
    phase: &[Complex64],
    pool: &Pool,
) {
    let k = qubits.len();
    let dim = 1usize << k;
    assert_eq!(dst.len(), dim);
    assert_eq!(phase.len(), dim);
    let table = scratch.tables.lookup(qubits);
    let bufs = &mut scratch.bufs;
    if table.low_window {
        // Gather and scaled scatter both stay inside the contiguous chunk.
        for_chunk_ranges(
            amps,
            dim,
            pool,
            PARALLEL_GROUP_CUTOFF,
            bufs,
            |_, sub, bufs| {
                bufs.resize(dim);
                for chunk in sub.chunks_exact_mut(dim) {
                    for (x, &off) in table.offsets.iter().enumerate() {
                        bufs.inbuf[x] = chunk[off as usize];
                    }
                    for (x, &d) in dst.iter().enumerate() {
                        chunk[table.offsets[d as usize] as usize] = phase[x] * bufs.inbuf[x];
                    }
                }
            },
        );
        return;
    }
    // out_off[x] is where basis index x lands after the permutation.
    let out_off = &mut scratch.out_off;
    out_off.clear();
    out_off.extend(dst.iter().map(|&d| table.offsets[d as usize]));
    let out_off = &*out_off;
    let groups = amps.len() >> k;
    // Groups that differ only below the lowest kernel qubit are adjacent in
    // memory: move them as contiguous runs, not amplitude by amplitude.
    let sweep = match table.sorted[0] {
        0 => permutation_sweep::<1>,
        1 => permutation_sweep::<2>,
        2 => permutation_sweep::<4>,
        3 => permutation_sweep::<8>,
        _ => permutation_sweep::<16>,
    };
    for_group_ranges(amps, groups, pool, bufs, |view, lo, hi, bufs| {
        sweep(view, lo, hi, table, out_off, phase, bufs)
    });
}

/// The strided permutation sweep over the groups `lo..hi`, `RUN` adjacent
/// groups at a time where the range holds a whole aligned run of them and
/// one at a time at its ragged ends.
fn permutation_sweep<const RUN: usize>(
    view: &AmpCell<'_>,
    lo: u64,
    hi: u64,
    table: &OffsetTable,
    out_off: &[u64],
    phase: &[Complex64],
    bufs: &mut Bufs,
) {
    bufs.resize(table.offsets.len() * RUN);
    let inbuf = &mut bufs.inbuf;
    let mut g = lo;
    while g < hi {
        let base = insert_bits(g, &table.sorted) as usize;
        if g.is_multiple_of(RUN as u64) && g + RUN as u64 <= hi {
            permute_run::<RUN>(view, base, &table.offsets, out_off, phase, inbuf);
            g += RUN as u64;
        } else {
            permute_run::<1>(view, base, &table.offsets, out_off, phase, inbuf);
            g += 1;
        }
    }
}

/// Gathers the `RUN` adjacent groups starting at `base` — contiguous in
/// memory at every offset — and scatters them back permuted and scaled.
#[inline(always)]
fn permute_run<const RUN: usize>(
    view: &AmpCell<'_>,
    base: usize,
    offsets: &[u64],
    out_off: &[u64],
    phase: &[Complex64],
    inbuf: &mut [Complex64],
) {
    for (buf, off) in inbuf.chunks_exact_mut(RUN).zip(offsets) {
        for (b, a) in buf.iter_mut().zip(view.run(base | *off as usize, RUN)) {
            *b = a.get();
        }
    }
    for ((buf, off), &p) in inbuf.chunks_exact(RUN).zip(out_off).zip(phase) {
        for (a, &b) in view.run(base | *off as usize, RUN).iter().zip(buf) {
            a.set(p * b);
        }
    }
}

/// Applies unitary `m` over `targets`, controlled on every qubit in
/// `controls` being 1, on `pool`. Groups whose control
/// bits are not all set are untouched, so the dense multiply runs on a
/// `2^|controls|`-times smaller subspace than the equivalent matrix over
/// `controls ∪ targets` — the lane-blocked sweep (module docs) with
/// the control bits forced. Byte-identical to
/// [`crate::reference::apply_controlled_matrix_generic`].
pub fn apply_controlled_matrix(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
    pool: &Pool,
) {
    assert_eq!(
        m.rows(),
        1 << targets.len(),
        "matrix size does not match target count"
    );
    let cmask: u64 = controls.iter().fold(0, |acc, &c| acc | (1u64 << c));
    // Iterate the subspace directly: groups enumerate the bits outside
    // controls ∪ targets, with every control bit forced to 1.
    let mut all = scratch.take_qubits();
    all.extend(controls.iter().chain(targets).copied());
    all.sort_unstable();
    let dense = Dense {
        sorted: &all,
        fixed: cmask,
        offsets: &scratch.tables.lookup(targets).offsets,
        m,
    };
    gather_multiply_scatter(selected_sweep(), amps, &dense, pool, &mut scratch.bufs);
    scratch.put_qubits(all);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_pool;
    use crate::reference::{
        apply_controlled_matrix_generic, apply_matrix_generic, simulate_reference,
    };
    use crate::state::StateVector;
    use atlas_circuit::{Circuit, Gate, GateKind};

    fn assert_bits_eq(a: &StateVector, b: &StateVector, label: &str) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{label}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{label}");
        }
    }

    /// A dense `n`-qubit state: an H/RZ/T wall on every qubit.
    fn dense_state(n: u32) -> StateVector {
        let mut prep = Circuit::new(n);
        for q in 0..n {
            prep.h(q).rz(0.13 * (q + 1) as f64, q).t(q);
        }
        simulate_reference(&prep)
    }

    /// A dense unitary over `qs`: an H/RZ/CX ladder, fused.
    fn ladder_unitary(n: u32, qs: &[u32]) -> Matrix {
        let mut kc = Circuit::new(n);
        for (i, &q) in qs.iter().enumerate() {
            kc.h(q).rz(0.3 + i as f64, q);
            if i > 0 {
                kc.cx(qs[i - 1], q);
            }
        }
        crate::fused::fuse_gates(qs, kc.gates())
    }

    /// Serial dense apply with a throwaway arena.
    fn dense(sv: &mut StateVector, qs: &[u32], m: &Matrix) {
        apply_matrix(
            &mut Scratch::new(),
            sv.amplitudes_mut(),
            qs,
            m,
            &Pool::SERIAL,
        );
    }

    #[test]
    fn apply_matrix_respects_qubit_order() {
        // CRY with qubits given in (control, target) order where control >
        // target: both orderings of the qubit slice must agree with the
        // controlled semantics.
        let mut a = StateVector::basis_state(2, 2); // control (q1) = 1
        let g = Gate::new(GateKind::CRY(0.9), &[1, 0]);
        dense(&mut a, g.qubits.as_slice(), &g.matrix());
        // control set → rotation applied to target.
        assert!(a.probability(2) < 1.0 - 1e-6);
        let mut b = StateVector::basis_state(2, 1); // control (q1) = 0
        dense(&mut b, g.qubits.as_slice(), &g.matrix());
        assert!((b.probability(1) - 1.0).abs() < 1e-12); // untouched
    }

    #[test]
    fn apply_permutation_matches_matrix_for_cx() {
        // CX over (control=q2, target=q5) as an explicit permutation:
        // basis |c t⟩ → |c, t ⊕ c⟩, i.e. 0→0, 1→3, 2→2, 3→1 with control
        // on matrix bit 0.
        let g = Gate::new(GateKind::CX, &[2, 5]);
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q);
            prep.rz(0.11 * (q + 1) as f64, q);
        }
        let mut a = simulate_reference(&prep);
        let mut b = a.clone();
        dense(&mut a, &[2, 5], &g.matrix());
        let dst = [0u32, 3, 2, 1];
        let phase = [Complex64::ONE; 4];
        apply_permutation(
            &mut Scratch::new(),
            b.amplitudes_mut(),
            &[2, 5],
            &dst,
            &phase,
            &Pool::SERIAL,
        );
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn apply_controlled_matrix_matches_general_path() {
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q);
            prep.t(q);
        }
        let mut a = simulate_reference(&prep);
        let mut b = a.clone();
        // CCRY-style: RY(0.8) on q1, controlled on q4 and q0. Build the
        // doubly-controlled matrix by hand — identity unless bits 0 (q0)
        // and 1 (q4) of the kernel index are set — and compare against
        // the subspace-skipping controlled kernel.
        let ry = GateKind::RY(0.8).matrix();
        let mut ccry = atlas_qmath::Matrix::identity(8);
        for r in 0..2 {
            for c in 0..2 {
                ccry[(3 | (r << 2), 3 | (c << 2))] = ry[(r, c)];
            }
        }
        dense(&mut a, &[0, 4, 1], &ccry);
        apply_controlled_matrix(
            &mut Scratch::new(),
            b.amplitudes_mut(),
            &[0, 4],
            &[1],
            &ry,
            &Pool::SERIAL,
        );
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn every_compiled_sweep_is_bitwise_equal_to_the_portable_one() {
        // Lane width is an execution detail: the copies of `lane_sweep`
        // this host can run must agree to the bit with the portable one —
        // and it with the oracle — on whole blocks, the scalar tail
        // (4 groups), thread ranges that start mid-block (1024 groups over
        // 3 threads), a single-row kernel and forced control bits.
        let cases: [(u32, &[u32], &[u32]); 6] = [
            (13, &[], &[0, 1, 2]),
            (13, &[], &[4, 0, 9]),
            (9, &[], &[3, 8, 5, 6, 4]),
            (7, &[], &[6, 2, 0, 3, 1]),
            (13, &[5], &[2, 11]),
            (13, &[7, 0], &[3]),
        ];
        for (n, controls, targets) in cases {
            let base = dense_state(n);
            let m = ladder_unitary(n, targets);
            let mut sorted: Vec<u32> = controls.iter().chain(targets).copied().collect();
            sorted.sort_unstable();
            let run = |sweep: Sweep, pool: &Pool| {
                let mut scratch = Scratch::new();
                let mut sv = base.clone();
                let dense = Dense {
                    sorted: &sorted,
                    fixed: controls.iter().fold(0, |acc, &c| acc | (1u64 << c)),
                    offsets: &scratch.tables.lookup(targets).offsets,
                    m: &m,
                };
                let amps = sv.amplitudes_mut();
                gather_multiply_scatter(sweep, amps, &dense, pool, &mut scratch.bufs);
                sv
            };
            let mut oracle = base.clone();
            apply_controlled_matrix_generic(oracle.amplitudes_mut(), controls, targets, &m);
            for threads in [1, 3] {
                with_pool(threads, |pool| {
                    let label = format!("{controls:?}->{targets:?} threads={threads}");
                    let want = run(sweep_portable, pool);
                    assert_bits_eq(&want, &oracle, &label);
                    for (i, sweep) in supported_sweeps().enumerate() {
                        assert_bits_eq(&run(sweep, pool), &want, &format!("copy {i} {label}"));
                    }
                });
            }
        }
    }

    #[test]
    fn dispatched_apply_matrix_is_bitwise_equal_to_generic() {
        // One case per dispatch branch: unrolled k=1 (contiguous and
        // strided), unrolled k=2 (both orders), and the lane-blocked sweep
        // over an identity-order window, a permuted low window and strided
        // qubit sets.
        let base = dense_state(8);
        let cases: Vec<Vec<u32>> = vec![
            vec![0],
            vec![5],
            vec![0, 1],
            vec![1, 0],
            vec![3, 6],
            vec![0, 1, 2],
            vec![2, 0, 1],
            vec![1, 4, 7],
            vec![6, 2, 4, 0],
        ];
        for qs in cases {
            let m = ladder_unitary(8, &qs);
            let mut fast = base.clone();
            let mut gen = base.clone();
            dense(&mut fast, &qs, &m);
            apply_matrix_generic(gen.amplitudes_mut(), &qs, &m);
            assert_bits_eq(&fast, &gen, &format!("{qs:?}"));
        }
    }
}
