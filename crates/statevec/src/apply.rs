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
//! needs buffers or offset tables) and a `threads` count; `threads == 1`
//! is the serial kernel. The function picks a layout —
//!
//! | layout                         | dense | permutation | controlled |
//! |--------------------------------|:-----:|:-----------:|:----------:|
//! | unrolled `k = 1` (`q = 0` contiguous pairs, else strided) | ✓ | | |
//! | unrolled `k = 2` (`{0,1}` in order contiguous, else strided) | ✓ | | |
//! | `identity_order` (`qubits == [0..k)`): multiply straight on each contiguous `2^k` chunk | ✓ | | |
//! | `low_window` (qubit *set* `{0..k)`): gather/scatter inside each contiguous chunk | ✓ | ✓ | |
//! | strided gather with a memoized offset table | ✓ | ✓ | ✓ |
//!
//! — and writes that layout's loop once, as the body of a split from the
//! crate's private `split` module: contiguous layouts (and the
//! element-wise diagonal and scale passes) over safe `chunks_mut` sub-slices,
//! strided ones over disjoint group ranges of a shared view. With one
//! thread — or below the [`PARALLEL_GROUP_CUTOFF`] /
//! [`PARALLEL_ELEMENT_CUTOFF`] work cutoffs — the body runs once over the
//! whole slice on the calling thread with the arena's buffers (zero
//! steady-state allocations); otherwise each scoped thread runs the same
//! body over its share with buffers of its own.
//!
//! Every layout performs **the same floating-point operations in the same
//! order** as the family's `*_generic` oracle in [`crate::reference`], and
//! no body reduces across groups, so every layout and every thread count
//! produces byte-identical amplitudes (pinned by
//! `tests/hotpath_exactness.rs`).

use crate::scratch::{Bufs, Scratch};
use crate::split::{for_chunk_ranges, for_group_ranges};
use atlas_qmath::{extract_bits, insert_bit, insert_bits, Complex64, Matrix};

pub use crate::split::{PARALLEL_ELEMENT_CUTOFF, PARALLEL_GROUP_CUTOFF};

/// Applies an arbitrary unitary `m` over `qubits` (matrix bit `t` =
/// `qubits[t]`) with up to `threads` threads, dispatching to the cheapest
/// layout-matched body (module docs). Byte-identical to
/// [`crate::reference::apply_matrix_generic`] on every path.
///
/// Complexity: `O(4^k)` complex MACs per group × `2^{n-k}` groups, i.e.
/// `2^{n+k}` MACs total.
pub fn apply_matrix(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    m: &Matrix,
    threads: usize,
) {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    match k {
        1 => return apply_matrix_1q(amps, qubits[0], m, threads),
        2 => return apply_matrix_2q(amps, qubits[0], qubits[1], m, threads),
        _ => {}
    }
    let dim = 1usize << k;
    let table = scratch.tables.lookup(qubits);
    let bufs = &mut scratch.bufs;
    if table.identity_order {
        // The group *is* a contiguous slice and the matrix basis order
        // matches the memory order: no gather, no offset table — a
        // straight `chunks_exact_mut` sweep the compiler can vectorize.
        for_chunk_ranges(
            amps,
            dim,
            threads,
            PARALLEL_GROUP_CUTOFF,
            bufs,
            |_, sub, bufs| {
                bufs.resize(dim);
                for chunk in sub.chunks_exact_mut(dim) {
                    m.mul_vec_into(chunk, &mut bufs.outbuf);
                    chunk.copy_from_slice(&bufs.outbuf);
                }
            },
        );
    } else if table.low_window {
        // Contiguous chunks, but the matrix basis order is a permutation
        // of the memory order: gather stays chunk-local.
        for_chunk_ranges(
            amps,
            dim,
            threads,
            PARALLEL_GROUP_CUTOFF,
            bufs,
            |_, sub, bufs| {
                bufs.resize(dim);
                for chunk in sub.chunks_exact_mut(dim) {
                    for (x, &off) in table.offsets.iter().enumerate() {
                        bufs.inbuf[x] = chunk[off as usize];
                    }
                    m.mul_vec_into(&bufs.inbuf, &mut bufs.outbuf);
                    for (x, &off) in table.offsets.iter().enumerate() {
                        chunk[off as usize] = bufs.outbuf[x];
                    }
                }
            },
        );
    } else {
        gather_multiply_scatter(amps, &table.sorted, 0, &table.offsets, m, threads, bufs);
    }
}

/// The strided gather → dense multiply → scatter sweep shared by the dense
/// and controlled families: groups enumerate the bits outside `sorted`
/// (ascending), every bit of `fixed` is forced to 1, and `m` acts on the
/// in-group `offsets`.
fn gather_multiply_scatter(
    amps: &mut [Complex64],
    sorted: &[u32],
    fixed: u64,
    offsets: &[u64],
    m: &Matrix,
    threads: usize,
    bufs: &mut Bufs,
) {
    let groups = amps.len() >> sorted.len();
    for_group_ranges(amps, groups, threads, bufs, |view, lo, hi, bufs| {
        bufs.resize(offsets.len());
        for g in lo..hi {
            let base = insert_bits(g, sorted) | fixed;
            for (x, off) in offsets.iter().enumerate() {
                bufs.inbuf[x] = view.read((base | off) as usize);
            }
            m.mul_vec_into(&bufs.inbuf, &mut bufs.outbuf);
            for (x, off) in offsets.iter().enumerate() {
                view.write((base | off) as usize, bufs.outbuf[x]);
            }
        }
    });
}

/// Unrolled dense single-qubit kernel, byte-identical to the generic
/// path: each output is accumulated `ZERO → +m·a` in matrix-column order,
/// exactly like `Matrix::mul_vec_into`.
fn apply_matrix_1q(amps: &mut [Complex64], q: u32, m: &Matrix, threads: usize) {
    let (m00, m01) = (m[(0, 0)], m[(0, 1)]);
    let (m10, m11) = (m[(1, 0)], m[(1, 1)]);
    let bufs = &mut Bufs::default();
    if q == 0 {
        for_chunk_ranges(
            amps,
            2,
            threads,
            PARALLEL_GROUP_CUTOFF,
            bufs,
            |_, sub, _| {
                for pair in sub.chunks_exact_mut(2) {
                    let (a0, a1) = (pair[0], pair[1]);
                    pair[0] = m01.mul_add(a1, m00.mul_add(a0, Complex64::ZERO));
                    pair[1] = m11.mul_add(a1, m10.mul_add(a0, Complex64::ZERO));
                }
            },
        );
        return;
    }
    let stride = 1usize << q;
    let groups = amps.len() / 2;
    for_group_ranges(amps, groups, threads, bufs, |view, lo, hi, _| {
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
fn apply_matrix_2q(amps: &mut [Complex64], q0: u32, q1: u32, m: &Matrix, threads: usize) {
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
        for_chunk_ranges(
            amps,
            4,
            threads,
            PARALLEL_GROUP_CUTOFF,
            bufs,
            |_, sub, _| {
                for chunk in sub.chunks_exact_mut(4) {
                    let a = [chunk[0], chunk[1], chunk[2], chunk[3]];
                    for (r, row) in mm.iter().enumerate() {
                        chunk[r] = row_dot(row, &a);
                    }
                }
            },
        );
        return;
    }
    let groups = amps.len() >> 2;
    for_group_ranges(amps, groups, threads, bufs, |view, lo, hi, _| {
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

/// Applies a general diagonal gate over `qubits` with up to `threads`
/// threads: amplitude `i` is scaled by `diag[extract_bits(i, qubits)]`.
///
/// Complexity: one complex multiply per amplitude, a single sequential
/// pass — memory-bandwidth bound, no gather/scatter.
pub fn apply_diag(amps: &mut [Complex64], qubits: &[u32], diag: &[Complex64], threads: usize) {
    assert_eq!(diag.len(), 1 << qubits.len());
    for_chunk_ranges(
        amps,
        1,
        threads,
        PARALLEL_ELEMENT_CUTOFF,
        &mut Bufs::default(),
        |offset, sub, _| {
            for (i, a) in sub.iter_mut().enumerate() {
                *a *= diag[extract_bits((offset + i) as u64, qubits) as usize];
            }
        },
    );
}

/// Multiplies every amplitude by `factor` using up to `threads` threads.
pub fn scale(amps: &mut [Complex64], factor: Complex64, threads: usize) {
    for_chunk_ranges(
        amps,
        1,
        threads,
        PARALLEL_ELEMENT_CUTOFF,
        &mut Bufs::default(),
        |_, sub, _| {
            for a in sub.iter_mut() {
                *a *= factor;
            }
        },
    );
}

/// Applies a `k`-qubit permutation-with-phases kernel over `qubits` with
/// up to `threads` threads: for every group, `out[dst[x]] = phase[x] *
/// in[x]` over the matrix basis indices `x`. This is the fast path for
/// X-like / CX-like / swap-like fused kernels, replacing the dense
/// `O(4^k)` multiply per group with an `O(2^k)` gather + scaled scatter.
/// Byte-identical to [`crate::reference::apply_permutation_generic`].
pub fn apply_permutation(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    dst: &[u32],
    phase: &[Complex64],
    threads: usize,
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
            threads,
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
    for_group_ranges(amps, groups, threads, bufs, |view, lo, hi, bufs| {
        bufs.resize(dim);
        for g in lo..hi {
            let base = insert_bits(g, &table.sorted);
            for (x, off) in table.offsets.iter().enumerate() {
                bufs.inbuf[x] = view.read((base | off) as usize);
            }
            for (x, off) in out_off.iter().enumerate() {
                view.write((base | off) as usize, phase[x] * bufs.inbuf[x]);
            }
        }
    });
}

/// Applies unitary `m` over `targets`, controlled on every qubit in
/// `controls` being 1, with up to `threads` threads. Groups whose control
/// bits are not all set are untouched, so the dense multiply runs on a
/// `2^|controls|`-times smaller subspace than the equivalent full
/// `expand_to_kernel` matrix; that skip already makes this kernel cheap,
/// so there is no further layout specialization. Byte-identical to
/// [`crate::reference::apply_controlled_matrix_generic`].
pub fn apply_controlled_matrix(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
    threads: usize,
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
    let offsets = &scratch.tables.lookup(targets).offsets;
    gather_multiply_scatter(amps, &all, cmask, offsets, m, threads, &mut scratch.bufs);
    scratch.put_qubits(all);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{apply_matrix_generic, simulate_reference};
    use crate::state::StateVector;
    use atlas_circuit::{Circuit, Gate, GateKind};

    /// Serial dense apply with a throwaway arena.
    fn dense(sv: &mut StateVector, qs: &[u32], m: &Matrix) {
        apply_matrix(&mut Scratch::new(), sv.amplitudes_mut(), qs, m, 1);
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
            1,
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
            1,
        );
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn dispatched_apply_matrix_is_bitwise_equal_to_generic() {
        // One case per dispatch branch: unrolled k=1 (contiguous and
        // strided), unrolled k=2 (both orders), identity-order window,
        // permuted low window, and the strided generic fallback.
        let mut prep = Circuit::new(8);
        for q in 0..8 {
            prep.h(q).rz(0.13 * (q + 1) as f64, q).t(q);
        }
        let base = simulate_reference(&prep);
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
            let mut kc = Circuit::new(8);
            for (i, &q) in qs.iter().enumerate() {
                kc.h(q).rz(0.3 + i as f64, q);
                if i > 0 {
                    kc.cx(qs[i - 1], q);
                }
            }
            let m = crate::fused::fuse_gates(&qs, kc.gates());
            let mut fast = base.clone();
            let mut gen = base.clone();
            dense(&mut fast, &qs, &m);
            apply_matrix_generic(gen.amplitudes_mut(), &qs, &m);
            for (a, b) in fast.amplitudes().iter().zip(gen.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{qs:?}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{qs:?}");
            }
        }
    }
}
