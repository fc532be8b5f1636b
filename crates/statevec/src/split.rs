//! The one split-by-group primitive behind every threaded kernel, and the
//! only `unsafe` in the gate-application code.
//!
//! A kernel over a duplicate-free qubit set partitions the `2^n` index
//! space into independent **groups**: group `g` owns exactly the indices
//! `insert_bits(g, sorted) | fixed | off`, where `sorted` are the kernel's
//! qubit positions, `fixed` is a constant pattern on those positions (the
//! control bits of a controlled kernel) and `off` ranges over patterns on
//! those positions. Two distinct groups differ in a bit *outside* the
//! kernel's positions, so their index sets are disjoint, and together the
//! groups cover every index the kernel touches.
//!
//! **The aliasing argument, once:** [`for_group_ranges`] hands each pool
//! item a contiguous, pairwise-disjoint range of group numbers and the
//! shared [`AmpCell`]; a kernel body reads and writes only indices of the
//! groups in its range, so no amplitude is ever accessed by two threads.
//! Every `unsafe` below leans on exactly that. Duplicate-freedom of the
//! qubit set — the one precondition — is checked on every compiled op by
//! `atlas-analyze` (`effect_of`).
//!
//! Layouts whose groups are contiguous in memory do not need the shared
//! view at all: [`for_chunk_ranges`] hands out sub-slices split off with
//! safe `split_at_mut`.
//!
//! Both split a kernel into one range per pool thread and run the ranges
//! as [`Pool::run`] items, each body on its worker's own
//! [`scratch::with_thread`] buffers. With a one-thread pool, or below the
//! work cutoffs, they call the body once, directly, over the whole slice
//! on the calling thread with the caller's buffers — the serial kernel
//! *is* the threaded kernel's body. No result depends on how ranges are
//! cut: bodies perform no cross-group reduction, so every pool yields
//! byte-identical amplitudes.

use crate::pool::Pool;
use crate::scratch::{self, Bufs};
use atlas_qmath::Complex64;
use std::cell::{Cell, UnsafeCell};
use std::sync::Mutex;

/// Minimum number of independent groups before a kernel is worth
/// multi-threading.
///
/// Rationale: one [`Pool::run`] — waking the parked workers of a pool and
/// waiting for the last one — costs about 18 µs (two workers on a 2-vCPU
/// AMD EPYC host; `pool_dispatch_t2_us` in `BENCH_hotpath.json`),
/// while a group of a small-`k` kernel costs tens of nanoseconds; at fewer
/// than ~2^10 groups the dispatch rivals the whole serial kernel, so
/// small problems stay on one thread. The constant is deliberately
/// conservative — crossing it early only wastes microseconds, crossing it
/// late leaves real parallelism unused on big shards (2^20+ amplitudes),
/// which sit far above the cutoff anyway.
pub const PARALLEL_GROUP_CUTOFF: usize = 1024;

/// Minimum element count before a purely element-wise pass (diagonal
/// multiply, whole-slice scale) is worth multi-threading.
///
/// Much higher than [`PARALLEL_GROUP_CUTOFF`] because the unit of work
/// differs: a dense kernel's group costs `O(4^k)` complex MACs, while an
/// element-wise "group" is a single complex multiply (~1 ns). At 2^16
/// elements the serial pass costs ~100 µs, several times the pool's
/// dispatch; below it, threading is a net loss.
pub const PARALLEL_ELEMENT_CUTOFF: usize = 1 << 16;

/// Clamps the pool's thread count to what `units` of work can keep busy,
/// and to 1 below `cutoff`.
fn effective_threads(pool: &Pool, units: usize, cutoff: usize) -> usize {
    if units < cutoff {
        1
    } else {
        pool.threads().clamp(1, units)
    }
}

/// An amplitude slice shared between the threads of one kernel, for
/// writes that the group partition makes disjoint.
///
/// Only [`for_group_ranges`] creates one, and it lends it to a kernel body
/// together with that body's group range. The accessors are bounds-checked
/// and carry no per-call proof obligation of their own: the obligation —
/// touch only indices of groups in the range you were given — is the
/// module-level argument above, discharged by the shape of the bodies in
/// [`crate::apply`], not at each call site.
pub(crate) struct AmpCell<'a>(&'a [UnsafeCell<Complex64>]);

// SAFETY: threads share the view but never an index — each body stays
// inside its own group range and the ranges are disjoint (module docs).
unsafe impl Sync for AmpCell<'_> {}

impl<'a> AmpCell<'a> {
    fn new(amps: &'a mut [Complex64]) -> Self {
        let ptr = amps.as_mut_ptr() as *const UnsafeCell<Complex64>;
        // SAFETY: `UnsafeCell<Complex64>` has the layout of `Complex64`,
        // and the exclusive borrow of `amps` lives as long as the view.
        AmpCell(unsafe { std::slice::from_raw_parts(ptr, amps.len()) })
    }

    /// The amplitude at `idx`, which must belong to a group of the
    /// calling body's range.
    #[inline(always)]
    pub(crate) fn read(&self, idx: usize) -> Complex64 {
        // SAFETY: no other thread accesses `idx` (module docs).
        unsafe { *self.0[idx].get() }
    }

    /// Overwrites the amplitude at `idx`, which must belong to a group of
    /// the calling body's range.
    #[inline(always)]
    pub(crate) fn write(&self, idx: usize, v: Complex64) {
        // SAFETY: no other thread accesses `idx` (module docs).
        unsafe { *self.0[idx].get() = v }
    }

    /// The `len` amplitudes from `idx` on as one contiguous run, every one
    /// of which must belong to a group of the calling body's range.
    #[inline(always)]
    pub(crate) fn run(&self, idx: usize, len: usize) -> &[Cell<Complex64>] {
        let run: *const [UnsafeCell<Complex64>] = &self.0[idx..idx + len];
        // SAFETY: `Cell<T>` has the layout of `UnsafeCell<T>`, and no other
        // thread accesses the indices of the run (module docs).
        unsafe { &*(run as *const [Cell<Complex64>]) }
    }
}

/// Runs `body(view, lo, hi, bufs)` over the group numbers `0..groups` of
/// `amps`: once over the whole range on the calling thread with the
/// caller's `bufs`, or — from [`PARALLEL_GROUP_CUTOFF`] groups up, on a
/// pool of several threads — over one contiguous disjoint sub-range per
/// thread, as pool items with their workers' buffers.
///
/// `body` must touch only amplitudes owned by the groups in `lo..hi`.
#[inline]
pub(crate) fn for_group_ranges(
    amps: &mut [Complex64],
    groups: usize,
    pool: &Pool,
    bufs: &mut Bufs,
    body: impl Fn(&AmpCell<'_>, u64, u64, &mut Bufs) + Sync,
) {
    let view = AmpCell::new(amps);
    let threads = effective_threads(pool, groups, PARALLEL_GROUP_CUTOFF);
    if threads == 1 {
        return body(&view, 0, groups as u64, bufs);
    }
    let span = groups.div_ceil(threads);
    pool.run(groups.div_ceil(span), &|i| {
        let (lo, hi) = (i * span, ((i + 1) * span).min(groups));
        scratch::with_thread(|s| body(&view, lo as u64, hi as u64, &mut s.bufs));
    });
}

/// Runs `body(offset, sub, bufs)` over `amps` cut into contiguous
/// sub-slices of whole `unit`-amplitude groups (`offset` = index of
/// `sub[0]` in `amps`): once over the whole slice on the calling thread
/// with the caller's `bufs`, or — from `cutoff` units up, on a pool of
/// several threads — one sub-slice per thread, as pool items with their
/// workers' buffers.
#[inline]
pub(crate) fn for_chunk_ranges(
    amps: &mut [Complex64],
    unit: usize,
    pool: &Pool,
    cutoff: usize,
    bufs: &mut Bufs,
    body: impl Fn(usize, &mut [Complex64], &mut Bufs) + Sync,
) {
    let units = amps.len() / unit;
    let threads = effective_threads(pool, units, cutoff);
    if threads == 1 {
        return body(0, amps, bufs);
    }
    let span = units.div_ceil(threads) * unit;
    let items = amps.len().div_ceil(span);
    // Each item splits the next sub-slice off the rest, whichever order
    // the items run in; `offset` tells the body where it landed.
    let rest = Mutex::new((0, amps));
    pool.run(items, &|_| {
        let (offset, sub) = {
            // Held only to split: a panicking body cannot poison it.
            let mut rest = rest.lock().expect("no body runs under the lock");
            let (offset, tail) = std::mem::take(&mut *rest);
            let (sub, tail) = tail.split_at_mut(span.min(tail.len()));
            *rest = (offset + sub.len(), tail);
            (offset, sub)
        };
        scratch::with_thread(|s| body(offset, sub, &mut s.bufs));
    });
}
