//! The persistent worker pool: the one way work reaches a thread.
//!
//! `EXECUTE` is bulk-synchronous (Algorithm 1): a stage's kernels run on
//! every GPU at once, then one all-to-all runs. Every threaded step of the
//! engine is a [`Pool::run`] on this pool — a stage's shard programs (one
//! item per shard), the all-to-all (one item per range of destination
//! shards), the group ranges of one intra-shard kernel
//! ([`crate::apply`]) and the chunks of a measurement reduction
//! ([`crate::measure`]). Nothing else spawns a thread.
//!
//! The pool spawns its workers **once** per scope (inside [`with_pool`];
//! for `EXECUTE`, once per run) and keeps them parked on a condition
//! variable between jobs, so each `run` call is a dispatch + barrier:
//! about 18 µs for two workers on a 2-vCPU AMD EPYC host (the `parallel`
//! bench's `pool_dispatch_x1000_t2` row), against about 33 µs there to
//! spawn and join two scoped threads.
//!
//! No dependencies beyond `std`: the registry is offline, so this is a
//! deliberately small `Mutex` + `Condvar` work queue rather than a rayon
//! import. Work items are indices `0..count` claimed atomically under the
//! lock; the closure reference is type-erased to a raw pointer that is
//! only dereferenced while the submitting `run` call blocks, which keeps
//! the lifetime sound.
//!
//! Worker persistence is also what makes the per-thread
//! [`crate::scratch`] arenas effective: each worker's arena (gather
//! buffers, memoized offset tables) is populated during the first job
//! it executes and reused for every later `run` barrier of the same
//! `with_pool` scope, so steady-state kernel execution allocates nothing
//! — whether a worker runs a whole shard or one range of a kernel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Type-erased pointer to the job closure of the in-flight [`Pool::run`]
/// call. Valid only while that call blocks; never stored past completion.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-call-safe) and outlives every
// dereference because `Pool::run` blocks until the job is cleared.
unsafe impl Send for JobPtr {}

/// Queue state guarded by [`Shared::slot`].
struct JobSlot {
    /// The active job, if any.
    job: Option<JobPtr>,
    /// Next unclaimed item index.
    next: usize,
    /// Total item count of the active job.
    count: usize,
    /// Items currently executing on workers.
    in_flight: usize,
    /// First panic payload caught on a worker; re-raised by `run` so the
    /// original assertion message and location survive.
    panic_payload: Option<Box<dyn std::any::Any + Send + 'static>>,
    /// Set by [`with_pool`] on exit; workers return.
    shutdown: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    /// Signals workers that a job arrived (or shutdown).
    work: Condvar,
    /// Signals the submitter that the active job completed.
    done: Condvar,
}

/// Handle to the worker pool, passed to the body of [`with_pool`].
///
/// A pool created with `threads == 1` has no workers: [`Pool::run`]
/// executes items inline on the calling thread, so serial and parallel
/// callers share one code path.
///
/// A pool's jobs do not nest: an item must not submit to the pool it
/// runs on, so work inside an item takes [`Pool::SERIAL`].
pub struct Pool<'a> {
    shared: Option<&'a Shared>,
    threads: usize,
}

impl Pool<'_> {
    /// A pool with no workers: `run` executes inline. The pool of serial
    /// callers, and of work inside another pool's items.
    pub const SERIAL: Pool<'static> = Pool {
        shared: None,
        threads: 1,
    };

    /// Number of worker threads (1 for the serial pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i` in `0..count` and blocks until all items
    /// complete (a barrier). Items run concurrently on the pool's workers;
    /// with the serial pool they run in index order on the caller.
    ///
    /// Panics in `f` are caught on the worker, the remaining items still
    /// drain, and the panic is re-raised here on the submitting thread.
    pub fn run(&self, count: usize, f: &(dyn Fn(usize) + Sync)) {
        let Some(shared) = self.shared else {
            for i in 0..count {
                f(i);
            }
            return;
        };
        if count == 0 {
            return;
        }
        let mut slot = shared.slot.lock().unwrap();
        // Hard assert: a second submission while a job is live would
        // overwrite the pointer workers are dereferencing. One branch per
        // `run` call, so there is no reason to make it debug-only.
        assert!(
            slot.job.is_none(),
            "nested or concurrent Pool::run is not supported"
        );
        // SAFETY: we erase the closure's lifetime to park it in the shared
        // slot; the wait loop below does not return until every worker is
        // done with it and the slot is cleared.
        slot.job = Some(JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        }));
        slot.next = 0;
        slot.count = count;
        slot.panic_payload = None;
        shared.work.notify_all();
        while slot.job.is_some() {
            slot = shared.done.wait(slot).unwrap();
        }
        if let Some(payload) = slot.panic_payload.take() {
            drop(slot);
            std::panic::resume_unwind(payload);
        }
    }

    /// [`Pool::run`] for items with a result: returns `f(i)` for every `i`
    /// in `0..count`, in index order whatever order the items ran in. The
    /// result slots are allocated on the calling thread, none per item.
    pub fn map<T: Send>(&self, count: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        if self.shared.is_none() {
            return (0..count).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        // `f(i)` runs before its slot is locked, so a panicking item
        // poisons no slot (and `run` re-raises its panic anyway).
        self.run(count, &|i| {
            *slots[i].lock().expect("slots are never poisoned") = Some(f(i))
        });
        slots
            .into_iter()
            .map(|slot| {
                let slot = slot.into_inner().expect("slots are never poisoned");
                slot.expect("`run` returns after every item ran")
            })
            .collect()
    }
}

fn worker(shared: &Shared) {
    let mut slot = shared.slot.lock().unwrap();
    loop {
        if slot.shutdown {
            return;
        }
        match slot.job {
            Some(job) if slot.next < slot.count => {
                let i = slot.next;
                slot.next += 1;
                slot.in_flight += 1;
                drop(slot);
                // SAFETY: the submitter blocks in `run` until this job is
                // cleared, so the closure pointer is live.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(i) }));
                slot = shared.slot.lock().unwrap();
                slot.in_flight -= 1;
                if let Err(payload) = result {
                    // Keep the first payload; later ones are dropped.
                    slot.panic_payload.get_or_insert(payload);
                }
                if slot.next >= slot.count && slot.in_flight == 0 {
                    slot.job = None;
                    shared.done.notify_all();
                }
            }
            _ => slot = shared.work.wait(slot).unwrap(),
        }
    }
}

/// Spawns `threads` scoped workers, runs `body` with a [`Pool`] handle,
/// then shuts the workers down. With `threads <= 1` no threads are
/// spawned and the body gets the inline serial pool.
///
/// The workers persist for the whole body — across every `Pool::run`
/// barrier — which is what makes per-stage dispatch cheap.
pub fn with_pool<R>(threads: usize, body: impl FnOnce(&Pool) -> R) -> R {
    let threads = threads.max(1);
    if threads == 1 {
        return body(&Pool::SERIAL);
    }
    let shared = Shared {
        slot: Mutex::new(JobSlot {
            job: None,
            next: 0,
            count: 0,
            in_flight: 0,
            panic_payload: None,
            shutdown: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    /// Signals shutdown on drop, so workers are released even when the
    /// body unwinds (e.g. a re-raised job panic) — `thread::scope` joins
    /// every worker before returning, and without this the join would
    /// wait forever on parked workers.
    struct ShutdownGuard<'a>(&'a Shared);
    impl Drop for ShutdownGuard<'_> {
        fn drop(&mut self) {
            self.0
                .slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .shutdown = true;
            self.0.work.notify_all();
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker(&shared));
        }
        let _guard = ShutdownGuard(&shared);
        body(&Pool {
            shared: Some(&shared),
            threads,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        Pool::SERIAL.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_pool_runs_every_item_exactly_once() {
        let hits = [const { AtomicUsize::new(0) }; 64];
        with_pool(4, |pool| {
            pool.run(64, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_persists_across_barriers() {
        let total = AtomicUsize::new(0);
        with_pool(3, |pool| {
            for _ in 0..10 {
                pool.run(7, &|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
                // Barrier: every item of the previous round is complete.
                assert_eq!(total.load(Ordering::Relaxed) % 7, 0);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 70);
    }

    #[test]
    fn map_returns_results_in_index_order() {
        let want: Vec<usize> = (0..50).map(|i| i * i).collect();
        assert_eq!(Pool::SERIAL.map(50, &|i| i * i), want);
        with_pool(3, |pool| assert_eq!(pool.map(50, &|i| i * i), want));
    }

    #[test]
    fn empty_job_returns_immediately() {
        with_pool(2, |pool| pool.run(0, &|_| unreachable!()));
    }

    // The original payload must survive the worker → submitter hand-off.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates_to_submitter() {
        with_pool(2, |pool| {
            pool.run(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
    }
}
