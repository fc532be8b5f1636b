//! The simulated cluster's amplitudes: shard storage, kernel execution,
//! the all-to-all relayout and the measurement reductions. What any of it
//! costs is charged on the [`Clock`](crate::Clock), not here.

use crate::topology::MachineSpec;
use atlas_qmath::{Complex64, IndexPermuter, Matrix, QubitPermutation};
use atlas_statevec::{measure, scratch, FastKernel, Pool, Scratch, StateVector};
use atlas_telemetry::Recorder;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// The (local qubit positions, reduced unitary) part list of a
/// shared-memory kernel after per-shard insular specialization.
pub type ShmPartList = Vec<(Vec<u32>, Matrix)>;

/// One instruction of a per-shard program: the executor compiles each
/// stage's kernels into one [`ShardProgram`] per shard, and the machine
/// runs the programs of independent shards concurrently (the simulated
/// GPUs really do run in parallel on host threads).
#[derive(Clone, Debug)]
pub enum ShardOp {
    /// A fusion kernel over local qubit positions, pre-classified into its
    /// fast form, with a per-shard scalar folded in where possible.
    Fusion {
        /// Kernel qubit positions (all `< L`), shared across shards.
        qubits: Arc<Vec<u32>>,
        /// The compiled kernel (shared between shards with equal insular
        /// bit patterns).
        kernel: Arc<FastKernel>,
        /// Scalar folded into the kernel entries (`ONE` when absent).
        scale: Complex64,
    },
    /// A shared-memory kernel: per-shard specialized (qubits, unitary)
    /// parts applied in order. The shared-memory active window only
    /// matters for the cost model (which the clock charges from the plan)
    /// — functionally each part is a whole-shard pass. The
    /// parts are `Arc`-shared between shards whose insular bit patterns
    /// agree (the compiler builds each distinct specialization once).
    ShmParts {
        /// The specialized parts, in program order.
        parts: Arc<ShmPartList>,
        /// Per-shard scalar applied after the parts (`ONE` when absent) —
        /// equivalent to the former trailing `1×1` scalar part, kept out
        /// of `parts` so those can be pattern-shared.
        scale: Complex64,
    },
    /// Multiply the whole shard by a scalar (insular factor that could not
    /// fold into any kernel).
    Scale(
        /// The scalar factor.
        Complex64,
    ),
}

/// The compiled instruction sequence one shard executes within a stage.
pub type ShardProgram = Vec<ShardOp>;

/// Amplitudes per 128-byte block — the pair of 64-byte cache lines the L2
/// prefetcher fetches together — as a power of two. A relayout tile
/// consumes one such source block whole per step: on a `n = 22, L = 10`
/// field swap (every local bit trades places with a shard bit), one
/// thread of a 2-vCPU AMD EPYC host moves the state in 5.9 ms with tiles
/// of 8 shards, 9.2 ms with tiles of 4, and no faster with 16.
const BLOCK_BITS: u32 = 3;
/// The most shards one [`ShardGroups`] group holds: a relayout tile writes
/// one destination shard per amplitude of a source block.
const MAX_GROUP: usize = 1 << BLOCK_BITS;

/// A partition of the shard indices into equal groups whose members differ
/// only in the `members` bits: group `g` holds `first(g) | member(m)` for
/// every `m` below `size()`. With no member bits every group is one shard.
#[derive(Clone, Copy)]
struct ShardGroups {
    num_shards: usize,
    members: usize,
}

impl ShardGroups {
    fn count(&self) -> usize {
        self.num_shards >> self.members.count_ones()
    }

    fn size(&self) -> usize {
        1 << self.members.count_ones()
    }

    /// Group `g`'s lowest shard: `g` with a zero inserted at every member
    /// bit, lowest first.
    fn first(&self, g: usize) -> usize {
        let mut s = g;
        let mut bits = self.members;
        while bits != 0 {
            let below = (bits & bits.wrapping_neg()) - 1;
            s = (s & below) | ((s & !below) << 1);
            bits &= bits - 1;
        }
        s
    }

    /// The shard-index offset of member `m`: `m`'s bits deposited into
    /// the member bits, lowest first.
    fn member(&self, m: usize) -> usize {
        let mut out = 0;
        let mut bits = self.members;
        let mut k = 0;
        while bits != 0 {
            out |= ((m >> k) & 1) * (bits & bits.wrapping_neg());
            bits &= bits - 1;
            k += 1;
        }
        out
    }
}

/// One group's exclusive shard views, in member order; slots past the
/// group's size are empty.
type GroupViews<'a> = (usize, [&'a mut [Complex64]; MAX_GROUP]);

/// Shared mutable view of the shard buffers for provably disjoint writes:
/// every pool item owns a contiguous range of [`ShardGroups`] groups, and
/// the groups partition the shards (see [`ShardCell::run_groups`]).
struct ShardCell<'a>(&'a [UnsafeCell<Vec<Complex64>>]);
// SAFETY: sharing is sound because every access goes through `shard_mut`,
// whose contract confines each pool item to the shards of its own groups —
// per-item write sets are pairwise disjoint. `atlas-analyze` discharges
// that argument statically for shard programs: `verify_stage_programs`
// effect-types every `ShardOp` and proves the programs' footprints never
// cross a shard boundary.
unsafe impl Sync for ShardCell<'_> {}

impl<'a> ShardCell<'a> {
    fn new(shards: &'a mut [Vec<Complex64>]) -> Self {
        // SAFETY: Vec<Complex64> and UnsafeCell<Vec<Complex64>> have
        // identical layout, and the exclusive borrow keeps every other
        // access to the buffers out for `'a`.
        ShardCell(unsafe {
            std::slice::from_raw_parts(
                shards.as_mut_ptr() as *const UnsafeCell<Vec<Complex64>>,
                shards.len(),
            )
        })
    }

    /// Shard `s`, first zero-filled to `len` amplitudes if it holds
    /// another length: a ping-pong twin's first use, whose buffers the
    /// owner reserved, so their pages are faulted in by the worker that
    /// fills them.
    ///
    /// # Safety
    /// Caller must guarantee shard `s` is not accessed concurrently.
    #[allow(clippy::mut_from_ref)]
    unsafe fn shard_mut(&self, s: usize, len: usize) -> &mut [Complex64] {
        // SAFETY: caller contract — no concurrent access to shard `s` —
        // makes this the only live reference to the buffer.
        let shard = unsafe { &mut *self.0[s].get() };
        shard.resize(len, Complex64::ZERO);
        shard
    }

    /// Runs `items` pool items; item `i` walks its contiguous share of
    /// `groups`' groups in order, each yielded once as `(first shard,
    /// views)` of `shard_len` amplitudes per shard. The views cannot
    /// outlive the item.
    fn run_groups(
        &self,
        pool: &Pool,
        items: usize,
        groups: ShardGroups,
        shard_len: usize,
        body: &(dyn for<'v> Fn(&mut dyn Iterator<Item = GroupViews<'v>>) + Sync),
    ) {
        let count = groups.count();
        pool.run(items, &|item| {
            let mut views = (item * count / items..(item + 1) * count / items).map(|g| {
                let first = groups.first(g);
                let mut views: [&mut [Complex64]; MAX_GROUP] = Default::default();
                for (m, view) in views[..groups.size()].iter_mut().enumerate() {
                    // SAFETY: `(g, m) ↦ first(g) | member(m)` is a bijection
                    // onto the shard indices and the items' group ranges
                    // are disjoint, so no other item — and no other view of
                    // this one — reaches this shard.
                    *view = unsafe { self.shard_mut(first | groups.member(m), shard_len) };
                }
                (first, views)
            });
            body(&mut views);
        });
    }
}

/// The lookup tables of one relayout `new = perm(old) ^ flip`, rebuilt in
/// place per transition (machine-owned, so a warm transition allocates
/// nothing).
///
/// Destination index `(D << L) | (r << t) | i` — shard `D`, run `r`,
/// offset `i` inside a run of `2^t` — reads its source at
/// `base(D) ^ run_src(r) ^ i`, where `base` and `run_src` are the inverse
/// permutation applied to the shard and run bits (plus the flip's
/// preimage): linear over GF(2), so each is a XOR of table entries.
#[derive(Default)]
struct RelayoutTables {
    /// `t`: the low bits the transition leaves in place (the run length is
    /// `2^t`).
    run_bits: u32,
    /// `shard_bytes[k][v]`: preimage of destination shard bits `8k..8k+8`
    /// holding `v`.
    shard_bytes: Vec<[u64; 256]>,
    /// Preimage of `flip`, folded into every base.
    flip_src: u64,
    /// Preimages of the low / high half of a run index (at most
    /// `2^⌈L/2⌉` entries each).
    runs_lo: Vec<u64>,
    runs_hi: Vec<u64>,
    /// The tile: destination shard bits fed by the source bits `t..3` of
    /// one 128-byte source block — the group members written together.
    tile: usize,
    /// Preimage of each tile member's shard offset (an offset inside the
    /// source block).
    tile_src: [u64; MAX_GROUP],
}

impl RelayoutTables {
    fn build(&mut self, perm: &QubitPermutation, flip: u64, n: u32, l: u32) {
        let mut inv = [0u32; 64];
        for b in 0..n {
            inv[perm.dst(b) as usize] = b;
        }
        let preimage = |bits: u64| -> u64 {
            let mut out = 0;
            let mut rest = bits;
            while rest != 0 {
                out |= 1 << inv[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            out
        };
        // Table of the preimages of the `len` index bits starting at bit
        // `at`, every entry one lookup from a smaller one.
        let fill = |table: &mut [u64], at: u32| {
            table[0] = 0;
            for v in 1..table.len() {
                table[v] = table[v & (v - 1)] | preimage(1 << (at + v.trailing_zeros()));
            }
        };

        let mut t = 0u32;
        while t < l && perm.dst(t) == t && (flip >> t) & 1 == 0 {
            t += 1;
        }
        self.run_bits = t;
        self.flip_src = preimage(flip);

        let shard_bits = n - l;
        self.shard_bytes
            .resize(shard_bits.div_ceil(8) as usize, [0; 256]);
        for (k, table) in self.shard_bytes.iter_mut().enumerate() {
            let len = 1 << (shard_bits - 8 * k as u32).min(8);
            fill(&mut table[..len], l + 8 * k as u32);
        }

        let lo_bits = (l - t).div_ceil(2);
        let hi_bits = l - t - lo_bits;
        self.runs_lo.resize(1 << lo_bits, 0);
        fill(&mut self.runs_lo, t);
        self.runs_hi.resize(1 << hi_bits, 0);
        fill(&mut self.runs_hi, t + lo_bits);

        self.tile = (t..BLOCK_BITS.min(l))
            .map(|b| perm.dst(b))
            .filter(|&d| d >= l)
            .fold(0, |tile, d| tile | 1 << (d - l));
        let groups = ShardGroups {
            num_shards: 1 << shard_bits,
            members: self.tile,
        };
        for m in 0..groups.size() {
            self.tile_src[m] = preimage((groups.member(m) as u64) << l);
        }
    }

    /// Source index of destination shard `d`'s first amplitude.
    fn base(&self, d: usize) -> u64 {
        self.shard_bytes
            .iter()
            .enumerate()
            .fold(self.flip_src, |acc, (k, table)| {
                acc ^ table[(d >> (8 * k)) & 0xFF]
            })
    }

    /// Fills the destination shards `dst` — one tile, in member order —
    /// from `src`, the first member's first amplitude reading source
    /// index `base`. Each step reads one run of every member from the same
    /// source block.
    fn gather(&self, dst: &mut [&mut [Complex64]], src: &[Vec<Complex64>], base: u64, l: u32) {
        // Single amplitudes are assigned, not `memcpy`ed.
        match 1usize << self.run_bits {
            1 => self.gather_runs(dst, src, base, l, 1, |d, at, s, o| d[at] = s[o]),
            run => self.gather_runs(dst, src, base, l, run, |d, at, s, o| {
                d[at..at + run].copy_from_slice(&s[o..o + run])
            }),
        }
    }

    #[inline(always)]
    fn gather_runs(
        &self,
        dst: &mut [&mut [Complex64]],
        src: &[Vec<Complex64>],
        base: u64,
        l: u32,
        run: usize,
        copy: impl Fn(&mut [Complex64], usize, &[Complex64], usize),
    ) {
        let low_mask = (1u64 << l) - 1;
        let tile_src = &self.tile_src[..dst.len()];
        let mut at = 0;
        for &hi in &self.runs_hi {
            let hi = base ^ hi;
            for &lo in &self.runs_lo {
                let from = hi ^ lo;
                let shard = &src[(from >> l) as usize];
                let off = from & low_mask;
                for (d, &m) in dst.iter_mut().zip(tile_src) {
                    copy(d, at, shard, (off ^ m) as usize);
                }
                at += run;
            }
        }
    }
}

/// Republishes this worker thread's monotonic Scratch offset-table memo
/// counters under its telemetry lane, so the metrics snapshot can sum
/// them after the pool threads exit. No-op on a disabled recorder.
fn publish_scratch_counters(rec: &Recorder, scr: &Scratch) {
    if rec.is_enabled() {
        rec.metric_lane_set("scratch.table_hits", scr.table_hits());
        rec.metric_lane_set("scratch.table_misses", scr.table_misses());
        rec.metric_lane_set("scratch.table_evictions", scr.table_evictions());
    }
}

/// The simulated multi-node multi-GPU machine: the `2^n` amplitudes of
/// one functional run, split into `2^{n-L}` shards.
///
/// It holds amplitudes only — simulated time is charged on a
/// [`Clock`](crate::Clock), which a dry run uses without any machine.
pub struct Machine {
    spec: MachineSpec,
    n: u32,
    /// Shard buffers.
    shards: Vec<Vec<Complex64>>,
    /// Ping-pong twin of `shards` for cross-shard relayouts: allocated
    /// lazily on the first general permutation and swapped with `shards`
    /// afterwards, so stage transitions never allocate (or zero-fill)
    /// fresh amplitude buffers in steady state.
    spare: Vec<Vec<Complex64>>,
    /// Single-shard scratch for shard-local (low-bit-closed) permutations,
    /// allocated lazily and reused.
    local_scratch: Vec<Complex64>,
    /// Persistent outer vector of empty shard handles for the pure-relabel
    /// transition (its buffers are never filled — only `mem::swap`ped),
    /// so even the handle shuffle allocates nothing in steady state.
    handles: Vec<Vec<Complex64>>,
    /// The current transition's relayout tables, rebuilt in place.
    relayout: RelayoutTables,
    /// Telemetry handle: disabled by default (every recording call is a
    /// single-branch no-op); [`Machine::set_recorder`] attaches one.
    recorder: Recorder,
}

impl Machine {
    /// Creates a machine and initializes the `n`-qubit `|0…0⟩` state.
    pub fn new(spec: MachineSpec, n: u32) -> Self {
        let spec = spec.checked();
        assert!(
            n <= 30,
            "a machine with n={n} would allocate 2^{n} amplitudes; use a dry run"
        );
        let mut shards =
            vec![vec![Complex64::ZERO; 1usize << spec.local_qubits]; spec.num_shards(n)];
        shards[0][0] = Complex64::ONE;
        Machine {
            spec,
            n,
            shards,
            spare: Vec::new(),
            local_scratch: Vec::new(),
            handles: Vec::new(),
            relayout: RelayoutTables::default(),
            recorder: Recorder::default(),
        }
    }

    /// Attaches a telemetry recorder: kernel-apply and relayout spans are
    /// recorded through it. Timestamps ride the trace channel only —
    /// amplitudes and samples are byte-identical with or without one.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Creates a machine seeded with an arbitrary state.
    pub fn with_state(spec: MachineSpec, state: &StateVector) -> Self {
        let mut m = Machine::new(spec, state.num_qubits());
        let shard_len = m.shard_len();
        for (i, &a) in state.amplitudes().iter().enumerate() {
            m.shards[i >> m.spec.local_qubits][i & (shard_len - 1)] = a;
        }
        m
    }

    /// The machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Circuit width this machine was initialized for.
    pub fn num_qubits(&self) -> u32 {
        self.n
    }

    /// Amplitudes per shard.
    pub fn shard_len(&self) -> usize {
        1usize << self.spec.local_qubits
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to a shard's amplitudes.
    pub fn shard(&self, s: usize) -> &[Complex64] {
        &self.shards[s]
    }

    // ------------------------------------------------------------------
    // Kernel execution
    // ------------------------------------------------------------------

    /// Runs a fusion kernel: a dense `2^k × 2^k` unitary over local qubit
    /// positions `qubits` (all `< L`) on shard `s`.
    pub fn run_fusion_kernel(&mut self, s: usize, qubits: &[u32], matrix: &Matrix) {
        debug_assert!(qubits.iter().all(|&q| q < self.spec.local_qubits));
        scratch::with_thread(|scr| {
            atlas_statevec::apply_matrix(scr, &mut self.shards[s], qubits, matrix, &Pool::SERIAL)
        });
    }

    /// Executes one compiled [`ShardProgram`] per shard — the parallel
    /// execution engine behind `EXECUTE` — on `pool`; `step` is the clock
    /// step the kernels belong to (their barrier has not pushed yet),
    /// which labels their telemetry:
    ///
    /// * shards ≥ pool threads — one pool item per shard, every simulated
    ///   GPU's kernels genuinely concurrent, each kernel serial inside its
    ///   item;
    /// * shards < pool threads — shards run in sequence on the calling
    ///   thread, and each kernel splits its own index groups over the
    ///   pool (`atlas_statevec::apply`).
    ///
    /// Both schedules produce bit-identical amplitudes: a split kernel's
    /// items run the serial kernel's body over disjoint group ranges — the
    /// same floating-point operations, only distributed differently.
    pub fn run_shard_programs(&mut self, programs: &[ShardProgram], step: u32, pool: &Pool) {
        assert_eq!(programs.len(), self.num_shards());
        let num_shards = self.shards.len();
        let shard_len = self.shard_len();
        let shard_amps = shard_len as u64;
        if num_shards < pool.threads() {
            // Fewer shards than workers: keep shards sequential and split
            // each kernel over the pool instead.
            let rec = self.recorder.clone();
            scratch::with_thread(|scr| {
                for (s, prog) in programs.iter().enumerate() {
                    let t = rec.start();
                    run_program(&mut self.shards[s], prog, scr, pool);
                    rec.span(
                        "kernel.apply",
                        t,
                        true,
                        step,
                        s as u32,
                        0,
                        &[("ops", prog.len() as u64), ("amps", shard_amps)],
                    );
                    publish_scratch_counters(&rec, scr);
                }
            });
        } else {
            let rec = &self.recorder;
            // One pool item per shard, each owning just that shard.
            let groups = ShardGroups {
                num_shards,
                members: 0,
            };
            let cell = ShardCell::new(&mut self.shards);
            cell.run_groups(pool, num_shards, groups, shard_len, &|shards| {
                for (s, [amps, ..]) in shards {
                    // Per-worker idle gap since the previous stage (barrier +
                    // reshuffle wait) — scheduling detail, never deterministic.
                    rec.wait_span("worker.wait", step);
                    let t = rec.start();
                    // One scratch arena per pool worker; workers persist
                    // across stages, so the arenas stay warm for the whole
                    // EXECUTE and kernel execution allocates nothing.
                    scratch::with_thread(|scr| {
                        run_program(amps, &programs[s], scr, &Pool::SERIAL);
                        publish_scratch_counters(rec, scr);
                    });
                    rec.span(
                        "kernel.apply",
                        t,
                        true,
                        step,
                        s as u32,
                        0,
                        &[("ops", programs[s].len() as u64), ("amps", shard_amps)],
                    );
                    // Workers only live for the enclosing `with_pool` scope:
                    // drain their fixed-capacity buffers while they exist.
                    rec.flush();
                }
            });
        }
    }

    // ------------------------------------------------------------------
    // Stage transitions
    // ------------------------------------------------------------------

    /// Executes a stage transition: relayouts the state as
    /// `new_index = perm(old_index) ^ flip`, moving amplitudes between
    /// devices; `step` is the clock step that charges it, which labels its
    /// telemetry. The identity transition (identity `perm`, zero `flip`)
    /// moves nothing.
    ///
    /// The functional relayout is a table-driven gather, owned by the
    /// destination:
    ///
    /// * every destination amplitude reads its source at
    ///   `base(shard) ^ run_src(run)`, both parts XORs of entries of tables
    ///   built once per transition (see `RelayoutTables`); when the
    ///   permutation fixes (and `flip` spares) the low `t` bits, whole runs
    ///   of `2^t` amplitudes move per lookup;
    /// * cross-boundary transitions fill the lazily allocated `spare` twin
    ///   on `pool`: each item owns whole destination shards (a contiguous
    ///   range of tiles, below), so writes are disjoint by construction,
    ///   and the spare is swapped in afterwards — steady-state transitions
    ///   allocate and zero-fill nothing. When runs are shorter than 128 bytes, the
    ///   destination shards fed by one 128-byte source block (two cache
    ///   lines) are filled together — a tile — so each source block is
    ///   consumed whole;
    /// * shard-local permutations (low bits closed under `perm`) run in
    ///   place through a single reusable shard-sized scratch on the
    ///   calling thread — and a pure shard-*relabel* (only bits `≥ L`
    ///   move) degenerates to swapping buffer handles without touching any
    ///   amplitude.
    ///
    /// Byte-identical to [`Machine::permute_state_scatter`] for every pool
    /// (pinned by `tests/hotpath_exactness.rs`).
    pub fn permute_state(&mut self, perm: &QubitPermutation, flip: u64, step: u32, pool: &Pool) {
        if perm.is_identity() && flip == 0 {
            return;
        }
        let l = self.spec.local_qubits;
        let n = self.n;
        let shard_len = self.shard_len();
        let low_mask = (shard_len as u64) - 1;
        let low_closed = (0..l).all(|b| perm.dst(b) < l);
        let local_identity = (0..l).all(|b| perm.dst(b) == b) && flip & low_mask == 0;
        if !local_identity {
            self.relayout.build(perm, flip, n, l);
        }
        if low_closed {
            // Shard-local content change (if any), in place per shard: the
            // preimage of a local index is local, so each shard is its own
            // (only) source.
            if !local_identity {
                if self.local_scratch.len() != shard_len {
                    self.local_scratch = vec![Complex64::ZERO; shard_len];
                }
                let base = self.relayout.flip_src & low_mask;
                for shard in &mut self.shards {
                    self.relayout.gather(
                        &mut [&mut self.local_scratch[..]],
                        std::slice::from_ref(shard),
                        base,
                        l,
                    );
                    std::mem::swap(shard, &mut self.local_scratch);
                }
            }
            // Shard relocation from the high bits: pure handle shuffle.
            let high_identity = (l..n).all(|b| perm.dst(b) == b) && (flip >> l) == 0;
            if !high_identity {
                let num_shards = self.shards.len();
                // `handles` always re-ends as all-empty after the double
                // swap below, so it is reusable as-is next transition.
                if self.handles.len() != num_shards {
                    self.handles = vec![Vec::new(); num_shards];
                }
                for s in 0..num_shards {
                    let new_s = ((perm.apply_index((s as u64) << l) ^ flip) >> l) as usize;
                    std::mem::swap(&mut self.handles[new_s], &mut self.shards[s]);
                }
                std::mem::swap(&mut self.shards, &mut self.handles);
            }
            return;
        }

        // General cross-boundary relayout: gather into the spare twin, each
        // pool item filling its own destination tiles. Every destination
        // index is written exactly once (the transition is a bijection), so
        // the spare is never zero-filled after its one-time allocation.
        let num_shards = self.shards.len();
        if self.spare.len() != num_shards {
            // First use: reserve the twin on this thread, as the state's own
            // buffers were (allocated from the workers' heaps instead, the
            // peak RSS of a run came to depend on the schedule); the items
            // zero-fill it as they reach each shard.
            self.spare = (0..num_shards)
                .map(|_| Vec::with_capacity(shard_len))
                .collect();
        }
        let groups = ShardGroups {
            num_shards,
            members: self.relayout.tile,
        };
        // One contiguous range per thread: every group is the same work.
        // (Four items per thread measured no faster on the traced shuffle22
        // and dense22 reshuffles at 2 threads, within run-to-run spread.)
        let items = groups.count().min(pool.threads());
        let (src, tables, rec) = (&self.shards, &self.relayout, &self.recorder);
        let cell = ShardCell::new(&mut self.spare);
        cell.run_groups(pool, items, groups, shard_len, &|tiles| {
            // Idle time since this worker's previous event, then the move
            // itself on the same lane: neither is deterministic, and with
            // both recorded `worker.wait` stays idle time only.
            rec.wait_span("worker.wait", step);
            let t = rec.start();
            let mut shards = 0;
            for (first, mut tile) in tiles {
                let tile = &mut tile[..groups.size()];
                tables.gather(tile, src, tables.base(first), l);
                shards += tile.len() as u64;
            }
            rec.span(
                "machine.relayout",
                t,
                false,
                step,
                0,
                0,
                &[("shards", shards)],
            );
            rec.flush();
        });
        std::mem::swap(&mut self.shards, &mut self.spare);
    }

    /// The per-amplitude scatter oracle for [`Machine::permute_state`]:
    /// allocates and fills a fresh shard set, computing every element's
    /// destination independently. Kept in-tree as the differential
    /// reference and the baseline the hotpath bench measures the relayout
    /// engine against.
    pub fn permute_state_scatter(&mut self, perm: &QubitPermutation, flip: u64) {
        let l = self.spec.local_qubits;
        let shard_len = self.shard_len();
        let mut new_shards = vec![vec![Complex64::ZERO; shard_len]; self.shards.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            let base = (s as u64) << l;
            for (i, &a) in shard.iter().enumerate() {
                let old = base | i as u64;
                let new = perm.apply_index(old) ^ flip;
                new_shards[(new >> l) as usize][(new & (shard_len as u64 - 1)) as usize] = a;
            }
        }
        self.shards = new_shards;
    }

    // ------------------------------------------------------------------
    // Measurement reductions
    // ------------------------------------------------------------------
    //
    // Read-only entry points for the `atlas-sampler` measurement engine:
    // every reduction runs on the sharded, still-permuted buffers — the
    // full 2^n vector is never materialized. Parallelism mirrors
    // `run_shard_programs`: one pool item per shard when shards cover the
    // workers, the shard's chunks as pool items otherwise, and results are
    // combined in shard/chunk order so every value is bit-identical for
    // every pool (see `atlas_statevec::measure`).

    /// Runs `f(shard, amps, inner)` over every shard on `pool`, returning
    /// results in shard order; `inner` is the pool a shard's own
    /// reduction may split over.
    fn map_shards<T: Send>(
        &self,
        pool: &Pool,
        f: &(dyn Fn(usize, &[Complex64], &Pool) -> T + Sync),
    ) -> Vec<T> {
        let shards = &self.shards;
        if shards.len() < pool.threads() {
            // Spend the pool inside each shard's reduction.
            return (0..shards.len()).map(|s| f(s, &shards[s], pool)).collect();
        }
        pool.map(shards.len(), &|s| f(s, &shards[s], &Pool::SERIAL))
    }

    /// Per-shard probability masses `Σ|αᵢ|²`, in shard order.
    pub fn shard_norms(&self, pool: &Pool) -> Vec<f64> {
        self.map_shards(pool, &|_, amps, inner| measure::norm_sqr_slice(amps, inner))
    }

    /// Total norm `Σ|αᵢ|²` over all shards (shard partials combined in
    /// shard order).
    pub fn total_norm(&self, pool: &Pool) -> f64 {
        self.shard_norms(pool).iter().sum()
    }

    /// Diagonal Pauli reduction: `Σ_x (-1)^{popcount(x & sign_mask)}·|α_x|²`
    /// over all physical indices `x`. This is `⟨ψ|P|ψ⟩` for a Pauli
    /// string of `Z`s on the physical bits of `sign_mask`.
    pub fn signed_norm_sum(&self, sign_mask: u64, pool: &Pool) -> f64 {
        let l = self.spec.local_qubits;
        self.map_shards(pool, &|s, amps, inner| {
            measure::signed_norm(amps, (s as u64) << l, sign_mask, inner)
        })
        .iter()
        .sum()
    }

    /// Off-diagonal Pauli reduction:
    /// `Σ_x conj(α_{x ^ flip}) · (-1)^{popcount(x & sign_mask)} · α_x`
    /// over all physical indices `x`. The partner amplitude is read from
    /// whichever shard holds `x ^ flip` — no data moves. Together with a
    /// caller-applied `i^{#Y}` prefactor this evaluates any Pauli-string
    /// expectation (`flip` = X|Y bits, `sign_mask` = Z|Y bits).
    pub fn signed_pair_sum(&self, flip: u64, sign_mask: u64, pool: &Pool) -> Complex64 {
        let l = self.spec.local_qubits;
        let shard_len = self.shard_len();
        let shards = &self.shards;
        self.map_shards(pool, &|s, amps, inner| {
            let partner = &shards[s ^ (flip >> l) as usize];
            let local_flip = (flip as usize) & (shard_len - 1);
            measure::signed_pair_sum(amps, partner, local_flip, (s as u64) << l, sign_mask, inner)
        })
        .iter()
        .fold(Complex64::ZERO, |acc, &v| acc + v)
    }

    /// The amplitude at a physical index.
    #[inline]
    pub fn amp_at_physical(&self, idx: u64) -> Complex64 {
        let l = self.spec.local_qubits;
        self.shards[(idx >> l) as usize][(idx & ((1u64 << l) - 1)) as usize]
    }

    /// Probability masses of fixed `2^chunk_bits`-index chunks of the
    /// **logical** index space: entry `j` is
    /// `Σ_{x ∈ [j·2^c, (j+1)·2^c)} |α_{l2p(x)}|²`, accumulated in logical
    /// index order (`l2p` maps logical → physical indices).
    ///
    /// This is the coarse row of the sampling CDF. Because the iteration
    /// order and chunk boundaries are defined in logical space, the
    /// result — and everything downstream, including sampled bitstrings —
    /// is independent of the shard layout's bit permutation, not just of
    /// the thread count.
    pub fn logical_chunk_norms(
        &self,
        l2p: &IndexPermuter,
        chunk_bits: u32,
        pool: &Pool,
    ) -> Vec<f64> {
        let c = chunk_bits.min(self.n);
        let chunk_len = 1u64 << c;
        pool.map(1 << (self.n - c), &|j| {
            let base = (j as u64) << c;
            let mut acc = 0.0;
            for t in 0..chunk_len {
                acc += self.amp_at_physical(l2p.apply(base | t)).norm_sqr();
            }
            acc
        })
    }

    /// Shard-aware inverse-CDF resolution: maps ascending cumulative
    /// `targets` (each in `[0, Σ chunk_norms)`) to **logical** basis-state
    /// indices, using `chunk_norms` (from [`Machine::logical_chunk_norms`]
    /// with the same `l2p` and `chunk_bits`) as the coarse CDF and a
    /// serial logical-order scan within each hit chunk.
    ///
    /// Chunks with at least one target resolve concurrently on `pool`;
    /// within a chunk the scan accumulates in logical index order, so the
    /// assignment is deterministic for every thread count and shard
    /// layout. Targets at or past the total mass clamp to the last index.
    pub fn resolve_targets(
        &self,
        l2p: &IndexPermuter,
        chunk_bits: u32,
        chunk_norms: &[f64],
        targets: &[f64],
        pool: &Pool,
    ) -> Vec<u64> {
        let c = chunk_bits.min(self.n);
        let chunk_len = 1u64 << c;
        assert_eq!(chunk_norms.len(), 1usize << (self.n - c));
        debug_assert!(targets.windows(2).all(|w| w[0] <= w[1]), "targets sorted");
        // Chunk-level CDF.
        let mut prefix = Vec::with_capacity(chunk_norms.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &m in chunk_norms {
            acc += m;
            prefix.push(acc);
        }
        // Group consecutive targets by the chunk their CDF interval hits.
        let mut groups: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut j = 0usize;
        for (ti, &t) in targets.iter().enumerate() {
            while j + 1 < chunk_norms.len() && prefix[j + 1] <= t {
                j += 1;
            }
            match groups.last_mut() {
                Some((cj, range)) if *cj == j => range.end = ti + 1,
                _ => groups.push((j, ti..ti + 1)),
            }
        }
        let resolved = pool.map(groups.len(), &|g| {
            let (j, ref range) = groups[g];
            let base = (j as u64) << c;
            let mut acc = prefix[j];
            let mut out = Vec::with_capacity(range.len());
            for t in 0..chunk_len {
                acc += self.amp_at_physical(l2p.apply(base | t)).norm_sqr();
                while out.len() < range.len() && targets[range.start + out.len()] < acc {
                    out.push(base | t);
                }
                if out.len() == range.len() {
                    break;
                }
            }
            // Floating-point slack at the chunk boundary: clamp to the
            // chunk's last index.
            out.resize(range.len(), base | (chunk_len - 1));
            out
        });
        resolved.concat()
    }

    /// Marginal probability distribution over the given **physical** bits:
    /// entry `v` of the result is the total probability of all basis
    /// states whose bits at `phys_bits[t]` spell `v` (bit `t` of `v` =
    /// physical bit `phys_bits[t]`). Accumulates in shard order, index
    /// order within each shard. Small marginals (`b ≤ 12`) use one
    /// partial vector per shard and run shards concurrently; wide ones
    /// fold serially into a single `2^b` buffer (per-shard partials
    /// would dwarf the state itself). The schedule depends only on `b`,
    /// never on the thread count, so any given marginal is bit-identical
    /// for every `--threads` value.
    pub fn marginal_distribution(&self, phys_bits: &[u32], pool: &Pool) -> Vec<f64> {
        let b = phys_bits.len();
        assert!(b <= 24, "marginal over {b} bits would allocate 2^{b} bins");
        let l = self.spec.local_qubits;
        let accumulate = |s: usize, amps: &[Complex64], dist: &mut [f64]| {
            let base = (s as u64) << l;
            for (i, a) in amps.iter().enumerate() {
                let v = atlas_qmath::extract_bits(base | i as u64, phys_bits);
                dist[v as usize] += a.norm_sqr();
            }
        };
        // Per-shard partial vectors only while all of them together stay
        // small next to one shard (b ≤ 12 → ≤ 32 KiB each).
        if b <= 12 {
            let partials = self.map_shards(pool, &|s, amps, _| {
                let mut dist = vec![0.0f64; 1 << b];
                accumulate(s, amps, &mut dist);
                dist
            });
            let mut out = vec![0.0f64; 1 << b];
            for dist in partials {
                for (o, v) in out.iter_mut().zip(dist) {
                    *o += v;
                }
            }
            out
        } else {
            let mut out = vec![0.0f64; 1 << b];
            for (s, amps) in self.shards.iter().enumerate() {
                accumulate(s, amps, &mut out);
            }
            out
        }
    }

    /// The `k` most probable outcomes as `(remap(physical index),
    /// probability)`, descending, selected with one bounded-heap pass per
    /// shard and a shard-order merge — never a full sort, never a
    /// gathered vector.
    ///
    /// Indices are pushed through `remap` *before* entering the heaps, so
    /// ties order by the **remapped** index — callers that pass the
    /// physical→logical permuter get exactly the logical-order selection
    /// (strict total order, stable across shard layouts); pass the
    /// identity to stay in physical indices.
    pub fn top_outcomes(&self, k: usize, remap: &IndexPermuter, pool: &Pool) -> Vec<(u64, f64)> {
        let l = self.spec.local_qubits;
        let partials = self.map_shards(pool, &|s, amps, _| {
            let base = (s as u64) << l;
            let mut top = measure::TopK::new(k);
            for (i, a) in amps.iter().enumerate() {
                let p = a.norm_sqr();
                if p > atlas_qmath::EPS {
                    top.push(remap.apply(base | i as u64), p);
                }
            }
            top
        });
        let mut merged = measure::TopK::new(k);
        for t in partials {
            merged.merge(t);
        }
        merged.into_sorted_vec()
    }

    // ------------------------------------------------------------------
    // State access
    // ------------------------------------------------------------------

    /// Collects the distributed state into a single state vector.
    pub fn gather_state(&self) -> StateVector {
        let l = self.spec.local_qubits;
        let mut amps = vec![Complex64::ZERO; 1usize << self.n];
        for (s, shard) in self.shards.iter().enumerate() {
            let base = s << l;
            amps[base..base + shard.len()].copy_from_slice(shard);
        }
        StateVector::from_amplitudes(amps)
    }
}

/// Applies one shard's program to its amplitude buffer, splitting each
/// kernel over `pool` and reusing `scratch` for every kernel.
/// Bit-identical for any pool (see [`atlas_statevec::apply`]).
fn run_program(amps: &mut [Complex64], prog: &ShardProgram, scratch: &mut Scratch, pool: &Pool) {
    for op in prog {
        match op {
            ShardOp::Fusion {
                qubits,
                kernel,
                scale,
            } => atlas_statevec::apply_kernel(scratch, amps, qubits, kernel, *scale, pool),
            ShardOp::ShmParts { parts, scale, .. } => {
                for (qs, m) in parts.iter() {
                    atlas_statevec::apply_reduced(scratch, amps, qs, m, pool);
                }
                if !scale.approx_eq(Complex64::ONE, 0.0) {
                    atlas_statevec::scale(amps, *scale, pool);
                }
            }
            ShardOp::Scale(f) => atlas_statevec::scale(amps, *f, pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::{Circuit, Gate, GateKind};
    use atlas_statevec::simulate_reference;

    fn small_spec() -> MachineSpec {
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 3,
        }
    }

    #[test]
    fn distributed_kernels_match_reference() {
        // 5 qubits, L=3 → 4 shards on 4 GPUs. Apply local gates per shard
        // and compare against the reference simulator.
        let mut circuit = Circuit::new(5);
        circuit.h(0).cx(0, 1).t(2).cp(0.7, 1, 2);
        let mut m = Machine::new(small_spec(), 5);
        for s in 0..m.num_shards() {
            for g in circuit.gates() {
                // All gates are local (< L=3) here.
                m.run_fusion_kernel(s, g.qubits.as_slice(), &g.matrix());
            }
        }
        let got = m.gather_state();
        let want = simulate_reference(&circuit);
        assert!(
            got.approx_eq(&want, 1e-10),
            "distributed diverged: {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn permute_state_moves_amplitudes_correctly() {
        // Prepare a recognizable state, permute qubits, compare to direct
        // index remapping.
        let mut prep = Circuit::new(5);
        prep.h(0).h(3).cx(3, 4).t(1);
        let reference = simulate_reference(&prep);
        let mut m = Machine::with_state(small_spec(), &reference);
        // Swap qubit 1 (local) with qubit 4 (global).
        let mut map: Vec<u32> = (0..5).collect();
        map.swap(1, 4);
        let perm = atlas_qmath::QubitPermutation::from_map(map);
        m.permute_state(&perm, 0, 0, &Pool::SERIAL);
        let got = m.gather_state();
        for old in 0..32u64 {
            let new = perm.apply_index(old);
            assert!(
                got.amplitudes()[new as usize]
                    .approx_eq(reference.amplitudes()[old as usize], 1e-12),
                "index {old} → {new} mismatch"
            );
        }
    }

    #[test]
    fn flip_only_relabels_and_moves() {
        // X on a global qubit = flip of a shard bit: amplitudes relocate.
        let mut prep = Circuit::new(5);
        prep.h(2).cx(2, 4);
        let reference = simulate_reference(&prep);
        let mut m = Machine::with_state(small_spec(), &reference);
        m.permute_state(
            &atlas_qmath::QubitPermutation::identity(5),
            1 << 4,
            0,
            &Pool::SERIAL,
        );
        let got = m.gather_state();
        for old in 0..32u64 {
            assert!(got.amplitudes()[(old ^ 16) as usize]
                .approx_eq(reference.amplitudes()[old as usize], 1e-12));
        }
    }

    #[test]
    fn shard_programs_match_direct_kernels() {
        use atlas_statevec::classify_kernel;
        // Prepare a dense 5-qubit state split into 4 shards.
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q);
            prep.rz(0.2 * (q + 1) as f64, q);
        }
        let reference = simulate_reference(&prep);
        let h = Gate::new(GateKind::H, &[1]).matrix();
        let cp = Gate::new(GateKind::CP(0.6), &[0, 2]).matrix();
        let factor = Complex64::cis(0.3);

        // Direct kernel launches, then the scale on the gathered state.
        let mut direct = Machine::with_state(small_spec(), &reference);
        for s in 0..direct.num_shards() {
            direct.run_fusion_kernel(s, &[1], &h);
            direct.run_fusion_kernel(s, &[0, 2], &cp);
        }
        let want = StateVector::from_amplitudes(
            direct
                .gather_state()
                .amplitudes()
                .iter()
                .map(|&a| a * factor)
                .collect(),
        );

        // Same work as shard programs, serial pool and a 3-thread pool.
        for threads in [1usize, 3] {
            let mut engine = Machine::with_state(small_spec(), &reference);
            let programs: Vec<ShardProgram> = (0..engine.num_shards())
                .map(|_| {
                    vec![
                        ShardOp::Fusion {
                            qubits: Arc::new(vec![1]),
                            kernel: Arc::new(classify_kernel(&h)),
                            scale: Complex64::ONE,
                        },
                        ShardOp::Fusion {
                            qubits: Arc::new(vec![0, 2]),
                            kernel: Arc::new(classify_kernel(&cp)),
                            scale: Complex64::ONE,
                        },
                        ShardOp::Scale(factor),
                    ]
                })
                .collect();
            atlas_statevec::with_pool(threads, |pool| {
                engine.run_shard_programs(&programs, 0, pool);
            });
            assert!(
                engine.gather_state().approx_eq(&want, 1e-10),
                "t={threads}: engine diverged from direct kernels"
            );
        }
    }

    #[test]
    fn measurement_reductions_match_dense_reference() {
        use atlas_qmath::IndexPermuter;
        // A dense, phase-rich 5-qubit state on 4 shards.
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q).rz(0.17 * (q + 1) as f64, q);
        }
        prep.cx(0, 3).cp(0.9, 1, 4);
        let reference = simulate_reference(&prep);
        let m = Machine::with_state(small_spec(), &reference);
        let pool = atlas_statevec::Pool::SERIAL;

        // Norms.
        let norms = m.shard_norms(&pool);
        assert_eq!(norms.len(), 4);
        assert!((m.total_norm(&pool) - 1.0).abs() < 1e-12);

        // Diagonal reduction = Σ sign·|α|² computed densely.
        let sign_mask = 0b01001u64;
        let want: f64 = reference
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(x, a)| {
                let s = if (x as u64 & sign_mask).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                s * a.norm_sqr()
            })
            .sum();
        assert!((m.signed_norm_sum(sign_mask, &pool) - want).abs() < 1e-12);

        // Off-diagonal reduction with a cross-shard flip (bit 4 ≥ L=3).
        let flip = 0b10010u64;
        let want =
            reference
                .amplitudes()
                .iter()
                .enumerate()
                .fold(Complex64::ZERO, |acc, (x, &a)| {
                    let s = if (x as u64 & sign_mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    acc + reference.amplitudes()[x ^ flip as usize].conj() * a * s
                });
        let got = m.signed_pair_sum(flip, sign_mask, &pool);
        assert!((got - want).norm() < 1e-12);

        // Logical chunk norms under a non-trivial layout permutation sum
        // to the per-chunk dense masses.
        let mut map: Vec<u32> = (0..5).collect();
        map.swap(0, 4);
        map.swap(1, 3);
        let perm = atlas_qmath::QubitPermutation::from_map(map);
        let mut permuted = Machine::with_state(small_spec(), &reference);
        permuted.permute_state(&perm, 0, 0, &pool);
        // State now holds logical x at physical perm(x): l2p = perm.
        let l2p = IndexPermuter::new(&perm);
        let chunks = permuted.logical_chunk_norms(&l2p, 2, &pool);
        assert_eq!(chunks.len(), 8);
        for (j, &got) in chunks.iter().enumerate() {
            let want: f64 = (0..4)
                .map(|t| reference.amplitudes()[j * 4 + t].norm_sqr())
                .sum();
            assert!((got - want).abs() < 1e-12, "chunk {j}");
        }

        // Inverse-CDF: targets placed inside known probability intervals
        // resolve to the matching logical indices.
        let probs: Vec<f64> = reference
            .amplitudes()
            .iter()
            .map(|a| a.norm_sqr())
            .collect();
        let mut cdf = vec![0.0];
        for &p in &probs {
            cdf.push(cdf.last().unwrap() + p);
        }
        let targets: Vec<f64> = vec![
            cdf[3] + probs[3] * 0.5,
            cdf[17] + probs[17] * 0.25,
            cdf[30] + probs[30] * 0.99,
        ];
        let mut sorted = targets.clone();
        sorted.sort_by(f64::total_cmp);
        let got = permuted.resolve_targets(&l2p, 2, &chunks, &sorted, &pool);
        assert_eq!(got, vec![3, 17, 30]);

        // Marginal over physical bits {0, 4} matches the dense sum.
        let dist = m.marginal_distribution(&[0, 4], &pool);
        for (v, &got_p) in dist.iter().enumerate() {
            let want: f64 = reference
                .amplitudes()
                .iter()
                .enumerate()
                .filter(|(x, _)| (x & 1 != 0) as usize | (((x >> 4) & 1) << 1) == v)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert!((got_p - want).abs() < 1e-12, "marginal bin {v}");
        }

        // Top outcomes agree with the dense selector.
        let want = reference.top_probabilities(5);
        let identity = IndexPermuter::new(&atlas_qmath::QubitPermutation::identity(5));
        let got = m.top_outcomes(5, &identity, &pool);
        assert_eq!(got.len(), 5);
        for ((gi, gp), (wi, wp)) in got.iter().zip(&want) {
            assert_eq!(gi, wi);
            assert!((gp - wp).abs() < 1e-12);
        }
    }
}
