//! The simulated cluster's amplitudes: shard storage, kernel execution,
//! the all-to-all relayout and the measurement reductions. What any of it
//! costs is charged on the [`Clock`](crate::Clock), not here.

use crate::topology::MachineSpec;
use atlas_qmath::{Complex64, Matrix, QubitPermutation};
use atlas_statevec::{measure, scratch, FastKernel, Pool, Scratch, StateVector};
use atlas_telemetry::Recorder;
use std::sync::atomic::{AtomicPtr, Ordering};
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
/// prefetcher fetches together — as a power of two. A round that moves a
/// bit below the block exchanges whole tiles of blocks, so each block is
/// consumed whole.
const BLOCK_BITS: u32 = 3;
/// The most blocks one tile holds: one per value of the bits a block's own
/// moved bits trade places with.
const MAX_TILE_BLOCKS: usize = 1 << BLOCK_BITS;
/// The most bit pairs one round swaps: every pair holds a local bit, and a
/// machine has at most 30 qubits.
const MAX_PAIRS: usize = 32;

/// Bits of `v`, lowest first, deposited into the set bits of `mask`.
fn deposit(mut v: u64, mut mask: u64) -> u64 {
    let mut out = 0;
    while mask != 0 && v != 0 {
        let low = mask & mask.wrapping_neg();
        if v & 1 != 0 {
            out |= low;
        }
        v >>= 1;
        mask &= mask - 1;
    }
    out
}

/// The set bits of `mask` in `x`, packed down, lowest first.
fn extract(x: u64, mut mask: u64) -> u64 {
    let mut out = 0;
    let mut k = 0;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if x & low != 0 {
            out |= 1 << k;
        }
        mask &= mask - 1;
        k += 1;
    }
    out
}

/// The next subset of `mask` after `x`, in increasing order (`0` after the
/// last one).
fn next_subset(x: u64, mask: u64) -> u64 {
    x.wrapping_sub(mask) & mask
}

/// `x` with bits `a` and `b` exchanged.
fn swap_bits(x: u64, a: u8, b: u8) -> u64 {
    let d = ((x >> a) ^ (x >> b)) & 1;
    x ^ ((d << a) | (d << b))
}

/// One in-place round of a relayout: the involution `x ↦ τ(x) ⊕ flip` on
/// state indices, where `τ` exchanges disjoint bit pairs, each holding a
/// local bit, and `τ(flip) = flip`. Every amplitude therefore trades places
/// with exactly one partner, or is a fixed point and is never touched.
#[derive(Clone, Copy, Default)]
struct Round {
    pairs: [(u8, u8); MAX_PAIRS],
    len: usize,
    flip: u64,
}

impl Round {
    fn pairs(&self) -> &[(u8, u8)] {
        &self.pairs[..self.len]
    }

    fn push(&mut self, a: u32, b: u32) {
        self.pairs[self.len] = (a as u8, b as u8);
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.flip == 0
    }

    /// The bits the round moves or flips.
    fn touched(&self) -> u64 {
        self.pairs()
            .iter()
            .fold(self.flip, |m, &(a, b)| m | (1 << a) | (1 << b))
    }

    /// The index `x` trades places with (`x` itself at a fixed point).
    fn partner(&self, x: u64) -> u64 {
        self.pairs()
            .iter()
            .fold(x ^ self.flip, |y, &(a, b)| swap_bits(y, a, b))
    }
}

/// One transition `new = perm(old) ^ flip`, split into in-place rounds and a
/// shard relabel (rebuilt in place per transition: a warm transition
/// allocates nothing).
///
/// The rounds realise a bit permutation `σ` that puts every bit bound for a
/// local position where `perm` puts it, and every other bit on some shard
/// bit. `σ` follows each local position back along `perm` to a shard bit
/// `y` and closes the path into a cycle `(y, perm(y), …)`; local cycles stay
/// as they are. A cycle is the product of two reflections, so `σ` is at
/// most two rounds: the first holds local pairs only, the second one pair
/// `(y, perm(y))` per shard bit that enters plus local pairs. An Atlas
/// transition — `k` local bits traded for `k` shard bits, every other local
/// bit in place — is the second round alone: shard `m` of a group of `2^k`
/// swaps offset `c` with shard `c ⊕ f`, offset `m ⊕ f`. Local flips at the
/// entering bits ride in that round (the shard side of its flip is undone by
/// the relabel); any other local flip is one more round, `i ↔ i ⊕ f`. What
/// remains — shard bits moving between shard positions, shard flips, that
/// compensation — is the same map for every offset of a shard: the relabel
/// swaps buffer handles and moves no amplitude.
#[derive(Default)]
struct Exchange {
    rounds: [Round; 3],
    count: usize,
}

impl Exchange {
    fn plan(&mut self, perm: &QubitPermutation, flip: u64, n: u32, l: u32) {
        let (mut first, mut second, mut rest) = <(Round, Round, Round)>::default();
        // Reflections `i ↔ −i` and `i ↔ 1 − i` (mod the length) of a cycle
        // `c` with `σ(c[i]) = c[i + 1]`: `σ = second ∘ first`.
        let mut split = |c: &[u32]| {
            let s = c.len();
            for i in 1..s {
                if i < s - i {
                    first.push(c[i], c[s - i]);
                }
            }
            for i in 0..s {
                if i < (s + 1 - i) % s {
                    second.push(c[i], c[(s + 1 - i) % s]);
                }
            }
        };
        let mut cycle = [0u32; 64];
        let mut placed = 0u64;
        // A flip at an entering bit `x = perm(y)` rides in the second round
        // as the symmetric flip of the pair `(y, x)`.
        let mut entering_flip = 0u64;
        for y in l..n {
            let mut len = 0;
            let mut b = y;
            while len == 0 || b < l {
                cycle[len] = b;
                len += 1;
                placed |= 1 << b;
                b = perm.dst(b);
            }
            if len > 1 && (flip >> cycle[1]) & 1 != 0 {
                entering_flip |= (1 << y) | (1 << cycle[1]);
            }
            split(&cycle[..len]);
        }
        for c in 0..l {
            if (placed >> c) & 1 != 0 || perm.dst(c) == c {
                continue;
            }
            let mut len = 0;
            let mut b = c;
            while len == 0 || b != c {
                cycle[len] = b;
                len += 1;
                placed |= 1 << b;
                b = perm.dst(b);
            }
            split(&cycle[..len]);
        }
        second.flip = entering_flip;
        rest.flip = flip & ((1 << l) - 1) & !entering_flip;
        self.count = 0;
        for round in [first, second, rest] {
            if !round.is_empty() {
                self.rounds[self.count] = round;
                self.count += 1;
            }
        }
    }

    fn rounds(&self) -> &[Round] {
        &self.rounds[..self.count]
    }

    /// The index whose amplitude the rounds leave at `x`.
    fn source(&self, x: u64) -> u64 {
        self.rounds().iter().rev().fold(x, |y, r| r.partner(y))
    }
}

/// Where a round's walk moves amplitudes: the shard buffers
/// ([`ShardPtrs`]), or, in the tests, a record of the positions touched.
trait Swapper {
    /// A position, as handed back by [`Swapper::at`].
    type At: Copy;
    /// Offset `offset` of shard `shard`.
    fn at(&self, shard: usize, offset: usize) -> Self::At;
    /// The position `by` amplitudes past `at`, in the same shard.
    fn add(at: Self::At, by: usize) -> Self::At;
    /// Exchanges the `len` amplitudes at `a` with the `len` at `b`.
    fn swap(&self, a: Self::At, b: Self::At, len: usize);
}

/// The shard buffers' base pointers, shared by one round's pool items.
struct ShardPtrs<'a> {
    ptrs: &'a [AtomicPtr<Complex64>],
    shard_len: usize,
}

impl Swapper for ShardPtrs<'_> {
    type At = *mut Complex64;

    fn at(&self, shard: usize, offset: usize) -> *mut Complex64 {
        debug_assert!(offset < self.shard_len);
        self.ptrs[shard]
            .load(Ordering::Relaxed)
            .wrapping_add(offset)
    }

    fn add(at: *mut Complex64, by: usize) -> *mut Complex64 {
        at.wrapping_add(by)
    }

    fn swap(&self, a: *mut Complex64, b: *mut Complex64, len: usize) {
        // The walk forms only indices below `2^n`, a unit never crosses a
        // shard, and `a`'s unit is not `b`'s; `permute_state` holds
        // `&mut self`, so the buffers stay put. Items walk disjoint class
        // ranges and a pair never leaves its class, so no two items reach
        // one amplitude (`walks_partition_the_non_fixed_positions`).
        // SAFETY: in bounds, unaliased and race-free, as above.
        unsafe { std::ptr::swap_nonoverlapping(a, b, len) }
    }
}

/// How one [`Round`] is walked: which pairs each pool item owns, and which
/// amplitudes move together.
///
/// * A *unit* is `2^unit` consecutive amplitudes of one shard: a run the
///   round leaves intact when it moves no bit below [`BLOCK_BITS`], else one
///   128-byte block.
/// * A *tile* is the units that differ only in the bits their own moved
///   bits trade places with. The round maps a tile onto one *mirror* tile
///   (a tile may be its own mirror), element `j` onto `partner[j]`, so a
///   tile pair is exchanged whole, block after block.
/// * A *class* is one value of the bits the round leaves alone outside the
///   unit. A pair never leaves its class, so pool items own contiguous class
///   ranges; inside a class, the tile with the lower index owns each pair.
struct Walk {
    l: u32,
    unit: u32,
    /// Whether the round moves bits inside a unit (`partner` is in use).
    tiled: bool,
    /// Index offsets of a tile's units.
    blocks: [u64; MAX_TILE_BLOCKS],
    num_blocks: usize,
    /// Element `j` of a tile (unit `j >> unit`, offset `j & (2^unit − 1)`)
    /// trades places with element `partner[j]` of the mirror tile.
    partner: [u8; MAX_TILE_BLOCKS << BLOCK_BITS],
    /// Moved bits outside the tiles: one tile per value.
    outer: u64,
    /// The round restricted to the `outer` bits.
    outer_round: Round,
    /// Bits the round leaves alone above the unit: one class per value.
    class_bits: u64,
    /// Shard bits moved by the round: a class's shards form one group.
    group_bits: u32,
}

impl Walk {
    fn new(round: &Round, n: u32, l: u32) -> Self {
        let touched = round.touched();
        let run = (touched & ((1 << l) - 1)).trailing_zeros().min(l);
        let tiled = run < BLOCK_BITS;
        let unit = if tiled { BLOCK_BITS.min(l) } else { run };
        let unit_mask = (1u64 << unit) - 1;
        // The bits above the unit that trade places with bits inside it.
        let mut tile_bits = 0u64;
        let mut outer_round = Round::default();
        for &(a, b) in round.pairs() {
            match (u32::from(a) < unit, u32::from(b) < unit) {
                (true, false) => tile_bits |= 1 << b,
                (false, true) => tile_bits |= 1 << a,
                (false, false) => outer_round.push(a.into(), b.into()),
                (true, true) => {}
            }
        }
        let tile_mask = tile_bits | unit_mask;
        outer_round.flip = round.flip & !tile_mask;
        let num_blocks = 1 << tile_bits.count_ones();
        let mut blocks = [0; MAX_TILE_BLOCKS];
        for (h, at) in blocks[..num_blocks].iter_mut().enumerate() {
            *at = deposit(h as u64, tile_bits);
        }
        let mut partner = [0; MAX_TILE_BLOCKS << BLOCK_BITS];
        if tiled {
            for (j, p) in partner[..num_blocks << unit].iter_mut().enumerate() {
                let x = blocks[j >> unit] | (j as u64 & unit_mask);
                let y = round.partner(x) & tile_mask;
                *p = ((extract(y, tile_bits) << unit) | (y & unit_mask)) as u8;
            }
        }
        let all = (1u64 << n) - 1;
        Walk {
            l,
            unit,
            tiled,
            blocks,
            num_blocks,
            partner,
            outer: touched & !tile_mask,
            outer_round,
            class_bits: all & !(touched | tile_mask),
            group_bits: (touched >> l).count_ones(),
        }
    }

    fn classes(&self) -> usize {
        1 << self.class_bits.count_ones()
    }

    /// Pool items for a pool of `threads`: one contiguous class range per
    /// thread (every class is the same work).
    fn items(&self, threads: usize) -> usize {
        self.classes().min(threads)
    }

    /// Item `item`'s classes, of `items` items.
    fn item_classes(&self, item: usize, items: usize) -> std::ops::Range<usize> {
        let classes = self.classes();
        item * classes / items..(item + 1) * classes / items
    }

    /// The shards `classes` reach: each group of `2^group_bits` shards once.
    fn shards(&self, classes: std::ops::Range<usize>) -> u64 {
        if classes.is_empty() {
            return 0;
        }
        let local = (self.class_bits & ((1 << self.l) - 1)).count_ones();
        let groups = ((classes.end - 1) >> local) - (classes.start >> local) + 1;
        (groups as u64) << self.group_bits
    }

    /// Exchanges every pair of `classes` through `mem`.
    fn walk<S: Swapper>(&self, classes: std::ops::Range<usize>, mem: &S) {
        let mut class = deposit(classes.start as u64, self.class_bits);
        for _ in classes {
            let mut tile = 0u64;
            loop {
                let mirror = self.outer_round.partner(tile);
                if tile < mirror || (tile == mirror && self.tiled) {
                    self.exchange(class | tile, class | mirror, mem);
                }
                tile = next_subset(tile, self.outer);
                if tile == 0 {
                    break;
                }
            }
            class = next_subset(class, self.class_bits);
        }
    }

    /// Exchanges the tile at index `a` with its mirror at `b` (`a == b`:
    /// the pairs inside one tile).
    fn exchange<S: Swapper>(&self, a: u64, b: u64, mem: &S) {
        let low = (1u64 << self.l) - 1;
        let at = |x: u64| mem.at((x >> self.l) as usize, (x & low) as usize);
        if !self.tiled {
            mem.swap(at(a), at(b), 1 << self.unit);
            return;
        }
        let mut ua = [at(a); MAX_TILE_BLOCKS];
        let mut ub = ua;
        for h in 0..self.num_blocks {
            ua[h] = at(a | self.blocks[h]);
            ub[h] = at(b | self.blocks[h]);
        }
        let unit_mask = (1 << self.unit) - 1;
        for j in 0..self.num_blocks << self.unit {
            let k = usize::from(self.partner[j]);
            if a == b && k <= j {
                continue;
            }
            mem.swap(
                S::add(ua[j >> self.unit], j & unit_mask),
                S::add(ub[k >> self.unit], k & unit_mask),
                1,
            );
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
/// [`Clock`](crate::Clock), which a dry run uses without any machine — and
/// it holds them once: stage transitions exchange amplitudes in place
/// ([`Machine::permute_state`]), so no second copy of the state exists.
pub struct Machine {
    spec: MachineSpec,
    n: u32,
    /// Shard buffers.
    shards: Vec<Vec<Complex64>>,
    /// Base pointers of `shards`, refreshed before every pooled pass over
    /// them (machine-owned, so a warm pass allocates nothing).
    ptrs: Vec<AtomicPtr<Complex64>>,
    /// Persistent outer vector of empty shard handles for the shard
    /// relabel (its buffers are never filled — only `mem::swap`ped), so
    /// even the handle shuffle allocates nothing in steady state.
    handles: Vec<Vec<Complex64>>,
    /// The current transition's rounds, rebuilt in place.
    exchange: Exchange,
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
            ptrs: Vec::new(),
            handles: Vec::new(),
            exchange: Exchange::default(),
            recorder: Recorder::default(),
        }
    }

    /// Attaches a telemetry recorder: kernel-apply and relayout spans are
    /// recorded through it. Timestamps ride the trace channel only —
    /// amplitudes and samples are byte-identical with or without one.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached telemetry recorder (disabled unless
    /// [`Machine::set_recorder`] attached one): reads of the finished
    /// state, such as the sampler's shot draws, record through it too.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
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
            let ptrs = shard_ptrs(&mut self.ptrs, &mut self.shards);
            let rec = &self.recorder;
            // One pool item per shard, each owning just that shard.
            pool.run(num_shards, &|s| {
                // SAFETY: the pool runs item `s` once, and only item `s`
                // reaches shard `s`, whose `shard_len` amplitudes stay
                // allocated and unmoved for the whole job (`self` is
                // borrowed mutably for the call).
                let amps = unsafe {
                    std::slice::from_raw_parts_mut(ptrs[s].load(Ordering::Relaxed), shard_len)
                };
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
    /// The move is in place — no second copy of the state, no shard-sized
    /// scratch (see `Exchange`):
    ///
    /// * the transition splits into at most three *rounds*, each an
    ///   involution on indices, so every amplitude swaps with exactly one
    ///   partner or stays. An Atlas transition — local bits traded for as
    ///   many shard bits, inside groups of shards that exchange only among
    ///   themselves — is one round; any other permutation is at most two,
    ///   plus one `i ↔ i ⊕ f` round for local flips the others cannot carry;
    /// * each round runs on `pool`: items own disjoint ranges of the classes
    ///   a pair never leaves, so their swaps are disjoint by construction.
    ///   When the round moves bits inside a 128-byte block, it exchanges
    ///   tiles of whole blocks with their mirror tiles; otherwise whole runs,
    ///   as slices;
    /// * a shard *relabel* finishes the move by swapping buffer handles: the
    ///   shard-bit moves and flips, and the rounds' compensation. A pure
    ///   relabel (only bits `≥ L` move) touches no amplitude.
    ///
    /// Byte-identical to [`Machine::permute_state_scatter`] for every pool
    /// (pinned by `tests/hotpath_exactness.rs`).
    pub fn permute_state(&mut self, perm: &QubitPermutation, flip: u64, step: u32, pool: &Pool) {
        if perm.is_identity() && flip == 0 {
            return;
        }
        let (n, l) = (self.n, self.spec.local_qubits);
        let shard_len = self.shard_len();
        self.exchange.plan(perm, flip, n, l);
        let mem = ShardPtrs {
            ptrs: shard_ptrs(&mut self.ptrs, &mut self.shards),
            shard_len,
        };
        let rec = &self.recorder;
        for walk in self.exchange.rounds().iter().map(|r| Walk::new(r, n, l)) {
            let items = walk.items(pool.threads());
            pool.run(items, &|item| {
                // Idle time since this worker's previous event, then the
                // round's share itself on the same lane: neither is
                // deterministic, and with both recorded `worker.wait` stays
                // idle time only.
                rec.wait_span("worker.wait", step);
                let t = rec.start();
                let classes = walk.item_classes(item, items);
                walk.walk(classes.clone(), &mem);
                rec.span(
                    "machine.relayout",
                    t,
                    false,
                    step,
                    0,
                    0,
                    &[("shards", walk.shards(classes))],
                );
                rec.flush();
            });
        }

        // The relabel: the buffer at shard `s` becomes shard `dst(s)`.
        let low_mask = (shard_len as u64) - 1;
        let exchange = &self.exchange;
        let dst = |s: usize| {
            let new = perm.apply_index(exchange.source((s as u64) << l)) ^ flip;
            debug_assert_eq!(new & low_mask, 0, "the rounds left shard {s} unsorted");
            (new >> l) as usize
        };
        let num_shards = self.shards.len();
        if (0..num_shards).all(|s| dst(s) == s) {
            return;
        }
        // `handles` always re-ends as all-empty after the double swap
        // below, so it is reusable as-is next transition.
        if self.handles.len() != num_shards {
            self.handles = vec![Vec::new(); num_shards];
        }
        for s in 0..num_shards {
            std::mem::swap(&mut self.handles[dst(s)], &mut self.shards[s]);
        }
        std::mem::swap(&mut self.shards, &mut self.handles);
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
    // every reduction runs on the sharded buffers — the full 2^n vector
    // is never materialized. Parallelism mirrors
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

    /// The shard slices holding the indices `[j·2^c, (j+1)·2^c)`, in index
    /// order: part of one shard when `c ≤ L`, else `2^{c−L}` whole shards.
    fn chunk_slices(&self, j: usize, c: u32) -> impl Iterator<Item = &[Complex64]> {
        let (l, start) = (self.spec.local_qubits, j << c);
        let (first, lo, len) = (start >> l, start & (self.shard_len() - 1), 1 << c.min(l));
        let shards = &self.shards[first..first + (1 << c.saturating_sub(l))];
        shards.iter().map(move |shard| &shard[lo..lo + len])
    }

    /// Probability masses of fixed `2^chunk_bits`-index chunks of the
    /// index space: entry `j` is `Σ_{x ∈ [j·2^c, (j+1)·2^c)} |α_x|²`, one
    /// sum from `0.0` in index order, across shard boundaries when `c > L`
    /// (never per-shard partials added up).
    ///
    /// This is the coarse row of the sampling CDF. Its summation order and
    /// chunk boundaries depend only on the index space, so the result —
    /// and every sampled bitstring — is the same for every shard and
    /// thread count.
    pub fn logical_chunk_norms(&self, chunk_bits: u32, pool: &Pool) -> Vec<f64> {
        let c = chunk_bits.min(self.n);
        pool.map(1 << (self.n - c), &|j| {
            let sum = |acc, part: &[Complex64]| part.iter().fold(acc, |acc, a| acc + a.norm_sqr());
            self.chunk_slices(j, c).fold(0.0, sum)
        })
    }

    /// Shard-aware inverse-CDF resolution: maps ascending cumulative
    /// `targets` (each in `[0, Σ chunk_norms)`) to basis-state indices,
    /// using `chunk_norms` (from [`Machine::logical_chunk_norms`] with the
    /// same `chunk_bits`) as the coarse CDF and a serial index-order scan
    /// within each hit chunk.
    ///
    /// Chunks with at least one target resolve concurrently on `pool`;
    /// within a chunk the scan accumulates in index order, so the
    /// assignment is deterministic for every thread count and shard
    /// count. A target the scan leaves unresolved (float slack at the
    /// chunk's end, or a target past the total mass) clamps to the chunk's
    /// last index of nonzero probability, in the last chunk of nonzero mass
    /// at the latest: no outcome of probability zero is drawn.
    pub fn resolve_targets(
        &self,
        chunk_bits: u32,
        chunk_norms: &[f64],
        targets: &[f64],
        pool: &Pool,
    ) -> Vec<u64> {
        let c = chunk_bits.min(self.n);
        assert_eq!(chunk_norms.len(), 1usize << (self.n - c));
        debug_assert!(targets.windows(2).all(|w| w[0] <= w[1]), "targets sorted");
        // Chunk-level CDF.
        let mut prefix = vec![0.0];
        prefix.extend(chunk_norms.iter().scan(0.0, |acc, &m| {
            *acc += m;
            Some(*acc)
        }));
        // Group consecutive targets by the chunk their CDF interval hits.
        let last_chunk = chunk_norms.iter().rposition(|&m| m > 0.0).unwrap_or(0);
        let mut groups: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut j = 0usize;
        for (ti, &t) in targets.iter().enumerate() {
            while j < last_chunk && prefix[j + 1] <= t {
                j += 1;
            }
            match groups.last_mut() {
                Some((cj, range)) if *cj == j => range.end = ti + 1,
                _ => groups.push((j, ti..ti + 1)),
            }
        }
        let resolved = pool.map(groups.len(), &|g| {
            let (j, ref range) = groups[g];
            let targets = &targets[range.clone()];
            let base = (j as u64) << c;
            let mut acc = prefix[j];
            let mut out = Vec::with_capacity(targets.len());
            // The last offset of nonzero probability scanned so far (the
            // chunk's last offset while there is none).
            let mut last = (1u64 << c) - 1;
            for (t, a) in (0u64..).zip(self.chunk_slices(j, c).flatten()) {
                let p = a.norm_sqr();
                last = if p > 0.0 { t } else { last };
                acc += p;
                while out.len() < targets.len() && targets[out.len()] < acc {
                    out.push(base | t);
                }
                if out.len() == targets.len() {
                    break;
                }
            }
            out.resize(targets.len(), base | last);
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

    /// The `k` most probable outcomes as `(index, probability)`,
    /// descending with ties by ascending index, selected with one
    /// bounded-heap pass per shard and a shard-order merge — never a full
    /// sort, never a gathered vector. The order is strict and total, so
    /// the selection does not depend on the shard count.
    pub fn top_outcomes(&self, k: usize, pool: &Pool) -> Vec<(u64, f64)> {
        let l = self.spec.local_qubits;
        let partials = self.map_shards(pool, &|s, amps, _| {
            let base = (s as u64) << l;
            let mut top = measure::TopK::new(k);
            for (i, a) in amps.iter().enumerate() {
                let p = a.norm_sqr();
                if p > atlas_qmath::EPS {
                    top.push(base | i as u64, p);
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

/// Refills `ptrs` with the base pointers of `shards`.
fn shard_ptrs<'a>(
    ptrs: &'a mut Vec<AtomicPtr<Complex64>>,
    shards: &mut [Vec<Complex64>],
) -> &'a [AtomicPtr<Complex64>] {
    ptrs.clear();
    ptrs.extend(
        shards
            .iter_mut()
            .map(|shard| AtomicPtr::new(shard.as_mut_ptr())),
    );
    ptrs
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
    use std::cell::Cell;

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

    /// The plan corpus's stage transitions `(label, n, L, perm, flip)`,
    /// from the copy `tests/hotpath_exactness.rs` keeps equal to the corpus.
    fn plan_corpus() -> Vec<(String, u32, u32, QubitPermutation, u64)> {
        include_str!("../testdata/plan_corpus_transitions.txt")
            .lines()
            .map(|line| {
                let (fields, label) = line.split_once(" # ").expect("`… # label`");
                let f: Vec<&str> = fields.split(' ').collect();
                let map = f[3].split(',').map(|b| b.parse().unwrap()).collect();
                (
                    label.to_string(),
                    f[0].parse().unwrap(),
                    f[1].parse().unwrap(),
                    QubitPermutation::from_map(map),
                    u64::from_str_radix(f[2].trim_start_matches("0x"), 16).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn every_corpus_transition_is_one_exchange_round() {
        let corpus = plan_corpus();
        assert_eq!(corpus.len(), 55);
        for (label, n, l, perm, flip) in corpus {
            let mut exchange = Exchange::default();
            exchange.plan(&perm, flip, n, l);
            let [round] = exchange.rounds() else {
                panic!("{label}: {} rounds", exchange.rounds().len());
            };
            // Local bit `x` trades places with the shard bit `perm` sends
            // to it, and any flip rides on those pairs.
            let mut pair_bits = 0u64;
            for &(a, b) in round.pairs() {
                let (x, y) = if a < b { (a, b) } else { (b, a) };
                assert!(
                    u32::from(x) < l && u32::from(y) >= l,
                    "{label}: pair {a}, {b}"
                );
                assert_eq!(perm.dst(y.into()), u32::from(x), "{label}");
                pair_bits |= (1 << a) | (1 << b);
            }
            assert_eq!(round.flip & !pair_bits, 0, "{label}: a flip round");
        }
    }

    /// Records which pool item touched each position, and its partner.
    struct Touched {
        l: u32,
        item: u8,
        owner: Vec<Cell<u8>>,
        mate: Vec<Cell<u32>>,
    }

    impl Touched {
        const NONE: u8 = u8::MAX;

        fn mark(&self, x: usize, mate: usize) {
            assert_eq!(
                self.owner[x].get(),
                Self::NONE,
                "position {x} touched twice"
            );
            self.owner[x].set(self.item);
            self.mate[x].set(mate as u32);
        }
    }

    impl Swapper for Touched {
        type At = usize;

        fn at(&self, shard: usize, offset: usize) -> usize {
            assert!(offset < 1 << self.l);
            (shard << self.l) | offset
        }

        fn add(at: usize, by: usize) -> usize {
            at + by
        }

        fn swap(&self, a: usize, b: usize, len: usize) {
            for i in 0..len {
                self.mark(a + i, b + i);
                self.mark(b + i, a + i);
            }
        }
    }

    /// The `unsafe` swap's partition argument, enumerated: over every round
    /// of the plan corpus, the positions each pool item touches are
    /// pairwise disjoint across items, their union is exactly the round's
    /// non-fixed positions, and each is swapped with its partner.
    #[test]
    fn walks_partition_the_non_fixed_positions() {
        for (label, n, l, perm, flip) in plan_corpus() {
            let mut exchange = Exchange::default();
            exchange.plan(&perm, flip, n, l);
            for round in exchange.rounds() {
                let walk = Walk::new(round, n, l);
                let partner: Vec<u32> = (0..1u64 << n).map(|x| round.partner(x) as u32).collect();
                for threads in [1, 2, 3, 7] {
                    let mut touched = Touched {
                        l,
                        item: 0,
                        owner: vec![Cell::new(Touched::NONE); 1 << n],
                        mate: vec![Cell::new(0); 1 << n],
                    };
                    let items = walk.items(threads);
                    for item in 0..items {
                        touched.item = item as u8;
                        walk.walk(walk.item_classes(item, items), &touched);
                    }
                    for (x, &p) in partner.iter().enumerate() {
                        let (owner, mate) = (touched.owner[x].get(), touched.mate[x].get());
                        assert!(
                            if p as usize == x {
                                owner == Touched::NONE
                            } else {
                                owner != Touched::NONE && mate == p
                            },
                            "{label} threads={threads}: position {x} (partner {p}) \
                             touched by item {owner}, swapped with {mate}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rounds_split_cycles_into_two_reflections() {
        // 3-cycle across the boundary on n = 4, L = 2: 0 → 1 → 3 → 0. The
        // path 3 → 0 → 1 closes into the cycle (3, 0, 1): the first round
        // swaps the local bits 0 and 1, the second 3 with 0.
        let perm = QubitPermutation::from_map(vec![1, 3, 2, 0]);
        let mut exchange = Exchange::default();
        exchange.plan(&perm, 0, 4, 2);
        let pairs: Vec<_> = exchange
            .rounds()
            .iter()
            .map(|r| r.pairs().to_vec())
            .collect();
        assert_eq!(pairs, vec![vec![(0, 1)], vec![(3, 0)]]);
        // A flip on a local bit no pair enters is a round of its own.
        exchange.plan(&QubitPermutation::identity(4), 0b0110, 4, 2);
        let [round] = exchange.rounds() else {
            panic!("one flip round");
        };
        assert_eq!((round.pairs().len(), round.flip), (0, 0b0010));
        // Shard bits alone: no round at all, only the relabel.
        exchange.plan(&QubitPermutation::from_map(vec![0, 1, 3, 2]), 0b0100, 4, 2);
        assert!(exchange.rounds().is_empty());
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

        // Chunk norms sum to the per-chunk dense masses, within a shard
        // (c = 2 < L) and across two shards (c = 4 > L).
        for c in [2u32, 4] {
            let chunks = m.logical_chunk_norms(c, &pool);
            assert_eq!(chunks.len(), 32 >> c);
            for (j, &got) in chunks.iter().enumerate() {
                let want: f64 = (0..1 << c)
                    .map(|t| reference.amplitudes()[(j << c) + t].norm_sqr())
                    .sum();
                assert!((got - want).abs() < 1e-12, "c={c} chunk {j}");
            }
        }
        let chunks = m.logical_chunk_norms(2, &pool);

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
        let got = m.resolve_targets(2, &chunks, &sorted, &pool);
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
        let got = m.top_outcomes(5, &pool);
        assert_eq!(got.len(), 5);
        for ((gi, gp), (wi, wp)) in got.iter().zip(&want) {
            assert_eq!(gi, wi);
            assert!((gp - wp).abs() < 1e-12);
        }
    }
}
