//! PARTITION + EXECUTE (Algorithm 1): compile a staged circuit into
//! per-stage qubit mappings, insular-specialized kernels and scalar
//! schedules, then run them on the (simulated) machine.
//!
//! ## Physical layout
//!
//! A stage maps logical qubit `q` to physical bit `mapping[q]`: local
//! qubits to bits `0..L`, regional to `L..L+R`, global to `L+R..n`.
//! Between stages the state is re-laid-out with one all-to-all
//! (charged by `Clock::charge_permute`, moved by `Machine::permute_state`),
//! the only communication in the whole run — the paper's central property.
//! After the last stage one more in-place move returns a functional run's
//! state to the identity layout, so everything downstream reads logical
//! indices as they are.
//!
//! ## Insular specialization (Appendix B-a)
//!
//! Gates whose non-local qubits are insular are specialized per shard: the
//! shard index fixes the values of all non-local bits, so each such qubit
//! is eliminated from the gate's unitary ([`atlas_circuit::insular`]),
//! leaving a smaller local gate, or — when every qubit is non-local — a
//! pure scalar. Anti-diagonal single-qubit gates (X/Y) on non-local qubits
//! become shard-bit *relabels* ("flips") folded into the next all-to-all
//! for free, plus a per-shard scalar.

use crate::config::AtlasConfig;
use crate::detmap::DetMap;
use crate::kernelize::{self, KGate, KernelCost, Kernelization, SearchEffort};
use crate::plan::{Kernel, KernelKind, Stage};
use crate::staging::{self, StagingOutcome};
use atlas_circuit::{insular, Circuit, Gate};
use atlas_error::AtlasError;
use atlas_machine::{Clock, CostModel, Machine, ShardOp, ShardProgram};
use atlas_qmath::{deposit_bits, extract_bits, Complex64, Matrix, QubitPermutation};
use atlas_statevec::{classify_kernel, fuse_gate_into, FastKernel, Pool};
use atlas_telemetry::{secs_to_ns, Recorder};
use std::sync::Arc;

/// One non-local (insular) qubit of a gate, read per shard.
#[derive(Clone, Copy, Debug)]
pub struct ReadBit {
    /// Qubit position within the gate (matrix bit index).
    pub pos: u32,
    /// Physical bit (`≥ L`).
    pub phys: u32,
    /// Flip state of this physical bit at the gate's stage position.
    pub flip_snap: bool,
}

/// One gate of a stage, reduced to its local content.
#[derive(Clone, Debug)]
pub struct GateTemplate {
    /// Index of the gate in the circuit.
    pub circuit_gate: usize,
    /// Local physical bits (each `< L`), in the gate's own qubit order
    /// restricted to local qubits.
    pub local_phys: Vec<u32>,
    /// Non-local qubits the gate reads (insular), in gate-position order.
    pub reads: Vec<ReadBit>,
    /// Shared-memory cost of the original gate (per amplitude, ns).
    pub shm_ns: f64,
}

/// A fully-reduced gate: contributes only a per-shard scalar (and possibly
/// shard-bit flips).
#[derive(Clone, Debug)]
pub struct ScalarTemplate {
    /// Index of the gate in the circuit.
    pub circuit_gate: usize,
    /// Non-local qubits read, in gate-position order.
    pub reads: Vec<ReadBit>,
}

/// The compiled form of one stage.
#[derive(Clone, Debug)]
pub struct StagePlan {
    /// The staging-level stage (gates + logical partition).
    pub stage: Stage,
    /// Logical qubit → physical bit.
    pub mapping: Vec<u32>,
    /// Templates for gates with local content, in stage order.
    pub templates: Vec<GateTemplate>,
    /// Fully-reduced scalar gates, in stage order.
    pub scalars: Vec<ScalarTemplate>,
    /// Shard-bit flips accumulated across the stage (physical mask) —
    /// folded into the next all-to-all.
    pub flips: u64,
    /// Kernels over `templates` indices.
    pub kernels: Vec<Kernel>,
    /// Eq. 12 cost of this stage's kernelization.
    pub kernel_cost: f64,
}

/// The full execution plan (the output of PARTITION).
#[derive(Clone, Debug)]
pub struct FullPlan {
    /// Compiled stages.
    pub stages: Vec<StagePlan>,
    /// Eq. 2 staging cost.
    pub staging_cost: i64,
    /// Whether staging proved stage-count minimality.
    pub staging_optimal: bool,
    /// Σ kernel cost over stages.
    pub kernel_cost: f64,
    /// L and G used.
    pub l: u32,
    /// Number of global qubits.
    pub g: u32,
    /// Number of circuit qubits the plan was compiled for.
    pub n: u32,
}

/// Builds the logical→physical mapping for a stage, keeping qubits at
/// their previous position whenever their class's physical range allows.
fn build_mapping(
    partition: &crate::plan::QubitPartition,
    prev: Option<&[u32]>,
    n: u32,
    l: u32,
    g: u32,
) -> Vec<u32> {
    let r = n - l - g;
    let ranges = [(0u32, l), (l, l + r), (l + r, n)];
    let classes: [&[u32]; 3] = [&partition.local, &partition.regional, &partition.global];
    let mut mapping = vec![u32::MAX; n as usize];
    let mut used = vec![false; n as usize];
    // First pass: keep stable positions.
    for (class, &(lo, hi)) in classes.iter().zip(&ranges) {
        for &q in *class {
            if let Some(pm) = prev {
                let p = pm[q as usize];
                if p >= lo && p < hi && !used[p as usize] {
                    mapping[q as usize] = p;
                    used[p as usize] = true;
                }
            }
        }
    }
    // Second pass: fill the rest in ascending order.
    for (class, &(lo, hi)) in classes.iter().zip(&ranges) {
        let mut next = lo;
        for &q in *class {
            if mapping[q as usize] != u32::MAX {
                continue;
            }
            while used[next as usize] {
                next += 1;
            }
            debug_assert!(next < hi);
            mapping[q as usize] = next;
            used[next as usize] = true;
        }
    }
    mapping
}

/// Compiles one stage: insular reduction, flip tracking, kernelization.
fn compile_stage(
    circuit: &Circuit,
    stage: Stage,
    mapping: Vec<u32>,
    l: u32,
    cost: &CostModel,
    kc: &KernelCost,
    cfg: &AtlasConfig,
) -> (StagePlan, SearchEffort) {
    let mut templates = Vec::new();
    let mut scalars = Vec::new();
    let mut flips = 0u64;
    for &gi in &stage.gates {
        let gate = &circuit.gates()[gi];
        let ins = insular::gate_insularity(gate);
        let mut local_phys = Vec::new();
        let mut reads = Vec::new();
        let mut flip_mask = 0u64;
        for (t, q) in gate.qubits.iter().enumerate() {
            let p = mapping[q as usize];
            if p < l {
                local_phys.push(p);
            } else {
                debug_assert!(
                    ins[t].is_insular(),
                    "staging must keep non-insular qubits local (gate {gi})"
                );
                reads.push(ReadBit {
                    pos: t as u32,
                    phys: p,
                    flip_snap: flips >> p & 1 == 1,
                });
                if ins[t] == insular::InsularKind::AntiDiagonal {
                    flip_mask |= 1u64 << p;
                }
            }
        }
        if local_phys.is_empty() {
            scalars.push(ScalarTemplate {
                circuit_gate: gi,
                reads,
            });
        } else {
            debug_assert_eq!(flip_mask, 0, "mixed gates never flip non-local bits");
            templates.push(GateTemplate {
                circuit_gate: gi,
                local_phys,
                reads,
                shm_ns: cost.shm_gate_unit_ns(gate),
            });
        }
        flips ^= flip_mask;
    }
    // Kernelize the local content.
    let kgates: Vec<KGate> = templates
        .iter()
        .map(|t| KGate {
            mask: t.local_phys.iter().fold(0u64, |m, &p| m | (1 << p)),
            shm_ns: t.shm_ns,
        })
        .collect();
    let Kernelization {
        kernels,
        cost: kernel_cost,
        search,
    } = kernelize::kernelize_with(cfg.kernelizer, cfg.pruning_threshold, &kgates, kc);
    let plan = StagePlan {
        stage,
        mapping,
        templates,
        scalars,
        flips,
        kernels,
        kernel_cost,
    };
    (plan, search)
}

/// PARTITION (Algorithm 1, lines 1–8): stage, map, reduce, kernelize.
pub(crate) fn plan(
    circuit: &Circuit,
    l: u32,
    g: u32,
    cost: &CostModel,
    cfg: &AtlasConfig,
) -> Result<FullPlan, AtlasError> {
    let t = cfg.recorder.start();
    let StagingOutcome {
        stages,
        cost: staging_cost,
        optimal: staging_optimal,
    } = staging::stage_circuit(circuit, l, g, cfg)?;
    cfg.recorder.span(
        "plan.stage",
        t,
        true,
        0,
        0,
        0,
        &[
            ("stages", stages.len() as u64),
            ("cost", staging_cost.max(0) as u64),
            ("optimal", staging_optimal as u64),
        ],
    );
    let n = circuit.num_qubits();
    let kc = KernelCost::from_machine(cost);
    let t = cfg.recorder.start();
    let mut plans = Vec::with_capacity(stages.len());
    let mut prev_mapping: Option<Vec<u32>> = None;
    let mut kernel_cost = 0.0;
    let mut search = SearchEffort::default();
    for stage in stages {
        let mapping = build_mapping(&stage.partition, prev_mapping.as_deref(), n, l, g);
        let (sp, stage_search) = compile_stage(circuit, stage, mapping, l, cost, &kc, cfg);
        search += stage_search;
        kernel_cost += sp.kernel_cost;
        prev_mapping = Some(sp.mapping.clone());
        plans.push(sp);
    }
    let kernels: u64 = plans.iter().map(|sp| sp.kernels.len() as u64).sum();
    cfg.recorder.span(
        "plan.kernelize",
        t,
        true,
        0,
        0,
        0,
        &[
            ("stages", plans.len() as u64),
            ("kernels", kernels),
            ("dp_items", search.items),
            ("dp_children", search.children),
            ("dp_kept", search.kept),
        ],
    );
    cfg.recorder.flush();
    Ok(FullPlan {
        stages: plans,
        staging_cost,
        staging_optimal,
        kernel_cost,
        l,
        g,
        n,
    })
}

/// Reduces a gate's unitary for a specific shard: fixes every non-local
/// (insular) qubit to its known value (shard bit XOR flip snapshot),
/// returning the matrix over the remaining (local) positions — a `1×1`
/// scalar if none remain. Positions are fixed from highest to lowest so
/// lower indices stay valid as the matrix shrinks.
fn reduce_for_pattern(gate: &Gate, reads: &[ReadBit], shard_bits: u64, l: u32) -> Matrix {
    let mut m = gate.matrix();
    for rb in reads.iter().rev() {
        let b = ((shard_bits >> (rb.phys - l)) & 1) as u8 ^ u8::from(rb.flip_snap);
        let reduced = insular::fix_qubit(&m, rb.pos, b).expect("non-local qubit must be insular");
        m = reduced.matrix;
    }
    m
}

/// EXECUTE (Algorithm 1, lines 9–17) — the one function that runs the
/// stage loop, for functional and dry runs alike.
///
/// Every stage is charged to `clock` by the same walk over the compiled
/// [`FullPlan`] — each all-to-all, then each shard's kernels in plan order
/// (the order its program holds them), then the barrier — so a dry run
/// (`run` = `None`) and a functional run of one plan report the same
/// numbers. Gate matrices are never built for the charge: a
/// [`CompiledPlan`](crate::session::CompiledPlan) replays its cost model
/// without retaining the circuit it was planned from.
///
/// With `run` = `Some((machine, circuit))` the stages also build their
/// shard programs from `circuit` and run them on `machine`, which must
/// hold the `|0…0⟩` state (any bit layout represents it identically) or
/// have been pre-permuted into stage 0's layout by the caller. With
/// `cfg.threads > 1` a persistent worker pool is spawned for the whole
/// run: each stage's independent shard kernels execute concurrently
/// across the workers (or, with fewer shards than workers, each kernel
/// splits its index groups across them), and so does the all-to-all
/// reshuffle between stages (each worker filling whole destination
/// shards); both end in a barrier. Amplitudes are bit-identical for every
/// thread count.
///
/// A completed functional run ends in the logical layout (physical index
/// = logical index): one more in-place relayout moves the state from the
/// last stage's mapping to the identity and applies the X/Y relabel flips
/// still pending, in one pass. The clock charges that move only with
/// `cfg.final_unpermute`; otherwise it is uncharged, as the model times
/// the run with the final layout in place (and folds flips into an
/// all-to-all for free).
///
/// `should_stop` is a cooperative interruption probe, polled at every
/// stage barrier — the natural deterministic preemption point: a stage's
/// kernels either all ran or none did, so abandoning between stages
/// leaves no half-applied kernel group. Returns `true` when the run
/// completed and `false` when the probe stopped it; an interrupted
/// machine holds a partial state and must be dropped, not measured. The
/// poll reads nothing from the state and writes nothing to it, so a
/// never-firing probe cannot perturb results.
pub(crate) fn execute(
    clock: &mut Clock,
    mut run: Option<(&mut Machine, &Circuit)>,
    plan: &FullPlan,
    cfg: &AtlasConfig,
    should_stop: &dyn Fn() -> bool,
) -> bool {
    // Dry runs never touch amplitudes, so the pool would only idle.
    let threads = if run.is_some() { cfg.threads.max(1) } else { 1 };
    atlas_statevec::with_pool(threads, |pool| {
        let mut carried_flips = 0u64;
        let mut prev_mapping: Option<&[u32]> = None;

        for (si, sp) in plan.stages.iter().enumerate() {
            // Stage-barrier preemption point: between stages the state is a
            // consistent (if partially evolved) vector, so an interrupted run
            // simply stops before the next stage's relayout and kernels.
            if should_stop() {
                return false;
            }
            // Stage transition: relayout + fold pending flips.
            if let Some(pm) = prev_mapping {
                let perm = transition(pm, |q| sp.mapping[q]);
                let f = permute_mask(&perm, carried_flips);
                let machine = run.as_mut().map(|(m, _)| &mut **m);
                reshuffle(clock, machine, &perm, f, &cfg.recorder, pool);
                carried_flips = 0;
            }

            let step = clock.num_steps();
            charge_stage(clock, sp);
            if let Some((machine, circuit)) = run.as_mut() {
                run_stage(machine, circuit, sp, si as u32, step, cfg, pool);
            }
            carried_flips ^= sp.flips;
            clock.stage_barrier();
            prev_mapping = Some(&sp.mapping);
        }

        // End in the logical layout: one move from the last stage's
        // mapping to the identity that applies the pending relabel flips
        // in the same pass. Only `final_unpermute` charges it.
        if let Some(pm) = prev_mapping {
            let perm = transition(pm, |q| q as u32);
            let f = permute_mask(&perm, carried_flips);
            let machine = run.as_mut().map(|(m, _)| &mut **m);
            if cfg.final_unpermute {
                reshuffle(clock, machine, &perm, f, &cfg.recorder, pool);
            } else if let Some(machine) = machine {
                machine.permute_state(&perm, f, clock.num_steps(), pool);
            }
        }
        true
    })
}

/// The transition from the layout `from` (logical qubit → physical bit)
/// to the one that puts logical qubit `q` at physical bit `to(q)`.
fn transition(from: &[u32], to: impl Fn(usize) -> u32) -> QubitPermutation {
    let mut perm_map = vec![0u32; from.len()];
    for (q, &p) in from.iter().enumerate() {
        perm_map[p as usize] = to(q);
    }
    QubitPermutation::from_map(perm_map)
}

/// One all-to-all `new = perm(old) ^ flip`: charged to `clock`, and with a
/// machine its amplitudes moved, inside one `machine.reshuffle` span.
pub(crate) fn reshuffle(
    clock: &mut Clock,
    machine: Option<&mut Machine>,
    perm: &QubitPermutation,
    flip: u64,
    rec: &Recorder,
    pool: &Pool,
) {
    let t = rec.start();
    let step = clock.num_steps();
    let charged = clock.charge_permute(perm, flip);
    if let Some(machine) = machine {
        machine.permute_state(perm, flip, step, pool);
    }
    rec.span(
        "machine.reshuffle",
        t,
        true,
        step,
        0,
        0,
        &[
            ("bytes_intra", charged.bytes_intra),
            ("bytes_inter", charged.bytes_inter),
            ("comm_ns", secs_to_ns(charged.comm)),
            ("moved", !(perm.is_identity() && flip == 0) as u64),
        ],
    );
    rec.flush();
}

/// Applies a bit permutation to a bitmask.
fn permute_mask(perm: &QubitPermutation, mask: u64) -> u64 {
    let mut out = 0u64;
    let mut m = mask;
    while m != 0 {
        let b = m.trailing_zeros();
        m &= m - 1;
        out |= 1u64 << perm.dst(b);
    }
    out
}

/// Charges one stage's kernels: shard by shard, each shard's kernels in
/// plan order — the order its program holds them, so every GPU's pending
/// time is summed in the order a functional run executes its shards.
fn charge_stage(clock: &mut Clock, sp: &StagePlan) {
    // A shared-memory kernel's plan-level gate cost: the per-amplitude ns
    // of its gates, summed in kernel order.
    let per_amp: Vec<f64> = sp
        .kernels
        .iter()
        .map(|k| k.gates.iter().map(|&t| sp.templates[t].shm_ns).sum())
        .collect();
    for s in 0..clock.num_shards() {
        for (kernel, &per_amp) in sp.kernels.iter().zip(&per_amp) {
            match kernel.kind {
                KernelKind::Fusion => clock.charge_fusion(s, kernel.qubits.len() as u32),
                KernelKind::SharedMemory => clock.charge_shm(s, per_amp),
            }
        }
    }
}

/// Builds stage `stage`'s shard programs from `circuit` and runs them on
/// `machine` as clock step `step`.
fn run_stage(
    machine: &mut Machine,
    circuit: &Circuit,
    sp: &StagePlan,
    stage: u32,
    step: u32,
    cfg: &AtlasConfig,
    pool: &Pool,
) {
    let t = cfg.recorder.start();
    let l = machine.spec().local_qubits;
    let (programs, counts) = build_programs(circuit, sp, l, machine.num_shards());
    cfg.recorder.span(
        "exec.build_programs",
        t,
        true,
        stage,
        0,
        0,
        &[
            ("kernels", counts.kernels),
            ("fused", counts.fused),
            ("gate_apps", counts.gate_apps),
            ("coalesced", counts.coalesced),
        ],
    );
    machine.run_shard_programs(&programs, step, pool);
}

/// Compiles one stage into a per-shard instruction sequence: insular
/// specialization per shard pattern, fused-matrix structure classification
/// ([`classify_kernel`]) shared across shards with equal patterns, the
/// per-shard scalar folded into the first kernel that accepts it, and each
/// run of adjacent unit-phase permutation kernels coalesced into one
/// [`FastKernel::Relabel`] pass (see `coalesce_permutation_runs`).
///
/// A fusion kernel is fused once per *gate prefix* its shard patterns
/// share, not once per pattern (see `PrefixFuser`), and each gate is
/// applied to the rows of the product so far ([`fuse_gate_into`]). Every
/// fused matrix, and so every [`FastKernel`], is bit for bit the
/// per-pattern expand-and-multiply product of the reduced gates
/// (`atlas_statevec::reference::fuse_by_expansion`);
/// `tests/hotpath_exactness.rs` pins that op by op.
///
/// This is deliberately independent of the thread count — serial and
/// parallel execution run the *same* programs, which is what makes the
/// engine's output bit-identical across thread counts.
///
/// Public so `atlas-analyze` can effect-type the exact instruction
/// sequences the machine will run (and so tests can corrupt them):
/// the verifier proves per-shard write-set disjointness on this
/// output, not on a re-derivation of it.
pub fn build_stage_programs(
    circuit: &Circuit,
    sp: &StagePlan,
    l: u32,
    num_shards: usize,
) -> Vec<ShardProgram> {
    build_programs(circuit, sp, l, num_shards).0
}

/// Exact work counts of one stage's program build, recorded on the
/// `exec.build_programs` span.
#[derive(Default)]
struct BuildCounts {
    /// Fusion kernels built.
    kernels: u64,
    /// Fused matrices classified: one per distinct (kernel, shard pattern).
    fused: u64,
    /// Gates applied to an accumulator ([`fuse_gate_into`] calls).
    gate_apps: u64,
    /// Shard ops folded into coalesced permutation runs, summed over
    /// shards.
    coalesced: u64,
}

/// [`build_stage_programs`] plus its work counts.
fn build_programs(
    circuit: &Circuit,
    sp: &StagePlan,
    l: u32,
    num_shards: usize,
) -> (Vec<ShardProgram>, BuildCounts) {
    // Per-shard scalar from the fully-reduced gates.
    let mut shard_scalars: Vec<Complex64> = vec![Complex64::ONE; num_shards];
    let mut cache: DetMap<(usize, u64), Complex64> = DetMap::default();
    for (si, st) in sp.scalars.iter().enumerate() {
        let gate = &circuit.gates()[st.circuit_gate];
        for (s, acc) in shard_scalars.iter_mut().enumerate() {
            let key_bits = pattern_bits(&st.reads, s as u64, l);
            let scalar = *cache.entry((si, key_bits)).or_insert_with(|| {
                let m = reduce_for_pattern(gate, &st.reads, s as u64, l);
                debug_assert_eq!(m.rows(), 1);
                m[(0, 0)]
            });
            *acc *= scalar;
        }
    }
    let mut scalar_pending: Vec<bool> = shard_scalars
        .iter()
        .map(|sc| !sc.approx_eq(Complex64::ONE, 0.0))
        .collect();

    let mut programs: Vec<ShardProgram> = vec![Vec::new(); num_shards];
    let mut fuser = PrefixFuser::new(circuit, sp, l);
    let mut shard_keys: Vec<u64> = Vec::with_capacity(num_shards);
    for kernel in &sp.kernels {
        match kernel.kind {
            KernelKind::Fusion => {
                let qubits = Arc::new(kernel.qubits.clone());
                shard_keys.clear();
                shard_keys.extend((0..num_shards as u64).map(|s| kernel_pattern(sp, kernel, s, l)));
                fuser.fuse_kernel(kernel, &shard_keys);
                for (s, (prog, key)) in programs.iter_mut().zip(&shard_keys).enumerate() {
                    let fk = fuser.kernel_for(*key);
                    // Fold the shard scalar into the first kernel whose
                    // fast form accepts it for free.
                    let mut scale = Complex64::ONE;
                    if scalar_pending[s] && fk.can_fold_scale() {
                        scale = shard_scalars[s];
                        scalar_pending[s] = false;
                    }
                    prog.push(ShardOp::Fusion {
                        qubits: qubits.clone(),
                        kernel: fk,
                        scale,
                    });
                }
            }
            KernelKind::SharedMemory => {
                // Shards with equal insular bit patterns specialize to the
                // same part list — build each distinct list once and share
                // it by Arc (the per-shard scalar stays a separate field
                // precisely so the parts can be shared).
                let mut compiled: DetMap<u64, Arc<atlas_machine::ShmPartList>> = DetMap::default();
                for (s, prog) in programs.iter_mut().enumerate() {
                    let key = kernel_pattern(sp, kernel, s as u64, l);
                    let parts = compiled
                        .entry(key)
                        .or_insert_with(|| {
                            let mut parts: Vec<(Vec<u32>, Matrix)> = Vec::new();
                            for &t in &kernel.gates {
                                let tp = &sp.templates[t];
                                let gate = &circuit.gates()[tp.circuit_gate];
                                let m = reduce_for_pattern(gate, &tp.reads, s as u64, l);
                                debug_assert!(tp.local_phys.iter().all(|&q| q < l));
                                parts.push((tp.local_phys.clone(), m));
                            }
                            Arc::new(parts)
                        })
                        .clone();
                    let mut scale = Complex64::ONE;
                    if scalar_pending[s] {
                        scale = shard_scalars[s];
                        scalar_pending[s] = false;
                    }
                    prog.push(ShardOp::ShmParts { parts, scale });
                }
            }
        }
    }
    // Shards whose scalar never got folded (stage without eligible
    // kernels): a standalone scale pass.
    for (s, prog) in programs.iter_mut().enumerate() {
        if scalar_pending[s] {
            prog.push(ShardOp::Scale(shard_scalars[s]));
        }
    }
    let mut counts = fuser.counts;
    counts.coalesced = coalesce_permutation_runs(&mut programs, coalesce_cap(l));
    (programs, counts)
}

/// The widest qubit union a coalesced permutation run may span. A wider
/// run is cut greedily into runs within it. The sweep behind the value is
/// in `docs/PERFORMANCE.md` ("Coalesced permutation runs"): past it the
/// passes saved come slowly, while every distinct union costs each worker
/// a `2^k`-entry offset table, and wider tables would fall out of the
/// scratch arena's memo.
const COALESCE_MAX_QUBITS: u32 = 11;

/// The widest union a coalesced run may span on shards of `2^l`
/// amplitudes: [`COALESCE_MAX_QUBITS`], and at most `l − 3`. Composing a
/// run costs `2^|union|` index updates per kernel, once per distinct run;
/// it saves one pass over `2^l` amplitudes per kernel on every shard that
/// holds the run. Keeping the union 3 qubits narrower than the shard
/// holds the composition under an eighth of the passes it saves even
/// when every shard has a run of its own.
fn coalesce_cap(l: u32) -> u32 {
    COALESCE_MAX_QUBITS.min(l.saturating_sub(3))
}

/// Coalesces, in every shard program, each maximal run of two or more
/// adjacent unscaled [`ShardOp::Fusion`] ops whose kernel is a unit-phase
/// permutation ([`FastKernel::is_unit_permutation`]) into one
/// [`FastKernel::Relabel`] op over the ascending union of their qubits,
/// cutting a run greedily where the union would pass `cap` qubits.
/// Returns the number of ops folded.
///
/// The relabel moves each amplitude where the run's passes would, and its
/// `ONE · (ONE · a)` step is what two or more unit-phase passes leave of
/// the amplitude's bits, so the programs' results are unchanged to the
/// bit. A run is keyed by its kernels' `Arc` identities: each distinct run
/// is composed once per stage and every shard holding it shares the
/// result.
fn coalesce_permutation_runs(programs: &mut [ShardProgram], cap: u32) -> u64 {
    let mut composed: DetMap<Vec<*const FastKernel>, ShardOp> = DetMap::default();
    let mut key: Vec<*const FastKernel> = Vec::new();
    let mut folded = 0;
    for prog in programs.iter_mut() {
        let (mut read, mut write) = (0, 0);
        while read < prog.len() {
            let mut end = read;
            let mut union = 0u64;
            while let Some(mask) = prog.get(end).and_then(unit_permutation_mask) {
                if end > read && (union | mask).count_ones() > cap {
                    break;
                }
                union |= mask;
                end += 1;
            }
            if end - read < 2 {
                prog.swap(write, read);
                (read, write) = (read + 1, write + 1);
                continue;
            }
            let run = &prog[read..end];
            key.clear();
            key.extend(run.iter().map(|op| match op {
                ShardOp::Fusion { kernel, .. } => Arc::as_ptr(kernel),
                _ => unreachable!("runs hold fusion ops only"),
            }));
            let op = match composed.get(key.as_slice()) {
                Some(op) => op.clone(),
                None => {
                    let op = compose_run(run, union);
                    composed.insert(key.clone(), op.clone());
                    op
                }
            };
            folded += run.len() as u64;
            prog[write] = op;
            (read, write) = (end, write + 1);
        }
        prog.truncate(write);
    }
    folded
}

/// The qubit mask of `op` if it is an unscaled fusion op whose kernel is
/// a unit-phase permutation — a member of a coalescible run.
fn unit_permutation_mask(op: &ShardOp) -> Option<u64> {
    match op {
        ShardOp::Fusion {
            qubits,
            kernel,
            scale,
        } if scale.bit_eq(Complex64::ONE) && kernel.is_unit_permutation() => {
            Some(qubits.iter().fold(0, |m, &q| m | 1 << q))
        }
        _ => None,
    }
}

/// Composes a run of unit-phase permutation ops over the qubit mask
/// `union` into one relabel op: basis index `x` of the union goes where
/// the run's permutations, applied in program order, send it.
fn compose_run(run: &[ShardOp], union: u64) -> ShardOp {
    let qubits: Vec<u32> = (0..u64::BITS).filter(|&q| union >> q & 1 == 1).collect();
    let mut dst: Vec<u32> = (0..1u32 << qubits.len()).collect();
    // A kernel's bits of a union index are the OR of what its low byte
    // and its high bits hold, so extraction is two lookups per entry.
    let mut low = [0u32; 256];
    let mut high = vec![0u32; 1 << qubits.len().saturating_sub(8)];
    let mut moved: Vec<u32> = Vec::new();
    let mut pos: Vec<u32> = Vec::new();
    for op in run {
        let ShardOp::Fusion {
            qubits: kq, kernel, ..
        } = op
        else {
            unreachable!("runs hold fusion ops only")
        };
        let FastKernel::Permutation { dst: step, .. } = &**kernel else {
            unreachable!("runs hold permutation kernels only")
        };
        // Kernel bit `t` sits at bit `pos[t]` of the union index.
        pos.clear();
        pos.extend(kq.iter().map(|&q| (union & ((1 << q) - 1)).count_ones()));
        let mask = deposit_bits((1 << pos.len()) - 1, &pos) as u32;
        for (b, e) in low.iter_mut().enumerate() {
            *e = extract_bits(b as u64, &pos) as u32;
        }
        for (b, e) in high.iter_mut().enumerate() {
            *e = extract_bits((b as u64) << 8, &pos) as u32;
        }
        moved.clear();
        moved.extend(
            step.iter()
                .map(|&d| deposit_bits(u64::from(d), &pos) as u32),
        );
        for d in dst.iter_mut() {
            let bits = low[*d as usize & 0xff] | high[*d as usize >> 8];
            *d = (*d & !mask) | moved[bits as usize];
        }
    }
    ShardOp::Fusion {
        qubits: Arc::new(qubits),
        kernel: Arc::new(FastKernel::Relabel { dst }),
        scale: Complex64::ONE,
    }
}

/// The pattern key of a kernel for one shard: the raw shard bits of every
/// non-local bit any member gate reads.
fn kernel_pattern(sp: &StagePlan, kernel: &Kernel, shard_bits: u64, l: u32) -> u64 {
    let mut key = 0u64;
    for &t in &kernel.gates {
        key |= pattern_bits(&sp.templates[t].reads, shard_bits, l);
    }
    key
}

fn pattern_bits(reads: &[ReadBit], shard_bits: u64, l: u32) -> u64 {
    reads
        .iter()
        .fold(0, |key, rb| key | (shard_bits & read_mask(rb, l)))
}

/// The pattern-key bit of one non-local read.
fn read_mask(rb: &ReadBit, l: u32) -> u64 {
    1 << (rb.phys - l)
}

/// Fuses the fusion kernels of one stage, each for all of its shard
/// patterns at once, sharing every gate prefix the patterns share.
///
/// Gate `t` of a kernel reduces to the same matrix for two patterns
/// exactly when they agree on the non-local bits `t` reads, so the walk
/// goes depth first over the gates with the set of patterns that still
/// share one product, and splits that set only at a gate that reads a bit
/// on which its patterns disagree. Each group of a split continues from
/// its own copy of the product — the split gate is applied from the
/// parent's accumulator into a buffer reused at the child's depth, so the
/// parent stays intact for its next group. At a leaf the product is
/// classified at once and every pattern of the leaf gets the same
/// `Arc<FastKernel>`, so the buffers hold one product per split depth and
/// a kernel's pattern matrices are never all alive together.
///
/// Each pattern's product is still built by the same gate applications in
/// the same order as fusing that pattern alone, so sharing changes the
/// amount of work, never a bit of the result.
struct PrefixFuser<'a> {
    circuit: &'a Circuit,
    sp: &'a StagePlan,
    l: u32,
    /// `acc[d]`: the product so far of the group being walked at split
    /// depth `d`.
    acc: Vec<Matrix>,
    /// The ping-pong twin of an in-place (non-splitting) gate step.
    spare: Matrix,
    /// The current kernel's distinct patterns (the walk reorders them).
    patterns: Vec<u64>,
    /// The current kernel's `(pattern, kernel)` leaves, sorted by pattern.
    leaves: Vec<(u64, Arc<FastKernel>)>,
    counts: BuildCounts,
}

impl<'a> PrefixFuser<'a> {
    fn new(circuit: &'a Circuit, sp: &'a StagePlan, l: u32) -> Self {
        PrefixFuser {
            circuit,
            sp,
            l,
            acc: vec![Matrix::zeros(0, 0)],
            spare: Matrix::zeros(0, 0),
            patterns: Vec::new(),
            leaves: Vec::new(),
            counts: BuildCounts::default(),
        }
    }

    /// Fuses `kernel` for the distinct patterns among `shard_keys`; look
    /// each up with [`PrefixFuser::kernel_for`] until the next call.
    fn fuse_kernel(&mut self, kernel: &Kernel, shard_keys: &[u64]) {
        let mut patterns = std::mem::take(&mut self.patterns);
        patterns.clear();
        patterns.extend_from_slice(shard_keys);
        patterns.sort_unstable();
        patterns.dedup();
        self.acc[0].set_identity(1 << kernel.qubits.len());
        self.leaves.clear();
        self.walk(kernel, 0, 0, &mut patterns);
        self.leaves.sort_unstable_by_key(|&(p, _)| p);
        self.patterns = patterns;
        self.counts.kernels += 1;
    }

    /// The fused kernel of pattern `key` of the last fused kernel.
    fn kernel_for(&self, key: u64) -> Arc<FastKernel> {
        let leaf = self
            .leaves
            .binary_search_by_key(&key, |&(p, _)| p)
            .expect("every shard pattern is a leaf of the walk");
        self.leaves[leaf].1.clone()
    }

    /// Continues the walk of `kernel` at gate `t` for `patterns`, whose
    /// shared product of the earlier gates is `acc[depth]`.
    fn walk(&mut self, kernel: &Kernel, mut t: usize, depth: usize, patterns: &mut [u64]) {
        while let Some(&gi) = kernel.gates.get(t) {
            let tp = &self.sp.templates[gi];
            let gate = &self.circuit.gates()[tp.circuit_gate];
            let mask = tp.reads.iter().fold(0, |m, rb| m | read_mask(rb, self.l));
            let first = patterns[0] & mask;
            if patterns.iter().all(|&p| p & mask == first) {
                let m = reduce_for_pattern(gate, &tp.reads, first, self.l);
                let acc = &mut self.acc[depth];
                fuse_gate_into(&mut self.spare, acc, &kernel.qubits, &tp.local_phys, &m);
                std::mem::swap(&mut self.spare, acc);
                self.counts.gate_apps += 1;
                t += 1;
                continue;
            }
            if self.acc.len() == depth + 1 {
                self.acc.push(Matrix::zeros(0, 0));
            }
            patterns.sort_unstable_by_key(|&p| p & mask);
            for group in patterns.chunk_by_mut(|a, b| a & mask == b & mask) {
                let m = reduce_for_pattern(gate, &tp.reads, group[0], self.l);
                let (parent, child) = self.acc.split_at_mut(depth + 1);
                fuse_gate_into(
                    &mut child[0],
                    &parent[depth],
                    &kernel.qubits,
                    &tp.local_phys,
                    &m,
                );
                self.counts.gate_apps += 1;
                self.walk(kernel, t + 1, depth + 1, group);
            }
            return;
        }
        let fk = Arc::new(classify_kernel(&self.acc[depth]));
        self.counts.fused += 1;
        self.leaves
            .extend(patterns.iter().map(|&p| (p, fk.clone())));
    }
}
