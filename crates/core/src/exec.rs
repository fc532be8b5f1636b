//! PARTITION + EXECUTE (Algorithm 1): compile a staged circuit into
//! per-stage qubit mappings, insular-specialized kernels and scalar
//! schedules, then run them on the (simulated) machine.
//!
//! ## Physical layout
//!
//! A stage maps logical qubit `q` to physical bit `mapping[q]`: local
//! qubits to bits `0..L`, regional to `L..L+R`, global to `L+R..n`.
//! Between stages the state is re-laid-out with one all-to-all
//! (`Machine::permute_state`), the only communication in the whole run —
//! the paper's central property.
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
use atlas_machine::{CostModel, Machine, ShardOp, ShardProgram};
use atlas_qmath::{Complex64, Matrix, QubitPermutation};
use atlas_statevec::{classify_kernel, fuse_gate_into, FastKernel, Pool};
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

impl FullPlan {
    /// The logical→physical qubit layout the machine is left in after
    /// EXECUTE: the identity when the run unpermutes at the end
    /// (`final_unpermute`), otherwise the last stage's mapping
    /// (outstanding X/Y relabel flips are already applied by `execute`).
    ///
    /// The single source of truth for the post-EXECUTE layout — the
    /// session API's [`Execution`](crate::session::Execution) hands this
    /// to the measurement engine.
    pub fn final_mapping(&self, final_unpermute: bool) -> Vec<u32> {
        if final_unpermute {
            return (0..self.n).collect();
        }
        self.stages
            .last()
            .map(|sp| sp.mapping.clone())
            .unwrap_or_else(|| (0..self.n).collect())
    }
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
/// stage loop, for functional and dry machines alike.
///
/// The machine must have been initialized with the `|0…0⟩` state (any bit
/// layout represents it identically) or pre-permuted into stage 0's
/// layout by the caller. `circuit` is only read on the functional path:
/// a dry walk charges kernels and all-to-alls purely from the compiled
/// [`FullPlan`] — gate matrices are never built — so a
/// [`CompiledPlan`](crate::session::CompiledPlan) can replay its cost
/// model without retaining the circuit it was planned from.
///
/// In functional mode with `cfg.threads > 1`, a persistent worker pool is
/// spawned for the whole run: each stage's independent shard kernels
/// execute concurrently across the workers (or, with fewer shards than
/// workers, each kernel splits its index groups across them), and so does
/// the all-to-all reshuffle between stages (each worker filling whole
/// destination shards); both end in a barrier. Amplitudes are
/// bit-identical for every thread count.
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
    machine: &mut Machine,
    circuit: Option<&Circuit>,
    plan: &FullPlan,
    cfg: &AtlasConfig,
    should_stop: &dyn Fn() -> bool,
) -> bool {
    // Dry runs never touch amplitudes, so the pool would only idle.
    let threads = if machine.is_dry() {
        1
    } else {
        cfg.threads.max(1)
    };
    atlas_statevec::with_pool(threads, |pool| {
        let n = plan.n;
        let l = plan.l;
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
                let mut perm_map = vec![0u32; n as usize];
                for q in 0..n as usize {
                    perm_map[pm[q] as usize] = sp.mapping[q];
                }
                let perm = QubitPermutation::from_map(perm_map);
                let f = permute_mask(&perm, carried_flips);
                machine.permute_state(&perm, f, pool);
                carried_flips = 0;
            }

            execute_stage(machine, circuit, sp, si as u32, l, cfg, pool);
            carried_flips ^= sp.flips;
            machine.stage_barrier();
            prev_mapping = Some(&sp.mapping);
        }

        // Final unpermute to the identity layout (validation runs).
        if cfg.final_unpermute {
            if let Some(pm) = prev_mapping {
                let mut perm_map = vec![0u32; n as usize];
                for q in 0..n as usize {
                    perm_map[pm[q] as usize] = q as u32;
                }
                let perm = QubitPermutation::from_map(perm_map);
                let f = permute_mask(&perm, carried_flips);
                machine.permute_state(&perm, f, pool);
            }
        } else if carried_flips != 0 && !machine.is_dry() {
            // Apply outstanding relabels so gathered state is consistent with
            // the final mapping.
            machine.permute_state(&QubitPermutation::identity(n as usize), carried_flips, pool);
        }
        true
    })
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

fn execute_stage(
    machine: &mut Machine,
    circuit: Option<&Circuit>,
    sp: &StagePlan,
    stage: u32,
    l: u32,
    cfg: &AtlasConfig,
    pool: &Pool,
) {
    let num_shards = machine.num_shards();
    if machine.is_dry() {
        // Dry runs only need the clock charges — skip matrix construction
        // entirely (paper-scale shapes have millions of shard-kernels).
        for kernel in &sp.kernels {
            match kernel.kind {
                KernelKind::Fusion => {
                    for s in 0..num_shards {
                        machine.run_fusion_kernel_dry(s, kernel.qubits.len() as u32);
                    }
                }
                KernelKind::SharedMemory => {
                    let per_amp: f64 = kernel.gates.iter().map(|&t| sp.templates[t].shm_ns).sum();
                    for s in 0..num_shards {
                        machine.run_shm_kernel_dry(s, per_amp);
                    }
                }
            }
        }
        return;
    }
    let circuit = circuit.expect("functional execution needs the circuit");
    let t = cfg.recorder.start();
    let (programs, counts) = build_programs(circuit, sp, l, num_shards);
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
        ],
    );
    machine.run_shard_programs(&programs, pool);
}

/// Compiles one stage into a per-shard instruction sequence: insular
/// specialization per shard pattern, fused-matrix structure classification
/// ([`classify_kernel`]) shared across shards with equal patterns, and the
/// per-shard scalar folded into the first kernel that accepts it.
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
                let per_amp: f64 = kernel.gates.iter().map(|&t| sp.templates[t].shm_ns).sum();
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
                    prog.push(ShardOp::ShmParts {
                        parts,
                        per_amp_ns: per_amp,
                        scale,
                    });
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
    (programs, fuser.counts)
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
