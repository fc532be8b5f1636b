//! The plan/IR verifier: a total checker over [`FullPlan`]s.
//!
//! [`verify_plan`] re-derives, from the circuit and cost model alone,
//! everything the planner claims in a compiled plan — stage cover and
//! insularity, per-stage qubit mappings, reshuffle permutations, the
//! insular-reduced gate templates, kernel covers and capacities, the
//! charged clock cost, and finally the effect footprints of the per-shard
//! programs — and rejects the plan with a typed [`Violation`] on the first
//! mismatch. A verified plan is safe to cache, replay, and execute with
//! the engine's `unsafe` disjoint-write fast paths.
//!
//! The checks mirror the invariants the rest of the workspace asserts
//! piecewise (`plan::validate_stages`, `kernelize::validate_cover`, the
//! proptests in `tests/plan_invariants.rs`, the `debug_assert!`s in
//! `exec::compile_stage`) but run them *totally*, over the artifact, with
//! coordinates attached — see [`Invariant`] for the catalogue and
//! `docs/ANALYSIS.md` for the mapping to paper sections.

use crate::effect::effect_of;
use atlas_circuit::{insular, Circuit};
use atlas_core::exec::{build_stage_programs, FullPlan, StagePlan};
use atlas_core::kernelize::{validate_cover, KGate, KernelCost};
use atlas_error::AtlasError;
use atlas_machine::{CostModel, ShardProgram};

/// Above this many shards the verifier stops materializing per-shard
/// programs (a paper-scale dry plan has millions) and relies on the
/// symbolic per-kernel checks alone; [`VerifyReport::effects_materialized`]
/// records which mode ran.
pub const MAX_MATERIALIZED_SHARDS: usize = 4096;

/// Relative tolerance for clock-model conservation: the planner and the
/// verifier sum identical per-kernel prices in different orders.
const COST_REL_TOL: f64 = 1e-9;

/// The invariant a [`Violation`] names. One variant per checkable claim a
/// compiled plan makes; `name()` is the stable diagnostic identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Plan header consistent with the circuit (`n`, `L + G ≤ n`, `n ≤ 63`).
    PlanShape,
    /// Every circuit gate appears in exactly one stage, and each stage's
    /// partition is a well-formed L/R/G split (§IV staging feasibility).
    StageCover,
    /// Every gate's non-insular qubits are local in its stage
    /// (Constraint 1 / the staging ILP's defining constraint).
    Insularity,
    /// A stage's logical→physical mapping is a bijection onto `0..n`.
    MappingBijection,
    /// Local/regional/global qubits map into their physical bit ranges
    /// (`[0,L)`, `[L,L+R)`, `[L+R,n)`).
    MappingClass,
    /// The all-to-all between consecutive stages composes to a
    /// bijection on physical bits (no amplitude lost or duplicated).
    ReshufflePermutation,
    /// The stage's compiled templates/scalars are exactly the insular
    /// reduction of its gates (local positions, read bits, flip
    /// snapshots, per-gate costs, accumulated flips).
    TemplateConsistency,
    /// Gates and kernels execute in a dependency-valid order (stage gate
    /// lists, cross-stage dependencies, kernel sequencing — Theorem 2).
    StageOrdering,
    /// Kernels cover the stage's templates exactly once within their
    /// qubit sets and capacities (§V, Theorems 3 & 6 feasibility).
    KernelCover,
    /// The charged Eq. 12 cost equals the price of the kernel inventory
    /// under the machine's cost model.
    ClockConservation,
    /// A shard instruction is well-formed under effect typing (finite
    /// scalars, matrix shapes, duplicate-free qubit lists).
    OpEffect,
    /// Concurrent shards' write sets are pairwise disjoint — the static
    /// form of the `ShardCell`/`AmpCell` aliasing argument.
    WriteDisjointness,
}

impl Invariant {
    /// Stable kebab-case identifier used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::PlanShape => "plan-shape",
            Invariant::StageCover => "stage-cover",
            Invariant::Insularity => "insularity",
            Invariant::MappingBijection => "mapping-bijection",
            Invariant::MappingClass => "mapping-class",
            Invariant::ReshufflePermutation => "reshuffle-permutation",
            Invariant::TemplateConsistency => "template-consistency",
            Invariant::StageOrdering => "stage-ordering",
            Invariant::KernelCover => "kernel-cover",
            Invariant::ClockConservation => "clock-conservation",
            Invariant::OpEffect => "op-effect",
            Invariant::WriteDisjointness => "write-disjointness",
        }
    }
}

/// A rejected plan: which [`Invariant`] failed, where, and why.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Stage index, when the violation is stage-local.
    pub stage: Option<usize>,
    /// Shard index, for effect-level violations.
    pub shard: Option<usize>,
    /// Op index within the shard program, for effect-level violations.
    pub op: Option<usize>,
    /// Human-readable specifics (gate/kernel indices, expected vs found).
    pub detail: String,
}

impl Violation {
    fn new(invariant: Invariant, detail: impl Into<String>) -> Self {
        Violation {
            invariant,
            stage: None,
            shard: None,
            op: None,
            detail: detail.into(),
        }
    }

    fn at_stage(mut self, stage: usize) -> Self {
        self.stage = Some(stage);
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant {} violated", self.invariant.name())?;
        if let Some(s) = self.stage {
            write!(f, " at stage {s}")?;
        }
        if let Some(s) = self.shard {
            write!(f, ", shard {s}")?;
        }
        if let Some(o) = self.op {
            write!(f, ", op {o}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for Violation {}

impl From<Violation> for AtlasError {
    fn from(v: Violation) -> Self {
        AtlasError::invalid_plan(v.to_string())
    }
}

/// What a successful verification covered (rendered by `atlas-sim
/// --analyze` and folded into serve's metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyReport {
    /// Stages checked.
    pub stages: usize,
    /// Kernels checked across all stages.
    pub kernels: usize,
    /// Gate templates replayed.
    pub templates: usize,
    /// Scalar templates replayed.
    pub scalars: usize,
    /// Inter-stage reshuffles proven bijective.
    pub reshuffles: usize,
    /// Shards whose programs were effect-typed (0 when not materialized).
    pub shards: usize,
    /// Shard instructions effect-typed.
    pub shard_ops: usize,
    /// Whether per-shard programs were materialized and effect-checked
    /// (false above [`MAX_MATERIALIZED_SHARDS`]: symbolic checks only).
    pub effects_materialized: bool,
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} stage(s), {} kernel(s), {} template(s), {} scalar(s), {} reshuffle(s)",
            self.stages, self.kernels, self.templates, self.scalars, self.reshuffles
        )?;
        if self.effects_materialized {
            write!(
                f,
                "; effects: {} op(s) across {} shard(s)",
                self.shard_ops, self.shards
            )
        } else {
            write!(f, "; effects: symbolic only (shard count above cap)")
        }
    }
}

/// Verifies a compiled plan against the circuit it claims to implement
/// and the cost model it claims to be priced under.
///
/// Returns a [`VerifyReport`] describing what was checked, or the first
/// [`Violation`] found. The checks run cheapest-first so corrupt plans
/// fail fast; the effect pass materializes per-shard programs only up to
/// [`MAX_MATERIALIZED_SHARDS`].
pub fn verify_plan(
    circuit: &Circuit,
    plan: &FullPlan,
    cost: &CostModel,
) -> Result<VerifyReport, Violation> {
    let n = plan.n;
    let l = plan.l;
    let g = plan.g;
    check_shape(circuit, plan)?;
    check_stage_cover(circuit, plan)?;
    for (k, sp) in plan.stages.iter().enumerate() {
        check_mapping(sp, n, l, g).map_err(|v| v.at_stage(k))?;
    }
    let mut reshuffles = 0;
    for (k, pair) in plan.stages.windows(2).enumerate() {
        check_reshuffle(&pair[0].mapping, &pair[1].mapping).map_err(|v| v.at_stage(k + 1))?;
        reshuffles += 1;
    }
    let mut templates = 0;
    let mut scalars = 0;
    for (k, sp) in plan.stages.iter().enumerate() {
        check_templates(circuit, sp, l, cost).map_err(|v| v.at_stage(k))?;
        templates += sp.templates.len();
        scalars += sp.scalars.len();
    }
    let kc = KernelCost::from_machine(cost);
    let mut kernels = 0;
    for (k, sp) in plan.stages.iter().enumerate() {
        check_kernels(sp, l, &kc).map_err(|v| v.at_stage(k))?;
        kernels += sp.kernels.len();
    }
    check_clock(plan, &kc)?;

    let num_shards = 1usize << (n - l);
    let mut report = VerifyReport {
        stages: plan.stages.len(),
        kernels,
        templates,
        scalars,
        reshuffles,
        shards: 0,
        shard_ops: 0,
        effects_materialized: num_shards <= MAX_MATERIALIZED_SHARDS,
    };
    if report.effects_materialized {
        for (k, sp) in plan.stages.iter().enumerate() {
            let programs = build_stage_programs(circuit, sp, l, num_shards);
            report.shard_ops += verify_stage_programs(&programs, l, k)?;
        }
        report.shards = num_shards;
    }
    Ok(report)
}

/// Effect-types every instruction of a stage's per-shard programs and
/// proves pairwise disjointness of the concurrent shards' write sets.
///
/// Public separately from [`verify_plan`] so tests can corrupt a
/// materialized program and watch the race checker fire; `stage` only
/// labels diagnostics. Returns the number of ops checked.
pub fn verify_stage_programs(
    programs: &[ShardProgram],
    l: u32,
    stage: usize,
) -> Result<usize, Violation> {
    let shard_mask = (1u64 << l) - 1;
    let mut ops = 0;
    for (s, prog) in programs.iter().enumerate() {
        for (oi, op) in prog.iter().enumerate() {
            let eff = effect_of(op, s as u64, l).map_err(|e| Violation {
                invariant: Invariant::OpEffect,
                stage: Some(stage),
                shard: Some(s),
                op: Some(oi),
                detail: e.to_string(),
            })?;
            // A well-formed op's footprint is exactly its own shard; any
            // mask bit ≥ L makes the symbolic write set intersect a
            // concurrently-running shard's (or fall outside the state).
            let escaped = eff.writes.mask & !shard_mask;
            if escaped != 0 {
                let p = escaped.trailing_zeros();
                let other = s as u64 ^ (1u64 << (p - l));
                let detail = if (other as usize) < programs.len() {
                    format!(
                        "write set {{{:#x}|x : x ⊆ {:#x}}} intersects shard {other}'s \
                         (qubit position {p} ≥ L = {l})",
                        eff.writes.base, eff.writes.mask
                    )
                } else {
                    format!(
                        "write set escapes the state vector (qubit position {p} ≥ L = {l}, \
                         no shard {other})"
                    )
                };
                return Err(Violation {
                    invariant: Invariant::WriteDisjointness,
                    stage: Some(stage),
                    shard: Some(s),
                    op: Some(oi),
                    detail,
                });
            }
            ops += 1;
        }
    }
    Ok(ops)
}

fn check_shape(circuit: &Circuit, plan: &FullPlan) -> Result<(), Violation> {
    let n = plan.n;
    if n != circuit.num_qubits() {
        return Err(Violation::new(
            Invariant::PlanShape,
            format!("plan n = {n} ≠ circuit n = {}", circuit.num_qubits()),
        ));
    }
    if n == 0 || n > 63 {
        return Err(Violation::new(
            Invariant::PlanShape,
            format!("n = {n} outside the engine's 1..=63 range"),
        ));
    }
    if plan.l == 0 || plan.l + plan.g > n {
        return Err(Violation::new(
            Invariant::PlanShape,
            format!("L = {}, G = {} infeasible for n = {n}", plan.l, plan.g),
        ));
    }
    if !plan.kernel_cost.is_finite() {
        return Err(Violation::new(
            Invariant::PlanShape,
            "total kernel cost is not finite",
        ));
    }
    Ok(())
}

/// Stage cover + partition well-formedness + insularity + ordering
/// (the total form of `plan::validate_stages`, with invariant tags).
fn check_stage_cover(circuit: &Circuit, plan: &FullPlan) -> Result<(), Violation> {
    let n = plan.n;
    let masks = circuit.staging_masks();
    let mut assigned = vec![usize::MAX; circuit.num_gates()];
    for (k, sp) in plan.stages.iter().enumerate() {
        sp.stage
            .partition
            .validate(n, plan.l, plan.g)
            .map_err(|e| {
                Violation::new(Invariant::StageCover, format!("partition: {e}")).at_stage(k)
            })?;
        let local_mask = sp.stage.partition.local_mask();
        for &gi in &sp.stage.gates {
            if gi >= circuit.num_gates() {
                return Err(Violation::new(
                    Invariant::StageCover,
                    format!("gate index {gi} out of range"),
                )
                .at_stage(k));
            }
            if assigned[gi] != usize::MAX {
                return Err(Violation::new(
                    Invariant::StageCover,
                    format!("gate {gi} assigned to stages {} and {k}", assigned[gi]),
                )
                .at_stage(k));
            }
            assigned[gi] = k;
            if masks[gi] & !local_mask != 0 {
                return Err(Violation::new(
                    Invariant::Insularity,
                    format!(
                        "gate {gi} has non-insular qubits {:#b} outside local set {:#b}",
                        masks[gi], local_mask
                    ),
                )
                .at_stage(k));
            }
        }
        if sp.stage.gates.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Violation::new(
                Invariant::StageOrdering,
                "stage gate list not in program order",
            )
            .at_stage(k));
        }
    }
    if let Some(gi) = assigned.iter().position(|&s| s == usize::MAX) {
        return Err(Violation::new(
            Invariant::StageCover,
            format!("gate {gi} not assigned to any stage"),
        ));
    }
    for (a, b) in circuit.dependencies() {
        if assigned[a] > assigned[b] {
            return Err(Violation::new(
                Invariant::StageOrdering,
                format!(
                    "dependency violated: gate {a} (stage {}) must precede gate {b} (stage {})",
                    assigned[a], assigned[b]
                ),
            ));
        }
    }
    Ok(())
}

fn check_mapping(sp: &StagePlan, n: u32, l: u32, g: u32) -> Result<(), Violation> {
    if sp.mapping.len() != n as usize {
        return Err(Violation::new(
            Invariant::MappingBijection,
            format!("mapping has {} entries for n = {n}", sp.mapping.len()),
        ));
    }
    let mut seen = vec![false; n as usize];
    for (q, &p) in sp.mapping.iter().enumerate() {
        if p >= n || seen[p as usize] {
            return Err(Violation::new(
                Invariant::MappingBijection,
                format!("qubit {q} → physical bit {p} (out of range or duplicated)"),
            ));
        }
        seen[p as usize] = true;
    }
    let r = n - l - g;
    let ranges = [(0u32, l), (l, l + r), (l + r, n)];
    let classes: [(&str, &[u32]); 3] = [
        ("local", &sp.stage.partition.local),
        ("regional", &sp.stage.partition.regional),
        ("global", &sp.stage.partition.global),
    ];
    for ((name, class), &(lo, hi)) in classes.iter().zip(&ranges) {
        for &q in *class {
            let p = sp.mapping[q as usize];
            if p < lo || p >= hi {
                return Err(Violation::new(
                    Invariant::MappingClass,
                    format!("{name} qubit {q} → physical bit {p} outside [{lo}, {hi})"),
                ));
            }
        }
    }
    Ok(())
}

/// The physical-bit permutation the all-to-all between two consecutive
/// stages applies (`perm[prev position] = next position`), as `execute_on`
/// builds it, checked to be a bijection.
fn check_reshuffle(prev: &[u32], next: &[u32]) -> Result<(), Violation> {
    let n = prev.len();
    let mut perm = vec![u32::MAX; n];
    for q in 0..n {
        let from = prev[q] as usize;
        if from >= n || perm[from] != u32::MAX {
            return Err(Violation::new(
                Invariant::ReshufflePermutation,
                format!("physical bit {from} is the source of two qubits"),
            ));
        }
        perm[from] = next[q];
    }
    let mut hit = vec![false; n];
    for (from, &to) in perm.iter().enumerate() {
        if to as usize >= n || hit[to as usize] {
            return Err(Violation::new(
                Invariant::ReshufflePermutation,
                format!("reshuffle maps bit {from} → {to} (out of range or duplicated)"),
            ));
        }
        hit[to as usize] = true;
    }
    Ok(())
}

/// Replays `exec::compile_stage`'s insular reduction over the stage's
/// gates and compares every compiled field.
fn check_templates(
    circuit: &Circuit,
    sp: &StagePlan,
    l: u32,
    cost: &CostModel,
) -> Result<(), Violation> {
    let mut flips = 0u64;
    let mut ti = 0usize;
    let mut si = 0usize;
    for &gi in &sp.stage.gates {
        let gate = &circuit.gates()[gi];
        let ins = insular::gate_insularity(gate);
        let mut local_phys: Vec<u32> = Vec::new();
        let mut reads: Vec<(u32, u32, bool)> = Vec::new();
        let mut flip_mask = 0u64;
        for (t, q) in gate.qubits.iter().enumerate() {
            let p = sp.mapping[q as usize];
            if p < l {
                local_phys.push(p);
            } else {
                if !ins[t].is_insular() {
                    return Err(Violation::new(
                        Invariant::Insularity,
                        format!("gate {gi} qubit {q} is non-insular but mapped to bit {p} ≥ L"),
                    ));
                }
                reads.push((t as u32, p, flips >> p & 1 == 1));
                if ins[t] == insular::InsularKind::AntiDiagonal {
                    flip_mask |= 1u64 << p;
                }
            }
        }
        if local_phys.is_empty() {
            let st = sp.scalars.get(si).ok_or_else(|| {
                Violation::new(
                    Invariant::TemplateConsistency,
                    format!("gate {gi} reduces to a scalar but scalar template {si} is missing"),
                )
            })?;
            if st.circuit_gate != gi {
                return Err(Violation::new(
                    Invariant::TemplateConsistency,
                    format!(
                        "scalar template {si} compiled from gate {} where gate {gi} expected",
                        st.circuit_gate
                    ),
                ));
            }
            check_reads(&reads, &st.reads, gi)?;
            si += 1;
        } else {
            if flip_mask != 0 {
                return Err(Violation::new(
                    Invariant::TemplateConsistency,
                    format!("mixed gate {gi} flips non-local bits {flip_mask:#b}"),
                ));
            }
            let tp = sp.templates.get(ti).ok_or_else(|| {
                Violation::new(
                    Invariant::TemplateConsistency,
                    format!("gate {gi} has local content but template {ti} is missing"),
                )
            })?;
            if tp.circuit_gate != gi {
                return Err(Violation::new(
                    Invariant::TemplateConsistency,
                    format!(
                        "template {ti} compiled from gate {} where gate {gi} expected",
                        tp.circuit_gate
                    ),
                ));
            }
            if tp.local_phys != local_phys {
                return Err(Violation::new(
                    Invariant::TemplateConsistency,
                    format!(
                        "gate {gi}: local positions {:?} ≠ reduction {:?}",
                        tp.local_phys, local_phys
                    ),
                ));
            }
            check_reads(&reads, &tp.reads, gi)?;
            let shm = cost.shm_gate_unit_ns(gate);
            if tp.shm_ns != shm {
                return Err(Violation::new(
                    Invariant::TemplateConsistency,
                    format!("gate {gi}: shm cost {} ≠ model price {shm}", tp.shm_ns),
                ));
            }
            ti += 1;
        }
        flips ^= flip_mask;
    }
    if ti != sp.templates.len() || si != sp.scalars.len() {
        return Err(Violation::new(
            Invariant::TemplateConsistency,
            format!(
                "{} template(s) and {} scalar(s) compiled where {ti} and {si} derive from the stage",
                sp.templates.len(),
                sp.scalars.len()
            ),
        ));
    }
    if flips != sp.flips {
        return Err(Violation::new(
            Invariant::TemplateConsistency,
            format!(
                "accumulated flips {:#b} ≠ compiled flips {:#b}",
                flips, sp.flips
            ),
        ));
    }
    Ok(())
}

fn check_reads(
    expected: &[(u32, u32, bool)],
    got: &[atlas_core::exec::ReadBit],
    gi: usize,
) -> Result<(), Violation> {
    let same = got.len() == expected.len()
        && got.iter().zip(expected).all(|(rb, &(pos, phys, snap))| {
            rb.pos == pos && rb.phys == phys && rb.flip_snap == snap
        });
    if !same {
        let got: Vec<(u32, u32, bool)> = got
            .iter()
            .map(|rb| (rb.pos, rb.phys, rb.flip_snap))
            .collect();
        return Err(Violation::new(
            Invariant::TemplateConsistency,
            format!("gate {gi}: read bits {got:?} ≠ reduction {expected:?}"),
        ));
    }
    Ok(())
}

/// Kernel cover, qubit-set validity, capacities, and kernel sequencing.
fn check_kernels(sp: &StagePlan, l: u32, kc: &KernelCost) -> Result<(), Violation> {
    let kgates: Vec<KGate> = sp
        .templates
        .iter()
        .map(|t| KGate {
            mask: t.local_phys.iter().fold(0u64, |m, &p| m | (1 << p)),
            shm_ns: t.shm_ns,
        })
        .collect();
    validate_cover(&kgates, &sp.kernels)
        .map_err(|e| Violation::new(Invariant::KernelCover, e.to_string()))?;
    let mut kernel_of = vec![usize::MAX; kgates.len()];
    for (ki, kernel) in sp.kernels.iter().enumerate() {
        if kernel.gates.is_empty() {
            return Err(Violation::new(
                Invariant::KernelCover,
                format!("kernel {ki} is empty"),
            ));
        }
        if kernel.qubits.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Violation::new(
                Invariant::KernelCover,
                format!(
                    "kernel {ki} qubit set {:?} not strictly ascending",
                    kernel.qubits
                ),
            ));
        }
        if kernel.qubits.iter().any(|&q| q >= l) {
            return Err(Violation::new(
                Invariant::KernelCover,
                format!(
                    "kernel {ki} qubit set {:?} leaves the local range [0, {l})",
                    kernel.qubits
                ),
            ));
        }
        let cap = kc.capacity(kernel.kind);
        if kernel.qubits.len() as u32 > cap {
            return Err(Violation::new(
                Invariant::KernelCover,
                format!(
                    "kernel {ki} spans {} qubits over the {:?} capacity {cap}",
                    kernel.qubits.len(),
                    kernel.kind
                ),
            ));
        }
        if kernel.gates.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Violation::new(
                Invariant::StageOrdering,
                format!("kernel {ki} gate list not in program order"),
            ));
        }
        for &t in &kernel.gates {
            kernel_of[t] = ki;
        }
    }
    // Theorem 2: replaying kernels in order must be a valid reordering of
    // the stage — templates sharing a qubit must keep their program order.
    for i in 0..kgates.len() {
        for j in i + 1..kgates.len() {
            if kgates[i].mask & kgates[j].mask != 0 && kernel_of[i] > kernel_of[j] {
                return Err(Violation::new(
                    Invariant::StageOrdering,
                    format!(
                        "templates {i} (kernel {}) and {j} (kernel {}) share a qubit \
                         but run out of order",
                        kernel_of[i], kernel_of[j]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Clock-model conservation: reprice every kernel and compare with the
/// charged per-stage and total costs.
fn check_clock(plan: &FullPlan, kc: &KernelCost) -> Result<(), Violation> {
    let mut total = 0.0;
    for (k, sp) in plan.stages.iter().enumerate() {
        let mut expected = 0.0;
        for kernel in &sp.kernels {
            let shm_sum: f64 = kernel.gates.iter().map(|&t| sp.templates[t].shm_ns).sum();
            expected += kc.of_kind(kernel.kind, kernel.qubits.len() as u32, shm_sum);
        }
        if !cost_eq(expected, sp.kernel_cost) {
            return Err(Violation::new(
                Invariant::ClockConservation,
                format!(
                    "stage charged {} ns where the kernel inventory prices at {expected} ns",
                    sp.kernel_cost
                ),
            )
            .at_stage(k));
        }
        total += sp.kernel_cost;
    }
    if !cost_eq(total, plan.kernel_cost) {
        return Err(Violation::new(
            Invariant::ClockConservation,
            format!(
                "plan charged {} ns where its stages sum to {total} ns",
                plan.kernel_cost
            ),
        ));
    }
    Ok(())
}

fn cost_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_REL_TOL * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::{Gate, GateKind};
    use atlas_core::{AtlasConfig, Planner};
    use atlas_machine::MachineSpec;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::new(GateKind::H, &[0]));
        for q in 1..n {
            c.push(Gate::new(GateKind::CX, &[q - 1, q]));
        }
        c
    }

    /// Plans `circuit` at L = 4, G = 1.
    fn plan_of(circuit: &Circuit) -> (FullPlan, CostModel) {
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 4,
        };
        let compiled = Planner::new(spec, CostModel::default(), AtlasConfig::default())
            .plan(circuit)
            .unwrap();
        (compiled.plan().clone(), compiled.cost().clone())
    }

    #[test]
    fn clean_plans_verify() {
        let circuit = ghz(8);
        let (plan, cost) = plan_of(&circuit);
        let report = verify_plan(&circuit, &plan, &cost).unwrap();
        assert_eq!(report.stages, plan.stages.len());
        assert!(report.effects_materialized);
        assert!(report.shard_ops > 0, "effect pass must check real ops");
        assert_eq!(report.shards, 1 << (8 - 4));
    }

    #[test]
    fn wrong_circuit_is_rejected() {
        let circuit = ghz(8);
        let (plan, cost) = plan_of(&circuit);
        let err = verify_plan(&ghz(9), &plan, &cost).unwrap_err();
        assert_eq!(err.invariant, Invariant::PlanShape);
    }

    #[test]
    fn non_bijective_reshuffle_is_rejected() {
        // Two qubits landing on the same physical bit.
        let err = check_reshuffle(&[0, 1, 2], &[0, 0, 2]).unwrap_err();
        assert_eq!(err.invariant, Invariant::ReshufflePermutation);
        // Two qubits leaving from the same physical bit.
        let err = check_reshuffle(&[0, 0, 2], &[0, 1, 2]).unwrap_err();
        assert_eq!(err.invariant, Invariant::ReshufflePermutation);
        assert!(check_reshuffle(&[2, 1, 0], &[0, 1, 2]).is_ok());
    }

    #[test]
    fn violation_converts_to_invalid_plan() {
        let v = Violation::new(Invariant::ClockConservation, "test").at_stage(3);
        let e = AtlasError::from(v);
        assert_eq!(e.kind(), "invalid-plan");
        assert!(e.to_string().contains("clock-conservation"));
        assert!(e.to_string().contains("stage 3"));
    }
}
