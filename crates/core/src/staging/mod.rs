//! Circuit staging (§IV): partition the circuit into stages with
//! local/regional/global qubit assignments so every gate's non-insular
//! qubits are local in its stage, minimizing the stage count first
//! (Theorem 1) and then the communication cost of Eq. 2.

pub mod ilp_model;
pub mod prep;
pub mod search;
pub mod snuqs;

use crate::config::AtlasConfig;
use crate::plan::{QubitPartition, Stage};
use atlas_circuit::Circuit;
use atlas_error::AtlasError;
use atlas_ilp::{SolveStatus, SolverConfig};
use prep::StagingProblem;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global count of staging-solver invocations (every
/// [`stage_circuit`] / [`stage_circuit_snuqs`] call increments it).
///
/// This is the observability hook behind the session API's
/// plan-once/run-many guarantee: PARTITION is the expensive phase, so
/// tests and benchmarks assert that an N-point parameter sweep moves
/// this counter by exactly one. See [`staging_invocations`].
static STAGING_INVOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Number of staging-solver invocations since process start
/// (monotonically increasing, shared by every thread).
///
/// Take a snapshot before a workload and diff afterwards to observe how
/// many times the expensive PARTITION phase actually ran — the
/// plan-once/run-many tests are built on this.
pub fn staging_invocations() -> usize {
    STAGING_INVOCATIONS.load(Ordering::Relaxed)
}

/// A staging in solver-internal form: per-stage qubit masks plus the stage
/// index of every optimization item.
#[derive(Clone, Debug)]
pub struct RawStaging {
    /// Per stage: (local qubit mask, global qubit mask).
    pub partitions: Vec<(u64, u64)>,
    /// Stage index per [`prep::StagingItem`].
    pub item_stage: Vec<usize>,
    /// Eq. 2 objective value.
    pub cost: i64,
}

/// The result of staging a circuit.
#[derive(Clone, Debug)]
pub struct StagingOutcome {
    /// The stages: gate assignments plus qubit partitions.
    pub stages: Vec<Stage>,
    /// Total communication cost (Eq. 2).
    pub cost: i64,
    /// Whether the stage count is provably minimal.
    pub optimal: bool,
    /// The generic ILP solver's decisive [`SolveStatus`] (`Optimal`, or
    /// `Feasible` when a budget cut the optimality proof short), so a
    /// budget-hit plan is visible instead of silent. `None` for the
    /// search and SnuQS solvers, which report through
    /// [`optimal`](StagingOutcome::optimal) alone.
    pub solve_status: Option<SolveStatus>,
}

impl StagingOutcome {
    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }
}

/// Converts a raw staging back to full [`Stage`]s over the original
/// circuit: every dropped (all-insular) gate is placed at the earliest
/// stage its dependencies allow.
fn extract_stages(circuit: &Circuit, p: &StagingProblem, raw: &RawStaging) -> Vec<Stage> {
    let s = raw.partitions.len();
    // Map original gate index → item index for kept gates.
    let mut item_of = vec![usize::MAX; circuit.num_gates()];
    for (i, item) in p.items.iter().enumerate() {
        for &gi in &item.orig {
            item_of[gi] = i;
        }
    }
    let mut min_stage = vec![0usize; circuit.num_qubits() as usize];
    let mut gate_stage = vec![0usize; circuit.num_gates()];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        let dep_floor = gate
            .qubits
            .iter()
            .map(|q| min_stage[q as usize])
            .max()
            .unwrap_or(0);
        let k = if item_of[gi] != usize::MAX {
            let k = raw.item_stage[item_of[gi]];
            debug_assert!(
                k >= dep_floor,
                "solver staged a gate before its dependencies"
            );
            k
        } else {
            dep_floor
        };
        gate_stage[gi] = k;
        for q in gate.qubits.iter() {
            min_stage[q as usize] = k;
        }
    }
    let mut stages: Vec<Stage> = raw
        .partitions
        .iter()
        .map(|&(lm, gm)| Stage {
            gates: Vec::new(),
            partition: masks_to_partition(circuit.num_qubits(), lm, gm),
        })
        .collect();
    for (gi, &k) in gate_stage.iter().enumerate() {
        stages[k.min(s - 1)].gates.push(gi);
    }
    stages
}

/// Expands (local mask, global mask) into an explicit partition.
pub fn masks_to_partition(n: u32, lmask: u64, gmask: u64) -> QubitPartition {
    let mut local = Vec::new();
    let mut regional = Vec::new();
    let mut global = Vec::new();
    for q in 0..n {
        if lmask >> q & 1 == 1 {
            local.push(q);
        } else if gmask >> q & 1 == 1 {
            global.push(q);
        } else {
            regional.push(q);
        }
    }
    QubitPartition {
        local,
        regional,
        global,
    }
}

/// Atlas staging (Algorithm 2): minimize the number of stages, then the
/// communication cost. `l` local and `g` global qubits; `R = n - l - g`.
///
/// Dispatches on [`AtlasConfig::staging`]: the structure-exploiting search
/// (default), the generic ILP, or the SnuQS heuristic.
pub fn stage_circuit(
    circuit: &Circuit,
    l: u32,
    g: u32,
    cfg: &AtlasConfig,
) -> Result<StagingOutcome, AtlasError> {
    use crate::config::StagingAlgo;
    STAGING_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let p = StagingProblem::build(circuit, l, g, cfg.inter_node_cost_factor);
    match cfg.staging {
        StagingAlgo::GenericIlp => {
            let (raw, optimal, status) = stage_generic_ilp(&p, cfg)?;
            finish(circuit, &p, raw, optimal, Some(status), l, g)
        }
        StagingAlgo::IlpSearch => {
            let raw = search::solve_search(&p, cfg.staging_beam_width, cfg.max_stages).ok_or_else(
                || AtlasError::StagingFailed {
                    algo: "IlpSearch",
                    reason: format!("search exhausted max_stages = {}", cfg.max_stages),
                },
            )?;
            let optimal = raw.partitions.len() == 1;
            finish(circuit, &p, raw, optimal, None, l, g)
        }
        StagingAlgo::Snuqs => {
            let raw = snuqs::solve_snuqs(&p);
            finish(circuit, &p, raw, false, None, l, g)
        }
    }
}

/// SnuQS-heuristic staging (the §VII-D baseline), on the same problem
/// reduction and cost accounting.
pub fn stage_circuit_snuqs(
    circuit: &Circuit,
    l: u32,
    g: u32,
    cfg: &AtlasConfig,
) -> Result<StagingOutcome, AtlasError> {
    STAGING_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let p = StagingProblem::build(circuit, l, g, cfg.inter_node_cost_factor);
    let raw = snuqs::solve_snuqs(&p);
    finish(circuit, &p, raw, false, None, l, g)
}

fn finish(
    circuit: &Circuit,
    p: &StagingProblem,
    raw: RawStaging,
    optimal: bool,
    solve_status: Option<SolveStatus>,
    l: u32,
    g: u32,
) -> Result<StagingOutcome, AtlasError> {
    let stages = extract_stages(circuit, p, &raw);
    crate::plan::validate_stages(circuit, &stages, l, g)?;
    Ok(StagingOutcome {
        stages,
        cost: raw.cost,
        optimal,
        solve_status,
    })
}

/// Algorithm 2 with the generic ILP: try `s = 1, 2, …` until feasible.
/// Returns the raw staging, whether the stage-count minimality proof is
/// intact, and the decisive solver status at the accepted `s`.
fn stage_generic_ilp(
    p: &StagingProblem,
    cfg: &AtlasConfig,
) -> Result<(RawStaging, bool, SolveStatus), AtlasError> {
    let solver_cfg = SolverConfig {
        node_limit: cfg.ilp_node_limit,
    };
    let mut proof_intact = true;
    for s in 1..=cfg.max_stages {
        let (status, raw) = ilp_model::solve_ilp(p, s, &solver_cfg);
        match status {
            SolveStatus::Optimal => {
                return Ok((
                    raw.expect("optimal without plan"),
                    proof_intact,
                    SolveStatus::Optimal,
                ))
            }
            SolveStatus::Feasible => {
                return Ok((
                    raw.expect("feasible without plan"),
                    false,
                    SolveStatus::Feasible,
                ))
            }
            SolveStatus::Infeasible => continue,
            SolveStatus::Unknown => {
                // Can't prove infeasibility at this s: minimality proof lost.
                proof_intact = false;
                continue;
            }
        }
    }
    // Exhaustion after an Unknown means the per-attempt budget is what
    // stopped us (a bigger budget might find a plan); exhaustion on pure
    // Infeasible answers means the model genuinely has no plan within
    // max_stages.
    if proof_intact {
        Err(AtlasError::StagingFailed {
            algo: "GenericIlp",
            reason: format!("no feasible staging within max_stages = {}", cfg.max_stages),
        })
    } else {
        Err(AtlasError::IlpBudgetExceeded {
            max_stages: cfg.max_stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators::{self, Family};

    fn cfg() -> AtlasConfig {
        AtlasConfig::default()
    }

    #[test]
    fn single_stage_when_everything_fits() {
        let c = generators::ghz(6);
        let out = stage_circuit(&c, 6, 0, &cfg()).unwrap();
        assert_eq!(out.num_stages(), 1);
        assert_eq!(out.cost, 0);
        assert!(out.optimal);
        // The search solver reports through `optimal` alone.
        assert_eq!(out.solve_status, None);
    }

    #[test]
    fn ghz_needs_two_stages_at_half_width() {
        // GHZ chain CX targets walk 1..n; with L = n/2 two stages suffice
        // (prefix then suffix) and one cannot (targets exceed L qubits).
        let c = generators::ghz(8);
        let out = stage_circuit(&c, 4, 1, &cfg()).unwrap();
        assert_eq!(out.num_stages(), 2);
    }

    #[test]
    fn search_matches_generic_ilp_stage_count_on_small_circuits() {
        // Theorem 1 cross-check: the search solver must find the same
        // minimal stage count as the exact ILP.
        for fam in [
            Family::Ghz,
            Family::Dj,
            Family::GraphState,
            Family::WState,
            Family::Qft,
        ] {
            for n in [6u32, 8] {
                for l in [3u32, 4, 5] {
                    let c = fam.generate(n);
                    let g = 1.min(n - l);
                    let search = stage_circuit(&c, l, g, &cfg()).unwrap();
                    let mut icfg = cfg();
                    icfg.staging = crate::config::StagingAlgo::GenericIlp;
                    let ilp = stage_circuit(&c, l, g, &icfg).unwrap();
                    assert_eq!(
                        search.num_stages(),
                        ilp.num_stages(),
                        "{fam:?} n={n} L={l}: search {} vs ILP {}",
                        search.num_stages(),
                        ilp.num_stages()
                    );
                    assert!(
                        search.cost <= ilp.cost || search.num_stages() == 1,
                        "{fam:?} n={n} L={l}: search cost {} worse than ILP optimal {}",
                        search.cost,
                        ilp.cost
                    );
                }
            }
        }
    }

    #[test]
    fn atlas_never_worse_than_snuqs() {
        // §VII-D: the ILP "always outperforms SnuQS' approach".
        for fam in Family::table1() {
            let c = fam.generate(10);
            for l in [4u32, 6, 8] {
                let atlas = stage_circuit(&c, l, 1, &cfg()).unwrap();
                let snuqs = stage_circuit_snuqs(&c, l, 1, &cfg()).unwrap();
                assert!(
                    atlas.num_stages() <= snuqs.num_stages(),
                    "{fam:?} L={l}: atlas {} > snuqs {}",
                    atlas.num_stages(),
                    snuqs.num_stages()
                );
            }
        }
    }

    #[test]
    fn stages_validate_for_all_families() {
        for fam in Family::table1() {
            let c = fam.generate(9);
            let out = stage_circuit(&c, 5, 2, &cfg()).unwrap();
            // validate_stages already ran inside; sanity on shape:
            assert!(out.num_stages() >= 1);
            for st in &out.stages {
                assert!(st.partition.validate(9, 5, 2).is_ok());
            }
        }
    }

    #[test]
    fn more_local_qubits_never_increase_stages() {
        // The guarantee SnuQS lacks (Fig. 9's L=23→24 anomaly): Atlas stage
        // counts are non-increasing in L.
        for fam in [Family::Qft, Family::Su2Random, Family::Ae] {
            let c = fam.generate(10);
            let mut prev = usize::MAX;
            for l in 4..=10u32 {
                let g = 1.min(10 - l);
                let out = stage_circuit(&c, l, g, &cfg()).unwrap();
                assert!(
                    out.num_stages() <= prev,
                    "{fam:?}: stages increased from {prev} to {} at L={l}",
                    out.num_stages()
                );
                prev = out.num_stages();
            }
        }
    }

    #[test]
    fn generic_ilp_minimizes_cost() {
        // On a circuit engineered to have a cheap and an expensive staging,
        // the ILP must find the cheap one.
        let mut c = Circuit::new(4);
        // Stage A needs {0,1}, stage B needs {2,3} — with L=2, 2 stages.
        c.h(0).h(1).cx(0, 1).h(2).h(3).cx(2, 3);
        let mut icfg = cfg();
        icfg.staging = crate::config::StagingAlgo::GenericIlp;
        let out = stage_circuit(&c, 2, 1, &icfg).unwrap();
        assert_eq!(out.num_stages(), 2);
        assert!(out.optimal);
        assert_eq!(out.solve_status, Some(SolveStatus::Optimal));
        // Transition: both locals change (cost 2). With G=1 the global is
        // forced to move too — stage 1's global must be a former local —
        // adding c=3. Total 5.
        assert_eq!(out.cost, 5);
        // With G=0 no global exists, so the optimum drops to 2.
        let out0 = stage_circuit(&c, 2, 0, &icfg).unwrap();
        assert_eq!(out0.num_stages(), 2);
        assert_eq!(out0.cost, 2, "ILP must avoid any avoidable cost");
        // The search solver must find the same optimum here.
        let sr = stage_circuit(&c, 2, 0, &cfg()).unwrap();
        assert_eq!((sr.num_stages(), sr.cost), (2, 2));
    }

    use atlas_circuit::Circuit;
}
