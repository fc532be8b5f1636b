//! Circuit staging (§IV): partition the circuit into stages with
//! local/regional/global qubit assignments so every gate's non-insular
//! qubits are local in its stage, minimizing the stage count first
//! (Theorem 1) and then the communication cost of Eq. 2.

// The exact formulation, kept as the test oracle the search is checked
// against; no configuration can reach it. Its `S`/`T` variable handles
// mirror the paper's model and are read by the solver only.
#[cfg(test)]
#[allow(dead_code)]
mod ilp_model;
pub mod prep;
pub mod search;
pub mod snuqs;

use crate::config::AtlasConfig;
use crate::plan::{QubitPartition, Stage};
use atlas_circuit::Circuit;
use atlas_error::AtlasError;
use prep::StagingProblem;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global count of staging-solver invocations (every
/// [`stage_circuit`] call increments it).
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
    /// Whether the stage count is provably minimal (a single stage; the
    /// search proves nothing beyond that — see [`search`]).
    pub optimal: bool,
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

/// Beam width of the staging search. Widths 4, 64 and 1024 give the
/// same (stages, cost) on an 11-family × 8-shape sweep, and no width up
/// to 16 384 closes a gap to the exact ILP (see the `KNOWN_GAPS` test
/// below): what the search misses is missing from its candidate set,
/// not pruned from its beam.
const BEAM_WIDTH: usize = 64;

/// Runaway bound on the stage count. Deep circuits genuinely need many
/// stages — a 20-qubit Grover's repeated multi-controlled-Z sweeps
/// demand one or two per amplification round — so this is far above any
/// operating point, not a tuning knob.
const MAX_STAGES: usize = 512;

/// Atlas staging (Algorithm 2): minimize the number of stages, then the
/// communication cost. `l` local and `g` global qubits; `R = n - l - g`.
///
/// Dispatches on [`AtlasConfig::staging`]: the structure-exploiting search
/// (default) or the SnuQS heuristic (the §VII-D baseline), both on the
/// same problem reduction and cost accounting.
pub fn stage_circuit(
    circuit: &Circuit,
    l: u32,
    g: u32,
    cfg: &AtlasConfig,
) -> Result<StagingOutcome, AtlasError> {
    use crate::config::StagingAlgo;
    STAGING_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let p = StagingProblem::build(circuit, l, g, cfg.inter_node_cost_factor);
    let raw = match cfg.staging {
        StagingAlgo::IlpSearch => {
            search::solve_search(&p, BEAM_WIDTH, MAX_STAGES).ok_or_else(|| {
                AtlasError::StagingFailed {
                    algo: "IlpSearch",
                    reason: format!("search exhausted max_stages = {MAX_STAGES}"),
                }
            })?
        }
        StagingAlgo::Snuqs => snuqs::solve_snuqs(&p),
    };
    let stages = extract_stages(circuit, &p, &raw);
    crate::plan::validate_stages(circuit, &stages, l, g)?;
    Ok(StagingOutcome {
        stages,
        cost: raw.cost,
        optimal: cfg.staging == StagingAlgo::IlpSearch && raw.partitions.len() == 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators::{self, Family};
    use atlas_ilp::{SolveStatus, SolverConfig};

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
    }

    #[test]
    fn ghz_needs_two_stages_at_half_width() {
        // GHZ chain CX targets walk 1..n; with L = n/2 two stages suffice
        // (prefix then suffix) and one cannot (targets exceed L qubits).
        let c = generators::ghz(8);
        let out = stage_circuit(&c, 4, 1, &cfg()).unwrap();
        assert_eq!(out.num_stages(), 2);
    }

    /// The test oracle: Algorithm 2 over the paper's ILP (Eqs. 3–11,
    /// `ilp_model`) on the generic `atlas-ilp` branch-and-bound — try
    /// `s = 1, 2, …` until a plan exists. `status` is `Optimal` only
    /// when every smaller `s` was proven infeasible and the cost at the
    /// accepted `s` was proven minimal; anything the node budget cut
    /// short comes back `Feasible`. Exact, independent of the search,
    /// and tractable only on small instances.
    fn oracle(p: &StagingProblem) -> (RawStaging, SolveStatus) {
        let budget = SolverConfig {
            node_limit: 2_000_000,
        };
        let mut proof_intact = true;
        for s in 1..=MAX_STAGES {
            match ilp_model::solve_ilp(p, s, &budget) {
                (SolveStatus::Optimal, Some(raw)) if proof_intact => {
                    return (raw, SolveStatus::Optimal)
                }
                (SolveStatus::Optimal | SolveStatus::Feasible, Some(raw)) => {
                    return (raw, SolveStatus::Feasible)
                }
                (SolveStatus::Infeasible, _) => {}
                _ => proof_intact = false,
            }
        }
        panic!("oracle found no staging within {MAX_STAGES} stages");
    }

    /// What a solver answered on one instance: (stages, Eq. 2 cost).
    type Answer = (usize, i64);

    /// The production search's answer and the oracle's on one instance,
    /// plus the oracle's status.
    fn search_vs_oracle(fam: Family, n: u32, l: u32, g: u32) -> (Answer, Answer, SolveStatus) {
        let c = fam.generate(n);
        let search = stage_circuit(&c, l, g, &cfg()).unwrap();
        let p = StagingProblem::build(&c, l, g, cfg().inter_node_cost_factor);
        let (raw, status) = oracle(&p);
        (
            (search.num_stages(), search.cost),
            (raw.partitions.len(), raw.cost),
            status,
        )
    }

    #[test]
    fn search_matches_generic_ilp_stage_count_on_small_circuits() {
        // Theorem 1 cross-check: on these instances the search solver
        // finds the same minimal stage count as the exact ILP.
        for fam in [
            Family::Ghz,
            Family::Dj,
            Family::GraphState,
            Family::WState,
            Family::Qft,
        ] {
            for n in [6u32, 8] {
                for l in [3u32, 4, 5] {
                    let g = 1.min(n - l);
                    let (search, ilp, _) = search_vs_oracle(fam, n, l, g);
                    assert_eq!(search.0, ilp.0, "{fam:?} n={n} L={l}: stage counts");
                    assert!(
                        search.1 <= ilp.1 || search.0 == 1,
                        "{fam:?} n={n} L={l}: search {search:?} costs more than ILP {ilp:?}"
                    );
                }
            }
        }
    }

    /// Instances on which the oracle proves a staging the search does
    /// not reach: (family, n, the search's answer, the oracle's). The
    /// search fix that closes one of these must delete its row to land.
    const KNOWN_GAPS: [(Family, u32, Answer, Answer); 4] = [
        (Family::Ae, 8, (4, 30), (3, 20)),
        (Family::Ising, 8, (4, 12), (3, 10)),
        (Family::Qsvm, 8, (4, 12), (3, 10)),
        (Family::Ae, 10, (4, 22), (3, 20)),
    ];

    #[test]
    fn search_gaps_to_the_oracle_are_exactly_the_known_ones() {
        // Every Table I family the oracle returns on (not `su2random`),
        // at two shapes with G = 2. Where the oracle proves optimality
        // the search can only tie or lose; where it loses a stage, the
        // row must be listed — and a listed row must still lose.
        for fam in Family::table1() {
            if fam == Family::Su2Random {
                continue;
            }
            for (n, l) in [(8u32, 4u32), (10, 6)] {
                let (search, ilp, status) = search_vs_oracle(fam, n, l, 2);
                let at = format!("{} n={n} L={l} G=2", fam.name());
                let listed = KNOWN_GAPS.iter().find(|r| (r.0, r.1) == (fam, n));
                if status != SolveStatus::Optimal {
                    assert!(listed.is_none(), "{at}: listed gap is no longer proven");
                    continue;
                }
                match listed {
                    Some(&(_, _, s, o)) => assert_eq!(
                        (search, ilp),
                        (s, o),
                        "{at}: listed gap moved — update or delete its KNOWN_GAPS row"
                    ),
                    None => {
                        assert_eq!(
                            search.0, ilp.0,
                            "{at}: unlisted gap, search {search:?} vs oracle {ilp:?}"
                        );
                        assert!(
                            search.1 >= ilp.1,
                            "{at}: search {search:?} beats proven optimum {ilp:?}"
                        );
                    }
                }
            }
        }
    }

    /// The widest measured gap; the oracle needs ~5 s and its node
    /// budget runs out before any proof (`Feasible`), so the row only
    /// pins that a 3-stage plan exists.
    #[test]
    #[ignore = "slow: ~5 s in the oracle"]
    fn search_gap_on_ae_16_slow() {
        assert_eq!(
            search_vs_oracle(Family::Ae, 16, 8, 2),
            ((4, 42), (3, 28), SolveStatus::Feasible)
        );
    }

    #[test]
    fn atlas_never_worse_than_snuqs() {
        // §VII-D: the ILP "always outperforms SnuQS' approach".
        let snuqs_cfg = AtlasConfig {
            staging: crate::config::StagingAlgo::Snuqs,
            ..cfg()
        };
        for fam in Family::table1() {
            let c = fam.generate(10);
            for l in [4u32, 6, 8] {
                let atlas = stage_circuit(&c, l, 1, &cfg()).unwrap();
                let snuqs = stage_circuit(&c, l, 1, &snuqs_cfg).unwrap();
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
        let solve = |g: u32| {
            let p = StagingProblem::build(&c, 2, g, cfg().inter_node_cost_factor);
            let (raw, status) = oracle(&p);
            assert_eq!(status, SolveStatus::Optimal);
            // An ILP staging is a valid staging.
            let stages = extract_stages(&c, &p, &raw);
            crate::plan::validate_stages(&c, &stages, 2, g).unwrap();
            (stages.len(), raw.cost)
        };
        // Transition: both locals change (cost 2). With G=1 the global is
        // forced to move too — stage 1's global must be a former local —
        // adding c=3. Total 5.
        assert_eq!(solve(1), (2, 5));
        // With G=0 no global exists, so the optimum drops to 2.
        assert_eq!(solve(0), (2, 2), "ILP must avoid any avoidable cost");
        // The search solver must find the same optimum here.
        let sr = stage_circuit(&c, 2, 0, &cfg()).unwrap();
        assert_eq!((sr.num_stages(), sr.cost), (2, 2));
    }
}
