//! The plan corpus: the e2e benchmark's shapes, shrunk to test size — the
//! eleven Table I families at two (n, L) rungs on 4×4 GPUs (`plan36`),
//! `su2random` / `wstate` on the `dense22` / `shuffle22` splits, and three
//! of the `serve16` structures. `tests/plan_digest.rs` pins its plans; the
//! relayout tests pin how its stage transitions move.

// Each suite that includes this module uses a different slice of it.
#![allow(dead_code)]

use atlas::core::exec::FullPlan;
use atlas::prelude::*;
use atlas::qmath::QubitPermutation;

/// One case: `family` at `n` qubits on `nodes × gpus` GPUs with `l` local
/// qubits.
pub struct Case {
    pub family: Family,
    pub n: u32,
    pub l: u32,
    pub nodes: usize,
    pub gpus: usize,
}

impl Case {
    pub fn label(&self) -> String {
        format!(
            "{} n={} L={} {}x{}",
            self.family.name(),
            self.n,
            self.l,
            self.nodes,
            self.gpus
        )
    }

    pub fn spec(&self) -> MachineSpec {
        MachineSpec {
            nodes: self.nodes,
            gpus_per_node: self.gpus,
            local_qubits: self.l,
        }
    }

    /// The case's plan under the default configuration.
    pub fn plan(&self) -> FullPlan {
        let planner = Planner::new(self.spec(), CostModel::default(), AtlasConfig::default());
        planner
            .plan(&self.family.generate(self.n))
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", self.label()))
            .plan()
            .clone()
    }
}

pub fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // plan36, shrunk: every Table I family at two rungs on 4×4 GPUs.
    for (n, l) in [(20, 12), (12, 6)] {
        for family in Family::table1() {
            cases.push(Case {
                family,
                n,
                l,
                nodes: 4,
                gpus: 4,
            });
        }
    }
    // dense22 / shuffle22, shrunk.
    cases.push(Case {
        family: Family::Su2Random,
        n: 16,
        l: 13,
        nodes: 2,
        gpus: 2,
    });
    cases.push(Case {
        family: Family::WState,
        n: 16,
        l: 6,
        nodes: 4,
        gpus: 4,
    });
    // serve16 structures.
    for family in [Family::Vqc, Family::Qft, Family::Ae] {
        cases.push(Case {
            family,
            n: 14,
            l: 11,
            nodes: 2,
            gpus: 2,
        });
    }
    cases
}

/// The stage transitions `new = perm(old) ^ flip` a functional run of
/// `plan` performs, in order — the same walk as `exec::execute`: each one
/// carries the previous stage's shard-bit flips through its permutation.
pub fn transitions(plan: &FullPlan) -> Vec<(QubitPermutation, u64)> {
    plan.stages
        .windows(2)
        .map(|pair| {
            let (from, to) = (&pair[0], &pair[1]);
            let mut map = vec![0u32; from.mapping.len()];
            for (q, &p) in from.mapping.iter().enumerate() {
                map[p as usize] = to.mapping[q];
            }
            let perm = QubitPermutation::from_map(map);
            let flip = (0..plan.n)
                .filter(|&b| (from.flips >> b) & 1 != 0)
                .fold(0u64, |f, b| f | (1 << perm.dst(b)));
            (perm, flip)
        })
        .collect()
}
