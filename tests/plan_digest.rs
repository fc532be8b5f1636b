//! Golden plan digests: the KERNELIZE DP must keep producing *the same
//! plans*, bit for bit, however its hot loop is rewritten.
//!
//! Equal-cost ties inside `kernelize::dp` are decided by the iteration
//! order of a fixed-hasher map (see the order contract in that module's
//! docs), so a change to the key type, the hasher, a capacity call or
//! the insert sequence silently picks different — equally cheap on
//! paper, differently shaped — kernelizations. Cost-level tests cannot
//! see that; this one can. For each case it hashes, per stage, the
//! `Debug` rendering of the stage's kernels and the bits of its
//! `kernel_cost`, and compares against constants recorded at commit
//! 436d4ed (the last one before `dp.rs`'s loop was rewritten).
//!
//! The cases are the e2e benchmark's shapes, shrunk to test size: the
//! eleven Table I families at two (n, L) rungs on 4×4 GPUs (`plan36`),
//! `su2random` / `wstate` on the `dense22` / `shuffle22` splits, and
//! three of the `serve16` structures.
//!
//! On a mismatch the panic names the family and the stage and prints the
//! complete actual table, so an *intended* plan change is re-recorded by
//! pasting that table over `GOLDEN` — and saying so in the PR.

use atlas::core::plan::Kernel;
use atlas::prelude::*;

/// FNV-1a over the stage's kernels (`Debug`) and its cost bits.
fn stage_digest(kernels: &[Kernel], kernel_cost: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(format!("{kernels:?}").as_bytes());
    eat(&kernel_cost.to_bits().to_le_bytes());
    h
}

/// One golden case: `family` at `n` qubits on `nodes × gpus` GPUs with
/// `l` local qubits.
struct Case {
    family: Family,
    n: u32,
    l: u32,
    nodes: usize,
    gpus: usize,
}

impl Case {
    fn label(&self) -> String {
        format!(
            "{} n={} L={} {}x{}",
            self.family.name(),
            self.n,
            self.l,
            self.nodes,
            self.gpus
        )
    }

    fn stage_digests(&self) -> Vec<u64> {
        let spec = MachineSpec {
            nodes: self.nodes,
            gpus_per_node: self.gpus,
            local_qubits: self.l,
        };
        let planner = Planner::new(spec, CostModel::default(), AtlasConfig::default());
        let plan = planner
            .plan(&self.family.generate(self.n))
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", self.label()));
        plan.plan()
            .stages
            .iter()
            .map(|sp| stage_digest(&sp.kernels, sp.kernel_cost))
            .collect()
    }
}

fn cases() -> Vec<Case> {
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

/// `(case label, digest per stage)`, recorded at commit 436d4ed.
#[rustfmt::skip]
const GOLDEN: &[(&str, &[u64])] = &[
    ("ae n=20 L=12 4x4", &[0xec21bd58cc731feb, 0x9e225255937c59ea, 0xef089bc98c7987c9, 0xd724ccf115c6e7d8]),
    ("dj n=20 L=12 4x4", &[0xec21bd58cc731feb, 0x3589077be65dcffe, 0x660d8ffc898e8082]),
    ("ghz n=20 L=12 4x4", &[0x0413de5c6fd63785, 0xad9f12f1dfd53c50]),
    ("graphstate n=20 L=12 4x4", &[0x8fda9e29dee25400, 0x2bfac8a97d27527e]),
    ("ising n=20 L=12 4x4", &[0x5d104cc35c2b895a, 0x79b9b02c48ddd240]),
    ("qft n=20 L=12 4x4", &[0x4f3c6623b80aee43, 0xe2e9c688037c55ca]),
    ("qpeexact n=20 L=12 4x4", &[0x645e70d4467a0bd0, 0xb5064968b398d4c2]),
    ("qsvm n=20 L=12 4x4", &[0xb692d222f09c9f3c, 0x4f3316149180f26f]),
    ("su2random n=20 L=12 4x4", &[0xe782d9b3f39f939d, 0x68f2511bb2a1b7ed, 0x87061bc94bfeb2d1, 0x4af18c92340226bd, 0xf3f8551973f679c9]),
    ("vqc n=20 L=12 4x4", &[0xfa37ab27b4f7ddcb, 0xcb0dd12588075d9d, 0x0a562dd8c3611cee]),
    ("wstate n=20 L=12 4x4", &[0x0924e07210f12e1f, 0x3b0591e9538d70d6, 0x81d4aefe65f048e9]),
    ("ae n=12 L=6 4x4", &[0xa29712ebd39b499c, 0xa29712ebd39b499c, 0xbf9675eb01c12c77, 0xb2520b545547f335]),
    ("dj n=12 L=6 4x4", &[0xa29712ebd39b499c, 0xdb5fe3dbb7784cd3, 0xa29712ebd39b499c]),
    ("ghz n=12 L=6 4x4", &[0x4aa60e86b3b97980, 0x9b5758c37787d767]),
    ("graphstate n=12 L=6 4x4", &[0xd89bc9a67a2fd5e9, 0xa1ab16a6f7ec4217]),
    ("ising n=12 L=6 4x4", &[0x3e4e1cd85fe41696, 0x17daf621b2d6aa1f, 0x022fd7341b777b88, 0xfdb34d58e47c188e]),
    ("qft n=12 L=6 4x4", &[0xd5a195be1d142c24, 0xb2520b545547f335]),
    ("qpeexact n=12 L=6 4x4", &[0xc82ea5f1bd1e9592, 0x0fa403dd55015bc5]),
    ("qsvm n=12 L=6 4x4", &[0x57e5816facbaab94, 0x1e830256d6c76d68, 0x022fd7341b777b88, 0xfdb34d58e47c188e]),
    ("su2random n=12 L=6 4x4", &[0xb2520b545547f335, 0x6a0a8dfb1de47838, 0xb2520b545547f335, 0xf7b0d46d84423465, 0x9c521ca62d75c780, 0xf7b0d46d84423465]),
    ("vqc n=12 L=6 4x4", &[0xd5a195be1d142c24, 0x6703832d778255e9, 0xf7daac8dc9835fee]),
    ("wstate n=12 L=6 4x4", &[0xdee782c649ecb02d, 0xc1671ec0c0d437d3, 0x9b5758c37787d767]),
    ("su2random n=16 L=13 2x2", &[0xc3a4747263df1870, 0xd628ae04323bea94, 0x0958b5fb0c65d6ae, 0x05e8efe0c07e1352]),
    ("wstate n=16 L=6 4x4", &[0xdee782c649ecb02d, 0xdee782c649ecb02d, 0x7464bd2cd8935e54, 0x9b5758c37787d767, 0x665c8a52bf1e3083]),
    ("vqc n=14 L=11 2x2", &[0x8ba2505c7aac8c95, 0x934ca3c6053a3451, 0x60c99d036c551ae4]),
    ("qft n=14 L=11 2x2", &[0xdc0f0205619a512c, 0x153a3ffb24b88baa]),
    ("ae n=14 L=11 2x2", &[0xe1f9460172c7c6cf, 0x73e104ad5f05cdee, 0xa91e1ec4fb0803ee]),
];

fn render(actual: &[(String, Vec<u64>)]) -> String {
    let mut out = String::from("#[rustfmt::skip]\nconst GOLDEN: &[(&str, &[u64])] = &[\n");
    for (label, digests) in actual {
        let list: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        out.push_str(&format!("    (\"{label}\", &[{}]),\n", list.join(", ")));
    }
    out.push_str("];");
    out
}

#[test]
fn plans_match_the_recorded_digests() {
    let actual: Vec<(String, Vec<u64>)> = cases()
        .iter()
        .map(|c| (c.label(), c.stage_digests()))
        .collect();
    let mut wrong = Vec::new();
    if actual.len() != GOLDEN.len() {
        wrong.push(format!(
            "{} cases planned, {} recorded",
            actual.len(),
            GOLDEN.len()
        ));
    }
    for ((label, got), (want_label, want)) in actual.iter().zip(GOLDEN) {
        if label != want_label {
            wrong.push(format!(
                "case `{label}` sits where `{want_label}` was recorded"
            ));
            continue;
        }
        if got.len() != want.len() {
            wrong.push(format!(
                "{label}: {} stages, {} recorded",
                got.len(),
                want.len()
            ));
        }
        for (stage, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            if g != w {
                wrong.push(format!(
                    "{label}: stage {stage} kernelized differently ({g:#018x}, recorded {w:#018x})"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "plans changed:\n  {}\nactual table:\n{}",
        wrong.join("\n  "),
        render(&actual)
    );
}
