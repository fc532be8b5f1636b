//! One function per reproduced figure, each returning its [`Table`].
//!
//! Paper values are the ones the repo has carried since the figures were
//! first reproduced; the claims are the shapes the paper reports. Theorem
//! 6, "Atlas ≤ SnuQS" and "cost non-increasing in T" are `assert!`s as
//! well as claims: a plan change that breaks them fails the build.

use crate::Table;
use atlas_baselines as baselines;
use atlas_circuit::generators::{hhl, Family};
use atlas_circuit::Circuit;
use atlas_core::config::{AtlasConfig, KernelAlgo, StagingAlgo};
use atlas_core::kernelize::{self, KGate, KernelCost};
use atlas_core::{staging, Planner};
use atlas_machine::{CostModel, MachineReport, MachineSpec};
use std::time::Instant;

/// Paper's Table I, per family, n = 28..=36.
#[rustfmt::skip]
const TABLE1: &[(&str, [usize; 9])] = &[
    ("ae", [514, 547, 581, 616, 652, 689, 727, 766, 806]),
    ("dj", [82, 85, 88, 91, 94, 97, 100, 103, 106]),
    ("ghz", [28, 29, 30, 31, 32, 33, 34, 35, 36]),
    ("graphstate", [56, 58, 60, 62, 64, 66, 68, 70, 72]),
    ("ising", [302, 313, 324, 335, 346, 357, 368, 379, 390]),
    ("qft", [406, 435, 465, 496, 528, 561, 595, 630, 666]),
    ("qpeexact", [432, 463, 493, 524, 559, 593, 628, 664, 701]),
    ("qsvm", [274, 284, 294, 304, 314, 324, 334, 344, 354]),
    ("su2random", [1246, 1334, 1425, 1519, 1616, 1716, 1819, 1925, 2034]),
    ("vqc", [1873, 1998, 2127, 2260, 2397, 2538, 2683, 2832, 2985]),
    ("wstate", [109, 113, 117, 121, 125, 129, 133, 137, 141]),
];

/// Paper's Table II (hhl).
const TABLE2: &[(u32, usize)] = &[(4, 80), (7, 689), (9, 91968), (10, 186795)];

/// Geometric mean; NaN for an empty list.
fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = xs.into_iter().map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The kernelizer's view of a circuit: every gate's mask and
/// shared-memory cost under the default model.
fn kgates(c: &Circuit) -> Vec<KGate> {
    let cm = CostModel::default();
    let kgate = |g: &atlas_circuit::Gate| KGate {
        mask: g.qubit_mask(),
        shm_ns: cm.shm_gate_unit_ns(g),
    };
    c.gates().iter().map(kgate).collect()
}

/// The Fig. 5 GPU ladder: (#GPUs, machine, circuit qubits) with 28 local
/// qubits per GPU and ≤ 4 GPUs per node (G grows 0 → 8, R ≤ 2).
fn weak_scaling_ladder() -> [(usize, MachineSpec, u32); 5] {
    [1usize, 4, 16, 64, 256].map(|gpus| {
        let mut spec = MachineSpec::perlmutter(gpus.div_ceil(4));
        spec.gpus_per_node = gpus.min(4);
        (gpus, spec, 28 + gpus.trailing_zeros())
    })
}

/// Model-clock report of an Atlas plan of `c` under `cfg`.
fn dry(spec: MachineSpec, cfg: AtlasConfig, c: &Circuit) -> MachineReport {
    let planner = Planner::new(spec, CostModel::default(), cfg);
    planner.plan(c).expect("atlas plan").dry_run()
}

fn non_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] <= w[0])
}

fn increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] > w[0])
}

/// Table I/II: the benchmark circuits' gate counts against the paper's.
pub fn table1_table2() -> Table {
    let mut t = Table::new(
        "Table I/II: benchmark circuits (gates)",
        "Gate counts of the eleven Table I families at n = 28..36 and of hhl \
         (Table II), against the counts the paper publishes.",
        "circuit | n | paper | ours | ours / paper",
    );
    let (mut others_exact, mut qpe_within_2, mut hhl_dev) = (true, true, 0.0f64);
    let rows = TABLE1.iter().flat_map(|&(name, counts)| {
        let fam = Family::from_name(name).expect("Table I family");
        (28..)
            .zip(counts)
            .map(move |(n, paper)| (name, n, paper, fam.generate(n)))
    });
    let hhl_rows = TABLE2
        .iter()
        .map(|&(nq, paper)| ("hhl", nq, paper, hhl(nq)));
    for (name, n, paper, c) in rows.chain(hhl_rows) {
        let (ours, ratio) = (c.num_gates(), c.num_gates() as f64 / paper as f64);
        t.row(format!("{name} | {n} | {paper} | {ours} | {ratio:.3}"));
        match name {
            "hhl" => hhl_dev = hhl_dev.max((ratio - 1.0).abs()),
            "qpeexact" => qpe_within_2 &= ours.abs_diff(paper) <= 2,
            _ => others_exact &= ours == paper,
        }
    }
    let text = "every Table I family but qpeexact matches the paper's count at every n";
    t.claim(text, others_exact);
    let text = "qpeexact is within ±2 gates of the paper at every n";
    t.claim(text, qpe_within_2);
    let text = "hhl is within a few percent (≤ 5 %) of Table II at every size";
    t.claim(text, hhl_dev <= 0.05);
    t
}

/// Fig. 5/6: weak scaling of Atlas against the HyQuas-, cuQuantum- and
/// Qiskit-like baselines, and Atlas's communication share.
pub fn fig5_weak_scaling() -> Table {
    let mut t = Table::new(
        "Fig. 5/6: weak scaling, 28 local qubits, 1 → 256 GPUs (model seconds)",
        "Per circuit and GPU count: each simulator's model time, and the best \
         of HyQuas and cuQuantum over Atlas. The `mean` rows are Fig. 6: mean \
         times over the eleven circuits, the geomean speedup, and the \
         communication share of the mean Atlas time.",
        "circuit | GPUs | n | Atlas | HyQuas | cuQuantum | Qiskit | best baseline / Atlas \
         | comm % | paper comm % | ratio",
    );
    let ladder = weak_scaling_ladder();
    // Per ladder step: sums of the four times and of Atlas's comm, and
    // the per-circuit speedups.
    let mut sums = vec![([0.0; 4], 0.0, Vec::new()); ladder.len()];
    let (mut atlas_best, mut qiskit_last) = (true, true);
    for fam in Family::table1() {
        for (step, &(gpus, spec, n)) in ladder.iter().enumerate() {
            let (c, name) = (fam.generate(n), fam.name());
            let atlas = dry(spec, AtlasConfig::default(), &c);
            let secs =
                |r: Result<baselines::BaselineOutput, _>| r.expect("baseline").report.total_secs;
            let times = [
                atlas.total_secs,
                secs(baselines::hyquas(&c, spec, CostModel::default(), true)),
                secs(baselines::cuquantum(&c, spec, CostModel::default(), true)),
                secs(baselines::qiskit(&c, spec, CostModel::default(), true)),
            ];
            let [a, h, cq, q] = times;
            atlas_best &= a <= h.min(cq).min(q);
            qiskit_last &= q >= h.max(cq);
            let (speedup, comm) = (h.min(cq) / a, 100.0 * atlas.comm_fraction());
            t.row(format!(
                "{name} | {gpus} | {n} | {a:.4} | {h:.4} | {cq:.4} | {q:.4} | {speedup:.2} \
                 | {comm:.1} | — | —"
            ));
            let s = &mut sums[step];
            (0..4).for_each(|i| s.0[i] += times[i]);
            s.1 += atlas.comm_secs;
            s.2.push(speedup);
        }
    }
    let (mut geo, mut beyond_node) = (Vec::new(), true);
    let k = Family::table1().len() as f64;
    for (&(gpus, spec, n), (times, comm, speedups)) in ladder.iter().zip(&sums) {
        let share = 100.0 * comm / times[0];
        let paper = match gpus {
            1 => "0 | —".to_string(),
            g if g >= 32 => format!("63–66 | {:.2}–{:.2}", share / 66.0, share / 63.0),
            _ => "— | —".to_string(),
        };
        beyond_node &= spec.nodes == 1 || share > 50.0;
        let speedup = geomean(speedups.iter().copied());
        geo.push(speedup);
        let [a, h, cq, q] = times.map(|x| x / k);
        t.row(format!(
            "mean | {gpus} | {n} | {a:.4} | {h:.4} | {cq:.4} | {q:.4} | {speedup:.2} \
             | {share:.1} | {paper}"
        ));
    }
    let text = "Atlas ≤ every baseline at every circuit and GPU count";
    t.claim(text, atlas_best);
    let text = "the gap widens with scale: the geomean speedup over the best baseline \
                rises at every step of the ladder";
    t.claim(text, increasing(&geo));
    let text = "Qiskit is the slowest simulator at every point";
    t.claim(text, qiskit_last);
    t.claim("Fig. 6: no communication at 1 GPU", sums[0].1 == 0.0);
    let text = "Fig. 6: communication dominates beyond one node \
                (mean comm share > 50 % at every GPU count above 4)";
    t.claim(text, beyond_node);
    t
}

/// Fig. 7/8: DRAM offloading against the QDAO-like baseline.
pub fn fig7_fig8_offload() -> Table {
    let mut t = Table::new(
        "Fig. 7/8: DRAM offloading, qft, 28 local qubits (model seconds)",
        "Fig. 7: one GPU, n = 28..32, the state beyond GPU memory offloaded to \
         DRAM. Fig. 8: n = 32 on 1, 2 and 4 GPUs. QDAO runs at the paper's \
         fastest setting, m = 28 and t = 19.",
        "figure | GPUs | n | Atlas | QDAO | QDAO / Atlas | paper | ratio",
    );
    let points = (28..=32)
        .map(|n| (7, 1, n))
        .chain([1, 2, 4].map(|gpus| (8, gpus, 32)));
    let (mut gaps, mut fig8) = (Vec::new(), Vec::new());
    for (figure, gpus, n) in points {
        let mut spec = MachineSpec::single_gpu(28);
        spec.gpus_per_node = gpus;
        let c = Family::Qft.generate(n);
        let atlas = dry(spec, AtlasConfig::default(), &c).total_secs;
        let qdao = baselines::qdao_run(&c, spec, CostModel::default(), 28, 19);
        let qdao = qdao.expect("qdao").report.total_secs;
        let gap = qdao / atlas;
        let paper = match (figure, n) {
            (7, 28) => format!("6 | {:.3}", gap / 6.0),
            (7, 32) => format!("105 | {:.3}", gap / 105.0),
            _ => "— | —".to_string(),
        };
        t.row(format!(
            "{figure} | {gpus} | {n} | {atlas:.3} | {qdao:.3} | {gap:.2} | {paper}"
        ));
        match figure {
            7 => gaps.push(gap),
            _ => fig8.push((atlas, qdao)),
        }
    }
    let text = "Fig. 7: the QDAO / Atlas gap widens with n (paper: 6x at n = 28 to 105x at n = 32)";
    t.claim(text, increasing(&gaps));
    let text = "Fig. 8: Atlas scales: its time falls from 1 to 2 to 4 GPUs";
    t.claim(text, fig8.windows(2).all(|w| w[1].0 < w[0].0));
    let text = "Fig. 8: QDAO's time stays the same on 1, 2 and 4 GPUs";
    t.claim(text, fig8.iter().all(|p| p.1 == fig8[0].1));
    t
}

/// Fig. 9/12: stage counts of Atlas's staging against SnuQS's.
pub fn fig9_fig12_staging() -> Table {
    let mut t = Table::new(
        "Fig. 9/12: number of stages, Atlas vs SnuQS",
        "Geomean stage count over the eleven Table I families: Fig. 9 at n = 31, \
         Fig. 12 at n = 42, every second L, at most 2 regional qubits (§VII-D).",
        "n | L | Atlas | SnuQS",
    );
    let snuqs_cfg = AtlasConfig {
        staging: StagingAlgo::Snuqs,
        ..AtlasConfig::default()
    };
    let (mut atlas_monotone, mut snuqs_monotone) = (true, true);
    for (n, first_l) in [(31u32, 15u32), (42, 18)] {
        let (mut atlas_geo, mut snuqs_geo) = (Vec::new(), Vec::new());
        for l in (first_l..=n).step_by(2) {
            let g = (n - l).saturating_sub(2);
            let (mut a, mut s) = (Vec::new(), Vec::new());
            for fam in Family::table1() {
                let (c, name) = (fam.generate(n), fam.name());
                let stages = |cfg: &AtlasConfig| {
                    let staged = staging::stage_circuit(&c, l, g, cfg);
                    staged
                        .unwrap_or_else(|e| panic!("{name} L={l}: {e}"))
                        .num_stages()
                };
                let (atlas, snuqs) = (stages(&AtlasConfig::default()), stages(&snuqs_cfg));
                assert!(
                    atlas <= snuqs,
                    "{name} n={n} L={l}: Atlas {atlas} > SnuQS {snuqs}"
                );
                a.push(atlas as f64);
                s.push(snuqs as f64);
            }
            let (a, s) = (geomean(a), geomean(s));
            t.row(format!("{n} | {l} | {a:.3} | {s:.3}"));
            atlas_geo.push(a);
            snuqs_geo.push(s);
        }
        atlas_monotone &= non_increasing(&atlas_geo);
        snuqs_monotone &= non_increasing(&snuqs_geo);
    }
    t.claim("Atlas ≤ SnuQS for every circuit at every L", true);
    let text = "Atlas's geomean is non-increasing in L at n = 31 and n = 42";
    t.claim(text, atlas_monotone);
    let text = "SnuQS's geomean is not non-increasing in L \
                (the paper calls out its L = 23 → 24 regression)";
    t.claim(text, !snuqs_monotone);
    t
}

/// Fig. 10/14/25: kernelization cost of KERNELIZE (DP), ORDERED
/// KERNELIZE and greedy packing, with their search effort (Fig. 26–37).
pub fn fig10_kernelization() -> Table {
    let mut t = Table::new(
        "Fig. 10/14/25: kernelization cost (ns per amplitude)",
        "Eq. 12 cost of KERNELIZE (DP, T = 500), ORDERED KERNELIZE (Atlas-Naive, \
         Alg. 5) and greedy packing into ≤ 5-qubit fusion kernels, per Table I \
         circuit at n = 28, 31, 34, 36 and for hhl at nq = 4, 7 (Fig. 25). A \
         `geomean` row is the circuit's Fig. 10 bar, the geomean of DP / greedy \
         over its sizes; the `all` row is their geomean. The search columns \
         stand in for the preprocessing times of Fig. 26–37: DP child states \
         generated, and segments Alg. 5 examines.",
        "circuit | n | gates | DP | ORDERED | greedy | DP / greedy | paper | ratio \
         | DP children | ORDERED segments",
    );
    let kc = KernelCost::from_machine(&CostModel::default());
    let mut dp_le_greedy = true;
    // One row; returns DP / greedy and the DP's children per gate.
    let mut point = |t: &mut Table, name: &str, n: u32, c: &Circuit| {
        let gates = kgates(c);
        let dp = kernelize::kernelize(&gates, &kc, 500);
        let ordered = kernelize::kernelize_ordered(&gates, &kc);
        let greedy = kernelize::kernelize_greedy(&gates, &kc, 5);
        let theorem6 = dp.cost <= ordered.cost + 1e-9;
        assert!(theorem6, "{name} n={n}: Theorem 6 violated");
        dp_le_greedy &= dp.cost <= greedy.cost + 1e-9;
        let (rel, children) = (dp.cost / greedy.cost, dp.search.children);
        let segments = ordered.search.children;
        let (k, d, o, g) = (gates.len(), dp.cost, ordered.cost, greedy.cost);
        t.row(format!(
            "{name} | {n} | {k} | {d:.4} | {o:.4} | {g:.4} | {rel:.4} | — | — | {children} | {segments}"
        ));
        (rel, children as f64 / k as f64)
    };
    let mut family_geo = Vec::new();
    for fam in Family::table1() {
        let (name, sizes) = (fam.name(), [28, 31, 34, 36]);
        let rel = geomean(sizes.map(|n| point(&mut t, name, n, &fam.generate(n)).0));
        t.row(format!(
            "{name} | geomean | — | — | — | — | {rel:.4} | — | — | — | —"
        ));
        family_geo.push(rel);
    }
    let hhl_per_gate = [4, 7].map(|nq| point(&mut t, "hhl", nq, &hhl(nq)).1);
    let all = geomean(family_geo);
    let ratio = all / 0.583;
    t.row(format!(
        "all | geomean | — | — | — | — | {all:.4} | 0.583 | {ratio:.3} | — | —"
    ));
    t.claim("DP ≤ ORDERED on every circuit (Theorem 6)", true);
    t.claim("DP ≤ greedy on every circuit", dp_le_greedy);
    let text = "hhl: the DP's search is linear in the gates \
                (children per gate does not grow from nq = 4 to nq = 7)";
    t.claim(text, non_increasing(&hhl_per_gate));
    t
}

/// Fig. 13: the pruning threshold `T` against kernelization cost and
/// search effort.
pub fn fig13_pruning() -> Table {
    let mut t = Table::new(
        "Fig. 13: pruning threshold T",
        "KERNELIZE at each T over the eleven Table I circuits at n = 30: geomean \
         cost relative to greedy packing, and the DP child states generated in \
         total (the search the paper's preprocessing time measures). The \
         `Alg. 5` row is Atlas-Naive, with the segments it examines. The paper \
         puts the knee of its curve near T = 500.",
        "T | cost / greedy (geomean) | search | paper",
    );
    let kc = KernelCost::from_machine(&CostModel::default());
    let suite = Family::table1().map(|fam| {
        let gates = kgates(&fam.generate(30));
        let greedy = kernelize::kernelize_greedy(&gates, &kc, 5).cost;
        (greedy, kernelize::kernelize_ordered(&gates, &kc), gates)
    });
    let naive = geomean(suite.iter().map(|(greedy, o, _)| o.cost / greedy));
    let segments: u64 = suite.iter().map(|(_, o, _)| o.search.children).sum();
    t.row(format!("Alg. 5 | {naive:.4} | {segments} | —"));
    let (mut costs, mut searches) = (Vec::new(), Vec::new());
    for threshold in [4, 20, 100, 500, 1000] {
        let clock = Instant::now();
        let runs: Vec<_> = suite
            .iter()
            .map(|(greedy, _, g)| (kernelize::kernelize(g, &kc, threshold), greedy))
            .collect();
        t.host_secs
            .push((format!("T = {threshold}"), clock.elapsed().as_secs_f64()));
        let rel = geomean(runs.iter().map(|(k, greedy)| k.cost / *greedy));
        let children: u64 = runs.iter().map(|(k, _)| k.search.children).sum();
        let rose = costs.last().is_some_and(|&prev| rel > prev + 1e-6);
        assert!(!rose, "cost rose with T = {threshold}: {rel}");
        costs.push(rel);
        searches.push(children as f64);
        let paper = if threshold == 500 { "knee" } else { "—" };
        t.row(format!("{threshold} | {rel:.4} | {children} | {paper}"));
    }
    t.claim("cost is non-increasing in T", true);
    t.claim("T = 4 costs less than Atlas-Naive", costs[0] < naive);
    let text = "the search grows with T at every step";
    t.claim(text, increasing(&searches));
    let text = "cost flattens near T = 500: T = 500 → 1000 gains less than T = 100 → 500";
    t.claim(text, costs[3] - costs[4] < costs[2] - costs[3]);
    t
}

/// §VII-E: the most cost-efficient fusion kernel size under the model.
pub fn best_fusion_size() -> Table {
    let mut t = Table::new(
        "§VII-E: best fusion kernel size",
        "Per-amplitude cost of a fusion kernel over k qubits, and that cost per \
         gate packed, assuming a k-qubit kernel absorbs about k gates.",
        "k | ns per amplitude | per gate packed",
    );
    let cm = CostModel::default();
    for k in 1..=cm.max_fusion_qubits {
        let ns = cm.fusion_unit_ns(k);
        t.row(format!("{k} | {ns:.4} | {:.4}", ns / k as f64));
    }
    let text = "CostModel::best_fusion_size() is 5, the greedy baseline's kernel size";
    t.claim(text, cm.best_fusion_size() == 5);
    t
}

/// Geomean model time and Eq. 2 staging cost (as geomean of cost + 1,
/// minus 1) of the eleven Table I circuits at n = 27 on 8 nodes × 4 GPUs
/// (G = 3, R = 2, L = 22) under `cfg`.
fn ablation(cfg: AtlasConfig) -> (f64, f64) {
    let mut spec = MachineSpec::perlmutter(8);
    spec.local_qubits = 22;
    let planner = Planner::new(spec, CostModel::default(), cfg);
    let plans: Vec<_> = Family::table1()
        .iter()
        .map(|fam| planner.plan(&fam.generate(27)).expect("plan"))
        .collect();
    let time = geomean(plans.iter().map(|p| p.dry_run().total_secs));
    let cost = geomean(plans.iter().map(|p| p.plan().staging_cost as f64 + 1.0)) - 1.0;
    (time, cost)
}

/// The ablations: staging × kernelizer, then the inter-node cost factor
/// `c` of Eq. 2 under Atlas's own pairing.
pub fn ablations() -> Table {
    let mut t = Table::new(
        "Ablations: staging × kernelization, and Eq. 2's c",
        "Geomean model time and Eq. 2 staging cost (geomean of cost + 1, minus \
         1) over the eleven Table I circuits at n = 27 on 8 nodes × 4 GPUs \
         (L = 22). The first row is Atlas; the paper fixes c = 3.",
        "staging | kernelizer | c | time (s) | / Atlas | staging cost",
    );
    let (ilp, snuqs) = (StagingAlgo::IlpSearch, StagingAlgo::Snuqs);
    let (dp, hybrid) = (KernelAlgo::Dp, KernelAlgo::GreedyHybrid(6));
    let pairs = [(ilp, dp), (ilp, hybrid), (ilp, KernelAlgo::Greedy(5))];
    let pairs = pairs
        .into_iter()
        .chain([(ilp, KernelAlgo::Ordered), (snuqs, dp), (snuqs, hybrid)]);
    let configs = pairs.map(|(staging, kernelizer)| (staging, kernelizer, 3));
    let mut times = Vec::new();
    for (staging, kernelizer, c) in configs.chain([0, 1, 10].map(|c| (ilp, dp, c))) {
        let cfg = AtlasConfig {
            staging,
            kernelizer,
            inter_node_cost_factor: c,
            ..Default::default()
        };
        let (time, cost) = ablation(cfg);
        times.push(time);
        let row = format!("{time:.6} | {:.3} | {cost:.2}", time / times[0]);
        t.row(format!("{staging:?} | {kernelizer:?} | {c} | {row}"));
    }
    // Rows 0..6 are the pairings; row 0 and rows 6.. are the c sweep.
    let text = "Atlas (ILP staging + DP kernels) is no slower than any other pairing";
    t.claim(text, times[..6].iter().all(|&x| times[0] <= x));
    let sweep = || times[6..].iter().chain(&times[..1]).copied();
    let spread = sweep().fold(f64::MIN, f64::max) / sweep().fold(f64::MAX, f64::min);
    let text = "the choice of c is stable: the geomean time moves by less than 1 % across c";
    t.claim(text, spread < 1.01);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty()).is_nan());
    }

    #[test]
    fn ladder_shapes_match_paper() {
        let ladder = weak_scaling_ladder();
        let (gpus, spec, n) = ladder[4];
        assert_eq!((gpus, spec.nodes, spec.gpus_per_node, n), (256, 64, 4, 36));
        let (gpus, spec, n) = ladder[0];
        assert_eq!((gpus, spec.num_gpus(), n), (1, 1, 28));
    }
}
