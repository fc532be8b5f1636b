//! Figure 5 (a–l): weak scaling of Atlas vs HyQuas-, cuQuantum- and
//! Qiskit-like baselines, 28 local qubits, 1 → 256 simulated GPUs
//! (n = 28 → 36), plus Figure 6's communication/computation breakdown.
//!
//! Model times from the calibrated cost model; the reproduction targets
//! are the *shapes*: Atlas ahead of every baseline with the gap widening
//! with scale, Qiskit far behind, and communication dominating beyond one
//! node (Fig. 6).

use atlas_baselines as baselines;
use atlas_bench::{families, geomean, section, weak_scaling_ladder, write_csv};
use atlas_core::{AtlasConfig, Planner};
use atlas_machine::CostModel;

fn main() {
    let ladder = weak_scaling_ladder(28);
    let cfg = AtlasConfig::default();
    let cost = CostModel::default();
    let mut rows = Vec::new();

    section("Figure 5: weak scaling, simulation model time (seconds)");
    // Per (family, #GPUs): Atlas / HyQuas / cuQuantum / Qiskit.
    let mut per_gpu_breakdown: Vec<(usize, Vec<f64>, Vec<f64>)> = ladder
        .iter()
        .map(|&(g, _, _)| (g, Vec::new(), Vec::new()))
        .collect();
    let mut speedups_all: Vec<f64> = Vec::new();

    for fam in families() {
        println!("\n--- {} ---", fam.name());
        println!(
            "{:>5} {:>3} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "gpus", "n", "atlas", "hyquas", "cuquantum", "qiskit", "speedup"
        );
        for (li, &(gpus, spec, n)) in ladder.iter().enumerate() {
            let circuit = fam.generate(n);
            let atlas_report = Planner::new(spec, cost.clone(), cfg.clone())
                .plan(&circuit)
                .expect("atlas plan")
                .dry_run();
            let t_atlas = atlas_report.total_secs;
            let t_hyq = baselines::hyquas(&circuit, spec, cost.clone(), true)
                .expect("hyquas")
                .report
                .total_secs;
            let t_cuq = baselines::cuquantum(&circuit, spec, cost.clone(), true)
                .expect("cuquantum")
                .report
                .total_secs;
            let t_qis = baselines::qiskit(&circuit, spec, cost.clone(), true)
                .expect("qiskit")
                .report
                .total_secs;
            // The paper's per-point speedup: best baseline vs Atlas.
            let speedup = (t_hyq.min(t_cuq)) / t_atlas;
            speedups_all.push(speedup);
            println!(
                "{gpus:>5} {n:>3} {t_atlas:>10.4} {t_hyq:>10.4} {t_cuq:>10.4} {t_qis:>10.4} {speedup:>8.1}x"
            );
            rows.push(format!(
                "{},{gpus},{n},{t_atlas},{t_hyq},{t_cuq},{t_qis}",
                fam.name()
            ));
            per_gpu_breakdown[li].1.push(atlas_report.comm_secs);
            per_gpu_breakdown[li].2.push(atlas_report.total_secs);
        }
    }
    println!(
        "\ngeomean speedup of Atlas over the best baseline: {:.2}x",
        geomean(&speedups_all)
    );

    section("Figure 6: Atlas simulation-time breakdown (average over families)");
    println!(
        "{:>5} {:>12} {:>12} {:>8}",
        "gpus", "total(ms)", "comm(ms)", "comm%"
    );
    let mut rows6 = Vec::new();
    for (gpus, comms, totals) in &per_gpu_breakdown {
        let avg_total: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        let avg_comm: f64 = comms.iter().sum::<f64>() / comms.len() as f64;
        let pct = 100.0 * avg_comm / avg_total.max(1e-12);
        println!(
            "{gpus:>5} {:>12.2} {:>12.2} {pct:>7.0}%",
            avg_total * 1e3,
            avg_comm * 1e3
        );
        rows6.push(format!("{gpus},{avg_total},{avg_comm},{pct}"));
    }
    println!("(paper: 0% at 1 GPU rising to ~63-66% at 32+ GPUs)");

    if let Some(p) = write_csv(
        "fig5_weak_scaling",
        "family,gpus,n,atlas_s,hyquas_s,cuquantum_s,qiskit_s",
        &rows,
    ) {
        println!("\nwrote {p}");
    }
    if let Some(p) = write_csv(
        "fig6_breakdown",
        "gpus,avg_total_s,avg_comm_s,comm_pct",
        &rows6,
    ) {
        println!("wrote {p}");
    }
}
