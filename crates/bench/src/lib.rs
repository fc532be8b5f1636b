//! # atlas-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation (and appendix) has a bench target that regenerates it on the
//! simulated machine. Absolute numbers come from the calibrated cost model
//! (the substrate is a simulator, not Perlmutter); the *shape* — who wins,
//! by what factor, where crossovers fall — is the reproduction target.
//! Measured host time — end to end and per layer — comes from the separate
//! `e2ebench` package; `e2ebench/README.md` describes its workloads and
//! metrics.
//!
//! Grids default to a reduced-but-representative subset so `cargo bench`
//! completes in minutes; set `ATLAS_BENCH_FULL=1` for the complete paper
//! grid.

use atlas_circuit::generators::Family;
use atlas_machine::MachineSpec;
use std::io::Write as _;

/// `true` when the full paper grid was requested.
pub fn full_grid() -> bool {
    std::env::var("ATLAS_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The Fig. 5 GPU ladder: (#GPUs, machine spec, circuit qubits) with 28
/// local qubits, ≤4 GPUs per node — exactly the paper's weak-scaling
/// setup (G grows 0→8, R ≤ 2).
pub fn weak_scaling_ladder(local_qubits: u32) -> Vec<(usize, MachineSpec, u32)> {
    let gpu_counts: &[usize] = if full_grid() {
        &[1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        &[1, 4, 16, 64, 256]
    };
    gpu_counts
        .iter()
        .map(|&gpus| {
            let gpus_per_node = gpus.min(4);
            let nodes = gpus / gpus_per_node;
            let spec = MachineSpec {
                nodes,
                gpus_per_node,
                local_qubits,
            };
            let n = local_qubits + (gpus.trailing_zeros());
            (gpus, spec, n)
        })
        .collect()
}

/// The benchmark families in the paper's Fig. 5 order.
pub fn families() -> [Family; 11] {
    Family::table1()
}

/// Circuit sizes for per-family sweeps (Table I columns).
pub fn size_range() -> Vec<u32> {
    if full_grid() {
        (28..=36).collect()
    } else {
        vec![28, 31, 34, 36]
    }
}

/// Writes a CSV file under `bench_results/` (created on demand) and
/// returns its path. Failures to write are reported but non-fatal — the
/// stdout tables are the primary artifact.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> Option<String> {
    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut f = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            return None;
        }
    };
    let _ = writeln!(f, "{header}");
    for r in rows {
        let _ = writeln!(f, "{r}");
    }
    Some(path.display().to_string())
}

/// Prints a separator-heavy section header so bench output is scannable.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ladder_shapes_match_paper() {
        let ladder = weak_scaling_ladder(28);
        let (gpus, spec, n) = ladder[ladder.len() - 1];
        assert_eq!(gpus, 256);
        assert_eq!(spec.nodes, 64);
        assert_eq!(spec.gpus_per_node, 4);
        assert_eq!(n, 36);
        let (g1, s1, n1) = ladder[0];
        assert_eq!((g1, n1), (1, 28));
        assert_eq!(s1.num_gpus(), 1);
    }
}
