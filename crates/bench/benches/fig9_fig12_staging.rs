//! Figure 9: number of stages, Atlas (ILP) vs SnuQS — geometric mean over
//! the 11 benchmark families at 31 qubits, L = 15..31.
//! Figure 12 (appendix): the same at 42 qubits, L = 18..42.
//!
//! The reproduction targets: Atlas ≤ SnuQS everywhere, and Atlas
//! monotonically non-increasing in L (SnuQS is not — the paper calls out
//! its L=23→24 regression).

use atlas_bench::{families, full_grid, geomean, section, write_csv};
use atlas_core::config::{AtlasConfig, StagingAlgo};
use atlas_core::staging;

fn sweep(n: u32, l_range: std::ops::RangeInclusive<u32>, csv: &str) {
    let cfg = AtlasConfig::default();
    let snuqs_cfg = AtlasConfig {
        staging: StagingAlgo::Snuqs,
        ..AtlasConfig::default()
    };
    println!("{:>4} {:>12} {:>12}", "L", "atlas", "snuqs");
    let mut rows = Vec::new();
    let mut atlas_prev = f64::INFINITY;
    let mut monotone = true;
    for l in l_range.step_by(if full_grid() { 1 } else { 2 }) {
        // At most 2 regional qubits, as in §VII-D.
        let g = (n - l).saturating_sub(2);
        let mut atlas_counts = Vec::new();
        let mut snuqs_counts = Vec::new();
        for fam in families() {
            let c = fam.generate(n);
            let a = staging::stage_circuit(&c, l, g, &cfg)
                .unwrap_or_else(|e| panic!("{} L={l}: {e}", fam.name()));
            let s = staging::stage_circuit(&c, l, g, &snuqs_cfg).unwrap();
            assert!(
                a.num_stages() <= s.num_stages(),
                "{} L={l}: atlas {} > snuqs {}",
                fam.name(),
                a.num_stages(),
                s.num_stages()
            );
            atlas_counts.push(a.num_stages() as f64);
            snuqs_counts.push(s.num_stages() as f64);
        }
        let ga = geomean(&atlas_counts);
        let gs = geomean(&snuqs_counts);
        monotone &= ga <= atlas_prev + 1e-9;
        atlas_prev = ga;
        println!("{l:>4} {ga:>12.3} {gs:>12.3}");
        rows.push(format!("{l},{ga},{gs}"));
    }
    println!(
        "Atlas geomean monotone non-increasing in L: {}",
        if monotone { "yes" } else { "NO (unexpected)" }
    );
    if let Some(p) = write_csv(csv, "L,atlas_geomean_stages,snuqs_geomean_stages", &rows) {
        println!("wrote {p}");
    }
}

fn main() {
    section("Figure 9: #stages (geomean over 11 families), n = 31");
    sweep(31, 15..=31, "fig9_staging_n31");

    section("Figure 12: #stages (geomean over 11 families), n = 42");
    sweep(42, 18..=42, "fig12_staging_n42");
}
