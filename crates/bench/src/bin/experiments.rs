//! Rewrites `EXPERIMENTS.md` at the repository root from
//! [`atlas_bench::SECTIONS`], and prints the host seconds each section
//! took, which the file never holds. Takes no arguments:
//!
//! ```text
//! cargo run --release -p atlas-bench --bin experiments
//! ```

use std::time::Instant;

fn main() {
    let start = Instant::now();
    // The sections are independent: build them side by side (so their
    // host seconds include waiting for a core).
    let built = std::thread::scope(|s| {
        let spawn = |build: fn() -> atlas_bench::Table| {
            s.spawn(move || {
                let clock = Instant::now();
                (build(), clock.elapsed().as_secs_f64())
            })
        };
        let handles = atlas_bench::SECTIONS.map(|(key, build)| (key, spawn(build)));
        handles.map(|(key, h)| (key, h.join().expect("section panicked")))
    });
    let mut sections = Vec::new();
    for (key, (table, secs)) in built {
        println!("{key}: {secs:.2} s");
        for (step, secs) in &table.host_secs {
            println!("  {step}: {secs:.3} s");
        }
        sections.push(table.render(key));
    }
    let doc = atlas_bench::document(&sections);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::write(path, &doc).expect("write EXPERIMENTS.md");
    let summary = doc
        .lines()
        .find(|l| l.starts_with("**"))
        .unwrap_or_default();
    let secs = start.elapsed().as_secs_f64();
    println!("wrote EXPERIMENTS.md in {secs:.1} s: {summary}");
}
