//! The noisy CLI path executes each trajectory once: with both
//! `--expect` and `--shots`, one run feeds the expectation mean and that
//! trajectory's shot draw. Counted from the `--trace` export, where every
//! tableau sweep records one `stabilizer.run` span.

use std::process::Command;

#[test]
fn noisy_expect_and_shots_run_each_trajectory_once() {
    let trace =
        std::env::temp_dir().join(format!("atlas_noise_trace_{}.ndjson", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_atlas-sim"))
        .args([
            "--family", "ghz", "-n", "8", "--noise", "0.05", "--shots", "40", "--expect",
            "ZIIIIIIZ", "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("failed to launch atlas-sim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(mean over 8 trajectorie(s))"), "{stdout}");
    assert!(stdout.contains("40 over 8 trajectorie(s)"), "{stdout}");
    let events = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();
    let runs = events
        .lines()
        .filter(|l| l.contains(r#""name":"stabilizer.run""#))
        .count();
    assert_eq!(runs, 8, "8 trajectories must execute 8 times, not {runs}");
}
