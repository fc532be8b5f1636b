//! End-to-end tests of the `atlas-sim` binary: the documented exit-code
//! map (0 success, 1 runtime failure, 2 usage/invalid config, 3 circuit
//! too small, 4 staging failed, 5 retired, 6 invalid
//! plan/plan mismatch, 7 parse error), rejection of contradictory flag
//! combinations, plan-once `--sweep` runs, and determinism of the
//! measurement output across thread counts.

use std::process::{Command, Output};

fn atlas_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atlas-sim"))
        .args(args)
        .output()
        .expect("failed to launch atlas-sim")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn successful_runs_exit_zero() {
    for args in [
        vec!["--family", "ghz", "-n", "8"],
        vec!["--family", "qft", "-n", "8", "--dry"],
        // 2^16 shards on 64×4 GPUs, each all-to-all fanning every shard
        // out to 2^15 others: the charge is per shard, not per edge.
        vec![
            "--family", "vqc", "-n", "31", "-L", "15", "--nodes", "64", "--gpus", "4", "--dry",
        ],
        vec!["--family", "qft", "-n", "8", "--plan"],
        vec![
            "--family", "qaoa", "-n", "8", "--shots", "32", "--seed", "7",
        ],
        vec!["--family", "ghz", "-n", "8", "--expect", "ZIIIIIIZ"],
        // A seed with --noise (but no --shots) is well-formed: the seed
        // drives the trajectory draws of the --expect average.
        vec![
            "--family", "ghz", "-n", "8", "--seed", "3", "--noise", "0.05", "--expect", "ZIIIIIIZ",
        ],
        vec![
            "--family", "ghz", "-n", "8", "--seed", "3", "--noise", "0.05", "--shots", "16",
        ],
        // Forced backends on an all-Clifford family.
        vec!["--family", "ghz", "-n", "8", "--backend", "stabilizer"],
        vec!["--family", "ghz", "-n", "8", "--backend", "statevec"],
    ] {
        let out = atlas_sim(&args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn contradictory_flags_are_rejected_with_exit_2() {
    // Each case: (args, substring the error must mention).
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["--family", "qft", "-n", "8", "--dry", "--shots", "16"],
            "--dry",
        ),
        (
            vec![
                "--family", "qft", "-n", "8", "--dry", "--expect", "ZZZZZZZZ",
            ],
            "--dry",
        ),
        (
            vec!["--family", "qft", "-n", "8", "--dry", "--top", "4"],
            "--dry",
        ),
        (
            vec!["--family", "qft", "-n", "8", "--plan", "--shots", "16"],
            "--plan",
        ),
        (
            vec![
                "--family",
                "qft",
                "-n",
                "8",
                "--baseline",
                "qiskit",
                "--shots",
                "4",
            ],
            "--baseline",
        ),
        (
            // A seed with nothing to draw is a usage error...
            vec!["--family", "qft", "-n", "8", "--seed", "3"],
            "shots",
        ),
        (
            // ...even an explicit zero, which only the CLI can tell from
            // the default (`AtlasConfig::validate` sees `seed != 0`).
            vec!["--family", "qft", "-n", "8", "--seed", "0"],
            "shots",
        ),
        (
            vec!["--family", "qft", "-n", "8", "--threads", "0"],
            "threads",
        ),
        (
            vec!["--family", "qft", "-n", "8", "--sweep", "2", "--dry"],
            "--dry",
        ),
        (
            vec!["--family", "qft", "-n", "8", "--sweep", "2", "--plan"],
            "--plan",
        ),
        (
            vec![
                "--family",
                "qft",
                "-n",
                "8",
                "--sweep",
                "2",
                "--baseline",
                "hyquas",
            ],
            "--baseline",
        ),
        (
            // Pauli width mismatch.
            vec!["--family", "ghz", "-n", "8", "--expect", "ZZZ"],
            "8",
        ),
        (vec!["--family", "qft", "-n", "8", "--bogus"], "--bogus"),
        (vec!["--shots"], "missing value"),
        (
            vec!["--family", "ghz", "-n", "8", "--backend", "bogus"],
            "backend",
        ),
        (
            // qaoa uses non-Clifford rotations: the tableau cannot run it.
            vec!["--family", "qaoa", "-n", "8", "--backend", "stabilizer"],
            "Clifford",
        ),
        (
            vec![
                "--family",
                "ghz",
                "-n",
                "8",
                "--backend",
                "stabilizer",
                "--dry",
            ],
            "--dry",
        ),
        (
            vec!["--family", "ghz", "-n", "8", "--trajectories", "4"],
            "--noise",
        ),
        (
            // --noise alone has nothing to report.
            vec!["--family", "ghz", "-n", "8", "--noise", "0.05"],
            "--noise",
        ),
        (
            vec![
                "--family", "ghz", "-n", "8", "--noise", "1.5", "--shots", "4",
            ],
            "noise",
        ),
    ];
    for (args, needle) in cases {
        let out = atlas_sim(&args);
        assert_eq!(exit_code(&out), 2, "{args:?} should be a usage error");
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: error should mention '{needle}', got: {}",
            stderr(&out)
        );
    }
}

#[test]
fn over_budget_functional_requests_exit_ten() {
    // An over-budget circuit with measurement flags cannot silently
    // auto-dry; it gets the typed ResourceExhausted rejection (exit 10)
    // rather than a usage error or an allocator abort.
    for args in [
        vec!["--family", "qft", "-n", "30", "--shots", "4"],
        vec!["--family", "qft", "-n", "30", "--sweep", "2"],
        vec!["--family", "qft", "-n", "30", "--top", "4"],
    ] {
        let out = atlas_sim(&args);
        assert_eq!(
            exit_code(&out),
            10,
            "{args:?} should exit 10: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("memory") && stderr(&out).contains("budget"),
            "{args:?}: error should mention the memory budget, got: {}",
            stderr(&out)
        );
    }
}

#[test]
fn runtime_failures_exit_one() {
    for args in [
        vec!["--family", "nosuchfamily", "-n", "8"],
        vec!["--qasm", "/nonexistent/file.qasm"],
        vec!["-n", "8"], // neither --family nor --qasm
    ] {
        let out = atlas_sim(&args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn error_variants_map_to_distinct_exit_codes() {
    // CircuitTooSmall: n = 8 but L + G = 7 + log2(4 nodes) = 9.
    let too_small = atlas_sim(&[
        "--family", "ghz", "-n", "8", "-L", "7", "--nodes", "4", "--gpus", "2",
    ]);
    assert_eq!(exit_code(&too_small), 3, "{}", stderr(&too_small));
    assert!(
        stderr(&too_small).contains("too small"),
        "{}",
        stderr(&too_small)
    );

    // ParseError: a bad Pauli character in --expect, with its position.
    let parse = atlas_sim(&["--family", "ghz", "-n", "8", "--expect", "ZIQZZZZZ"]);
    assert_eq!(exit_code(&parse), 7, "{}", stderr(&parse));
    assert!(
        stderr(&parse).contains("position 2"),
        "parse error should carry the offending position: {}",
        stderr(&parse)
    );

    // Distinct variants, distinct codes (the CI smoke step diffs these).
    assert_ne!(exit_code(&too_small), exit_code(&parse));
}

#[test]
fn sweep_plans_once_and_is_deterministic_across_threads() {
    let run = |threads: &str| {
        let out = atlas_sim(&[
            "--family",
            "qaoa",
            "-n",
            "8",
            "--nodes",
            "2",
            "--gpus",
            "2",
            "-L",
            "5",
            "--sweep",
            "3",
            "--shots",
            "16",
            "--seed",
            "7",
            "--threads",
            threads,
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
        (stdout(&out), stderr(&out))
    };
    let (out1, err1) = run("1");
    // One plan, three executed points.
    assert!(
        err1.contains("planned once"),
        "sweep header missing:\n{err1}"
    );
    for i in 0..3 {
        assert!(out1.contains(&format!("point {i} :")), "{out1}");
    }
    // Different parameters ⇒ the seeded shots differ between points
    // (the sweep really re-parameterizes).
    let sections: Vec<&str> = out1.split("point ").collect();
    assert_eq!(sections.len(), 4);
    assert_ne!(
        sections[1], sections[2],
        "sweep points should produce different measurement output"
    );
    // stdout (measurements) is byte-identical across thread counts;
    // timings go to stderr.
    let (out8, _) = run("8");
    assert_eq!(out1, out8);
}

#[test]
fn seeded_shot_output_is_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = atlas_sim(&[
            "--family",
            "qaoa",
            "-n",
            "8",
            "--nodes",
            "2",
            "--gpus",
            "2",
            "-L",
            "5",
            "--shots",
            "64",
            "--seed",
            "7",
            "--threads",
            threads,
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
        stdout(&out)
    };
    let t1 = run("1");
    assert!(
        t1.contains("shots   : 64 (seed 7)"),
        "missing header:\n{t1}"
    );
    assert_eq!(t1, run("2"));
    assert_eq!(t1, run("8"));
}

/// Noisy trajectory sampling is keyed on `(seed, trajectory index)`
/// alone, so its aggregated shot output must be byte-identical across
/// thread counts *and* machine shapes.
#[test]
fn noisy_shot_output_is_identical_across_threads_and_shapes() {
    let run = |threads: &str, nodes: &str, gpus: &str, local: &str| {
        let out = atlas_sim(&[
            "--family",
            "ghz",
            "-n",
            "8",
            "--nodes",
            nodes,
            "--gpus",
            gpus,
            "-L",
            local,
            "--noise",
            "0.05",
            "--trajectories",
            "5",
            "--shots",
            "40",
            "--seed",
            "11",
            "--threads",
            threads,
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
        stdout(&out)
    };
    let base = run("1", "2", "2", "5");
    assert!(
        base.contains("shots   : 40 over 5 trajectorie(s) (seed 11)"),
        "missing noisy header:\n{base}"
    );
    assert_eq!(base, run("2", "2", "2", "5"));
    assert_eq!(base, run("8", "2", "2", "5"));
    // A different shard layout may print a different banner, but the
    // measurement payload must not move.
    let measurement = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("shots") || l.starts_with("  |"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(measurement(&base), measurement(&run("4", "1", "1", "8")));
}

#[test]
fn expectation_output_reports_exact_ghz_values() {
    let out = atlas_sim(&[
        "--family",
        "ghz",
        "-n",
        "10",
        "--expect",
        "ZIIIIIIIIZ",
        "--expect",
        "XXXXXXXXXX",
        "--expect",
        "ZIIIIIIIII",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    // GHZ: edge ZZ correlator = 1, X^n stabilizer = 1, single Z = 0.
    assert!(text.contains("<ZIIIIIIIIZ> = 1.000000000"), "{text}");
    assert!(text.contains("<XXXXXXXXXX> = 1.000000000"), "{text}");
    assert!(text.contains("<ZIIIIIIIII> = 0.000000000"), "{text}");
}

#[test]
fn top_output_comes_from_the_sharded_engine() {
    // Multi-stage shape: the state stays permuted, --top must still print
    // logical bitstrings (GHZ's two branches).
    let out = atlas_sim(&[
        "--family", "ghz", "-n", "9", "--nodes", "2", "--gpus", "2", "-L", "6", "--top", "2",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("|000000000>  p = 0.500000"), "{text}");
    assert!(text.contains("|111111111>  p = 0.500000"), "{text}");
}

#[test]
fn profile_emits_stage_timing_json_lines_on_stderr() {
    let args = [
        "--family",
        "qft",
        "-n",
        "8",
        "--nodes",
        "2",
        "--gpus",
        "2",
        "-L",
        "5",
        "--profile",
    ];
    let out = atlas_sim(&args);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let err = stderr(&out);
    let lines: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("{\"stage\":"))
        .collect();
    // Multi-stage run: at least one compute step and one all-to-all.
    assert!(lines.len() >= 2, "expected per-stage JSON lines:\n{err}");
    for (i, l) in lines.iter().enumerate() {
        assert!(l.starts_with(&format!("{{\"stage\":{i},")), "{l}");
        for key in [
            "\"compute_secs\":",
            "\"comm_secs\":",
            "\"swap_secs\":",
            "\"bytes_intra\":",
            "\"bytes_inter\":",
        ] {
            assert!(l.contains(key), "missing {key} in {l}");
        }
        assert!(l.ends_with('}'), "{l}");
    }
    // A 2-node shape must report inter-node traffic in some transition.
    assert!(
        lines.iter().any(|l| !l.contains("\"bytes_inter\":0}")),
        "no inter-node bytes recorded:\n{err}"
    );
    // stdout is byte-identical with and without --profile.
    let quiet = atlas_sim(&args[..args.len() - 1]);
    assert_eq!(stdout(&out), stdout(&quiet));
    assert!(!stderr(&quiet).contains("{\"stage\":"));
}

#[test]
fn profile_works_on_dry_runs_and_contradicts_plan() {
    let out = atlas_sim(&[
        "--family",
        "su2random",
        "-n",
        "30",
        "-L",
        "27",
        "--dry",
        "--profile",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("{\"stage\":0,"), "{}", stderr(&out));

    let out = atlas_sim(&["--family", "qft", "-n", "8", "--plan", "--profile"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("--profile"), "{}", stderr(&out));
}

/// The serve failure contract at the CLI layer: an over-budget job and
/// an already-expired deadline answer **in-band** at their stream
/// position (typed kind, `ok:false`), the surrounding jobs are served
/// normally, and the process still exits 0 — one bad job never aborts
/// the stream.
#[test]
fn serve_answers_failures_in_band_and_exits_zero() {
    use std::io::Write;
    use std::process::Stdio;

    let input = concat!(
        r#"{"id":"ok","tenant":"t","op":"execute","family":"ghz","n":8}"#,
        "\n",
        r#"{"id":"big","tenant":"t","op":"execute","family":"ghz","n":40}"#,
        "\n",
        r#"{"id":"late","tenant":"t","op":"execute","family":"ghz","n":8,"deadline_ms":0}"#,
        "\n",
        r#"{"op":"stats","id":"s"}"#,
        "\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_atlas-sim"))
        .args(["serve", "-L", "5"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to launch atlas-sim serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write job stream");
    let out = child.wait_with_output().expect("serve run");
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));

    let stdout = stdout(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one response per line: {stdout}");
    assert!(
        lines[0].contains(r#""id":"ok""#) && lines[0].contains(r#""ok":true"#),
        "line 0: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""kind":"resource-exhausted""#),
        "line 1: {}",
        lines[1]
    );
    assert!(
        lines[2].contains(r#""deadline_exceeded":true"#),
        "line 2: {}",
        lines[2]
    );
    // The stats barrier accounts for all of it: the over-budget job was
    // rejected (never submitted), the expired one is deadline-exceeded.
    assert!(
        lines[3].contains(r#""submitted":2"#)
            && lines[3].contains(r#""rejected":1"#)
            && lines[3].contains(r#""deadline_exceeded":1"#),
        "line 3: {}",
        lines[3]
    );
}

/// Panic isolation at the CLI layer: with the fault harness armed at
/// rate 1 (every job panics at the worker site), every response is an
/// in-band `job-panicked` error, the pool survives each one, and the
/// exit code is still 0.
#[test]
fn serve_survives_injected_panics() {
    use std::io::Write;
    use std::process::Stdio;

    let input = concat!(
        r#"{"id":"p0","tenant":"t","op":"plan","family":"ghz","n":8}"#,
        "\n",
        r#"{"id":"p1","tenant":"u","op":"execute","family":"ghz","n":8}"#,
        "\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_atlas-sim"))
        .args([
            "serve",
            "-L",
            "5",
            "--workers",
            "1",
            "--fault-seed",
            "1",
            "--fault-rate",
            "1000000",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to launch atlas-sim serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write job stream");
    let out = child.wait_with_output().expect("serve run");
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let stdout = stdout(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for line in lines {
        assert!(
            line.contains(r#""kind":"job-panicked""#),
            "expected an in-band panic response: {line}"
        );
    }
    assert!(
        stderr(&out).contains("fault injection armed"),
        "stderr should announce the armed harness: {}",
        stderr(&out)
    );
}
