//! Command line of the benchmark. Three modes:
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--quick]` — one
//!   run of one workload in this process (so `peak_rss_mb` is the
//!   workload's own); prints each metric by name and unit, then the
//!   result line the acceptance driver reads.
//! * `--all --out FILE [--seed N] [--seconds S] [--runs R] [--quick]` —
//!   every workload, untraced and traced, each run in a child process;
//!   writes the combined report.
//! * `--compare A.json B.json` — judges report B against report A.

use atlas_e2e_bench::compare::{compare, Verdict};
use atlas_e2e_bench::report::{catalogue, render, result_line, Report};
use atlas_e2e_bench::{run, Opts, WORKLOADS};
use atlas_serve::json::parse;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  atlas-e2e-bench --workload <dense22|shuffle22|plan36|serve16> --seed <n> --seconds <s> --trace <0|1> [--quick]
  atlas-e2e-bench --all --out <file> [--seed <n>] [--seconds <s>] [--runs <r>] [--quick]
  atlas-e2e-bench --compare <A.json> <B.json>";

/// Parsed command line; flags may come in any order.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    all: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 15.0,
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(s: String, flag: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: `{s}` is not a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?,
            "--runs" => args.runs = number(value(&mut it, flag)?, flag)?,
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) || args.runs == 0 {
        return Err("--seconds must be >= 0 and --runs >= 1".into());
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let res = run(workload, &opts).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    println!(
        "workload {workload} seed {} seconds {} trace {} quick {} host_cpus {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        atlas_e2e_bench::host::cpus(),
    );
    for m in catalogue(args.trace) {
        let v = res.values.get(m.name).copied().unwrap_or(0.0);
        println!("{:<34} {v:>20.6} {}", m.name, m.unit);
    }
    for note in &res.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {} failed {} failed_share {}",
        res.attempted,
        res.failed,
        res.failed as f64 / res.attempted.max(1) as f64
    );
    println!("{}", result_line(&res, args.trace));
    Ok(())
}

/// Runs every workload, untraced then traced, `runs` times each, every
/// run in a child process of this same executable.
fn run_all(args: &Args) -> Result<(), String> {
    let out = args.out.as_deref().ok_or("--all needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report = Report::new(args.seed, args.seconds, args.runs, args.quick);
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            for _ in 0..args.runs {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()]);
                if args.quick {
                    cmd.arg("--quick");
                }
                // `output` waits for the child to end.
                let child = cmd.output().map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                if !child.status.success() {
                    return Err(format!(
                        "{workload} (trace {trace}) exited with {}",
                        child.status
                    ));
                }
                let line = stdout.lines().last().ok_or("child printed nothing")?;
                report.add(workload, &parse(line)?)?;
            }
        }
    }
    if !report.comparable() {
        eprintln!(
            "note: comparable=false (host_cpus {}, quick {}): these numbers must not be \
             compared with a full 2-core run",
            report.host_cpus, report.quick
        );
    }
    std::fs::write(out, render(&report.to_json()) + "\n").map_err(|e| format!("{out}: {e}"))
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&parse(&text)?).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    let mut count = std::collections::BTreeMap::new();
    for r in &rows {
        *count.entry(format!("{:?}", r.verdict)).or_insert(0u32) += 1;
        if r.verdict != Verdict::Listed && r.verdict != Verdict::Identical {
            let ratio = if r.a == 0.0 { 1.0 } else { r.b / r.a };
            println!(
                "{:<10} {:<28} A {:>16.6} B {:>16.6} B/A {ratio:>7.4} {:?}",
                r.workload, r.metric, r.a, r.b, r.verdict
            );
        }
    }
    println!("verdicts: {count:?}");
    Ok(!rows.iter().any(|r| r.verdict.disagrees()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if args.all {
            run_all(&args).map(|()| true)
        } else if let Some(w) = &args.workload {
            run_one(w, &args).map(|()| true)
        } else {
            Err(USAGE.to_owned())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
