//! `atlas-sim` — command-line front end for the simulator.
//!
//! Simulate a benchmark family or a QASM file on a configurable simulated
//! cluster, functionally (exact amplitudes) or as a dry-run clock model at
//! paper scale. Functional runs read their results out through the
//! sharded measurement engine (`atlas-sampler`): top outcomes, seeded
//! shot samples and Pauli expectations are all computed in place on the
//! distributed state — the full `2^n` vector is never gathered.
//!
//! ```text
//! atlas-sim --family qft -n 12 --nodes 2 --gpus 2 -L 9
//! atlas-sim --family qaoa -n 8 --shots 256 --seed 7
//! atlas-sim --family qaoa -n 8 --sweep 16 --shots 64 --seed 7
//! atlas-sim --family ghz -n 10 --expect ZIIIIIIIIZ
//! atlas-sim --qasm circuit.qasm --nodes 1 --gpus 4 -L 24 --dry
//! atlas-sim serve --nodes 2 --gpus 2 -L 5 < jobs.ndjson
//! ```
//!
//! The `serve` subcommand runs the multi-tenant session pool
//! (`atlas-serve`): NDJSON job lines on stdin, one deterministic
//! response line per job on stdout (submission order), aggregate pool
//! statistics on stderr. See `docs/SERVE.md` for the wire format.
//!
//! Exit codes map [`AtlasError`] variants so scripts can dispatch on the
//! failure family: `0` success, `1` generic runtime failure, `2` usage
//! error / invalid configuration, `3` circuit too small for the machine,
//! `4` staging failed, `5` retired (never reused), `6` invalid plan / plan
//! mismatch, `7` parse error, `8` session pool overloaded, `9` job
//! panicked, `10` resource budget exceeded.

use atlas::baselines;
use atlas::circuit::generators::{self, GenerateError};
use atlas::circuit::qasm;
use atlas::core::config::BackendKind;
use atlas::core::session::Planner;
use atlas::core::{noise, BackendRun};
use atlas::prelude::*;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    family: Option<String>,
    qasm_path: Option<String>,
    n: u32,
    nodes: usize,
    gpus_per_node: usize,
    local_qubits: u32,
    dry: bool,
    baseline: Option<String>,
    top: usize,
    /// `--top` appeared explicitly (conflict checks distinguish the
    /// default from a user request).
    top_set: bool,
    plan_only: bool,
    threads: usize,
    shots: usize,
    seed: u64,
    seed_set: bool,
    expect: Vec<String>,
    /// `--sweep N`: plan once, execute N re-parameterized points.
    sweep: usize,
    /// `--profile`: emit the per-stage `StageTiming` breakdown as JSON
    /// lines on stderr.
    profile: bool,
    /// `serve` subcommand: run the multi-tenant session pool over
    /// NDJSON stdin/stdout.
    serve: bool,
    /// `--workers` (serve): pool worker threads (default: all cores).
    workers: usize,
    /// `--queue` (serve): bounded queue capacity.
    queue: usize,
    /// `--cache` (serve): plan-cache capacity.
    cache: usize,
    /// `--workers`, `--queue` or `--cache` appeared explicitly (conflict
    /// checks).
    pool_set: bool,
    /// `--fault-seed` (serve): arm the deterministic fault-injection
    /// harness with this RNG seed.
    fault_seed: Option<u64>,
    /// `--fault-rate` (serve): per-site firing rate in ppm.
    fault_rate: u32,
    /// `--fault-rate` appeared explicitly (conflict checks).
    fault_rate_set: bool,
    /// `--threads` appeared explicitly (serve defaults to 1 thread per
    /// job and parallelizes across workers instead).
    threads_set: bool,
    /// `-L` appeared explicitly (serve has no circuit to default from).
    l_set: bool,
    /// `--backend`: which engine runs the circuit (default auto).
    backend: BackendKind,
    /// `--backend` appeared explicitly (conflict checks).
    backend_set: bool,
    /// `--noise p`: depolarizing strength; > 0 switches to the
    /// Pauli-twirled stochastic-trajectory path.
    noise: f64,
    /// `--trajectories k`: trajectory count for `--noise` runs.
    trajectories: usize,
    /// `--trajectories` appeared explicitly (conflict checks).
    trajectories_set: bool,
    /// `--trace FILE`: write a telemetry trace of the run.
    trace: Option<String>,
    /// `--trace-format`: trace file format (default ndjson).
    trace_format: TraceFormat,
    /// `--trace-format` appeared explicitly (conflict checks).
    trace_format_set: bool,
    /// `--analyze`: run the atlas-analyze static plan verifier on the
    /// compiled plan (debug builds always verify; this forces it in
    /// release builds and prints the verification report).
    analyze: bool,
}

const USAGE: &str = "atlas-sim — distributed quantum circuit simulation (Atlas, SC'24)

USAGE:
    atlas-sim --family <name> -n <qubits> [options]
    atlas-sim --qasm <file> [options]
    atlas-sim serve --nodes <k> --gpus <k> -L <k> [serve options]

CIRCUIT:
    --family <name>     ae|dj|ghz|graphstate|ising|qft|qpeexact|qsvm|
                        su2random|vqc|wstate|hhl|qaoa|grover|clifford
    -n <qubits>         circuit size (default 10)
    --qasm <file>       read an OpenQASM-2 subset file instead

BACKEND:
    --backend <name>    auto|statevec|stabilizer (default auto). auto
                        keeps the exact sharded statevector engine for
                        anything it can execute and diverts all-Clifford
                        circuits beyond the functional limit to the CHP
                        stabilizer tableau (any n); stabilizer forces
                        the tableau (all-Clifford circuits only)
    --noise <p>         depolarizing noise of strength p after every
                        gate, simulated as Pauli-twirled stochastic
                        trajectories sharing ONE compiled plan; output
                        is deterministic for a fixed --seed on any
                        --threads; needs --shots and/or --expect
    --trajectories <k>  trajectory count for --noise runs (default 8)

MACHINE (simulated):
    --nodes <k>         number of nodes, power of two      (default 1)
    --gpus <k>          GPUs per node, power of two        (default 1)
    -L <k>              local qubits per GPU (2^L amps)    (default n)

MODE:
    --dry               clock model only (no amplitudes; any n)
    --plan              print the partition plan and exit
    --baseline <name>   run a comparator instead of Atlas:
                        hyquas|cuquantum|qiskit|qdao
    --threads <k>       host threads for functional execution
                        (default: all cores; results are identical
                        for every value)
    --sweep <N>         parameter sweep: plan ONCE, then execute N
                        points of the circuit with shifted gate
                        parameters (same gate graph) — the session
                        API's plan-once/run-many path; per-point
                        execute times go to stderr
    --analyze           statically verify the compiled plan with
                        atlas-analyze before doing anything with it
                        (kernel covers, insularity, reshuffle
                        permutations, clock conservation, shard-write
                        disjointness) and print the verification
                        report to stderr; debug builds always verify,
                        this forces it in release builds too. A
                        rejected plan exits with code 6
    --profile           print each bulk-synchronous step's timing
                        breakdown (compute/comm/swap seconds + bytes
                        moved intra/inter node) as JSON lines on
                        stderr, under an atlas-stage-timing/2 schema
                        header; stdout is unchanged

TRACE (wall-clock telemetry; model-level outputs are unchanged):
    --trace <file>      record per-worker spans (kernel apply, all-to-all
                        reshuffles, barrier waits), planner/sampler/serve
                        phases and the metrics registry, then write them
                        to <file> on exit; stdout stays byte-identical
                        with or without this flag
    --trace-format <f>  ndjson (default; atlas-trace/1 schema, one event
                        per line) or chrome (trace_event JSON — load the
                        file in ui.perfetto.dev or chrome://tracing)

MEASUREMENTS (functional Atlas runs; computed on the sharded state):
    --top <k>           print the k most probable outcomes (default 8)
    --shots <k>         draw k measurement shots and print their counts
    --seed <s>          RNG seed for --shots (default 0; fixed seed =>
                        byte-identical samples for any --threads/shape)
    --expect <paulis>   print the expectation value of a Pauli string
                        (I/X/Y/Z per qubit, leftmost = highest qubit;
                        repeatable)

SERVE (multi-tenant session pool; NDJSON stdin -> stdout):
    serve               read job lines from stdin, answer one response
                        line per job on stdout in submission order
                        (deterministic for a fixed job stream); pool
                        statistics go to stderr; -L is required since
                        each job line carries its own circuit
    --workers <k>       pool worker threads (default: all cores)
    --queue <k>         bounded job-queue capacity (default 64)
    --cache <k>         compiled-plan LRU cache capacity (default 32)
    --fault-seed <s>    arm the deterministic fault-injection harness
                        with RNG seed s: worker panics, forced cancels,
                        deadline pressure and allocation failures are
                        injected as a pure function of (seed, site,
                        job id) — same seed, same storm, any --workers
    --fault-rate <ppm>  per-site firing rate in parts per million for
                        --fault-seed (default 250000)

--dry and --plan contradict --top/--shots/--seed/--expect, --baseline
contradicts --shots/--seed/--expect/--backend/--trace, --sweep
contradicts --dry/--plan/--baseline, --backend stabilizer and --noise
contradict the clock-model flags (--dry/--plan/--sweep/--profile),
--trace-format needs --trace; serve contradicts every circuit, mode
and measurement flag (but keeps --trace); such combinations are
rejected with exit code 2.

EXIT CODES:
    0 success                 4 staging failed    8 pool overloaded
    1 runtime failure         5 (retired)         9 job panicked
    2 usage / invalid config  6 invalid plan     10 resource budget
    3 circuit too small       7 parse error         exceeded
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        family: None,
        qasm_path: None,
        n: 10,
        nodes: 1,
        gpus_per_node: 1,
        local_qubits: 0,
        dry: false,
        baseline: None,
        top: 8,
        top_set: false,
        plan_only: false,
        threads: host_cpus(),
        shots: 0,
        seed: 0,
        seed_set: false,
        expect: Vec::new(),
        sweep: 0,
        profile: false,
        serve: false,
        workers: host_cpus(),
        queue: 64,
        cache: 32,
        pool_set: false,
        fault_seed: None,
        fault_rate: 250_000,
        fault_rate_set: false,
        threads_set: false,
        l_set: false,
        backend: BackendKind::Auto,
        backend_set: false,
        noise: 0.0,
        trajectories: 8,
        trajectories_set: false,
        trace: None,
        trace_format: TraceFormat::Ndjson,
        trace_format_set: false,
        analyze: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut l_set = false;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--family" => args.family = Some(take(&mut i)?),
            "--qasm" => args.qasm_path = Some(take(&mut i)?),
            "-n" => args.n = take(&mut i)?.parse().map_err(|e| format!("-n: {e}"))?,
            "--nodes" => args.nodes = take(&mut i)?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--gpus" => {
                args.gpus_per_node = take(&mut i)?.parse().map_err(|e| format!("--gpus: {e}"))?
            }
            "-L" => {
                args.local_qubits = take(&mut i)?.parse().map_err(|e| format!("-L: {e}"))?;
                l_set = true;
            }
            "--dry" => args.dry = true,
            "--plan" => args.plan_only = true,
            "--baseline" => args.baseline = Some(take(&mut i)?),
            "--top" => {
                args.top = take(&mut i)?.parse().map_err(|e| format!("--top: {e}"))?;
                args.top_set = true;
            }
            "--threads" => {
                args.threads = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                args.threads_set = true;
            }
            "serve" => args.serve = true,
            "--workers" => {
                args.workers = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                args.pool_set = true;
            }
            "--queue" => {
                args.queue = take(&mut i)?.parse().map_err(|e| format!("--queue: {e}"))?;
                args.pool_set = true;
            }
            "--cache" => {
                args.cache = take(&mut i)?.parse().map_err(|e| format!("--cache: {e}"))?;
                args.pool_set = true;
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fault-seed: {e}"))?,
                )
            }
            "--fault-rate" => {
                args.fault_rate = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--fault-rate: {e}"))?;
                args.fault_rate_set = true;
            }
            "--shots" => args.shots = take(&mut i)?.parse().map_err(|e| format!("--shots: {e}"))?,
            "--seed" => {
                args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.seed_set = true;
            }
            "--expect" => args.expect.push(take(&mut i)?),
            "--backend" => {
                args.backend = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--backend: {e}"))?;
                args.backend_set = true;
            }
            "--noise" => args.noise = take(&mut i)?.parse().map_err(|e| format!("--noise: {e}"))?,
            "--trajectories" => {
                args.trajectories = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--trajectories: {e}"))?;
                args.trajectories_set = true;
            }
            "--sweep" => args.sweep = take(&mut i)?.parse().map_err(|e| format!("--sweep: {e}"))?,
            "--analyze" => args.analyze = true,
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(take(&mut i)?),
            "--trace-format" => {
                args.trace_format = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--trace-format: {e}"))?;
                args.trace_format_set = true;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    if !l_set {
        args.local_qubits = args.n;
    }
    args.l_set = l_set;
    Ok(args)
}

/// Rejects contradictory flag combinations (the measurement flags only
/// make sense on a functional Atlas run). Returns a usage-error message.
fn check_flag_conflicts(args: &Args) -> Result<(), String> {
    let wants_measurements =
        args.shots > 0 || args.seed_set || args.top_set || !args.expect.is_empty();
    let measurement_flags = |a: &Args| -> String {
        let mut f = Vec::new();
        if a.top_set {
            f.push("--top");
        }
        if a.shots > 0 {
            f.push("--shots");
        }
        if a.seed_set {
            f.push("--seed");
        }
        if !a.expect.is_empty() {
            f.push("--expect");
        }
        f.join("/")
    };
    if args.trace_format_set && args.trace.is_none() {
        return Err("--trace-format selects the --trace file format; it needs --trace".to_string());
    }
    // Shard indices split into node and GPU bits (`Planner::plan` rejects
    // any other shape too; checking here keeps it from reaching serve's
    // pool or a dry run's banner).
    for (flag, count) in [("--nodes", args.nodes), ("--gpus", args.gpus_per_node)] {
        if !count.is_power_of_two() {
            return Err(format!("{flag} {count} is not a power of two"));
        }
    }
    if args.serve {
        if args.family.is_some() || args.qasm_path.is_some() {
            return Err("serve reads its circuits from NDJSON job lines; \
                 it contradicts --family/--qasm"
                .to_string());
        }
        if args.dry || args.plan_only || args.baseline.is_some() || args.sweep > 0 || args.profile {
            return Err(
                "serve contradicts the run-mode flags --dry/--plan/--baseline/--sweep/--profile"
                    .to_string(),
            );
        }
        if wants_measurements {
            return Err(format!(
                "serve jobs carry their own measurement requests; serve contradicts {}",
                measurement_flags(args)
            ));
        }
        if args.backend_set || args.noise > 0.0 || args.trajectories_set {
            return Err("serve jobs run on the pool's own plans; serve contradicts \
                 --backend/--noise/--trajectories"
                .to_string());
        }
        if !args.l_set {
            return Err("serve needs an explicit -L (each job line carries its own \
                 circuit, so there is no -n to default from)"
                .to_string());
        }
        if args.fault_rate_set && args.fault_seed.is_none() {
            return Err("--fault-rate tunes the fault-injection harness; it needs \
                 --fault-seed"
                .to_string());
        }
        return Ok(());
    }
    // `--workers/--queue/--cache` (and the fault harness) shape the
    // session pool only.
    if args.pool_set {
        return Err("--workers/--queue/--cache apply to the serve subcommand only".to_string());
    }
    if args.fault_seed.is_some() || args.fault_rate_set {
        return Err("--fault-seed/--fault-rate apply to the serve subcommand only".to_string());
    }
    if args.dry && wants_measurements {
        return Err(format!(
            "--dry runs the clock model only (no amplitudes); it contradicts {}",
            measurement_flags(args)
        ));
    }
    if args.plan_only && wants_measurements {
        return Err(format!(
            "--plan stops before execution; it contradicts {}",
            measurement_flags(args)
        ));
    }
    if args.baseline.is_some() && (args.shots > 0 || args.seed_set || !args.expect.is_empty()) {
        return Err(
            "--baseline comparators have no sharded measurement engine; \
             --shots/--seed/--expect need the Atlas path"
                .to_string(),
        );
    }
    if args.baseline.is_some() && args.trace.is_some() {
        return Err(
            "--baseline comparators bypass the instrumented Atlas path; it contradicts --trace"
                .to_string(),
        );
    }
    if args.sweep > 0 {
        if args.dry {
            return Err("--sweep re-executes amplitudes; it contradicts --dry".to_string());
        }
        if args.plan_only {
            return Err("--plan stops before execution; it contradicts --sweep".to_string());
        }
        if args.baseline.is_some() {
            return Err("--baseline comparators have no plan-once/run-many path; \
                 --sweep needs the Atlas session API"
                .to_string());
        }
    }
    if args.profile && args.plan_only {
        return Err("--plan stops before execution; it contradicts --profile".to_string());
    }
    if args.backend_set && args.baseline.is_some() {
        return Err(
            "--baseline comparators bypass the backend dispatch; it contradicts --backend"
                .to_string(),
        );
    }
    if args.backend == BackendKind::Stabilizer
        && (args.dry || args.plan_only || args.sweep > 0 || args.profile)
    {
        return Err("--backend stabilizer runs functionally on the tableau; it \
             contradicts --dry/--plan/--sweep/--profile"
            .to_string());
    }
    if args.noise > 0.0 {
        if args.dry || args.plan_only || args.baseline.is_some() || args.sweep > 0 || args.profile {
            return Err("--noise draws stochastic trajectories; it contradicts \
                 --dry/--plan/--baseline/--sweep/--profile"
                .to_string());
        }
        if args.top_set {
            return Err(
                "--noise reports aggregated shot counts, not exact amplitudes; \
                 it contradicts --top"
                    .to_string(),
            );
        }
        if args.shots == 0 && args.expect.is_empty() {
            return Err("--noise has nothing to report without --shots or --expect".to_string());
        }
    } else if args.trajectories_set {
        return Err("--trajectories applies to --noise runs only".to_string());
    }
    // Checked here rather than by `AtlasConfig::validate`, which cannot
    // tell an explicit `--seed 0` from the default.
    if args.seed_set && args.shots == 0 && args.noise == 0.0 {
        return Err(
            "--seed only affects shot sampling and noise-trajectory draws; \
             it needs --shots or --noise"
                .to_string(),
        );
    }
    Ok(())
}

/// Maps an [`AtlasError`] to this binary's documented exit codes, after
/// printing it. Distinct failure families get distinct codes so scripts
/// (and the CI smoke step) can dispatch without parsing stderr.
fn error_exit(e: &atlas::core::AtlasError) -> ExitCode {
    use atlas::core::AtlasError::*;
    eprintln!("error: {e}");
    ExitCode::from(match e {
        InvalidConfig { .. } => 2,
        CircuitTooSmall { .. } => 3,
        StagingFailed { .. } => 4,
        // 5 is retired with the solver budget it reported; never reuse it.
        InvalidPlan { .. } | PlanMismatch { .. } => 6,
        ParseError { .. } => 7,
        Overloaded { .. } => 8,
        JobPanicked { .. } => 9,
        ResourceExhausted { .. } => 10,
        // Future variants (the enum is non_exhaustive): generic failure.
        _ => 1,
    })
}

/// The circuit `args` ask for. A failure is a usage error (an `-n` the
/// family's generator does not accept) or a plain one (an unreadable or
/// malformed QASM file, an unknown family).
fn build_circuit(args: &Args) -> Result<Circuit, (ExitCode, String)> {
    let failure = |e: String| (ExitCode::FAILURE, e);
    if let Some(path) = &args.qasm_path {
        let text = std::fs::read_to_string(path).map_err(|e| failure(format!("{path}: {e}")))?;
        return qasm::from_qasm(&text).map_err(|e| failure(format!("{path}: {e}")));
    }
    let name = args
        .family
        .as_deref()
        .ok_or_else(|| failure("need --family or --qasm (try --help)".into()))?;
    generators::generate(name, args.n).map_err(|e| match e {
        GenerateError::UnknownFamily(_) => failure(e.to_string()),
        GenerateError::OutOfDomain { .. } => (ExitCode::from(2), format!("-n: {e}")),
    })
}

/// Exit code 2: usage error.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// The `serve` subcommand: NDJSON job lines on stdin, one response line
/// per job on stdout in **submission order** (so a fixed job stream
/// yields byte-identical output for any worker count or cache state),
/// aggregate pool statistics on stderr.
///
/// Unparseable lines produce an in-band `"kind":"parse-error"` response
/// at their position instead of aborting the stream; job-level failures
/// likewise answer in-band. The process exits 0 as long as the stream
/// itself was served.
fn run_serve(args: &Args) -> ExitCode {
    use atlas::serve::{
        json, parse_line, render_response, render_stats, FaultPlan, JobLine, ServeConfig,
        SessionPool,
    };
    use std::io::BufRead;
    use std::time::Duration;

    // One thread per job by default: serve parallelizes across workers,
    // not inside a job (results are identical either way).
    let threads = if args.threads_set { args.threads } else { 1 };
    let recorder = if args.trace.is_some() {
        Recorder::enabled()
    } else {
        Recorder::default()
    };
    // `SessionPool::new` validates the config.
    let cfg = AtlasConfig {
        threads,
        recorder: recorder.clone(),
        memory_budget: MemoryBudget::bytes(MemoryBudget::SINGLE_HOST),
        ..AtlasConfig::default()
    };
    let spec = MachineSpec {
        nodes: args.nodes,
        gpus_per_node: args.gpus_per_node,
        local_qubits: args.local_qubits,
    };
    let fault_plan = match args.fault_seed {
        Some(seed) => FaultPlan::seeded(seed, args.fault_rate),
        None => FaultPlan::disabled(),
    };
    let serve_cfg = ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        cache_capacity: args.cache,
        fault_plan,
    };
    let pool = match SessionPool::new(spec, CostModel::default(), cfg, serve_cfg) {
        Ok(p) => p,
        Err(e) => return error_exit(&e),
    };
    eprintln!(
        "serve   : {} node(s) x {} GPU(s), L={}; {} worker(s), queue {}, plan cache {}",
        args.nodes, args.gpus_per_node, args.local_qubits, args.workers, args.queue, args.cache
    );
    if let Some(seed) = args.fault_seed {
        eprintln!(
            "serve   : fault injection armed (seed {seed}, rate {} ppm/site)",
            args.fault_rate
        );
    }

    /// A response slot, in submission order.
    enum Pending {
        /// Answered at parse time (malformed line).
        Ready(String),
        /// Waiting on the pool.
        Waiting(String, atlas::serve::JobHandle),
    }
    let mut pending: Vec<Pending> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: stdin: {e}");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Err(e) => pending.push(Pending::Ready(format!(
                r#"{{"id":null,"ok":false,"kind":"parse-error","error":"{}"}}"#,
                json::escape(&e)
            ))),
            // A stats line is a synchronous barrier: stdin is processed
            // serially, so draining the pool here makes the snapshot a
            // pure function of the preceding job lines — deterministic
            // for any --workers.
            Ok(JobLine::Stats { id }) => {
                pool.wait_idle();
                pending.push(Pending::Ready(render_stats(&id, &pool.stats())));
            }
            // Backpressure: block for queue space rather than dropping
            // jobs read from a pipe; a `deadline_ms` bounds both the
            // queue wait and the job itself. Submission failures
            // (admission, deadline expiry while queued) answer in-band
            // at the job's position — one bad job never aborts the
            // stream.
            Ok(JobLine::Job(job)) => {
                let submitted = match job.deadline_ms {
                    Some(ms) => pool.submit_with_deadline(
                        &job.tenant,
                        job.circuit,
                        job.request,
                        Duration::from_millis(ms),
                    ),
                    None => pool.submit_blocking(&job.tenant, job.circuit, job.request),
                };
                match submitted {
                    Ok(handle) => pending.push(Pending::Waiting(job.id, handle)),
                    Err(e) => pending.push(Pending::Ready(render_response(&job.id, &Err(e)))),
                }
            }
        }
    }
    for slot in pending {
        match slot {
            Pending::Ready(line) => println!("{line}"),
            Pending::Waiting(id, handle) => {
                println!("{}", render_response(&id, &handle.wait()));
            }
        }
    }
    let stats = pool.shutdown();
    eprintln!(
        "serve   : {} job(s): {} ok, {} failed, {} cancelled, {} deadline-exceeded, \
         {} panicked, {} rejected; plan cache {}/{} hit(s) ({} evicted, {} resident); \
         peak queue {}",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.jobs_deadline_exceeded,
        stats.jobs_panicked,
        stats.jobs_rejected,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stats.cache_evictions,
        stats.cache_entries,
        stats.max_queued,
    );
    eprintln!(
        "scratch : offset-table memo {} hit(s) / {} miss(es), {} eviction(s)",
        stats.scratch_table_hits, stats.scratch_table_misses, stats.scratch_table_evictions
    );
    finish_with_trace(args, &recorder, "statevec", threads)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = check_flag_conflicts(&args) {
        return usage_error(&e);
    }
    if args.serve {
        return run_serve(&args);
    }
    let circuit = match build_circuit(&args) {
        Ok(c) => c,
        Err((code, e)) => {
            eprintln!("error: {e}");
            return code;
        }
    };
    let n = circuit.num_qubits();
    // Build the config first: like the flag-conflict checks above, an
    // incoherent configuration (seed without shots, zero threads, …) is
    // a usage error that must reject before any banner reaches stdout.
    // Coherence rules live in `AtlasConfig::validate`, not here.
    // The recorder is enabled iff `--trace` asked for it: disabled, every
    // instrumentation site is one branch; enabled, wall-clock rides the
    // trace channel only, so stdout stays byte-identical either way.
    let recorder = if args.trace.is_some() {
        Recorder::enabled()
    } else {
        Recorder::default()
    };
    // The CLI is the single-host entry point: functional requests are
    // admitted against a 2 GiB peak-state budget (which admits exactly
    // the n ≤ 26 circuits the historical heuristic did) and rejected
    // with a typed ResourceExhausted instead of an allocator abort.
    let budget = MemoryBudget::bytes(MemoryBudget::SINGLE_HOST);
    let cfg = AtlasConfig {
        threads: args.threads,
        shots: args.shots,
        seed: args.seed,
        backend: args.backend,
        noise: args.noise,
        trajectories: args.trajectories,
        memory_budget: budget,
        recorder: recorder.clone(),
        ..AtlasConfig::default()
    };
    if let Err(e) = cfg.validate() {
        return error_exit(&e);
    }
    // Validate --expect widths before spending any simulation time.
    let mut paulis: Vec<PauliString> = Vec::new();
    for s in &args.expect {
        match s.parse::<PauliString>() {
            Ok(p) if p.num_qubits() == n => paulis.push(p),
            Ok(p) => {
                return usage_error(&format!(
                    "--expect {s}: Pauli string spans {} qubits, circuit has {n}",
                    p.num_qubits()
                ))
            }
            Err(e) => {
                eprintln!("in --expect {s}:");
                return error_exit(&e);
            }
        }
    }
    // Engine dispatch. The statevector path below stays the default and
    // is byte-identical to previous releases; the tableau path takes
    // over when `--backend stabilizer` forces it, or when auto dispatch
    // meets an all-Clifford circuit too wide for a functional
    // statevector run (where the only legacy option was --dry).
    let clifford = circuit.is_clifford();
    if args.noise > 0.0 {
        // Noise needs a functional engine: a non-Clifford circuit over
        // the memory budget cannot run at all.
        if !clifford && !budget.admits(n, args.local_qubits.min(n)) {
            return error_exit(&AtlasError::ResourceExhausted {
                needed: MemoryBudget::peak_bytes(n, args.local_qubits.min(n)),
                budget: budget.enforced(),
            });
        }
        return run_noisy_path(&args, &circuit, cfg, &paulis);
    }
    let use_stabilizer = args.backend == BackendKind::Stabilizer
        || (args.backend == BackendKind::Auto
            && clifford
            && !budget.admits(n, args.local_qubits.min(n))
            && !args.dry
            && !args.plan_only
            && args.baseline.is_none()
            && args.sweep == 0
            && !args.profile);
    if use_stabilizer {
        return run_stabilizer_path(&args, &circuit, cfg, &paulis);
    }
    let spec = MachineSpec {
        nodes: args.nodes,
        gpus_per_node: args.gpus_per_node,
        local_qubits: args.local_qubits.min(n),
    };
    let cost = CostModel::default();
    // Typed up-front check: the machine banner below (shard counts,
    // offloading) would otherwise assert inside MachineSpec first.
    if n < spec.local_qubits + spec.global_qubits() {
        return error_exit(&AtlasError::CircuitTooSmall {
            qubits: n,
            local: spec.local_qubits,
            global: spec.global_qubits(),
        });
    }
    let dry = args.dry || !budget.admits(n, spec.local_qubits);
    if dry && !args.dry {
        // Measurement flags need a functional run; the budget rejection
        // is typed (exit 10), never an allocator abort.
        if args.shots > 0 || !paulis.is_empty() || args.top_set || args.sweep > 0 {
            return error_exit(&AtlasError::ResourceExhausted {
                needed: MemoryBudget::peak_bytes(n, spec.local_qubits),
                budget: budget.enforced(),
            });
        }
        eprintln!(
            "note: n = {n} exceeds the functional memory budget \
             (max {} qubits at L={}); switching to --dry",
            budget.max_functional_qubits(spec.local_qubits),
            spec.local_qubits
        );
    }

    print_circuit_banner(&circuit, n);
    println!(
        "machine : {} node(s) x {} GPU(s), L={} ({} shard(s)){}",
        spec.nodes,
        spec.gpus_per_node,
        spec.local_qubits,
        spec.num_shards(n),
        if spec.offloading(n) {
            ", DRAM offloading"
        } else {
            ""
        }
    );

    // The Atlas path below never gathers the state: `--top`, `--shots`
    // and `--expect` all read through the sharded measurement engine,
    // which EXECUTE leaves in the logical layout without charging the
    // move.
    if let Some(b) = args.baseline.as_deref() {
        let r = match b {
            "hyquas" => baselines::hyquas(&circuit, spec, cost, dry),
            "cuquantum" => baselines::cuquantum(&circuit, spec, cost, dry),
            "qiskit" => baselines::qiskit(&circuit, spec, cost, dry),
            "qdao" => baselines::qdao_run(&circuit, spec, cost, spec.local_qubits, 19),
            other => {
                eprintln!("error: unknown baseline '{other}'");
                return ExitCode::FAILURE;
            }
        };
        let o = match r {
            Ok(o) => o,
            Err(e) => return error_exit(&e),
        };
        print_report(&o.report);
        if args.profile {
            print_profile(&o.report, b);
        }
        // Baselines gather a dense state; `--top` stays available.
        if let Some(state) = o.state {
            println!("top outcomes:");
            for (idx, p) in state.top_probabilities(args.top) {
                println!("  |{idx:0width$b}>  p = {p:.6}", width = n as usize);
            }
        }
        return ExitCode::SUCCESS;
    }

    // The Atlas path: one Planner, one CompiledPlan — executed zero
    // (--plan), one (default), or N (--sweep) times.
    let planner = Planner::new(spec, cost, cfg);
    let t_plan = Instant::now();
    let compiled = match planner.plan(&circuit) {
        Ok(c) => c,
        Err(e) => return error_exit(&e),
    };
    let plan_secs = t_plan.elapsed().as_secs_f64();
    // Static plan verification (atlas-analyze): always in debug builds,
    // on demand (--analyze) in release builds. A plan the verifier
    // rejects never reaches execution.
    if cfg!(debug_assertions) || args.analyze {
        match atlas::analyze::verify_plan(&circuit, compiled.plan(), compiled.cost()) {
            Ok(report) => {
                if args.analyze {
                    eprintln!("analyze : ok — {report}");
                }
            }
            Err(violation) => return error_exit(&violation.into()),
        }
    }
    let plan = compiled.plan();

    if args.plan_only {
        println!(
            "plan    : {} stage(s), staging cost {}, kernel cost {:.4} ns/amp",
            plan.stages.len(),
            plan.staging_cost,
            plan.kernel_cost
        );
        for (k, sp) in plan.stages.iter().enumerate() {
            println!(
                "  stage {k}: {} gates, {} kernels, local={:?}",
                sp.stage.gates.len(),
                sp.kernels.len(),
                sp.stage.partition.local
            );
        }
        return finish_with_trace(&args, &recorder, "statevec", args.threads);
    }

    println!(
        "plan    : {} stage(s), staging cost {}",
        plan.stages.len(),
        plan.staging_cost
    );

    if dry {
        let report = compiled.dry_run();
        print_report(&report);
        if args.profile {
            print_profile(&report, "statevec");
        }
        return finish_with_trace(&args, &recorder, "statevec", args.threads);
    }

    if args.sweep > 0 {
        // Plan-once/run-many: the CompiledPlan above is reused for every
        // point; only gate parameters change. Wall-clock timings go to
        // stderr so stdout stays byte-deterministic.
        eprintln!(
            "sweep   : planned once in {plan_secs:.3} s; executing {} point(s)",
            args.sweep
        );
        for i in 0..args.sweep {
            let point = circuit.map_params(|_, _, p| p + 0.1 * i as f64);
            let t_exec = Instant::now();
            let run = match compiled.execute(&point) {
                Ok(r) => r,
                Err(e) => return error_exit(&e),
            };
            eprintln!(
                "point {i} : execute {:.3} s",
                t_exec.elapsed().as_secs_f64()
            );
            if args.profile {
                print_profile(&run.report, "statevec");
            }
            println!("point {i} :");
            print_measurements(&run.measurements, run.samples, &args, &paulis, n);
        }
        return finish_with_trace(&args, &recorder, "statevec", args.threads);
    }

    let run = match compiled.execute(&circuit) {
        Ok(r) => r,
        Err(e) => return error_exit(&e),
    };
    print_report(&run.report);
    if args.profile {
        print_profile(&run.report, "statevec");
    }
    print_measurements(&run.measurements, run.samples, &args, &paulis, n);
    finish_with_trace(&args, &recorder, "statevec", args.threads)
}

/// The stabilizer (CHP tableau) functional path: no machine shape, no
/// staging — `plan_backend` fingerprints the circuit and `run` replays
/// it on the tableau in polynomial time. Reached when `--backend
/// stabilizer` forces it or when auto dispatch meets an all-Clifford
/// circuit beyond the statevector functional limit.
fn run_stabilizer_path(
    args: &Args,
    circuit: &Circuit,
    cfg: AtlasConfig,
    paulis: &[PauliString],
) -> ExitCode {
    let recorder = cfg.recorder.clone();
    let n = circuit.num_qubits();
    if args.top_set && n > 30 {
        return usage_error(&format!(
            "--top enumerates amplitudes through the tableau->statevector \
             conversion (n <= 30); n = {n} supports --shots/--expect only"
        ));
    }
    // The tableau needs no machine, but the Planner does: a minimal
    // single-GPU spec keeps MachineSpec invariants satisfied at any n.
    let planner = Planner::new(
        MachineSpec::single_gpu(n.min(26)),
        CostModel::default(),
        cfg,
    );
    let plan = match planner.plan_backend(circuit) {
        Ok(p) => p,
        Err(e) => return error_exit(&e),
    };
    print_circuit_banner(circuit, n);
    println!(
        "backend : stabilizer (CHP tableau, {} word(s)/row; no machine shape)",
        (n as usize).div_ceil(64)
    );
    let t_run = Instant::now();
    let run = match plan.run(circuit) {
        Ok(r) => r,
        Err(e) => return error_exit(&e),
    };
    eprintln!(
        "tableau : replayed {} gate(s) in {:.3} s",
        circuit.num_gates(),
        t_run.elapsed().as_secs_f64()
    );
    for p in paulis {
        println!("expect  : <{p}> = {:.9}", run.expectation(p));
    }
    if let Some(samples) = run.samples_words() {
        let shots = samples.len();
        println!("shots   : {shots} (seed {})", args.seed);
        print_word_counts(&count_word_samples(samples), shots, n);
    }
    // Same default-readout rule as the statevector path: top outcomes
    // unless shots/expectations were explicitly requested.
    if args.top_set || (args.shots == 0 && paulis.is_empty()) {
        let BackendRun::Stabilizer(ref srun) = run else {
            unreachable!("stabilizer path produced a statevector run");
        };
        if n <= 30 {
            let state = match srun.tableau.to_statevector() {
                Ok(s) => s,
                Err(e) => return error_exit(&e),
            };
            println!("top outcomes:");
            for (idx, p) in state.top_probabilities(args.top) {
                println!("  |{idx:0width$b}>  p = {p:.6}", width = n as usize);
            }
        } else {
            // Too wide to enumerate amplitudes: report the support size
            // (2^k for k X-pivots in the canonical stabilizer set).
            let pivots = srun
                .tableau
                .canonical_stabilizers()
                .iter()
                .filter(|(x, _, _)| x.iter().any(|&w| w != 0))
                .count();
            println!("support : 2^{pivots} basis state(s) with nonzero amplitude");
        }
    }
    finish_with_trace(args, &recorder, "stabilizer", args.threads)
}

/// The Pauli-twirled stochastic-trajectory path (`--noise p`): one
/// noisy template, ONE compiled plan on whichever engine dispatch
/// picks, `--trajectories` re-parameterizations of the noise slots.
/// Output is deterministic for a fixed `--seed` on any `--threads`.
fn run_noisy_path(
    args: &Args,
    circuit: &Circuit,
    cfg: AtlasConfig,
    paulis: &[PauliString],
) -> ExitCode {
    let recorder = cfg.recorder.clone();
    let n = circuit.num_qubits();
    let spec = MachineSpec {
        nodes: args.nodes,
        gpus_per_node: args.gpus_per_node,
        local_qubits: args.local_qubits.min(n),
    };
    let template = noise::noisy_template(circuit);
    let planner = Planner::new(spec, CostModel::default(), cfg);
    let t_plan = Instant::now();
    let plan = match planner.plan_backend(&template) {
        Ok(p) => p,
        Err(e) => return error_exit(&e),
    };
    let cfg = plan.config();
    print_circuit_banner(circuit, n);
    println!(
        "backend : {} (noise p = {}, {} trajectorie(s), seed {})",
        plan.backend_name(),
        cfg.noise,
        cfg.trajectories,
        cfg.seed
    );
    eprintln!(
        "noise   : planned the template once in {:.3} s ({} noise slot(s))",
        t_plan.elapsed().as_secs_f64(),
        template.num_gates() - circuit.num_gates()
    );
    if !paulis.is_empty() {
        // Channel expectations: the mean over trajectories converges to
        // the depolarizing channel's output expectation.
        let k = cfg.trajectories.max(1);
        let mut sums = vec![0.0; paulis.len()];
        for t in 0..k {
            let point = noise::trajectory(&template, cfg.noise, cfg.seed, t as u64);
            let run = match plan.run(&point) {
                Ok(r) => r,
                Err(e) => return error_exit(&e),
            };
            for (s, p) in sums.iter_mut().zip(paulis) {
                *s += run.expectation(p);
            }
        }
        for (s, p) in sums.iter().zip(paulis) {
            println!(
                "expect  : <{p}> = {:.9} (mean over {k} trajectorie(s))",
                s / k as f64
            );
        }
    }
    if args.shots > 0 {
        let out = match noise::run_noisy(&plan, &template, args.shots) {
            Ok(o) => o,
            Err(e) => return error_exit(&e),
        };
        println!(
            "shots   : {} over {} trajectorie(s) (seed {})",
            out.shots, out.trajectories, args.seed
        );
        let mut counts = out.counts;
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        print_word_counts(&counts, out.shots, n);
    }
    let backend = plan.backend_name();
    finish_with_trace(args, &recorder, backend, args.threads)
}

fn print_circuit_banner(circuit: &Circuit, n: u32) {
    println!(
        "circuit {} : {} qubits, {} gates, depth {}",
        if circuit.name().is_empty() {
            "<qasm>"
        } else {
            circuit.name()
        },
        n,
        circuit.num_gates(),
        circuit.depth()
    );
}

/// Renders a bit-packed outcome (bit `q % 64` of word `q / 64` is qubit
/// `q`) as an `n`-bit binary string, highest qubit leftmost — matching
/// the single-word `|{bits:0n$b}>` format at any width.
fn format_bits(words: &[u64], n: u32) -> String {
    (0..n)
        .rev()
        .map(|q| {
            if words[q as usize / 64] >> (q % 64) & 1 == 1 {
                '1'
            } else {
                '0'
            }
        })
        .collect()
}

/// Counts multi-word samples in `count_samples` order: descending
/// count, ties ascending.
fn count_word_samples(samples: Vec<Vec<u64>>) -> Vec<(Vec<u64>, u64)> {
    let mut map: std::collections::BTreeMap<Vec<u64>, u64> = std::collections::BTreeMap::new();
    for s in samples {
        *map.entry(s).or_insert(0) += 1;
    }
    let mut counts: Vec<_> = map.into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}

/// The one shot-table printer: word-packed counts, capped at 32 lines
/// with a summary of the rest.
fn print_word_counts(counts: &[(Vec<u64>, u64)], shots: usize, n: u32) {
    const MAX_LINES: usize = 32;
    for (bits, count) in counts.iter().take(MAX_LINES) {
        println!(
            "  |{}>  x {count}  (p^ = {:.6})",
            format_bits(bits, n),
            *count as f64 / shots as f64
        );
    }
    if counts.len() > MAX_LINES {
        let rest: u64 = counts[MAX_LINES..].iter().map(|&(_, c)| c).sum();
        println!(
            "  ... {} more outcomes ({} shots)",
            counts.len() - MAX_LINES,
            rest
        );
    }
}

fn print_report(report: &atlas::machine::MachineReport) {
    println!(
        "model   : total {:.6} s  (compute {:.6}, comm {:.6}, swap {:.6}; {} kernels)",
        report.total_secs, report.compute_secs, report.comm_secs, report.swap_secs, report.kernels
    );
}

/// Host CPU count (the `--threads`/`--workers` default).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `--trace FILE`: drains the recorder and writes the trace (no-op
/// without the flag). The same `StageTiming` charge sites feed both this
/// trace's `machine.step` counters and `--profile`'s per-step lines, so
/// the two views can never disagree.
fn write_trace(
    args: &Args,
    recorder: &Recorder,
    backend: &str,
    threads: usize,
) -> Result<(), String> {
    let Some(path) = args.trace.as_deref() else {
        return Ok(());
    };
    let meta = TraceMeta {
        source: if args.serve {
            "atlas-serve"
        } else {
            "atlas-sim"
        }
        .to_string(),
        backend: backend.to_string(),
        host_cpus: host_cpus(),
        threads,
    };
    let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    atlas::telemetry::export(recorder, &mut w, args.trace_format, &meta)
        .map_err(|e| format!("--trace {path}: {e}"))?;
    eprintln!(
        "trace   : wrote {} trace to {path} ({} event(s) dropped)",
        args.trace_format.name(),
        recorder.dropped()
    );
    Ok(())
}

/// [`write_trace`] at a success exit: any I/O failure downgrades the
/// run to a generic runtime failure.
fn finish_with_trace(args: &Args, recorder: &Recorder, backend: &str, threads: usize) -> ExitCode {
    match write_trace(args, recorder, backend, threads) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--profile`: a schema header, then one JSON object per
/// bulk-synchronous step on stderr, in execution order — compute steps
/// alternate with all-to-all transitions. Stderr keeps stdout
/// byte-deterministic for diffing across thread counts; JSON lines make
/// the breakdown machine-consumable (`jq -s`). The per-step values are
/// the same `StageTiming`s the telemetry layer's `machine.step` counters
/// carry — one charge site feeds both.
fn print_profile(report: &atlas::machine::MachineReport, backend: &str) {
    eprintln!(
        "{{\"schema\":\"atlas-stage-timing/2\",\"backend\":\"{backend}\",\
         \"host_cpus\":{},\"steps\":{}}}",
        host_cpus(),
        report.per_step.len()
    );
    for (i, st) in report.per_step.iter().enumerate() {
        eprintln!(
            "{{\"stage\":{i},\"compute_secs\":{:.9},\"comm_secs\":{:.9},\"swap_secs\":{:.9},\
             \"bytes_intra\":{},\"bytes_inter\":{}}}",
            st.compute, st.comm, st.swap, st.bytes_intra, st.bytes_inter
        );
    }
}

/// Functional-run output through the sharded measurement engine.
/// `samples` are the shots the run already drew from
/// `cfg.shots`/`cfg.seed`.
fn print_measurements(
    m: &Measurements,
    samples: Option<Vec<u64>>,
    args: &Args,
    paulis: &[PauliString],
    n: u32,
) {
    let width = n as usize;
    for p in paulis {
        println!("expect  : <{p}> = {:.9}", m.expectation(p));
    }
    if let Some(samples) = samples {
        println!("shots   : {} (seed {})", samples.len(), args.seed);
        let words = samples.into_iter().map(|bits| vec![bits]).collect();
        print_word_counts(&count_word_samples(words), args.shots, n);
    }
    // Top outcomes stay the default readout; once the user asked for
    // shots or expectations they appear only on explicit request.
    if args.top_set || (args.shots == 0 && paulis.is_empty()) {
        println!("top outcomes:");
        for (idx, p) in m.top(args.top) {
            println!("  |{idx:0width$b}>  p = {p:.6}");
        }
    }
}
