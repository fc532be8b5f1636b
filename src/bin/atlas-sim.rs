//! `atlas-sim` — command-line front end for the simulator.
//!
//! Simulate a benchmark family or a QASM file on a configurable simulated
//! cluster, functionally (exact amplitudes) or as a dry-run clock model at
//! paper scale; `atlas-sim serve` runs the multi-tenant session pool over
//! NDJSON (`docs/SERVE.md`). Functional runs read top outcomes, seeded
//! shots and Pauli expectations through the sharded measurement engine
//! (`atlas-sampler`): the full `2^n` vector is never gathered.
//!
//! The flags are data: [`FLAGS`] says which take a value, [`CONFLICTS`]
//! and [`REQUIRES`] which combinations are rejected, and [`resolve_mode`]
//! picks the one [`Mode`] a run executes. [`USAGE`] documents them and the
//! exit codes, which map [`AtlasError`] variants to failure families.

use atlas::baselines;
use atlas::circuit::generators::{self, GenerateError};
use atlas::circuit::qasm;
use atlas::core::noise::{self, Trajectories};
use atlas::core::session::{Execution, Planner};
use atlas::machine::MachineReport;
use atlas::prelude::*;
use std::fmt::Display;
use std::io::{self, BufRead, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

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

--qasm contradicts --family and -n. --dry and --plan contradict
--top/--shots/--seed/--expect; --plan also contradicts --baseline
and --profile. --baseline contradicts
--shots/--seed/--expect/--backend/--trace. --sweep contradicts
--dry/--plan/--baseline. --backend stabilizer and --noise contradict
the clock-model flags (--dry/--plan/--sweep/--profile). --trace-format
needs --trace. serve contradicts every circuit, mode and measurement
flag (but keeps --trace). Such combinations are rejected with exit
code 2.

EXIT CODES:
    0 success                 4 staging failed    8 pool overloaded
    1 runtime failure         5 (retired)         9 job panicked
    2 usage / invalid config  6 invalid plan     10 resource budget
    3 circuit too small       7 parse error         exceeded
";

/// Every flag `atlas-sim` accepts, and whether it takes a value. `serve`
/// is the subcommand word; like the flags, it may appear anywhere.
#[rustfmt::skip]
const FLAGS: &[(&str, bool)] = &[
    ("serve", false), ("--family", true), ("-n", true), ("--qasm", true),
    ("--backend", true), ("--noise", true), ("--trajectories", true),
    ("--nodes", true), ("--gpus", true), ("-L", true),
    ("--dry", false), ("--plan", false), ("--baseline", true), ("--threads", true),
    ("--sweep", true), ("--analyze", false), ("--profile", false),
    ("--trace", true), ("--trace-format", true),
    ("--top", true), ("--shots", true), ("--seed", true), ("--expect", true),
    ("--workers", true), ("--queue", true), ("--cache", true),
    ("--fault-seed", true), ("--fault-rate", true),
];

/// Flags that contradict each other: `(flag, why, the flags it
/// contradicts)`, read through [`Args::on`]. The first row that meets its
/// flag and any flag it contradicts rejects the run with exit code 2,
/// naming both sides.
#[rustfmt::skip]
const CONFLICTS: &[(&str, &str, &[&str])] = &[
    ("serve", "reads its circuits from NDJSON job lines", &["--family", "--qasm", "-n"]),
    ("serve", "answers each job line with its own run",
        &["--dry", "--plan", "--baseline", "--sweep", "--profile"]),
    ("serve", "jobs carry their own measurement requests", MEASUREMENTS),
    ("serve", "jobs run on the pool's own plans", &["--backend", "--noise", "--trajectories"]),
    ("--qasm", "reads its circuit, and its width, from the file", &["--family", "-n"]),
    ("--dry", "runs the clock model only (no amplitudes)", MEASUREMENTS),
    ("--plan", "stops before execution",
        &["--top", "--shots", "--seed", "--expect", "--sweep", "--profile", "--baseline"]),
    ("--baseline", "comparators have no sharded measurement engine",
        &["--shots", "--seed", "--expect"]),
    ("--baseline", "comparators bypass the instrumented Atlas path", &["--trace"]),
    ("--baseline", "comparators bypass the backend dispatch", &["--backend"]),
    ("--baseline", "comparators have no plan-once/run-many path", &["--sweep"]),
    ("--sweep", "re-executes amplitudes", &["--dry"]),
    ("--backend stabilizer", "runs functionally on the tableau",
        &["--dry", "--plan", "--sweep", "--profile"]),
    ("--noise", "draws stochastic trajectories",
        &["--dry", "--plan", "--baseline", "--sweep", "--profile"]),
    ("--noise", "reports aggregated shot counts, not exact amplitudes", &["--top"]),
];

const MEASUREMENTS: &[&str] = &["--top", "--shots", "--seed", "--expect"];

/// Flags that need another: `(flag, the flags it needs one of, the
/// message)`, checked in order after [`CONFLICTS`].
#[rustfmt::skip]
const REQUIRES: &[(&str, &[&str], &str)] = &[
    ("--workers", &["serve"], "--workers/--queue/--cache apply to the serve subcommand only"),
    ("--queue", &["serve"], "--workers/--queue/--cache apply to the serve subcommand only"),
    ("--cache", &["serve"], "--workers/--queue/--cache apply to the serve subcommand only"),
    ("--fault-seed", &["serve"], "--fault-seed/--fault-rate apply to the serve subcommand only"),
    ("--fault-rate", &["serve"], "--fault-seed/--fault-rate apply to the serve subcommand only"),
    ("--trace-format", &["--trace"],
        "--trace-format selects the --trace file format; it needs --trace"),
    ("serve", &["-L"], "serve needs an explicit -L (each job line carries its own circuit, \
        so there is no -n to default from)"),
    ("--fault-rate", &["--fault-seed"],
        "--fault-rate tunes the fault-injection harness; it needs --fault-seed"),
    ("--noise", &["--shots", "--expect"],
        "--noise has nothing to report without --shots or --expect"),
    ("--trajectories", &["--noise"], "--trajectories applies to --noise runs only"),
    ("--seed", &["--shots", "--noise"], "--seed only affects shot sampling and \
        noise-trajectory draws; it needs --shots or --noise"),
];

/// A failed run: its exit code and the message printed after `error: `.
struct Fail(ExitCode, String);

/// What a mode returns: the backend it ran on (for the trace).
type Ran = Result<&'static str, Fail>;

/// Shot counts per bit-packed outcome.
type Counts = Vec<(Vec<u64>, u64)>;

/// Exit code 2: usage error.
fn usage(msg: impl Into<String>) -> Fail {
    Fail(ExitCode::from(2), msg.into())
}

/// Exit code 1: runtime failure.
fn failure(msg: String) -> Fail {
    Fail(ExitCode::FAILURE, msg)
}

/// The documented exit codes: distinct failure families get distinct
/// codes so scripts (and the CI smoke step) can dispatch without parsing
/// stderr.
impl From<AtlasError> for Fail {
    fn from(e: AtlasError) -> Fail {
        use atlas::core::AtlasError::*;
        let code = match e {
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
        };
        Fail(ExitCode::from(code), e.to_string())
    }
}

/// A stdout write that fails (`atlas-sim … | head -1`) ends the run with
/// exit code 1 instead of a panic.
impl From<io::Error> for Fail {
    fn from(e: io::Error) -> Fail {
        failure(format!("stdout: {e}"))
    }
}

/// The command line: the flags present, in order, with their raw values.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    /// `Ok(None)` when `-h`/`--help` asks for the usage text.
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<Flags>, Fail> {
        let mut argv = argv.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            if arg == "-h" || arg == "--help" {
                return Ok(None);
            }
            let Some(&(flag, takes_value)) = FLAGS.iter().find(|(f, _)| *f == arg) else {
                return Err(usage(format!("unknown argument '{arg}' (try --help)")));
            };
            let missing = || usage(format!("missing value after {flag}"));
            let value = takes_value.then(|| argv.next().ok_or_else(missing));
            given.push((flag, value.transpose()?));
        }
        Ok(Some(Flags(given)))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given to `flag`, in command-line order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        let given = self.0.iter().filter(move |(f, _)| *f == flag);
        given.filter_map(|(_, v)| v.as_deref())
    }

    fn last<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.values(flag).last()
    }

    /// The last value given to `flag`, parsed (`None` when absent).
    fn get<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, Fail> {
        let parse = |v: &str| v.parse().map_err(|e| usage(format!("{flag}: {e}")));
        self.last(flag).map(parse).transpose()
    }
}

/// The flags' typed values, parsed once before anything runs.
struct Args {
    flags: Flags,
    n: u32,
    nodes: usize,
    gpus: usize,
    /// `-L`; without it, the circuit's size (see [`Job::new`]).
    local: Option<u32>,
    top: usize,
    sweep: usize,
    shots: usize,
    seed: u64,
    /// `--noise` with `--trajectories` and `--seed`, validated whenever
    /// `--noise` is given.
    noise: Option<Trajectories>,
    trace_format: TraceFormat,
    /// Threads and backend, with the memory budget and the recorder.
    cfg: AtlasConfig,
}

impl Args {
    fn new(flags: Flags) -> Result<Args, Fail> {
        let f = &flags;
        // Serve parallelizes across workers, not inside a job: one
        // thread per job unless `--threads` says otherwise.
        let threads = if f.has("serve") { 1 } else { host_cpus() };
        let (seed, trajectories) = (f.get("--seed")?.unwrap_or(0), f.get("--trajectories")?);
        let noise = f
            .get("--noise")?
            .map(|p| Trajectories::new(p, trajectories.unwrap_or(8), seed));
        let cfg = AtlasConfig {
            threads: f.get("--threads")?.unwrap_or(threads),
            backend: f.get("--backend")?.unwrap_or(BackendKind::Auto),
            // The single-host budget: 2 GiB of peak state (the n ≤ 26
            // circuits the historical heuristic admitted); beyond it, a typed
            // ResourceExhausted instead of an allocator abort.
            memory_budget: MemoryBudget::bytes(MemoryBudget::SINGLE_HOST),
            // Enabled iff `--trace` asks for it: disabled, every
            // instrumentation site is one branch; enabled, wall-clock rides
            // the trace channel only, so stdout stays byte-identical.
            recorder: f.has("--trace").then(Recorder::enabled).unwrap_or_default(),
            ..AtlasConfig::default()
        };
        Ok(Args {
            n: f.get("-n")?.unwrap_or(10),
            nodes: f.get("--nodes")?.unwrap_or(1),
            gpus: f.get("--gpus")?.unwrap_or(1),
            local: f.get("-L")?,
            top: f.get("--top")?.unwrap_or(8),
            sweep: f.get("--sweep")?.unwrap_or(0),
            shots: f.get("--shots")?.unwrap_or(0),
            seed,
            noise: noise.transpose()?,
            trace_format: f.get("--trace-format")?.unwrap_or_default(),
            cfg,
            flags,
        })
    }

    /// Whether `flag` is in effect: given, and for `--shots`, `--sweep`
    /// and `--noise` not at its zero "off" value. `--backend stabilizer`
    /// is on when that backend is chosen.
    fn on(&self, flag: &str) -> bool {
        match flag {
            "--shots" => self.shots > 0,
            "--sweep" => self.sweep > 0,
            "--noise" => self.noise.is_some_and(|t| t.p() > 0.0),
            "--backend stabilizer" => self.cfg.backend == BackendKind::Stabilizer,
            _ => self.flags.has(flag),
        }
    }

    /// Top outcomes are the default readout; once the user asked for
    /// shots or expectations they appear only on explicit request.
    fn wants_top(&self) -> bool {
        self.on("--top") || !(self.on("--shots") || self.on("--expect"))
    }
}

/// Rejects a flag the chosen mode would ignore: the machine shape, then
/// every [`CONFLICTS`] and [`REQUIRES`] row.
fn check_flags(args: &Args) -> Result<(), Fail> {
    // Shard indices split into node and GPU bits (`Planner::plan` rejects
    // any other shape too; checking here keeps it from reaching serve's
    // pool or a dry run's banner).
    for (flag, count) in [("--nodes", args.nodes), ("--gpus", args.gpus)] {
        if !count.is_power_of_two() {
            return Err(usage(format!("{flag} {count} is not a power of two")));
        }
    }
    let on = |flag| args.on(flag);
    for &(flag, why, against) in CONFLICTS {
        let met: Vec<&str> = against.iter().copied().filter(|f| on(f)).collect();
        if on(flag) && !met.is_empty() {
            let met = met.join("/");
            return Err(usage(format!("{flag} {why}; it contradicts {met}")));
        }
    }
    for &(flag, needs, msg) in REQUIRES {
        if on(flag) && !needs.iter().any(|f| on(f)) {
            return Err(usage(msg));
        }
    }
    Ok(())
}

/// A circuit to run, with the machine and Pauli strings it runs under.
struct Job {
    circuit: Circuit,
    n: u32,
    spec: MachineSpec,
    paulis: Vec<PauliString>,
}

impl Job {
    /// Builds the circuit, then checks the config and the `--expect`
    /// strings against it before any banner reaches stdout. A bad
    /// generator size is a usage error; an unreadable or malformed QASM
    /// file, or an unknown family, a runtime failure.
    fn new(args: &Args) -> Result<Job, Fail> {
        let circuit = if let Some(path) = args.flags.last("--qasm") {
            let failed = |e: &dyn Display| failure(format!("{path}: {e}"));
            let text = std::fs::read_to_string(path).map_err(|e| failed(&e))?;
            qasm::from_qasm(&text).map_err(|e| failed(&e))?
        } else {
            let needed = || failure("need --family or --qasm (try --help)".into());
            let name = args.flags.last("--family").ok_or_else(needed)?;
            generators::generate(name, args.n).map_err(|e| match e {
                GenerateError::UnknownFamily(_) => failure(e.to_string()),
                GenerateError::OutOfDomain { .. } => usage(format!("-n: {e}")),
            })?
        };
        let n = circuit.num_qubits();
        // Coherence rules live in `AtlasConfig::validate`, not here.
        args.cfg.validate()?;
        let mut paulis = Vec::new();
        for s in args.flags.values("--expect") {
            let p: PauliString = s.parse().inspect_err(|_| eprintln!("in --expect {s}:"))?;
            let width = p.num_qubits();
            if width != n {
                let msg = format!("Pauli string spans {width} qubits, circuit has {n}");
                return Err(usage(format!("--expect {s}: {msg}")));
            }
            paulis.push(p);
        }
        // `-L` defaults to the circuit's size: `-n` for a family (hhl adds
        // ancillas beyond it), the file's width for `--qasm`.
        let size = if args.on("--qasm") { n } else { args.n };
        let spec = MachineSpec {
            nodes: args.nodes,
            gpus_per_node: args.gpus,
            local_qubits: args.local.unwrap_or(size).min(n),
        };
        Ok(Job {
            circuit,
            n,
            spec,
            paulis,
        })
    }
}

/// What one invocation does.
enum Mode {
    Serve,
    Plan,
    Dry,
    Baseline { dry: bool },
    Sweep,
    Noisy,
    Stabilizer,
    Run,
}

/// Picks the one mode an invocation runs (`job` is `None` exactly for
/// serve). In order: `--noise`; the stabilizer tableau, forced or
/// automatic for an all-Clifford circuit beyond the functional memory
/// budget; then `--baseline`, `--plan`, `--dry` (also switched on
/// automatically over the budget), `--sweep` and a plain run.
///
/// A functional mode that draws `--shots` holds them all at once, beside
/// what outlives EXECUTE (`AtlasConfig::admit_draw`): over the budget,
/// that is a typed rejection (exit 10) before anything runs.
fn resolve_mode(args: &Args, job: Option<&Job>) -> Result<Mode, Fail> {
    let Some(job) = job else {
        return Ok(Mode::Serve);
    };
    let (n, local) = (job.n, job.spec.local_qubits);
    let admission = args.cfg.admit(n, local);
    let over_budget = admission.is_err();
    let exhausted = || -> Fail { admission.clone().expect_err("over budget").into() };
    let admit_draw = |on_tableau| args.cfg.admit_draw(n, local, args.shots, on_tableau);
    let clifford = job.circuit.is_clifford();
    // Noise needs a functional engine: a non-Clifford circuit over the
    // memory budget cannot run at all.
    if args.on("--noise") && !clifford && over_budget {
        return Err(exhausted());
    } else if args.on("--noise") {
        admit_draw(args.cfg.backend.runs_on_tableau(clifford))?;
        return Ok(Mode::Noisy);
    }
    // Auto dispatch leaves the statevector path only where it would have
    // forced --dry.
    let clock_flags = ["--dry", "--plan", "--baseline", "--sweep", "--profile"];
    let auto_tableau = args.cfg.backend == BackendKind::Auto
        && clifford
        && over_budget
        && !clock_flags.iter().any(|f| args.on(f));
    if args.on("--backend stabilizer") || auto_tableau {
        admit_draw(true)?;
        return Ok(Mode::Stabilizer);
    }
    // Typed up-front check: the machine banner (shard counts,
    // offloading) would otherwise assert inside MachineSpec first.
    let global = job.spec.global_qubits();
    if n < local + global {
        let qubits = n;
        return Err(AtlasError::CircuitTooSmall {
            qubits,
            local,
            global,
        }
        .into());
    }
    if over_budget && !args.on("--dry") {
        // Measurement flags need a functional run; the budget rejection
        // is typed (exit 10), never an allocator abort.
        let functional = ["--shots", "--expect", "--top", "--sweep"];
        if functional.iter().any(|f| args.on(f)) {
            return Err(exhausted());
        }
        let max = args.cfg.max_functional_qubits(local);
        eprintln!(
            "note: n = {n} exceeds the functional memory budget \
             (max {max} qubits at L={local}); switching to --dry"
        );
    }
    let dry = over_budget || args.on("--dry");
    Ok(if args.on("--baseline") {
        Mode::Baseline { dry }
    } else if args.on("--plan") {
        Mode::Plan
    } else if dry {
        Mode::Dry
    } else {
        admit_draw(false)?;
        if args.on("--sweep") {
            Mode::Sweep
        } else {
            Mode::Run
        }
    })
}

fn main() -> ExitCode {
    match run(&mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail(code, msg)) => {
            eprintln!("error: {msg}");
            code
        }
    }
}

/// Parses the flags, rejects contradictions, runs the one mode they ask
/// for and, on success, writes the `--trace` file.
fn run(out: &mut dyn Write) -> Result<(), Fail> {
    let Some(flags) = Flags::parse(std::env::args().skip(1))? else {
        return Ok(out.write_all(USAGE.as_bytes())?);
    };
    let args = Args::new(flags)?;
    check_flags(&args)?;
    let job = (!args.on("serve")).then(|| Job::new(&args)).transpose()?;
    let backend = match (resolve_mode(&args, job.as_ref())?, job) {
        (Mode::Serve, _) | (_, None) => run_serve(&args, out)?,
        (Mode::Noisy, Some(job)) => run_noisy(&args, job, out)?,
        (Mode::Stabilizer, Some(job)) => run_stabilizer(&args, job, out)?,
        (Mode::Baseline { dry }, Some(job)) => run_baseline(&args, job, dry, out)?,
        (mode, Some(job)) => run_atlas(&args, job, mode, out)?,
    };
    write_trace(&args, backend)
}

/// The `serve` subcommand: NDJSON job lines on stdin, one response line
/// per job on stdout in **submission order** (byte-identical for any
/// worker count or cache state), pool statistics on stderr. Malformed
/// lines and failed jobs answer in-band at their position; the process
/// exits 0 as long as the stream itself was served.
fn run_serve(args: &Args, out: &mut dyn Write) -> Ran {
    use atlas::serve::{json, parse_line, render_response, render_stats, JobLine};
    use atlas::serve::{FaultPlan, ServeConfig, SessionPool};

    let f = &args.flags;
    let workers = f.get("--workers")?.unwrap_or_else(host_cpus);
    let queue = f.get("--queue")?.unwrap_or(64);
    let cache = f.get("--cache")?.unwrap_or(32);
    let fault_seed = f.get("--fault-seed")?;
    let fault_rate = f.get("--fault-rate")?.unwrap_or(250_000);
    // `SessionPool::new` validates the config.
    let cfg = AtlasConfig {
        threads: args.cfg.threads,
        recorder: args.cfg.recorder.clone(),
        memory_budget: args.cfg.memory_budget,
        ..AtlasConfig::default()
    };
    let (nodes, gpus_per_node) = (args.nodes, args.gpus);
    let local_qubits = args.local.unwrap_or_default();
    let spec = MachineSpec {
        nodes,
        gpus_per_node,
        local_qubits,
    };
    let serve_cfg = ServeConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: cache,
        fault_plan: fault_seed
            .map_or_else(FaultPlan::disabled, |s| FaultPlan::seeded(s, fault_rate)),
    };
    let pool = SessionPool::new(spec, CostModel::default(), cfg, serve_cfg)?;
    eprintln!(
        "serve   : {nodes} node(s) x {gpus_per_node} GPU(s), L={local_qubits}; \
         {workers} worker(s), queue {queue}, plan cache {cache}"
    );
    if let Some(seed) = fault_seed {
        eprintln!("serve   : fault injection armed (seed {seed}, rate {fault_rate} ppm/site)");
    }
    // One response slot per line, in submission order: `Ok` when answered
    // at parse time, `Err` while a job waits on the pool.
    let mut slots = Vec::new();
    for line in io::stdin().lock().lines() {
        let line = line.map_err(|e| failure(format!("stdin: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        slots.push(match parse_line(&line) {
            Err(e) => Ok(format!(
                r#"{{"id":null,"ok":false,"kind":"parse-error","error":"{}"}}"#,
                json::escape(&e)
            )),
            // A stats line is a synchronous barrier: draining the pool makes
            // the snapshot a pure function of the preceding job lines.
            Ok(JobLine::Stats { id }) => {
                pool.wait_idle();
                Ok(render_stats(&id, &pool.stats()))
            }
            // Backpressure: block for queue space rather than dropping
            // jobs read from a pipe; a `deadline_ms` bounds both the queue
            // wait and the job. A failed submission answers in-band.
            Ok(JobLine::Job(job)) => {
                let (tenant, circuit, request) = (&job.tenant, job.circuit, job.request);
                let submitted = match job.deadline_ms.map(Duration::from_millis) {
                    Some(d) => pool.submit_with_deadline(tenant, circuit, request, d),
                    None => pool.submit_blocking(tenant, circuit, request),
                };
                match submitted {
                    Ok(handle) => Err((job.id, handle)),
                    Err(e) => Ok(render_response(&job.id, &Err(e))),
                }
            }
        });
    }
    for slot in slots {
        let line = slot.unwrap_or_else(|(id, handle)| render_response(&id, &handle.wait()));
        writeln!(out, "{line}")?;
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
    Ok("statevec")
}

/// A `--baseline` comparator on the Atlas machine shape. Baselines
/// gather a dense state, so `--top` stays available.
fn run_baseline(args: &Args, job: Job, dry: bool, out: &mut dyn Write) -> Ran {
    let (circuit, spec, cost) = (&job.circuit, job.spec, CostModel::default());
    print_machine(out, circuit, spec)?;
    let name = args.flags.last("--baseline").unwrap_or_default();
    let run = match name {
        "hyquas" => baselines::hyquas(circuit, spec, cost, dry),
        "cuquantum" => baselines::cuquantum(circuit, spec, cost, dry),
        "qiskit" => baselines::qiskit(circuit, spec, cost, dry),
        "qdao" => baselines::qdao_run(circuit, spec, cost, spec.local_qubits, 19),
        other => return Err(failure(format!("unknown baseline '{other}'"))),
    }?;
    print_report(out, &run.report)?;
    print_profile(args, &run.report, name);
    if let Some(state) = run.state {
        print_top(out, state.top_probabilities(args.top), job.n)?;
    }
    Ok("statevec")
}

/// The Atlas path: one Planner, one CompiledPlan — executed zero
/// (`--plan`, `--dry`), one (default) or N (`--sweep`) times. It never
/// gathers the state: `--top`, `--shots` and `--expect` all read
/// through the sharded measurement engine, which EXECUTE leaves in the
/// logical layout without charging the move.
fn run_atlas(args: &Args, job: Job, mode: Mode, out: &mut dyn Write) -> Ran {
    let circuit = &job.circuit;
    print_machine(out, circuit, job.spec)?;
    let t_plan = Instant::now();
    let compiled = Planner::new(job.spec, CostModel::default(), args.cfg.clone()).plan(circuit)?;
    let plan_secs = t_plan.elapsed().as_secs_f64();
    // Static plan verification (atlas-analyze): always in debug builds,
    // on demand (--analyze) in release builds. A plan the verifier
    // rejects never reaches execution.
    if cfg!(debug_assertions) || args.on("--analyze") {
        let verified = atlas::analyze::verify_plan(circuit, compiled.plan(), compiled.cost());
        let report = verified.map_err(AtlasError::from)?;
        if args.on("--analyze") {
            eprintln!("analyze : ok — {report}");
        }
    }
    let plan = compiled.plan();
    let (stages, cost) = (plan.stages.len(), plan.staging_cost);
    if let Mode::Plan = mode {
        let kernel_cost = plan.kernel_cost;
        let line = format!("{stages} stage(s), staging cost {cost}, kernel cost {kernel_cost:.4}");
        writeln!(out, "plan    : {line} ns/amp")?;
        for (k, sp) in plan.stages.iter().enumerate() {
            let (gates, kernels) = (sp.stage.gates.len(), sp.kernels.len());
            let size = format!("{gates} gates, {kernels} kernels");
            let local = &sp.stage.partition.local;
            writeln!(out, "  stage {k}: {size}, local={local:?}")?;
        }
        return Ok("statevec");
    }
    writeln!(out, "plan    : {stages} stage(s), staging cost {cost}")?;
    match mode {
        Mode::Dry => {
            let report = compiled.dry_run();
            print_report(out, &report)?;
            print_profile(args, &report, "statevec");
        }
        // Plan-once/run-many: the CompiledPlan above is reused for every
        // point; only gate parameters change. Wall-clock timings go to
        // stderr so stdout stays byte-deterministic.
        Mode::Sweep => {
            let points = args.sweep;
            eprintln!("sweep   : planned once in {plan_secs:.3} s; executing {points} point(s)");
            for i in 0..points {
                let point = circuit.map_params(|_, _, p| p + 0.1 * i as f64);
                let t_exec = Instant::now();
                let run = compiled.execute(&point)?;
                let secs = t_exec.elapsed().as_secs_f64();
                eprintln!("point {i} : execute {secs:.3} s");
                print_profile(args, &run.report, "statevec");
                writeln!(out, "point {i} :")?;
                print_readout(out, args, &job, run)?;
            }
        }
        _ => {
            let run = compiled.execute(circuit)?;
            print_report(out, &run.report)?;
            print_profile(args, &run.report, "statevec");
            print_readout(out, args, &job, run)?;
        }
    }
    Ok("statevec")
}

/// The stabilizer (CHP tableau) functional path: no machine shape, no
/// staging — `plan_backend` fingerprints the circuit and `run` replays
/// it on the tableau in polynomial time.
fn run_stabilizer(args: &Args, job: Job, out: &mut dyn Write) -> Ran {
    let (circuit, n) = (&job.circuit, job.n);
    if args.on("--top") && n > 30 {
        return Err(usage(format!(
            "--top enumerates amplitudes through the tableau->statevector \
             conversion (n <= 30); n = {n} supports --shots/--expect only"
        )));
    }
    // The conversion's 2^n amplitudes are admitted like a state with no
    // scratch shard, before anything reaches stdout.
    let enumerate = args.wants_top() && n <= 30;
    if enumerate {
        args.cfg.admit(n, 0)?;
    }
    // The tableau needs no machine, but the Planner does: a minimal
    // single-GPU spec keeps MachineSpec invariants satisfied at any n.
    let spec = MachineSpec::single_gpu(n.min(26));
    let plan = Planner::new(spec, CostModel::default(), args.cfg.clone()).plan_backend(circuit)?;
    print_banner(out, circuit)?;
    let words = (n as usize).div_ceil(64);
    let shape = format!("CHP tableau, {words} word(s)/row; no machine shape");
    writeln!(out, "backend : stabilizer ({shape})")?;
    let t_run = Instant::now();
    let run = plan.run(circuit)?;
    let (gates, secs) = (circuit.num_gates(), t_run.elapsed().as_secs_f64());
    eprintln!("tableau : replayed {gates} gate(s) in {secs:.3} s");
    for p in &job.paulis {
        print_expectation(out, p, run.expectation(p), "")?;
    }
    if args.on("--shots") {
        print_draw(out, args, run.sample_words(args.shots, args.seed), n)?;
    }
    let BackendRun::Stabilizer(srun) = &run else {
        unreachable!("stabilizer path produced a statevector run");
    };
    if enumerate {
        let state = srun.tableau.to_statevector()?;
        print_top(out, state.top_probabilities(args.top), n)?;
    } else if args.wants_top() {
        // Too wide to enumerate amplitudes: report the support size
        // (2^k for k X-pivots in the canonical stabilizer set).
        let rows = srun.tableau.canonical_stabilizers();
        let pivots = rows.iter().filter(|(x, ..)| x.iter().any(|&w| w != 0));
        let support = format!("2^{} basis state(s)", pivots.count());
        writeln!(out, "support : {support} with nonzero amplitude")?;
    }
    Ok("stabilizer")
}

/// The Pauli-twirled stochastic-trajectory path (`--noise p`): one
/// noisy template, ONE compiled plan on whichever engine dispatch
/// picks, `--trajectories` re-parameterizations of the noise slots.
/// Output is deterministic for a fixed `--seed` on any `--threads`.
fn run_noisy(args: &Args, job: Job, out: &mut dyn Write) -> Ran {
    let (circuit, paulis) = (&job.circuit, &job.paulis);
    let sweep = args.noise.expect("a noisy run has --noise");
    let template = noise::noisy_template(circuit);
    let t_plan = Instant::now();
    let plan =
        Planner::new(job.spec, CostModel::default(), args.cfg.clone()).plan_backend(&template)?;
    print_banner(out, circuit)?;
    let (backend, noise, k, seed) = (plan.backend_name(), sweep.p(), sweep.count(), args.seed);
    let draws = format!("{k} trajectorie(s), seed {seed}");
    writeln!(out, "backend : {backend} (noise p = {noise}, {draws})")?;
    let secs = t_plan.elapsed().as_secs_f64();
    let slots = template.num_gates() - circuit.num_gates();
    eprintln!("noise   : planned the template once in {secs:.3} s ({slots} noise slot(s))");
    // One execution per trajectory feeds both the expectation sums and
    // that trajectory's share of the shots (`args.shots` is 0 without
    // `--shots`).
    let mut sums = vec![0.0; paulis.len()];
    let draw = if paulis.is_empty() {
        sweep.run(&plan, &template, args.shots)?
    } else {
        sweep.run_observed(&plan, &template, args.shots, &mut |run| {
            for (s, p) in sums.iter_mut().zip(paulis) {
                *s += run.expectation(p);
            }
        })?
    };
    // Channel expectations: the mean over trajectories converges to the
    // depolarizing channel's output expectation.
    let suffix = format!(" (mean over {k} trajectorie(s))");
    for (s, p) in sums.iter().zip(paulis) {
        print_expectation(out, p, s / k as f64, &suffix)?;
    }
    if args.on("--shots") {
        let (shots, k) = (draw.shots, draw.trajectories);
        let header = format!("{shots} over {k} trajectorie(s) (seed {seed})");
        print_shots(out, &header, draw.counts, job.n)?;
    }
    Ok(backend)
}

fn print_banner(out: &mut dyn Write, c: &Circuit) -> io::Result<()> {
    let name = Some(c.name()).filter(|s| !s.is_empty()).unwrap_or("<qasm>");
    let (n, gates, depth) = (c.num_qubits(), c.num_gates(), c.depth());
    let size = format!("{n} qubits, {gates} gates, depth {depth}");
    writeln!(out, "circuit {name} : {size}")
}

/// The banner, then the simulated machine the Atlas and baseline paths
/// run on.
fn print_machine(out: &mut dyn Write, circuit: &Circuit, spec: MachineSpec) -> io::Result<()> {
    print_banner(out, circuit)?;
    let n = circuit.num_qubits();
    let (nodes, gpus, l) = (spec.nodes, spec.gpus_per_node, spec.local_qubits);
    let (shards, offloading) = (spec.num_shards(n), spec.offloading(n));
    let dram = if offloading { ", DRAM offloading" } else { "" };
    let shards = format!("L={l} ({shards} shard(s)){dram}");
    writeln!(out, "machine : {nodes} node(s) x {gpus} GPU(s), {shards}")
}

fn print_report(out: &mut dyn Write, r: &MachineReport) -> io::Result<()> {
    let (total, compute, comm, swap) = (r.total_secs, r.compute_secs, r.comm_secs, r.swap_secs);
    let kernels = r.kernels;
    let split = format!("compute {compute:.6}, comm {comm:.6}, swap {swap:.6}; {kernels} kernels");
    writeln!(out, "model   : total {total:.6} s  ({split})")
}

/// `suffix` follows the value (the noisy path's trajectory mean).
fn print_expectation(out: &mut dyn Write, p: &PauliString, v: f64, suffix: &str) -> io::Result<()> {
    writeln!(out, "expect  : <{p}> = {v:.9}{suffix}")
}

/// The one top-outcome printer.
fn print_top(out: &mut dyn Write, outcomes: Vec<(u64, f64)>, n: u32) -> io::Result<()> {
    writeln!(out, "top outcomes:")?;
    for (idx, p) in outcomes {
        writeln!(out, "  |{idx:0width$b}>  p = {p:.6}", width = n as usize)?;
    }
    Ok(())
}

/// `--shots`: the counts of one seeded draw of bit-packed bitstrings.
fn print_draw(out: &mut dyn Write, args: &Args, samples: Vec<Vec<u64>>, n: u32) -> io::Result<()> {
    let mut counts = std::collections::BTreeMap::new();
    for s in samples {
        *counts.entry(s).or_insert(0) += 1;
    }
    let header = format!("{} (seed {})", args.shots, args.seed);
    print_shots(out, &header, counts.into_iter().collect(), n)
}

/// The one shot-table printer: a `shots   :` header, then word-packed
/// counts (bit `q % 64` of word `q / 64` is qubit `q`, printed highest
/// qubit leftmost at any width) in `count_samples` order — descending
/// count, ties ascending — capped at 32 lines with a summary of the rest.
fn print_shots(out: &mut dyn Write, header: &str, mut counts: Counts, n: u32) -> io::Result<()> {
    const MAX_LINES: usize = 32;
    writeln!(out, "shots   : {header}")?;
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let shots: u64 = counts.iter().map(|&(_, c)| c).sum();
    for (words, count) in counts.iter().take(MAX_LINES) {
        let bit = |q: u32| char::from(b'0' + (words[q as usize / 64] >> (q % 64) & 1) as u8);
        let bits: String = (0..n).rev().map(bit).collect();
        let p = *count as f64 / shots as f64;
        writeln!(out, "  |{bits}>  x {count}  (p^ = {p:.6})")?;
    }
    if let Some(rest) = counts.get(MAX_LINES..).filter(|rest| !rest.is_empty()) {
        let (more, shots) = (rest.len(), rest.iter().map(|&(_, c)| c).sum::<u64>());
        writeln!(out, "  ... {more} more outcomes ({shots} shots)")?;
    }
    Ok(())
}

/// A functional Atlas run's readout through the sharded measurement
/// engine.
fn print_readout(out: &mut dyn Write, args: &Args, job: &Job, run: Execution) -> io::Result<()> {
    let m = &run.measurements;
    for p in &job.paulis {
        print_expectation(out, p, m.expectation(p), "")?;
    }
    if args.on("--shots") {
        let bits = m.sample(args.shots, args.seed);
        print_draw(
            out,
            args,
            bits.into_iter().map(|b| vec![b]).collect(),
            job.n,
        )?;
    }
    if args.wants_top() {
        print_top(out, m.top(args.top), job.n)?;
    }
    Ok(())
}

/// Host CPU count (the `--threads`/`--workers` default).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `--trace FILE`: drains the recorder into the trace file once the run
/// succeeded (no-op without the flag); an I/O failure downgrades the run
/// to a runtime failure.
fn write_trace(args: &Args, backend: &str) -> Result<(), Fail> {
    let Some(path) = args.flags.last("--trace") else {
        return Ok(());
    };
    let serve = args.on("serve");
    let source = if serve { "atlas-serve" } else { "atlas-sim" };
    let meta = TraceMeta {
        source: source.to_string(),
        backend: backend.to_string(),
        host_cpus: host_cpus(),
        threads: args.cfg.threads,
    };
    let failed = |e: io::Error| failure(format!("--trace {path}: {e}"));
    let mut file = io::BufWriter::new(std::fs::File::create(path).map_err(failed)?);
    let (recorder, format) = (&args.cfg.recorder, args.trace_format);
    atlas::telemetry::export(recorder, &mut file, format, &meta).map_err(failed)?;
    // Dropping a `BufWriter` would discard this error.
    file.flush().map_err(failed)?;
    let (name, dropped) = (format.name(), recorder.dropped());
    eprintln!("trace   : wrote {name} trace to {path} ({dropped} event(s) dropped)");
    Ok(())
}

/// `--profile`: a schema header, then one JSON object per
/// bulk-synchronous step on stderr, in execution order (compute steps
/// alternate with all-to-all transitions), so stdout stays
/// byte-deterministic. The values are the `StageTiming`s the trace's
/// `machine.step` counters carry — one charge site feeds both.
fn print_profile(args: &Args, report: &MachineReport, backend: &str) {
    if !args.on("--profile") {
        return;
    }
    let (cpus, steps) = (host_cpus(), report.per_step.len());
    eprintln!(
        "{{\"schema\":\"atlas-stage-timing/2\",\"backend\":\"{backend}\",\
         \"host_cpus\":{cpus},\"steps\":{steps}}}"
    );
    for (i, st) in report.per_step.iter().enumerate() {
        eprintln!(
            "{{\"stage\":{i},\"compute_secs\":{:.9},\"comm_secs\":{:.9},\"swap_secs\":{:.9},\
             \"bytes_intra\":{},\"bytes_inter\":{}}}",
            st.compute, st.comm, st.swap, st.bytes_intra, st.bytes_inter
        );
    }
}
