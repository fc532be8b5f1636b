//! The three batch workloads — `dense22`, `shuffle22`, `plan36` — and
//! the pass loop they share.
//!
//! A *pass* is one full trip through the pipeline on fixed inputs; every
//! pass of a run repeats the warm-up pass exactly, so its outputs must be
//! byte-identical to the warm-up's. Layers are timed from outside, by
//! reading the clock around calls into public functions; the traced
//! invocation additionally hands the engine a `Recorder` and sums the
//! spans it drains (see [`crate::layers`]).

use crate::host;
use crate::layers;
use crate::metrics::{RunResult, Values};
use crate::stats;
use crate::stream::{self, Digest};
use crate::Opts;
use atlas_circuit::generators::Family;
use atlas_circuit::Circuit;
use atlas_core::session::{CompiledPlan, Planner};
use atlas_core::AtlasConfig;
use atlas_machine::{CostModel, MachineReport, MachineSpec};
use atlas_sampler::{PauliOp, PauliString};
use atlas_telemetry::Recorder;
use std::time::Instant;

/// Timed passes never drop below this, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// How often set-up is repeated (its median is `setup_s`). A set-up
/// includes one full warm-up pass, so only the workload with a cheap
/// pass affords repeats under the driver's cap on total run time.
fn setup_repeats(name: &str) -> usize {
    if name == "shuffle22" {
        3
    } else {
        1
    }
}
/// Shots drawn per functional pass.
const SHOTS: usize = 65_536;
/// Sink capacity of the traced run: `shuffle22` records 4096 shards × 5
/// stages of `kernel.apply` per pass, and the sink is drained per pass.
const SINK_EVENTS: usize = 1 << 17;

/// What one pass produced.
struct Pass {
    /// Host seconds of the whole pass.
    wall_s: f64,
    /// Host seconds the throughput metric divides by (`execute` for the
    /// functional workloads, the whole pass for `plan36`).
    work_s: f64,
    /// Output checks of this pass alone (norm, plan verification).
    ok: bool,
    /// Digest of everything the pass returned, model clock included; must
    /// equal the warm-up's.
    digest: Digest,
    /// Bench-side layer timings and the model clock of this pass.
    values: Values,
}

/// A batch workload: fixed inputs plus a repeatable pass.
trait Batch {
    /// Runs one pass, through the traced planner if `traced`. With
    /// `verify`, every plan of the pass also goes through a direct
    /// `atlas_analyze::verify_plan` after the clock has stopped (release
    /// builds of the engine do not verify on their own).
    fn pass(&self, traced: bool, verify: bool) -> Pass;
    /// Work units of one pass, for `work_per_s`.
    fn work_units(&self) -> f64;
    /// Amplitudes of the functional state (0 for dry workloads).
    fn amps(&self) -> u64;
    /// Executor threads.
    fn threads(&self) -> usize;
}

fn planner(spec: MachineSpec, threads: usize, rec: &Recorder) -> Planner {
    let cfg = AtlasConfig {
        threads,
        recorder: rec.clone(),
        ..AtlasConfig::default()
    };
    Planner::new(spec, CostModel::default(), cfg)
}

/// `base` with `shift` added to every gate parameter (same gate graph).
pub(crate) fn shifted(base: &Circuit, shift: f64) -> Circuit {
    base.map_params(|_, _, p| p + shift)
}

fn model_values(reports: &[MachineReport], v: &mut Values) {
    let sum = |f: fn(&MachineReport) -> f64| reports.iter().map(f).sum::<f64>();
    v.insert("model.total_s", sum(|r| r.total_secs));
    v.insert("kernelize.model_compute_s", sum(|r| r.compute_secs));
    v.insert("machine.model_comm_s", sum(|r| r.comm_secs));
    v.insert("machine.model_bytes_inter", sum(|r| r.bytes_inter as f64));
}

/// Times a direct `verify_plan` on each plan; `false` if any is rejected.
pub(crate) fn verify_all(plans: &[(&Circuit, &CompiledPlan)], v: &mut Values) -> bool {
    let t = Instant::now();
    let ok = plans
        .iter()
        .all(|(c, p)| atlas_analyze::verify_plan(c, p.plan(), p.cost()).is_ok());
    v.insert("analyze.verify_s", t.elapsed().as_secs_f64());
    v.insert("analyze.plans_checked", plans.len() as f64);
    ok
}

// ---------------------------------------------------------------------
// dense22 / shuffle22: plan → execute → sample → expectations
// ---------------------------------------------------------------------

/// Shape of a functional workload.
struct Shape {
    family: Family,
    n: u32,
    spec: MachineSpec,
    /// The same family and machine at reference-checkable size.
    small_n: u32,
    small_local: u32,
}

fn shape(workload: &str, quick: bool) -> Shape {
    let (family, nodes, gpus, full, quick_size, small) = match workload {
        // 8 shards of 2^19: long fused dense kernels, few reshuffles.
        "dense22" => (Family::Su2Random, 2, 2, (22, 19), (14, 11), (12, 9)),
        // 4096 shards of 2^10: four all-to-alls, 20 480 tiny programs.
        _ => (Family::WState, 4, 4, (22, 10), (14, 6), (12, 4)),
    };
    let (n, l) = if quick { quick_size } else { full };
    Shape {
        family,
        n,
        spec: MachineSpec {
            nodes,
            gpus_per_node: gpus,
            local_qubits: l,
        },
        small_n: small.0,
        small_local: small.1,
    }
}

struct Functional {
    circuit: Circuit,
    plain: Planner,
    traced: Planner,
    shot_seed: u64,
    /// Two diagonal strings, then two off-diagonal ones.
    paulis: [PauliString; 4],
    generate_s: f64,
    threads: usize,
}

impl Functional {
    fn build(sh: &Shape, seed: u64, rec: &Recorder) -> (Self, bool) {
        let threads = host::bench_threads();
        let shift = stream::param_shift(seed, 0, 0);
        let t = Instant::now();
        let circuit = shifted(&sh.family.generate(sh.n), shift);
        let generate_s = t.elapsed().as_secs_f64();
        let n = sh.n;
        let paulis = [
            PauliString::from_ops(n, &[(0, PauliOp::Z), (n - 1, PauliOp::Z)]),
            PauliString::from_ops(
                n,
                &[(1, PauliOp::Z), (n / 2, PauliOp::Z), (n - 2, PauliOp::Z)],
            ),
            PauliString::from_ops(n, &[(0, PauliOp::X), (1, PauliOp::X)]),
            PauliString::from_ops(
                n,
                &[(2, PauliOp::X), (n / 2, PauliOp::Y), (n - 1, PauliOp::Z)],
            ),
        ];
        let w = Functional {
            circuit,
            plain: planner(sh.spec, threads, &Recorder::default()),
            traced: planner(sh.spec, threads, rec),
            shot_seed: stream::word(seed, 0, 1),
            paulis,
            generate_s,
            threads,
        };
        (w, reference_agrees(sh, shift, threads))
    }

    fn try_pass(&self, traced: bool, verify: bool) -> Result<Pass, atlas_core::AtlasError> {
        let planner = if traced { &self.traced } else { &self.plain };
        let mut v = Values::new();
        let t0 = Instant::now();
        let plan = planner.plan(&self.circuit)?;
        let t1 = Instant::now();
        let run = plan.execute(&self.circuit)?;
        let t2 = Instant::now();
        let samples = run.measurements.sample(SHOTS, self.shot_seed);
        let t3 = Instant::now();
        let mut expect = [0.0f64; 4];
        for (e, p) in expect.iter_mut().zip(&self.paulis).take(2) {
            *e = run.measurements.expectation(p);
        }
        let t4 = Instant::now();
        for (e, p) in expect.iter_mut().zip(&self.paulis).skip(2) {
            *e = run.measurements.expectation(p);
        }
        let t5 = Instant::now();
        // The clock is stopped: everything below is checking.
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        v.insert("exec.plan_s", secs(t0, t1));
        v.insert("exec.execute_s", secs(t1, t2));
        v.insert("sampler.sample_s", secs(t2, t3));
        v.insert("sampler.shots_per_s", SHOTS as f64 / secs(t2, t3));
        v.insert("sampler.expect_diag_s", secs(t3, t4));
        v.insert("sampler.expect_offdiag_s", secs(t4, t5));
        model_values(std::slice::from_ref(&run.report), &mut v);
        let mut ok = (run.measurements.total_norm() - 1.0).abs() <= 1e-9;
        if verify {
            ok &= verify_all(&[(&self.circuit, &plan)], &mut v);
        }
        let mut digest = Digest::default();
        samples.iter().for_each(|&s| digest.push(s));
        expect.iter().for_each(|e| digest.push(e.to_bits()));
        digest.push(run.report.total_secs.to_bits());
        Ok(Pass {
            wall_s: secs(t0, t5),
            work_s: secs(t1, t2),
            ok,
            digest,
            values: v,
        })
    }
}

/// The same family on the same machine shape at a size the dense
/// reference simulator can check: amplitudes must agree to 1e-9.
fn reference_agrees(sh: &Shape, shift: f64, threads: usize) -> bool {
    let small = shifted(&sh.family.generate(sh.small_n), shift);
    let spec = MachineSpec {
        local_qubits: sh.small_local,
        ..sh.spec
    };
    let cfg = AtlasConfig {
        threads,
        final_unpermute: true,
        ..AtlasConfig::default()
    };
    let got = Planner::new(spec, CostModel::default(), cfg)
        .plan(&small)
        .and_then(|p| p.execute(&small));
    match got.ok().and_then(|run| run.state) {
        Some(state) => state.max_abs_diff(&atlas_statevec::simulate_reference(&small)) <= 1e-9,
        None => false,
    }
}

impl Batch for Functional {
    fn pass(&self, traced: bool, verify: bool) -> Pass {
        let mut pass = self.try_pass(traced, verify).unwrap_or_else(failed_pass);
        pass.values.insert("circuit.generate_s", self.generate_s);
        pass.values
            .insert("circuit.gates", self.circuit.num_gates() as f64);
        pass.values
            .insert("statevec.amp_updates", self.work_units());
        pass
    }
    /// Gate·amplitude updates: every gate touches all 2^n amplitudes.
    fn work_units(&self) -> f64 {
        self.circuit.num_gates() as f64 * self.amps() as f64
    }
    fn amps(&self) -> u64 {
        1u64 << self.circuit.num_qubits()
    }
    fn threads(&self) -> usize {
        self.threads
    }
}

/// A pass that returned a typed error: counted as failed, timed as zero.
fn failed_pass(err: atlas_core::AtlasError) -> Pass {
    eprintln!("pass failed: {err}");
    Pass {
        wall_s: 0.0,
        work_s: 0.0,
        ok: false,
        digest: Digest::default(),
        values: Values::new(),
    }
}

// ---------------------------------------------------------------------
// plan36: PARTITION only, at paper scale
// ---------------------------------------------------------------------

struct Plan36 {
    circuits: Vec<Circuit>,
    plain: Planner,
    traced: Planner,
    generate_s: f64,
}

impl Plan36 {
    fn build(seed: u64, quick: bool, rec: &Recorder) -> Self {
        // Fig. 5's top rung: 64 nodes × 4 GPUs, 28 local qubits.
        let (n, spec) = if quick {
            let spec = MachineSpec {
                nodes: 4,
                gpus_per_node: 4,
                local_qubits: 8,
            };
            (14, spec)
        } else {
            (36, MachineSpec::perlmutter(64))
        };
        let shift = stream::param_shift(seed, 0, 0);
        let t = Instant::now();
        let circuits = Family::table1()
            .iter()
            .map(|f| shifted(&f.generate(n), shift))
            .collect();
        let generate_s = t.elapsed().as_secs_f64();
        Plan36 {
            circuits,
            plain: planner(spec, 1, &Recorder::default()),
            traced: planner(spec, 1, rec),
            generate_s,
        }
    }

    fn try_pass(&self, traced: bool, verify: bool) -> Result<Pass, atlas_core::AtlasError> {
        let planner = if traced { &self.traced } else { &self.plain };
        let mut plans = Vec::with_capacity(self.circuits.len());
        let mut reports = Vec::with_capacity(self.circuits.len());
        let (mut plan_s, mut dry_s) = (0.0, 0.0);
        let t0 = Instant::now();
        for c in &self.circuits {
            let t = Instant::now();
            let plan = planner.plan(c)?;
            plan_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            reports.push(plan.dry_run());
            dry_s += t.elapsed().as_secs_f64();
            plans.push(plan);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut v = Values::new();
        v.insert("exec.plan_s", plan_s);
        v.insert("exec.execute_s", dry_s);
        model_values(&reports, &mut v);
        let pairs: Vec<_> = self.circuits.iter().zip(&plans).collect();
        let ok = !verify || verify_all(&pairs, &mut v);
        let mut digest = Digest::default();
        for r in &reports {
            digest.push(r.total_secs.to_bits());
            digest.push(r.kernels);
        }
        Ok(Pass {
            wall_s,
            work_s: wall_s,
            ok,
            digest,
            values: v,
        })
    }
}

impl Batch for Plan36 {
    fn pass(&self, traced: bool, verify: bool) -> Pass {
        let mut pass = self.try_pass(traced, verify).unwrap_or_else(failed_pass);
        pass.values.insert("circuit.generate_s", self.generate_s);
        pass.values.insert("circuit.gates", self.work_units());
        pass
    }
    /// Gates planned per pass.
    fn work_units(&self) -> f64 {
        self.circuits.iter().map(|c| c.num_gates() as f64).sum()
    }
    fn amps(&self) -> u64 {
        0
    }
    fn threads(&self) -> usize {
        1
    }
}

// ---------------------------------------------------------------------
// The shared pass loop
// ---------------------------------------------------------------------

/// Runs batch workload `name` (`dense22`, `shuffle22` or `plan36`).
pub fn run(name: &str, opts: &Opts) -> RunResult {
    if opts.trace {
        traced(name, opts)
    } else {
        untraced(name, opts)
    }
}

/// Builds workload `name` for `seed`; the flag is the set-up check (the
/// engine agrees with the reference simulator at a small size). `rec` is
/// the traced run's recorder, a disabled handle otherwise.
fn setup(name: &str, opts: &Opts, rec: &Recorder) -> (Box<dyn Batch>, bool) {
    if name == "plan36" {
        // No amplitudes to compare: every pass verifies its plans instead.
        return (Box::new(Plan36::build(opts.seed, opts.quick, rec)), true);
    }
    let (w, ok) = Functional::build(&shape(name, opts.quick), opts.seed, rec);
    (Box::new(w), ok)
}

/// `true` while the timed section should start another unit.
fn keep_going(done: usize, started: Instant, opts: &Opts, min: usize) -> bool {
    if opts.quick {
        done < 2
    } else {
        done < min || started.elapsed().as_secs_f64() < opts.seconds
    }
}

/// The end-to-end run: set-up (repeated, median reported), then timed
/// passes with the recorder off.
fn untraced(name: &str, opts: &Opts) -> RunResult {
    let off = Recorder::default();
    let mut setups = Vec::new();
    let (w, setup_ok, warm) = loop {
        let t = Instant::now();
        let (w, ok) = setup(name, opts, &off);
        let warm = w.pass(false, true);
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == setup_repeats(name) || opts.quick {
            break (w, ok, warm);
        }
    };

    let mut res = RunResult::default();
    let (mut walls, mut works) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while keep_going(walls.len(), started, opts, MIN_PASSES) {
        let p = w.pass(false, false);
        res.attempted += 1;
        // Same inputs as the warm-up ⇒ byte-identical outputs; the
        // digest includes the model clock, a pure function of the plan.
        if !(p.ok && p.digest == warm.digest) {
            res.failed += 1;
        }
        walls.push(p.wall_s);
        works.push(p.work_s);
    }
    res.correct = setup_ok && warm.ok && res.failed == 0;

    let (q1, q3) = stats::quartiles(&walls);
    let v = &mut res.values;
    v.insert("latency_p50_ms", stats::median(&walls) * 1e3);
    // Too few passes for a tail percentile (none has ten samples beyond
    // it): the upper quartile stands in, and the note below says so.
    v.insert("latency_tail_ms", q3 * 1e3);
    v.insert("work_per_s", w.work_units() / stats::median(&works));
    v.insert("peak_rss_mb", host::peak_rss_mb());
    v.insert("setup_s", stats::median(&setups));
    let sorted = stats::sorted(&walls);
    res.notes.push(format!(
        "pass wall: n={} min={:.4}s q1={:.4}s median={:.4}s q3={:.4}s max={:.4}s; \
         latency_tail_ms is q3 (too few samples for a tail percentile)",
        walls.len(),
        sorted.first().copied().unwrap_or(0.0),
        q1,
        stats::median(&walls),
        q3,
        sorted.last().copied().unwrap_or(0.0),
    ));
    res.notes.push(format!(
        "set-up repeated {}x: {:?} s; model.total_s = {:?} model_s (simulated, unvalidated: \
         the repository holds no hardware reference)",
        setups.len(),
        setups,
        warm.values.get("model.total_s").copied().unwrap_or(0.0),
    ));
    res
}

/// The per-layer run: untraced and traced passes alternate, so the two
/// medians that make `telemetry.overhead_rel` see the same machine state.
fn traced(name: &str, opts: &Opts) -> RunResult {
    let copy_gbps = host::copy_gbps();
    let rec = Recorder::with_capacity(SINK_EVENTS, atlas_telemetry::DEFAULT_LOCAL_CAPACITY);
    let (w, setup_ok) = setup(name, opts, &rec);
    let warm = w.pass(false, true);

    let mut res = RunResult::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<Values> = Vec::new();
    let scratch = |rec: &Recorder, key: &str| {
        rec.metrics_snapshot()
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    };
    let started = Instant::now();
    while keep_going(per_pass.len(), started, opts, 2) {
        let plain = w.pass(false, false);
        plain_walls.push(plain.wall_s);

        let before = (
            scratch(&rec, "scratch.table_hits"),
            scratch(&rec, "scratch.table_misses"),
        );
        let p = w.pass(true, true);
        let events = rec.drain();
        res.attempted += 2;
        res.failed += [&plain, &p]
            .iter()
            .filter(|x| !(x.ok && x.digest == warm.digest))
            .count() as u64;
        traced_walls.push(p.wall_s);

        let mut v = p.values;
        layers::engine_layers(&events, w.threads(), w.amps(), &mut v);
        let hits = scratch(&rec, "scratch.table_hits") - before.0;
        let misses = scratch(&rec, "scratch.table_misses") - before.1;
        v.insert("statevec.scratch_table_hits", hits as f64);
        v.insert("statevec.scratch_table_misses", misses as f64);
        let get = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
        let blocking = get(&v, "statevec.kernel_crit_s")
            + get(&v, "machine.reshuffle_s")
            + get(&v, "machine.barrier_s");
        // Program building, verification and glue inside `execute`.
        v.insert(
            "exec.dispatch_s",
            (get(&v, "exec.execute_s") - blocking).max(0.0),
        );
        let attributed = blocking
            + get(&v, "staging.search_s")
            + get(&v, "kernelize.dp_s")
            + get(&v, "sampler.sample_s")
            + get(&v, "sampler.expect_diag_s")
            + get(&v, "sampler.expect_offdiag_s");
        v.insert("bench.unattributed_share", 1.0 - attributed / p.wall_s);
        v.insert("telemetry.events", events.len() as f64);
        per_pass.push(v);
    }
    res.correct = setup_ok && warm.ok && res.failed == 0 && rec.dropped() == 0;

    // Timings: median over the traced passes. Exact counts are equal in
    // every pass, so their median is the count.
    let mut keys: Vec<&'static str> = per_pass.iter().flat_map(|v| v.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let xs: Vec<f64> = per_pass.iter().filter_map(|v| v.get(k).copied()).collect();
        res.values.insert(k, stats::median(&xs));
    }
    let v = &mut res.values;
    v.insert(
        "telemetry.overhead_rel",
        stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0,
    );
    layers::run_facts(&rec, per_pass.len(), w.threads(), copy_gbps, v);
    res.notes.push(format!(
        "traced passes: {} (median reported); untraced median {:.4}s, traced median {:.4}s",
        per_pass.len(),
        stats::median(&plain_walls),
        stats::median(&traced_walls),
    ));
    res
}
