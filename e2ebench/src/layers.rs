//! Per-layer numbers derived from a drained trace.
//!
//! The engine's recorder already emits one span per layer boundary
//! (`plan.stage`, `plan.kernelize`, `kernel.apply`, `machine.reshuffle`,
//! `stage.barrier`, `worker.wait`, `serve.job`, `serve.queue_wait`); this
//! module only sums them. It never times anything itself — host time
//! measured by the bench lives in the workload code — and it reads the
//! model clock only from event *arguments*, never from `dur_ns`, so
//! simulated and host seconds cannot mix.

use crate::metrics::Values;
use atlas_telemetry::{Event, EventKind, Recorder};
use std::collections::BTreeMap;

fn spans<'a>(events: &'a [Event], name: &'a str) -> impl Iterator<Item = &'a Event> {
    events
        .iter()
        .filter(move |e| e.kind == EventKind::Span && e.name == name)
}

/// Total host seconds inside spans called `name`.
pub fn span_secs(events: &[Event], name: &str) -> f64 {
    spans(events, name).map(|e| e.dur_ns).sum::<u64>() as f64 / 1e9
}

/// Durations of the spans called `name`, in milliseconds.
pub fn span_ms(events: &[Event], name: &str) -> Vec<f64> {
    spans(events, name).map(|e| e.dur_ns as f64 / 1e6).collect()
}

/// Sum of argument `key` over events (spans or counters) called `name`.
pub fn arg_sum(events: &[Event], name: &str, key: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .flat_map(|e| e.args().iter())
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .sum()
}

/// Fills the PARTITION and EXECUTE layer metrics from the events of one
/// pass (or, for `serve16`, of one whole pool run).
///
/// `threads` is the executor's thread count: the kernel critical path is
/// the per-stage maximum of per-lane busy time, which is only meaningful
/// when one trace holds one run. With `threads == 1` (serve jobs run
/// their kernels inline) the critical path is the busy time itself.
pub fn engine_layers(events: &[Event], threads: usize, n_amps: u64, v: &mut Values) {
    v.insert("staging.search_s", span_secs(events, "plan.stage"));
    v.insert(
        "staging.stages",
        arg_sum(events, "plan.stage", "stages") as f64,
    );
    v.insert("staging.cost", arg_sum(events, "plan.stage", "cost") as f64);
    v.insert("kernelize.dp_s", span_secs(events, "plan.kernelize"));
    v.insert(
        "kernelize.kernels",
        arg_sum(events, "plan.kernelize", "kernels") as f64,
    );

    let busy = span_secs(events, "kernel.apply");
    let crit = if threads <= 1 {
        busy
    } else {
        let mut lane_busy: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for e in spans(events, "kernel.apply") {
            *lane_busy.entry((e.stage, e.lane)).or_default() += e.dur_ns;
        }
        let mut stage_max: BTreeMap<u32, u64> = BTreeMap::new();
        for ((stage, _), ns) in lane_busy {
            let m = stage_max.entry(stage).or_default();
            *m = (*m).max(ns);
        }
        stage_max.values().sum::<u64>() as f64 / 1e9
    };
    v.insert("statevec.kernel_busy_s", busy);
    v.insert("statevec.kernel_crit_s", crit);
    v.insert(
        "statevec.programs",
        spans(events, "kernel.apply").count() as f64,
    );
    v.insert(
        "statevec.kernel_ops",
        arg_sum(events, "kernel.apply", "ops") as f64,
    );
    // Slowest lane over the even split: 1.0 is a perfect balance.
    v.insert(
        "statevec.lane_imbalance",
        if busy > 0.0 {
            crit * threads.max(1) as f64 / busy
        } else {
            0.0
        },
    );
    v.insert("statevec.worker_wait_s", span_secs(events, "worker.wait"));

    let reshuffle_s = span_secs(events, "machine.reshuffle");
    let reshuffles = arg_sum(events, "machine.reshuffle", "moved");
    // Computed, not measured: every amplitude is read once and written
    // once per all-to-all.
    let bytes = reshuffles * 2 * 16 * n_amps;
    v.insert("machine.reshuffle_s", reshuffle_s);
    v.insert("machine.reshuffles", reshuffles as f64);
    v.insert("machine.reshuffle_bytes_computed", bytes as f64);
    v.insert(
        "machine.reshuffle_gbps",
        if reshuffle_s > 0.0 {
            bytes as f64 / reshuffle_s / 1e9
        } else {
            0.0
        },
    );
    v.insert("machine.barrier_s", span_secs(events, "stage.barrier"));
}

/// The model clock as the trace carries it (integer nanoseconds in
/// `machine.step` / `machine.reshuffle` arguments) — used where the
/// bench never sees a `MachineReport` (serve jobs).
pub fn model_clock_from_steps(events: &[Event], v: &mut Values) {
    let ns = |key| arg_sum(events, "machine.step", key) as f64 / 1e9;
    let comm = arg_sum(events, "machine.reshuffle", "comm_ns") as f64 / 1e9;
    v.insert("kernelize.model_compute_s", ns("compute_ns"));
    v.insert("machine.model_comm_s", comm);
    v.insert(
        "machine.model_bytes_inter",
        arg_sum(events, "machine.reshuffle", "bytes_inter") as f64,
    );
    v.insert("model.total_s", ns("compute_ns") + ns("swap_ns") + comm);
}

/// What every traced run states about itself: events lost, units
/// traced, threads used, and the host the numbers were taken on.
pub fn run_facts(rec: &Recorder, units: usize, threads: usize, copy_gbps: f64, v: &mut Values) {
    v.insert("telemetry.dropped", rec.dropped() as f64);
    v.insert("bench.traced_units", units as f64);
    v.insert("bench.threads", threads as f64);
    v.insert("host.copy_gbps", copy_gbps);
    v.insert("host.cpus", crate::host::cpus() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two lanes, two stages: the critical path takes each stage's
    /// slower lane, and the imbalance is read against an even split.
    #[test]
    fn critical_path_is_per_stage_lane_maximum() {
        let rec = Recorder::enabled();
        let record = |stage: u32, shard: u32| {
            let t = rec.start();
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("kernel.apply", t, true, stage, shard, 0, &[("ops", 3)]);
            rec.flush();
        };
        // Lane A runs three programs of stage 0, lane B one of each stage.
        std::thread::scope(|s| {
            s.spawn(|| (0..3).for_each(|shard| record(0, shard)));
            s.spawn(|| {
                record(0, 3);
                record(1, 0);
            });
        });
        let events = rec.drain();
        let mut v = Values::new();
        engine_layers(&events, 2, 1 << 10, &mut v);
        assert_eq!(v["statevec.programs"], 5.0);
        assert_eq!(v["statevec.kernel_ops"], 15.0);
        let (busy, crit) = (v["statevec.kernel_busy_s"], v["statevec.kernel_crit_s"]);
        // crit ≈ 3 programs (stage 0, lane A) + 1 (stage 1) of 5 busy.
        assert!(crit < busy && crit > 0.7 * busy, "busy {busy} crit {crit}");
        assert!(v["statevec.lane_imbalance"] > 1.4);
        assert_eq!(v["machine.reshuffles"], 0.0);
    }
}
