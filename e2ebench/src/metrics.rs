//! The metric catalogue — the single source of names, units, directions
//! and regression bounds. `BENCHMARK.json` states the same table; a unit
//! test keeps the two equal.

use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `model_s` is *simulated* seconds (the cost model's clock);
    /// plain `s`/`ms` are always host wall-clock.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A pure function of the inputs on the batch workloads: must repeat
    /// bit-for-bit between runs of one seed (never on `serve16`, whose
    /// closed loop runs for a fixed time, not a fixed job count).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees; measured with the recorder off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("latency_tail_ms", "ms", Lower, 0.20),
    e2e("work_per_s", "1/s", Higher, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers from the traced run; no bounds.
pub const PER_LAYER: &[MetricDef] = &[
    layer("circuit.generate_s", "s", Lower),
    exact("circuit.gates", "count"),
    layer("staging.search_s", "s", Lower),
    exact("staging.stages", "count"),
    exact("staging.cost", "count"),
    layer("kernelize.dp_s", "s", Lower),
    exact("kernelize.kernels", "count"),
    exact("kernelize.model_compute_s", "model_s"),
    layer("exec.plan_s", "s", Lower),
    layer("exec.execute_s", "s", Lower),
    layer("exec.dispatch_s", "s", Lower),
    layer("statevec.kernel_busy_s", "s", Lower),
    layer("statevec.kernel_crit_s", "s", Lower),
    exact("statevec.programs", "count"),
    exact("statevec.kernel_ops", "count"),
    exact("statevec.amp_updates", "count"),
    layer("statevec.lane_imbalance", "ratio", Lower),
    layer("statevec.worker_wait_s", "s", Lower),
    layer("statevec.scratch_table_hits", "count", Higher),
    layer("statevec.scratch_table_misses", "count", Lower),
    layer("machine.reshuffle_s", "s", Lower),
    exact("machine.reshuffles", "count"),
    exact("machine.reshuffle_bytes_computed", "bytes"),
    layer("machine.reshuffle_gbps", "GB/s", Higher),
    layer("machine.barrier_s", "s", Lower),
    exact("machine.model_comm_s", "model_s"),
    exact("machine.model_bytes_inter", "bytes"),
    exact("model.total_s", "model_s"),
    layer("sampler.sample_s", "s", Lower),
    layer("sampler.shots_per_s", "1/s", Higher),
    layer("sampler.expect_diag_s", "s", Lower),
    layer("sampler.expect_offdiag_s", "s", Lower),
    layer("analyze.verify_s", "s", Lower),
    exact("analyze.plans_checked", "count"),
    layer("serve.jobs", "count", Higher),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p95_ms", "ms", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.hit_rate", "ratio", Higher),
    layer("serve.miss_plan_s", "s", Lower),
    layer("serve.max_queued", "count", Lower),
    layer("telemetry.overhead_rel", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.dropped", "count", Lower),
    layer("bench.unattributed_share", "ratio", Lower),
    layer("bench.traced_units", "count", Higher),
    layer("bench.threads", "count", Higher),
    layer("host.copy_gbps", "GB/s", Higher),
    layer("host.cpus", "count", Higher),
];

/// Looks a metric up in either catalogue.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values of one run, by name. Names outside the catalogue are a
/// bug in the workload code and are rejected when the result is printed.
pub type Values = BTreeMap<&'static str, f64>;

/// What one `--workload` invocation measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every output check passed, in set-up and in every timed unit.
    pub correct: bool,
    /// Timed passes (or jobs) attempted.
    pub attempted: u64,
    /// Those whose output check failed, errored, were refused or panicked.
    pub failed: u64,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub values: Values,
    /// Free-form lines for the human-readable part of the output
    /// (sample counts, quartiles, which tail percentile was used).
    pub notes: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_short_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert_eq!(find("setup_s").map(|m| m.unit), Some("s"));
    }
}
