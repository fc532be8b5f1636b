//! `--compare A.json B.json`: judges report B (the change) against
//! report A (the parent), each metric by its own rule.
//!
//! * end-to-end metrics: B's median may not be worse than A's by more
//!   than the metric's bound. Where either side's run-to-run spread
//!   (interquartile range over median) is wider than the bound, the
//!   verdict is `unresolved`, not `unchanged` — unless every run of B
//!   reads better than every run of A;
//! * *exact* layer counts and the model clock: bit-identical across all
//!   runs of both sides on the batch workloads, or the verdict is
//!   `MISMATCH`;
//! * other per-layer metrics carry no bound and are listed for reading.

use crate::metrics::{find, Better};
use crate::report::Report;
use crate::stats;

/// What the comparison concluded for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads narrower than the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but the spread is too wide to call it unchanged.
    Unresolved,
    /// An exact metric repeated bit-for-bit.
    Identical,
    /// An exact metric differs between or within the two sides.
    Mismatch,
    /// No bound: shown, not judged.
    Listed,
}

impl Verdict {
    /// `true` for the verdicts that make `--compare` exit non-zero.
    pub fn disagrees(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Mismatch)
    }
}

/// One judged metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's runs.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric's runs. `worse_by` is B's median against A's as a
/// share of A's, positive when B is worse.
fn judge(name: &str, workload: &str, a: &[f64], b: &[f64]) -> Verdict {
    let Some(def) = find(name) else {
        return Verdict::Listed;
    };
    if def.exact {
        if workload == "serve16" {
            return Verdict::Listed;
        }
        let first = a.first().or(b.first()).map(|x| x.to_bits());
        let same = a.iter().chain(b).all(|x| Some(x.to_bits()) == first);
        return if same {
            Verdict::Identical
        } else {
            Verdict::Mismatch
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Listed;
    };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    if worse_by < -bound {
        return Verdict::Improved;
    }
    let wide = stats::relative_spread(a).max(stats::relative_spread(b)) > bound;
    let b_always_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    if wide && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two reports. `Err` when they cannot be compared at all
/// (quick runs, a one-core host, different seeds or run lengths, a
/// workload missing on one side).
pub fn compare(a: &Report, b: &Report) -> Result<Vec<Row>, String> {
    for (side, r) in [("A", a), ("B", b)] {
        if r.quick {
            return Err(format!(
                "report {side} is a --quick run: its sizes are not the benchmark's"
            ));
        }
        if !r.comparable() {
            return Err(format!(
                "report {side} was taken on {} CPU(s); the workloads need 2",
                r.host_cpus
            ));
        }
    }
    if (a.seed, a.seconds.to_bits(), a.threads) != (b.seed, b.seconds.to_bits(), b.threads) {
        return Err("the reports differ in seed, run length or thread count".into());
    }
    let mut rows = Vec::new();
    for (workload, wa) in &a.workloads {
        let wb = b
            .workloads
            .get(workload)
            .ok_or_else(|| format!("report B lacks workload `{workload}`"))?;
        for (side, w) in [("A", wa), ("B", wb)] {
            if !w.correct || w.failed > 0 {
                return Err(format!(
                    "report {side}: `{workload}` failed its output checks ({} of {} units)",
                    w.failed, w.attempted
                ));
            }
            if w.values
                .get("telemetry.dropped")
                .is_some_and(|d| d.iter().any(|&x| x > 0.0))
            {
                return Err(format!("report {side}: `{workload}` dropped trace events"));
            }
        }
        for (metric, xs) in &wa.values {
            let ys = wb
                .values
                .get(metric)
                .ok_or_else(|| format!("report B lacks `{metric}` on `{workload}`"))?;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: stats::median(xs),
                b: stats::median(ys),
                verdict: judge(metric, workload, xs, ys),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        // latency_p50_ms: lower is better, bound 15 %.
        assert_eq!(
            judge("latency_p50_ms", "dense22", &[100.0], &[105.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge("latency_p50_ms", "dense22", &[100.0], &[125.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge("latency_p50_ms", "dense22", &[100.0], &[80.0]),
            Verdict::Improved
        );
        // work_per_s: higher is better.
        assert_eq!(
            judge("work_per_s", "dense22", &[100.0], &[80.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge("work_per_s", "dense22", &[100.0], &[120.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge("latency_p50_ms", "dense22", &noisy, &noisy),
            Verdict::Unresolved
        );
        let better = [75.0, 76.0, 77.0, 78.0, 79.0];
        assert_ne!(
            judge("latency_p50_ms", "dense22", &noisy, &better),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit_on_batch_workloads() {
        assert_eq!(
            judge("model.total_s", "plan36", &[1.5, 1.5], &[1.5]),
            Verdict::Identical
        );
        let off = f64::from_bits(1.5f64.to_bits() + 1);
        assert_eq!(
            judge("model.total_s", "plan36", &[1.5], &[off]),
            Verdict::Mismatch
        );
        assert_eq!(
            judge("model.total_s", "serve16", &[1.5], &[2.5]),
            Verdict::Listed
        );
        assert_eq!(
            judge("kernelize.dp_s", "plan36", &[1.0], &[9.0]),
            Verdict::Listed
        );
    }

    #[test]
    fn quick_and_one_core_reports_are_refused() {
        let full = Report {
            host_cpus: 2,
            ..Report::new(1, 20.0, 1, false)
        };
        assert!(compare(&full, &full).is_ok());
        let quick = Report {
            quick: true,
            ..full.clone()
        };
        assert!(compare(&full, &quick).unwrap_err().contains("--quick"));
        let one_core = Report {
            host_cpus: 1,
            ..full.clone()
        };
        assert!(compare(&one_core, &full).unwrap_err().contains("CPU"));
        let other_seed = Report {
            seed: 2,
            ..full.clone()
        };
        assert!(compare(&full, &other_seed).is_err());
    }
}
