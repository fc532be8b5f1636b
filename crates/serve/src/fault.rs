//! Deterministic fault injection for the session pool.
//!
//! A [`FaultPlan`] decides — as a pure function of `(seed, site, job
//! id)` — whether a named fault site fires for a given job. The
//! decisions are driven by the same counter-mode RNG the sampler uses
//! ([`CounterRng`]), so a fault schedule is:
//!
//! * **reproducible** — the same seed produces the same set of injected
//!   faults on every run;
//! * **worker-count-invariant** — decisions key on the pool-assigned
//!   job id (submission order), not on which worker dequeues the job or
//!   when, so `--workers 1` and `--workers 4` see identical storms;
//! * **zero-cost when disabled** — the plan is an `Option<Arc<_>>`
//!   (the same shape as the telemetry `Recorder`): the disabled path is
//!   a single `None` check and no site ever evaluates the RNG.
//!
//! The pool consults the plan at five named sites (see [`FaultSite`]);
//! `tests/chaos_serve.rs` uses it to drive seeded fault storms and
//! asserts the pool's accounting and determinism contracts survive.

use std::sync::Arc;

use atlas_sampler::CounterRng;

/// A named fault site inside the serve pipeline.
///
/// Each site has a fixed RNG stream, so per-site schedules are
/// statistically independent but individually reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside the worker while processing the job (after
    /// dispatch, before planning) — exercises the `catch_unwind`
    /// isolation boundary.
    WorkerPanic,
    /// Panic *while planning* on the miss path: after the job reserved
    /// the fingerprint, outside the plan-cache lock — exercises the
    /// reservation's drop guard, which frees the slot on unwind and
    /// wakes the jobs parked on it.
    PlanPanic,
    /// Trip the job's own [`CancelToken`](crate::pool::CancelToken) at dispatch — a forced
    /// mid-stream cancellation.
    ForceCancel,
    /// Treat the job's deadline as already expired at dispatch —
    /// deadline pressure without real waiting.
    DeadlinePressure,
    /// Fail the job's resource admission as if the memory budget were
    /// exhausted.
    AllocFail,
}

impl FaultSite {
    /// Every site, in stream order (useful for tests that sweep sites).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::WorkerPanic,
        FaultSite::PlanPanic,
        FaultSite::ForceCancel,
        FaultSite::DeadlinePressure,
        FaultSite::AllocFail,
    ];

    /// The fixed RNG stream backing this site's schedule.
    fn stream(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::PlanPanic => 1,
            FaultSite::ForceCancel => 2,
            FaultSite::DeadlinePressure => 3,
            FaultSite::AllocFail => 4,
        }
    }

    /// The site's index into a rate table.
    fn index(self) -> usize {
        self.stream() as usize
    }
}

/// The seeded schedule: one RNG seed plus a parts-per-million firing
/// rate per site. Rates are integers so the type stays `Eq` and the
/// decision arithmetic is exact.
#[derive(Debug, PartialEq, Eq)]
struct FaultPlanInner {
    seed: u64,
    rate_ppm: [u32; 5],
}

/// A deterministic fault-injection schedule for a [`SessionPool`].
///
/// Disabled by default (and in [`ServeConfig::default`]); construct
/// with [`FaultPlan::seeded`] or [`FaultPlan::with_rates`] to arm it.
/// See the module docs for the determinism contract.
///
/// [`SessionPool`]: crate::pool::SessionPool
/// [`ServeConfig::default`]: crate::pool::ServeConfig
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    inner: Option<Arc<FaultPlanInner>>,
}

impl FaultPlan {
    /// The inert plan: no site ever fires, no RNG is ever evaluated.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// A plan firing every site at the same `rate_ppm` (parts per
    /// million of jobs, i.e. `1_000_000` = every job).
    pub fn seeded(seed: u64, rate_ppm: u32) -> Self {
        Self::with_rates(seed, [rate_ppm; 5])
    }

    /// A plan with an individual parts-per-million rate per site,
    /// indexed in [`FaultSite::ALL`] order.
    pub fn with_rates(seed: u64, rate_ppm: [u32; 5]) -> Self {
        FaultPlan {
            inner: Some(Arc::new(FaultPlanInner { seed, rate_ppm })),
        }
    }

    /// Whether any site can fire at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `site` fires for pool job `job_id` — a pure function of
    /// `(seed, site, job_id)`, independent of workers and timing.
    pub fn should_inject(&self, site: FaultSite, job_id: u64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let rate = inner.rate_ppm[site.index()];
        if rate == 0 {
            return false;
        }
        let draw = CounterRng::new(inner.seed)
            .split(site.stream())
            .u64_at(job_id);
        draw % 1_000_000 < u64::from(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for site in FaultSite::ALL {
            for job in 0..64 {
                assert!(!plan.should_inject(site, job));
            }
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_and_job() {
        let a = FaultPlan::seeded(42, 250_000);
        let b = FaultPlan::seeded(42, 250_000);
        for site in FaultSite::ALL {
            for job in 0..256 {
                assert_eq!(a.should_inject(site, job), b.should_inject(site, job));
            }
        }
        // A different seed produces a different storm (with overwhelming
        // probability over 5 × 256 draws).
        let c = FaultPlan::seeded(43, 250_000);
        let differs = FaultSite::ALL.iter().any(|&site| {
            (0..256).any(|job| a.should_inject(site, job) != c.should_inject(site, job))
        });
        assert!(differs);
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // With a uniform rate the per-site schedules must not be copies
        // of each other.
        let plan = FaultPlan::seeded(7, 500_000);
        let schedule = |site: FaultSite| -> Vec<bool> {
            (0..256).map(|job| plan.should_inject(site, job)).collect()
        };
        let worker = schedule(FaultSite::WorkerPanic);
        assert!(FaultSite::ALL[1..]
            .iter()
            .any(|&site| schedule(site) != worker));
    }

    #[test]
    fn rates_bound_the_firing_fraction() {
        // rate 1_000_000 fires always; rate 0 never.
        let always = FaultPlan::seeded(1, 1_000_000);
        let never = FaultPlan::with_rates(1, [0; 5]);
        for job in 0..64 {
            assert!(always.should_inject(FaultSite::WorkerPanic, job));
            assert!(!never.should_inject(FaultSite::WorkerPanic, job));
        }
        // Per-site rates are honored independently.
        let only_cancel = FaultPlan::with_rates(9, [0, 0, 1_000_000, 0, 0]);
        for job in 0..64 {
            assert!(only_cancel.should_inject(FaultSite::ForceCancel, job));
            assert!(!only_cancel.should_inject(FaultSite::WorkerPanic, job));
            assert!(!only_cancel.should_inject(FaultSite::AllocFail, job));
        }
    }
}
