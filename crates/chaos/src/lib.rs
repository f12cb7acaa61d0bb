#![warn(missing_docs)]
//! Deterministic fault injection for the Amoeba simulation.
//!
//! Serverless platforms fail routinely — containers crash mid-query, VM
//! boots fail or straggle, control-plane acks get lost, monitoring
//! samples drop out — and Amoeba's whole value proposition is holding
//! QoS while a live service is mid-flight between platforms. This crate
//! turns those failure modes into a *plan*: a pure-data [`FaultPlan`]
//! describing per-hour fault rates and per-event failure probabilities,
//! and a [`FaultInjector`] that expands the plan into a deterministic
//! schedule of [`TimedFault`]s plus point-in-time failure decisions.
//!
//! Determinism is the design center. The injector owns its own
//! [`SimRng`] stream, seeded from `run seed ^ plan salt`, so:
//!
//! - the same seed and the same plan produce bit-identical fault
//!   sequences (and therefore bit-identical run traces), and
//! - the zero plan ([`FaultPlan::default`]), which a run without a plan
//!   set gets, schedules nothing and fails no decision: its run is
//!   bit-identical to one built before this crate existed.
//!
//! The injector never touches the simulation directly; the `core`
//! runtime schedules the [`TimedFault`]s into its event loop and calls
//! the decision methods ([`FaultInjector::vm_boot_outcome`],
//! [`FaultInjector::drop_prewarm_ack`], …) at the moments the
//! corresponding actions happen. Consumers stay simulation-agnostic:
//! everything here is expressible in terms of `amoeba-sim` time and RNG
//! primitives alone.

use amoeba_sim::{Distributions, SimDuration, SimRng, SimTime};

/// Domain-separation constant folded into the injector's seed so the
/// chaos stream never collides with the platform/arrival streams even
/// when `seed_salt` is zero.
const CHAOS_STREAM: u64 = 0xC4A0_5F41_7B1D_0001;

/// A declarative fault-injection plan: rates are events per simulated
/// hour (Poisson processes), probabilities are per-opportunity.
///
/// The default plan is all-zero — no faults — and is the one form "no
/// faults" takes: a runtime with no plan set runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Container crashes per simulated hour. Each crash kills one
    /// running (busy, warming or idle) container chosen uniformly from
    /// the pool at fire time; in-flight queries are re-queued unless
    /// [`crash_drop_prob`](Self::crash_drop_prob) says otherwise.
    pub container_crash_rate_per_hour: f64,
    /// Probability that a query displaced by a container crash is lost
    /// outright instead of re-queued (models non-idempotent work).
    pub crash_drop_prob: f64,
    /// Probability that a VM boot fails and must be retried from
    /// scratch (the group stays `Booting`, paying the boot time again).
    pub vm_boot_failure_prob: f64,
    /// Probability that a VM boot straggles: the ready event is
    /// re-delivered after `slow_boot_multiplier` extra boot times.
    pub vm_slow_boot_prob: f64,
    /// Extra boot-times a slow boot costs (1.0 doubles the boot).
    pub slow_boot_multiplier: f64,
    /// Probability that a prewarm ack (serverless `PrewarmReady`) is
    /// dropped on the way to the engine, forcing the ack-timeout /
    /// retry / abort machinery to engage.
    pub ack_drop_prob: f64,
    /// Meter blackouts per simulated hour. During a blackout every
    /// meter observation is discarded for
    /// [`meter_outage_duration_s`](Self::meter_outage_duration_s).
    pub meter_outage_rate_per_hour: f64,
    /// Length of one meter blackout, seconds.
    pub meter_outage_duration_s: f64,
    /// Corrupted meter samples per simulated hour: one meter's next
    /// observation is multiplied by
    /// [`outlier_factor`](Self::outlier_factor).
    pub meter_outlier_rate_per_hour: f64,
    /// Multiplier applied to an outlier meter sample (e.g. 50.0 models
    /// a GC pause or scheduling stall hitting the meter probe).
    pub outlier_factor: f64,
    /// Transient co-tenant pressure spikes per simulated hour: a burst
    /// of synthetic interference queries lands on the shared pool.
    pub pressure_spike_rate_per_hour: f64,
    /// Length of one pressure spike, seconds.
    pub spike_duration_s: f64,
    /// Interference queries per second injected during a spike.
    pub spike_qps: f64,
    /// Extra salt XOR-ed into the injector seed, so two plans with the
    /// same rates can still produce decorrelated fault sequences.
    pub seed_salt: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            container_crash_rate_per_hour: 0.0,
            crash_drop_prob: 0.0,
            vm_boot_failure_prob: 0.0,
            vm_slow_boot_prob: 0.0,
            slow_boot_multiplier: 1.0,
            ack_drop_prob: 0.0,
            meter_outage_rate_per_hour: 0.0,
            meter_outage_duration_s: 10.0,
            meter_outlier_rate_per_hour: 0.0,
            outlier_factor: 25.0,
            pressure_spike_rate_per_hour: 0.0,
            spike_duration_s: 10.0,
            spike_qps: 0.0,
            seed_salt: 0,
        }
    }
}

impl FaultPlan {
    /// A reference mixed-fault plan at unit intensity, covering every
    /// fault class at rates calibrated for the compressed benchmark
    /// days (minutes, not hours) used across the test suite. Scale it
    /// with [`scaled`](Self::scaled) to sweep severity.
    pub fn mixed() -> Self {
        FaultPlan {
            container_crash_rate_per_hour: 60.0,
            crash_drop_prob: 0.1,
            vm_boot_failure_prob: 0.1,
            vm_slow_boot_prob: 0.1,
            slow_boot_multiplier: 2.0,
            ack_drop_prob: 0.1,
            meter_outage_rate_per_hour: 30.0,
            meter_outage_duration_s: 5.0,
            meter_outlier_rate_per_hour: 60.0,
            outlier_factor: 25.0,
            pressure_spike_rate_per_hour: 30.0,
            spike_duration_s: 5.0,
            spike_qps: 40.0,
            seed_salt: 0,
        }
    }

    /// Scale every rate and per-opportunity probability by `factor`
    /// (probabilities clamp at 1.0); durations and multipliers are
    /// left alone. `scaled(0.0)` is a no-op plan.
    pub fn scaled(&self, factor: f64) -> Self {
        let p = |x: f64| (x * factor).min(1.0);
        FaultPlan {
            container_crash_rate_per_hour: self.container_crash_rate_per_hour * factor,
            crash_drop_prob: p(self.crash_drop_prob),
            vm_boot_failure_prob: p(self.vm_boot_failure_prob),
            vm_slow_boot_prob: p(self.vm_slow_boot_prob),
            ack_drop_prob: p(self.ack_drop_prob),
            meter_outage_rate_per_hour: self.meter_outage_rate_per_hour * factor,
            meter_outlier_rate_per_hour: self.meter_outlier_rate_per_hour * factor,
            pressure_spike_rate_per_hour: self.pressure_spike_rate_per_hour * factor,
            ..self.clone()
        }
    }
}

/// A scheduled fault occurrence, delivered to the runtime's event loop
/// at a pre-computed instant.
///
/// Deliberately all-integer (`Copy + Eq`): victims and magnitudes are
/// sampled from the injector at *fire* time, so the event payload can
/// ride inside the runtime's `Copy + Eq` event enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedFault {
    /// Kill one container in the shared serverless pool.
    ContainerCrash,
    /// Start a meter blackout window.
    MeterOutage,
    /// Corrupt this meter's next latency observation.
    MeterOutlier {
        /// Index of the affected contention meter (resource index).
        meter: usize,
    },
    /// Start a transient co-tenant pressure spike on the shared pool.
    PressureSpike,
}

/// Outcome of one VM boot attempt under the plan's boot-fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootOutcome {
    /// The boot completes on time.
    Healthy,
    /// The boot fails; the group must re-boot from scratch.
    Fail,
    /// The boot straggles; readiness is delayed by
    /// `slow_boot_multiplier` boot times.
    Slow,
}

/// Expands a [`FaultPlan`] into concrete, reproducible fault decisions.
///
/// All randomness comes from a private [`SimRng`] stream derived from
/// `seed ^ plan.seed_salt ^ CHAOS_STREAM`, independent of the
/// simulation's own RNG forks — injecting faults never perturbs
/// arrival times or execution jitter of the underlying run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
}

impl FaultInjector {
    /// Build an injector for `plan` on a run seeded with `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let rng = SimRng::seed_from_u64(seed ^ plan.seed_salt ^ CHAOS_STREAM);
        FaultInjector { plan, rng }
    }

    /// The plan this injector realises.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Pre-generate the timed-fault schedule for a run of length
    /// `horizon`, sorted by fire time. Each rate-driven fault class is
    /// an independent Poisson process; `n_meters` bounds the meter
    /// index sampled for [`TimedFault::MeterOutlier`].
    pub fn schedule(
        &mut self,
        horizon: SimDuration,
        n_meters: usize,
    ) -> Vec<(SimTime, TimedFault)> {
        let mut out: Vec<(SimTime, TimedFault)> = Vec::new();
        let horizon_s = horizon.as_secs_f64();
        // Fixed class order keeps the RNG draw sequence stable.
        self.poisson_times(
            self.plan.container_crash_rate_per_hour,
            horizon_s,
            |t, me| {
                out.push((t, TimedFault::ContainerCrash));
                let _ = me;
            },
        );
        self.poisson_times(self.plan.meter_outage_rate_per_hour, horizon_s, |t, _| {
            out.push((t, TimedFault::MeterOutage));
        });
        self.poisson_times(self.plan.meter_outlier_rate_per_hour, horizon_s, |t, me| {
            let meter = me.rng.uniform_usize(n_meters.max(1));
            out.push((t, TimedFault::MeterOutlier { meter }));
        });
        self.poisson_times(self.plan.pressure_spike_rate_per_hour, horizon_s, |t, _| {
            out.push((t, TimedFault::PressureSpike));
        });
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Walk one Poisson process at `rate_per_hour` over `[0, horizon_s)`
    /// calling `f(fire_time, self)` per event.
    fn poisson_times(
        &mut self,
        rate_per_hour: f64,
        horizon_s: f64,
        mut f: impl FnMut(SimTime, &mut Self),
    ) {
        if rate_per_hour <= 0.0 {
            return;
        }
        let lambda = rate_per_hour / 3600.0; // events per second
        let mut t = 0.0;
        loop {
            t += self.rng.exponential(lambda);
            if t >= horizon_s {
                return;
            }
            f(SimTime::from_secs_f64(t), self);
        }
    }

    /// Decide the fate of one VM boot attempt. Consumes exactly one
    /// RNG draw regardless of outcome.
    pub fn vm_boot_outcome(&mut self) -> BootOutcome {
        let u = self.rng.uniform();
        if u < self.plan.vm_boot_failure_prob {
            BootOutcome::Fail
        } else if u < self.plan.vm_boot_failure_prob + self.plan.vm_slow_boot_prob {
            BootOutcome::Slow
        } else {
            BootOutcome::Healthy
        }
    }

    /// Should this prewarm ack be dropped on its way to the engine?
    pub fn drop_prewarm_ack(&mut self) -> bool {
        self.rng.bernoulli(self.plan.ack_drop_prob)
    }

    /// Should this crash-displaced query be lost instead of re-queued?
    pub fn drop_crashed_query(&mut self) -> bool {
        self.rng.bernoulli(self.plan.crash_drop_prob)
    }

    /// Pick a uniform index in `[0, n)` from the chaos stream — used by
    /// the runtime to choose crash victims among live containers.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.uniform_usize(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> SimDuration {
        SimDuration::from_secs(3600)
    }

    /// Assert that `plan` schedules nothing over an hour, and that a
    /// thousand draws each boot healthy and drop no ack and no crashed
    /// query.
    fn assert_injects_nothing(plan: FaultPlan) {
        let mut inj = FaultInjector::new(plan, 7);
        assert!(inj.schedule(hour(), 3).is_empty());
        for _ in 0..1000 {
            assert_eq!(inj.vm_boot_outcome(), BootOutcome::Healthy);
            assert!(!inj.drop_prewarm_ack());
            assert!(!inj.drop_crashed_query());
        }
    }

    #[test]
    fn default_plan_is_noop_and_schedules_nothing() {
        assert_injects_nothing(FaultPlan::default());
    }

    #[test]
    fn same_seed_and_plan_give_identical_schedules() {
        let plan = FaultPlan::mixed();
        let a = FaultInjector::new(plan.clone(), 42).schedule(hour(), 3);
        let b = FaultInjector::new(plan, 42).schedule(hour(), 3);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = FaultPlan::mixed();
        let a = FaultInjector::new(plan.clone(), 1).schedule(hour(), 3);
        let b = FaultInjector::new(plan, 2).schedule(hour(), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn seed_salt_decorrelates_equal_rate_plans() {
        let base = FaultPlan::mixed();
        let salted = FaultPlan {
            seed_salt: 0xDEAD,
            ..base.clone()
        };
        let a = FaultInjector::new(base, 9).schedule(hour(), 3);
        let b = FaultInjector::new(salted, 9).schedule(hour(), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_is_sorted_and_respects_horizon() {
        let plan = FaultPlan::mixed().scaled(3.0);
        let sched = FaultInjector::new(plan, 5).schedule(SimDuration::from_secs(600), 3);
        assert!(!sched.is_empty());
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(sched.last().unwrap().0 < SimTime::from_secs(600));
        for (_, f) in &sched {
            if let TimedFault::MeterOutlier { meter } = f {
                assert!(*meter < 3);
            }
        }
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        // 60/hour over 10 hours ≈ 600 events; allow generous slack.
        let plan = FaultPlan {
            container_crash_rate_per_hour: 60.0,
            ..FaultPlan::default()
        };
        let n = FaultInjector::new(plan, 11)
            .schedule(SimDuration::from_secs(36_000), 3)
            .len();
        assert!((400..800).contains(&n), "got {n}");
    }

    #[test]
    fn boot_outcome_frequencies_match_the_plan() {
        let plan = FaultPlan {
            vm_boot_failure_prob: 0.3,
            vm_slow_boot_prob: 0.2,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 13);
        let mut fail = 0;
        let mut slow = 0;
        for _ in 0..10_000 {
            match inj.vm_boot_outcome() {
                BootOutcome::Fail => fail += 1,
                BootOutcome::Slow => slow += 1,
                BootOutcome::Healthy => {}
            }
        }
        assert!((2700..3300).contains(&fail), "fail {fail}");
        assert!((1700..2300).contains(&slow), "slow {slow}");
    }

    #[test]
    fn scaled_zero_is_noop() {
        assert_injects_nothing(FaultPlan::mixed().scaled(0.0));
    }

    #[test]
    fn scaling_clamps_probabilities() {
        let p = FaultPlan::mixed().scaled(100.0);
        assert!(p.ack_drop_prob <= 1.0);
        assert!(p.vm_boot_failure_prob <= 1.0);
        assert!(p.container_crash_rate_per_hour > FaultPlan::mixed().container_crash_rate_per_hour);
    }
}
