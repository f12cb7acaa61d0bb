//! Deterministic tenant-fleet generation.
//!
//! A fleet is many small services cycling through the five Table III
//! benchmark bodies, each with its own peak load and its own diurnal
//! *phase*: real tenants do not peak together, and the phase spread is
//! what makes overbooking profitable (the pool's aggregate peak is far
//! below the sum of per-tenant peaks). Everything is derived from one
//! seed so fleets are reproducible across runs and report cells.

use amoeba_sim::{Distributions, SimRng};
use amoeba_workload::{standard_benchmarks, DiurnalPattern, MicroserviceSpec};

/// Tenant-facing price card: what the vendor charges relative to its own
/// infrastructure cost, and what it refunds per QoS-violating query.
#[derive(Debug, Clone, Copy)]
pub struct TenantPricing {
    /// Tenant price = `markup` × the infrastructure list price of the
    /// resources the tenant's queries consumed.
    pub price_markup: f64,
    /// Currency credited back per QoS-violating query (the SLO credit).
    pub slo_credit: f64,
}

impl Default for TenantPricing {
    fn default() -> Self {
        TenantPricing {
            // Public-cloud serverless gross margins are large; 4x keeps
            // profit positive at moderate fleet sizes without dwarfing
            // the SLO-credit term.
            price_markup: 4.0,
            slo_credit: 1.0e-5,
        }
    }
}

/// One tenant's submission: a microservice spec (body + provisioned
/// peak), its diurnal shape, and its price card.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The service itself; `spec.peak_qps` is the provisioned peak the
    /// admission policy reserves against.
    pub spec: MicroserviceSpec,
    /// Diurnal load shape (phase-rotated per tenant). The runtime scales
    /// it to `spec.peak_qps` over the experiment's day.
    pub pattern: DiurnalPattern,
    /// Price card for this tenant.
    pub pricing: TenantPricing,
}

/// Deterministic fleet generator.
///
/// ```
/// use amoeba_tenancy::FleetBuilder;
///
/// let fleet = FleetBuilder::new(42).tenants(8).peak_scale(0.1, 0.3).build();
/// assert_eq!(fleet.len(), 8);
/// // Same seed, same fleet.
/// let again = FleetBuilder::new(42).tenants(8).peak_scale(0.1, 0.3).build();
/// assert_eq!(fleet[3].spec.name, again[3].spec.name);
/// assert_eq!(fleet[3].spec.peak_qps, again[3].spec.peak_qps);
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    seed: u64,
    n: usize,
    peak_scale: (f64, f64),
    peak_floor: f64,
    qos_slack: f64,
    pricing: TenantPricing,
}

impl FleetBuilder {
    /// A builder for a 6-tenant fleet whose peaks are 10–30 % of the
    /// base benchmark's provisioned peak, with 2× SLO slack.
    pub fn new(seed: u64) -> Self {
        FleetBuilder {
            seed,
            n: 6,
            peak_scale: (0.1, 0.3),
            peak_floor: 1.0,
            qos_slack: 2.0,
            pricing: TenantPricing::default(),
        }
    }

    /// Fleet size.
    pub fn tenants(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Uniform range the per-tenant peak is drawn from, as a multiple of
    /// the base benchmark's `peak_qps`.
    pub fn peak_scale(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo <= hi);
        self.peak_scale = (lo, hi);
        self
    }

    /// Lower clamp on the drawn per-tenant peak, qps. The default 1.0
    /// keeps report-sized fleets comfortably loaded; thousand-service
    /// fleets (the `amoeba-fleet` executor) lower it so the *aggregate*
    /// arrival volume, not the per-tenant floor, sets the event count.
    pub fn peak_floor(mut self, floor: f64) -> Self {
        assert!(floor > 0.0);
        self.peak_floor = floor;
        self
    }

    /// SLO slack: each tenant's percentile target is the base
    /// benchmark's target × `slack`. The solo targets were profiled for
    /// a dedicated deployment; tenants of a shared pool buy looser
    /// percentile SLOs, which is precisely what makes overbooking
    /// sellable. The slack flows into each tenant's own controller
    /// through the spec it switches against.
    pub fn qos_slack(mut self, slack: f64) -> Self {
        assert!(slack >= 1.0);
        self.qos_slack = slack;
        self
    }

    /// Price card applied to every tenant.
    pub fn pricing(mut self, pricing: TenantPricing) -> Self {
        self.pricing = pricing;
        self
    }

    /// Generate the fleet. Tenant `i` gets benchmark body `i mod 5`, a
    /// peak drawn from the scale range, and a diurnal pattern rotated by
    /// a random whole-hour phase (even tenants two-peak, odd tenants
    /// single-peak) so the fleet's peaks are spread around the clock.
    pub fn build(self) -> Vec<TenantSpec> {
        let bodies = standard_benchmarks();
        let shapes = [DiurnalPattern::didi(), DiurnalPattern::single_peak(0.25)];
        let (lo, hi) = self.peak_scale;
        let mut rng = SimRng::seed_from_u64(self.seed);
        (0..self.n)
            .map(|i| {
                let base = &bodies[i % bodies.len()];
                let spec = MicroserviceSpec {
                    name: format!("{}-t{i:02}", base.name),
                    demand: base.demand,
                    qos_target_s: base.qos_target_s * self.qos_slack,
                    qos_percentile: base.qos_percentile,
                    peak_qps: (base.peak_qps * rng.uniform_range(lo, hi)).max(self.peak_floor),
                    container_mem_mb: base.container_mem_mb,
                };
                let phase = rng.uniform_usize(24);
                TenantSpec {
                    spec,
                    pattern: shapes[i % 2].rotated_hours(phase),
                    pricing: self.pricing,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builds() {
        let a = FleetBuilder::new(9).tenants(10).build();
        let b = FleetBuilder::new(9).tenants(10).build();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.spec.peak_qps, y.spec.peak_qps);
            for h in 0..24 {
                let f = h as f64 / 24.0;
                assert_eq!(x.pattern.at_day_fraction(f), y.pattern.at_day_fraction(f));
            }
        }
    }

    #[test]
    fn seeds_change_the_fleet() {
        let a = FleetBuilder::new(1).tenants(4).build();
        let b = FleetBuilder::new(2).tenants(4).build();
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.spec.peak_qps != y.spec.peak_qps));
    }

    #[test]
    fn names_are_unique_and_specs_valid() {
        let fleet = FleetBuilder::new(42).tenants(12).build();
        let mut names: Vec<&str> = fleet.iter().map(|t| t.spec.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), fleet.len());
        for t in &fleet {
            assert!(t.spec.is_valid(), "{} invalid", t.spec.name);
        }
    }

    #[test]
    fn peaks_respect_scale_range() {
        let fleet = FleetBuilder::new(3)
            .tenants(10)
            .peak_scale(0.2, 0.4)
            .build();
        let bodies = standard_benchmarks();
        for (i, t) in fleet.iter().enumerate() {
            let base = bodies[i % bodies.len()].peak_qps;
            assert!(t.spec.peak_qps >= (0.2 * base).max(1.0) - 1e-9);
            assert!(t.spec.peak_qps <= 0.4 * base + 1e-9);
        }
    }

    #[test]
    fn phases_are_heterogeneous() {
        // With 12 tenants the rotated peaks should not all land on the
        // same hour: at least three distinct argmax hours.
        let fleet = FleetBuilder::new(42).tenants(12).build();
        let mut peak_hours: Vec<usize> = fleet
            .iter()
            .map(|t| {
                (0..24)
                    .max_by(|&a, &b| {
                        let fa = t.pattern.at_day_fraction(a as f64 / 24.0);
                        let fb = t.pattern.at_day_fraction(b as f64 / 24.0);
                        fa.partial_cmp(&fb).unwrap()
                    })
                    .unwrap()
            })
            .collect();
        peak_hours.sort_unstable();
        peak_hours.dedup();
        assert!(peak_hours.len() >= 3, "peak hours: {peak_hours:?}");
    }

    #[test]
    fn qos_slack_scales_the_percentile_target() {
        let tight = FleetBuilder::new(5).tenants(5).qos_slack(1.0).build();
        let loose = FleetBuilder::new(5).tenants(5).qos_slack(3.0).build();
        for (a, b) in tight.iter().zip(&loose) {
            assert!((b.spec.qos_target_s - 3.0 * a.spec.qos_target_s).abs() < 1e-12);
            // Slack draws nothing from the RNG: the rest of the fleet
            // is untouched.
            assert_eq!(a.spec.peak_qps, b.spec.peak_qps);
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        let p = DiurnalPattern::didi();
        let r = p.rotated_hours(0);
        for h in 0..24 {
            let f = h as f64 / 24.0;
            assert!((p.at_day_fraction(f) - r.at_day_fraction(f)).abs() < 1e-12);
        }
    }
}
