//! Fleet specification: from one seed to a partitioned set of cells.
//!
//! The spec scales `amoeba-tenancy`'s `FleetBuilder` to thousand-service
//! fleets and turns the result into per-cell `Experiment`s. Three
//! properties are load-bearing:
//!
//! 1. **Canonical ordering.** Tenants are sorted by name before
//!    admission and assignment, so the fleet a spec produces is a pure
//!    function of its parameters — independent of the order services
//!    were generated or registered in (property-tested in
//!    `tests/partition.rs`).
//! 2. **Order-free admission.** Vendor admission runs once, at fleet
//!    level, against the *aggregate* pool (per-cell capacity × cells).
//!    First-come-first-served over the canonical order keeps the
//!    admitted set reproducible.
//! 3. **Content-addressed placement.** A tenant's cell is a hash of its
//!    name ([`assign_cell`]), not its position: adding or removing one
//!    tenant never reshuffles the others, and the assignment is
//!    trivially permutation-invariant.

use amoeba_core::{Experiment, ServiceSetup, SystemVariant};
use amoeba_platform::ServerlessConfig;
use amoeba_sim::SimDuration;
use amoeba_tenancy::{FleetBuilder, OverbookingPolicy, PoolCapacity, TenantSpec};
use amoeba_workload::LoadTrace;

use crate::digest::{fnv1a, FNV_OFFSET};
use crate::run::FleetRun;

/// The cell a named service lands in: FNV-1a-64 of the service name,
/// modulo the cell count. Content-addressed, so the partition does not
/// depend on registration order.
pub fn assign_cell(name: &str, cells: usize) -> usize {
    assert!(cells > 0, "fleet needs at least one cell");
    (fnv1a(FNV_OFFSET, name.as_bytes()) % cells as u64) as usize
}

/// The vendor's overbooking ratio at fleet-level admission.
const OVERBOOKING_RATIO: f64 = 2.0;

/// Builder for a sharded fleet run.
///
/// Defaults model the headline experiment at report scale: 1,000
/// services × 7 simulated days, 16 cells, Amoeba controllers, 2×
/// overbooking, 60 s control period. Tests shrink `services`/`days`.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    seed: u64,
    services: usize,
    cells: usize,
    days: f64,
    day_s: f64,
    variant: SystemVariant,
    peak_scale: (f64, f64),
    peak_floor: f64,
    qos_slack: f64,
    control_period_s: f64,
    usage_sample_s: f64,
    epoch_s: f64,
    coupling: bool,
    tenants: Option<Vec<TenantSpec>>,
}

impl FleetSpec {
    /// A 1,000-service, 7-day Amoeba fleet spec.
    pub fn new(seed: u64) -> Self {
        FleetSpec {
            seed,
            services: 1000,
            cells: 16,
            days: 7.0,
            day_s: 86_400.0,
            variant: SystemVariant::Amoeba,
            // Long-tail tenants: mean per-service peak well under 0.1
            // qps, so a 1,000-service week stays ~10⁷ arrivals — a
            // vendor's fleet is many small services, not a thousand
            // copies of the headline benchmark.
            peak_scale: (0.0002, 0.002),
            peak_floor: 0.001,
            qos_slack: 2.0,
            control_period_s: 300.0,
            usage_sample_s: 600.0,
            epoch_s: 600.0,
            coupling: true,
            tenants: None,
        }
    }

    /// Fleet size (ignored when explicit [`FleetSpec::tenants`] are set).
    pub fn services(mut self, n: usize) -> Self {
        self.services = n;
        self
    }

    /// Number of cells the fleet is partitioned into. More cells expose
    /// more parallelism; the results are identical either way.
    pub fn cells(mut self, n: usize) -> Self {
        assert!(n > 0, "fleet needs at least one cell");
        self.cells = n;
        self
    }

    /// Simulated horizon in diurnal days (fractions allowed for tests).
    pub fn days(mut self, days: f64) -> Self {
        assert!(days > 0.0);
        self.days = days;
        self
    }

    /// Seconds per diurnal day (shrunk by tests; 86,400 at full scale).
    pub fn day_seconds(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.day_s = s;
        self
    }

    /// The control system every tenant runs ([`SystemVariant::Amoeba`]
    /// by default; `Nameko` gives the static-provisioning baseline).
    pub fn variant(mut self, variant: SystemVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Per-tenant peak as a uniform multiple of the base benchmark peak.
    pub fn peak_scale(mut self, lo: f64, hi: f64) -> Self {
        self.peak_scale = (lo, hi);
        self
    }

    /// Lower clamp on the drawn per-tenant peak, qps.
    pub fn peak_floor(mut self, floor: f64) -> Self {
        self.peak_floor = floor;
        self
    }

    /// Controller tick period, seconds.
    pub fn control_period_s(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.control_period_s = s;
        self
    }

    /// Usage-meter sampling period, seconds. Must fit inside the
    /// horizon for allocated core-seconds to be observed at all.
    pub fn usage_sample_s(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.usage_sample_s = s;
        self
    }

    /// Epoch (barrier) length, seconds of simulated time. Any value
    /// yields the same results; it only trades barrier overhead against
    /// coupling staleness.
    pub fn epoch_s(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.epoch_s = s;
        self
    }

    /// Enable or disable the cross-cell pressure/reclamation exchange.
    pub fn coupling(mut self, on: bool) -> Self {
        self.coupling = on;
        self
    }

    /// Use an explicit tenant list instead of generating one from the
    /// seed (the permutation-invariance tests feed shuffled lists).
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = Some(tenants);
        self
    }

    /// Generate the fleet, admit it, partition it and build the cells.
    pub fn build(self) -> FleetRun {
        let mut tenants = self.tenants.unwrap_or_else(|| {
            FleetBuilder::new(self.seed)
                .tenants(self.services)
                .peak_scale(self.peak_scale.0, self.peak_scale.1)
                .peak_floor(self.peak_floor)
                .qos_slack(self.qos_slack)
                .build()
        });
        // Canonical order: admission and cell contents become pure
        // functions of the tenant *set*.
        tenants.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));

        // Fleet-level admission against the aggregate pool: `cells`
        // per-cell pools acting as one logical vendor substrate. The
        // per-flow solo rates describe a single stream and do not scale.
        let cfg = ServerlessConfig::default();
        let scale = self.cells as f64;
        let pool = PoolCapacity {
            cores: cfg.node.cores * scale,
            mem_mb: cfg.pool_memory_mb * scale,
            io_mbps: cfg.node.disk_bw_mbps * scale,
            net_mbps: cfg.node.nic_bw_mbps * scale,
            solo_io_mbps: cfg.per_flow_io_mbps,
            solo_net_mbps: cfg.per_flow_net_mbps,
        };
        let decisions = OverbookingPolicy {
            ratio: OVERBOOKING_RATIO,
        }
        .admit(&tenants, &pool);

        let mut per_cell: Vec<Vec<ServiceSetup>> = (0..self.cells).map(|_| Vec::new()).collect();
        let mut rejected = 0usize;
        for (t, d) in tenants.into_iter().zip(&decisions) {
            if !d.admitted {
                rejected += 1;
                continue;
            }
            let cell = assign_cell(&t.spec.name, self.cells);
            let trace = LoadTrace::new(t.pattern, t.spec.peak_qps, self.day_s);
            per_cell[cell].push(ServiceSetup {
                spec: t.spec,
                trace,
                background: false,
            });
        }

        let horizon = SimDuration::from_secs_f64(self.days * self.day_s);
        let cells = per_cell
            .into_iter()
            .enumerate()
            .map(|(i, services)| {
                // Distinct, reproducible per-cell seed (splitmix-style
                // spread so nearby cells do not correlate).
                let seed = self
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Experiment::builder(self.variant, horizon, seed)
                    .services(services)
                    .control_period(SimDuration::from_secs_f64(self.control_period_s))
                    .usage_sample_period(SimDuration::from_secs_f64(self.usage_sample_s))
                    .run_meters(false)
                    .build()
            })
            .collect();

        FleetRun {
            cells,
            epoch: SimDuration::from_secs_f64(self.epoch_s),
            horizon,
            coupling: self.coupling,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_stable_and_in_range() {
        for cells in [1usize, 3, 16] {
            for name in ["geo-t00", "compress-t01", "recommend-t999"] {
                let c = assign_cell(name, cells);
                assert!(c < cells);
                assert_eq!(c, assign_cell(name, cells));
            }
        }
    }

    #[test]
    fn build_partitions_every_admitted_tenant() {
        let run = FleetSpec::new(11).services(30).cells(4).days(0.01).build();
        assert_eq!(run.cell_count(), 4);
        assert_eq!(run.service_count() + run.rejected(), 30);
    }
}
