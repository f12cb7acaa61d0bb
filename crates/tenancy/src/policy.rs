//! Vendor admission and capacity reclamation.
//!
//! The admission model follows the overbooking literature: each tenant
//! reserves a *share* of the pool — its provisioned peak demand divided
//! by pool capacity, maxed across resources — and the vendor admits
//! tenants first-come first-served while the sum of reserved shares
//! stays within an **overbooking ratio**. Ratio 1.0 is no overbooking
//! (reservations fit capacity); ratio 2.0 sells the pool twice over and
//! bets on diurnal phase spread to keep the instantaneous load feasible.

use amoeba_workload::MicroserviceSpec;

use crate::fleet::TenantSpec;

/// The serverless pool's aggregate capacity, as the admission policy
/// sees it. Constructed by the runtime from its platform configuration
/// so this crate stays platform-agnostic.
#[derive(Debug, Clone, Copy)]
pub struct PoolCapacity {
    /// CPU cores.
    pub cores: f64,
    /// Container pool memory, MB.
    pub mem_mb: f64,
    /// Disk bandwidth, MB/s.
    pub io_mbps: f64,
    /// Network bandwidth, MB/s.
    pub net_mbps: f64,
    /// Uncontended per-flow disk streaming rate, MB/s (for sizing
    /// in-flight memory).
    pub solo_io_mbps: f64,
    /// Uncontended per-flow network streaming rate, MB/s.
    pub solo_net_mbps: f64,
}

impl PoolCapacity {
    /// Validity check used by debug assertions.
    pub fn is_valid(&self) -> bool {
        self.cores > 0.0
            && self.mem_mb > 0.0
            && self.io_mbps > 0.0
            && self.net_mbps > 0.0
            && self.solo_io_mbps > 0.0
            && self.solo_net_mbps > 0.0
    }
}

/// Admission policy: admit while `Σ reserved_share ≤ ratio`.
#[derive(Debug, Clone, Copy)]
pub struct OverbookingPolicy {
    /// Overbooking ratio. 1.0 = no overbooking.
    pub ratio: f64,
}

/// One tenant's admission outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionDecision {
    /// Whether the tenant was admitted.
    pub admitted: bool,
    /// The share of the pool the tenant's provisioned peak reserves.
    pub reserved_share: f64,
}

/// The share of the pool one tenant's provisioned peak reserves: peak
/// demand rate over capacity, maxed across CPU, disk, network and
/// in-flight container memory.
pub fn reserved_share(spec: &MicroserviceSpec, pool: &PoolCapacity) -> f64 {
    debug_assert!(pool.is_valid());
    let q = spec.peak_qps;
    let d = &spec.demand;
    let cpu = q * d.cpu_s / pool.cores;
    let io = q * d.io_mb / pool.io_mbps;
    let net = q * d.net_mb / pool.net_mbps;
    // Containers in flight at peak ≈ peak_qps × solo execution time
    // (Little's law), each pinning container_mem_mb of pool memory.
    let inflight = q * d.solo_exec_seconds(pool.solo_io_mbps, pool.solo_net_mbps);
    let mem = inflight * spec.container_mem_mb / pool.mem_mb;
    cpu.max(io).max(net).max(mem)
}

impl OverbookingPolicy {
    /// Run admission over a fleet in submission order. Rejected tenants
    /// free their share for later (smaller) tenants, matching the
    /// first-fit admission the overbooking model assumes.
    pub fn admit(&self, fleet: &[TenantSpec], pool: &PoolCapacity) -> Vec<AdmissionDecision> {
        let mut booked = 0.0;
        fleet
            .iter()
            .map(|t| {
                let share = reserved_share(&t.spec, pool);
                let admitted = booked + share <= self.ratio + 1e-12;
                if admitted {
                    booked += share;
                }
                AdmissionDecision {
                    admitted,
                    reserved_share: share,
                }
            })
            .collect()
    }
}

/// Pool utilisation at or above which tenant caps are throttled.
const HIGH_WATERMARK: f64 = 0.90;
/// Pool utilisation below which throttled caps are restored.
const LOW_WATERMARK: f64 = 0.70;
/// Per-tenant container cap while throttled.
const THROTTLED_CAP: u32 = 4;

/// Watermark-based capacity reclamation, the vendor's overbooking
/// control loop. When peak pool utilisation reaches the high watermark
/// (0.90) the vendor clamps every tenant's container cap to 4,
/// reclaiming headroom for the pool as a whole; when it falls below the
/// low watermark (0.70) the clamp is lifted. Hysteresis between the two
/// watermarks prevents flapping. The in-run vendor tick and the fleet's
/// epoch exchange both step one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reclamation {
    /// Whether tenant caps are currently throttled.
    pub throttled: bool,
    /// Throttle activations so far.
    pub activations: u64,
}

impl Reclamation {
    /// One step of the state machine at peak pool utilisation `peak`.
    /// When the throttle state flips, returns the container cap to
    /// apply to every tenant: `Some(Some(4))` on throttling and
    /// `Some(None)`, no cap, on restoring. Returns `None` when nothing
    /// changes.
    pub fn step(&mut self, peak: f64) -> Option<Option<u32>> {
        let throttled = if self.throttled {
            peak >= LOW_WATERMARK
        } else {
            peak >= HIGH_WATERMARK
        };
        if throttled == self.throttled {
            return None;
        }
        self.throttled = throttled;
        self.activations += u64::from(throttled);
        Some(throttled.then_some(THROTTLED_CAP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetBuilder;

    fn pool() -> PoolCapacity {
        PoolCapacity {
            cores: 40.0,
            mem_mb: 48.0 * 1024.0,
            io_mbps: 3000.0,
            net_mbps: 3125.0,
            solo_io_mbps: 500.0,
            solo_net_mbps: 250.0,
        }
    }

    #[test]
    fn reserved_share_scales_with_peak() {
        let mut spec = amoeba_workload::benchmark_by_name("matmul").unwrap();
        let p = pool();
        spec.peak_qps = 10.0;
        let s10 = reserved_share(&spec, &p);
        spec.peak_qps = 20.0;
        let s20 = reserved_share(&spec, &p);
        assert!(s10 > 0.0);
        assert!((s20 - 2.0 * s10).abs() < 1e-12);
    }

    #[test]
    fn io_bound_tenant_is_io_limited() {
        // dd at high qps: the io term should dominate the cpu term.
        let mut spec = amoeba_workload::benchmark_by_name("dd").unwrap();
        spec.peak_qps = 40.0;
        let p = pool();
        let share = reserved_share(&spec, &p);
        let io_term = spec.peak_qps * spec.demand.io_mb / p.io_mbps;
        assert!((share - io_term).abs() < 1e-9 || share > io_term);
        assert!(io_term > spec.peak_qps * spec.demand.cpu_s / p.cores);
    }

    #[test]
    fn higher_ratio_admits_at_least_as_many() {
        let fleet = FleetBuilder::new(42)
            .tenants(16)
            .peak_scale(0.3, 0.6)
            .build();
        let p = pool();
        let mut prev = 0;
        for ratio in [0.5, 1.0, 1.5, 2.0, 3.0] {
            let n = OverbookingPolicy { ratio }
                .admit(&fleet, &p)
                .iter()
                .filter(|d| d.admitted)
                .count();
            assert!(n >= prev, "ratio {ratio}: {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn admission_respects_the_budget() {
        let fleet = FleetBuilder::new(7)
            .tenants(20)
            .peak_scale(0.3, 0.6)
            .build();
        let p = pool();
        let ratio = 1.5;
        let decisions = OverbookingPolicy { ratio }.admit(&fleet, &p);
        let booked: f64 = decisions
            .iter()
            .filter(|d| d.admitted)
            .map(|d| d.reserved_share)
            .sum();
        assert!(booked <= ratio + 1e-9, "booked {booked} > ratio {ratio}");
        // And at least one tenant must have been rejected at this scale.
        assert!(decisions.iter().any(|d| !d.admitted));
    }

    #[test]
    fn reclamation_hysteresis() {
        let mut r = Reclamation::default();
        assert_eq!(r.step(0.85), None, "below high watermark stays off");
        assert_eq!(r.step(0.95), Some(Some(4)), "above high throttles");
        assert_eq!(r.step(0.80), None, "between watermarks stays throttled");
        assert!(r.throttled);
        assert_eq!(r.step(0.60), Some(None), "below low watermark restores");
        assert!(!r.throttled);
        assert_eq!(r.step(0.90), Some(Some(4)), "at high throttles");
        assert_eq!(r.activations, 2);
    }
}
