#![warn(missing_docs)]
//! Multi-tenancy for the Amoeba reproduction: the vendor's side of the
//! story.
//!
//! Amoeba's contention meters exist because the serverless pool is
//! shared, yet the base reproduction reads an *exogenous* pressure
//! signal — profiled `p95(load, pressure)` surfaces plus chaos spikes.
//! This crate populates the pool with many tenant services whose own
//! load **generates** the pressure the meters read, and adds the
//! vendor-side machinery the overbooking literature frames around it:
//!
//! * [`FleetBuilder`] — deterministic generator of tenant fleets with
//!   heterogeneous diurnal phases (rotated two-peak / single-peak
//!   patterns), so tenant peaks do not all align;
//! * [`OverbookingPolicy`] — admission parameterised by an overbooking
//!   ratio over per-tenant *reserved shares* (peak demand over pool
//!   capacity, max across resources);
//! * [`Reclamation`] — the watermark state machine that throttles
//!   per-tenant container caps when the pool saturates, stepped by the
//!   in-run vendor tick and by the fleet's epoch exchange alike;
//! * [`VendorLedger`] — per-tenant revenue, SLO-credit and vendor-cost
//!   accounting, rolled up into a profit figure.
//!
//! The runtime consumes a [`TenancySetup`] (tenants + policy) and
//! reports a [`TenancySummary`] next to the usual per-service results.
//! Under tenancy, measured pressure is derived from pool occupancy
//! instead of the exogenous input:
//!
//! ```text
//! p_r(t) = min(p_cap, U_pool(t))        r ∈ {cpu, io, net}
//! ```
//!
//! where `U_pool` is the serverless pool's resource utilisation — the
//! pressure-emergence equation of DESIGN.md §15. A run with no setup
//! attached reads the monitor's exogenous signal.

pub mod fleet;
pub mod ledger;
pub mod policy;

pub use fleet::{FleetBuilder, TenantPricing, TenantSpec};
pub use ledger::{TenantAccount, VendorLedger};
pub use policy::{AdmissionDecision, OverbookingPolicy, PoolCapacity, Reclamation};

/// Everything the runtime needs to populate a run with tenants and run
/// the vendor's control loop. Attach one to an experiment to switch the
/// multi-tenant machinery on; `None` (the default) is the
/// single-maintainer mode.
#[derive(Debug, Clone)]
pub struct TenancySetup {
    /// The tenant fleet, in submission order (admission is first-come
    /// first-served against the overbooking budget).
    pub tenants: Vec<TenantSpec>,
    /// Vendor admission policy.
    pub policy: OverbookingPolicy,
}

impl TenancySetup {
    /// A setup with the given fleet and overbooking ratio.
    pub fn new(tenants: Vec<TenantSpec>, ratio: f64) -> Self {
        TenancySetup {
            tenants,
            policy: OverbookingPolicy { ratio },
        }
    }
}

/// End-of-run roll-up of the vendor's books and admission outcome,
/// reported next to the per-service results.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancySummary {
    /// Overbooking ratio the run was admitted under.
    pub ratio: f64,
    /// Tenants admitted.
    pub admitted: usize,
    /// Tenants rejected at admission.
    pub rejected: usize,
    /// Sum of admitted tenants' reserved shares (≤ ratio by policy).
    pub reserved_total: f64,
    /// Admitted tenants whose percentile QoS target was met.
    pub tenants_qos_met: usize,
    /// Admitted tenants whose percentile QoS target was missed.
    pub tenants_in_violation: usize,
    /// Raw QoS-violating queries summed across tenants.
    pub violation_queries: u64,
    /// Vendor-tick reclamation throttle activations.
    pub reclamations: u64,
    /// The vendor's books.
    pub ledger: VendorLedger,
}
