//! Multi-tenant runtime state and the vendor's control tick.
//!
//! Tenant services are lowered into ordinary foreground [`ServiceRt`]
//! rows at setup (each runs its own controller), so the only genuinely
//! new machinery here is the vendor side: watermark-based capacity
//! reclamation over the per-service container caps, and the telemetry
//! that records what the vendor saw and did.
//!
//! [`ServiceRt`]: super::world::ServiceRt

use super::{Ev, SimWorld};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{TelemetryEvent, TelemetrySink, VendorSampleRecord};
use amoeba_tenancy::{AdmissionDecision, Reclamation};
use amoeba_workload::{DemandVector, MicroserviceSpec};

/// Ceiling on endogenous pressure readings. The contention surfaces are
/// profiled up to 0.9; capping just above keeps the lookup in range
/// while still signalling saturation.
pub(crate) const PRESSURE_CAP: f64 = 0.95;

/// The vendor's control-loop period.
pub(crate) const VENDOR_TICK: SimDuration = SimDuration::from_secs(5);

/// Mutable tenancy bookkeeping, present when a [`TenancySetup`] is
/// attached.
///
/// [`TenancySetup`]: amoeba_tenancy::TenancySetup
pub(crate) struct TenancyRt {
    /// Admission outcome per submitted tenant, in fleet order.
    pub(crate) decisions: Vec<AdmissionDecision>,
    /// Runtime service index per tenant (`None` = rejected).
    pub(crate) svc: Vec<Option<usize>>,
    /// The vendor's watermark reclamation over the tenant caps.
    pub(crate) reclamation: Reclamation,
    /// The dedicated service injected pressure-spike traffic lands on
    /// in tenancy mode (registered after the meters).
    pub(crate) interference_sid: amoeba_platform::ServiceId,
}

/// The synthetic service chaos pressure-spike traffic executes as in
/// tenancy mode: a mixed cpu/io/net demand so a spike pressures every
/// metered resource, and a QoS target nobody accounts against.
pub(crate) fn interference_spec() -> MicroserviceSpec {
    MicroserviceSpec {
        name: "chaos-interference".to_string(),
        demand: DemandVector {
            cpu_s: 0.050,
            mem_mb: 128.0,
            io_mb: 10.0,
            net_mb: 10.0,
        },
        qos_target_s: 10.0,
        qos_percentile: 0.95,
        peak_qps: 50.0,
        container_mem_mb: 256.0,
    }
}

/// One vendor control period elapsed: read pool occupancy, step the
/// reclamation state machine (throttling or restoring every admitted
/// tenant's container cap), record the sample, and re-arm.
pub(crate) fn on_vendor_tick<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        cluster,
        services,
        tenancy,
        queue,
        horizon_t,
        ..
    } = world;
    let Some(trt) = tenancy.as_mut() else {
        return;
    };
    let serverless = &mut cluster.nodes[0].serverless;
    let util = serverless.utilization();
    let peak = util[0].max(util[1]).max(util[2]);
    if let Some(cap) = trt.reclamation.step(peak) {
        for idx in trt.svc.iter().flatten() {
            serverless.set_tenant_cap(services[*idx].sid, cap);
        }
    }
    if sink.enabled() {
        sink.record(TelemetryEvent::VendorSample(VendorSampleRecord {
            t: now,
            pool_util: util,
            containers: serverless.total_containers() as u64,
            throttled: trt.reclamation.throttled,
        }));
    }
    let next = now + VENDOR_TICK;
    if next < *horizon_t {
        queue.push(next, Ev::VendorTick);
    }
}
