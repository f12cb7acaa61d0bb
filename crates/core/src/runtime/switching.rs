//! The switch protocol's effect-side handlers (§V-B): prewarm and VM
//! boot acknowledgements flip the router through the engine, and the
//! drained ack (or the engine's watchdog) reclaims the old side. The
//! release an ack yields goes to the platforms through
//! `Cluster::apply`, like every engine action.

use super::SimWorld;
use amoeba_platform::ServiceId;
use amoeba_sim::SimTime;
use amoeba_telemetry::{DeployMode, FaultKind, FaultRecord, TelemetryEvent, TelemetrySink};

/// The serverless side acked a prewarm: unless chaos eats the ack on
/// the wire, the engine completes the switch-down and the old IaaS
/// side is released (watchdogged).
pub(crate) fn on_prewarm_ready<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        chaos,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        // Chaos can lose the ack on the wire; the
        // engine's deadline retry recovers it.
        if engine.in_transition(service) && chaos.injector.drop_prewarm_ack() {
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::AckDropped,
                    service: Some(idx),
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
            return;
        }
        let load = controller.estimated_load(idx, now);
        if let Some(action) = engine.on_ready(service, DeployMode::Serverless, load, now, sink) {
            cluster.apply(action, now);
        }
    }
}

/// The IaaS side acked its VM group boot: the engine completes the
/// switch-up and releases the serverless pool.
pub(crate) fn on_vm_group_ready<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        let load = controller.estimated_load(idx, now);
        if let Some(action) = engine.on_ready(service, DeployMode::Iaas, load, now, sink) {
            cluster.apply(action, now);
        }
    }
}

/// The old IaaS side has finished its in-flight queries: the span's
/// terminal step, which disarms the engine's drain watchdog.
pub(crate) fn on_iaas_drained<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        ..
    } = world;
    // Meters and other unmanaged ids fall out here.
    let idx = service.raw() as usize;
    if idx < services.len() {
        engine.on_drained(service, now, || controller.estimated_load(idx, now), sink);
    }
}
