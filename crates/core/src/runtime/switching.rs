//! The switch protocol's effect-side handlers (§V-B): prewarm and VM
//! boot acknowledgements flip the router through the engine, and the
//! drained ack (or its watchdog) reclaims the old side.

use super::cluster::Cluster;
use super::SimWorld;
use crate::engine::EngineAction;
use amoeba_platform::ServiceId;
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    DeployMode, FaultKind, FaultRecord, SwitchPhase, SwitchRecord, TelemetryEvent, TelemetrySink,
};

/// How long the runtime waits for the old IaaS side's `IaasDrained`
/// ack after a switch completes before forcibly reclaiming the group.
/// The §V shutdown step must terminate even if completions are lost.
pub(crate) const DRAIN_TIMEOUT_S: f64 = 60.0;

/// Keep the drain watchdog in step with the IaaS-target actions among
/// `actions`. A release arms it: if the group's `IaasDrained` ack never
/// arrives, the first control tick past the deadline reclaims it
/// forcibly. A prepare disarms it: the group is being re-activated, and
/// a stale deadline would force-drain the group the router is about to
/// use (a release can land while the group is still booting, so its
/// drained ack may never come before the switch back).
fn update_drain_watchdog(
    actions: &[EngineAction],
    now: SimTime,
    drain_deadline: &mut [Option<SimTime>],
) {
    for a in actions {
        let (service, deadline) = match *a {
            EngineAction::Release { service, target } if target.mode == DeployMode::Iaas => (
                service,
                Some(now + SimDuration::from_secs_f64(DRAIN_TIMEOUT_S)),
            ),
            EngineAction::Prepare {
                service, target, ..
            } if target.mode == DeployMode::Iaas => (service, None),
            _ => continue,
        };
        if let Some(slot) = drain_deadline.get_mut(service.raw() as usize) {
            *slot = deadline;
        }
    }
}

/// Carry one batch of engine actions to the nodes they target: keep
/// the drain watchdog in step, then apply each action through
/// [`Cluster::apply`], with responses landing on the effect bus. This
/// is the *only* path from an engine decision to platform state.
pub(crate) fn apply_engine_actions(
    actions: Vec<EngineAction>,
    now: SimTime,
    cluster: &mut Cluster,
    drain_deadline: &mut [Option<SimTime>],
) {
    update_drain_watchdog(&actions, now, drain_deadline);
    for action in actions {
        cluster.apply(action, now);
    }
}

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
        drain_deadline,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        // Chaos can lose the ack on the wire; the
        // engine's deadline retry recovers it.
        if let Some(ch) = chaos.as_mut() {
            if engine.in_transition(service) && ch.injector.drop_prewarm_ack() {
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
        }
        let load = controller.estimated_load(idx, now);
        let actions = engine.on_ready(service, DeployMode::Serverless, load, now, sink);
        apply_engine_actions(actions, now, cluster, drain_deadline);
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
        drain_deadline,
        ..
    } = world;
    if (service.raw() as usize) < services.len() {
        let idx = service.raw() as usize;
        let load = controller.estimated_load(idx, now);
        let actions = engine.on_ready(service, DeployMode::Iaas, load, now, sink);
        apply_engine_actions(actions, now, cluster, drain_deadline);
    }
}

/// The old IaaS side has finished its in-flight queries: the span's
/// terminal step. Disarms the drain watchdog.
pub(crate) fn on_iaas_drained<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    service: ServiceId,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        drain_deadline,
        ..
    } = world;
    // Resolve the service index once; everything below is in bounds by
    // construction (meters and other unmanaged ids fall out here).
    let idx = service.raw() as usize;
    if idx >= services.len() {
        return;
    }
    drain_deadline[idx] = None;
    if sink.enabled() {
        sink.record(TelemetryEvent::Switch(SwitchRecord {
            t: now,
            service: idx,
            from: DeployMode::Iaas,
            to: DeployMode::Serverless,
            phase: SwitchPhase::Drained,
            prewarm_count: 0,
            load_qps: controller.estimated_load(idx, now),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_platform::{NodeId, TargetId};

    #[test]
    fn iaas_release_arms_the_drain_watchdog_and_iaas_prepare_disarms_it() {
        let s = ServiceId(1);
        let node = NodeId::new(2);
        let t = |secs| SimTime::from_secs(secs);
        let mut deadline = vec![None; 2];
        // Serverless-side actions leave the watchdog alone.
        update_drain_watchdog(
            &[EngineAction::Release {
                service: s,
                target: TargetId::serverless(node),
            }],
            t(5),
            &mut deadline,
        );
        assert_eq!(deadline, [None, None]);
        update_drain_watchdog(
            &[EngineAction::Release {
                service: s,
                target: TargetId::iaas(node),
            }],
            t(10),
            &mut deadline,
        );
        assert_eq!(
            deadline[1],
            Some(t(10) + SimDuration::from_secs_f64(DRAIN_TIMEOUT_S))
        );
        update_drain_watchdog(
            &[EngineAction::Prepare {
                service: s,
                target: TargetId::serverless(node),
                count: 3,
            }],
            t(20),
            &mut deadline,
        );
        assert!(
            deadline[1].is_some(),
            "a prewarm does not touch the VM group"
        );
        // Switching back to IaaS re-activates the group: its stale
        // deadline must not force-drain it.
        update_drain_watchdog(
            &[EngineAction::Prepare {
                service: s,
                target: TargetId::iaas(node),
                count: 0,
            }],
            t(30),
            &mut deadline,
        );
        assert_eq!(deadline, [None, None]);
    }
}
