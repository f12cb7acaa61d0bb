//! The control tick (§IV): drain watchdog, per-service deployment
//! decisions through the controller/engine pair, and the shadow
//! calibration traffic.
//!
//! The per-service decision body lives in [`decide_service`] so two
//! callers share it byte-identically: the synchronous in-tick loop
//! (the legacy path, and the only one exercised while
//! [`Experiment::control_jitter_frac`] is zero), and the
//! jitter-deferred [`on_service_decision`] handler that fires each
//! service's decision at its own offset past the shared tick.

use super::cluster::INGRESS;
use super::fabric::fleet_utilization;
use super::tenancy::PRESSURE_CAP;
use super::{record_forecast, Ev, Experiment, SimWorld};
use crate::controller::prewarm_count;
use crate::engine::{DeadlineAction, DRAIN_TIMEOUT_S};
use amoeba_platform::{NodeId, Query, QueryId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    Decision, DeployMode, FaultKind, FaultRecord, NodeUtilRecord, RecoveryKind, RecoveryRecord,
    TelemetryEvent, TelemetrySink, TickReason, TickRecord,
};

/// The pressures a decision on `node` is evaluated against: the
/// locally measured signal (endogenous pool occupancy under tenancy,
/// the node's monitor otherwise) plus any cross-cell pressure injected
/// by the fleet executor's epoch exchange, capped where the contention
/// surfaces are profiled. With no external term — every serial run —
/// this is exactly the measured signal.
pub(crate) fn effective_pressures(world: &SimWorld, node: NodeId) -> [f64; 3] {
    let rt = &world.cluster.nodes[node.index()];
    let base = if world.tenancy.is_some() {
        rt.serverless.utilization().map(|u| u.min(PRESSURE_CAP))
    } else {
        rt.monitor.pressures()
    };
    let ext = world.external_pressure;
    if ext == [0.0; 3] {
        base
    } else {
        [
            (base[0] + ext[0]).min(PRESSURE_CAP),
            (base[1] + ext[1]).min(PRESSURE_CAP),
            (base[2] + ext[2]).min(PRESSURE_CAP),
        ]
    }
}

/// Current serverless co-tenants with their estimated loads — the
/// cross-service term of Eq. 5's contention model — grouped by home
/// node: co-tenancy is per pool, so only services sharing a home node
/// contend for the same serverless capacity.
fn co_tenant_loads(world: &SimWorld, now: SimTime) -> Vec<Vec<(usize, f64)>> {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        ..
    } = world;
    let mut by_node = vec![Vec::new(); cluster.nodes.len()];
    for (j, svc) in services.iter().enumerate() {
        if svc.background || engine.mode(svc.sid) == DeployMode::Serverless {
            by_node[engine.home(svc.sid).index()].push((j, controller.estimated_load(j, now)));
        }
    }
    by_node
}

/// One control period elapsed: reclaim overdue drains, snapshot every
/// node's monitor, let the controller decide per unpinned service on
/// its home node's signal (riding out in-flight switches via the
/// ack-deadline machinery), and mirror one shadow query per IaaS-mode
/// service to keep calibration fed (§III).
pub(crate) fn on_control_tick<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    drain_watchdog(world, now, sink);
    let pressures: Vec<[f64; 3]> = (0..world.cluster.nodes.len())
        .map(|i| effective_pressures(world, NodeId::new(i)))
        .collect();
    let ingress = pressures[INGRESS.index()];
    world.pressure_sum[0] += ingress[0];
    world.pressure_sum[1] += ingress[1];
    world.pressure_sum[2] += ingress[2];
    world.pressure_samples += 1;
    // Fleet utilization snapshot (multi-node runs only; single-node
    // traces keep their legacy event stream byte-identical).
    if sink.enabled() && world.cluster.nodes.len() > 1 {
        let (mean_util, max_node_util) = fleet_utilization(&world.cluster.nodes);
        sink.record(TelemetryEvent::NodeUtil(NodeUtilRecord {
            t: now,
            mean_util,
            max_node_util,
        }));
    }
    if exp.variant.switches() {
        {
            let SimWorld {
                services,
                controller,
                workflow,
                ..
            } = world;
            // Feed each unpinned service's forecaster before
            // any decision this tick. Unconditional (not
            // sink-gated): the forecast is control-plane
            // state, so traced and untraced runs stay
            // bit-identical. A no-op for reactive variants.
            for (idx, svc) in services.iter().enumerate() {
                if !svc.pinned {
                    controller.observe_load(idx, now);
                }
            }
            // λ-shift accounting: every instance visits every stage once,
            // so each non-root stage is about to see the root's current λ
            // (time-shifted by upstream latency). Hint it to the
            // controller before this tick's decisions — the stage's own
            // arrival window lags the root by the upstream latencies and
            // goes stale across an upstream switch.
            for wf in &workflow.workflows {
                let root = wf.spec.root();
                let lam = controller.estimated_load(wf.svc[root], now);
                for (s, &svc_idx) in wf.svc.iter().enumerate() {
                    if s != root {
                        controller.set_load_hint(svc_idx, Some(lam));
                    }
                }
            }
        }
        let others = co_tenant_loads(world, now);
        for idx in 0..world.services.len() {
            if world.services[idx].pinned {
                continue;
            }
            let offset = world.services[idx].control_offset;
            if offset != SimDuration::ZERO {
                // Jittered phase: defer this service's decision to its
                // own offset past the tick. Decisions past the horizon
                // are dropped, matching the tick re-arm gate.
                if now + offset < world.horizon_t {
                    world.queue.push(now + offset, Ev::ServiceDecision { idx });
                }
                continue;
            }
            let home = world.engine.home(world.services[idx].sid).index();
            decide_service(exp, world, idx, now, pressures[home], &others[home], sink);
        }
        shadow_probes(exp, world, now);
    }
    let next = now + exp.control_period;
    if next < world.horizon_t {
        world.queue.push(next, Ev::ControlTick);
    }
}

/// A jitter-deferred decision fires: re-measure pressures and co-tenant
/// loads *now* (the whole point of the offset — this service sees the
/// pool as its peers' same-tick switches left it, not the shared
/// start-of-tick snapshot) and run the common decision body.
pub(crate) fn on_service_decision<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    idx: usize,
    now: SimTime,
    sink: &mut S,
) {
    if world.services[idx].pinned {
        return;
    }
    let home = world.engine.home(world.services[idx].sid);
    let pressures = effective_pressures(world, home);
    let others = co_tenant_loads(world, now);
    decide_service(exp, world, idx, now, pressures, &others[home.index()], sink);
}

/// Drain watchdog: a released IaaS group whose drained ack the engine
/// finds overdue is reclaimed forcibly and its in-flight queries
/// re-queued on serverless.
fn drain_watchdog<S: TelemetrySink + ?Sized>(world: &mut SimWorld, now: SimTime, sink: &mut S) {
    let SimWorld {
        services,
        engine,
        cluster,
        queue,
        ..
    } = world;
    for (idx, svc) in services.iter().enumerate() {
        let sid = svc.sid;
        if !engine.take_overdue_drain(sid, now) {
            continue;
        }
        // The overdue group lives on the service's home node.
        let home = engine.home(sid);
        let (eff, displaced) = cluster.nodes[home.index()].iaas.force_drain(sid, now);
        cluster.bus.extend(home, eff);
        if sink.enabled() {
            sink.record(TelemetryEvent::Fault(FaultRecord {
                t: now,
                kind: FaultKind::DrainTimeout,
                service: Some(idx),
                queries_displaced: displaced.len() as u64,
                queries_dropped: 0,
            }));
            sink.record(TelemetryEvent::Recovery(RecoveryRecord {
                t: now,
                kind: RecoveryKind::DrainForced,
                service: Some(idx),
                after_s: DRAIN_TIMEOUT_S,
            }));
        }
        // Displaced work re-queues on the home node's pool, keeping
        // the original submit time.
        for q in displaced {
            cluster.submit(
                home,
                q,
                DeployMode::Serverless,
                SimDuration::ZERO,
                now,
                queue,
            );
        }
    }
}

/// The per-service decision body, shared between the synchronous tick
/// loop and the jitter-deferred path: ride out an in-flight switch via
/// the ack-deadline machinery, otherwise consult the controller, on the
/// home node's `pressures` and monitor weights, and apply whatever the
/// engine wants done.
fn decide_service<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    idx: usize,
    now: SimTime,
    pressures: [f64; 3],
    others: &[(usize, f64)],
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        wasted_prewarms,
        failed_switches,
        ..
    } = world;
    let sid = services[idx].sid;
    let mode = engine.mode(sid);
    let weights = cluster.nodes[engine.home(sid).index()].monitor.weights();
    if engine.in_transition(sid) {
        // Ack deadline: a lost prewarm/boot ack
        // must not park the switch forever — retry
        // with backoff, then roll back (the router
        // keeps serving from the old platform
        // throughout, so nothing is dropped).
        if let Some(act) = engine.poll_deadline(sid, now, sink) {
            let (action, prewarm, rolled_back_after) = match act {
                DeadlineAction::Retried {
                    action, prewarm, ..
                } => (action, prewarm, None),
                DeadlineAction::Aborted {
                    action,
                    prewarm,
                    requested_at,
                } => {
                    *failed_switches += 1;
                    (action, prewarm, Some(now.duration_since(requested_at)))
                }
            };
            *wasted_prewarms += prewarm as u64;
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::AckTimeout,
                    service: Some(idx),
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
                if let Some(after) = rolled_back_after {
                    sink.record(TelemetryEvent::Recovery(RecoveryRecord {
                        t: now,
                        kind: RecoveryKind::SwitchRolledBack,
                        service: Some(idx),
                        after_s: after.as_secs_f64(),
                    }));
                }
            }
            cluster.apply(action, now);
            return;
        }
        // The controller is not consulted while a
        // switch is in flight, but the tick is
        // still recorded (decide_explained is
        // pure, so this costs nothing when the
        // sink is disabled).
        if sink.enabled() {
            let (_, mut tr) = controller.decide_explained(
                idx,
                mode,
                now,
                engine.last_switch(sid),
                pressures,
                weights,
                others,
            );
            let eq5 = controller.fill_discriminant(idx, &mut tr);
            sink.record(TelemetryEvent::Tick(TickRecord {
                t: now,
                service: idx,
                mode,
                load_qps: tr.load_qps,
                mu: eq5.mu,
                lambda_max: eq5.lambda_max,
                pressures: tr.pressures,
                weights,
                decision: Decision::Stay,
                reason: TickReason::InTransition,
            }));
            record_forecast(sink, now, idx, &tr);
        }
        return;
    }
    let (decision, mut tr) = controller.decide_explained(
        idx,
        mode,
        now,
        engine.last_switch(sid),
        pressures,
        weights,
        others,
    );
    if sink.enabled() {
        // The record carries μ and λ(μ) even where the verdict read
        // neither; the values are the same either way.
        let eq5 = controller.fill_discriminant(idx, &mut tr);
        sink.record(TelemetryEvent::Tick(TickRecord {
            t: now,
            service: idx,
            mode,
            load_qps: tr.load_qps,
            mu: eq5.mu,
            lambda_max: eq5.lambda_max,
            pressures: tr.pressures,
            weights,
            decision,
            reason: tr.reason,
        }));
        record_forecast(sink, now, idx, &tr);
    }
    let load = tr.load_qps;
    let action = match decision {
        Decision::Stay => None,
        Decision::SwitchToServerless => {
            let model = controller.model(idx);
            // Prewarm for the load the decision
            // was evaluated at — in proactive
            // mode the forecast upper bound, so
            // the pool is sized for the load
            // arriving by the time it is warm.
            let n = prewarm_count(tr.eval_qps, model.spec.qos_target_s);
            let n = ((n as f64 * exp.prewarm_factor).ceil() as u32)
                .max(1)
                .min(model.n_max);
            engine.begin_switch(sid, DeployMode::Serverless, n, load, now, sink)
        }
        Decision::SwitchToIaas => engine.begin_switch(sid, DeployMode::Iaas, 0, load, now, sink),
    };
    if let Some(action) = action {
        cluster.apply(action, now);
    }
}

/// Shadow traffic: one mirrored query per IaaS-mode
/// service per tick keeps calibration fed (§III).
fn shadow_probes(exp: &Experiment, world: &mut SimWorld, now: SimTime) {
    if !exp.variant.uses_pca() {
        return;
    }
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        ..
    } = world;
    for (idx, svc) in services.iter_mut().enumerate() {
        let sid = svc.sid;
        if svc.background
            || engine.mode(sid) != DeployMode::Iaas
            || controller.estimated_load(idx, now) <= 0.0
        {
            continue;
        }
        let query = Query {
            id: QueryId::shadow_probe(svc.next_query_id),
            service: sid,
            submitted: now,
        };
        svc.next_query_id += 1;
        // The probe mirrors onto the home node's pool as internal
        // traffic: no wire delay, and it ends no drain.
        cluster.probe(engine.home(sid), query, now);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{settle, two_homes};
    use super::super::world;
    use super::*;
    use crate::baselines::SystemVariant;
    use amoeba_platform::{Scheduler, ServiceId};
    use amoeba_telemetry::NoopSink;

    #[test]
    fn a_shadow_probe_on_a_peer_node_ends_no_drain() {
        // Service 1 runs on IaaS on its home node 1, whose pool drains
        // it. Two probes run at once; a draining pool retires the
        // second container instead of idling it.
        let exp = two_homes(SystemVariant::Amoeba, Scheduler::AmoebaPerNode);
        let mut w = world::setup(&exp, &mut NoopSink);
        let sid = ServiceId(1);
        let home = NodeId::new(1);
        assert_eq!(
            (w.engine.home(sid), w.engine.mode(sid)),
            (home, DeployMode::Iaas)
        );
        w.cluster.nodes[home.index()]
            .serverless
            .release_service(sid);
        let now = SimTime::from_secs(1);
        w.controller.record_arrival(1, now);
        shadow_probes(&exp, &mut w, now);
        shadow_probes(&exp, &mut w, now);
        settle(&exp, &mut w, now, SimTime::from_secs(30));
        let pool = &w.cluster.nodes[home.index()].serverless;
        assert_eq!(pool.completed_count(), 2);
        assert_eq!(pool.container_count(sid), 1, "the drain still holds");
    }
}
