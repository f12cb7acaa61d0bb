//! Completion accounting: every query outcome — user, shadow, meter or
//! injected — funnels through here off the effect bus.

use super::world::ServiceRt;
use super::{Experiment, SimWorld};
use crate::controller::DeploymentController;
use crate::monitor::ContentionMonitor;
use amoeba_platform::{NodeId, QueryOutcome};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    DeployMode, RecoveryKind, RecoveryRecord, TelemetryEvent, TelemetrySink, ViolationCause,
    ViolationRecord, WarmSampleRecord,
};

/// One query finished on `node`. Injected spike traffic is swallowed
/// whole; a meter sample feeds `node`'s monitor unless chaos drops or
/// corrupts it; re-queued crash victims log their recovery; everything
/// else is accounted normally, against `node`'s monitor.
pub(crate) fn on_completed<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    node: NodeId,
    outcome: QueryOutcome,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        queue,
        chaos,
        workflow,
        meter_ids,
        warmup_t,
        ..
    } = world;
    let query = outcome.query;
    if query.id.is_spike() {
        return;
    }
    let monitor = &mut cluster.nodes[node.index()].monitor;
    if let Some(m) = meter_ids.iter().position(|&x| x == query.service) {
        let latency_s = outcome.latency().as_secs_f64();
        if let Some(seen) = chaos.meter_sample(node, m, latency_s, now) {
            monitor.observe_meter_latency(m, seen);
        }
        return;
    }
    // Almost every completion is an ordinary query; skip the map probe
    // entirely while no crash-requeued queries are pending.
    if !chaos.crash_requeued.is_empty() {
        let key = (query.service.raw(), query.id.raw());
        if let Some(t_crash) = chaos.crash_requeued.remove(&key) {
            if sink.enabled() {
                sink.record(TelemetryEvent::Recovery(RecoveryRecord {
                    t: now,
                    kind: RecoveryKind::RequeuedQueryCompleted,
                    service: Some(query.service.raw() as usize),
                    after_s: now.duration_since(t_crash).as_secs_f64(),
                }));
            }
        }
    }
    account(
        exp, &outcome, now, *warmup_t, services, controller, monitor, sink,
    );
    // Workflow stage hand-off, after (and independent of) QoS
    // accounting: successors must flow even during warmup, when
    // `account` records nothing.
    if !query.id.is_shadow() {
        let idx = query.service.raw() as usize;
        if let Some((w, s)) = workflow.stage_of(idx) {
            super::workflow::on_stage_complete(
                workflow, w, s, &outcome, now, services, controller, engine, cluster, queue,
                *warmup_t, sink,
            );
        }
    }
}

/// The normal accounting path for a service's query: serverless
/// executions calibrate the controller against the monitor of the node
/// that executed them (§III), and post-warmup user queries land in the
/// latency recorder with QoS-violation and warm-breakdown attribution.
#[allow(clippy::too_many_arguments)]
fn account<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    outcome: &QueryOutcome,
    now: SimTime,
    warmup_t: SimTime,
    services: &mut [ServiceRt],
    controller: &mut DeploymentController,
    monitor: &mut ContentionMonitor,
    sink: &mut S,
) {
    let idx = outcome.query.service.raw() as usize;
    if idx >= services.len() {
        return;
    }
    let is_shadow = outcome.query.id.is_shadow();
    // Serverless executions calibrate the controller (real and
    // shadow alike); the service time excludes queueing and cold
    // start.
    if outcome.executed_on == DeployMode::Serverless && exp.variant.uses_pca() {
        let b = &outcome.breakdown;
        let service_time = (b.auth + b.code_load + b.result_post + b.exec).as_secs_f64();
        let pressures = monitor.pressures();
        let weights = monitor.weights();
        controller.observe_service_time(idx, service_time, pressures, weights);
    }
    if is_shadow {
        return;
    }
    if outcome.query.submitted < warmup_t {
        return;
    }
    let s = &mut services[idx];
    s.recorder.record(outcome.latency());
    s.completed += 1;
    // The registered spec, not `exp.services[idx]`: lowered workflow
    // stages exist only in the runtime, with their split budgets.
    let target = s.spec.qos_target_s;
    let latency_s = outcome.latency().as_secs_f64();
    if outcome.executed_on == DeployMode::Serverless {
        s.serverless_queries += 1;
        if latency_s > target {
            s.serverless_violations += 1;
        }
    }
    if sink.enabled() && latency_s > target {
        let cold_start_s = outcome.breakdown.cold_start.as_secs_f64();
        let queue_wait_s = outcome.breakdown.queue_wait.as_secs_f64();
        sink.record(TelemetryEvent::Violation(ViolationRecord {
            t: now,
            service: idx,
            platform: outcome.executed_on,
            latency_s,
            target_s: target,
            cold_start_s,
            queue_wait_s,
            cause: ViolationCause::attribute(cold_start_s, queue_wait_s),
        }));
    }
    if outcome.executed_on == DeployMode::Serverless
        && outcome.breakdown.cold_start == SimDuration::ZERO
        && outcome.breakdown.queue_wait == SimDuration::ZERO
    {
        s.breakdown.add(&outcome.breakdown);
        if sink.enabled() {
            let b = &outcome.breakdown;
            sink.record(TelemetryEvent::WarmSample(WarmSampleRecord {
                t: now,
                service: idx,
                auth_s: b.auth.as_secs_f64(),
                code_load_s: b.code_load.as_secs_f64(),
                result_post_s: b.result_post.as_secs_f64(),
                exec_s: b.exec.as_secs_f64(),
            }));
        }
    }
}
