//! Chaos bookkeeping and fault-domain event handlers: the platform
//! event feed (whose VM boots chaos may fail or delay), the timed
//! fault calendar, and injected pressure-spike traffic.

use super::cluster::NodeRt;
use super::{Ev, SimWorld};
use amoeba_chaos::{BootOutcome, FaultInjector, TimedFault};
use amoeba_platform::{ClusterEvent, IaasConfig, NodeId, Query, QueryId, ServiceId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    DeployMode, FaultKind, FaultRecord, RecoveryKind, RecoveryRecord, TelemetryEvent, TelemetrySink,
};
use std::collections::BTreeMap;

/// Mutable chaos bookkeeping for one run. Everything here is driven by
/// the injector's private RNG stream, and under the zero plan
/// ([`FaultPlan::default`]) nothing is ever scheduled or failed.
///
/// [`FaultPlan::default`]: amoeba_chaos::FaultPlan::default
pub(crate) struct ChaosRt {
    pub(crate) injector: FaultInjector,
    /// Meter heartbeats completing before this time are silently lost,
    /// per meter: node `n`'s meter `m` is entry `3n + m`.
    pub(crate) meter_outage_until: Vec<SimTime>,
    /// Pending one-shot latency corruptions per meter, indexed as
    /// `meter_outage_until`.
    pub(crate) meter_outlier_pending: Vec<u32>,
    /// Queries re-queued after a container crash, keyed by
    /// (service, query id) — per-service query ids collide across
    /// services — with the time of the first crash, for recovery-time
    /// accounting.
    pub(crate) crash_requeued: BTreeMap<(u32, u64), SimTime>,
    /// First failed/slow boot per service since the last healthy one.
    pub(crate) boot_fault_since: Vec<Option<SimTime>>,
    /// Id counter for injected spike queries.
    pub(crate) spike_next_id: u64,
}

impl ChaosRt {
    /// What the monitor sees of meter `m`'s sample of `latency_s`
    /// seconds on `node`: nothing inside an outage window, a scaled
    /// value while an outlier is pending, the sample itself otherwise.
    pub(crate) fn meter_sample(
        &mut self,
        node: NodeId,
        m: usize,
        latency_s: f64,
        now: SimTime,
    ) -> Option<f64> {
        let g = 3 * node.index() + m;
        if now < self.meter_outage_until[g] {
            return None; // heartbeat lost in the blackout
        }
        if self.meter_outlier_pending[g] > 0 {
            self.meter_outlier_pending[g] -= 1;
            return Some(latency_s * self.injector.plan().outlier_factor);
        }
        Some(latency_s)
    }
}

/// The node holding the `victim`-th container when every node's
/// containers are counted in node order, and its index there.
fn locate_container(nodes: &[NodeRt], mut victim: usize) -> (NodeId, usize) {
    for (i, rt) in nodes.iter().enumerate() {
        let n = rt.serverless.total_containers() as usize;
        if victim < n {
            return (NodeId::new(i), victim);
        }
        victim -= n;
    }
    unreachable!("crash victim beyond the cluster's containers")
}

/// Deliver one platform-internal event to its node. `VmBootDone` first
/// runs the chaos boot gauntlet — a boot in flight may fail outright
/// or land late by the plan's slow-boot multiplier (§V resilience).
pub(crate) fn on_platform_event<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    node: NodeId,
    ev: ClusterEvent,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        cluster,
        queue,
        chaos,
        horizon_t,
        ..
    } = world;
    let rt = &mut cluster.nodes[node.index()];
    let eff = match ev {
        ClusterEvent::VmBootDone { service } => {
            // Chaos may fail or delay a boot in flight;
            // past the horizon boots always land so the
            // calendar drains.
            let mut fate = if now < *horizon_t && rt.iaas.is_booting(service) {
                chaos.injector.vm_boot_outcome()
            } else {
                BootOutcome::Healthy
            };
            let mult = chaos.injector.plan().slow_boot_multiplier;
            if fate == BootOutcome::Slow && mult <= 1.0 {
                fate = BootOutcome::Healthy;
            }
            let idx = service.raw() as usize;
            match fate {
                BootOutcome::Fail => {
                    if let Some(since) = chaos.boot_fault_since.get_mut(idx) {
                        since.get_or_insert(now);
                    }
                    if sink.enabled() {
                        sink.record(TelemetryEvent::Fault(FaultRecord {
                            t: now,
                            kind: FaultKind::VmBootFailure,
                            service: Some(idx),
                            queries_displaced: 0,
                            queries_dropped: 0,
                        }));
                    }
                    rt.iaas.fail_boot(service, now)
                }
                BootOutcome::Slow => {
                    let extra = IaasConfig::default().boot_time_s * (mult - 1.0);
                    queue.push(
                        now + SimDuration::from_secs_f64(extra),
                        Ev::Platform { node, event: ev },
                    );
                    if sink.enabled() {
                        sink.record(TelemetryEvent::Fault(FaultRecord {
                            t: now,
                            kind: FaultKind::VmSlowBoot,
                            service: Some(idx),
                            queries_displaced: 0,
                            queries_dropped: 0,
                        }));
                    }
                    Vec::new()
                }
                BootOutcome::Healthy => {
                    let since = chaos.boot_fault_since.get_mut(idx).and_then(Option::take);
                    if let Some(since) = since {
                        if sink.enabled() {
                            sink.record(TelemetryEvent::Recovery(RecoveryRecord {
                                t: now,
                                kind: RecoveryKind::VmBootSucceeded,
                                service: Some(idx),
                                after_s: now.duration_since(since).as_secs_f64(),
                            }));
                        }
                    }
                    rt.iaas.handle(ev, now, &mut cluster.iaas_rng)
                }
            }
        }
        _ => rt.handle(ev, now, &mut cluster.platform_rng, &mut cluster.iaas_rng),
    };
    cluster.bus.extend(node, eff);
}

/// A scheduled fault fires. Container crashes displace or drop the
/// victim's in-flight query; meter faults poison the monitor's inputs;
/// pressure spikes schedule a burst of synthetic queries.
pub(crate) fn on_chaos<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    fault: TimedFault,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        engine,
        cluster,
        queue,
        chaos: ch,
        workflow,
        warmup_t,
        ..
    } = world;
    match fault {
        TimedFault::ContainerCrash => {
            // One draw picks the victim among every node's
            // containers.
            let total: usize = cluster
                .nodes
                .iter()
                .map(|rt| rt.serverless.total_containers() as usize)
                .sum();
            let report = if total > 0 {
                let (node, victim) = locate_container(&cluster.nodes, ch.injector.pick(total));
                let (eff, report) = cluster.nodes[node.index()].serverless.crash_container(
                    victim,
                    now,
                    &mut cluster.platform_rng,
                );
                cluster.bus.extend(node, eff);
                report.map(|r| (node, r))
            } else {
                None // empty pools: the crash is a no-op
            };
            if let Some((node, rep)) = report {
                let idx = rep.service.raw() as usize;
                let mut displaced = 0u64;
                let mut dropped = 0u64;
                if let Some(q) = rep.displaced {
                    if q.id.is_shadow() {
                        // Shadow, meter or spike work:
                        // nothing waits on it.
                    } else if ch.injector.drop_crashed_query() {
                        dropped = 1;
                        if idx < services.len() && q.submitted >= *warmup_t {
                            services[idx].failed += 1;
                        }
                        // A dropped stage query fails its whole
                        // workflow instance; sibling branches
                        // short-circuit when they complete, so
                        // per-stage conservation holds.
                        workflow.on_stage_query_lost(idx, q.id);
                        // The per-node conservation counters track
                        // every user query, warmup included.
                        cluster.nodes[node.index()].totals.failed += 1;
                    } else {
                        // Re-queue on the current route,
                        // keeping the original submit time
                        // so the lost work shows up as
                        // latency, not as a vanished query.
                        displaced = 1;
                        ch.crash_requeued
                            .entry((q.service.raw(), q.id.raw()))
                            .or_insert(now);
                        let target = if idx < services.len() && !services[idx].background {
                            engine.mode(q.service)
                        } else {
                            DeployMode::Serverless
                        };
                        // Serverless work stays on the pool it
                        // crashed in; IaaS work goes to the home
                        // node, the only one with the VM group. A
                        // query that moves home reached `node` as a
                        // spill and now executes at home, so it leaves
                        // both of `node`'s counts.
                        let to = match target {
                            DeployMode::Serverless => node,
                            DeployMode::Iaas => engine.home(q.service),
                        };
                        if to != node {
                            let from = &mut cluster.nodes[node.index()].totals;
                            from.submitted -= 1;
                            from.spills -= 1;
                            cluster.nodes[to.index()].totals.submitted += 1;
                        }
                        cluster.submit(to, q, target, SimDuration::ZERO, now, queue);
                    }
                }
                if sink.enabled() {
                    sink.record(TelemetryEvent::Fault(FaultRecord {
                        t: now,
                        kind: FaultKind::ContainerCrash,
                        service: (idx < services.len()).then_some(idx),
                        queries_displaced: displaced,
                        queries_dropped: dropped,
                    }));
                }
            }
        }
        TimedFault::MeterOutage => {
            let m = ch.injector.pick(ch.meter_outage_until.len());
            ch.meter_outage_until[m] =
                now + SimDuration::from_secs_f64(ch.injector.plan().meter_outage_duration_s);
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::MeterOutage,
                    service: None,
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
        }
        TimedFault::MeterOutlier { meter } => {
            if let Some(pending) = ch.meter_outlier_pending.get_mut(meter) {
                *pending += 1;
            }
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::MeterOutlier,
                    service: None,
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
        }
        TimedFault::PressureSpike if !services.is_empty() => {
            let victim = ch.injector.pick(services.len());
            let sid = services[victim].sid;
            let plan = ch.injector.plan();
            let n = (plan.spike_qps * plan.spike_duration_s).ceil() as u64;
            let qps = plan.spike_qps.max(1e-9);
            for i in 0..n {
                queue.push(
                    now + SimDuration::from_secs_f64(i as f64 / qps),
                    Ev::SpikeQuery { sid },
                );
            }
            if sink.enabled() {
                sink.record(TelemetryEvent::Fault(FaultRecord {
                    t: now,
                    kind: FaultKind::PressureSpike,
                    service: Some(victim),
                    queries_displaced: 0,
                    queries_dropped: 0,
                }));
            }
        }
        TimedFault::PressureSpike => {}
    }
}

/// One query of an injected pressure spike arrives: pure synthetic
/// load on the victim's home pool, excluded from every account.
///
/// In tenancy mode the spike executes as the dedicated interference
/// service, so it *adds* pool load on top of the ambient signal; the
/// legacy path submits under the victim's own service id, where the
/// tenant container cap makes the spike displace the victim's ambient
/// traffic instead of composing with it (kept bit-identical for the
/// golden traces).
pub(crate) fn on_spike_query(world: &mut SimWorld, sid: ServiceId, now: SimTime) {
    let SimWorld {
        engine,
        cluster,
        chaos,
        tenancy,
        ..
    } = world;
    let target = tenancy.as_ref().map_or(sid, |t| t.interference_sid);
    let q = Query {
        id: QueryId::spike(chaos.spike_next_id),
        service: target,
        submitted: now,
    };
    chaos.spike_next_id += 1;
    cluster.probe(engine.home(sid), q, now);
}
