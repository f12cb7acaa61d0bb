//! Metering and sampling: every node's contention-meter queries, the
//! monitors' Eq. 8 sample periods, and the usage/timeline sampler.

use super::cluster::INGRESS;
use super::{Ev, Experiment, SimWorld};
use amoeba_meters::METER_QPS;
use amoeba_platform::{NodeId, Query, QueryId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{DeployMode, HeartbeatRecord, TelemetryEvent, TelemetrySink};

/// One contention-meter query goes out on `node` (deterministic 1 Hz
/// per meter, phase-shifted so a node's three never collide, §VII-E).
pub(crate) fn on_meter_arrival(world: &mut SimWorld, node: NodeId, meter: usize, now: SimTime) {
    let SimWorld {
        cluster,
        queue,
        meter_ids,
        meter_next_id,
        horizon_t,
        ..
    } = world;
    let sid = meter_ids[meter];
    let query = Query {
        id: QueryId::meter(meter, *meter_next_id),
        service: sid,
        submitted: now,
    };
    *meter_next_id += 1;
    cluster.probe(node, query, now);
    let next = now + SimDuration::from_secs_f64(1.0 / METER_QPS);
    if next < *horizon_t {
        queue.push(next, Ev::MeterArrival { node, meter });
    }
}

/// End of one Eq. 8 sample period: deliver the heartbeat package to
/// every node's monitor (pressure snapshot into the PCA window, weight
/// refresh). The telemetry record is the ingress monitor's.
pub(crate) fn on_heartbeat<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        cluster,
        queue,
        horizon_t,
        heartbeat_period,
        ..
    } = world;
    for rt in &mut cluster.nodes {
        rt.monitor.heartbeat();
    }
    if sink.enabled() {
        let monitor = &cluster.nodes[INGRESS.index()].monitor;
        sink.record(TelemetryEvent::Heartbeat(HeartbeatRecord {
            t: now,
            meter_latency_s: monitor.smoothed_latencies(),
            pressures: monitor.pressures(),
            weights: monitor.weights(),
        }));
    }
    let next = now + *heartbeat_period;
    if next < *horizon_t {
        queue.push(next, Ev::Heartbeat);
    }
}

/// Periodic usage sample: integrate billable core/memory seconds per
/// service, push the Fig. 13 timelines, and account the meters' own
/// CPU consumption (§VII-E overhead).
pub(crate) fn on_usage_sample(exp: &Experiment, world: &mut SimWorld, now: SimTime) {
    let SimWorld {
        services,
        cluster,
        engine,
        controller,
        queue,
        meter_ids,
        meter_core_seconds,
        last_usage_sample,
        horizon_t,
        ..
    } = world;
    let dt = now.duration_since(*last_usage_sample).as_secs_f64();
    *last_usage_sample = now;
    for (idx, s) in services.iter_mut().enumerate() {
        // Fleet-wide aggregates over every node.
        let (mut iaas_cores, mut iaas_mem, mut busy_iaas) = (0.0, 0.0, 0.0);
        let (mut containers, mut busy_count) = (0.0, 0.0);
        for rt in &cluster.nodes {
            let (c, m) = rt.iaas.allocation(s.sid);
            iaas_cores += c;
            iaas_mem += m;
            busy_iaas += rt.iaas.busy_cores(s.sid);
            containers += rt.serverless.container_count(s.sid) as f64;
            busy_count += rt.serverless.busy_count(s.sid) as f64;
        }
        s.billable.iaas_core_seconds += iaas_cores * dt;
        s.billable.iaas_mem_mb_seconds += iaas_mem * dt;
        s.billable.serverless_mem_mb_seconds +=
            busy_count * exp.serverless_cfg.container_memory_mb * dt;
        let cores = iaas_cores + containers * exp.serverless_cfg.container_core_share;
        let mem = iaas_mem + containers * exp.serverless_cfg.container_memory_mb;
        s.usage.set_allocation(now, cores, mem);
        // Rates follow from the spec alone, so every node's agree.
        let home = engine.home(s.sid).index();
        let rates = cluster.nodes[home].serverless.service_rates(s.sid);
        let busy_sl = busy_count * rates.cpu_cores;
        s.usage.set_consumption(now, busy_iaas + busy_sl);
        s.cores_timeline.push(now, cores);
        s.mem_timeline.push(now, mem);
        let mode = if s.background {
            DeployMode::Serverless
        } else {
            engine.mode(s.sid)
        };
        s.mode_timeline.push(
            now,
            if mode == DeployMode::Serverless {
                1.0
            } else {
                0.0
            },
        );
        s.load_timeline
            .push(now, controller.estimated_load(idx, now));
    }
    for rt in &cluster.nodes {
        for &mid in meter_ids.iter() {
            let rates = rt.serverless.service_rates(mid);
            *meter_core_seconds += rt.serverless.busy_count(mid) as f64 * rates.cpu_cores * dt;
        }
    }
    let next = now + exp.usage_sample_period;
    if next < *horizon_t {
        queue.push(next, Ev::UsageSample);
    }
}
