//! Metering and sampling: the contention meters' heartbeat queries,
//! the monitor's Eq. 8 sample periods, and the usage/timeline sampler.

use super::{Ev, Experiment, SimWorld};
use amoeba_meters::METER_QPS;
use amoeba_platform::{Query, QueryId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{DeployMode, HeartbeatRecord, TelemetryEvent, TelemetrySink};

/// One contention-meter query goes out (deterministic 1 Hz per meter,
/// phase-shifted so the three never collide, §VII-E).
pub(crate) fn on_meter_arrival(world: &mut SimWorld, meter: usize, now: SimTime) {
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
    cluster.probe(query, now);
    let next = now + SimDuration::from_secs_f64(1.0 / METER_QPS);
    if next < *horizon_t {
        queue.push(next, Ev::MeterArrival { meter });
    }
}

/// End of one Eq. 8 sample period: deliver the heartbeat package to
/// the monitor (pressure snapshot into the PCA window, weight refresh).
pub(crate) fn on_heartbeat<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        monitor,
        queue,
        horizon_t,
        heartbeat_period,
        ..
    } = world;
    monitor.heartbeat();
    if sink.enabled() {
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
    let (node0, others) = cluster.nodes.split_first().expect("at least one node");
    let serverless = &node0.serverless;
    for (idx, s) in services.iter_mut().enumerate() {
        // Fleet-wide aggregates: node 0, then every other node.
        let (mut iaas_cores, mut iaas_mem) = node0.iaas.allocation(s.sid);
        let mut busy_iaas = node0.iaas.busy_cores(s.sid);
        let mut containers = serverless.container_count(s.sid) as f64;
        let mut busy_count = serverless.busy_count(s.sid) as f64;
        for rt in others {
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
        let rates = serverless.service_rates(s.sid);
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
    for (m, &mid) in meter_ids.iter().enumerate() {
        let rates = serverless.service_rates(mid);
        *meter_core_seconds += serverless.busy_count(mid) as f64 * rates.cpu_cores * dt;
        let _ = m;
    }
    let next = now + exp.usage_sample_period;
    if next < *horizon_t {
        queue.push(next, Ev::UsageSample);
    }
}
