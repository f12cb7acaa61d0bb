//! Offline profiling against the simulated platform (§IV-B step 1).
//!
//! The paper profiles each contention meter (and each microservice) by
//! actually running it on the serverless platform while sweeping the
//! pressure. The analytic builders in `amoeba-meters` use the
//! closed-form slowdown model directly; this module provides the
//! *empirical* path — drive the real (simulated) platform with a filler
//! workload that holds a target utilisation, probe with the subject
//! function, and measure. It validates that the closed forms and the
//! platform agree, and is the path a deployment against a real OpenWhisk
//! would use.

use amoeba_meters::{meter_for, LatencySurface, ProfileCurve};
use amoeba_platform::{
    ClusterEvent, Effect, Query, QueryId, QueryOutcome, ServerlessConfig, ServerlessPlatform,
    ServiceId,
};
use amoeba_sim::{Distributions, EventQueue, SimDuration, SimRng, SimTime};
use amoeba_workload::{DemandVector, MicroserviceSpec, ResourceKind};

/// A filler workload that stresses exactly one resource, used to hold the
/// pool at a target utilisation while a subject is probed.
fn filler_spec(resource: usize) -> MicroserviceSpec {
    let demand = match resource {
        0 => DemandVector {
            cpu_s: 0.5,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 0.0,
        },
        1 => DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 150.0,
            net_mb: 0.0,
        },
        _ => DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 100.0,
        },
    };
    MicroserviceSpec {
        name: format!("filler_{resource}"),
        demand,
        qos_target_s: 30.0,
        qos_percentile: 0.95,
        peak_qps: 100.0,
        container_mem_mb: 256.0,
    }
}

/// The subject side of one measurement against a filler; the filler
/// side is the same for every measurement.
struct SubjectLoad<C, A> {
    /// Fixed part of the warm-up; the driver adds three contention-
    /// stretched filler busy periods, the time the pool needs to ramp to
    /// its steady concurrency before probes are representative.
    settle: SimDuration,
    /// How long the subject is loaded after the warm-up.
    window: SimDuration,
    /// Subject containers to prewarm, given the subject's busy time
    /// (seconds) under the filler's slowdown.
    containers: C,
    /// Subject arrival times in `[start, horizon)`, drawn from the run's
    /// RNG after both prewarms.
    arrivals: A,
}

/// Run `subject` on a fresh platform while a filler holds `pressure`
/// utilisation on `resource`, and return the subject's completions in
/// completion order. Deterministic for a given seed.
fn drive_against_filler<C, A>(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    resource: usize,
    pressure: f64,
    seed: u64,
    load: SubjectLoad<C, A>,
) -> Vec<QueryOutcome>
where
    C: FnOnce(f64) -> u32,
    A: FnOnce(SimTime, SimTime, &mut SimRng) -> Vec<SimTime>,
{
    assert!(resource < 3 && (0.0..1.0).contains(&pressure));
    let mut platform = ServerlessPlatform::new(*cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let subject_id = platform.register(subject.clone());
    let filler = filler_spec(resource);
    let filler_id = platform.register(filler.clone());

    // Filler rate to hold the target utilisation.
    let capacity = match resource {
        0 => cfg.node.cores,
        1 => cfg.node.disk_bw_mbps,
        _ => cfg.node.nic_bw_mbps,
    };
    let per_query = match resource {
        0 => filler.demand.cpu_s,
        1 => filler.demand.io_mb,
        _ => filler.demand.net_mb,
    };
    // Per-invocation resource totals are work-conserving in the
    // platform, so the pool's utilisation is offered-load / capacity and
    // this rate lands exactly on the target pressure. Executions still
    // stretch under contention, so container residency (and the warm
    // pool we need) grows by the slowdown factor.
    let filler_qps = pressure * capacity / per_query;
    let kappa = cfg.slowdown_kappa[resource];
    let slowdown = 1.0 + kappa * pressure * pressure / (1.0 - pressure);
    let filler_busy_s = platform.solo_latency_seconds(filler_id) * slowdown;
    let filler_containers = ((filler_qps * filler_busy_s).ceil() as u32 + 4)
        .min(cfg.tenant_container_cap)
        .max(1);
    let subject_containers =
        (load.containers)(platform.solo_latency_seconds(subject_id) * slowdown);

    let t0 = SimTime::ZERO;
    let warmup = load.settle + SimDuration::from_secs_f64(3.0 * filler_busy_s);
    let start = t0 + warmup;
    let horizon = start + load.window;

    // Warm both tenants up front so probes measure contention, not cold
    // starts.
    let mut initial = platform.prewarm(subject_id, subject_containers, t0, &mut rng);
    initial.extend(platform.prewarm(filler_id, filler_containers, t0, &mut rng));

    // The filler arrives at deterministic uniform spacing: a steady
    // pressure plateau, not Poisson noise.
    let mut arrivals: Vec<(SimTime, ServiceId, u64)> = Vec::new();
    if filler_qps > 0.0 {
        let gap = SimDuration::from_secs_f64(1.0 / filler_qps);
        let mut t = t0 + SimDuration::from_secs(2);
        let mut id = 0u64;
        while t < horizon {
            arrivals.push((t, filler_id, (1 << 40) | id));
            id += 1;
            t += gap;
        }
    }
    let subject_arrivals = (load.arrivals)(start, horizon, &mut rng);
    arrivals.extend(
        (0u64..)
            .zip(subject_arrivals)
            .map(|(k, t)| (t, subject_id, k)),
    );
    arrivals.sort_by_key(|&(t, _, id)| (t, id));

    let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
    let mut done = Vec::new();
    let mut absorb = |effects: Vec<Effect>, now: SimTime, queue: &mut EventQueue<ClusterEvent>| {
        for e in effects {
            match e {
                Effect::Schedule { after, event } => {
                    queue.push(now + after, event);
                }
                Effect::Completed(o) if o.query.service == subject_id => done.push(o),
                _ => {}
            }
        }
    };
    absorb(initial, t0, &mut queue);

    // Single loop interleaving platform events and the arrival schedule.
    let mut next_arrival = 0usize;
    loop {
        let next_event_t = queue.peek_time();
        let next_arr_t = arrivals.get(next_arrival).map(|&(t, _, _)| t);
        let take_event = match (next_event_t, next_arr_t) {
            (None, None) => break,
            (Some(et), Some(at)) => et <= at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_event {
            let ev = queue.pop().unwrap();
            // Keep warm pools alive during the measurement window.
            if matches!(ev.payload, ClusterEvent::ContainerExpire { .. }) && ev.time < horizon {
                continue;
            }
            let eff = platform.handle(ev.payload, ev.time, &mut rng);
            absorb(eff, ev.time, &mut queue);
        } else {
            let (t, sid, raw) = arrivals[next_arrival];
            next_arrival += 1;
            let q = Query {
                id: QueryId(raw),
                service: sid,
                submitted: t,
            };
            let eff = platform.submit(q, t, &mut rng);
            absorb(eff, t, &mut queue);
        }
    }
    done
}

/// Mean warm-hit latency (seconds) of `subject` probes while a filler
/// holds `pressure` utilisation on `resource`. Deterministic for a given
/// seed.
pub fn measure_latency_under_pressure(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    resource: usize,
    pressure: f64,
    probes: usize,
    seed: u64,
) -> f64 {
    assert!(probes > 0);
    let probe_gap = SimDuration::from_millis(500);
    let load = SubjectLoad {
        settle: SimDuration::from_secs(8),
        window: probe_gap * (probes as u64 + 4),
        containers: |_: f64| 2,
        arrivals: |start: SimTime, _: SimTime, _: &mut SimRng| {
            (0..probes as u64).map(|k| start + probe_gap * k).collect()
        },
    };
    let latencies: Vec<f64> = drive_against_filler(cfg, subject, resource, pressure, seed, load)
        .iter()
        .filter(|o| o.breakdown.cold_start == SimDuration::ZERO)
        .map(|o| o.latency().as_secs_f64())
        .collect();
    assert!(!latencies.is_empty(), "no warm probe completed");
    latencies.iter().sum::<f64>() / latencies.len() as f64
}

/// Empirically profile a contention meter's latency-vs-pressure curve by
/// sweeping the platform (the measured counterpart of
/// [`ProfileCurve::analytic`]).
pub fn profile_meter_empirical(
    cfg: &ServerlessConfig,
    resource: usize,
    pressures: &[f64],
    probes: usize,
    seed: u64,
) -> ProfileCurve {
    let kind = [ResourceKind::Cpu, ResourceKind::Io, ResourceKind::Network][resource];
    let meter = meter_for(kind);
    let samples: Vec<(f64, f64)> = pressures
        .iter()
        .map(|&u| {
            (
                u,
                measure_latency_under_pressure(cfg, &meter, resource, u, probes, seed),
            )
        })
        .collect();
    ProfileCurve::from_sweep(samples)
}

/// Measured p95 latency of `subject` driven at `load_qps` while a filler
/// holds `pressure` on `resource` — one grid point of an empirical
/// latency surface (§IV-B: "adjust the loads of the microservice and the
/// pressure of the contention meter").
pub fn measure_p95_at_load(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    load_qps: f64,
    resource: usize,
    pressure: f64,
    window_s: f64,
    seed: u64,
) -> f64 {
    assert!(load_qps > 0.0 && window_s > 1.0);
    let load = SubjectLoad {
        settle: SimDuration::from_secs(6),
        window: SimDuration::from_secs_f64(window_s),
        // Enough warm containers for the offered load at the stretched
        // execution time.
        containers: |busy_s: f64| {
            ((load_qps * busy_s).ceil() as u32 + 2)
                .min(cfg.tenant_container_cap)
                .max(1)
        },
        // Poisson arrivals: the M/M/N surface this grid point is compared
        // against assumes exponential inter-arrivals, and deterministic
        // spacing would queue far less (D/M/n).
        arrivals: |start: SimTime, horizon: SimTime, rng: &mut SimRng| {
            let mut at = Vec::new();
            let mut t = start;
            loop {
                t += SimDuration::from_secs_f64(rng.exponential(load_qps));
                if t >= horizon {
                    break at;
                }
                at.push(t);
            }
        },
    };
    let mut recorder = amoeba_metrics::LatencyRecorder::new();
    for o in drive_against_filler(cfg, subject, resource, pressure, seed, load) {
        recorder.record(o.latency());
    }
    recorder
        .quantile(subject.qos_percentile)
        .expect("subject queries completed")
        .as_secs_f64()
}

/// Empirically build a full latency surface by measurement — the
/// measured counterpart of [`LatencySurface::analytic`] and the paper's
/// offline profiling step for Fig. 9. Expensive: one simulation per grid
/// point.
pub fn latency_surface_empirical(
    cfg: &ServerlessConfig,
    subject: &MicroserviceSpec,
    resource: usize,
    loads: Vec<f64>,
    pressures: Vec<f64>,
    window_s: f64,
    seed: u64,
) -> LatencySurface {
    let values: Vec<Vec<f64>> = loads
        .iter()
        .map(|&load| {
            pressures
                .iter()
                .map(|&u| measure_p95_at_load(cfg, subject, load, resource, u, window_s, seed))
                .collect()
        })
        .collect();
    LatencySurface::from_grid(loads, pressures, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_workload::benchmarks;

    fn quiet_cfg() -> ServerlessConfig {
        ServerlessConfig {
            exec_jitter_sigma: 0.0,
            tenant_container_cap: 2000,
            pool_memory_mb: 512.0 * 1024.0,
            ..Default::default()
        }
    }

    #[test]
    fn zero_pressure_matches_solo_latency() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let measured = measure_latency_under_pressure(&cfg, &spec, 0, 0.0, 20, 7);
        let mut p2 = ServerlessPlatform::new(cfg);
        let sid = p2.register(spec);
        let solo = p2.solo_latency_seconds(sid);
        assert!(
            (measured - solo).abs() / solo < 0.1,
            "measured {measured} vs solo {solo}"
        );
    }

    #[test]
    fn latency_grows_with_pressure() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let low = measure_latency_under_pressure(&cfg, &spec, 0, 0.1, 15, 7);
        let high = measure_latency_under_pressure(&cfg, &spec, 0, 0.7, 15, 7);
        assert!(high > low * 1.3, "low {low} high {high}");
    }

    #[test]
    fn io_pressure_does_not_hurt_cpu_bound_subject() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float(); // no IO phase
        let idle = measure_latency_under_pressure(&cfg, &spec, 1, 0.0, 15, 7);
        let pressed = measure_latency_under_pressure(&cfg, &spec, 1, 0.7, 15, 7);
        assert!(
            (pressed - idle).abs() / idle < 0.15,
            "idle {idle} pressed {pressed}"
        );
    }

    #[test]
    fn p95_at_load_grows_with_both_axes() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let base = measure_p95_at_load(&cfg, &spec, 2.0, 0, 0.0, 20.0, 7);
        let loaded = measure_p95_at_load(&cfg, &spec, 40.0, 0, 0.0, 20.0, 7);
        let pressed = measure_p95_at_load(&cfg, &spec, 2.0, 0, 0.6, 20.0, 7);
        assert!(loaded >= base * 0.95, "load axis: {base} -> {loaded}");
        assert!(pressed > base * 1.2, "pressure axis: {base} -> {pressed}");
    }

    #[test]
    fn empirical_surface_matches_analytic_shape() {
        let cfg = quiet_cfg();
        let spec = benchmarks::float();
        let loads = vec![2.0, 20.0];
        let pressures = vec![0.0, 0.5];
        let measured =
            latency_surface_empirical(&cfg, &spec, 0, loads.clone(), pressures.clone(), 20.0, 11);
        let phases = [
            spec.demand.cpu_s,
            spec.demand.io_mb / cfg.per_flow_io_mbps,
            spec.demand.net_mb / cfg.per_flow_net_mbps,
        ];
        let overhead = cfg.auth_s
            + cfg.code_load_base_s
            + cfg.code_load_s_per_mb * spec.demand.mem_mb
            + cfg.result_post_s;
        let analytic = LatencySurface::analytic(
            phases,
            overhead,
            0,
            cfg.slowdown_kappa[0],
            cfg.tenant_container_cap,
            spec.qos_percentile,
            loads.clone(),
            pressures.clone(),
        );
        for &l in &loads {
            for &u in &pressures {
                let m = measured.predict(l, u);
                let a = analytic.predict(l, u);
                assert!(
                    (m - a).abs() / a < 0.4,
                    "at ({l}, {u}): measured {m} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn empirical_meter_curve_roughly_matches_analytic() {
        let cfg = quiet_cfg();
        let pressures = vec![0.0, 0.3, 0.6];
        let measured = profile_meter_empirical(&cfg, 0, &pressures, 15, 11);
        let meter = meter_for(ResourceKind::Cpu);
        let phases = [
            meter.demand.cpu_s,
            meter.demand.io_mb / cfg.per_flow_io_mbps,
            meter.demand.net_mb / cfg.per_flow_net_mbps,
        ];
        let overhead = cfg.auth_s
            + cfg.code_load_base_s
            + cfg.code_load_s_per_mb * meter.demand.mem_mb
            + cfg.result_post_s;
        let analytic = ProfileCurve::analytic(phases, 0, overhead, cfg.slowdown_kappa[0], 0.95, 20);
        for &u in &pressures {
            let m = measured.latency_at(u);
            let a = analytic.latency_at(u);
            assert!(
                (m - a).abs() / a < 0.25,
                "at u={u}: measured {m} vs analytic {a}"
            );
        }
    }
}
