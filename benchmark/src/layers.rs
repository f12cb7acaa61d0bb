//! Layer micro-timings: calls into each layer's public functions on
//! inputs taken from the workload, timed from outside. Each figure is
//! the median over [`SAMPLES`] batches, in nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use amoeba_core::controller::ServiceModel;
use amoeba_core::{
    ContentionMonitor, ControllerConfig, DeployMode, DeploymentController, MonitorConfig,
};
use amoeba_forecast::{Forecaster, HoltWintersDiurnal};
use amoeba_linalg::{Matrix, Pca};
use amoeba_meters::{cpu_meter, io_meter, net_meter, LatencySurface, ProfileCurve};
use amoeba_platform::{
    ClusterEvent, Effect, Query, QueryId, ServerlessConfig, ServerlessPlatform, ServiceId,
};
use amoeba_queueing::MmnModel;
use amoeba_sim::{Distributions, EventQueue, SimDuration, SimRng, SimTime};
use amoeba_workload::{DiurnalPattern, LoadTrace, MicroserviceSpec};

use crate::stats::median;
use crate::traced::SpanLog;

/// Batches per micro-timing.
pub const SAMPLES: usize = 11;

/// Rows of the PCA input, as in the monitor's sliding window.
pub const PCA_ROWS: usize = 240;

/// Per-call host times of the layers' hot functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// One calendar-queue push plus one pop.
    pub queue_ns: f64,
    pub wait_quantile_ns: f64,
    pub discriminant_ns: f64,
    pub decide_ns: f64,
    pub lambda_max_ns: f64,
    /// Three meter observations plus one heartbeat (PCA refit included).
    pub heartbeat_ns: f64,
    pub pca_fit_ns: f64,
    /// One forecaster observe plus one predict.
    pub forecast_tick_ns: f64,
    /// One serverless query from submit to completion.
    pub submit_complete_ns: f64,
}

/// What the micro-timings replay: the workload's foreground service on
/// its day, the monitor it runs, and the pressures its heartbeats saw.
pub struct Inputs<'a> {
    pub spec: &'a MicroserviceSpec,
    pub day_s: f64,
    pub monitor: MonitorConfig,
    pub pressures: &'a [[f64; 3]],
    pub seed: u64,
    pub batch: usize,
}

/// Median over [`SAMPLES`] runs of `f`, per call; `f` makes `calls`
/// calls. Each batch is recorded as a span under `parent`.
pub fn per_call_ns(
    spans: &mut SpanLog,
    parent: usize,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut(),
) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            spans.push(name, t0, t1, Some(parent), None);
            (t1 - t0).as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Run every micro-timing.
pub fn micro(inp: &Inputs, spans: &mut SpanLog, parent: usize) -> Micro {
    let n = inp.batch.max(1);
    let cfg = ServerlessConfig::default();
    let mut rng = SimRng::seed_from_u64(inp.seed);
    let mean_pressure = mean_pressure(inp.pressures);
    let mut out = Micro::default();

    // sim: calendar queue over event times spread across the day.
    let times: Vec<SimTime> = (0..n * 5)
        .map(|_| SimTime::from_secs_f64(rng.uniform() * inp.day_s))
        .collect();
    out.queue_ns = per_call_ns(spans, parent, "sim.queue", times.len(), || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as u64);
        }
        let mut sum = 0u64;
        while let Some(e) = q.pop() {
            sum = sum.wrapping_add(e.payload);
        }
        black_box(sum);
    });

    // queueing: Eq. 5 for the foreground on the serverless platform.
    let mut platform = ServerlessPlatform::new(cfg);
    let sid = platform.register(inp.spec.clone());
    let l0 = platform.solo_latency_seconds(sid);
    let n_max = cfg
        .tenant_container_cap
        .min(cfg.memory_container_cap())
        .max(1);
    let mmn = MmnModel::new(n_max, 1.0 / l0).expect("positive service rate");
    let lambda = 0.7 * mmn.capacity();
    let (t_d, r) = (inp.spec.qos_target_s, inp.spec.qos_percentile);
    out.wait_quantile_ns = per_call_ns(spans, parent, "queueing.wait_quantile", n, || {
        for _ in 0..n {
            black_box(mmn.wait_quantile(black_box(lambda), r));
        }
    });
    out.discriminant_ns = per_call_ns(spans, parent, "queueing.discriminant", n, || {
        for _ in 0..n {
            black_box(mmn.discriminant_lambda(black_box(t_d), r));
        }
    });

    // core.controller: the Eq. 5/6 tick for the foreground.
    let mut ctl = DeploymentController::new(ControllerConfig::default());
    ctl.register(service_model(&platform, sid, inp.spec, &cfg, n_max));
    let now = SimTime::from_secs_f64(inp.day_s / 2.0);
    let gap_us = SimDuration::from_secs_f64(1.0 / inp.spec.peak_qps.max(1e-3)).as_micros();
    for i in (0..100u64).rev() {
        let at = now.as_micros().saturating_sub(gap_us.saturating_mul(i));
        ctl.record_arrival(0, SimTime::from_micros(at));
    }
    let weights = [1.0 / 3.0; 3];
    out.decide_ns = per_call_ns(spans, parent, "core.controller.decide", n, || {
        for _ in 0..n {
            black_box(ctl.decide(
                0,
                DeployMode::Iaas,
                now,
                SimTime::ZERO,
                black_box(mean_pressure),
                weights,
                &[],
            ));
        }
    });
    out.lambda_max_ns = per_call_ns(spans, parent, "core.controller.lambda_max", n, || {
        for _ in 0..n {
            black_box(ctl.lambda_max(0, black_box(mean_pressure), weights));
        }
    });

    // core.monitor: observe + heartbeat with a full PCA window.
    let mut monitor = ContentionMonitor::new(inp.monitor, meter_curves(&cfg));
    let solo = meter_solo_latencies(&cfg);
    let beat = |m: &mut ContentionMonitor, rng: &mut SimRng| {
        for (r, s) in solo.iter().enumerate() {
            m.observe_meter_latency(r, s * (1.0 + 0.5 * rng.uniform()));
        }
        m.heartbeat();
    };
    for _ in 0..PCA_ROWS {
        beat(&mut monitor, &mut rng);
    }
    let beats = (n / 4).max(1);
    out.heartbeat_ns = per_call_ns(spans, parent, "core.monitor.heartbeat", beats, || {
        for _ in 0..beats {
            beat(&mut monitor, &mut rng);
        }
        black_box(monitor.weights());
    });

    // linalg: PCA over the pressures the workload's heartbeats saw.
    let rows: Vec<Vec<f64>> = (0..PCA_ROWS)
        .map(|i| match inp.pressures.get(i) {
            Some(p) => p.to_vec(),
            None => (0..3).map(|_| rng.uniform()).collect(),
        })
        .collect();
    let data = Matrix::from_nested(&rows);
    let fits = (n / 20).max(1);
    out.pca_fit_ns = per_call_ns(spans, parent, "linalg.pca.fit", fits, || {
        for _ in 0..fits {
            black_box(Pca::default().fit(black_box(&data)));
        }
    });

    // forecast: Holt-Winters ticks on the foreground's diurnal trace, one
    // a second, with the seasonal buckets the runtime gives a proactive
    // service at a 1 s control period.
    let trace = LoadTrace::new(DiurnalPattern::didi(), inp.spec.peak_qps, inp.day_s);
    let buckets = ((inp.day_s / 2.0).round() as usize).clamp(24, 240);
    let mut hw = HoltWintersDiurnal::new(SimDuration::from_secs_f64(inp.day_s), buckets);
    let ticks_per_day = inp.day_s.ceil() as u64;
    let mut tick = 0u64;
    let mut observe = |hw: &mut HoltWintersDiurnal| {
        tick += 1;
        let t = SimTime::from_secs(tick);
        hw.observe(t, trace.rate_at(t));
        black_box(hw.predict(SimDuration::from_secs(6)));
    };
    for _ in 0..2 * ticks_per_day {
        observe(&mut hw);
    }
    out.forecast_tick_ns = per_call_ns(spans, parent, "forecast.tick", n, || {
        for _ in 0..n {
            observe(&mut hw);
        }
    });

    // platform: serverless submit → complete at half the foreground
    // peak, but at least one query a second so the path measured is the
    // warm one (a long-tail tenant would otherwise cold-start each time).
    let queries = (n / 2).max(1);
    let spacing = SimDuration::from_secs_f64((2.0 / inp.spec.peak_qps).min(1.0));
    let spec = inp.spec.clone();
    out.submit_complete_ns = per_call_ns(spans, parent, "platform.serverless", queries, || {
        black_box(serverless_batch(&spec, queries, spacing, cfg));
    });

    out
}

fn mean_pressure(pressures: &[[f64; 3]]) -> [f64; 3] {
    if pressures.is_empty() {
        return [0.1, 0.1, 0.1];
    }
    let mut sum = [0.0; 3];
    for p in pressures {
        for (s, v) in sum.iter_mut().zip(p) {
            *s += v;
        }
    }
    sum.map(|s| s / pressures.len() as f64)
}

/// The controller's analytic model of a service, built the way the
/// runtime builds it at registration.
fn service_model(
    platform: &ServerlessPlatform,
    sid: ServiceId,
    spec: &MicroserviceSpec,
    cfg: &ServerlessConfig,
    n_max: u32,
) -> ServiceModel {
    let phases = platform.service_phases(sid);
    let overhead = platform.overhead_seconds(sid);
    let l0 = platform.solo_latency_seconds(sid);
    let rates = platform.service_rates(sid);
    let rate = [rates.cpu_cores, rates.io_mbps, rates.net_mbps];
    let caps = [cfg.node.cores, cfg.node.disk_bw_mbps, cfg.node.nic_bw_mbps];
    let peak = spec.peak_qps;
    let mut loads = vec![0.5, peak * 0.25, peak * 0.5, peak * 0.75, peak, peak * 1.25];
    loads.sort_by(f64::total_cmp);
    loads.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let pressures = vec![0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
    ServiceModel {
        spec: spec.clone(),
        l0_s: l0,
        surfaces: [0, 1, 2].map(|r| {
            LatencySurface::analytic(
                phases,
                overhead,
                r,
                cfg.slowdown_kappa[r],
                n_max,
                spec.qos_percentile,
                loads.clone(),
                pressures.clone(),
            )
        }),
        util_per_qps: [0, 1, 2].map(|r| l0 * rate[r] / caps[r]),
        n_max,
    }
}

fn meter_phases(cfg: &ServerlessConfig) -> [([f64; 3], f64); 3] {
    [cpu_meter(), io_meter(), net_meter()].map(|m| {
        let phases = [
            m.demand.cpu_s,
            m.demand.io_mb / cfg.per_flow_io_mbps,
            m.demand.net_mb / cfg.per_flow_net_mbps,
        ];
        let overhead = cfg.auth_s
            + cfg.code_load_base_s
            + cfg.code_load_s_per_mb * m.demand.mem_mb
            + cfg.result_post_s;
        (phases, overhead)
    })
}

fn meter_curves(cfg: &ServerlessConfig) -> [ProfileCurve; 3] {
    let m = meter_phases(cfg);
    [0, 1, 2].map(|r| {
        ProfileCurve::analytic(
            m[r].0,
            r,
            m[r].1,
            cfg.slowdown_kappa[r],
            cfg.max_utilization,
            40,
        )
    })
}

fn meter_solo_latencies(cfg: &ServerlessConfig) -> [f64; 3] {
    meter_phases(cfg).map(|(phases, overhead)| phases.iter().sum::<f64>() + overhead)
}

/// Drive `n` queries through a fresh serverless platform to completion;
/// returns the completions.
fn serverless_batch(
    spec: &MicroserviceSpec,
    n: usize,
    spacing: SimDuration,
    cfg: ServerlessConfig,
) -> usize {
    let mut p = ServerlessPlatform::new(cfg);
    let mut rng = SimRng::seed_from_u64(7);
    let sid = p.register(spec.clone());
    let mut queue: EventQueue<ClusterEvent> = EventQueue::new();
    let mut completions = 0usize;
    let mut absorb = |effects: Vec<Effect>, now: SimTime, queue: &mut EventQueue<ClusterEvent>| {
        for e in effects {
            match e {
                Effect::Schedule { after, event } => {
                    queue.push(now + after, event);
                }
                Effect::Completed(_) => completions += 1,
                _ => {}
            }
        }
    };
    let mut t = SimTime::ZERO;
    for i in 0..n as u64 {
        let query = Query {
            id: QueryId::user(i),
            service: sid,
            submitted: t,
        };
        let eff = p.submit(query, t, &mut rng);
        absorb(eff, t, &mut queue);
        let next = t + spacing;
        while matches!(queue.peek_time(), Some(due) if due <= next) {
            let ev = queue.pop().expect("peeked event");
            let eff = p.handle(ev.payload, ev.time, &mut rng);
            absorb(eff, ev.time, &mut queue);
        }
        t = next;
    }
    while let Some(ev) = queue.pop() {
        let eff = p.handle(ev.payload, ev.time, &mut rng);
        absorb(eff, ev.time, &mut queue);
    }
    completions
}
