//! The traced run (`--trace 1`): one repetition with a span around
//! every layer call and a counting telemetry sink, the layer
//! micro-timings, and the per-layer metrics derived from both. Spans
//! stay in memory and are written at exit, by default to
//! `results/benchmark/<workload>.trace.json`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use amoeba_core::Experiment;
use amoeba_fleet::DigestSink;
use amoeba_json::Value;
use amoeba_telemetry::{TelemetryEvent, TelemetrySink, Trace};

use crate::cells::{self, CellRun, Tally, UnitRun};
use crate::layers::{self, per_call_ns, Inputs, PCA_ROWS, SAMPLES};
use crate::measure::check_repetitions;
use crate::report::{Report, PER_LAYER};
use crate::stats::median;
use crate::workloads::{self, Scale, Workload, FLEET_THREADS, PARALLEL_THREADS, SMOKE};

/// Events of the trace the encode/decode/digest timings run on; larger
/// traces are sampled evenly down to this size.
const TELEMETRY_SAMPLE_EVENTS: usize = 20_000;

/// Counts telemetry events by kind and keeps the latest heartbeat
/// pressures (the PCA micro-timing's input).
#[derive(Debug, Default)]
pub struct TallySink {
    pub ticks: u64,
    pub heartbeats: u64,
    pub forecasts: u64,
    pub faults: u64,
    pub recoveries: u64,
    pub stage_spans: u64,
    pub pressures: VecDeque<[f64; 3]>,
}

impl TallySink {
    /// Count one event.
    pub fn count(&mut self, e: &TelemetryEvent) {
        match e {
            TelemetryEvent::Tick(_) => self.ticks += 1,
            TelemetryEvent::Heartbeat(h) => {
                self.heartbeats += 1;
                if self.pressures.len() == PCA_ROWS {
                    self.pressures.pop_front();
                }
                self.pressures.push_back(h.pressures);
            }
            TelemetryEvent::Forecast(_) => self.forecasts += 1,
            TelemetryEvent::Fault(_) => self.faults += 1,
            TelemetryEvent::Recovery(_) => self.recoveries += 1,
            TelemetryEvent::StageSpan(_) => self.stage_spans += 1,
            _ => {}
        }
    }
}

impl TelemetrySink for TallySink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TelemetryEvent) {
        self.count(&event);
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

/// Spans in memory: name, start and end (ns since the log began), the
/// enclosing span and the cell they belong to.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its index (the parent id of its children).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// End span `id` at `end` (for a parent recorded before its children).
    fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    /// A cell span and its four layer phases.
    fn cell(&mut self, parent: usize, id: usize, c: &CellRun) {
        let m = c.marks;
        let root = self.push("cell", m[0], m[5], Some(parent), Some(id));
        for (i, name) in ["setup", "advance", "finish", "telemetry"]
            .into_iter()
            .enumerate()
        {
            self.push(name, m[i], m[i + 1], Some(root), Some(id));
        }
    }

    fn write(&self, path: &Path, w: Workload, seed: u64) -> std::io::Result<()> {
        let opt = |x: Option<usize>| x.map_or(Value::Null, Value::from);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::from(s.name)),
                    ("start_ns".into(), Value::from(s.start_ns)),
                    ("end_ns".into(), Value::from(s.end_ns)),
                    ("parent".into(), opt(s.parent)),
                    ("cell".into(), opt(s.cell)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::from(w.name())),
            ("seed".into(), Value::from(seed)),
            ("spans".into(), Value::Array(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.compact())
    }
}

/// Where the traced run of `w` writes its spans under `dir`.
pub fn span_file(dir: &Path, w: Workload) -> PathBuf {
    dir.join(format!("{}.trace.json", w.name()))
}

/// Run the traced repetition of `w`, report its per-layer metrics and
/// write its spans to [`span_file`] under `dir`.
pub fn trace(w: Workload, scale: &Scale, seed: u64, dir: &Path) -> Report {
    let units = w.trace_units(scale);
    let mut report = Report::new(w, seed, PER_LAYER);
    let mut spans = SpanLog::new();

    let warm = cells::run_unit(w, scale, seed, 0, None);
    let p0 = Instant::now();
    let plain: Vec<UnitRun> = (0..units)
        .map(|u| cells::run_unit(w, scale, seed, u, None))
        .collect();
    let plain_s = p0.elapsed().as_secs_f64();
    let mut sink = TallySink::default();
    let r0 = Instant::now();
    let traced: Vec<UnitRun> = (0..units)
        .map(|u| cells::run_unit(w, scale, seed, u, Some(&mut sink)))
        .collect();
    let r1 = Instant::now();
    let traced_s = (r1 - r0).as_secs_f64();

    check_repetitions(&mut report, &warm, &plain, units);
    for (u, (t, p)) in traced.iter().zip(&plain).enumerate() {
        let mut bad: Vec<String> = t.broken().cloned().collect();
        if t.fingerprint != p.fingerprint {
            bad.push(format!("traced unit {u} diverged from its untraced run"));
        }
        if !bad.is_empty() {
            report.failed_ops += t.submitted();
            report.failures.extend(bad);
        }
        report.ops += t.submitted();
    }

    let root = spans.push("repetition", r0, r1, None, None);
    let mut tally = Tally::default();
    let (mut setup, mut advance, mut finish) = (0.0, 0.0, 0.0);
    let mut coverage = f64::INFINITY;
    for (id, c) in traced.iter().flat_map(|u| &u.cells).enumerate() {
        spans.cell(root, id, c);
        tally += c.tally;
        setup += c.setup_s();
        advance += c.advance_s();
        finish += c.finish_s();
        let phases = c.setup_s() + c.advance_s() + c.finish_s() + c.telemetry_s();
        coverage = coverage.min(phases / c.wall_s());
    }
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
    );
    report.set("bench.span_coverage_pct", 100.0 * coverage);
    report.set("core.runtime.setup_s", setup);
    report.set("core.runtime.advance_s", advance);
    report.set("core.runtime.finish_s", finish);

    let cells = traced.iter().map(|u| u.cells.len()).sum();
    let fleet_cell = traced.first().and_then(|u| u.cells.first());
    fleet_metrics(&mut report, &mut spans, w, scale, seed, fleet_cell, cells);
    telemetry_metrics(&mut report, &mut spans, w, scale, seed);

    let pressures: Vec<[f64; 3]> = sink.pressures.iter().copied().collect();
    let spec = workloads::foreground(w, scale, seed);
    let inputs = Inputs {
        spec: &spec,
        day_s: workloads::day_s(w, scale),
        monitor: match w {
            Workload::ChaosDag => workloads::chaos_monitor(),
            _ => Default::default(),
        },
        pressures: &pressures,
        seed,
        batch: scale.micro_batch,
    };
    let m0 = Instant::now();
    let micro_root = spans.push("micro", m0, m0, None, None);
    let micro = layers::micro(&inputs, &mut spans, micro_root);
    spans.close(micro_root, Instant::now());

    // A layer's estimated share of the advance phase: how often the
    // traced run called it × its isolated per-call time.
    let share = |calls: u64, ns: f64| 100.0 * calls as f64 * ns / (advance * 1e9);
    let completed = tally.completed.max(1) as f64;
    report.set("sim.events", tally.events as f64);
    report.set("sim.events_per_query", tally.events as f64 / completed);
    report.set("sim.events_per_s", tally.events as f64 / advance);
    report.set("sim.queue.push_pop_ns", micro.queue_ns);
    report.set(
        "sim.queue.est_share_pct",
        share(tally.events, micro.queue_ns),
    );
    report.set("core.controller.ticks", sink.ticks as f64);
    report.set("core.controller.decide_ns", micro.decide_ns);
    report.set("core.controller.lambda_max_ns", micro.lambda_max_ns);
    report.set(
        "core.controller.est_share_pct",
        share(sink.ticks, micro.decide_ns),
    );
    report.set("queueing.mmn.wait_quantile_ns", micro.wait_quantile_ns);
    report.set("queueing.mmn.discriminant_lambda_ns", micro.discriminant_ns);
    report.set("core.monitor.heartbeats", sink.heartbeats as f64);
    report.set("core.monitor.heartbeat_ns", micro.heartbeat_ns);
    report.set(
        "core.monitor.est_share_pct",
        share(sink.heartbeats, micro.heartbeat_ns),
    );
    report.set("linalg.pca.fit_ns", micro.pca_fit_ns);
    report.set("forecast.records", sink.forecasts as f64);
    report.set("forecast.tick_ns", micro.forecast_tick_ns);
    report.set(
        "forecast.est_share_pct",
        share(sink.forecasts, micro.forecast_tick_ns),
    );
    report.set("platform.serverless.cold_starts", tally.cold_starts as f64);
    report.set("platform.serverless.warm_execs", tally.warm_execs as f64);
    report.set(
        "platform.serverless.query_share",
        tally.serverless_queries as f64 / completed,
    );
    report.set(
        "platform.serverless.submit_complete_ns",
        micro.submit_complete_ns,
    );
    report.set(
        "platform.serverless.est_share_pct",
        share(tally.serverless_queries, micro.submit_complete_ns),
    );
    report.set("platform.fabric.spills", tally.spills as f64);
    report.set("core.engine.switches", tally.switches as f64);
    report.set("core.engine.failed_switches", tally.failed_switches as f64);
    report.set("core.engine.wasted_prewarms", tally.wasted_prewarms as f64);
    let attempts = tally.switches + tally.failed_switches;
    report.set(
        "core.engine.switch_success_ratio",
        if attempts == 0 {
            1.0
        } else {
            tally.switches as f64 / attempts as f64
        },
    );
    report.set("chaos.faults", sink.faults as f64);
    report.set("chaos.recoveries", sink.recoveries as f64);
    report.set("core.workflow.instances", tally.wf_instances as f64);
    report.set("core.workflow.stage_spans", sink.stage_spans as f64);

    if let Err(e) = spans.write(&span_file(dir, w), w, seed) {
        report.failures.push(format!("writing the span file: {e}"));
    }
    report
}

/// The fleet layer: the traced run on one thread against a 2-thread run
/// (identical results required) and against the other sink mode.
fn fleet_metrics(
    report: &mut Report,
    spans: &mut SpanLog,
    w: Workload,
    scale: &Scale,
    seed: u64,
    traced: Option<&CellRun>,
    next_cell: usize,
) {
    let Some((t1, facts)) = traced
        .and_then(|c| Some((c, c.fleet?)))
        .filter(|_| w.is_fleet())
    else {
        for name in [
            "fleet.epochs",
            "fleet.services_admitted",
            "fleet.shard_imbalance",
            "fleet.run_t1_s",
            "fleet.run_t2_s",
            "fleet.speedup_t2",
            "fleet.digest_overhead_pct",
        ] {
            report.set(name, 0.0);
        }
        return;
    };
    let t2 = cells::fleet_cell(w, scale, seed, PARALLEL_THREADS);
    let other_mode = match w {
        Workload::FleetWeek => Workload::FleetWeekDigest,
        _ => Workload::FleetWeek,
    };
    let other = cells::fleet_cell(other_mode, scale, seed, FLEET_THREADS);
    let root = spans.push("fleet_comparison", t2.marks[0], other.marks[5], None, None);
    spans.cell(root, next_cell, &t2);
    spans.cell(root, next_cell + 1, &other);

    let f2 = t2.fleet.expect("fleet cell");
    if (f2.digest, f2.events, f2.epochs, f2.totals)
        != (facts.digest, facts.events, facts.epochs, facts.totals)
    {
        report.failures.push(format!(
            "fleet results differ between {FLEET_THREADS} and {PARALLEL_THREADS} threads"
        ));
        report.failed_ops += t2.tally.submitted;
    }
    let (quiet, digest) = match w {
        Workload::FleetWeek => (t1.advance_s(), other.advance_s()),
        _ => (other.advance_s(), t1.advance_s()),
    };
    report.set("fleet.epochs", facts.epochs as f64);
    report.set("fleet.services_admitted", facts.totals.services as f64);
    // One worker is one shard: only the 2-thread run can be imbalanced.
    report.set("fleet.shard_imbalance", f2.shard_imbalance);
    report.set("fleet.run_t1_s", t1.advance_s());
    report.set("fleet.run_t2_s", t2.advance_s());
    report.set("fleet.speedup_t2", t1.advance_s() / t2.advance_s());
    report.set("fleet.digest_overhead_pct", 100.0 * (digest / quiet - 1.0));
}

/// The telemetry layer, on one recorded trace of the workload: the
/// first single-experiment cell, or every cell of a smoke-size fleet
/// (a full fleet's trace does not fit in memory).
fn telemetry_metrics(
    report: &mut Report,
    spans: &mut SpanLog,
    w: Workload,
    scale: &Scale,
    seed: u64,
) {
    let build = || match w {
        Workload::ChaosDag => workloads::chaos_experiment(scale.day_s, seed),
        _ => workloads::grid_experiment(0, scale.day_s, seed),
    };
    let mut noop_s = Vec::new();
    let mut memory_s = Vec::new();
    let mut trace = Trace::default();
    let t0 = Instant::now();
    let root = spans.push("telemetry_sample", t0, t0, None, None);
    for _ in 0..3 {
        if w.is_fleet() {
            let run = workloads::fleet_spec(&SMOKE, seed).build();
            let t = Instant::now();
            black_box(run.run_quiet(1));
            noop_s.push(t.elapsed().as_secs_f64());
            let run = workloads::fleet_spec(&SMOKE, seed).build();
            let t = Instant::now();
            let (_, traces) = run.run_traced(1);
            memory_s.push(t.elapsed().as_secs_f64());
            trace = Trace::from_events(
                traces
                    .into_iter()
                    .flat_map(|t| t.events().to_vec())
                    .collect(),
            );
        } else {
            let exp: Experiment = build();
            let t = Instant::now();
            black_box(exp.run());
            noop_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            trace = exp.run_traced().1;
            memory_s.push(t.elapsed().as_secs_f64());
        }
    }
    let events = trace.len().max(1);
    let jsonl = trace.to_jsonl();
    match Trace::from_jsonl(&jsonl) {
        Ok(back) if back.events() == trace.events() => {}
        Ok(_) => report
            .failures
            .push("JSONL round trip changed the trace".into()),
        Err(e) => report
            .failures
            .push(format!("JSONL round trip failed to decode: {e:?}")),
    }
    let stride = events.div_ceil(TELEMETRY_SAMPLE_EVENTS);
    let sample = Trace::from_events(trace.events().iter().step_by(stride).cloned().collect());
    let n = sample.len().max(1);
    let sample_jsonl = sample.to_jsonl();
    let encode = per_call_ns(spans, root, "telemetry.encode", n, || {
        black_box(sample.to_jsonl());
    });
    let decode = per_call_ns(spans, root, "telemetry.decode", n, || {
        black_box(Trace::from_jsonl(&sample_jsonl).is_ok());
    });
    let mut batches: Vec<Vec<TelemetryEvent>> =
        (0..SAMPLES).map(|_| sample.events().to_vec()).collect();
    let digest = per_call_ns(spans, root, "telemetry.digest", n, || {
        let mut d = DigestSink::new();
        for e in batches.pop().unwrap_or_default() {
            d.record(e);
        }
        black_box(d.digest());
    });
    spans.close(root, Instant::now());
    report.set("telemetry.events", trace.len() as f64);
    report.set(
        "telemetry.bytes_per_event",
        jsonl.len() as f64 / events as f64,
    );
    report.set("telemetry.encode_ns_per_event", encode);
    report.set("telemetry.decode_ns_per_event", decode);
    report.set("telemetry.digest_ns_per_event", digest);
    report.set(
        "telemetry.record_overhead_pct",
        100.0 * (median(&memory_s) / median(&noop_s) - 1.0),
    );
}
