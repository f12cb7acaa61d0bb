//! Telemetry integration tests: attach a sink to a full experiment and
//! check the stream is complete (a record per controller tick, a
//! well-formed span per switch), round-trips through JSON lines, and
//! never perturbs the run itself.

use amoeba::core::{Experiment, ServiceSetup, SystemVariant};
use amoeba::sim::SimDuration;
use amoeba::telemetry::{DeployMode, SwitchPhase, TelemetryEvent, TickReason, Trace};
use amoeba::workload::{benchmarks, DiurnalPattern, LoadTrace};

fn scenario(day_s: f64) -> Vec<ServiceSetup> {
    let fg = benchmarks::float();
    let mut setups = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), fg.peak_qps, day_s),
        spec: fg,
        background: false,
    }];
    for (name, frac) in [("dd", 0.15), ("cloud_stor", 0.2)] {
        let mut spec = benchmarks::benchmark_by_name(name).unwrap();
        spec.peak_qps *= frac;
        spec.name = format!("bg_{name}");
        setups.push(ServiceSetup {
            trace: LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps, day_s),
            spec,
            background: true,
        });
    }
    setups
}

fn traced(variant: SystemVariant, day_s: f64, seed: u64) -> (amoeba::core::RunResult, Trace) {
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(scenario(day_s))
        .build()
        .run_traced()
}

#[test]
fn header_leads_the_stream_and_names_every_service() {
    let (_, trace) = traced(SystemVariant::Amoeba, 120.0, 3);
    let Some(TelemetryEvent::RunStarted {
        variant,
        seed,
        horizon_s,
        services,
    }) = trace.events().first()
    else {
        panic!("first event must be the run header");
    };
    assert_eq!(variant, "Amoeba");
    assert_eq!(*seed, 3);
    assert!((*horizon_s - 120.0).abs() < 1e-9);
    assert_eq!(services.len(), 3);
    assert_eq!(services[0].name, "float");
    assert!(!services[0].background);
    assert_eq!(services[0].initial_mode, DeployMode::Iaas);
    assert!(services[1].background && services[2].background);
    assert_eq!(trace.service_name(0), "float");
}

#[test]
fn every_control_tick_is_recorded_for_every_unpinned_service() {
    // control_period = 1 s, horizon 240 s: ticks fire at t = 1..239
    // (the tick at the horizon is not scheduled). Only the foreground
    // service is unpinned under Amoeba.
    let (_, trace) = traced(SystemVariant::Amoeba, 240.0, 5);
    let ticks: Vec<_> = trace.ticks().collect();
    assert_eq!(ticks.len(), 239, "one record per tick per unpinned service");
    assert!(ticks.iter().all(|t| t.service == 0));
    // Times are exactly the tick grid.
    for (i, t) in ticks.iter().enumerate() {
        assert_eq!(t.t.as_micros(), (i as u64 + 1) * 1_000_000);
    }
    // The stream carries the discriminant quantities.
    assert!(ticks.iter().all(|t| t.mu > 0.0 && t.lambda_max >= 0.0));
    // In-transition ticks are marked rather than skipped: any switch
    // whose preparation outlives a full tick must surface as one.
    let long_window = trace.switch_spans().iter().any(|s| {
        s.flip
            .map(|f| f.duration_since(s.requested).as_secs_f64() > 2.0)
            .unwrap_or(false)
    });
    if long_window {
        assert!(
            ticks.iter().any(|t| t.reason == TickReason::InTransition),
            "preparation windows must surface as in-transition ticks"
        );
    }
}

#[test]
fn every_switch_has_a_complete_span() {
    let (run, trace) = traced(SystemVariant::Amoeba, 360.0, 3);
    let spans = trace.switch_spans();
    let completed: Vec<_> = spans.iter().filter(|s| s.completed()).collect();
    assert_eq!(
        completed.len(),
        run.services[0].switch_history.len(),
        "one completed span per recorded switch"
    );
    assert!(!completed.is_empty(), "diurnal day must switch");
    for s in &completed {
        assert_eq!(s.service, 0);
        let flip = s.flip.expect("completed span has a flip");
        assert!(s.requested <= flip, "protocol order");
        assert!(s.release_issued.is_some(), "old side released");
        if s.to == DeployMode::Serverless {
            assert!(s.prewarm_count >= 1, "Eq. 7 prewarms at least one");
            let ack = s.ack.expect("serverless switch awaits the ack");
            assert!(s.requested <= ack && ack <= flip);
            // IaaS drain follows the flip when it finishes in-horizon.
            if let Some(d) = s.drained {
                assert!(d >= flip);
            }
        }
    }
    // Mode timeline agrees with the spans: time-in-mode covers the
    // horizon exactly.
    let summary = trace.summary();
    let fg = &summary.services["float"];
    let total = fg.time_in_iaas.as_secs_f64() + fg.time_in_serverless.as_secs_f64();
    assert!((total - 360.0).abs() < 1e-6, "time-in-mode sums to horizon");
    assert!(fg.time_in_serverless.as_secs_f64() > 0.0);
}

#[test]
fn nop_switches_flip_immediately_and_attribute_cold_starts() {
    let (run, trace) = traced(SystemVariant::AmoebaNoP, 360.0, 19);
    let down: Vec<_> = trace
        .switch_spans()
        .into_iter()
        .filter(|s| s.to == DeployMode::Serverless && s.completed())
        .collect();
    if run.services[0].switch_history.is_empty() {
        return;
    }
    for s in &down {
        assert_eq!(s.ack, None, "NoP never waits for a prewarm ack");
        assert_eq!(s.flip, Some(s.requested), "router flips at request time");
    }
    // The cold starts those unprepared flips cause are attributed.
    let cold = trace
        .violations()
        .filter(|v| v.service == 0 && v.cause == amoeba::telemetry::ViolationCause::ColdStart)
        .count();
    assert!(cold > 0, "NoP cold-start violations must be attributed");
}

#[test]
fn heartbeats_and_violation_accounting_match_the_run() {
    let (run, trace) = traced(SystemVariant::Amoeba, 240.0, 11);
    assert!(
        trace.heartbeats().count() > 0,
        "monitor heartbeats recorded"
    );
    for hb in trace.heartbeats() {
        // Uniform [1, 1, 1] until the PCA has samples, normalised after.
        let w: f64 = hb.weights.iter().sum();
        assert!(
            hb.weights == [1.0; 3] || (w - 1.0).abs() < 1e-6,
            "weights neither uniform nor normalised: {:?}",
            hb.weights
        );
    }
    // Serverless-side violations in the trace equal the counter the run
    // keeps (the trace additionally sees IaaS-side misses).
    for (idx, s) in run.services.iter().enumerate() {
        let sl = trace
            .violations()
            .filter(|v| v.service == idx && v.platform == DeployMode::Serverless)
            .count();
        assert_eq!(sl, s.serverless_violations, "{}", s.name);
    }
    // Warm samples replay to the same breakdown count.
    let warm = trace.warm_samples().filter(|w| w.service == 0).count();
    assert_eq!(warm, run.services[0].breakdown.count);
}

#[test]
fn trace_round_trips_through_jsonl() {
    let (_, trace) = traced(SystemVariant::Amoeba, 120.0, 7);
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.len());
    let back = Trace::from_jsonl(&jsonl).expect("decode");
    assert_eq!(back.events(), trace.events());
}

#[test]
fn attaching_a_sink_does_not_change_the_run() {
    let exp = {
        let day_s = 240.0;
        Experiment::builder(SystemVariant::Amoeba, SimDuration::from_secs_f64(day_s), 7)
            .services(scenario(day_s))
            .build()
    };
    let mut plain = exp.run();
    let (mut traced, trace) = exp.run_traced();
    assert_eq!(plain.services[0].completed, traced.services[0].completed);
    assert_eq!(plain.cold_starts, traced.cold_starts);
    assert_eq!(plain.final_weights, traced.final_weights);
    assert_eq!(plain.mean_pressures, traced.mean_pressures);
    assert_eq!(
        plain.services[0].latency.quantile(0.95),
        traced.services[0].latency.quantile(0.95)
    );
    assert_eq!(
        plain.services[0].switch_history,
        traced.services[0].switch_history
    );
    assert!(!trace.is_empty());
    let _ = (&mut plain, &mut traced);
}

#[test]
fn forecast_events_round_trip_and_cover_every_pro_tick() {
    let (_, trace) = traced(SystemVariant::AmoebaPro, 240.0, 7);
    // One forecast per tick per unpinned (forecasting) service.
    let forecasts: Vec<_> = trace.forecasts().collect();
    assert_eq!(forecasts.len(), trace.ticks().count());
    for f in &forecasts {
        assert_eq!(f.service, 0);
        assert!(f.horizon_s > 0.0);
        assert!(f.lo_qps <= f.mean_qps && f.mean_qps <= f.hi_qps);
        assert!(f.realized_qps.is_none(), "runtime leaves realized unset");
    }
    // Reactive variants never emit forecasts.
    let (_, reactive) = traced(SystemVariant::Amoeba, 240.0, 7);
    assert_eq!(reactive.forecasts().count(), 0);
    // Losslessness through the JSONL codec, including a filled-in
    // realized λ (the report layer writes one before exporting).
    let mut events = trace.events().to_vec();
    if let Some(TelemetryEvent::Forecast(r)) = events
        .iter_mut()
        .find(|e| matches!(e, TelemetryEvent::Forecast(_)))
    {
        r.realized_qps = Some(42.25);
    }
    let annotated = Trace::from_events(events);
    let jsonl = annotated.to_jsonl();
    let back = Trace::from_jsonl(&jsonl).expect("decode");
    assert_eq!(back.events(), annotated.events());
    assert_eq!(
        back.forecasts().find_map(|f| f.realized_qps),
        Some(42.25),
        "realized λ survives the round trip"
    );
}

#[test]
fn tracing_an_amoeba_pro_run_does_not_change_it() {
    // The forecaster feeds on controller state every tick whether or
    // not a sink listens; a traced run must stay bit-identical.
    let exp = {
        let day_s = 240.0;
        Experiment::builder(
            SystemVariant::AmoebaPro,
            SimDuration::from_secs_f64(day_s),
            7,
        )
        .services(scenario(day_s))
        .build()
    };
    let mut plain = exp.run();
    let (mut traced, trace) = exp.run_traced();
    assert_eq!(plain.services[0].completed, traced.services[0].completed);
    assert_eq!(plain.cold_starts, traced.cold_starts);
    assert_eq!(plain.final_weights, traced.final_weights);
    assert_eq!(plain.mean_pressures, traced.mean_pressures);
    assert_eq!(
        plain.services[0].latency.quantile(0.95),
        traced.services[0].latency.quantile(0.95)
    );
    assert_eq!(
        plain.services[0].switch_history,
        traced.services[0].switch_history
    );
    assert!(trace.forecasts().count() > 0);
}

#[test]
fn switch_records_carry_matching_modes() {
    let (_, trace) = traced(SystemVariant::Amoeba, 360.0, 3);
    for e in trace.switch_events() {
        assert_ne!(e.from, e.to, "a switch changes mode");
    }
    // Drained events only ever describe leaving IaaS.
    assert!(trace
        .switch_events()
        .filter(|e| e.phase == SwitchPhase::Drained)
        .all(|e| e.from == DeployMode::Iaas));
}
