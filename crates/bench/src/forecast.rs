//! The `forecast` extension report (beyond the paper): backtest the four
//! load forecasters on the Didi-shaped diurnal trace, then compare the
//! reactive controller (Amoeba) against proactive switching (Amoeba-Pro)
//! on switch-window QoS violations, time-in-mode, and resource usage.

use std::collections::BTreeMap;

use crate::report::{row, Report};
use crate::scenarios::{par_map, standard_scenario};
use amoeba_core::{Experiment, RunResult, SystemVariant};
use amoeba_forecast::{
    backtest, BacktestConfig, Ewma, Forecaster, HoltLinear, HoltWintersDiurnal, Naive,
};
use amoeba_json::json;
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::Trace;
use amoeba_workload::{benchmarks, DiurnalPattern, LoadTrace};

/// Switch-window pad, seconds: one switch latency (VM boot + control
/// period) on either side of a transition. A violation inside the
/// padded window is charged to that switch — it hit a query while the
/// transition was in flight, imminent, or still settling.
const WINDOW_PAD_S: f64 = 6.0;

/// The comparison replays this many Didi days per run, so the seasonal
/// forecaster has day 1 to seed before its decisions start to differ.
const DAYS: f64 = 3.0;

/// Runs averaged per variant (seeds `seed .. seed + SEEDS`): one switch
/// window holds only a handful of Poisson arrivals, so a single seed is
/// mostly luck.
const SEEDS: u64 = 3;

/// The four models under comparison, fresh.
fn models(day: SimDuration) -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(Naive::new()),
        Box::new(Ewma::default()),
        Box::new(HoltLinear::default()),
        Box::new(HoltWintersDiurnal::new(day, 240)),
    ]
}

/// QoS violations landing inside a padded switch window of the
/// foreground service — the misses proactive switching targets.
fn switch_window_violations(trace: &Trace, service: usize) -> u64 {
    let pad = SimDuration::from_secs_f64(WINDOW_PAD_S);
    let windows: Vec<(SimTime, SimTime)> = trace
        .switch_spans()
        .into_iter()
        .filter(|s| s.service == service)
        .map(|s| {
            let settle = s.drained.or(s.flip).or(s.aborted).unwrap_or(s.requested);
            (s.requested - pad, settle + pad)
        })
        .collect();
    trace
        .violations()
        .filter(|v| v.service == service)
        .filter(|v| windows.iter().any(|&(a, b)| a <= v.t && v.t <= b))
        .count() as u64
}

/// Score a Pro run's own forecasts against the load the controller later
/// measured on the tick grid — filling in the `realized_qps` an exporter
/// would. Returns `(samples, mape, coverage)`.
fn realized_accuracy(trace: &Trace) -> (u64, f64, f64) {
    let loads: BTreeMap<u64, f64> = trace
        .ticks()
        .map(|t| (t.t.as_micros(), t.load_qps))
        .collect();
    let peak = trace.ticks().map(|t| t.load_qps).fold(0.0f64, f64::max);
    let floor = (peak * 1e-3).max(1e-9);
    let (mut n, mut ape, mut covered) = (0u64, 0.0f64, 0u64);
    for f in trace.forecasts() {
        let at = f.t + SimDuration::from_secs_f64(f.horizon_s);
        let Some(&realized) = loads.get(&at.as_micros()) else {
            continue;
        };
        n += 1;
        ape += (f.mean_qps - realized).abs() / realized.abs().max(floor);
        if f.lo_qps <= realized && realized <= f.hi_qps {
            covered += 1;
        }
    }
    if n == 0 {
        return (0, 0.0, 0.0);
    }
    (n, ape / n as f64, covered as f64 / n as f64)
}

/// Per-variant aggregates over the comparison seeds.
#[derive(Default)]
struct VariantTotals {
    switch_window: u64,
    violations: u64,
    switches: u64,
    time_in_serverless_s: f64,
    consumed_core_s: f64,
    alloc_core_s: f64,
}

fn comparison_run(variant: SystemVariant, day_s: f64, seed: u64) -> (RunResult, Trace) {
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s * DAYS), seed)
        .services(standard_scenario(benchmarks::float(), day_s))
        .build()
        .run_traced()
}

/// Forecasting + proactive switching: the backtest table and the
/// reactive-vs-proactive comparison the extension is judged on.
pub fn forecast(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "forecast",
        "Load forecasting and proactive switching (Amoeba-Pro)",
    );
    let spec = benchmarks::float();

    // Part 1 — backtest every model on the noiseless foreground trace:
    // two seed days, one scored day, at the controller's switch-up
    // horizon (VM boot 5 s + control period 1 s).
    let load = LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps, day_s);
    let day = SimDuration::from_secs_f64(load.day_seconds());
    let cfg = BacktestConfig::over_days(
        &load,
        SimDuration::from_secs(1),
        SimDuration::from_secs(6),
        2.0,
        3.0,
    );
    r.line("Backtest, noiseless Didi trace (2 seed days, 1 scored day, 6 s horizon):");
    let bw = [14, 9, 9, 9, 10];
    r.line(row(
        &[
            "model".into(),
            "samples".into(),
            "MAE".into(),
            "MAPE".into(),
            "coverage".into(),
        ],
        &bw,
    ));
    let mut bt = Vec::new();
    for mut m in models(day) {
        let b = backtest(m.as_mut(), &load, &cfg);
        r.line(row(
            &[
                m.name().into(),
                b.samples.to_string(),
                format!("{:.3}", b.mae),
                format!("{:.2}%", b.mape * 100.0),
                format!("{:.3}", b.coverage),
            ],
            &bw,
        ));
        bt.push(json!({
            "model": m.name(),
            "samples": b.samples,
            "mae": b.mae,
            "mape": b.mape,
            "coverage": b.coverage,
            "mean_width": b.mean_width,
        }));
    }

    // Part 2 — the §VII-A float scenario over three Didi days, reactive
    // vs proactive, across the comparison seeds.
    let variants = [SystemVariant::Amoeba, SystemVariant::AmoebaPro];
    let jobs: Vec<(SystemVariant, u64)> = (0..SEEDS)
        .flat_map(|i| variants.map(|v| (v, seed + i)))
        .collect();
    let runs: Vec<(SystemVariant, u64, RunResult, Trace)> = par_map(jobs, |(v, sd)| {
        let (run, trace) = comparison_run(v, day_s, sd);
        (v, sd, run, trace)
    });

    r.line("");
    r.line(format!(
        "Reactive vs proactive, float scenario over {DAYS:.0} Didi days x {SEEDS} seeds \
         (switch window = transition +/- {WINDOW_PAD_S:.0} s):"
    ));
    let cw = [12, 6, 10, 10, 9, 11, 11, 11];
    r.line(row(
        &[
            "system".into(),
            "seed".into(),
            "sw-window".into(),
            "viol(fg)".into(),
            "switches".into(),
            "t_sls (s)".into(),
            "cpu-used".into(),
            "cpu-alloc".into(),
        ],
        &cw,
    ));
    let mut totals: BTreeMap<&'static str, VariantTotals> = BTreeMap::new();
    let mut per_seed: BTreeMap<&'static str, Vec<amoeba_json::Value>> = BTreeMap::new();
    let mut pro_accuracy = (0u64, 0.0f64, 0.0f64);
    for (v, sd, run, trace) in &runs {
        let label = v.label();
        let summary = trace.summary();
        let fg = &summary.services[&run.services[0].name];
        let sw = switch_window_violations(trace, 0);
        let usage = run.services[0].usage;
        r.line(row(
            &[
                label.into(),
                sd.to_string(),
                sw.to_string(),
                fg.violations().to_string(),
                fg.switches.to_string(),
                format!("{:.0}", fg.time_in_serverless.as_secs_f64()),
                format!("{:.0}", usage.core_seconds_consumed),
                format!("{:.0}", usage.core_seconds),
            ],
            &cw,
        ));
        let t = totals.entry(label).or_default();
        t.switch_window += sw;
        t.violations += fg.violations();
        t.switches += fg.switches;
        t.time_in_serverless_s += fg.time_in_serverless.as_secs_f64();
        t.consumed_core_s += usage.core_seconds_consumed;
        t.alloc_core_s += usage.core_seconds;
        per_seed.entry(label).or_default().push(json!({
            "seed": *sd,
            "switch_window_violations": sw,
            "violations": fg.violations(),
            "switches": fg.switches,
            "time_in_iaas_s": fg.time_in_iaas.as_secs_f64(),
            "time_in_serverless_s": fg.time_in_serverless.as_secs_f64(),
            "core_seconds_consumed": usage.core_seconds_consumed,
            "core_seconds": usage.core_seconds,
        }));
        if v.proactive() && *sd == seed {
            pro_accuracy = realized_accuracy(trace);
        }
    }
    r.line("");
    let mut cmp = Vec::new();
    for v in variants {
        let label = v.label();
        let t = &totals[label];
        r.line(row(
            &[
                label.into(),
                "all".into(),
                t.switch_window.to_string(),
                t.violations.to_string(),
                t.switches.to_string(),
                format!("{:.0}", t.time_in_serverless_s),
                format!("{:.0}", t.consumed_core_s),
                format!("{:.0}", t.alloc_core_s),
            ],
            &cw,
        ));
        let (fc_samples, fc_mape, fc_cov) = if v.proactive() {
            pro_accuracy
        } else {
            (0, 0.0, 0.0)
        };
        cmp.push(json!({
            "variant": label,
            "switch_window_violations": t.switch_window,
            "violations": t.violations,
            "switches": t.switches,
            "time_in_serverless_s": t.time_in_serverless_s,
            "core_seconds_consumed": t.consumed_core_s,
            "core_seconds": t.alloc_core_s,
            "forecast_samples": fc_samples,
            "forecast_mape": fc_mape,
            "forecast_coverage": fc_cov,
            "per_seed": per_seed[label].clone(),
        }));
    }
    r.line(format!(
        "cpu-used = core-seconds consumed; proactive prewarming trades \
         ~{:.1}% more allocated capacity for the switch-window wins",
        100.0 * (totals["Amoeba-Pro"].alloc_core_s / totals["Amoeba"].alloc_core_s - 1.0)
    ));
    r.json = json!({
        "days": DAYS,
        "seeds": SEEDS,
        "window_pad_s": WINDOW_PAD_S,
        "backtest": bt,
        "comparison": cmp,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{DEFAULT_DAY_S, DEFAULT_SEED};

    #[test]
    fn report_meets_the_acceptance_bar() {
        let r = forecast(DEFAULT_DAY_S, DEFAULT_SEED);

        // The backtest harness scores MAPE for all four forecasters, and
        // the seasonal model beats the naive baseline.
        let bt = r.json["backtest"].as_array().unwrap();
        assert_eq!(bt.len(), 4, "all four forecasters scored");
        for b in bt {
            assert!(b["samples"].as_u64().unwrap() > 400, "{b}");
            assert!(b["mape"].as_f64().unwrap().is_finite(), "{b}");
        }
        let mape = |name: &str| {
            bt.iter().find(|b| b["model"] == name).unwrap()["mape"]
                .as_f64()
                .unwrap()
        };
        assert!(mape("holt_winters") < mape("naive"));

        // Amoeba-Pro: strictly fewer switch-window violations than the
        // reactive controller at equal or lower CPU consumption.
        let cmp = r.json["comparison"].as_array().unwrap();
        let reactive = &cmp[0];
        let pro = &cmp[1];
        assert_eq!(reactive["variant"], "Amoeba");
        assert_eq!(pro["variant"], "Amoeba-Pro");
        assert!(
            pro["switch_window_violations"].as_u64().unwrap()
                < reactive["switch_window_violations"].as_u64().unwrap(),
            "pro {pro} vs reactive {reactive}"
        );
        assert!(
            pro["core_seconds_consumed"].as_f64().unwrap()
                <= reactive["core_seconds_consumed"].as_f64().unwrap(),
            "pro {pro} vs reactive {reactive}"
        );

        // The run's own forecasts are sane: plenty of realized samples,
        // most covered by the interval, and none from the reactive run.
        assert!(pro["forecast_samples"].as_u64().unwrap() > 100);
        assert!(pro["forecast_coverage"].as_f64().unwrap() > 0.5);
        assert_eq!(reactive["forecast_samples"].as_u64().unwrap(), 0);
    }
}
