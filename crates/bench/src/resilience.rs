//! The `resilience` extension report (beyond the paper): sweep a
//! deterministic fault plan (`amoeba-chaos`) over the §VII-A float
//! scenario and compare how each system variant degrades. Amoeba's
//! switch protocol is built so that every failure mode has a bounded
//! recovery — lost acks retry then roll back with the router still on
//! the old platform, crashed containers re-queue their in-flight
//! query, failed boots re-boot — so its QoS violations should grow no
//! faster than the baselines' as the fault rate rises.

use std::collections::BTreeMap;

use crate::report::{row, Report};
use crate::scenarios::{par_map, standard_scenario};
use amoeba_chaos::FaultPlan;
use amoeba_core::{Experiment, MonitorConfig, RunResult, SystemVariant};
use amoeba_json::json;
use amoeba_sim::SimDuration;
use amoeba_telemetry::Trace;
use amoeba_workload::benchmarks;

/// Multipliers on [`FaultPlan::mixed`]'s rates. Level 0 is the
/// fault-free control (the injector is attached but schedules nothing).
const LEVELS: [f64; 3] = [0.0, 1.0, 2.0];

/// Runs averaged per (variant, level) cell, seeds `seed..seed+SEEDS`.
const SEEDS: u64 = 2;

/// The systems under comparison: Amoeba and its proactive extension
/// against the all-serverless baseline and the no-prewarm ablation.
const VARIANTS: [SystemVariant; 4] = [
    SystemVariant::Amoeba,
    SystemVariant::AmoebaPro,
    SystemVariant::OpenWhisk,
    SystemVariant::AmoebaNoP,
];

/// One traced run of the float scenario under a scaled mixed plan.
pub fn resilience_cell(
    variant: SystemVariant,
    day_s: f64,
    seed: u64,
    level: f64,
) -> (RunResult, Trace) {
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(standard_scenario(benchmarks::float(), day_s))
        .fault_plan(FaultPlan::mixed().scaled(level))
        // The hardened monitor: a short median pre-filter so injected
        // outliers and outage edges cannot yank the pressure estimate.
        .monitor_cfg(MonitorConfig {
            median_window: 3,
            ..MonitorConfig::default()
        })
        .build()
        .run_traced()
}

/// Per-cell aggregates over the comparison seeds.
#[derive(Default)]
struct CellTotals {
    submitted: usize,
    completed: usize,
    failed: usize,
    violations: u64,
    failed_switches: u64,
    wasted_prewarms: u64,
    faults: u64,
    recoveries: u64,
    recovery_s_sum: f64,
}

/// Resilience under injected faults: violations, failed switches and
/// recovery behaviour across the fault-rate sweep.
pub fn resilience(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "resilience",
        "Fault injection: QoS and recovery under a chaos sweep",
    );

    let jobs: Vec<(SystemVariant, f64, u64)> = LEVELS
        .iter()
        .flat_map(|&lvl| {
            VARIANTS
                .iter()
                .flat_map(move |&v| (0..SEEDS).map(move |i| (v, lvl, seed + i)))
        })
        .collect();
    let runs: Vec<(SystemVariant, f64, u64, RunResult, Trace)> = par_map(jobs, |(v, lvl, sd)| {
        let (run, trace) = resilience_cell(v, day_s, sd, lvl);
        (v, lvl, sd, run, trace)
    });

    r.line(format!(
        "Mixed fault plan (container crashes, boot failures, lost acks, \
         meter outages/outliers, pressure spikes) scaled by level, \
         {SEEDS} seeds per cell, {day_s:.0} s day:"
    ));
    let cw = [12, 6, 10, 8, 8, 9, 10, 8, 11];
    r.line(row(
        &[
            "system".into(),
            "level".into(),
            "viol(fg)".into(),
            "failed".into(),
            "aborts".into(),
            "wasted".into(),
            "faults".into(),
            "recov".into(),
            "recov_s".into(),
        ],
        &cw,
    ));

    // Key by (level index, variant label) so rows group by level.
    let mut totals: BTreeMap<(usize, &'static str), CellTotals> = BTreeMap::new();
    for (v, lvl, _sd, run, trace) in &runs {
        let li = LEVELS.iter().position(|x| x == lvl).expect("known level");
        let t = totals.entry((li, v.label())).or_default();
        let fg_name = &run.services[0].name;
        let summary = trace.summary();
        t.violations += summary.services[fg_name].violations();
        for s in &run.services {
            t.submitted += s.submitted;
            t.completed += s.completed;
            t.failed += s.failed;
        }
        t.failed_switches += run.failed_switches;
        t.wasted_prewarms += run.wasted_prewarms;
        t.faults += trace.faults().count() as u64;
        for rec in trace.recoveries() {
            t.recoveries += 1;
            t.recovery_s_sum += rec.after_s;
        }
    }

    let mut cells = Vec::new();
    for (li, &lvl) in LEVELS.iter().enumerate() {
        for v in VARIANTS {
            let t = &totals[&(li, v.label())];
            let mean_recovery = if t.recoveries > 0 {
                t.recovery_s_sum / t.recoveries as f64
            } else {
                0.0
            };
            r.line(row(
                &[
                    v.label().into(),
                    format!("{lvl:.1}"),
                    t.violations.to_string(),
                    t.failed.to_string(),
                    t.failed_switches.to_string(),
                    t.wasted_prewarms.to_string(),
                    t.faults.to_string(),
                    t.recoveries.to_string(),
                    format!("{mean_recovery:.2}"),
                ],
                &cw,
            ));
            cells.push(json!({
                "variant": v.label(),
                "level": lvl,
                "violations_fg": t.violations,
                "submitted": t.submitted,
                "completed": t.completed,
                "failed": t.failed,
                "failed_switches": t.failed_switches,
                "wasted_prewarms": t.wasted_prewarms,
                "faults_injected": t.faults,
                "recoveries": t.recoveries,
                "mean_recovery_s": mean_recovery,
            }));
        }
        r.line("");
    }
    r.line(
        "failed = queries lost to crash-drops; aborts = switches rolled \
         back after ack-retry exhaustion; wasted = prewarmed containers \
         discarded by retries/rollbacks; recov_s = mean time to recovery",
    );
    r.json = json!({
        "levels": (LEVELS.iter().map(|&l| json!(l)).collect::<Vec<_>>()),
        "seeds": SEEDS,
        "cells": cells,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{DEFAULT_DAY_S, DEFAULT_SEED};

    #[test]
    fn report_meets_the_acceptance_bar() {
        let r = resilience(DEFAULT_DAY_S, DEFAULT_SEED);
        let cells = r.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), LEVELS.len() * VARIANTS.len());

        let get = |lvl: f64, variant: &str| {
            cells
                .iter()
                .find(|c| c["level"].as_f64() == Some(lvl) && c["variant"] == variant)
                .unwrap()
        };
        for &lvl in &LEVELS {
            // Conservation holds in every cell: nothing vanishes, losses
            // are explicit.
            for v in VARIANTS {
                let c = get(lvl, v.label());
                assert_eq!(
                    c["submitted"].as_u64().unwrap(),
                    c["completed"].as_u64().unwrap() + c["failed"].as_u64().unwrap(),
                    "{c}"
                );
            }
            // Amoeba absorbs faults at least as well as the serverless
            // baseline and the no-prewarm ablation at every fault rate.
            let amoeba = get(lvl, "Amoeba")["violations_fg"].as_u64().unwrap();
            let ow = get(lvl, "OpenWhisk")["violations_fg"].as_u64().unwrap();
            let nop = get(lvl, "Amoeba-NoP")["violations_fg"].as_u64().unwrap();
            assert!(
                amoeba <= ow,
                "level {lvl}: Amoeba {amoeba} vs OpenWhisk {ow}"
            );
            assert!(amoeba <= nop, "level {lvl}: Amoeba {amoeba} vs NoP {nop}");
        }
        // The fault-free control injects nothing; the sweep does.
        for v in VARIANTS {
            assert_eq!(get(0.0, v.label())["faults_injected"].as_u64(), Some(0));
        }
        let injected = get(2.0, "Amoeba")["faults_injected"].as_u64().unwrap();
        assert!(injected > 0, "level 2 must inject faults");
    }

    #[test]
    fn cells_are_deterministic() {
        let (a, ta) = resilience_cell(SystemVariant::Amoeba, 240.0, 7, 1.0);
        let (b, tb) = resilience_cell(SystemVariant::Amoeba, 240.0, 7, 1.0);
        for (x, y) in a.services.iter().zip(&b.services) {
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.failed, y.failed);
        }
        assert_eq!(a.failed_switches, b.failed_switches);
        assert_eq!(ta.to_jsonl(), tb.to_jsonl(), "traces bit-identical");
    }
}
