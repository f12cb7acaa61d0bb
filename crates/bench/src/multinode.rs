//! The `multinode` extension report (beyond the paper): run the §VII-A
//! float scenario on a 4-node geo-distributed topology and compare
//! three placement schedulers built on the placement-target API —
//! Amoeba-per-node (each service switches IaaS↔serverless on its home
//! node, spilling serverless work to a calmer peer when the home pool
//! saturates), NOAH-style least-loaded serverless scheduling, and a
//! contention-aware static edge placement. Amoeba's per-node switching
//! should hold QoS violations at or below both static baselines while
//! consuming no more CPU.

use crate::report::{row, Report};
use crate::scenarios::{par_map, standard_scenario};
use amoeba_core::{Experiment, RunResult, SystemVariant};
use amoeba_json::json;
use amoeba_platform::Scheduler;
use amoeba_sim::SimDuration;
use amoeba_workload::benchmarks;

/// The 4-node topology: a full-size home node plus three smaller
/// peers, 40 ms RTT apart (a regional metro fabric).
const NODE_SCALES: [f64; 4] = [1.0, 0.75, 0.75, 0.5];

/// Inter-node round-trip latency, seconds.
const RTT_S: f64 = 0.04;

/// The schedulers under comparison, with the system variant each runs
/// on: Amoeba-per-node keeps the switching controller; the static
/// baselines pin every service serverless (placement is their only
/// knob, as in NOAH and the edge-deployment baselines).
const SCHEDULERS: [(Scheduler, SystemVariant); 3] = [
    (Scheduler::AmoebaPerNode, SystemVariant::Amoeba),
    (Scheduler::Noah, SystemVariant::OpenWhisk),
    (Scheduler::EdgeAware, SystemVariant::OpenWhisk),
];

fn scheduler_label(s: Scheduler) -> &'static str {
    match s {
        Scheduler::AmoebaPerNode => "Amoeba/node",
        Scheduler::Noah => "NOAH",
        Scheduler::EdgeAware => "EdgeAware",
    }
}

/// One run of the float scenario on the 4-node topology.
pub fn multinode_cell(
    scheduler: Scheduler,
    variant: SystemVariant,
    day_s: f64,
    seed: u64,
) -> RunResult {
    let mut b = Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(standard_scenario(benchmarks::float(), day_s))
        .nodes(NODE_SCALES.len())
        .inter_node_latency(SimDuration::from_secs_f64(RTT_S))
        .scheduler(scheduler);
    for (i, &scale) in NODE_SCALES.iter().enumerate().skip(1) {
        b = b.node_capacity(i, scale);
    }
    b.build().run()
}

/// Per-scheduler aggregates over the comparison seeds.
#[derive(Default)]
struct CellTotals {
    violations_fg: u64,
    p99_s_sum: f64,
    p99_runs: u64,
    consumed_cpu_s: f64,
    cold_starts: u64,
    spills: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    node_submitted: Vec<u64>,
}

/// Geo-distributed placement: QoS, consumed CPU, cold starts and
/// cross-node spill behaviour of the three schedulers on the 4-node
/// topology.
pub fn multinode(day_s: f64, seed: u64, seeds: u64) -> Report {
    let mut r = Report::new(
        "multinode",
        "Geo-distributed placement: Amoeba-per-node vs NOAH vs edge placement",
    );

    let jobs: Vec<(Scheduler, SystemVariant, u64)> = SCHEDULERS
        .iter()
        .flat_map(|&(s, v)| (0..seeds).map(move |i| (s, v, seed + i)))
        .collect();
    let runs: Vec<(Scheduler, RunResult)> =
        par_map(jobs, |(s, v, sd)| (s, multinode_cell(s, v, day_s, sd)));

    r.line(format!(
        "4-node topology (capacity scales {NODE_SCALES:?}, {:.0} ms RTT), \
         float foreground + 3 background services, {seeds} seed(s), \
         {day_s:.0} s day:",
        RTT_S * 1e3,
    ));
    let cw = [12, 10, 9, 12, 7, 8, 18];
    r.line(row(
        &[
            "scheduler".into(),
            "viol(fg)".into(),
            "p99_s".into(),
            "cpu_cons_s".into(),
            "cold".into(),
            "spills".into(),
            "per-node submits".into(),
        ],
        &cw,
    ));

    let mut cells = Vec::new();
    for &(sched, _) in &SCHEDULERS {
        let mut t = CellTotals {
            node_submitted: vec![0; NODE_SCALES.len()],
            ..CellTotals::default()
        };
        for (s, run) in runs.iter().filter(|(s, _)| *s == sched) {
            let _ = s;
            let mut run_p99 = 0.0f64;
            for svc in &run.services {
                if !svc.background {
                    let n = svc.latency.count();
                    t.violations_fg += (svc.violation_ratio() * n as f64).round() as u64;
                    let mut rec = svc.latency.clone();
                    if let Some(p99) = rec.quantile(0.99) {
                        run_p99 = run_p99.max(p99.as_secs_f64());
                    }
                }
                t.consumed_cpu_s += svc.usage.core_seconds_consumed;
            }
            t.p99_s_sum += run_p99;
            t.p99_runs += 1;
            t.cold_starts += run.cold_starts;
            let mn = run.multinode.as_ref().expect("multi-node run");
            t.spills += mn.spill_total;
            for (i, n) in mn.nodes.iter().enumerate() {
                t.submitted += n.submitted;
                t.completed += n.completed;
                t.failed += n.failed;
                t.node_submitted[i] += n.submitted;
            }
        }
        let p99 = t.p99_s_sum / t.p99_runs.max(1) as f64;
        r.line(row(
            &[
                scheduler_label(sched).into(),
                t.violations_fg.to_string(),
                format!("{p99:.3}"),
                format!("{:.0}", t.consumed_cpu_s),
                t.cold_starts.to_string(),
                t.spills.to_string(),
                format!("{:?}", t.node_submitted),
            ],
            &cw,
        ));
        cells.push(json!({
            "scheduler": scheduler_label(sched),
            "violations_fg": t.violations_fg,
            "p99_s": p99,
            "consumed_cpu_s": t.consumed_cpu_s,
            "cold_starts": t.cold_starts,
            "spills": t.spills,
            "submitted": t.submitted,
            "completed": t.completed,
            "failed": t.failed,
            "node_submitted": (t.node_submitted.iter().map(|&n| json!(n)).collect::<Vec<_>>()),
        }));
    }
    r.line("");
    r.line(
        "viol(fg) = foreground QoS violations; cpu_cons_s = busy \
         core-seconds across the fleet (contention-inflated); cold = \
         container cold starts on every node; spills = queries executed \
         off their home node",
    );
    r.json = json!({
        "node_scales": (NODE_SCALES.iter().map(|&s| json!(s)).collect::<Vec<_>>()),
        "rtt_s": RTT_S,
        "seeds": seeds,
        "cells": cells,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::DEFAULT_SEED;

    /// Shorter than the report default so the suite stays fast, long
    /// enough for the diurnal peak to force switching and spills.
    const TEST_DAY_S: f64 = 240.0;

    #[test]
    fn report_meets_the_acceptance_bar() {
        let r = multinode(TEST_DAY_S, DEFAULT_SEED, 2);
        let cells = r.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), SCHEDULERS.len());
        let get = |label: &str| {
            cells
                .iter()
                .find(|c| c["scheduler"] == label)
                .unwrap_or_else(|| panic!("missing cell {label}"))
        };
        // Conservation: nothing vanishes across the fabric.
        for c in cells {
            assert_eq!(
                c["submitted"].as_u64().unwrap(),
                c["completed"].as_u64().unwrap() + c["failed"].as_u64().unwrap(),
                "{c}"
            );
        }
        // NOAH chases the calmest pool, so every service warms
        // containers on every node: it cold-starts more than static
        // edge placement, which keeps each service on one node.
        let cold = |label: &str| get(label)["cold_starts"].as_u64().unwrap();
        assert!(cold("NOAH") > cold("EdgeAware"), "{cells:?}");
        // The acceptance bar: Amoeba-per-node holds QoS violations at
        // or below each static baseline at equal or lower consumed CPU.
        let amoeba = get("Amoeba/node");
        for baseline in ["NOAH", "EdgeAware"] {
            let b = get(baseline);
            assert!(
                amoeba["violations_fg"].as_u64() <= b["violations_fg"].as_u64(),
                "violations vs {baseline}: {amoeba} {b}"
            );
            assert!(
                amoeba["consumed_cpu_s"].as_f64() <= b["consumed_cpu_s"].as_f64(),
                "consumed CPU vs {baseline}: {amoeba} {b}"
            );
        }
    }

    #[test]
    fn cells_are_deterministic() {
        for (s, v) in SCHEDULERS {
            let a = multinode_cell(s, v, 120.0, 7);
            let b = multinode_cell(s, v, 120.0, 7);
            assert_eq!(a.multinode, b.multinode, "{s:?}");
            for (x, y) in a.services.iter().zip(&b.services) {
                assert_eq!(x.completed, y.completed, "{s:?} {}", x.name);
            }
        }
    }
}
