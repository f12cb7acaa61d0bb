//! The `workflow` extension report (beyond the paper): a DAG service
//! under an end-to-end QoS budget, with the budget split across stages
//! and each stage switched independently.
//!
//! The fleet runs a 4-stage diamond media pipeline —
//! `ingest → (transform_a ‖ transform_b) → merge` — whose stages have
//! deliberately different resource shapes: `ingest` is network-bound,
//! `transform_a` mixed CPU+disk, `transform_b` disk-IO-bound and
//! `merge` mixed. On IaaS a query holds a whole core through its
//! IO/network phases, so these stages waste rented cores; on
//! serverless they pay per-query overheads and, at peak, the fan-out
//! stages saturate the node's disk (`transform_b` alone moves
//! 40 MB × 60 qps = 2.4 GB/s against a 3 GB/s node). Per-stage
//! switching should therefore hold end-to-end QoS at or below *both*
//! static deployments (all-IaaS Nameko, all-serverless OpenWhisk)
//! while consuming less CPU than all-IaaS.

use crate::report::{row, Report};
use crate::scenarios::{background_services, par_map};
use amoeba_core::{Experiment, RunResult, SystemVariant, WorkflowSetup};
use amoeba_json::json;
use amoeba_sim::SimDuration;
use amoeba_workload::{DemandVector, DiurnalPattern, LoadTrace, WorkflowSpec};

/// End-to-end QoS target on the 95th-percentile latency, seconds —
/// roughly 2× the pipeline's critical-path solo latency, the same
/// headroom ratio the Table III benchmarks run with.
const E2E_TARGET_S: f64 = 0.9;

/// Peak workflow load, queries/second. Every stage sees this peak.
const PEAK_QPS: f64 = 60.0;

/// The systems under comparison: both static deployments and
/// per-stage Amoeba.
const VARIANTS: [SystemVariant; 3] = [
    SystemVariant::Nameko,
    SystemVariant::OpenWhisk,
    SystemVariant::Amoeba,
];

/// The diamond media pipeline.
pub fn media_pipeline() -> WorkflowSpec {
    let mut wf = WorkflowSpec::builder("media", E2E_TARGET_S, PEAK_QPS);
    let ingest = wf.stage(
        "ingest",
        DemandVector {
            cpu_s: 0.008,
            mem_mb: 96.0,
            io_mb: 0.0,
            net_mb: 24.0,
        },
    );
    let transform_a = wf.stage(
        "transform_a",
        DemandVector {
            cpu_s: 0.030,
            mem_mb: 128.0,
            io_mb: 20.0,
            net_mb: 1.0,
        },
    );
    let transform_b = wf.stage(
        "transform_b",
        DemandVector {
            cpu_s: 0.015,
            mem_mb: 96.0,
            io_mb: 40.0,
            net_mb: 0.5,
        },
    );
    let merge = wf.stage(
        "merge",
        DemandVector {
            cpu_s: 0.020,
            mem_mb: 96.0,
            io_mb: 8.0,
            net_mb: 12.0,
        },
    );
    wf.edge(ingest, transform_a)
        .edge(ingest, transform_b)
        .edge(transform_a, merge)
        .edge(transform_b, merge);
    wf.build().expect("valid pipeline")
}

/// One run of the pipeline fleet under `variant`: the workflow on a
/// Didi-shaped diurnal trace plus the three standard background
/// services for contention.
pub fn workflow_cell(variant: SystemVariant, day_s: f64, seed: u64) -> RunResult {
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(background_services(day_s))
        .workflow(WorkflowSetup {
            spec: media_pipeline(),
            trace: LoadTrace::new(DiurnalPattern::didi(), PEAK_QPS, day_s),
        })
        .build()
        .run()
}

/// Per-variant aggregates over the comparison seeds.
#[derive(Default)]
struct CellTotals {
    violations: u64,
    p95_over_target_sum: f64,
    p99_s_sum: f64,
    runs: u64,
    consumed_cpu_s: f64,
    submitted: u64,
    completed: u64,
    failed: u64,
    stage_violations: Vec<u64>,
}

/// DAG services under an end-to-end budget: per-stage Amoeba vs the
/// two static deployments.
pub fn workflow(day_s: f64, seed: u64, seeds: u64) -> Report {
    let mut r = Report::new(
        "workflow",
        "Workflow DAG: per-stage switching vs static deployment under an e2e budget",
    );

    let jobs: Vec<(SystemVariant, u64)> = VARIANTS
        .iter()
        .flat_map(|&v| (0..seeds).map(move |i| (v, seed + i)))
        .collect();
    let runs: Vec<(SystemVariant, RunResult)> =
        par_map(jobs, |(v, sd)| (v, workflow_cell(v, day_s, sd)));

    let spec = media_pipeline();
    let stage_names: Vec<String> = spec.stages().iter().map(|s| s.name.clone()).collect();
    r.line(format!(
        "4-stage diamond pipeline ({}), e2e target {E2E_TARGET_S} s on p95, \
         peak {PEAK_QPS:.0} qps, 3 background services, {seeds} seed(s), \
         {day_s:.0} s day:",
        stage_names.join(" / "),
    ));
    let cw = [11, 10, 9, 9, 12, 10, 24];
    r.line(row(
        &[
            "system".into(),
            "viol_pct".into(),
            "p95/tgt".into(),
            "p99_s".into(),
            "cpu_cons_s".into(),
            "done/sub".into(),
            "stage viol (split budget)".into(),
        ],
        &cw,
    ));

    let percentile = spec.qos_percentile();
    let mut cells = Vec::new();
    for &variant in &VARIANTS {
        let mut t = CellTotals {
            stage_violations: vec![0; spec.stage_count()],
            ..CellTotals::default()
        };
        for (_, run) in runs.iter().filter(|(v, _)| *v == variant) {
            let wf = run.workflows.first().expect("workflow result");
            t.violations += wf.violations as u64;
            t.submitted += wf.submitted as u64;
            t.completed += wf.completed as u64;
            t.failed += wf.failed as u64;
            for (i, &v) in wf.stage_violations.iter().enumerate() {
                t.stage_violations[i] += v as u64;
            }
            let mut rec = wf.latency.clone();
            if let Some(pq) = rec.quantile(percentile) {
                t.p95_over_target_sum += pq.as_secs_f64() / wf.qos_target_s;
            }
            if let Some(p99) = rec.quantile(0.99) {
                t.p99_s_sum += p99.as_secs_f64();
            }
            t.runs += 1;
            for svc in &run.services {
                t.consumed_cpu_s += svc.usage.core_seconds_consumed;
            }
        }
        let n_runs = t.runs.max(1) as f64;
        let p95_over_target = t.p95_over_target_sum / n_runs;
        let p99 = t.p99_s_sum / n_runs;
        let violation_ratio = t.violations as f64 / (t.completed.max(1)) as f64;
        r.line(row(
            &[
                variant.label().into(),
                format!("{:.2}%", violation_ratio * 100.0),
                format!("{p95_over_target:.3}"),
                format!("{p99:.3}"),
                format!("{:.0}", t.consumed_cpu_s),
                format!("{}/{}", t.completed, t.submitted),
                format!("{:?}", t.stage_violations),
            ],
            &cw,
        ));
        cells.push(json!({
            "variant": variant.label(),
            "violations": t.violations,
            "violation_ratio": violation_ratio,
            "p95_over_target": p95_over_target,
            "p99_s": p99,
            "consumed_cpu_s": t.consumed_cpu_s,
            "submitted": t.submitted,
            "completed": t.completed,
            "failed": t.failed,
            "stage_violations": (t.stage_violations.iter().map(|&v| json!(v)).collect::<Vec<_>>()),
        }));
    }
    r.line("");
    r.line(
        "viol_pct = counted instances over the e2e target (QoS holds while \
         it stays within the percentile slack); cpu_cons_s = busy \
         core-seconds across the fleet (IaaS holds a core through IO/net \
         phases); stage viol = completions over each stage's split budget",
    );
    r.json = json!({
        "e2e_target_s": E2E_TARGET_S,
        "qos_percentile": percentile,
        "peak_qps": PEAK_QPS,
        "stages": (stage_names.iter().map(|s| json!(s.as_str())).collect::<Vec<_>>()),
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
    /// enough for the diurnal peak to force per-stage switching.
    const TEST_DAY_S: f64 = 240.0;

    #[test]
    fn report_meets_the_acceptance_bar() {
        let r = workflow(TEST_DAY_S, DEFAULT_SEED, 2);
        let cells = r.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), VARIANTS.len());
        let get = |label: &str| {
            cells
                .iter()
                .find(|c| c["variant"] == label)
                .unwrap_or_else(|| panic!("missing cell {label}"))
        };
        // Conservation: every counted instance completes or fails.
        for c in cells {
            assert_eq!(
                c["submitted"].as_u64().unwrap(),
                c["completed"].as_u64().unwrap() + c["failed"].as_u64().unwrap(),
                "{c}"
            );
        }
        // The acceptance bar: per-stage Amoeba holds end-to-end QoS
        // violations at or below both static deployments, at lower
        // consumed CPU than all-IaaS. QoS is the paper's percentile
        // definition (§II: the target holds at the r-th percentile), so
        // "violations" compare as the violation *ratio* with the
        // percentile slack — an all-IaaS fleet sized for peak is
        // structurally violation-free here, and a raw-count bar against
        // zero would outlaw the cold starts the QoS definition permits.
        // Same convention as the fig10 regression (p95/target ≤ 1.05
        // for Amoeba).
        let percentile = r.json["qos_percentile"].as_f64().unwrap();
        let slack = 1.0 - percentile;
        let amoeba = get(SystemVariant::Amoeba.label());
        // Amoeba itself meets the end-to-end QoS target.
        assert!(
            amoeba["p95_over_target"].as_f64().unwrap() <= 1.05,
            "Amoeba misses its own e2e QoS target: {amoeba}"
        );
        for baseline in [SystemVariant::Nameko, SystemVariant::OpenWhisk] {
            let b = get(baseline.label());
            let b_ratio = b["violation_ratio"].as_f64().unwrap();
            assert!(
                amoeba["violation_ratio"].as_f64().unwrap() <= b_ratio.max(slack),
                "violation ratio vs {}: {amoeba} {b}",
                baseline.label()
            );
        }
        // All-serverless misses QoS outright at peak (disk saturation);
        // Amoeba must beat it strictly.
        let openwhisk = get(SystemVariant::OpenWhisk.label());
        assert!(
            amoeba["violation_ratio"].as_f64().unwrap()
                < openwhisk["violation_ratio"].as_f64().unwrap(),
            "violation ratio vs all-serverless: {amoeba} {openwhisk}"
        );
        let nameko = get(SystemVariant::Nameko.label());
        assert!(
            amoeba["consumed_cpu_s"].as_f64() < nameko["consumed_cpu_s"].as_f64(),
            "consumed CPU vs all-IaaS: {amoeba} {nameko}"
        );
    }

    #[test]
    fn cells_are_deterministic() {
        for v in VARIANTS {
            let a = workflow_cell(v, 120.0, 7);
            let b = workflow_cell(v, 120.0, 7);
            let (wa, wb) = (&a.workflows[0], &b.workflows[0]);
            assert_eq!(wa.completed, wb.completed, "{v:?}");
            assert_eq!(wa.violations, wb.violations, "{v:?}");
            for (x, y) in a.services.iter().zip(&b.services) {
                assert_eq!(x.completed, y.completed, "{v:?} {}", x.name);
            }
        }
    }
}
