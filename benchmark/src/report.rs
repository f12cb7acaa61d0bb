//! Metric names and units, and the printed result.
//!
//! The tables here are the single list of what the benchmark reports;
//! `BENCHMARK.json` repeats them with their bounds, and the smoke test
//! checks that the two agree.

use amoeba_json::Value;

use crate::workloads::Workload;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_qps", "queries/s"),
    ("run_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"),
    ("qos_violation_pct", "%"),
    ("core_s_per_query", "core-s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_query", "ratio"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue.push_pop_ns", "ns"),
    ("sim.queue.est_share_pct", "%"),
    ("core.runtime.setup_s", "s"),
    ("core.runtime.advance_s", "s"),
    ("core.runtime.finish_s", "s"),
    ("core.controller.ticks", "count"),
    ("core.controller.decide_ns", "ns"),
    ("core.controller.lambda_max_ns", "ns"),
    ("core.controller.est_share_pct", "%"),
    ("queueing.mmn.wait_quantile_ns", "ns"),
    ("queueing.mmn.discriminant_lambda_ns", "ns"),
    ("core.monitor.heartbeats", "count"),
    ("core.monitor.heartbeat_ns", "ns"),
    ("core.monitor.est_share_pct", "%"),
    ("linalg.pca.fit_ns", "ns"),
    ("forecast.records", "count"),
    ("forecast.tick_ns", "ns"),
    ("forecast.est_share_pct", "%"),
    ("platform.serverless.cold_starts", "count"),
    ("platform.serverless.warm_execs", "count"),
    ("platform.serverless.query_share", "ratio"),
    ("platform.serverless.submit_complete_ns", "ns"),
    ("platform.serverless.est_share_pct", "%"),
    ("platform.fabric.spills", "count"),
    ("core.engine.switches", "count"),
    ("core.engine.failed_switches", "count"),
    ("core.engine.wasted_prewarms", "count"),
    ("core.engine.switch_success_ratio", "ratio"),
    ("chaos.faults", "count"),
    ("chaos.recoveries", "count"),
    ("core.workflow.instances", "count"),
    ("core.workflow.stage_spans", "count"),
    ("telemetry.events", "count"),
    ("telemetry.bytes_per_event", "B"),
    ("telemetry.encode_ns_per_event", "ns"),
    ("telemetry.decode_ns_per_event", "ns"),
    ("telemetry.digest_ns_per_event", "ns"),
    ("telemetry.record_overhead_pct", "%"),
    ("fleet.epochs", "count"),
    ("fleet.services_admitted", "count"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.run_t1_s", "s"),
    ("fleet.run_t2_s", "s"),
    ("fleet.speedup_t2", "ratio"),
    ("fleet.digest_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
];

/// The outcome of one benchmark run.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Simulated queries submitted in the measured repetitions.
    pub ops: u64,
    /// Of those, queries of repetitions that failed a correctness gate.
    pub failed_ops: u64,
    /// FNV-1a fold of the simulated results of one pass.
    pub fingerprint: u64,
    /// Every correctness gate that failed.
    pub failures: Vec<String>,
    /// Informational lines, printed but not part of the result object.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report over the metrics of `table`.
    pub fn new(
        workload: Workload,
        seed: u64,
        table: &'static [(&'static str, &'static str)],
    ) -> Self {
        Report {
            workload,
            seed,
            metrics: table.iter().map(|&(n, u)| (n, u, None)).collect(),
            ops: 0,
            failed_ops: 0,
            fingerprint: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Set a metric of the report's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the report's table"));
        slot.2 = Some(value);
    }

    /// Metrics never set or not finite: a benchmark bug.
    fn unmeasured(&self) -> Vec<&'static str> {
        self.metrics
            .iter()
            .filter(|(_, _, v)| !v.is_some_and(f64::is_finite))
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// Did every gate pass and every metric get a value?
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.unmeasured().is_empty()
    }

    /// The printed result: one line per metric and per failed gate, the
    /// run's counters, then the JSON result object as the last line.
    pub fn render(&self) -> String {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = format!(
            "workload {} seed {} host_cpus {host_cpus}\n",
            self.workload.name(),
            self.seed
        );
        let mut json = Vec::new();
        for &(name, unit, value) in &self.metrics {
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            out += &format!("metric {name} {v} {unit}\n");
            json.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::from(v)),
                    ("unit".into(), Value::from(unit)),
                ]),
            ));
        }
        for name in self.unmeasured() {
            out += &format!("unmeasured metric {name}\n");
        }
        for n in &self.notes {
            out += &format!("info {n}\n");
        }
        for f in &self.failures {
            out += &format!("gate failed: {f}\n");
        }
        out += &format!(
            "ops {}\nfailed_ops {}\nfingerprint {:#018x}\n",
            self.ops, self.failed_ops, self.fingerprint
        );
        let result = Value::Object(vec![
            ("correct".into(), Value::from(self.correct())),
            ("attempted".into(), Value::from(self.ops)),
            ("failed".into(), Value::from(self.failed_ops)),
            ("metrics".into(), Value::Object(json)),
        ]);
        out += &result.compact();
        out.push('\n');
        out
    }
}
