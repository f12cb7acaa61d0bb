//! Result assembly: the public result types and the fold from a
//! drained [`SimWorld`] into a [`RunResult`].

use super::cluster::INGRESS;
use super::{Experiment, SimWorld};
use crate::baselines::SystemVariant;
use amoeba_metrics::{BillableUsage, CostModel, LatencyRecorder, TimeSeries, UsageSummary};
use amoeba_platform::LatencyBreakdown;
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{DeployMode, WarmSampleRecord};
use amoeba_tenancy::{TenancySummary, TenantAccount, VendorLedger};

/// Mean serverless latency breakdown (warm executions only) — Fig. 4.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BreakdownMeans {
    /// Samples aggregated.
    pub count: usize,
    /// Mean auth/processing overhead, s.
    pub auth_s: f64,
    /// Mean code-loading overhead, s.
    pub code_load_s: f64,
    /// Mean result-posting overhead, s.
    pub result_post_s: f64,
    /// Mean execution time, s.
    pub exec_s: f64,
}

impl BreakdownMeans {
    pub(crate) fn add(&mut self, b: &LatencyBreakdown) {
        let n = self.count as f64;
        let upd = |mean: &mut f64, v: f64| *mean = (*mean * n + v) / (n + 1.0);
        upd(&mut self.auth_s, b.auth.as_secs_f64());
        upd(&mut self.code_load_s, b.code_load.as_secs_f64());
        upd(&mut self.result_post_s, b.result_post.as_secs_f64());
        upd(&mut self.exec_s, b.exec.as_secs_f64());
        self.count += 1;
    }

    /// Rebuild the Fig. 4 means from a telemetry trace's warm samples.
    /// Uses the same incremental fold as the in-run accumulation, so for
    /// a full-run trace the values are bit-identical to
    /// [`ServiceResult::breakdown`].
    pub fn from_warm_samples<'a>(samples: impl Iterator<Item = &'a WarmSampleRecord>) -> Self {
        let mut out = BreakdownMeans::default();
        for s in samples {
            let n = out.count as f64;
            let upd = |mean: &mut f64, v: f64| *mean = (*mean * n + v) / (n + 1.0);
            upd(&mut out.auth_s, s.auth_s);
            upd(&mut out.code_load_s, s.code_load_s);
            upd(&mut out.result_post_s, s.result_post_s);
            upd(&mut out.exec_s, s.exec_s);
            out.count += 1;
        }
        out
    }

    /// The Fig. 4 overhead share: (auth + code load + post) / total
    /// (queueing excluded, as in the paper's breakdown experiment).
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.auth_s + self.code_load_s + self.result_post_s + self.exec_s;
        if total <= 0.0 {
            return 0.0;
        }
        (self.auth_s + self.code_load_s + self.result_post_s) / total
    }
}

/// Per-service results of a run.
pub struct ServiceResult {
    /// Service name.
    pub name: String,
    /// Was it a background service?
    pub background: bool,
    /// QoS target, seconds.
    pub qos_target_s: f64,
    /// QoS percentile.
    pub qos_percentile: f64,
    /// All end-to-end latencies (post-warmup).
    pub latency: LatencyRecorder,
    /// Resource usage integrals.
    pub usage: UsageSummary,
    /// Deploy-mode switches: (time, new mode, load at switch) — Fig. 12.
    pub switch_history: Vec<(SimTime, DeployMode, f64)>,
    /// Estimated load over time.
    pub load_timeline: TimeSeries<f64>,
    /// Allocated cores over time — Fig. 13.
    pub cores_timeline: TimeSeries<f64>,
    /// Allocated memory (MB) over time — Fig. 13.
    pub mem_timeline: TimeSeries<f64>,
    /// Deploy mode over time (0 = IaaS, 1 = serverless).
    pub mode_timeline: TimeSeries<f64>,
    /// Mean serverless warm-execution breakdown — Fig. 4.
    pub breakdown: BreakdownMeans,
    /// Queries submitted (post-warmup).
    pub submitted: usize,
    /// Queries completed (post-warmup submissions).
    pub completed: usize,
    /// Queries explicitly lost to injected faults (post-warmup): a
    /// container crash whose in-flight query was dropped rather than
    /// re-queued. Always zero without a fault plan; conservation is
    /// `submitted == completed + failed`.
    pub failed: usize,
    /// Completed queries that executed on the serverless platform.
    pub serverless_queries: usize,
    /// Serverless-executed queries over the QoS target — where cold
    /// starts and pool contention land (Fig. 16's effect lives here).
    pub serverless_violations: usize,
    /// Billing-relevant aggregates split by platform (IaaS rent vs
    /// per-invocation serverless), for the maintainer-cost experiments.
    pub billable: BillableUsage,
}

impl ServiceResult {
    /// Fraction of queries over the QoS target.
    pub fn violation_ratio(&self) -> f64 {
        self.latency
            .violation_ratio(SimDuration::from_secs_f64(self.qos_target_s))
    }

    /// Violation ratio among serverless-executed queries only.
    pub fn serverless_violation_ratio(&self) -> f64 {
        if self.serverless_queries == 0 {
            return 0.0;
        }
        self.serverless_violations as f64 / self.serverless_queries as f64
    }

    /// The r-ile latency in seconds (r = the spec's QoS percentile).
    pub fn qos_latency(&mut self) -> Option<f64> {
        let q = self.qos_percentile;
        self.latency.quantile(q).map(|d| d.as_secs_f64())
    }

    /// Does the run meet the paper's QoS definition (r-ile ≤ target)?
    pub fn qos_met(&mut self) -> bool {
        match self.qos_latency() {
            Some(l) => l <= self.qos_target_s,
            None => true,
        }
    }
}

/// Per-workflow results of a run (multi-stage workflows only;
/// single-stage workflows lower to a plain [`ServiceResult`]).
pub struct WorkflowResult {
    /// Workflow name.
    pub name: String,
    /// End-to-end QoS target, seconds.
    pub qos_target_s: f64,
    /// QoS percentile.
    pub qos_percentile: f64,
    /// Stage names, in stage-index order.
    pub stages: Vec<String>,
    /// Indices into [`RunResult::services`] of the lowered per-stage
    /// services, in stage-index order.
    pub stage_services: Vec<usize>,
    /// The split per-stage latency budgets, seconds.
    pub stage_budgets: Vec<f64>,
    /// End-to-end latencies of counted, completed instances.
    pub latency: LatencyRecorder,
    /// Instances submitted post-warmup.
    pub submitted: usize,
    /// Counted instances whose every stage completed.
    pub completed: usize,
    /// Counted instances lost to an injected fault mid-DAG.
    pub failed: usize,
    /// Counted instances whose end-to-end latency broke the target.
    pub violations: usize,
    /// Per-stage completions over their split budget — attribution of
    /// where end-to-end violations were manufactured.
    pub stage_violations: Vec<usize>,
}

impl WorkflowResult {
    /// Fraction of completed instances over the end-to-end target.
    pub fn violation_ratio(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.violations as f64 / self.completed as f64
    }

    /// The r-ile end-to-end latency in seconds.
    pub fn qos_latency(&mut self) -> Option<f64> {
        let q = self.qos_percentile;
        self.latency.quantile(q).map(|d| d.as_secs_f64())
    }

    /// Does the run meet the paper's QoS definition (r-ile ≤ target)?
    pub fn qos_met(&mut self) -> bool {
        match self.qos_latency() {
            Some(l) => l <= self.qos_target_s,
            None => true,
        }
    }
}

/// Per-node totals of one multi-node run. Conservation holds per node:
/// `submitted == completed + failed` once the calendar drains, and
/// `spills <= submitted` throughout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTotals {
    /// User queries placed on this node (by executing node).
    pub submitted: u64,
    /// User queries completed on this node.
    pub completed: u64,
    /// User queries lost to injected faults on this node.
    pub failed: u64,
    /// User queries spilled onto this node off their home node and
    /// executed here. A crash that sends one back to its home node's VM
    /// group takes it off this count, as it does off `submitted`.
    pub spills: u64,
}

/// Cross-node accounting of one multi-node run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiNodeSummary {
    /// Per-node totals, indexed by node id.
    pub nodes: Vec<NodeTotals>,
    /// Total queries executed off their home node.
    pub spill_total: u64,
}

/// The result of one experiment run.
pub struct RunResult {
    /// Which system ran.
    pub variant: SystemVariant,
    /// Per-service results: [`Experiment::services`] first, then the
    /// lowered workflow stages in attachment order.
    pub services: Vec<ServiceResult>,
    /// Per-workflow end-to-end results (multi-stage workflows only).
    pub workflows: Vec<WorkflowResult>,
    /// Mean CPU fraction of the cluster's cores consumed by every
    /// node's three contention meters (§VII-E overhead accounting).
    pub meter_cpu_overhead: f64,
    /// The ingress node's final Eq. 6 weights.
    pub final_weights: [f64; 3],
    /// The ingress node's mean measured pressures over the run.
    pub mean_pressures: [f64; 3],
    /// Total cold starts on the serverless platform.
    pub cold_starts: u64,
    /// Final per-service calibration gains (diagnostics).
    pub final_gains: Vec<f64>,
    /// The simulated horizon.
    pub horizon: SimDuration,
    /// Prewarmed containers thrown away by ack-deadline retries and
    /// rollbacks (each retry re-issues the full prewarm).
    pub wasted_prewarms: u64,
    /// Switches rolled back (`Aborted`) after exhausting ack retries.
    pub failed_switches: u64,
    /// Cross-node accounting, present when the topology had more than
    /// one node.
    pub multinode: Option<MultiNodeSummary>,
    /// Vendor books and admission outcome, present when a tenancy setup
    /// was attached.
    pub tenancy: Option<TenancySummary>,
}

/// Debug builds: every query a service (stages and tenants included),
/// workflow or node took in has completed or failed. Only a drained
/// calendar is audited; `EpochRun::finish` may fold a world whose
/// queries are still in flight.
fn audit_conservation(world: &SimWorld) {
    for s in &world.services {
        debug_assert_eq!(
            s.submitted,
            s.completed + s.failed,
            "service {}",
            s.spec.name
        );
    }
    for wf in &world.workflow.workflows {
        debug_assert_eq!(
            wf.submitted,
            wf.completed + wf.failed,
            "workflow {}",
            wf.spec.name()
        );
    }
    for (i, n) in world.cluster.nodes.iter().enumerate() {
        let t = &n.totals;
        debug_assert_eq!(t.submitted, t.completed + t.failed, "node {i}");
    }
}

/// The calendar has drained: fold the world's accumulated state into
/// the public result types.
pub(crate) fn finish(exp: &Experiment, world: SimWorld) -> RunResult {
    if world.queue.is_empty() {
        audit_conservation(&world);
    }
    let SimWorld {
        cluster,
        controller,
        engine,
        services,
        workflow,
        tenancy,
        wasted_prewarms,
        failed_switches,
        meter_core_seconds,
        pressure_sum,
        pressure_samples,
        horizon_t,
        ..
    } = world;
    let final_weights = cluster.nodes[INGRESS.index()].monitor.weights();
    let mean_pressures = if pressure_samples > 0 {
        [
            pressure_sum[0] / pressure_samples as f64,
            pressure_sum[1] / pressure_samples as f64,
            pressure_sum[2] / pressure_samples as f64,
        ]
    } else {
        [0.0; 3]
    };
    let cores: f64 = cluster
        .nodes
        .iter()
        .map(|n| n.serverless.config().node.cores)
        .sum();
    let node_core_seconds = cores * exp.horizon.as_secs_f64();
    let mut results: Vec<ServiceResult> = services
        .into_iter()
        .map(|s| ServiceResult {
            name: s.spec.name.clone(),
            background: s.background,
            qos_target_s: s.spec.qos_target_s,
            qos_percentile: s.spec.qos_percentile,
            latency: s.recorder,
            usage: s.usage.finish(horizon_t),
            switch_history: engine.history(s.sid).to_vec(),
            load_timeline: s.load_timeline,
            cores_timeline: s.cores_timeline,
            mem_timeline: s.mem_timeline,
            mode_timeline: s.mode_timeline,
            breakdown: s.breakdown,
            submitted: s.submitted,
            completed: s.completed,
            failed: s.failed,
            serverless_queries: s.serverless_queries,
            serverless_violations: s.serverless_violations,
            billable: BillableUsage {
                invocations: s.serverless_queries as u64,
                ..s.billable
            },
        })
        .collect();
    let final_gains = (0..results.len()).map(|i| controller.gain(i)).collect();
    let nodes = &cluster.nodes;
    let cold_starts = nodes.iter().map(|n| n.serverless.cold_start_count()).sum();
    let multinode = (nodes.len() > 1).then(|| MultiNodeSummary {
        nodes: nodes.iter().map(|n| n.totals).collect(),
        spill_total: nodes.iter().map(|n| n.totals.spills).sum(),
    });
    let workflows: Vec<WorkflowResult> = workflow
        .workflows
        .into_iter()
        .map(|wf| WorkflowResult {
            name: wf.spec.name().to_string(),
            qos_target_s: wf.spec.qos_target_s(),
            qos_percentile: wf.spec.qos_percentile(),
            stages: wf.spec.stages().iter().map(|st| st.name.clone()).collect(),
            stage_services: wf.svc,
            stage_budgets: wf.budgets,
            latency: wf.recorder,
            submitted: wf.submitted,
            completed: wf.completed,
            failed: wf.failed,
            violations: wf.violations,
            stage_violations: wf.stage_violations,
        })
        .collect();
    // Settle the vendor's books: revenue from each tenant's billable
    // usage at marked-up list prices, vendor cost from the resources
    // actually allocated to it (busy or idle), credits per violating
    // query. Rejected tenants settle to zeroes but stay on the books so
    // the report can show what the admission policy turned away.
    let tenancy = tenancy.and_then(|trt| {
        let tn = exp.tenancy.as_ref()?;
        let list = CostModel::default();
        let mut ledger = VendorLedger::default();
        let (mut met, mut bad, mut vq, mut reserved) = (0usize, 0usize, 0u64, 0.0f64);
        for ((t, d), svc) in tn.tenants.iter().zip(&trt.decisions).zip(&trt.svc) {
            let (billable, queries, violations, qos_met, alloc_cost) = match svc {
                Some(i) => {
                    let r = &mut results[*i];
                    let n = r.latency.count() as u64;
                    let v = (r.violation_ratio() * n as f64).round() as u64;
                    (
                        r.billable,
                        n,
                        v,
                        r.qos_met(),
                        list.cost_if_all_iaas(&r.usage),
                    )
                }
                None => (BillableUsage::default(), 0, 0, true, 0.0),
            };
            if d.admitted {
                reserved += d.reserved_share;
                if qos_met {
                    met += 1;
                } else {
                    bad += 1;
                }
                vq += violations;
                ledger.vendor_cost += alloc_cost;
            }
            ledger.accounts.push(TenantAccount::settle(
                &t.spec.name,
                d.admitted,
                d.reserved_share,
                &billable,
                queries,
                violations,
                qos_met,
                &t.pricing,
                &list,
            ));
        }
        let admitted = trt.decisions.iter().filter(|d| d.admitted).count();
        Some(TenancySummary {
            ratio: tn.policy.ratio,
            admitted,
            rejected: tn.tenants.len() - admitted,
            reserved_total: reserved,
            tenants_qos_met: met,
            tenants_in_violation: bad,
            violation_queries: vq,
            reclamations: trt.reclamation.activations,
            ledger,
        })
    });
    RunResult {
        variant: exp.variant,
        services: results,
        workflows,
        meter_cpu_overhead: meter_core_seconds / node_core_seconds,
        final_weights,
        mean_pressures,
        cold_starts,
        final_gains,
        horizon: exp.horizon,
        wasted_prewarms,
        failed_switches,
        multinode,
        tenancy,
    }
}
