//! Workflow DAG bookkeeping: instance tracking, fan-out/fan-in joins
//! and per-stage hand-off.
//!
//! Each multi-stage [`amoeba_workload::WorkflowSpec`] attached to an
//! experiment is lowered by `world::setup` to one managed service per
//! stage; this module owns what the per-service machinery cannot see —
//! the *instance*: one user query's traversal of the whole DAG. A root
//! arrival opens an instance; every stage completion decrements the
//! successors' pending-predecessor counts and submits the ones that
//! become ready (fan-in therefore joins on the slowest branch, because
//! a successor is submitted exactly when its *last* predecessor
//! finishes); the final stage completion records the end-to-end
//! latency against the workflow's QoS target.
//!
//! Everything here hangs off `SimWorld.workflow`. In a run without a
//! multi-stage workflow its table is empty: no service is a stage, so
//! no arrival opens an instance and no completion hands off.

use super::arrivals::route_and_submit;
use super::cluster::Cluster;
use super::world::ServiceRt;
use super::Ev;
use crate::controller::DeploymentController;
use crate::engine::HybridEngine;
use amoeba_metrics::LatencyRecorder;
use amoeba_platform::{Query, QueryId, QueryOutcome};
use amoeba_sim::{EventQueue, SimTime};
use amoeba_telemetry::{StageSpanRecord, TelemetryEvent, TelemetrySink};
use amoeba_workload::WorkflowSpec;
use std::collections::VecDeque;

/// One query's traversal of a workflow DAG.
struct InstanceRt {
    /// Root-stage submit time; end-to-end latency is measured from it.
    t0: SimTime,
    /// Submitted after warmup — only counted instances reach the
    /// recorder and the violation/conservation counters.
    counted: bool,
    /// Per-stage count of predecessors not yet completed. A stage is
    /// submitted when its count hits zero (the root starts at zero).
    pending: Vec<u8>,
    /// Stages not yet completed; the instance closes at zero.
    remaining: u32,
}

/// Open instances in a dense sliding window over root sequence
/// numbers.
///
/// Roots are opened with strictly increasing seqs (the global arrival
/// counter), and instances close within a bounded latency, so the live
/// span `[base, base + slots.len())` stays narrow. Lookups become one
/// subtraction and an array index instead of a `BTreeMap` descent —
/// this sits on the per-stage-completion hot path. The front of the
/// window is compacted on removal, so memory tracks the oldest open
/// instance, not the run length.
#[derive(Default)]
struct InstanceTable {
    /// Seq of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<InstanceRt>>,
}

impl InstanceTable {
    fn insert(&mut self, seq: u64, inst: InstanceRt) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        debug_assert!(seq >= self.base, "root seqs open in increasing order");
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slots[idx].is_none(), "root seq opened twice");
        self.slots[idx] = Some(inst);
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut InstanceRt> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    fn remove(&mut self, seq: u64) -> Option<InstanceRt> {
        let idx = seq.checked_sub(self.base)? as usize;
        let inst = self.slots.get_mut(idx)?.take()?;
        // Compact the closed prefix so the window tracks the oldest
        // still-open instance.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.slots.is_empty() {
            self.base = 0;
        }
        Some(inst)
    }
}

/// Aggregates for one multi-stage workflow across the run.
pub(crate) struct WorkflowState {
    pub(crate) spec: WorkflowSpec,
    /// Stage index → `SimWorld.services` index.
    pub(crate) svc: Vec<usize>,
    /// Per-stage latency budgets (the split end-to-end target).
    pub(crate) budgets: Vec<f64>,
    /// Open instances keyed by root sequence number.
    instances: InstanceTable,
    /// End-to-end latencies of counted, completed instances.
    pub(crate) recorder: LatencyRecorder,
    pub(crate) submitted: usize,
    pub(crate) completed: usize,
    pub(crate) failed: usize,
    /// Counted instances whose end-to-end latency broke the target.
    pub(crate) violations: usize,
    /// Stage completions that broke their split budget — the per-stage
    /// attribution of where an end-to-end violation was manufactured.
    pub(crate) stage_violations: Vec<usize>,
}

/// All workflow bookkeeping for one run: empty unless a multi-stage
/// workflow is attached.
pub(crate) struct WorkflowRt {
    pub(crate) workflows: Vec<WorkflowState>,
    /// `services` index → (workflow index, stage index); `None` for
    /// plain services (including lowered single-stage workflows).
    stage_of: Vec<Option<(usize, usize)>>,
}

impl WorkflowRt {
    /// Build the runtime from `world::setup`'s lowering metadata:
    /// `(spec, services indices in stage order, stage budgets)` per
    /// multi-stage workflow.
    pub(crate) fn new(meta: Vec<(WorkflowSpec, Vec<usize>, Vec<f64>)>, n_services: usize) -> Self {
        let mut stage_of = vec![None; n_services];
        let workflows = meta
            .into_iter()
            .enumerate()
            .map(|(w, (spec, svc, budgets))| {
                for (s, &idx) in svc.iter().enumerate() {
                    stage_of[idx] = Some((w, s));
                }
                let n = spec.stage_count();
                WorkflowState {
                    spec,
                    svc,
                    budgets,
                    instances: InstanceTable::default(),
                    recorder: LatencyRecorder::new(),
                    submitted: 0,
                    completed: 0,
                    failed: 0,
                    violations: 0,
                    stage_violations: vec![0; n],
                }
            })
            .collect();
        WorkflowRt {
            workflows,
            stage_of,
        }
    }

    /// Which workflow stage service `idx` implements, if any.
    pub(crate) fn stage_of(&self, idx: usize) -> Option<(usize, usize)> {
        self.stage_of.get(idx).copied().flatten()
    }

    /// An external arrival hit service `idx`. If it is a workflow root
    /// stage, open the instance record and return the stage index to
    /// tag the query id with; plain services return `None` and keep
    /// their untagged (stage-0-identical) ids.
    pub(crate) fn open_root(
        &mut self,
        idx: usize,
        seq: u64,
        now: SimTime,
        counted: bool,
    ) -> Option<usize> {
        let (w, s) = self.stage_of(idx)?;
        let wf = &mut self.workflows[w];
        debug_assert_eq!(s, wf.spec.root(), "external arrival on a non-root stage");
        if counted {
            wf.submitted += 1;
        }
        let pending = (0..wf.spec.stage_count())
            .map(|i| wf.spec.preds(i).len() as u8)
            .collect();
        wf.instances.insert(
            seq,
            InstanceRt {
                t0: now,
                counted,
                pending,
                remaining: wf.spec.stage_count() as u32,
            },
        );
        Some(s)
    }

    /// A stage query was lost for good (chaos crash with the query
    /// dropped): the whole instance fails. Removing it makes sibling
    /// branches short-circuit on completion — their successors are
    /// never submitted, so per-stage conservation
    /// (`submitted == completed + failed`) holds for every stage.
    pub(crate) fn on_stage_query_lost(&mut self, idx: usize, qid: QueryId) {
        let Some((w, _)) = self.stage_of(idx) else {
            return;
        };
        let wf = &mut self.workflows[w];
        if let Some(inst) = wf.instances.remove(qid.seq()) {
            if inst.counted {
                wf.failed += 1;
            }
        }
    }
}

/// One stage of workflow `w` finished executing. Attribute the span,
/// hand ready successors to the router (fan-in joins here: a successor
/// is ready exactly when its last predecessor completes), and close
/// the instance on its final stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_stage_complete<S: TelemetrySink + ?Sized>(
    wrt: &mut WorkflowRt,
    w: usize,
    s: usize,
    outcome: &QueryOutcome,
    now: SimTime,
    services: &mut [ServiceRt],
    controller: &mut DeploymentController,
    engine: &HybridEngine,
    cluster: &mut Cluster,
    queue: &mut EventQueue<Ev>,
    warmup_t: SimTime,
    sink: &mut S,
) {
    let wf = &mut wrt.workflows[w];
    let seq = outcome.query.id.seq();
    // A missing instance means a sibling branch already failed the
    // traversal (crash-dropped query): swallow the completion.
    let Some(inst) = wf.instances.get_mut(seq) else {
        return;
    };
    let latency_s = outcome.latency().as_secs_f64();
    if sink.enabled() {
        sink.record(TelemetryEvent::StageSpan(StageSpanRecord {
            t: now,
            workflow: w,
            instance: seq,
            stage: s,
            service: outcome.query.service.raw() as usize,
            platform: outcome.executed_on,
            latency_s,
            budget_s: wf.budgets[s],
        }));
    }
    if inst.counted && latency_s > wf.budgets[s] {
        wf.stage_violations[s] += 1;
    }
    let mut ready: Vec<usize> = Vec::new();
    for &succ in wf.spec.succs(s) {
        inst.pending[succ] -= 1;
        if inst.pending[succ] == 0 {
            ready.push(succ);
        }
    }
    inst.remaining -= 1;
    let counted = inst.counted;
    let t0 = inst.t0;
    if inst.remaining == 0 {
        debug_assert!(ready.is_empty(), "final stage with ready successors");
        wf.instances.remove(seq);
        if counted {
            let e2e = now.duration_since(t0);
            wf.recorder.record(e2e);
            wf.completed += 1;
            if e2e.as_secs_f64() > wf.spec.qos_target_s() {
                wf.violations += 1;
            }
        }
        return;
    }
    for succ in ready {
        let svc_idx = wf.svc[succ];
        let sid = services[svc_idx].sid;
        controller.record_arrival(svc_idx, now);
        if now >= warmup_t {
            services[svc_idx].submitted += 1;
        }
        let query = Query {
            id: QueryId::user_stage(seq, succ),
            service: sid,
            submitted: now,
        };
        let target = engine.mode(sid);
        route_and_submit(query, target, now, engine, cluster, queue, sink);
    }
}
