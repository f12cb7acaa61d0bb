//! The experiment runtime: a staged event-dispatch kernel that wires
//! the controller, engine and monitor to the simulated platforms and
//! runs a full workload.
//!
//! One [`Experiment`] describes a scenario — which services run, their
//! diurnal traces, which [`SystemVariant`] manages them — and
//! [`Experiment::run`] executes it deterministically for the given seed,
//! producing per-service latency recordings, resource-usage integrals
//! and the timelines behind the paper's figures.
//!
//! # Kernel structure
//!
//! The run is a thin loop over three stages (see DESIGN.md §12):
//!
//! ```text
//! queue.pop() → dispatch(&mut world, ev) → effects::apply(...)
//! ```
//!
//! `world::SimWorld` owns every piece of mutable run state; each
//! event class is handled by its own module (`arrivals`, `control`,
//! `metering`, `faults`). Every node, node 0 included, is one entry of
//! the `cluster::Cluster`'s node vector; platform effects of any node
//! are carried on the node-tagged `effects::EffectBus` and applied by
//! `effects::apply`, which routes completions to `completions` and
//! switch-protocol acks to `switching`. Handlers never mutate
//! platforms behind the engine's back: every engine action goes
//! through `Cluster::apply` and every platform response returns as an
//! effect on the bus.

mod arrivals;
mod cluster;
mod completions;
mod control;
mod effects;
mod fabric;
mod faults;
mod metering;
mod results;
mod shard;
mod switching;
mod tenancy;
mod workflow;
mod world;

pub use results::{
    BreakdownMeans, MultiNodeSummary, NodeTotals, RunResult, ServiceResult, WorkflowResult,
};
pub use shard::EpochRun;

use crate::baselines::SystemVariant;
use crate::controller::DecisionTrace;
use crate::monitor::MonitorConfig;
use amoeba_chaos::{FaultPlan, TimedFault};
use amoeba_platform::{
    ClusterEvent, NodeId, Query, Scheduler, ServerlessConfig, ServiceId, TopologyConfig,
};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    DeployMode, ForecastRecord, MemorySink, NoopSink, TelemetryEvent, TelemetrySink, Trace,
};
use amoeba_tenancy::TenancySetup;
use amoeba_workload::{LoadTrace, MicroserviceSpec, WorkflowSpec};

// Re-imports for the submodules and the test module (which glob-import
// `super::*`): the kernel's shared vocabulary.
pub(crate) use world::SimWorld;

/// Emit the tick's forecast as a telemetry event, when the decision
/// carried one (proactive variants with an attached forecaster only).
/// `realized_qps` stays `None` here — only the report layer, replaying
/// the trace after the fact, knows what λ turned out to be.
fn record_forecast<S: TelemetrySink + ?Sized>(
    sink: &mut S,
    now: SimTime,
    idx: usize,
    tr: &DecisionTrace,
) {
    if let Some(fc) = tr.forecast {
        sink.record(TelemetryEvent::Forecast(ForecastRecord {
            t: now,
            service: idx,
            horizon_s: fc.horizon.as_secs_f64(),
            mean_qps: fc.mean,
            lo_qps: fc.lo,
            hi_qps: fc.hi,
            realized_qps: None,
        }));
    }
}

/// One service in an experiment.
pub struct ServiceSetup {
    /// The microservice.
    pub spec: MicroserviceSpec,
    /// Its load trace.
    pub trace: LoadTrace,
    /// Background services are pinned to the serverless platform and
    /// exist to create contention (§VII-A: float, dd and cloud_stor run
    /// "with a lower peak load as the background service").
    pub background: bool,
}

/// One workflow DAG service in an experiment.
///
/// The runtime lowers each stage to its own managed service: the
/// end-to-end budget is split across stages in proportion to their
/// solo latencies along the critical path
/// ([`WorkflowSpec::stage_budgets`]), the load trace drives the root
/// stage, and stage completions enqueue successor arrivals through
/// the effect bus (fan-in joins on the slowest branch). A
/// single-stage workflow lowers to a plain foreground service and
/// runs the legacy path bit-identically.
pub struct WorkflowSetup {
    /// The validated DAG definition.
    pub spec: WorkflowSpec,
    /// The load trace driving the root stage. Every instance visits
    /// every stage once, so each stage sees this full λ (time-shifted
    /// by upstream latency).
    pub trace: LoadTrace,
}

/// A full experiment description.
pub struct Experiment {
    /// Serverless platform configuration.
    pub serverless_cfg: ServerlessConfig,
    /// Monitor tuning.
    pub monitor_cfg: MonitorConfig,
    /// Which system manages the services.
    pub variant: SystemVariant,
    /// The services and their traces.
    pub services: Vec<ServiceSetup>,
    /// Workflow DAG services, lowered to per-stage managed services
    /// after `services` (stage ids follow the plain service ids).
    pub workflows: Vec<WorkflowSetup>,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Time at the start excluded from latency/QoS accounting (VM boot
    /// and calibration transients).
    pub warmup: SimDuration,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Controller tick period.
    pub control_period: SimDuration,
    /// Usage/timeline sampling period.
    pub usage_sample_period: SimDuration,
    /// Run the background contention meters (disable to measure their
    /// overhead by difference).
    pub run_meters: bool,
    /// Multiplier on the Eq. 7 prewarm count (1.0 = the paper's rule;
    /// the prewarm ablation sweeps this to expose §V-A's tradeoff:
    /// too few containers → cold-start violations, too many → wasted
    /// resources).
    pub prewarm_factor: f64,
    /// Deterministic fault plan. The default, the zero plan, schedules
    /// no fault and fails no decision. Whatever the plan, the injector
    /// draws only from its own RNG stream, so it never perturbs arrival
    /// or platform randomness.
    pub fault_plan: FaultPlan,
    /// How long the engine waits for a prewarm/boot ack before its
    /// first retry (the per-retry deadline doubles).
    pub ack_timeout: SimDuration,
    /// Ack retries before a switch is rolled back as `Aborted`.
    pub max_ack_retries: u32,
    /// Node topology. The default is one node; with more than one, the
    /// fabric places queries across the nodes (placement, spill).
    pub topology: TopologyConfig,
    /// Placement scheduler for multi-node runs (ignored single-node).
    pub scheduler: Scheduler,
    /// Multi-tenant population and vendor policy. `None` (the default)
    /// runs the single-maintainer path.
    pub tenancy: Option<TenancySetup>,
    /// Jittered control phase: each unpinned service's decision fires
    /// this fraction of a control period after the shared tick, at an
    /// offset drawn once from the service's own RNG stream. `0.0` (the
    /// default) draws nothing and keeps every trace byte-identical to
    /// the synchronous path; nonzero values desynchronise the per-tenant
    /// controllers (the herding knob of the multitenant report).
    pub control_jitter_frac: f64,
}

impl Experiment {
    /// Start describing an experiment. The three arguments every run
    /// needs are taken up front; everything else defaults and can be
    /// overridden fluently:
    ///
    /// ```ignore
    /// let exp = Experiment::builder(SystemVariant::Amoeba, horizon, 42)
    ///     .service(setup)
    ///     .prewarm_factor(1.5)
    ///     .build();
    /// ```
    pub fn builder(variant: SystemVariant, horizon: SimDuration, seed: u64) -> ExperimentBuilder {
        ExperimentBuilder {
            inner: Experiment {
                serverless_cfg: ServerlessConfig::default(),
                monitor_cfg: MonitorConfig::default(),
                variant,
                services: Vec::new(),
                workflows: Vec::new(),
                horizon,
                warmup: SimDuration::from_secs(20),
                seed,
                control_period: SimDuration::from_secs(1),
                usage_sample_period: SimDuration::from_millis(500),
                run_meters: true,
                prewarm_factor: 1.0,
                fault_plan: FaultPlan::default(),
                ack_timeout: SimDuration::from_secs(30),
                max_ack_retries: 2,
                topology: TopologyConfig::default(),
                scheduler: Scheduler::default(),
                tenancy: None,
                control_jitter_frac: 0.0,
            },
        }
    }

    /// Execute the experiment with telemetry disabled. The kernel is
    /// monomorphized over the concrete [`NoopSink`], so every
    /// `sink.enabled()` guard folds to a constant `false` and telemetry
    /// costs nothing on the hot path — no virtual call, no branch.
    pub fn run(&self) -> RunResult {
        self.run_mono(&mut NoopSink)
    }

    /// Execute the experiment recording the full telemetry stream in
    /// memory, returning it as a [`Trace`] alongside the results. The
    /// event stream never feeds back into the run, so the results are
    /// bit-identical to [`Experiment::run`].
    pub fn run_traced(&self) -> (RunResult, Trace) {
        let mut sink = MemorySink::new();
        let result = self.run_mono(&mut sink);
        (result, sink.into_trace())
    }

    /// The whole kernel, generic over the sink: build the `SimWorld`,
    /// then step until the calendar drains.
    fn run_mono<S: TelemetrySink>(&self, sink: &mut S) -> RunResult {
        let mut world = world::setup(self, sink);
        while step(self, &mut world, None, sink) {}
        results::finish(self, world)
    }
}

/// One kernel step: pop the earliest event (with a bound, only if it
/// fires before `until`), dispatch it, and apply the effects it
/// produced. Returns `false`, touching nothing, once no such event is
/// left. [`Experiment::run`] and the [`EpochRun`] stepper both run the
/// calendar through here. Only a bounded step peeks first, so an
/// unbounded drain pays one `pop` per event.
#[inline]
fn step<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    until: Option<SimTime>,
    sink: &mut S,
) -> bool {
    if let Some(until) = until {
        if !matches!(world.queue.peek_time(), Some(t) if t < until) {
            return false;
        }
    }
    let Some(fired) = world.queue.pop() else {
        return false;
    };
    let now = fired.time;
    dispatch(exp, world, fired.payload, now, sink);
    effects::apply(exp, world, now, sink);
    true
}

/// Route one calendar event to its domain handler. Pure fan-out: every
/// state change happens inside the handler modules, and anything a
/// platform wants done comes back as an effect on the bus.
fn dispatch<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    ev: Ev,
    now: SimTime,
    sink: &mut S,
) {
    match ev {
        Ev::Arrival { idx } => arrivals::on_arrival(world, idx, now, sink),
        Ev::MeterArrival { node, meter } => metering::on_meter_arrival(world, node, meter, now),
        Ev::ControlTick => control::on_control_tick(exp, world, now, sink),
        Ev::ServiceDecision { idx } => control::on_service_decision(exp, world, idx, now, sink),
        Ev::Heartbeat => metering::on_heartbeat(world, now, sink),
        Ev::UsageSample => metering::on_usage_sample(exp, world, now),
        Ev::Platform { node, event } => faults::on_platform_event(world, node, event, now, sink),
        Ev::Chaos(fault) => faults::on_chaos(world, fault, now, sink),
        Ev::SpikeQuery { sid } => faults::on_spike_query(world, sid, now),
        Ev::RemoteSubmit { node, query, route } => world.cluster.deliver(node, query, route, now),
        Ev::VendorTick => tenancy::on_vendor_tick(world, now, sink),
    }
}

/// The calendar's event vocabulary. Platform-internal progress on any
/// node arrives as [`Ev::Platform`]; everything else is
/// runtime-scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    Platform {
        node: NodeId,
        event: ClusterEvent,
    },
    Arrival {
        idx: usize,
    },
    MeterArrival {
        node: NodeId,
        meter: usize,
    },
    ControlTick,
    /// One service's jitter-deferred control decision fires (only
    /// scheduled when [`Experiment::control_jitter_frac`] is nonzero).
    ServiceDecision {
        idx: usize,
    },
    Heartbeat,
    UsageSample,
    /// A scheduled fault fires.
    Chaos(TimedFault),
    /// One query of an injected pressure spike arrives.
    SpikeQuery {
        sid: ServiceId,
    },
    /// A spilled query lands on its node after the wire delay, carrying
    /// the route decided when it was placed (multi-node only).
    RemoteSubmit {
        node: NodeId,
        query: Query,
        route: DeployMode,
    },
    /// One vendor control period elapsed (multi-tenant runs only).
    VendorTick,
}

/// Fluent constructor for [`Experiment`], from [`Experiment::builder`].
///
/// Field-by-field struct updates made every new experiment knob a
/// breaking change at each call site; the builder keeps construction
/// stable as knobs accrue. Setters may be called in any order and
/// later calls win.
pub struct ExperimentBuilder {
    inner: Experiment,
}

impl ExperimentBuilder {
    /// Add one service to the scenario (in registration order).
    pub fn service(mut self, setup: ServiceSetup) -> Self {
        self.inner.services.push(setup);
        self
    }

    /// Add a batch of services (appended after any added so far).
    pub fn services(mut self, setups: Vec<ServiceSetup>) -> Self {
        self.inner.services.extend(setups);
        self
    }

    /// Add one workflow DAG service. Its stages register as managed
    /// services after every plain service, in stage-index order.
    pub fn workflow(mut self, setup: WorkflowSetup) -> Self {
        self.inner.workflows.push(setup);
        self
    }

    /// Override the serverless platform configuration.
    pub fn serverless_cfg(mut self, cfg: ServerlessConfig) -> Self {
        self.inner.serverless_cfg = cfg;
        self
    }

    /// Override the monitor tuning.
    pub fn monitor_cfg(mut self, cfg: MonitorConfig) -> Self {
        self.inner.monitor_cfg = cfg;
        self
    }

    /// Time at the start excluded from latency/QoS accounting.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.inner.warmup = warmup;
        self
    }

    /// Controller tick period.
    pub fn control_period(mut self, period: SimDuration) -> Self {
        self.inner.control_period = period;
        self
    }

    /// Usage/timeline sampling period.
    pub fn usage_sample_period(mut self, period: SimDuration) -> Self {
        self.inner.usage_sample_period = period;
        self
    }

    /// Run (or disable) the background contention meters.
    pub fn run_meters(mut self, run: bool) -> Self {
        self.inner.run_meters = run;
        self
    }

    /// Multiplier on the Eq. 7 prewarm count.
    pub fn prewarm_factor(mut self, factor: f64) -> Self {
        self.inner.prewarm_factor = factor;
        self
    }

    /// Set the deterministic fault plan (see [`amoeba_chaos`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inner.fault_plan = plan;
        self
    }

    /// Override the switch-protocol ack deadline policy: the first
    /// retry fires `timeout` after the request (doubling per retry),
    /// and after `max_retries` retries the switch is rolled back.
    pub fn ack_policy(mut self, timeout: SimDuration, max_retries: u32) -> Self {
        self.inner.ack_timeout = timeout;
        self.inner.max_ack_retries = max_retries;
        self
    }

    /// Run on `n` nodes, `1 ≤ n ≤ 255` (all at capacity scale 1.0
    /// until overridden by [`ExperimentBuilder::node_capacity`]). `n = 1`
    /// is the default single-node shape; with more, the fabric places
    /// queries across the nodes. By convention node 0 — the user-facing
    /// node whose capacity the controller models — stays at scale 1.0.
    pub fn nodes(mut self, n: usize) -> Self {
        assert!((1..=255).contains(&n), "node count {n} out of range");
        self.inner.topology.node_scales = vec![1.0; n];
        self
    }

    /// Set one node's capacity scale (cores, disk/NIC bandwidth and
    /// pool memory are the base config times `scale`). Call after
    /// [`ExperimentBuilder::nodes`].
    pub fn node_capacity(mut self, node: usize, scale: f64) -> Self {
        assert!(
            node < self.inner.topology.node_scales.len(),
            "node {node} not in the topology (call .nodes(n) first)"
        );
        assert!(scale > 0.0, "capacity scale must be positive");
        self.inner.topology.node_scales[node] = scale;
        self
    }

    /// Round-trip time between any two distinct nodes. Paid by queries
    /// spilled off their home node.
    pub fn inter_node_latency(mut self, rtt: SimDuration) -> Self {
        self.inner.topology.rtt_s = rtt.as_secs_f64();
        self
    }

    /// Placement scheduler for multi-node runs.
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.inner.scheduler = scheduler;
        self
    }

    /// Spread each unpinned service's control decision over `frac` of a
    /// control period past the shared tick (per-service offset, drawn
    /// once from the service's own RNG stream). `0.0` restores the
    /// synchronous path bit-identically.
    pub fn control_jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction {frac} not in [0, 1)"
        );
        self.inner.control_jitter_frac = frac;
        self
    }

    /// Attach a multi-tenant population and vendor policy (see
    /// [`amoeba_tenancy`]). Admitted tenants are lowered to ordinary
    /// foreground services after every plain service and workflow
    /// stage, each managed by its own controller.
    pub fn tenancy(mut self, setup: TenancySetup) -> Self {
        self.inner.tenancy = Some(setup);
        self
    }

    /// Finish: the described experiment, ready to [`Experiment::run`].
    /// Panics if a tenancy setup is attached to more than one node:
    /// tenancy's admission and vendor tick model one pool.
    pub fn build(self) -> Experiment {
        let exp = self.inner;
        assert!(
            exp.topology.node_count() == 1 || exp.tenancy.is_none(),
            "tenancy runs on one node, not {}",
            exp.topology.node_count()
        );
        exp
    }
}

#[cfg(test)]
pub(crate) mod tests;
