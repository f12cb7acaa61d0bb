//! [`SimWorld`]: the mutable state of one run, plus its construction.
//!
//! Every event handler receives `&mut SimWorld` and destructures the
//! fields it needs, so the borrow checker sees disjoint field borrows
//! instead of one opaque blob — the property that lets the kernel's
//! match arms live in separate modules without cloning state around.

use super::cluster::{Cluster, NodeRt};
use super::effects::EffectBus;
use super::fabric::{self, Fabric};
use super::faults::ChaosRt;
use super::tenancy::{interference_spec, TenancyRt, VENDOR_TICK};
use super::workflow::WorkflowRt;
use super::{Ev, Experiment};
use crate::baselines::SystemVariant;
use crate::controller::{ControllerConfig, DeploymentController, ProactiveConfig, ServiceModel};
use crate::engine::HybridEngine;
use crate::monitor::{sample_period_lower_bound, ContentionMonitor, MonitorConfig};
use crate::runtime::results::BreakdownMeans;
use amoeba_chaos::FaultInjector;
use amoeba_forecast::HoltWintersDiurnal;
use amoeba_meters::{cpu_meter, io_meter, meter_curve, net_meter};
use amoeba_metrics::{BillableUsage, LatencyRecorder, TimeSeries, UsageMeter};
use amoeba_platform::{IaasConfig, NodeId, ServiceId};
use amoeba_sim::{Distributions, EventQueue, SimDuration, SimRng, SimTime};
use amoeba_telemetry::{AdmissionRecord, DeployMode, ServiceInfo, TelemetryEvent, TelemetrySink};
use amoeba_tenancy::{PoolCapacity, Reclamation};
use amoeba_workload::{ArrivalProcess, LoadTrace, MicroserviceSpec, PoissonArrivals, WorkflowSpec};
use std::collections::BTreeMap;

/// Serverless container memory for lowered workflow stages, MB
/// (Table II's standard container size).
const STAGE_CONTAINER_MEM_MB: f64 = 256.0;

/// Per-service mutable run state: arrival stream, recorders, counters.
pub(crate) struct ServiceRt {
    pub(crate) sid: ServiceId,
    /// The registered spec — for plain services a clone of the setup's,
    /// for workflow stages the lowered per-stage spec (split budget).
    pub(crate) spec: MicroserviceSpec,
    pub(crate) background: bool,
    pub(crate) pinned: bool,
    /// Jittered control phase: this service's decision fires this long
    /// after the shared control tick. Zero (always, when
    /// [`Experiment::control_jitter_frac`] is zero) runs the synchronous
    /// in-tick decision path bit-identically.
    pub(crate) control_offset: SimDuration,
    pub(crate) arrivals: PoissonArrivals,
    pub(crate) exhausted: bool,
    pub(crate) recorder: LatencyRecorder,
    pub(crate) usage: UsageMeter,
    pub(crate) load_timeline: TimeSeries<f64>,
    pub(crate) cores_timeline: TimeSeries<f64>,
    pub(crate) mem_timeline: TimeSeries<f64>,
    pub(crate) mode_timeline: TimeSeries<f64>,
    pub(crate) breakdown: BreakdownMeans,
    pub(crate) submitted: usize,
    pub(crate) completed: usize,
    pub(crate) failed: usize,
    pub(crate) serverless_queries: usize,
    pub(crate) serverless_violations: usize,
    pub(crate) billable: BillableUsage,
    pub(crate) next_query_id: u64,
}

/// All mutable state of one experiment run. Built by [`setup`],
/// consumed by `results::finish`.
pub(crate) struct SimWorld {
    /// Every node's platforms, the placement over them and the effect
    /// bus they answer on.
    pub(crate) cluster: Cluster,
    pub(crate) controller: DeploymentController,
    pub(crate) engine: HybridEngine,
    pub(crate) services: Vec<ServiceRt>,
    /// The three contention meters' ids, the same on every node.
    pub(crate) meter_ids: [ServiceId; 3],
    /// The event calendar driving the run.
    pub(crate) queue: EventQueue<Ev>,
    /// Chaos bookkeeping; under the zero plan it injects nothing.
    pub(crate) chaos: ChaosRt,
    /// Workflow DAG bookkeeping; empty when no multi-stage workflow is
    /// attached.
    pub(crate) workflow: WorkflowRt,
    /// Multi-tenant bookkeeping, present when a tenancy setup is
    /// attached.
    pub(crate) tenancy: Option<TenancyRt>,
    pub(crate) wasted_prewarms: u64,
    pub(crate) failed_switches: u64,
    pub(crate) meter_core_seconds: f64,
    /// Cross-cell pool pressure injected by the fleet executor's epoch
    /// exchange, added to the locally measured pressures at decision
    /// time. All-zero (the default, and the only state serial runs ever
    /// observe) is a no-op.
    pub(crate) external_pressure: [f64; 3],
    pub(crate) last_usage_sample: SimTime,
    pub(crate) pressure_sum: [f64; 3],
    pub(crate) pressure_samples: usize,
    pub(crate) meter_next_id: u64,
    /// End of the simulated horizon (no periodic event re-arms past it).
    pub(crate) horizon_t: SimTime,
    /// Outcomes of queries submitted before this are not recorded.
    pub(crate) warmup_t: SimTime,
    pub(crate) heartbeat_period: SimDuration,
}

/// One managed service to register: a plain [`super::ServiceSetup`] or
/// one lowered workflow stage.
struct SvcDesc {
    spec: MicroserviceSpec,
    background: bool,
    /// External arrival trace; `None` for internal (non-root) workflow
    /// stages, fed by upstream stage completions instead.
    trace: Option<LoadTrace>,
    /// Diurnal period for the forecaster's seasonal buckets.
    day_s: f64,
}

/// Build the world: fork the RNG streams, register services and meters
/// on every node, construct the controller, monitors and engine, seed the
/// event calendar and pre-draw the chaos fault calendar. The RNG fork
/// and registration order here is part of the determinism contract —
/// reordering anything reshuffles every downstream draw.
pub(crate) fn setup<S: TelemetrySink + ?Sized>(exp: &Experiment, sink: &mut S) -> SimWorld {
    let mut master_rng = SimRng::seed_from_u64(exp.seed);
    let platform_rng = master_rng.fork();
    let iaas_rng = master_rng.fork();

    // One platform pair and monitor per node, each pool scaled to its
    // node's capacity. The analytic meter curves do not depend on
    // capacity, so every monitor inverts the same ones. Platform
    // construction and registration draw no randomness, so the RNG fork
    // order is untouched by the topology.
    let monitor_cfg = MonitorConfig {
        use_pca: exp.variant.uses_pca(),
        ..exp.monitor_cfg
    };
    let meter_curves = [0, 1, 2].map(|r| meter_curve(&exp.serverless_cfg, r));
    let n_nodes = exp.topology.node_count();
    let mut nodes: Vec<NodeRt> = (0..n_nodes)
        .map(|i| {
            let cfg = exp.topology.scaled(&exp.serverless_cfg, NodeId::new(i));
            let monitor = ContentionMonitor::new(monitor_cfg, meter_curves.clone());
            NodeRt::new(cfg, IaasConfig::default(), monitor)
        })
        .collect();
    // Proactive variants look ahead by exactly the switch latency in
    // each direction: a switch up waits on the VM boot, a switch
    // down on the container prewarm, and either decision lands one
    // control period after it is made.
    let mut controller_cfg = ControllerConfig::default();
    if exp.variant.proactive() {
        controller_cfg.proactive = Some(ProactiveConfig {
            up_horizon: SimDuration::from_secs_f64(IaasConfig::default().boot_time_s)
                + exp.control_period,
            down_horizon: SimDuration::from_secs_f64(exp.serverless_cfg.cold_start_median_s)
                + exp.control_period,
        });
    }
    let mut controller = DeploymentController::new(controller_cfg);

    let caps = [
        exp.serverless_cfg.node.cores,
        exp.serverless_cfg.node.disk_bw_mbps,
        exp.serverless_cfg.node.nic_bw_mbps,
    ];

    // Flatten plain services and lowered workflow stages into one
    // registration list. Stage budgets come from the analytic solo
    // latency (execution phases plus serverless overheads), computed
    // *before* registration because registering a spec consumes its
    // QoS target for IaaS capacity sizing.
    let mut descs: Vec<SvcDesc> = exp
        .services
        .iter()
        .map(|s| SvcDesc {
            spec: s.spec.clone(),
            background: s.background,
            day_s: s.trace.day_seconds(),
            trace: Some(s.trace.clone()),
        })
        .collect();
    let mut wf_meta: Vec<(WorkflowSpec, Vec<usize>, Vec<f64>)> = Vec::new();
    for wf in &exp.workflows {
        let spec = &wf.spec;
        let l0_est: Vec<f64> = spec
            .stages()
            .iter()
            .map(|st| {
                st.demand.solo_exec_seconds(
                    exp.serverless_cfg.per_flow_io_mbps,
                    exp.serverless_cfg.per_flow_net_mbps,
                ) + exp.serverless_cfg.auth_s
                    + exp.serverless_cfg.code_load_base_s
                    + exp.serverless_cfg.code_load_s_per_mb * st.demand.mem_mb
                    + exp.serverless_cfg.result_post_s
            })
            .collect();
        let budgets = spec.stage_budgets(&l0_est);
        if spec.is_single_stage() {
            // A single-stage DAG is a plain foreground service: full
            // budget, legacy arrival path, no instance tracking.
            descs.push(SvcDesc {
                spec: MicroserviceSpec {
                    name: spec.name().to_string(),
                    demand: spec.stages()[0].demand,
                    qos_target_s: spec.qos_target_s(),
                    qos_percentile: spec.qos_percentile(),
                    peak_qps: spec.peak_qps(),
                    container_mem_mb: STAGE_CONTAINER_MEM_MB,
                },
                background: false,
                day_s: wf.trace.day_seconds(),
                trace: Some(wf.trace.clone()),
            });
            continue;
        }
        let first = descs.len();
        for (i, st) in spec.stages().iter().enumerate() {
            descs.push(SvcDesc {
                spec: MicroserviceSpec {
                    name: format!("{}.{}", spec.name(), st.name),
                    demand: st.demand,
                    qos_target_s: budgets[i],
                    qos_percentile: spec.qos_percentile(),
                    // Every instance visits every stage once, so each
                    // stage is provisioned for the workflow's full peak.
                    peak_qps: spec.peak_qps(),
                    container_mem_mb: STAGE_CONTAINER_MEM_MB,
                },
                background: false,
                day_s: wf.trace.day_seconds(),
                trace: (i == spec.root()).then(|| wf.trace.clone()),
            });
        }
        wf_meta.push((spec.clone(), (first..descs.len()).collect(), budgets));
    }

    // Tenant lowering: run vendor admission against the pool, then
    // append admitted tenants as ordinary foreground services — each
    // gets its own controller row, so "every tenant runs its own
    // Amoeba" falls out of the per-service independence that already
    // exists. Appending after every plain service and workflow stage
    // keeps the master-RNG fork prefix untouched (the determinism
    // contract above).
    let mut admission = None;
    if let Some(tn) = &exp.tenancy {
        let pool = PoolCapacity {
            cores: exp.serverless_cfg.node.cores,
            mem_mb: exp.serverless_cfg.pool_memory_mb,
            io_mbps: exp.serverless_cfg.node.disk_bw_mbps,
            net_mbps: exp.serverless_cfg.node.nic_bw_mbps,
            solo_io_mbps: exp.serverless_cfg.per_flow_io_mbps,
            solo_net_mbps: exp.serverless_cfg.per_flow_net_mbps,
        };
        let decisions = tn.policy.admit(&tn.tenants, &pool);
        // The tenant's diurnal day spans the run: phase heterogeneity
        // unfolds inside the horizon whatever its length.
        let day_s = exp.horizon.as_secs_f64();
        let mut svc = Vec::with_capacity(tn.tenants.len());
        for (t, d) in tn.tenants.iter().zip(&decisions) {
            if d.admitted {
                svc.push(Some(descs.len()));
                descs.push(SvcDesc {
                    spec: t.spec.clone(),
                    background: false,
                    day_s,
                    trace: Some(LoadTrace::new(t.pattern.clone(), t.spec.peak_qps, day_s)),
                });
            } else {
                svc.push(None);
            }
        }
        admission = Some((decisions, svc));
    }

    // The home node of each service: where its switch protocol runs
    // and the pool its controller models.
    let homes = fabric::homes(
        exp.scheduler,
        &exp.topology,
        descs.iter().map(|d| &d.spec),
        caps,
    );

    // Register every service on both platforms of every node (ids must
    // align) and build its controller model from analytic profiling of
    // its home node's pool, with that node's capacity and container
    // ceiling.
    let mut services: Vec<ServiceRt> = Vec::new();
    for (desc, home) in descs.iter().zip(&homes) {
        let sid = ServiceId(services.len() as u32);
        for node in &mut nodes {
            let rid = node.register(&desc.spec);
            debug_assert_eq!(rid, sid, "node id drift");
        }
        let pool = &nodes[home.index()].serverless;
        let cfg = pool.config();
        let n_max = cfg.tenant_container_cap.min(cfg.memory_container_cap());
        let idx = controller.register(ServiceModel::profiled(pool, sid, cfg, n_max));
        if exp.variant.proactive() && !desc.background {
            // Seasonal buckets at roughly half the tick cadence keep
            // several observations per bucket while still resolving
            // the diurnal shoulders.
            let day_s = desc.day_s;
            let control_s = exp.control_period.as_secs_f64().max(1e-3);
            let buckets = ((day_s / control_s / 2.0).round() as usize).clamp(24, 240);
            controller.attach_forecaster(
                idx,
                Box::new(HoltWintersDiurnal::new(
                    SimDuration::from_secs_f64(day_s),
                    buckets,
                )),
            );
        }
        // Internal (non-root) workflow stages have no external arrival
        // stream: their queries come from upstream stage completions.
        // The placeholder process is exhausted at t0 and draws from a
        // fixed-seed RNG, so the master fork order — part of the
        // determinism contract — is untouched by how many stages a
        // workflow has.
        let arrivals = match &desc.trace {
            Some(trace) => PoissonArrivals::from_trace(
                trace.clone(),
                SimTime::ZERO + exp.horizon,
                master_rng.fork(),
            ),
            None => PoissonArrivals::constant(1.0, SimTime::ZERO, SimRng::seed_from_u64(0)),
        };
        let pinned = desc.background || !exp.variant.switches();
        services.push(ServiceRt {
            sid,
            spec: desc.spec.clone(),
            background: desc.background,
            pinned,
            control_offset: SimDuration::ZERO,
            arrivals,
            exhausted: false,
            recorder: LatencyRecorder::new(),
            usage: UsageMeter::new(10.0),
            load_timeline: TimeSeries::new(),
            cores_timeline: TimeSeries::new(),
            mem_timeline: TimeSeries::new(),
            mode_timeline: TimeSeries::new(),
            breakdown: BreakdownMeans::default(),
            submitted: 0,
            completed: 0,
            failed: 0,
            serverless_queries: 0,
            serverless_violations: 0,
            billable: BillableUsage::default(),
            next_query_id: 0,
        });
    }
    let workflow = WorkflowRt::new(wf_meta, services.len());

    // Jittered control phase: each unpinned service draws its decision
    // offset from its own fork of the master stream. The forks happen
    // *after* every arrival-stream fork, so turning jitter on leaves
    // the arrival randomness untouched — a jittered run sees exactly
    // the load of its synchronous twin and isolates pure phase
    // desynchronisation. The `> 0.0` gate draws nothing by default,
    // keeping the master fork sequence (and every golden trace) intact.
    if exp.control_jitter_frac > 0.0 {
        let span = exp.control_period.as_secs_f64() * exp.control_jitter_frac;
        for svc in services.iter_mut() {
            if !svc.pinned {
                let mut jitter_rng = master_rng.fork();
                svc.control_offset =
                    SimDuration::from_secs_f64(jitter_rng.uniform_range(0.0, span));
            }
        }
    }

    // Register the three contention meters on every node's serverless
    // pool (they never run on IaaS). Their ids come after all services,
    // so they agree on every node.
    let mut meter_ids = [ServiceId(0); 3];
    for node in &mut nodes {
        meter_ids =
            [cpu_meter(), io_meter(), net_meter()].map(|spec| node.serverless.register(spec));
    }

    // The chaos interference service: in tenancy mode, pressure-spike
    // traffic lands here so it *adds* pool load instead of displacing
    // the victim's own containers at its tenant cap. Registered after
    // the meters so every existing service and meter id is unchanged;
    // registration draws no RNG, and the cap override lets a spike
    // occupy the pool's full memory headroom.
    let tenancy = admission.map(|(decisions, svc)| {
        let serverless = &mut nodes[0].serverless;
        let interference_sid = serverless.register(interference_spec());
        serverless.set_tenant_cap(
            interference_sid,
            Some(exp.serverless_cfg.memory_container_cap()),
        );
        TenancyRt {
            decisions,
            svc,
            reclamation: Reclamation::default(),
            interference_sid,
        }
    });

    // Initial modes: background pinned serverless; foreground starts
    // on IaaS (Amoeba's safe default, §III) except under OpenWhisk.
    let initial_fg_mode = if exp.variant == SystemVariant::OpenWhisk {
        DeployMode::Serverless
    } else {
        DeployMode::Iaas
    };
    let mut engine = HybridEngine::new(services.len(), initial_fg_mode, exp.variant.prewarms());
    engine.set_ack_policy(exp.ack_timeout, exp.max_ack_retries);

    for (idx, &h) in homes.iter().enumerate() {
        engine.set_home(ServiceId(idx as u32), h);
    }

    if sink.enabled() {
        sink.record(TelemetryEvent::RunStarted {
            variant: exp.variant.label().to_string(),
            seed: exp.seed,
            horizon_s: exp.horizon.as_secs_f64(),
            services: descs
                .iter()
                .map(|desc| ServiceInfo {
                    name: desc.spec.name.clone(),
                    background: desc.background,
                    initial_mode: if desc.background {
                        DeployMode::Serverless
                    } else {
                        initial_fg_mode
                    },
                })
                .collect(),
        });
        if let (Some(tn), Some(trt)) = (&exp.tenancy, &tenancy) {
            for (t, d) in tn.tenants.iter().zip(&trt.decisions) {
                sink.record(TelemetryEvent::Admission(AdmissionRecord {
                    t: SimTime::ZERO,
                    tenant: t.spec.name.clone(),
                    admitted: d.admitted,
                    reserved_share: d.reserved_share,
                    ratio: tn.policy.ratio,
                }));
            }
        }
    }

    // Event calendar.
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let t0 = SimTime::ZERO;
    let horizon_t = t0 + exp.horizon;

    // Heartbeat period per Eq. 8 (worst case over foreground specs).
    let mut hb_s: f64 = 2.0;
    for desc in &descs {
        let t_exec = desc.spec.demand.solo_exec_seconds(
            exp.serverless_cfg.per_flow_io_mbps,
            exp.serverless_cfg.per_flow_net_mbps,
        );
        let lb = sample_period_lower_bound(
            exp.serverless_cfg.cold_start_median_s,
            desc.spec.qos_target_s,
            t_exec,
            0.1,
        );
        hb_s = hb_s.max(lb * 1.1);
    }
    let heartbeat_period = SimDuration::from_secs_f64(hb_s.clamp(2.0, 30.0));

    // Pending effects worklist shared across the run.
    let mut bus = EffectBus::default();

    // Boot IaaS groups for services starting there; pin background
    // to serverless (engine rows exist for them but are never
    // consulted for switching).
    for (idx, s) in services.iter().enumerate() {
        let mode = if s.background {
            DeployMode::Serverless
        } else {
            initial_fg_mode
        };
        if s.background {
            // Override the engine's initial mode for background rows.
            engine.force_mode(ServiceId(idx as u32), DeployMode::Serverless);
        }
        if mode == DeployMode::Iaas {
            // The group boots on the service's home node. Its effects
            // wait on the bus and are scheduled when the first event is
            // dispatched (the golden traces pin that timing).
            let home = engine.home(s.sid);
            bus.extend(home, nodes[home.index()].iaas.activate(s.sid, t0));
        }
    }

    // First arrivals.
    for (idx, svc) in services.iter_mut().enumerate() {
        if let Some(t) = svc.arrivals.next_after(t0) {
            queue.push(t, Ev::Arrival { idx });
        } else {
            svc.exhausted = true;
        }
    }
    if exp.run_meters {
        for node in (0..n_nodes).map(NodeId::new) {
            for meter in 0..meter_ids.len() {
                // Deterministic 1 Hz per meter, phase-shifted so a
                // node's three never collide (§VII-E: "scheduled in a
                // round time trip").
                queue.push(
                    t0 + SimDuration::from_millis(100 + 333 * meter as u64),
                    Ev::MeterArrival { node, meter },
                );
            }
        }
    }
    queue.push(t0 + exp.control_period, Ev::ControlTick);
    queue.push(t0 + heartbeat_period, Ev::Heartbeat);
    queue.push(t0 + exp.usage_sample_period, Ev::UsageSample);
    if tenancy.is_some() {
        queue.push(t0 + VENDOR_TICK, Ev::VendorTick);
    }

    // Fault injection: pre-draw the whole timed-fault calendar from
    // the injector's independent RNG stream, so the runtime RNG fork
    // order is untouched by the plan. The zero plan schedules nothing.
    let n_meters = 3 * n_nodes;
    let mut injector = FaultInjector::new(exp.fault_plan.clone(), exp.seed);
    for (t, f) in injector.schedule(exp.horizon, n_meters) {
        queue.push(t, Ev::Chaos(f));
    }
    let chaos = ChaosRt {
        injector,
        meter_outage_until: vec![t0; n_meters],
        meter_outlier_pending: vec![0; n_meters],
        crash_requeued: BTreeMap::new(),
        boot_fault_since: vec![None; services.len()],
        spike_next_id: 0,
    };

    SimWorld {
        cluster: Cluster {
            nodes,
            fabric: Fabric::new(exp.scheduler, &exp.topology),
            bus,
            platform_rng,
            iaas_rng,
        },
        controller,
        engine,
        services,
        meter_ids,
        queue,
        chaos,
        workflow,
        tenancy,
        wasted_prewarms: 0,
        failed_switches: 0,
        meter_core_seconds: 0.0,
        external_pressure: [0.0; 3],
        last_usage_sample: t0,
        pressure_sum: [0.0; 3],
        pressure_samples: 0,
        meter_next_id: 0,
        horizon_t,
        warmup_t: t0 + exp.warmup,
        heartbeat_period,
    }
}
