//! The four workloads, defined here rather than imported from the
//! report crate so that editing a report can never silently change
//! what the benchmark measures.
//!
//! Every workload is a fixed list of *units* derived from the seed. A
//! unit is the smallest piece the timed loop repeats: one §VII grid
//! sweep (20 cells), one fleet run, or one chaos seed.

use amoeba_chaos::FaultPlan;
use amoeba_core::{Experiment, MonitorConfig, ServiceSetup, SystemVariant, WorkflowSetup};
use amoeba_fleet::FleetSpec;
use amoeba_platform::Scheduler;
use amoeba_sim::SimDuration;
use amoeba_tenancy::FleetBuilder;
use amoeba_workload::{
    benchmarks, DemandVector, DiurnalPattern, LoadTrace, MicroserviceSpec, WorkflowSpec,
};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 18 sweeps of the §VII grid: 5 foregrounds × 4 systems.
    PaperGrid,
    /// The 1,000-service week through `FleetRun::run_quiet(1)`.
    FleetWeek,
    /// The same fleet through `FleetRun::run(1)` (every event digested).
    FleetWeekDigest,
    /// One fault-heavy multi-node DAG experiment over many seeds.
    ChaosDag,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload::PaperGrid,
    Workload::FleetWeek,
    Workload::FleetWeekDigest,
    Workload::ChaosDag,
];

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FleetWeek => "fleet_week",
            Workload::FleetWeekDigest => "fleet_week_digest",
            Workload::ChaosDag => "chaos_dag",
        }
    }

    /// Seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperGrid | Workload::ChaosDag => 42,
            Workload::FleetWeek | Workload::FleetWeekDigest => 2026,
        }
    }

    /// Units in one pass: the set whose simulated results the metrics
    /// report, and the least work a timed run does.
    pub fn units(self, scale: &Scale) -> u64 {
        match self {
            Workload::PaperGrid => scale.sweeps,
            Workload::FleetWeek | Workload::FleetWeekDigest => 1,
            Workload::ChaosDag => scale.chaos_seeds,
        }
    }

    /// Units in the `--trace` repetition.
    pub fn trace_units(self, scale: &Scale) -> u64 {
        match self {
            Workload::ChaosDag => scale.chaos_trace_seeds.min(scale.chaos_seeds),
            _ => 1,
        }
    }

    /// Does the workload run the fleet executor?
    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetWeek | Workload::FleetWeekDigest)
    }
}

/// Workload sizes. [`FULL`] is the benchmark; [`SMOKE`] keeps every
/// code path but runs in a debug build within seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Compressed day of the single-experiment workloads, seconds.
    pub day_s: f64,
    /// Grid sweeps per pass.
    pub sweeps: u64,
    /// Fleet size.
    pub fleet_services: usize,
    /// Simulated fleet days.
    pub fleet_days: f64,
    /// Seconds per fleet day.
    pub fleet_day_s: f64,
    /// Chaos seeds per pass.
    pub chaos_seeds: u64,
    /// Chaos seeds in the `--trace` repetition.
    pub chaos_trace_seeds: u64,
    /// Calls per micro-timing sample (queue pushes, model evaluations).
    pub micro_batch: usize,
    /// `(seed, digest)` the `fleet_week_digest` run must reproduce.
    pub known_digest: Option<(u64, u64)>,
}

/// The benchmark's sizes, probed on a 2-CPU host so that one pass of
/// each workload takes about ten seconds.
pub const FULL: Scale = Scale {
    day_s: 480.0,
    sweeps: 18,
    fleet_services: 1000,
    fleet_days: 7.0,
    fleet_day_s: 4_320.0,
    chaos_seeds: 120,
    chaos_trace_seeds: 12,
    micro_batch: 2_000,
    known_digest: Some((2026, 0xe439_01c4_926d_c3c7)),
};

/// Smoke sizes for the test suite: 30 s days, a 24-service fleet.
pub const SMOKE: Scale = Scale {
    day_s: 30.0,
    sweeps: 1,
    fleet_services: 24,
    fleet_days: 1.0,
    fleet_day_s: 60.0,
    chaos_seeds: 1,
    chaos_trace_seeds: 1,
    micro_batch: 20,
    known_digest: None,
};

/// Fleet worker threads of the measured runs. One, not two: on a
/// shared 2-CPU host a second worker stalls the epoch barrier whenever
/// a neighbour takes either CPU, and the fleet's run time then measures
/// the scheduler (two sets of ten runs on 2 threads spread 9 % and
/// 27 % in `sim_qps`). The executor still runs every epoch barrier and
/// exchange on one worker.
pub const FLEET_THREADS: usize = 1;

/// Workers of the traced run's second fleet run, which must reproduce
/// the measured run exactly and gives `fleet.speedup_t2`.
pub const PARALLEL_THREADS: usize = 2;

/// Background services and the fraction of their nominal peak they run
/// at (§VII-A: "a lower peak load ... by carefully designed parameters").
const BACKGROUND: [(&str, f64); 3] = [("float", 0.20), ("dd", 0.15), ("cloud_stor", 0.20)];

/// The systems of one grid sweep.
const GRID_SYSTEMS: [SystemVariant; 4] = [
    SystemVariant::Amoeba,
    SystemVariant::AmoebaPro,
    SystemVariant::OpenWhisk,
    SystemVariant::Nameko,
];

/// Cells of one grid sweep: foregrounds × systems.
pub const GRID_CELLS: usize = 5 * GRID_SYSTEMS.len();

/// Peak of the media DAG, queries/second.
const DAG_PEAK_QPS: f64 = 40.0;

/// End-to-end QoS target of the media DAG on its p95, seconds.
const DAG_TARGET_S: f64 = 0.9;

/// The chaos workload's 4-node fabric: a full-size home node and three
/// smaller peers.
const NODE_SCALES: [f64; 4] = [1.0, 0.75, 0.75, 0.5];

/// Inter-node round trip, seconds.
const RTT_S: f64 = 0.04;

/// Multiplier on `FaultPlan::mixed` rates for the chaos workload.
const FAULT_LEVEL: f64 = 3.0;

/// The §VII-A scenario: one foreground benchmark at its full peak plus
/// three background services, all on Didi-shaped days.
fn standard_scenario(foreground: MicroserviceSpec, day_s: f64) -> Vec<ServiceSetup> {
    let mut setups = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), foreground.peak_qps, day_s),
        spec: foreground,
        background: false,
    }];
    for (name, frac) in BACKGROUND {
        let mut spec = benchmarks::benchmark_by_name(name).expect("Table III benchmark");
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

/// Seed of sweep `unit` (grid) or of chaos unit `unit`.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    seed.wrapping_add(unit)
}

/// Cell `cell` of a grid sweep: its system and foreground benchmark.
fn grid_cell(cell: usize) -> (SystemVariant, MicroserviceSpec) {
    let fg = benchmarks::standard_benchmarks().swap_remove(cell / GRID_SYSTEMS.len());
    (GRID_SYSTEMS[cell % GRID_SYSTEMS.len()], fg)
}

/// One grid cell as an experiment.
pub fn grid_experiment(cell: usize, day_s: f64, seed: u64) -> Experiment {
    let (variant, fg) = grid_cell(cell);
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(standard_scenario(fg, day_s))
        .build()
}

/// The 4-stage diamond media pipeline: `ingest → (transform_a ‖
/// transform_b) → merge`, each stage with a different resource shape.
fn media_dag() -> WorkflowSpec {
    let demand = |cpu_s, mem_mb, io_mb, net_mb| DemandVector {
        cpu_s,
        mem_mb,
        io_mb,
        net_mb,
    };
    let mut wf = WorkflowSpec::builder("media", DAG_TARGET_S, DAG_PEAK_QPS);
    let ingest = wf.stage("ingest", demand(0.008, 96.0, 0.0, 24.0));
    let transform_a = wf.stage("transform_a", demand(0.030, 128.0, 20.0, 1.0));
    let transform_b = wf.stage("transform_b", demand(0.015, 96.0, 40.0, 0.5));
    let merge = wf.stage("merge", demand(0.020, 96.0, 8.0, 12.0));
    wf.edge(ingest, transform_a)
        .edge(ingest, transform_b)
        .edge(transform_a, merge)
        .edge(transform_b, merge);
    wf.build().expect("the media DAG is valid")
}

/// The chaos experiment: float scenario + media DAG on the 4-node
/// fabric under [`chaos_plan`], median-3 monitor.
pub fn chaos_experiment(day_s: f64, seed: u64) -> Experiment {
    let mut b = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(day_s),
        seed,
    )
    .services(standard_scenario(benchmarks::float(), day_s))
    .workflow(WorkflowSetup {
        spec: media_dag(),
        trace: LoadTrace::new(DiurnalPattern::didi(), DAG_PEAK_QPS, day_s),
    })
    .nodes(NODE_SCALES.len())
    .inter_node_latency(SimDuration::from_secs_f64(RTT_S))
    .scheduler(Scheduler::AmoebaPerNode)
    .fault_plan(chaos_plan())
    .monitor_cfg(chaos_monitor());
    for (i, &s) in NODE_SCALES.iter().enumerate().skip(1) {
        b = b.node_capacity(i, s);
    }
    b.build()
}

/// `FaultPlan::mixed` at 3× without VM boot failures or slow boots.
/// With those on and the media DAG attached, a service switching to
/// IaaS can strand its queries (submitted ≠ completed + failed): seed
/// 40082 leaves 21,037 `float` queries neither completed nor failed, so
/// the conservation gate would fail on a seed-dependent minority of
/// runs. Crashes, lost acks, meter faults and pressure spikes stay on.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        vm_boot_failure_prob: 0.0,
        vm_slow_boot_prob: 0.0,
        ..FaultPlan::mixed().scaled(FAULT_LEVEL)
    }
}

/// The chaos workload's hardened monitor: a median-3 pre-filter.
pub fn chaos_monitor() -> MonitorConfig {
    MonitorConfig {
        median_window: 3,
        ..MonitorConfig::default()
    }
}

/// The fleet: 1,000 long-tail tenants over a week in 16 cells, with
/// the spec's default control and sampling periods.
pub fn fleet_spec(scale: &Scale, seed: u64) -> FleetSpec {
    FleetSpec::new(seed)
        .services(scale.fleet_services)
        .days(scale.fleet_days)
        .day_seconds(scale.fleet_day_s)
}

/// The foreground spec whose layer calls the micro-timings replay.
pub fn foreground(w: Workload, scale: &Scale, seed: u64) -> MicroserviceSpec {
    match w {
        Workload::PaperGrid => grid_cell(0).1,
        Workload::ChaosDag => benchmarks::float(),
        // A representative tenant, drawn with `FleetSpec`'s default
        // long-tail peak range.
        Workload::FleetWeek | Workload::FleetWeekDigest => {
            FleetBuilder::new(seed)
                .tenants(scale.fleet_services.min(16))
                .peak_scale(0.0002, 0.002)
                .peak_floor(0.001)
                .build()
                .swap_remove(0)
                .spec
        }
    }
}

/// Day length the workload's traces use.
pub fn day_s(w: Workload, scale: &Scale) -> f64 {
    if w.is_fleet() {
        scale.fleet_day_s
    } else {
        scale.day_s
    }
}

/// Does this grid cell count toward the Amoeba-only simulated metrics
/// (`qos_violation_pct`, `core_s_per_query`)?
pub fn scored(w: Workload, cell: usize) -> bool {
    w != Workload::PaperGrid
        || matches!(
            GRID_SYSTEMS[cell % GRID_SYSTEMS.len()],
            SystemVariant::Amoeba | SystemVariant::AmoebaPro
        )
}
