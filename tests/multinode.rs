//! Multi-node integration tests: pinned totals of a fault-heavy
//! 4-node DAG run, so a change to multi-node behaviour fails here and
//! not only in the benchmark's fingerprint; the same shape under
//! extreme chaos with VM boot faults on; and the one-node bound on
//! tenancy.

use amoeba::bench::{standard_scenario, workflow::media_pipeline};
use amoeba::chaos::FaultPlan;
use amoeba::core::runtime::{MultiNodeSummary, NodeTotals};
use amoeba::core::{Experiment, MonitorConfig, RunResult, SystemVariant, WorkflowSetup};
use amoeba::platform::Scheduler;
use amoeba::sim::SimDuration;
use amoeba::telemetry::{FaultKind, RecoveryKind, TelemetryEvent};
use amoeba::tenancy::{FleetBuilder, TenancySetup};
use amoeba::workload::{benchmarks, DiurnalPattern, LoadTrace};

/// The benchmark's `chaos_dag` shape on a short day under `plan`: float
/// plus three background services, the 4-stage media DAG, a 4-node
/// fabric (scales 1 / 0.75 / 0.75 / 0.5, 40 ms RTT) under
/// Amoeba-per-node and a median-3 monitor.
fn chaos_dag(day_s: f64, seed: u64, plan: FaultPlan) -> Experiment {
    let dag = media_pipeline();
    let trace = LoadTrace::new(DiurnalPattern::didi(), dag.peak_qps(), day_s);
    Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(day_s),
        seed,
    )
    .services(standard_scenario(benchmarks::float(), day_s))
    .workflow(WorkflowSetup { spec: dag, trace })
    .nodes(4)
    .node_capacity(1, 0.75)
    .node_capacity(2, 0.75)
    .node_capacity(3, 0.5)
    .inter_node_latency(SimDuration::from_secs_f64(0.04))
    .scheduler(Scheduler::AmoebaPerNode)
    .fault_plan(plan)
    .monitor_cfg(MonitorConfig {
        median_window: 3,
        ..MonitorConfig::default()
    })
    .build()
}

/// The benchmark's run: `FaultPlan::mixed()` at 3× without VM boot
/// faults.
fn chaos_dag_run(day_s: f64, seed: u64) -> RunResult {
    let plan = FaultPlan {
        vm_boot_failure_prob: 0.0,
        vm_slow_boot_prob: 0.0,
        ..FaultPlan::mixed().scaled(3.0)
    };
    chaos_dag(day_s, seed, plan).run()
}

fn node(submitted: u64, completed: u64, failed: u64, spills: u64) -> NodeTotals {
    NodeTotals {
        submitted,
        completed,
        failed,
        spills,
    }
}

/// Values captured once every node ran its own meters, monitor and
/// model and chaos could land on any node. Multi-node runs may reorder
/// events that fire at the same simulated instant, but these totals
/// must not move; a deliberate behaviour change re-pins them and says
/// why.
#[test]
fn chaos_dag_totals_are_pinned() {
    let r = chaos_dag_run(480.0, 40_000);
    assert_eq!(
        r.multinode,
        Some(MultiNodeSummary {
            nodes: vec![
                node(53_384, 53_384, 0, 0),
                node(25_042, 25_042, 0, 0),
                node(20_060, 20_060, 0, 0),
                node(20_765, 20_764, 1, 0),
            ],
            spill_total: 0,
        })
    );
    assert_eq!(r.cold_starts, 411);
    let services: Vec<(&str, usize, usize, usize)> = r
        .services
        .iter()
        .map(|s| (s.name.as_str(), s.submitted, s.completed, s.failed))
        .collect();
    assert_eq!(
        services,
        [
            ("float", 34_867, 34_867, 0),
            ("bg_float", 7_072, 7_072, 0),
            ("bg_dd", 2_181, 2_181, 0),
            ("bg_cloud_stor", 2_869, 2_868, 1),
            ("media.ingest", 17_526, 17_526, 0),
            ("media.transform_a", 17_526, 17_526, 0),
            ("media.transform_b", 17_526, 17_526, 0),
            ("media.merge", 17_527, 17_527, 0),
        ]
    );
}

/// The same shape with `FaultPlan::mixed()` scaled as it is, so failed
/// and slow VM boots are on, from 3× to 100×: every query is still
/// accounted for, and the lost boot acks drive the engine's retry and
/// rollback paths.
#[test]
fn extreme_chaos_with_boot_faults_conserves_queries() {
    let mut rolled_back = 0;
    for (level, seed) in [(3.0, 40_082), (30.0, 40_000), (100.0, 7)] {
        let run = format!("{level}x, seed {seed}");
        let (r, trace) = chaos_dag(240.0, seed, FaultPlan::mixed().scaled(level)).run_traced();
        for s in &r.services {
            let (name, sub, done, lost) = (&s.name, s.submitted, s.completed, s.failed);
            assert_eq!(sub, done + lost, "service {name}, {run}");
        }
        for w in &r.workflows {
            let (name, sub, done, lost) = (&w.name, w.submitted, w.completed, w.failed);
            assert_eq!(sub, done + lost, "workflow {name}, {run}");
        }
        let nodes = &r.multinode.as_ref().expect("a 4-node run").nodes;
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.submitted, n.completed + n.failed, "node {i}, {run}");
        }
        let boot_faults = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e, TelemetryEvent::Fault(f)
                    if matches!(f.kind, FaultKind::VmBootFailure | FaultKind::VmSlowBoot))
            })
            .count();
        assert!(boot_faults > 0, "no boot fault injected, {run}");
        let rollbacks = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e, TelemetryEvent::Recovery(rec)
                    if rec.kind == RecoveryKind::SwitchRolledBack)
            })
            .count() as u64;
        assert_eq!(rollbacks, r.failed_switches, "{run}");
        rolled_back += rollbacks;
    }
    assert!(rolled_back > 0, "no switch was rolled back");
}

/// Tenancy's admission and vendor tick model one pool, so a tenant
/// fleet on more than one node is refused when the experiment is built.
#[test]
#[should_panic(expected = "tenancy runs on one node")]
fn tenancy_on_more_than_one_node_is_rejected() {
    let fleet = FleetBuilder::new(1).tenants(2).build();
    let _ = Experiment::builder(SystemVariant::Amoeba, SimDuration::from_secs(1), 1)
        .tenancy(TenancySetup::new(fleet, 1.5))
        .nodes(2)
        .build();
}
