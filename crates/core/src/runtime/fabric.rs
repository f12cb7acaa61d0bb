//! Multi-node placement: each service's home node, and which node
//! executes a query.
//!
//! The nodes themselves live in [`Cluster`]; the fabric is only the
//! policy over them. It is consulted when the topology has more than
//! one node — a single node executes everything — and three schedulers
//! implement it:
//!
//! * Amoeba-per-node — every service switches on its home node and
//!   spills serverless work to the calmest peer when the home pool
//!   saturates;
//! * NOAH — every serverless query goes to the calmest pool;
//! * edge-aware — contention-aware static homes, no spill.
//!
//! A service's VM group is only ever activated on its home node, so
//! IaaS work runs there under every scheduler.
//!
//! [`Cluster`]: super::cluster::Cluster

use super::cluster::NodeRt;
use amoeba_platform::{NodeId, Scheduler, TopologyConfig};
use amoeba_sim::SimDuration;
use amoeba_telemetry::DeployMode;
use amoeba_workload::MicroserviceSpec;

/// Serverless max-utilization above which an Amoeba home node spills
/// new serverless arrivals to the least-loaded peer.
pub(crate) const SPILL_THRESHOLD: f64 = 0.85;

/// The placement policy of one run.
pub(crate) struct Fabric {
    pub(crate) scheduler: Scheduler,
    /// The wire delay a query pays to reach a node other than its
    /// home (the inter-node round trip).
    pub(crate) spill_delay: SimDuration,
}

impl Fabric {
    pub(crate) fn new(scheduler: Scheduler, topology: &TopologyConfig) -> Self {
        Fabric {
            scheduler,
            spill_delay: SimDuration::from_secs_f64(topology.rtt_s),
        }
    }

    /// The node that executes a query of a service homed on `home` and
    /// routed to `route`. Anything but `home` is a spill.
    pub(crate) fn place(&self, nodes: &[NodeRt], home: NodeId, route: DeployMode) -> NodeId {
        match self.scheduler {
            _ if route == DeployMode::Iaas => home,
            // Amoeba switches at the home node; serverless arrivals
            // spill only when the home pool saturates and a calmer
            // peer exists.
            Scheduler::AmoebaPerNode => {
                let p = pool_pressure(&nodes[home.index()]);
                if p > SPILL_THRESHOLD {
                    let alt = least_loaded(nodes, Some(home));
                    if pool_pressure(&nodes[alt.index()]) < p {
                        alt
                    } else {
                        home
                    }
                } else {
                    home
                }
            }
            // NOAH-style: every serverless query chases the calmest
            // pool, RTT be damned.
            Scheduler::Noah => least_loaded(nodes, None),
            // Static contention-aware assignment: the home map is the
            // whole policy.
            Scheduler::EdgeAware => home,
        }
    }
}

/// Max per-resource utilization of one node's serverless pool.
fn pool_pressure(node: &NodeRt) -> f64 {
    let u = node.serverless.utilization();
    u.iter().fold(0.0, |a, &b| f64::max(a, b))
}

/// The node with the calmest serverless pool, optionally excluding
/// one; ties break toward the lowest node id.
fn least_loaded(nodes: &[NodeRt], exclude: Option<NodeId>) -> NodeId {
    let mut best = None;
    for (i, rt) in nodes.iter().enumerate() {
        let node = NodeId::new(i);
        if exclude == Some(node) {
            continue;
        }
        let p = pool_pressure(rt);
        if best.is_none_or(|(_, bp)| p < bp) {
            best = Some((node, p));
        }
    }
    best.map(|(n, _)| n).unwrap_or(NodeId::ZERO)
}

/// Mean serverless utilization per resource `[cpu, io, net]` over the
/// nodes, and the highest single-resource utilization of any node —
/// the imbalance a placement policy minimises.
pub(crate) fn fleet_utilization(nodes: &[NodeRt]) -> ([f64; 3], f64) {
    let mut mean = [0.0; 3];
    let mut max = 0.0;
    for rt in nodes {
        let u = rt.serverless.utilization();
        for r in 0..3 {
            mean[r] += u[r];
        }
        max = f64::max(max, u[0].max(u[1]).max(u[2]));
    }
    for m in &mut mean {
        *m /= nodes.len() as f64;
    }
    (mean, max)
}

/// Home node per service. Edge-aware placement assigns static homes by
/// contention; the other schedulers deal services round-robin over the
/// nodes. `base_caps` is the unscaled node capacity in
/// `[cores, disk MB/s, NIC MB/s]`.
pub(crate) fn homes<'a>(
    scheduler: Scheduler,
    topology: &TopologyConfig,
    specs: impl ExactSizeIterator<Item = &'a MicroserviceSpec>,
    base_caps: [f64; 3],
) -> Vec<NodeId> {
    let n = topology.node_count();
    match scheduler {
        Scheduler::EdgeAware => {
            let demands: Vec<[f64; 3]> = specs
                .map(|s| {
                    [
                        s.peak_qps * s.demand.cpu_s,
                        s.peak_qps * s.demand.io_mb,
                        s.peak_qps * s.demand.net_mb,
                    ]
                })
                .collect();
            edge_aware_homes(&demands, topology, base_caps)
        }
        _ => (0..specs.len()).map(|i| NodeId::new(i % n)).collect(),
    }
}

/// Contention-aware static homes (the edge-placement baseline):
/// services in descending order of dominant normalized demand, each
/// greedily assigned to the node where the projected per-resource load
/// vector peaks lowest. `demands[i]` is service `i`'s peak demand in
/// `[core·s/s, disk MB/s, NIC MB/s]`.
fn edge_aware_homes(
    demands: &[[f64; 3]],
    topology: &TopologyConfig,
    base_caps: [f64; 3],
) -> Vec<NodeId> {
    let n = topology.node_count();
    let mut order: Vec<usize> = (0..demands.len()).collect();
    let dominant = |d: &[f64; 3]| {
        (0..3)
            .map(|r| d[r] / base_caps[r].max(1e-12))
            .fold(0.0, f64::max)
    };
    order.sort_by(|&a, &b| {
        dominant(&demands[b])
            .partial_cmp(&dominant(&demands[a]))
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut load = vec![[0.0f64; 3]; n];
    let mut homes = vec![NodeId::ZERO; demands.len()];
    for idx in order {
        let mut best = (0usize, f64::INFINITY);
        for (node, node_load) in load.iter().enumerate() {
            let scale = topology.node_scales[node];
            let peak = (0..3)
                .map(|r| (node_load[r] + demands[idx][r]) / (base_caps[r] * scale).max(1e-12))
                .fold(0.0, f64::max);
            if peak < best.1 {
                best = (node, peak);
            }
        }
        for r in 0..3 {
            load[best.0][r] += demands[idx][r];
        }
        homes[idx] = NodeId::new(best.0);
    }
    homes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::cluster::test_node;
    use amoeba_platform::{ClusterEvent, Effect, Query, QueryId, ServerlessConfig};
    use amoeba_sim::{SimRng, SimTime};
    use amoeba_workload::benchmarks;

    const N0: NodeId = NodeId::ZERO;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn topology(scales: &[f64]) -> TopologyConfig {
        TopologyConfig {
            node_scales: scales.to_vec(),
            rtt_s: 0.04,
        }
    }

    fn base_caps() -> [f64; 3] {
        let node = ServerlessConfig::default().node;
        [node.cores, node.disk_bw_mbps, node.nic_bw_mbps]
    }

    /// One node per capacity scale, each with dd (service 0) and float
    /// (service 1) registered.
    fn nodes(scales: &[f64]) -> Vec<NodeRt> {
        let topology = topology(scales);
        (0..scales.len())
            .map(|i| {
                let cfg = topology.scaled(&ServerlessConfig::default(), n(i));
                let mut rt = test_node(cfg);
                rt.register(&benchmarks::dd());
                rt.register(&benchmarks::float());
                rt
            })
            .collect()
    }

    /// Start `count` dd executions on one node: submit them and finish
    /// their cold starts, so the queries hold the node's disk.
    fn run_dd(rt: &mut NodeRt, count: u64) {
        let mut rng = SimRng::seed_from_u64(1);
        let mut cold = Vec::new();
        for i in 0..count {
            let q = Query {
                id: QueryId::user(i),
                service: amoeba_platform::ServiceId(0),
                submitted: SimTime::ZERO,
            };
            for e in rt.serverless.submit(q, SimTime::ZERO, &mut rng) {
                if let Effect::Schedule { after, event } = e {
                    if matches!(event, ClusterEvent::ColdStartDone { .. }) {
                        cold.push((SimTime::ZERO + after, event));
                    }
                }
            }
        }
        cold.sort_by_key(|&(t, _)| t);
        for (t, event) in cold {
            rt.serverless.handle(event, t, &mut rng);
        }
    }

    fn fabric(scheduler: Scheduler) -> Fabric {
        Fabric::new(scheduler, &topology(&[1.0]))
    }

    #[test]
    fn noah_sends_serverless_work_to_the_calmest_pool() {
        let mut ns = nodes(&[1.0, 1.0, 1.0]);
        run_dd(&mut ns[0], 8);
        run_dd(&mut ns[2], 4);
        let noah = fabric(Scheduler::Noah);
        assert_eq!(noah.place(&ns, N0, DeployMode::Serverless), n(1));
        assert_eq!(noah.place(&ns, n(2), DeployMode::Serverless), n(1));
        // Equally calm pools: the lowest node id wins.
        let quiet = nodes(&[1.0, 1.0]);
        assert_eq!(noah.place(&quiet, n(1), DeployMode::Serverless), N0);
    }

    #[test]
    fn iaas_work_runs_on_its_home_node_under_every_scheduler() {
        // A service's VM group is only ever activated on its home node.
        let mut ns = nodes(&[0.5, 1.0]);
        run_dd(&mut ns[0], 8);
        for scheduler in [
            Scheduler::AmoebaPerNode,
            Scheduler::Noah,
            Scheduler::EdgeAware,
        ] {
            let f = fabric(scheduler);
            assert_eq!(f.place(&ns, N0, DeployMode::Iaas), N0, "{scheduler:?}");
        }
    }

    #[test]
    fn amoeba_spills_only_off_a_saturated_home_to_a_calmer_peer() {
        let amoeba = fabric(Scheduler::AmoebaPerNode);
        // Busy but below the spill threshold: stay home.
        let mut ns = nodes(&[0.5, 1.0]);
        run_dd(&mut ns[0], 4);
        assert!(pool_pressure(&ns[0]) < SPILL_THRESHOLD);
        assert_eq!(amoeba.place(&ns, N0, DeployMode::Serverless), N0);
        // Saturated home, calm peer: spill.
        let mut ns = nodes(&[0.5, 1.0]);
        run_dd(&mut ns[0], 12);
        assert!(pool_pressure(&ns[0]) > SPILL_THRESHOLD);
        assert_eq!(amoeba.place(&ns, N0, DeployMode::Serverless), n(1));
        // A peer just as saturated is no refuge.
        let mut ns = nodes(&[0.5, 0.5]);
        run_dd(&mut ns[0], 12);
        run_dd(&mut ns[1], 12);
        assert_eq!(amoeba.place(&ns, N0, DeployMode::Serverless), N0);
        // Edge-aware placement never spills.
        let mut ns = nodes(&[0.5, 1.0]);
        run_dd(&mut ns[0], 12);
        let edge = fabric(Scheduler::EdgeAware);
        assert_eq!(edge.place(&ns, N0, DeployMode::Serverless), N0);
    }

    #[test]
    fn contention_stays_on_its_node() {
        // The property that makes placement matter: a hot node does not
        // slow a quiet one.
        let mut ns = nodes(&[1.0, 1.0]);
        run_dd(&mut ns[0], 8);
        assert!(ns[0].serverless.slowdowns()[1] > 1.5);
        assert_eq!(ns[1].serverless.utilization(), [0.0; 3]);
        assert_eq!(ns[1].serverless.slowdowns(), [1.0; 3]);
        // The fleet view is the mean over nodes, not the sum, and the
        // imbalance is the hot node's peak resource.
        let (mean, max) = fleet_utilization(&ns);
        let u0 = ns[0].serverless.utilization();
        assert_eq!(mean, [u0[0] / 2.0, u0[1] / 2.0, u0[2] / 2.0]);
        assert_eq!(max, u0[1]);
    }

    #[test]
    fn homes_deal_services_round_robin_except_under_edge_aware() {
        let specs = [
            benchmarks::float(),
            benchmarks::dd(),
            benchmarks::cloud_stor(),
            benchmarks::float(),
            benchmarks::dd(),
        ];
        let topo = topology(&[1.0, 1.0, 1.0]);
        for scheduler in [Scheduler::AmoebaPerNode, Scheduler::Noah] {
            assert_eq!(
                homes(scheduler, &topo, specs.iter(), base_caps()),
                [0, 1, 2, 0, 1].map(n),
                "{scheduler:?}"
            );
        }
        // One node homes everything on it.
        let single = homes(
            Scheduler::EdgeAware,
            &topology(&[1.0]),
            specs.iter(),
            base_caps(),
        );
        assert_eq!(single, [N0; 5]);
    }

    #[test]
    fn edge_aware_homes_spread_heavy_services_and_prefer_big_nodes() {
        let dd = benchmarks::dd();
        // Two disk-heavy services never share a node while another is
        // empty.
        let h = homes(
            Scheduler::EdgeAware,
            &topology(&[1.0, 1.0]),
            [dd.clone(), dd.clone()].iter(),
            base_caps(),
        );
        assert_ne!(h[0], h[1], "{h:?}");
        // A lone heavy service lands on the node with the most capacity.
        let h = homes(
            Scheduler::EdgeAware,
            &topology(&[0.25, 1.0, 0.5]),
            [dd].iter(),
            base_caps(),
        );
        assert_eq!(h, [n(1)]);
    }
}
