//! The simulated cluster: every node's platform pair and contention
//! monitor in one vector, and the one path by which queries and engine
//! actions reach them.
//!
//! Every platform response, on any node, joins the node-tagged
//! [`EffectBus`] that `effects::apply` drains after each dispatched
//! event. One set of rules holds on every node:
//!
//! * work submitted with no wire delay lands on the spot; only a spill
//!   travels, as an [`Ev::RemoteSubmit`] delivery event one RTT later;
//! * internal traffic (meter queries, shadow probes, chaos spikes)
//!   reaches a node's pool through [`Cluster::probe`] and ends no drain;
//! * each node runs its own three meters into its own monitor, and
//!   chaos faults land on any node.
//!
//! The ingress ([`INGRESS`]) differs only in that its monitor is the
//! one `RunResult` and the heartbeat telemetry report.

use super::effects::EffectBus;
use super::fabric::Fabric;
use super::results::NodeTotals;
use super::Ev;
use crate::engine::EngineAction;
use crate::monitor::ContentionMonitor;
use amoeba_platform::{
    ClusterEvent, Effect, IaasConfig, IaasPlatform, NodeId, Query, ServerlessConfig,
    ServerlessPlatform, ServiceId,
};
use amoeba_sim::{EventQueue, SimDuration, SimRng, SimTime};
use amoeba_telemetry::DeployMode;
use amoeba_workload::MicroserviceSpec;

/// The node users talk to, whose monitor `RunResult` reports.
pub(crate) const INGRESS: NodeId = NodeId::ZERO;

/// One node: its serverless pool, its IaaS fleet, the contention
/// monitor its meters feed and its query totals.
pub(crate) struct NodeRt {
    pub(crate) serverless: ServerlessPlatform,
    pub(crate) iaas: IaasPlatform,
    /// This pool's pressure and Eq. 6 weights, inferred from the
    /// meters that run on it (§VI).
    pub(crate) monitor: ContentionMonitor,
    /// User queries placed on, completed on and lost on this node.
    pub(crate) totals: NodeTotals,
}

impl NodeRt {
    pub(crate) fn new(
        serverless: ServerlessConfig,
        iaas: IaasConfig,
        monitor: ContentionMonitor,
    ) -> Self {
        NodeRt {
            serverless: ServerlessPlatform::new(serverless),
            iaas: IaasPlatform::new(iaas),
            monitor,
            totals: NodeTotals::default(),
        }
    }

    /// Register a service on both platforms, whose ids must agree.
    pub(crate) fn register(&mut self, spec: &MicroserviceSpec) -> ServiceId {
        let sid = self.serverless.register(spec.clone());
        let iid = self.iaas.register(spec.clone());
        assert_eq!(sid, iid, "platform id mismatch");
        sid
    }

    /// Platform-internal progress on this node.
    pub(crate) fn handle(
        &mut self,
        event: ClusterEvent,
        now: SimTime,
        platform_rng: &mut SimRng,
        iaas_rng: &mut SimRng,
    ) -> Vec<Effect> {
        match event {
            ClusterEvent::VmBootDone { .. } | ClusterEvent::IaasExecDone { .. } => {
                self.iaas.handle(event, now, iaas_rng)
            }
            _ => self.serverless.handle(event, now, platform_rng),
        }
    }
}

/// Every node of the run, the placement policy over them, the bus their
/// responses wait on and the random streams their platforms draw from.
pub(crate) struct Cluster {
    /// `nodes[i]` is `NodeId(i)`.
    pub(crate) nodes: Vec<NodeRt>,
    /// Placement, consulted only when there is more than one node.
    pub(crate) fabric: Fabric,
    /// Platform responses not yet applied, tagged with their node.
    pub(crate) bus: EffectBus,
    pub(crate) platform_rng: SimRng,
    pub(crate) iaas_rng: SimRng,
}

impl Cluster {
    /// Submit `query` to `node` on `route`: the one entry point for
    /// user queries, workflow hand-offs and re-queued work. With no
    /// `delay` the node takes it on the spot; a spill arrives through an
    /// [`Ev::RemoteSubmit`] `delay` later.
    pub(crate) fn submit(
        &mut self,
        node: NodeId,
        query: Query,
        route: DeployMode,
        delay: SimDuration,
        now: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        if delay == SimDuration::ZERO {
            self.deliver(node, query, route, now);
        } else {
            queue.push(now + delay, Ev::RemoteSubmit { node, query, route });
        }
    }

    /// A query reaches `node`'s platform. Serverless traffic ends any
    /// drain of the service's pool (the NoP path switches with no
    /// prewarm ack).
    pub(crate) fn deliver(&mut self, node: NodeId, query: Query, route: DeployMode, now: SimTime) {
        let rt = &mut self.nodes[node.index()];
        let eff = match route {
            DeployMode::Serverless => {
                rt.serverless.resume_service(query.service);
                rt.serverless.submit(query, now, &mut self.platform_rng)
            }
            DeployMode::Iaas => rt.iaas.submit(query, now, &mut self.iaas_rng),
        };
        self.bus.extend(node, eff);
    }

    /// Internal traffic — meter queries, chaos spikes and shadow
    /// probes — goes straight to `node`'s pool and, unlike user
    /// traffic, ends no drain.
    pub(crate) fn probe(&mut self, node: NodeId, query: Query, now: SimTime) {
        let eff = self.nodes[node.index()]
            .serverless
            .submit(query, now, &mut self.platform_rng);
        self.bus.extend(node, eff);
    }

    /// Carry out one engine action on the node its target names.
    pub(crate) fn apply(&mut self, action: EngineAction, now: SimTime) {
        let (target, eff) = match action {
            EngineAction::Prepare {
                service,
                target,
                count,
            } => {
                let rt = &mut self.nodes[target.node.index()];
                let eff = match target.mode {
                    DeployMode::Serverless => {
                        rt.serverless
                            .prewarm(service, count, now, &mut self.platform_rng)
                    }
                    DeployMode::Iaas => rt.iaas.activate(service, now),
                };
                (target, eff)
            }
            EngineAction::Release { service, target } => {
                let rt = &mut self.nodes[target.node.index()];
                let eff = match target.mode {
                    DeployMode::Serverless => {
                        rt.serverless.release_service(service);
                        Vec::new()
                    }
                    DeployMode::Iaas => rt.iaas.release(service, now),
                };
                (target, eff)
            }
        };
        self.bus.extend(target.node, eff);
    }
}

/// A node on `cfg` whose monitor has the default tuning.
#[cfg(test)]
pub(crate) fn test_node(cfg: ServerlessConfig) -> NodeRt {
    let curves = [0, 1, 2].map(|r| amoeba_meters::meter_curve(&cfg, r));
    let monitor = ContentionMonitor::new(crate::monitor::MonitorConfig::default(), curves);
    NodeRt::new(cfg, IaasConfig::default(), monitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_platform::{QueryId, Scheduler, TargetId, TopologyConfig};
    use amoeba_workload::benchmarks;

    const FLOAT: ServiceId = ServiceId(0);

    /// `n` full-size nodes with float registered on each.
    fn cluster(n: usize) -> Cluster {
        let topology = TopologyConfig {
            node_scales: vec![1.0; n],
            rtt_s: 0.04,
        };
        Cluster {
            nodes: (0..n)
                .map(|_| {
                    let mut rt = test_node(ServerlessConfig::default());
                    rt.register(&benchmarks::float());
                    rt
                })
                .collect(),
            fabric: Fabric::new(Scheduler::default(), &topology),
            bus: EffectBus::default(),
            platform_rng: SimRng::seed_from_u64(1),
            iaas_rng: SimRng::seed_from_u64(2),
        }
    }

    /// Empty the bus, returning the node each pending effect is tagged
    /// with.
    fn pending_nodes(c: &mut Cluster) -> Vec<NodeId> {
        std::iter::from_fn(|| c.bus.pop())
            .map(|(node, _)| node)
            .collect()
    }

    #[test]
    fn engine_actions_land_on_the_node_their_target_names() {
        let mut c = cluster(3);
        let node = NodeId::new(2);
        let now = SimTime::from_secs(1);
        c.apply(
            EngineAction::Prepare {
                service: FLOAT,
                target: TargetId::serverless(node),
                count: 4,
            },
            now,
        );
        c.apply(
            EngineAction::Prepare {
                service: FLOAT,
                target: TargetId::iaas(node),
                count: 0,
            },
            now,
        );
        let counts: Vec<u32> = c
            .nodes
            .iter()
            .map(|rt| rt.serverless.container_count(FLOAT))
            .collect();
        assert_eq!(counts, [0, 0, 4]);
        assert!(c.nodes[2].iaas.is_booting(FLOAT));
        assert!(!c.nodes[0].iaas.is_booting(FLOAT));
        // Every response waits on the bus, tagged with its node.
        let tags = pending_nodes(&mut c);
        assert!(!tags.is_empty());
        assert!(tags.iter().all(|&n| n == node), "{tags:?}");
        c.apply(
            EngineAction::Release {
                service: FLOAT,
                target: TargetId::serverless(node),
            },
            now,
        );
        assert_eq!(
            c.nodes[2].serverless.container_count(FLOAT),
            4,
            "still warming"
        );
    }

    #[test]
    fn every_node_takes_work_now_and_spills_by_delivery() {
        let mut c = cluster(2);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let now = SimTime::from_secs(5);
        let delay = SimDuration::from_millis(40);
        let query = |seq| Query {
            id: QueryId::user(seq),
            service: FLOAT,
            submitted: now,
        };
        for (i, node) in [NodeId::new(0), NodeId::new(1)].into_iter().enumerate() {
            let seq = 2 * i as u64;
            let here = SimDuration::ZERO;
            c.submit(
                node,
                query(seq),
                DeployMode::Serverless,
                here,
                now,
                &mut queue,
            );
            assert!(
                queue.is_empty(),
                "node {i} takes undelayed work on the spot"
            );
            assert_eq!(c.nodes[i].serverless.container_count(FLOAT), 1);
            assert!(pending_nodes(&mut c).iter().all(|&n| n == node));
            c.submit(
                node,
                query(seq + 1),
                DeployMode::Serverless,
                delay,
                now,
                &mut queue,
            );
            assert!(
                c.bus.pop().is_none(),
                "nothing reaches node {i} before delivery"
            );
            assert_eq!(c.nodes[i].serverless.container_count(FLOAT), 1);
            let fired = queue.pop().expect("a delivery event");
            assert_eq!(fired.time, now + delay);
            let Ev::RemoteSubmit {
                node: to,
                query: q,
                route,
            } = fired.payload
            else {
                panic!("expected a delivery, got {:?}", fired.payload);
            };
            assert_eq!(
                (to, q.id, route),
                (node, QueryId::user(seq + 1), DeployMode::Serverless)
            );
            c.deliver(to, q, route, fired.time);
            assert_eq!(c.nodes[i].serverless.container_count(FLOAT), 2);
            assert!(pending_nodes(&mut c).iter().all(|&n| n == node));
        }
    }
}
