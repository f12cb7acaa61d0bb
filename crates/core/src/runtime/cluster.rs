//! The simulated cluster: every node's platform pair in one vector,
//! node 0 included, and the one path by which queries and engine
//! actions reach them.
//!
//! Every platform response, on any node, joins the node-tagged
//! [`EffectBus`] that `effects::apply` drains after each dispatched
//! event. Node 0 is the ingress: the node users talk to, whose capacity
//! the controller models. Two rules single it out, both kept on purpose
//! because changing either reorders random draws and so changes every
//! multi-node result:
//!
//! * work for node 0 is submitted on the spot, while work for any other
//!   node arrives through an [`Ev::RemoteSubmit`] delivery event (with
//!   zero delay for traffic that stays on its home node);
//! * chaos faults and the contention meters act on node 0 only.

use super::effects::EffectBus;
use super::fabric::Fabric;
use super::results::NodeTotals;
use super::Ev;
use crate::engine::EngineAction;
use amoeba_platform::{
    ClusterEvent, Effect, IaasConfig, IaasPlatform, NodeId, Query, ServerlessConfig,
    ServerlessPlatform, ServiceId,
};
use amoeba_sim::{EventQueue, SimDuration, SimRng, SimTime};
use amoeba_telemetry::DeployMode;
use amoeba_workload::MicroserviceSpec;

/// One node: its serverless pool, its IaaS fleet and its query totals.
pub(crate) struct NodeRt {
    pub(crate) serverless: ServerlessPlatform,
    pub(crate) iaas: IaasPlatform,
    /// User queries placed on, completed on and lost on this node.
    pub(crate) totals: NodeTotals,
}

impl NodeRt {
    pub(crate) fn new(serverless: ServerlessConfig, iaas: IaasConfig) -> Self {
        NodeRt {
            serverless: ServerlessPlatform::new(serverless),
            iaas: IaasPlatform::new(iaas),
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
    /// `nodes[i]` is `NodeId(i)`; `nodes[0]` is the ingress.
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
    /// user queries, workflow hand-offs and re-queued work. Node 0 takes
    /// it on the spot; any other node receives it through an
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
        if node == NodeId::ZERO {
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

    /// Internal traffic on the ingress — meter heartbeats, chaos spikes
    /// and shadow probes mirrored there — goes straight to node 0's
    /// pool and, unlike user traffic, ends no drain.
    pub(crate) fn probe(&mut self, query: Query, now: SimTime) {
        let eff = self.nodes[0]
            .serverless
            .submit(query, now, &mut self.platform_rng);
        self.bus.extend(NodeId::ZERO, eff);
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
                    let mut rt = NodeRt::new(ServerlessConfig::default(), IaasConfig::default());
                    rt.register(&benchmarks::float());
                    rt
                })
                .collect(),
            fabric: Fabric::new(Scheduler::default(), &topology),
            bus: EffectBus::new(),
            platform_rng: SimRng::seed_from_u64(1),
            iaas_rng: SimRng::seed_from_u64(2),
        }
    }

    fn pending_nodes(c: &mut Cluster) -> Vec<NodeId> {
        c.bus
            .take_batch()
            .into_iter()
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
    fn node_zero_takes_work_now_and_other_nodes_by_delivery() {
        let mut c = cluster(2);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let now = SimTime::from_secs(5);
        let delay = SimDuration::from_millis(40);
        let query = |seq| Query {
            id: QueryId::user(seq),
            service: FLOAT,
            submitted: now,
        };
        c.submit(
            NodeId::ZERO,
            query(0),
            DeployMode::Serverless,
            delay,
            now,
            &mut queue,
        );
        assert!(queue.is_empty(), "node 0 submits on the spot");
        assert_eq!(c.nodes[0].serverless.container_count(FLOAT), 1);
        assert!(pending_nodes(&mut c).iter().all(|&n| n == NodeId::ZERO));
        let node = NodeId::new(1);
        c.submit(
            node,
            query(1),
            DeployMode::Serverless,
            delay,
            now,
            &mut queue,
        );
        assert!(c.bus.is_idle(), "nothing reaches node 1 before delivery");
        assert_eq!(c.nodes[1].serverless.container_count(FLOAT), 0);
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
            (node, QueryId::user(1), DeployMode::Serverless)
        );
        c.deliver(to, q, route, fired.time);
        assert_eq!(c.nodes[1].serverless.container_count(FLOAT), 1);
        assert!(pending_nodes(&mut c).iter().all(|&n| n == node));
    }
}
