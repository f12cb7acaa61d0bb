//! The placement-target vocabulary shared by the engine and the
//! multi-node runtime.
//!
//! The paper's switch protocol names one of two implicit platforms
//! (the serverless pool or the IaaS fleet). In a geo-distributed
//! topology that is not enough: a VM group boots *somewhere*, and a
//! container pool lives on a node with its own capacity and its own
//! distance from the user. A [`TargetId`] makes the destination
//! explicit — node × mode.

use crate::config::ServerlessConfig;
use crate::ids::NodeId;
use amoeba_telemetry::DeployMode;

/// A placement target: one deployment mode on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetId {
    /// The hosting node.
    pub node: NodeId,
    /// Which platform on that node.
    pub mode: DeployMode,
}

impl TargetId {
    /// The serverless pool on `node`.
    pub fn serverless(node: NodeId) -> Self {
        TargetId {
            node,
            mode: DeployMode::Serverless,
        }
    }

    /// The IaaS fleet on `node`.
    pub fn iaas(node: NodeId) -> Self {
        TargetId {
            node,
            mode: DeployMode::Iaas,
        }
    }
}

/// Multi-node placement scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Amoeba switching per node: each service has a home node where
    /// the full switch protocol runs, with load spill to the
    /// least-loaded peer when the home pool saturates.
    #[default]
    AmoebaPerNode,
    /// NOAH-style serverless scheduling: every serverless query goes
    /// to the least-loaded node's pool, with no home affinity. A
    /// service's VM group lives on its home node, so IaaS work stays
    /// there.
    Noah,
    /// Contention-aware edge placement: services are statically
    /// assigned to nodes by dominant resource demand so that no node's
    /// projected load vector peaks; all-serverless.
    EdgeAware,
}

impl Scheduler {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheduler::AmoebaPerNode => "amoeba-per-node",
            Scheduler::Noah => "noah",
            Scheduler::EdgeAware => "edge-aware",
        }
    }
}

/// Multi-node topology: per-node capacity scales plus a uniform
/// inter-node round-trip time.
///
/// The default is a single node at scale 1.0 with zero RTT.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Capacity scale per node: node `i`'s cores, disk and NIC
    /// bandwidth, and pool memory are the base config times
    /// `node_scales[i]`.
    pub node_scales: Vec<f64>,
    /// Round-trip time between any two distinct nodes, seconds.
    pub rtt_s: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            node_scales: vec![1.0],
            rtt_s: 0.0,
        }
    }
}

impl TopologyConfig {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_scales.len()
    }

    /// RTT between two nodes (zero on the same node).
    pub fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else {
            self.rtt_s
        }
    }

    /// The base serverless config scaled to one node's capacity.
    pub fn scaled(&self, base: &ServerlessConfig, node: NodeId) -> ServerlessConfig {
        let s = self.node_scales[node.index()];
        let mut cfg = *base;
        cfg.node.cores *= s;
        cfg.node.dram_mb *= s;
        cfg.node.disk_bw_mbps *= s;
        cfg.node.nic_bw_mbps *= s;
        cfg.pool_memory_mb *= s;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_is_single_node_legacy() {
        let t = TopologyConfig::default();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.rtt(NodeId::ZERO, NodeId::ZERO), 0.0);
        let cfg = t.scaled(&ServerlessConfig::default(), NodeId::ZERO);
        assert_eq!(cfg.node.cores, ServerlessConfig::default().node.cores);
    }

    #[test]
    fn scaling_shrinks_capacity_and_pool() {
        let t = TopologyConfig {
            node_scales: vec![1.0, 0.5],
            rtt_s: 0.04,
        };
        let base = ServerlessConfig::default();
        let half = t.scaled(&base, NodeId::new(1));
        assert_eq!(half.node.cores, base.node.cores * 0.5);
        assert_eq!(half.pool_memory_mb, base.pool_memory_mb * 0.5);
        // Overhead constants stay untouched.
        assert_eq!(half.cold_start_median_s, base.cold_start_median_s);
        assert_eq!(t.rtt(NodeId::ZERO, NodeId::new(1)), 0.04);
    }
}
