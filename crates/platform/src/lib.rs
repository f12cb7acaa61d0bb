#![warn(missing_docs)]
//! The simulated cloud: a serverless platform and an IaaS platform.
//!
//! This crate is the substitute for the paper's physical testbed
//! (Table II: one OpenWhisk node, one Nameko/VM node, 25 Gb/s network).
//! Both platforms are *passive state machines*: every method takes the
//! current [`amoeba_sim::SimTime`] and returns [`Effect`]s — future
//! events to schedule and query completions to record. The event loop
//! that drives them lives in `amoeba-core::runtime`, which keeps each
//! platform unit-testable in isolation.
//!
//! What the serverless model reproduces from the paper:
//!
//! * a FIFO queue in front of a shared container pool (Fig. 7);
//! * cold starts of 1–3 s when no warm container exists (§V-A), warm
//!   reuse with a keep-alive window, and prewarming on request (Eq. 7);
//! * per-query overheads — authentication/processing, code loading,
//!   result posting — that take 10–45 % of end-to-end latency (Fig. 4);
//! * contention on cores, IO bandwidth and network bandwidth between
//!   co-located services (Fig. 5), via a convex utilisation→slowdown
//!   response, plus the memory ceiling on concurrent containers (§IV-A);
//! * one in-flight execution per container (§V-A).
//!
//! The IaaS model gives each service a dedicated, peak-sized VM group
//! ("just-enough" provisioning, §II-B) with no cross-service contention,
//! and a boot delay when a group is (re)activated.

pub mod cluster;
pub mod config;
pub mod iaas;
pub mod ids;
pub mod placement;
pub mod query;
pub mod resources;
pub mod serverless;
pub mod slab;

pub use cluster::{ClusterEvent, Effect};
pub use config::{IaasConfig, NodeConfig, ServerlessConfig};
pub use iaas::{required_cores, IaasPlatform};
pub use ids::{ContainerId, NodeId, QueryId, ServiceId};
pub use placement::{Scheduler, TargetId, TopologyConfig};
pub use query::{LatencyBreakdown, Query, QueryOutcome};
pub use resources::SharedResources;
pub use serverless::{CrashReport, ServerlessPlatform};
pub use slab::{QuerySlab, QueryTicket};
