//! Events and effects shared by both platforms.
//!
//! The platforms are passive: methods return [`Effect`]s, and the event
//! loop (in `amoeba-core::runtime`) turns `Effect::Schedule` into entries
//! of an [`amoeba_sim::EventQueue`] and feeds fired [`ClusterEvent`]s
//! back into the right platform.

use crate::ids::{ContainerId, ServiceId};
use crate::query::QueryOutcome;
use crate::slab::QueryTicket;
use amoeba_sim::SimDuration;

/// A future event inside one of the platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A container finished its cold start.
    ColdStartDone {
        /// The container that became ready.
        container: ContainerId,
    },
    /// A serverless invocation finished.
    ServerlessExecDone {
        /// The container that ran it.
        container: ContainerId,
    },
    /// A warm container's keep-alive elapsed. `epoch` guards against
    /// stale timers: the event only applies if the container is still
    /// idle in the same epoch (reuse bumps the epoch; the calendar
    /// cannot cancel the timer).
    ContainerExpire {
        /// The container whose keep-alive fired.
        container: ContainerId,
        /// The idle epoch the timer was armed in.
        epoch: u64,
    },
    /// An IaaS VM group finished booting.
    VmBootDone {
        /// The service whose group booted.
        service: ServiceId,
    },
    /// An IaaS query finished executing.
    IaasExecDone {
        /// The service it belongs to.
        service: ServiceId,
        /// Slab ticket of the in-flight query. A stale ticket — the
        /// query was force-drained and its slot possibly recycled — is
        /// rejected by the slab's generation check, making the event a
        /// no-op exactly like the old map miss.
        ticket: QueryTicket,
    },
}

/// What a platform asks its driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Schedule `event` to fire `after` from now.
    Schedule {
        /// Delay from the current instant.
        after: SimDuration,
        /// The event to deliver.
        event: ClusterEvent,
    },
    /// A query completed; record its outcome.
    Completed(QueryOutcome),
    /// A prewarm request for `service` is fully satisfied — the ack the
    /// hybrid engine waits for before flipping the router (§V-B).
    PrewarmReady {
        /// The service whose containers are warm.
        service: ServiceId,
    },
    /// An IaaS VM group finished booting and can take queries — the ack
    /// for switching toward IaaS.
    VmGroupReady {
        /// The service whose group is up.
        service: ServiceId,
    },
    /// A draining IaaS group ran its last in-flight query and released
    /// its resources ("the IaaS platform releases the resources after
    /// all its allocated queries completed", §III).
    IaasDrained {
        /// The service whose group drained.
        service: ServiceId,
    },
}
