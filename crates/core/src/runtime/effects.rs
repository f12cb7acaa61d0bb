//! The effect bus: the one channel by which platforms answer the
//! kernel.
//!
//! Platform calls never mutate run state directly — they return
//! [`Effect`]s, which accumulate on the [`EffectBus`] tagged with the
//! node that emitted them and are applied by [`apply`] after each
//! dispatched calendar event. Applying an effect can produce further
//! effects (an ack triggers engine actions, which command platforms,
//! which respond); [`apply`] therefore drains in batches until the bus
//! is idle.

use super::{completions, switching, Ev, Experiment, SimWorld};
use amoeba_platform::{Effect, NodeId};
use amoeba_sim::SimTime;
use amoeba_telemetry::TelemetrySink;

/// Pending platform effects with their node, in emission order. Batch
/// draining preserves the original inline-worklist semantics:
/// everything emitted while applying batch *n* is deferred to batch
/// *n + 1*.
pub(crate) struct EffectBus {
    pending: Vec<(NodeId, Effect)>,
}

impl EffectBus {
    pub(crate) fn new() -> Self {
        EffectBus {
            pending: Vec::new(),
        }
    }

    /// Queue every effect of one platform response from `node`.
    pub(crate) fn extend(&mut self, node: NodeId, effects: impl IntoIterator<Item = Effect>) {
        self.pending.extend(effects.into_iter().map(|e| (node, e)));
    }

    /// Is there nothing left to apply?
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Take the current batch, leaving the bus empty for re-emission.
    pub(crate) fn take_batch(&mut self) -> Vec<(NodeId, Effect)> {
        std::mem::take(&mut self.pending)
    }
}

/// Apply every pending effect (and everything their application emits)
/// at simulation time `now`. Scheduling effects land back on the
/// calendar tagged with their node; completions are counted on their
/// node and accounted; switch-protocol acks are service-keyed and go to
/// the node-agnostic switching handlers.
pub(crate) fn apply<S: TelemetrySink + ?Sized>(
    exp: &Experiment,
    world: &mut SimWorld,
    now: SimTime,
    sink: &mut S,
) {
    while !world.cluster.bus.is_idle() {
        let batch = world.cluster.bus.take_batch();
        for (node, e) in batch {
            match e {
                Effect::Schedule { after, event } => {
                    world.queue.push(now + after, Ev::Platform { node, event });
                }
                Effect::Completed(outcome) => {
                    if !outcome.query.id.is_shadow() {
                        world.cluster.nodes[node.index()].totals.completed += 1;
                    }
                    completions::on_completed(exp, world, node, outcome, now, sink);
                }
                Effect::PrewarmReady { service } => {
                    switching::on_prewarm_ready(world, service, now, sink);
                }
                Effect::VmGroupReady { service } => {
                    switching::on_vm_group_ready(world, service, now, sink);
                }
                Effect::IaasDrained { service } => {
                    switching::on_iaas_drained(world, service, now, sink);
                }
            }
        }
    }
}
