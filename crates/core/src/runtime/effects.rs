//! The effect bus: the one channel by which platforms answer the
//! kernel.
//!
//! Platform calls never mutate run state directly — they return
//! [`Effect`]s, which queue on the [`EffectBus`] tagged with the node
//! that emitted them and are applied by [`apply`] after each dispatched
//! calendar event. Applying an effect can emit further effects (an ack
//! triggers an engine action, which commands a platform, which
//! responds); they join the back of the queue, and [`apply`] pops until
//! it is empty.

use super::{completions, switching, Ev, Experiment, SimWorld};
use amoeba_platform::{Effect, NodeId};
use amoeba_sim::SimTime;
use amoeba_telemetry::TelemetrySink;
use std::collections::VecDeque;

/// Pending platform effects with their node, first in, first out.
/// Everything emitted while one effect is applied lands behind
/// everything already waiting, so effects apply in breadth-first
/// emission order: all of one response before anything it causes. The
/// queue keeps its capacity between events.
#[derive(Default)]
pub(crate) struct EffectBus {
    pending: VecDeque<(NodeId, Effect)>,
}

impl EffectBus {
    /// Queue every effect of one platform response from `node`.
    pub(crate) fn extend(&mut self, node: NodeId, effects: impl IntoIterator<Item = Effect>) {
        self.pending.extend(effects.into_iter().map(|e| (node, e)));
    }

    /// The oldest pending effect, if any.
    pub(crate) fn pop(&mut self) -> Option<(NodeId, Effect)> {
        self.pending.pop_front()
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
    while let Some((node, e)) = world.cluster.bus.pop() {
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
