//! The hybrid execution engine (§V).
//!
//! The engine owns the per-service router and the switch protocol:
//!
//! 1. On a switch decision, the controller sends the prewarm signal
//!    `S_pw`: the engine prepares the *target* side — prewarms Eq. 7's
//!    container count on the serverless platform, or boots the VM group
//!    on the IaaS platform — while queries keep flowing to the old side.
//! 2. When the acknowledgement (PrewarmReady / VmGroupReady) arrives,
//!    the router flips: *new* queries go to the new side; in-flight
//!    queries finish where they started.
//! 3. The engine then sends the shutdown signal `S_sd` to the old side
//!    (release idle containers / drain and deallocate VMs).
//!
//! The Amoeba-NoP ablation (§VII-D) skips step 1 for switches toward
//! serverless: the router flips immediately and queries eat cold starts.
//!
//! The engine also owns both of the protocol's deadlines: the ack
//! deadline on a prepare signal ([`HybridEngine::poll_deadline`]) and the
//! drain watchdog on a released VM group
//! ([`HybridEngine::take_overdue_drain`]).

use amoeba_platform::{NodeId, ServiceId, TargetId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{DeployMode, SwitchPhase, SwitchRecord, TelemetryEvent, TelemetrySink};

/// How long the engine waits for a released VM group's drained ack
/// before the control tick reclaims the group forcibly. The §V shutdown
/// step must terminate even if completions are lost.
pub const DRAIN_TIMEOUT_S: f64 = 60.0;

/// What the engine asks the runtime to do on the cluster. Every action
/// names a [`TargetId`] — node × mode — rather than implying one of two
/// platforms, so the same protocol drives a single node or a
/// geo-distributed fleet. The runtime applies each action to the node
/// the target names; a real deployment would apply it through per-site
/// OpenWhisk/IaaS control APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineAction {
    /// Ready the target for traffic (`S_pw`): warm `count` containers
    /// on a serverless target (then wait for the `PrewarmReady` ack),
    /// or boot the VM group on an IaaS target (`count` is ignored;
    /// wait for `VmGroupReady`).
    Prepare {
        /// The service being switched.
        service: ServiceId,
        /// Where to prepare.
        target: TargetId,
        /// Eq. 7's container count (serverless targets only).
        count: u32,
    },
    /// Stand the target down (`S_sd`): release idle containers on a
    /// serverless target, drain and deallocate VMs on an IaaS target.
    Release {
        /// The service being released.
        service: ServiceId,
        /// Where to release.
        target: TargetId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Transition {
    Steady,
    /// Waiting for the target side's readiness ack.
    Preparing {
        target: DeployMode,
        /// Eq. 7 prewarm count the prepare signal asked for.
        prewarm: u32,
        /// Load at request time (re-used for retries and the abort).
        load: f64,
        /// When the (latest) prepare signal was issued.
        requested_at: SimTime,
        /// Prepare signals re-issued after ack deadlines so far.
        retries: u32,
    },
}

struct ServiceRoute {
    mode: DeployMode,
    transition: Transition,
    last_switch: SimTime,
    /// Switch history for Fig. 12: (time, new mode, load at switch).
    history: Vec<(SimTime, DeployMode, f64)>,
    /// Drain watchdog: armed by every release of the VM group, disarmed
    /// by its drained ack and by every prepare that re-activates it (a
    /// release can land while the group is still booting, so its drained
    /// ack may never come before the switch back).
    drain_deadline: Option<SimTime>,
}

impl ServiceRoute {
    /// A release of the VM group was issued at `now`.
    fn arm_drain(&mut self, now: SimTime) {
        self.drain_deadline = Some(now + SimDuration::from_secs_f64(DRAIN_TIMEOUT_S));
    }
}

/// What [`HybridEngine::poll_deadline`] did about an overdue ack.
#[derive(Debug, Clone, PartialEq)]
pub enum DeadlineAction {
    /// The prepare signal was re-issued (bounded retry with backoff).
    Retried {
        /// The re-issued prepare action to dispatch.
        action: EngineAction,
        /// Which retry this is (1-based).
        attempt: u32,
        /// Prewarm containers the retry asks for (0 toward IaaS).
        prewarm: u32,
    },
    /// Retries exhausted: the transition was rolled back. The router
    /// stays on the old platform; the prepared side is released.
    Aborted {
        /// The release of the prepared side, to dispatch.
        action: EngineAction,
        /// Prewarm containers wasted by the failed attempt.
        prewarm: u32,
        /// When the original (first) prepare signal was issued.
        requested_at: SimTime,
    },
}

/// The engine: one router entry per service.
pub struct HybridEngine {
    routes: Vec<ServiceRoute>,
    /// Home node per service: where the switch protocol's targets
    /// live. All zero on a single node.
    home: Vec<NodeId>,
    /// Skip prewarming (Amoeba-NoP).
    prewarm_enabled: bool,
    /// How long to wait for a prepare ack before re-issuing the signal.
    /// Doubles per retry (backoff). Generous by default: fault-free
    /// acks arrive within seconds, so the deadline never fires unless
    /// something actually went wrong.
    ack_timeout: SimDuration,
    /// Prepare-signal retries before the transition aborts.
    max_ack_retries: u32,
}

/// Record one switch-protocol stage. Callers pass the sink down from the
/// runtime; the construction is guarded so the disabled sink costs one
/// branch.
#[allow(clippy::too_many_arguments)]
fn emit_phase<S: TelemetrySink + ?Sized>(
    sink: &mut S,
    t: SimTime,
    service: ServiceId,
    from: DeployMode,
    to: DeployMode,
    phase: SwitchPhase,
    prewarm_count: u32,
    load_qps: f64,
) {
    if sink.enabled() {
        sink.record(TelemetryEvent::Switch(SwitchRecord {
            t,
            service: service.raw() as usize,
            from,
            to,
            phase,
            prewarm_count,
            load_qps,
        }));
    }
}

impl HybridEngine {
    /// An engine for `n` services, all starting in the given mode
    /// (Amoeba starts everything on IaaS to guarantee QoS by default,
    /// §III step 1).
    pub fn new(n: usize, initial: DeployMode, prewarm_enabled: bool) -> Self {
        HybridEngine {
            routes: (0..n)
                .map(|_| ServiceRoute {
                    mode: initial,
                    transition: Transition::Steady,
                    last_switch: SimTime::ZERO,
                    history: Vec::new(),
                    drain_deadline: None,
                })
                .collect(),
            home: vec![NodeId::ZERO; n],
            prewarm_enabled,
            ack_timeout: SimDuration::from_secs(30),
            max_ack_retries: 2,
        }
    }

    /// Pin a service's switch protocol to a home node: subsequent
    /// prepare/release actions name targets on that node.
    pub fn set_home(&mut self, service: ServiceId, node: NodeId) {
        self.home[service.raw() as usize] = node;
    }

    /// The node a service's switch targets live on.
    pub fn home(&self, service: ServiceId) -> NodeId {
        self.home[service.raw() as usize]
    }

    /// Tune the ack-deadline policy: wait `timeout` (doubling per
    /// retry) for each prepare ack, re-issue the prepare signal up to
    /// `max_retries` times, then abort the transition.
    pub fn set_ack_policy(&mut self, timeout: SimDuration, max_retries: u32) {
        self.ack_timeout = timeout;
        self.max_ack_retries = max_retries;
    }

    /// Pin a service to a mode without the switch protocol — used for
    /// background services (always serverless) and for the static
    /// baselines. Does not touch the switch history.
    pub fn force_mode(&mut self, service: ServiceId, mode: DeployMode) {
        let r = &mut self.routes[service.raw() as usize];
        r.mode = mode;
        r.transition = Transition::Steady;
    }

    /// Current deployment mode of a service.
    pub fn mode(&self, service: ServiceId) -> DeployMode {
        self.routes[service.raw() as usize].mode
    }

    /// When the service last changed mode.
    pub fn last_switch(&self, service: ServiceId) -> SimTime {
        self.routes[service.raw() as usize].last_switch
    }

    /// Is a switch currently in flight for this service?
    pub fn in_transition(&self, service: ServiceId) -> bool {
        !matches!(
            self.routes[service.raw() as usize].transition,
            Transition::Steady
        )
    }

    /// The switch history (for the Fig. 12 timeline).
    pub fn history(&self, service: ServiceId) -> &[(SimTime, DeployMode, f64)] {
        &self.routes[service.raw() as usize].history
    }

    /// Begin a switch to `target`. Returns the preparation action; the
    /// runtime executes it against the platforms and later calls
    /// [`Self::on_ready`] when the ack arrives. `prewarm_count` is Eq. 7's
    /// `n` (ignored for switches toward IaaS). With prewarming disabled
    /// (NoP) a switch to serverless commits immediately and the returned
    /// action is the IaaS release instead. `None` when the service is
    /// already in `target` or mid-switch.
    ///
    /// Emits a `Requested` switch-protocol stage to `sink` (for the NoP
    /// immediate flip, also `Flip` and `ReleaseIssued` at the same
    /// instant — the protocol collapses to one step).
    pub fn begin_switch<S: TelemetrySink + ?Sized>(
        &mut self,
        service: ServiceId,
        target: DeployMode,
        prewarm_count: u32,
        load: f64,
        now: SimTime,
        sink: &mut S,
    ) -> Option<EngineAction> {
        let home = self.home[service.raw() as usize];
        let r = &mut self.routes[service.raw() as usize];
        if r.mode == target || !matches!(r.transition, Transition::Steady) {
            return None;
        }
        let from = r.mode;
        match target {
            DeployMode::Serverless => {
                if self.prewarm_enabled {
                    r.transition = Transition::Preparing {
                        target,
                        prewarm: prewarm_count,
                        load,
                        requested_at: now,
                        retries: 0,
                    };
                    emit_phase(
                        sink,
                        now,
                        service,
                        from,
                        target,
                        SwitchPhase::Requested,
                        prewarm_count,
                        load,
                    );
                    Some(EngineAction::Prepare {
                        service,
                        target: TargetId::serverless(home),
                        count: prewarm_count,
                    })
                } else {
                    // NoP: flip immediately; queries cold start.
                    r.mode = DeployMode::Serverless;
                    r.last_switch = now;
                    r.history.push((now, DeployMode::Serverless, load));
                    r.arm_drain(now);
                    for phase in [
                        SwitchPhase::Requested,
                        SwitchPhase::Flip,
                        SwitchPhase::ReleaseIssued,
                    ] {
                        emit_phase(sink, now, service, from, target, phase, 0, load);
                    }
                    Some(EngineAction::Release {
                        service,
                        target: TargetId::iaas(home),
                    })
                }
            }
            DeployMode::Iaas => {
                r.transition = Transition::Preparing {
                    target,
                    prewarm: 0,
                    load,
                    requested_at: now,
                    retries: 0,
                };
                r.drain_deadline = None;
                emit_phase(
                    sink,
                    now,
                    service,
                    from,
                    target,
                    SwitchPhase::Requested,
                    0,
                    load,
                );
                Some(EngineAction::Prepare {
                    service,
                    target: TargetId::iaas(home),
                    count: 0,
                })
            }
        }
    }

    /// The target side acked readiness (PrewarmReady or VmGroupReady):
    /// flip the router and return the release of the old side. `load` is
    /// recorded in the switch history. Stale acks (no transition
    /// pending, or for the wrong side) are ignored and return `None` —
    /// e.g. a VmGroupReady from an activation that a rolled-back switch
    /// left in flight.
    ///
    /// Emits `Ack`, `Flip` and `ReleaseIssued` stages (all at `now`: the
    /// router flips as soon as the ack lands, and the old side's release
    /// is issued in the same step).
    pub fn on_ready<S: TelemetrySink + ?Sized>(
        &mut self,
        service: ServiceId,
        side: DeployMode,
        load: f64,
        now: SimTime,
        sink: &mut S,
    ) -> Option<EngineAction> {
        let home = self.home[service.raw() as usize];
        let r = &mut self.routes[service.raw() as usize];
        let Transition::Preparing { target, .. } = r.transition else {
            return None;
        };
        if target != side {
            return None;
        }
        let from = r.mode;
        r.mode = target;
        r.transition = Transition::Steady;
        r.last_switch = now;
        r.history.push((now, target, load));
        for phase in [
            SwitchPhase::Ack,
            SwitchPhase::Flip,
            SwitchPhase::ReleaseIssued,
        ] {
            emit_phase(sink, now, service, from, target, phase, 0, load);
        }
        let old = match target {
            DeployMode::Serverless => {
                r.arm_drain(now);
                TargetId::iaas(home)
            }
            DeployMode::Iaas => TargetId::serverless(home),
        };
        Some(EngineAction::Release {
            service,
            target: old,
        })
    }

    /// Enforce the ack deadline for a service's in-flight transition.
    ///
    /// Call periodically (the runtime does so on every controller
    /// tick). While the ack is within its deadline — `ack_timeout`
    /// doubled per retry already taken — this returns `None` and
    /// changes nothing, so fault-free runs are byte-identical with or
    /// without the polling. Once overdue, the prepare signal is
    /// re-issued up to `max_ack_retries` times; after that the
    /// transition aborts: the prepared side is released, the router
    /// stays on the old (still serving) platform, and the open switch
    /// span closes as `Aborted`.
    pub fn poll_deadline<S: TelemetrySink + ?Sized>(
        &mut self,
        service: ServiceId,
        now: SimTime,
        sink: &mut S,
    ) -> Option<DeadlineAction> {
        let home = self.home[service.raw() as usize];
        let r = &mut self.routes[service.raw() as usize];
        let Transition::Preparing {
            target,
            prewarm,
            load,
            requested_at,
            retries,
        } = r.transition
        else {
            return None;
        };
        let deadline = requested_at + self.ack_timeout.mul_f64((1u64 << retries.min(32)) as f64);
        if now < deadline {
            return None;
        }
        let prepared = TargetId {
            node: home,
            mode: target,
        };
        if retries < self.max_ack_retries {
            r.transition = Transition::Preparing {
                target,
                prewarm,
                load,
                requested_at: now,
                retries: retries + 1,
            };
            if target == DeployMode::Iaas {
                r.drain_deadline = None;
            }
            Some(DeadlineAction::Retried {
                action: EngineAction::Prepare {
                    service,
                    target: prepared,
                    count: prewarm,
                },
                attempt: retries + 1,
                prewarm,
            })
        } else {
            r.transition = Transition::Steady;
            emit_phase(
                sink,
                now,
                service,
                r.mode,
                target,
                SwitchPhase::Aborted,
                prewarm,
                load,
            );
            if target == DeployMode::Iaas {
                r.arm_drain(now);
            }
            Some(DeadlineAction::Aborted {
                action: EngineAction::Release {
                    service,
                    target: prepared,
                },
                prewarm,
                requested_at,
            })
        }
    }

    /// The released VM group has finished its in-flight queries: the
    /// span's terminal step. Disarms the drain watchdog and emits the
    /// `Drained` stage; `load` is evaluated only when `sink` records.
    pub fn on_drained<S: TelemetrySink + ?Sized>(
        &mut self,
        service: ServiceId,
        now: SimTime,
        load: impl FnOnce() -> f64,
        sink: &mut S,
    ) {
        self.routes[service.raw() as usize].drain_deadline = None;
        if sink.enabled() {
            emit_phase(
                sink,
                now,
                service,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Drained,
                0,
                load(),
            );
        }
    }

    /// Enforce the drain watchdog: true when the service's released VM
    /// group has not acked its drain within [`DRAIN_TIMEOUT_S`] of the
    /// release, in which case the deadline is disarmed and the caller
    /// reclaims the group forcibly. The runtime checks on every control
    /// tick.
    pub fn take_overdue_drain(&mut self, service: ServiceId, now: SimTime) -> bool {
        let r = &mut self.routes[service.raw() as usize];
        let overdue = matches!(r.drain_deadline, Some(dl) if now >= dl);
        if overdue {
            r.drain_deadline = None;
        }
        overdue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_telemetry::{MemorySink, NoopSink};

    const S: ServiceId = ServiceId(0);
    /// Node-0 targets: what the protocol names on a single node.
    const SLS: TargetId = TargetId {
        node: NodeId::ZERO,
        mode: DeployMode::Serverless,
    };
    const VMS: TargetId = TargetId {
        node: NodeId::ZERO,
        mode: DeployMode::Iaas,
    };

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn initial_mode_routes_accordingly() {
        let e = HybridEngine::new(2, DeployMode::Iaas, true);
        assert_eq!(e.mode(S), DeployMode::Iaas);
        let e = HybridEngine::new(1, DeployMode::Serverless, true);
        assert_eq!(e.mode(S), DeployMode::Serverless);
    }

    #[test]
    fn switch_to_serverless_prewarms_then_flips() {
        let mut sink = NoopSink;
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        let action = e.begin_switch(S, DeployMode::Serverless, 5, 8.0, t(10), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Prepare {
                service: S,
                target: SLS,
                count: 5
            })
        );
        // Router still points at IaaS until the ack (§V-B: "the
        // transformation only occurs after acknowledgement received").
        assert_eq!(e.mode(S), DeployMode::Iaas);
        assert!(e.in_transition(S));
        let action = e.on_ready(S, DeployMode::Serverless, 8.0, t(12), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Release {
                service: S,
                target: VMS
            })
        );
        assert_eq!(e.mode(S), DeployMode::Serverless);
        assert!(!e.in_transition(S));
        assert_eq!(e.last_switch(S), t(12));
        assert_eq!(e.history(S), &[(t(12), DeployMode::Serverless, 8.0)]);
    }

    #[test]
    fn switch_to_iaas_boots_then_flips() {
        let mut sink = NoopSink;
        let mut e = HybridEngine::new(1, DeployMode::Serverless, true);
        let action = e.begin_switch(S, DeployMode::Iaas, 0, 80.0, t(20), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Prepare {
                service: S,
                target: VMS,
                count: 0
            })
        );
        assert_eq!(e.mode(S), DeployMode::Serverless);
        let action = e.on_ready(S, DeployMode::Iaas, 80.0, t(31), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Release {
                service: S,
                target: SLS
            })
        );
        assert_eq!(e.mode(S), DeployMode::Iaas);
    }

    #[test]
    fn nop_variant_flips_immediately_without_prewarm() {
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, false);
        let action = e.begin_switch(S, DeployMode::Serverless, 5, 3.0, t(10), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Release {
                service: S,
                target: VMS
            })
        );
        assert_eq!(e.mode(S), DeployMode::Serverless, "NoP routes directly");
        assert!(!e.in_transition(S));
        // Toward IaaS, NoP still waits for VMs (nothing cold-start-like
        // about that direction; the paper's ablation only drops container
        // prewarming).
        let action = e.begin_switch(S, DeployMode::Iaas, 0, 90.0, t(30), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Prepare {
                service: S,
                target: VMS,
                count: 0
            })
        );
        assert_eq!(e.mode(S), DeployMode::Serverless);
        // The NoP flip's telemetry span collapses to a single instant:
        // requested, flipped and released at t=10, with no ack stage.
        let spans = sink.into_trace().switch_spans();
        assert_eq!(spans[0].requested, t(10));
        assert_eq!(spans[0].flip, Some(t(10)));
        assert_eq!(spans[0].release_issued, Some(t(10)));
        assert_eq!(spans[0].ack, None);
        assert!(spans[0].completed());
    }

    #[test]
    fn duplicate_switch_requests_are_ignored() {
        let mut sink = NoopSink;
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        assert!(e
            .begin_switch(S, DeployMode::Serverless, 3, 1.0, t(1), &mut sink)
            .is_some());
        // Second request while preparing: no-op.
        assert!(e
            .begin_switch(S, DeployMode::Serverless, 3, 1.0, t(2), &mut sink)
            .is_none());
        // Request for the current mode: no-op.
        let mut e2 = HybridEngine::new(1, DeployMode::Iaas, true);
        assert!(e2
            .begin_switch(S, DeployMode::Iaas, 3, 1.0, t(1), &mut sink)
            .is_none());
    }

    #[test]
    fn second_switch_while_preparing_leaves_one_span() {
        // A duplicate request during Preparing must not open a second
        // telemetry span: the trace shows exactly one Requested stage.
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.begin_switch(S, DeployMode::Serverless, 3, 1.0, t(1), &mut sink);
        e.begin_switch(S, DeployMode::Serverless, 3, 1.5, t(2), &mut sink);
        // An opposite-direction request while preparing is also ignored
        // (the controller is not consulted while a switch is in flight).
        e.begin_switch(S, DeployMode::Iaas, 0, 50.0, t(3), &mut sink);
        e.on_ready(S, DeployMode::Serverless, 1.0, t(4), &mut sink);
        let trace = sink.into_trace();
        let spans = trace.switch_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].requested, t(1));
        assert_eq!(spans[0].ack, Some(t(4)));
        assert!(spans[0].completed());
    }

    #[test]
    fn stale_or_mismatched_acks_ignored() {
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        // Ack with no transition pending.
        assert!(e
            .on_ready(S, DeployMode::Serverless, 0.0, t(1), &mut sink)
            .is_none());
        // Ack for the wrong side.
        e.begin_switch(S, DeployMode::Serverless, 3, 1.0, t(2), &mut sink);
        assert!(e
            .on_ready(S, DeployMode::Iaas, 0.0, t(3), &mut sink)
            .is_none());
        assert!(e.in_transition(S));
        // The right ack still lands.
        assert!(e
            .on_ready(S, DeployMode::Serverless, 1.0, t(4), &mut sink)
            .is_some());
        // Ignored acks leave no trace stages: the span acks once, at the
        // genuine ready time.
        let trace = sink.into_trace();
        assert_eq!(trace.switch_events().count(), 4); // Requested + Ack/Flip/Release
        let spans = trace.switch_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].ack, Some(t(4)));
    }

    #[test]
    fn abort_releases_prepared_side() {
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        // No retries: the first overdue ack aborts.
        e.set_ack_policy(SimDuration::from_secs(1), 0);
        e.begin_switch(S, DeployMode::Serverless, 3, 1.0, t(1), &mut sink);
        assert_eq!(
            e.poll_deadline(S, t(2), &mut sink),
            Some(DeadlineAction::Aborted {
                action: EngineAction::Release {
                    service: S,
                    target: SLS
                },
                prewarm: 3,
                requested_at: t(1),
            })
        );
        assert!(!e.in_transition(S));
        assert_eq!(e.mode(S), DeployMode::Iaas, "mode unchanged after abort");
        // Nothing pending: no-op.
        assert_eq!(e.poll_deadline(S, t(3), &mut sink), None);
        // The span closes as aborted, never flipped.
        let spans = sink.into_trace().switch_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].aborted, Some(t(2)));
        assert!(!spans[0].completed());
        assert_eq!(spans[0].flip, None);
    }

    #[test]
    fn overdue_ack_retries_with_backoff_then_aborts() {
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.set_ack_policy(SimDuration::from_secs(10), 2);
        e.begin_switch(S, DeployMode::Serverless, 4, 6.0, t(0), &mut sink);
        // Within the first deadline: nothing happens.
        assert_eq!(e.poll_deadline(S, t(9), &mut sink), None);
        // First deadline (10 s): retry 1 re-issues the prewarm.
        match e.poll_deadline(S, t(10), &mut sink) {
            Some(DeadlineAction::Retried {
                action,
                attempt,
                prewarm,
            }) => {
                assert_eq!(
                    action,
                    EngineAction::Prepare {
                        service: S,
                        target: SLS,
                        count: 4
                    }
                );
                assert_eq!(attempt, 1);
                assert_eq!(prewarm, 4);
            }
            other => panic!("expected first retry, got {other:?}"),
        }
        // Backoff: the second deadline is 20 s after the retry.
        assert_eq!(e.poll_deadline(S, t(29), &mut sink), None);
        assert!(matches!(
            e.poll_deadline(S, t(30), &mut sink),
            Some(DeadlineAction::Retried { attempt: 2, .. })
        ));
        // Third deadline (40 s later): retries exhausted — abort.
        assert_eq!(e.poll_deadline(S, t(69), &mut sink), None);
        match e.poll_deadline(S, t(70), &mut sink) {
            Some(DeadlineAction::Aborted {
                action, prewarm, ..
            }) => {
                assert_eq!(
                    action,
                    EngineAction::Release {
                        service: S,
                        target: SLS
                    }
                );
                assert_eq!(prewarm, 4);
            }
            other => panic!("expected abort, got {other:?}"),
        }
        // The satellite invariant: the router never left the old
        // platform — queries kept flowing to IaaS the whole time.
        assert_eq!(e.mode(S), DeployMode::Iaas);
        assert!(!e.in_transition(S));
        assert_eq!(e.history(S), &[], "no mode change was recorded");
        let spans = sink.into_trace().switch_spans();
        assert_eq!(spans.len(), 1, "retries do not open new spans");
        assert_eq!(spans[0].aborted, Some(t(70)));
        assert!(!spans[0].completed());
    }

    #[test]
    fn late_ack_after_a_retry_still_completes_the_switch() {
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.set_ack_policy(SimDuration::from_secs(10), 2);
        e.begin_switch(S, DeployMode::Serverless, 3, 2.0, t(0), &mut sink);
        assert!(matches!(
            e.poll_deadline(S, t(11), &mut sink),
            Some(DeadlineAction::Retried { attempt: 1, .. })
        ));
        // The retry's ack lands: normal flip, no abort.
        let action = e.on_ready(S, DeployMode::Serverless, 2.0, t(14), &mut sink);
        assert_eq!(
            action,
            Some(EngineAction::Release {
                service: S,
                target: VMS
            })
        );
        assert_eq!(e.mode(S), DeployMode::Serverless);
        assert_eq!(e.poll_deadline(S, t(1000), &mut sink), None, "steady");
        let spans = sink.into_trace().switch_spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].completed());
    }

    #[test]
    fn deadline_never_fires_for_prompt_acks() {
        // The default policy is far beyond real ack latencies; polling
        // is a no-op for a healthy switch at every plausible tick time.
        let mut sink = NoopSink;
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.begin_switch(S, DeployMode::Serverless, 2, 1.0, t(100), &mut sink);
        for dt in [1, 5, 15, 29] {
            assert_eq!(e.poll_deadline(S, t(100 + dt), &mut sink), None);
        }
        e.on_ready(S, DeployMode::Serverless, 1.0, t(105), &mut sink);
        assert_eq!(e.mode(S), DeployMode::Serverless);
    }

    #[test]
    fn prewarm_ack_ordering_is_visible_in_span() {
        // Requested strictly precedes ack/flip; prewarm count recorded.
        let mut sink = MemorySink::new();
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.begin_switch(S, DeployMode::Serverless, 7, 12.0, t(10), &mut sink);
        e.on_ready(S, DeployMode::Serverless, 12.0, t(13), &mut sink);
        let spans = sink.into_trace().switch_spans();
        let s = &spans[0];
        assert_eq!(s.prewarm_count, 7);
        assert_eq!(s.from, DeployMode::Iaas);
        assert_eq!(s.to, DeployMode::Serverless);
        assert!(s.requested < s.ack.unwrap());
        assert_eq!(s.ack, s.flip, "router flips on the ack");
        assert_eq!(s.prewarm_duration().unwrap(), t(13) - t(10));
    }

    #[test]
    fn iaas_release_arms_the_drain_watchdog_and_iaas_prepare_disarms_it() {
        let mut sink = NoopSink;
        let drain = SimDuration::from_secs_f64(DRAIN_TIMEOUT_S);
        // Fires once, at `released + DRAIN_TIMEOUT_S` and not before.
        let armed_at = |e: &mut HybridEngine, released: SimTime| {
            let just_before = released + drain - SimDuration::from_micros(1);
            !e.take_overdue_drain(S, just_before) && e.take_overdue_drain(S, released + drain)
        };
        // A prewarm does not touch the VM group; the flip that follows
        // its ack releases the group and arms the watchdog.
        let flipped_at = |released: SimTime| {
            let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
            e.set_ack_policy(SimDuration::from_secs(10), 1);
            e.begin_switch(S, DeployMode::Serverless, 3, 1.0, t(0), &mut NoopSink);
            assert!(!e.take_overdue_drain(S, t(1000)));
            e.on_ready(S, DeployMode::Serverless, 1.0, released, &mut NoopSink);
            e
        };
        let mut e = flipped_at(t(5));
        assert!(armed_at(&mut e, t(5)));
        assert!(!e.take_overdue_drain(S, t(1000)), "taking disarms");
        // Switching back to IaaS re-activates the group: a stale
        // deadline must not force-drain it, nor may a stale ack re-arm.
        let mut e = flipped_at(t(5));
        e.begin_switch(S, DeployMode::Iaas, 0, 50.0, t(10), &mut sink);
        e.on_ready(S, DeployMode::Serverless, 1.0, t(11), &mut sink);
        assert!(!e.take_overdue_drain(S, t(1000)));
        // A retried IaaS prepare keeps it disarmed; the abort that
        // releases the prepared group arms it.
        let retried = e.poll_deadline(S, t(20), &mut sink);
        assert!(matches!(retried, Some(DeadlineAction::Retried { .. })));
        assert!(!e.take_overdue_drain(S, t(39)));
        let aborted = e.poll_deadline(S, t(40), &mut sink);
        assert!(matches!(aborted, Some(DeadlineAction::Aborted { .. })));
        assert!(armed_at(&mut e, t(40)));
        // The NoP flip releases the group at once; its drained ack
        // disarms the watchdog.
        let mut nop = HybridEngine::new(1, DeployMode::Iaas, false);
        nop.begin_switch(S, DeployMode::Serverless, 0, 1.0, t(0), &mut sink);
        nop.on_drained(S, t(3), || unreachable!("no sink records"), &mut sink);
        assert!(!nop.take_overdue_drain(S, t(1000)));
        nop.begin_switch(S, DeployMode::Iaas, 0, 50.0, t(100), &mut sink);
        nop.on_ready(S, DeployMode::Iaas, 50.0, t(110), &mut sink);
        assert!(
            !nop.take_overdue_drain(S, t(1000)),
            "a pool release arms nothing"
        );
        nop.begin_switch(S, DeployMode::Serverless, 0, 1.0, t(200), &mut sink);
        assert!(armed_at(&mut nop, t(200)));
    }

    #[test]
    fn history_records_both_directions() {
        let mut sink = NoopSink;
        let mut e = HybridEngine::new(1, DeployMode::Iaas, true);
        e.begin_switch(S, DeployMode::Serverless, 2, 4.0, t(10), &mut sink);
        e.on_ready(S, DeployMode::Serverless, 4.0, t(12), &mut sink);
        e.begin_switch(S, DeployMode::Iaas, 0, 90.0, t(50), &mut sink);
        e.on_ready(S, DeployMode::Iaas, 90.0, t(61), &mut sink);
        let h = e.history(S);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1, DeployMode::Serverless);
        assert_eq!(h[1].1, DeployMode::Iaas);
        // The loads at which the two switches happened are not equal —
        // the Fig. 12 observation.
        assert_ne!(h[0].2, h[1].2);
    }
}
