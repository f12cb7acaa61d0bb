//! The closed vocabularies of the telemetry schema: small enums that
//! name modes, decisions, causes and kinds. Each is declared once in
//! `vocabulary!` below, with the stable string tag it travels as; the
//! macro derives the parser and the JSON field codec.
//!
//! Everything here is re-exported from `event`, so paths are unchanged.

use std::fmt;

use amoeba_json::Value;

use crate::codec::{DecodeError, JsonField};

/// Declare closed enums with one JSON string tag per variant.
macro_rules! vocabulary {
    ($(
        $(#[$meta:meta])*
        pub enum $Name:ident ($what:literal) {
            $( $(#[$vmeta:meta])* $Variant:ident = $tag:literal, )*
        }
    )*) => { $(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Name {
            $( $(#[$vmeta])* $Variant, )*
        }

        impl $Name {
            /// Parse the variant's stable string tag.
            pub(crate) fn from_tag(s: &str) -> Result<Self, DecodeError> {
                match s {
                    $( $tag => Ok($Name::$Variant), )*
                    _ => Err(DecodeError::new(format!(concat!("unknown ", $what, " '{}'"), s))),
                }
            }
        }

        impl JsonField for $Name {
            #[inline]
            fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
                out.write_str(match self {
                    $( $Name::$Variant => concat!("\"", $tag, "\""), )*
                })
            }

            fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
                $Name::from_tag(v.as_str().ok_or_else(|| DecodeError::missing("string", key))?)
            }
        }

        #[cfg(test)]
        impl crate::schema_tests::Arbitrary for $Name {
            fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> Self {
                const ALL: &[$Name] = &[$($Name::$Variant),*];
                ALL[rng.below(ALL.len() as u64) as usize]
            }
        }
    )* };
}

vocabulary! {
    /// Deployment mode: where a service's queries are routed, which
    /// platform a placement target addresses, and which platform ran a
    /// query. The platforms, the engine, the controller and the trace
    /// all use this one declaration; it lives here so the trace layer
    /// does not depend on the runtime it instruments.
    pub enum DeployMode ("mode") {
        /// Dedicated VM group.
        Iaas = "iaas",
        /// Shared serverless pool.
        Serverless = "serverless",
    }

    /// The controller's verdict for one service at one control tick.
    pub enum Decision ("decision") {
        /// Keep the current mode.
        Stay = "stay",
        /// Begin the switch to serverless (low load, contention acceptable).
        SwitchToServerless = "switch_to_serverless",
        /// Begin the switch to IaaS (load too high for the shared pool).
        SwitchToIaas = "switch_to_iaas",
    }

    /// Why the controller decided what it decided at one tick.
    pub enum TickReason ("reason") {
        /// A switch is already in flight; the controller was not consulted.
        InTransition = "in_transition",
        /// The controller's `MIN_DWELL` since the last switch has not
        /// elapsed.
        DwellPending = "dwell_pending",
        /// IaaS-resident, `V_u < 0.65 · λ(μ)` (the controller's
        /// `DOWN_MARGIN`) and the impact check passed: switch down.
        LoadBelowDownMargin = "load_below_down_margin",
        /// IaaS-resident, load too high for the pool: stay.
        LoadAboveDownMargin = "load_above_down_margin",
        /// IaaS-resident, load admissible but the §III impact check vetoed
        /// the move.
        ImpactVetoed = "impact_vetoed",
        /// Serverless-resident, `V_u > 0.85 · λ(μ)` (the controller's
        /// `UP_MARGIN`): switch up.
        LoadAboveUpMargin = "load_above_up_margin",
        /// Serverless-resident, load admissible: stay.
        LoadBelowUpMargin = "load_below_up_margin",
    }

    /// One step of the §V switch protocol.
    pub enum SwitchPhase ("phase") {
        /// The controller committed to a switch; the prepare signal `S_pw`
        /// (prewarm containers / boot VMs) was issued.
        Requested = "requested",
        /// The target side acknowledged readiness.
        Ack = "ack",
        /// The router flipped: new queries go to the target side.
        Flip = "flip",
        /// The shutdown signal `S_sd` was sent to the old side.
        ReleaseIssued = "release_issued",
        /// The old side's VM group finished draining in-flight queries.
        Drained = "drained",
        /// The transition was aborted before the ack.
        Aborted = "aborted",
    }

    /// What pushed a query over its QoS target.
    pub enum ViolationCause ("cause") {
        /// The query paid a container cold start.
        ColdStart = "cold_start",
        /// The query waited in the platform queue.
        Queueing = "queueing",
        /// Neither: the execution itself was slowed by co-tenant contention.
        Contention = "contention",
    }

    /// The class of an injected (or injector-induced) fault.
    pub enum FaultKind ("fault kind") {
        /// A serverless container died; in-flight work was displaced.
        ContainerCrash = "container_crash",
        /// A VM boot failed and the group re-booted from scratch.
        VmBootFailure = "vm_boot_failure",
        /// A VM boot straggled past its nominal boot time.
        VmSlowBoot = "vm_slow_boot",
        /// A prewarm ack was lost between platform and engine.
        AckDropped = "ack_dropped",
        /// The engine's ack deadline expired for an in-flight switch.
        AckTimeout = "ack_timeout",
        /// An IaaS drain overran its deadline and was forced.
        DrainTimeout = "drain_timeout",
        /// A meter blackout window began: observations discarded.
        MeterOutage = "meter_outage",
        /// One meter latency sample was corrupted by a large factor.
        MeterOutlier = "meter_outlier",
        /// A transient co-tenant pressure spike hit the shared pool.
        PressureSpike = "pressure_spike",
    }

    /// How the system got back on its feet after a fault.
    pub enum RecoveryKind ("recovery kind") {
        /// A crash-displaced query was re-queued and completed.
        RequeuedQueryCompleted = "requeued_query_completed",
        /// A VM group finished booting after at least one failed attempt.
        VmBootSucceeded = "vm_boot_succeeded",
        /// A prewarm ack landed after at least one deadline retry.
        AckReceived = "ack_received",
        /// An un-ackable switch was rolled back; the old platform kept
        /// serving throughout.
        SwitchRolledBack = "switch_rolled_back",
        /// An overdue IaaS drain was forced; stragglers were re-queued on
        /// the serverless side.
        DrainForced = "drain_forced",
    }
}

impl ViolationCause {
    /// Attribution rule: cold start present → [`ViolationCause::ColdStart`];
    /// else queueing present → [`ViolationCause::Queueing`]; else the
    /// slowdown happened inside the execution → [`ViolationCause::Contention`].
    pub fn attribute(cold_start_s: f64, queue_wait_s: f64) -> Self {
        if cold_start_s > 0.0 {
            ViolationCause::ColdStart
        } else if queue_wait_s > 0.0 {
            ViolationCause::Queueing
        } else {
            ViolationCause::Contention
        }
    }
}
