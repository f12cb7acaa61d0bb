//! The telemetry event vocabulary and its JSON-lines encoding, declared
//! once.
//!
//! `telemetry_schema!` is the single definition of the event stream:
//! every record lists each field once — doc, JSON key, type — and the
//! macro derives from that list
//!
//! - the record structs and the [`TelemetryEvent`] enum;
//! - the streaming encoder [`TelemetryEvent::write_json`], which writes
//!   a line's bytes straight into any [`fmt::Write`] (a `String`, or the
//!   fleet's FNV-1a hasher) without building a JSON tree or allocating;
//! - the decoder [`TelemetryEvent::from_json`];
//! - the per-kind [`Trace`] accessors (`Trace::ticks`, `Trace::faults`,
//!   …) and [`TelemetryEvent::time`];
//! - for tests, an arbitrary event of every kind.
//!
//! A line is one JSON object: `"type"` (the kind's tag) first, then
//! the fields in declaration order, keyed by field name — except times,
//! which travel as whole microseconds under `t_us`. See DESIGN.md
//! §"Telemetry event schema" for what each event means.

use std::fmt;

use amoeba_json::Value;
use amoeba_sim::SimTime;

pub use crate::codec::DecodeError;
use crate::codec::{read_member, JsonField};
use crate::trace::Trace;
pub use crate::vocab::{
    Decision, DeployMode, FaultKind, RecoveryKind, SwitchPhase, TickReason, ViolationCause,
};

/// A field's JSON key: its name, or the literal after `as`.
macro_rules! json_key {
    ($field:ident as $key:literal) => {
        $key
    };
    ($field:ident) => {
        stringify!($field)
    };
}

/// Declare the event stream: the run header (a struct variant), then one
/// `Variant = "tag", accessor;` line per record kind followed by the
/// record's struct. Every record carries its event time as `t`.
macro_rules! telemetry_schema {
    (
        $(#[$hmeta:meta])*
        $Header:ident = $htag:literal {
            $( $(#[$hfmeta:meta])* $hfield:ident : $hty:ty, )*
        }
        $(
            $(#[$vmeta:meta])*
            $Variant:ident = $tag:literal, $accessor:ident;
            $(#[$smeta:meta])*
            pub struct $Record:ident {
                $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $fty:ty, )*
            }
        )*
    ) => {
        $(
            $(#[$smeta])*
            pub struct $Record {
                $( $(#[$fmeta])* pub $field: $fty, )*
            }

            impl $Record {
                #[inline]
                fn write_fields<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
                    $(
                        out.write_str(concat!(",\"", json_key!($field $(as $key)?), "\":"))?;
                        self.$field.write_json(out)?;
                    )*
                    Ok(())
                }

                fn read_fields(v: &Value) -> Result<Self, DecodeError> {
                    Ok($Record {
                        $( $field: read_member(v, json_key!($field $(as $key)?))?, )*
                    })
                }
            }
        )*

        /// The event stream's alphabet.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(#[$hmeta])*
            $Header {
                $( $(#[$hfmeta])* $hfield: $hty, )*
            },
            $( $(#[$vmeta])* $Variant($Record), )*
        }

        impl TelemetryEvent {
            /// The event's timestamp (run headers read as t=0).
            pub fn time(&self) -> SimTime {
                match self {
                    TelemetryEvent::$Header { .. } => SimTime::ZERO,
                    $( TelemetryEvent::$Variant(r) => r.t, )*
                }
            }

            /// Write the event as one compact JSON object (a JSON-lines
            /// line without its newline), streaming into `out`.
            pub fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
                match self {
                    TelemetryEvent::$Header { $($hfield),* } => {
                        out.write_str(concat!("{\"type\":\"", $htag, "\""))?;
                        $(
                            out.write_str(concat!(",\"", stringify!($hfield), "\":"))?;
                            $hfield.write_json(out)?;
                        )*
                    }
                    $(
                        TelemetryEvent::$Variant(r) => {
                            out.write_str(concat!("{\"type\":\"", $tag, "\""))?;
                            r.write_fields(out)?;
                        }
                    )*
                }
                out.write_str("}")
            }

            /// Decode one parsed JSON-lines object. Members are looked
            /// up by key, so their order does not matter.
            pub fn from_json(v: &Value) -> Result<Self, DecodeError> {
                match v["type"].as_str() {
                    Some($htag) => Ok(TelemetryEvent::$Header {
                        $( $hfield: read_member(v, stringify!($hfield))?, )*
                    }),
                    $( Some($tag) => Ok(TelemetryEvent::$Variant($Record::read_fields(v)?)), )*
                    Some(other) => Err(DecodeError::new(format!("unknown event type '{other}'"))),
                    None => Err(DecodeError::missing("string", "type")),
                }
            }
        }

        #[cfg(test)]
        impl TelemetryEvent {
            /// Every kind's `"type"` tag, in declaration order.
            pub(crate) const KINDS: &'static [&'static str] = &[$htag, $($tag),*];

            /// This event's `"type"` tag.
            pub(crate) fn kind(&self) -> &'static str {
                match self {
                    TelemetryEvent::$Header { .. } => $htag,
                    $( TelemetryEvent::$Variant(_) => $tag, )*
                }
            }

            /// An event of kind `KINDS[kind]` with arbitrary field values.
            pub(crate) fn arbitrary(kind: usize, rng: &mut proptest::test_runner::TestRng) -> Self {
                use crate::schema_tests::Arbitrary;
                match Self::KINDS[kind] {
                    $htag => TelemetryEvent::$Header {
                        $( $hfield: Arbitrary::arbitrary(rng), )*
                    },
                    $(
                        $tag => TelemetryEvent::$Variant($Record {
                            $( $field: Arbitrary::arbitrary(rng), )*
                        }),
                    )*
                    other => unreachable!("no event kind {other}"),
                }
            }
        }

        impl Trace {
            $(
                #[doc = concat!("Every [`", stringify!($Record), "`] in the stream, in order.")]
                #[doc = ""]
                $(#[$vmeta])*
                pub fn $accessor(&self) -> impl Iterator<Item = &$Record> {
                    self.events().iter().filter_map(|e| match e {
                        TelemetryEvent::$Variant(r) => Some(r),
                        _ => None,
                    })
                }
            )*
        }
    };
}

/// One service's identity in the run header.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceInfo {
    /// The service's name.
    pub name: String,
    /// Background (contention-generating, pinned serverless) service?
    pub background: bool,
    /// Where it starts.
    pub initial_mode: DeployMode,
}

/// The header's per-service entries are the schema's only nested
/// objects.
impl JsonField for ServiceInfo {
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"name\":")?;
        self.name.write_json(out)?;
        out.write_str(",\"background\":")?;
        self.background.write_json(out)?;
        out.write_str(",\"initial_mode\":")?;
        self.initial_mode.write_json(out)?;
        out.write_str("}")
    }

    fn read_json(v: &Value, _key: &str) -> Result<Self, DecodeError> {
        Ok(ServiceInfo {
            name: read_member(v, "name")?,
            background: read_member(v, "background")?,
            initial_mode: read_member(v, "initial_mode")?,
        })
    }
}

telemetry_schema! {
    /// Run header: identifies the scenario the rest of the stream
    /// belongs to.
    RunStarted = "run_started" {
        /// System variant label (e.g. "Amoeba").
        variant: String,
        /// RNG seed.
        seed: u64,
        /// Simulated duration, seconds.
        horizon_s: f64,
        /// The services, in index order.
        services: Vec<ServiceInfo>,
    }

    /// Per-tick controller record.
    Tick = "tick", ticks;
    /// Per-tick controller record: everything Eq. 5/Eq. 6 saw and produced.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TickRecord {
        /// Tick time.
        t as "t_us": SimTime,
        /// Service index (registration order).
        service: usize,
        /// Current deployment mode.
        mode: DeployMode,
        /// Estimated load `V_u` (λ), queries/second.
        load_qps: f64,
        /// Eq. 6 predicted per-container capacity `μ`, queries/second.
        mu: f64,
        /// Eq. 5 discriminant `λ(μ)`: the maximum admissible load.
        lambda_max: f64,
        /// Pressure vector the discriminant was evaluated at.
        pressures: [f64; 3],
        /// Eq. 6 weights `w`.
        weights: [f64; 3],
        /// The verdict.
        decision: Decision,
        /// Why.
        reason: TickReason,
    }

    /// Switch-protocol step.
    Switch = "switch", switch_events;
    /// One step of one switch's protocol execution.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SwitchRecord {
        /// When the step happened.
        t as "t_us": SimTime,
        /// Service index.
        service: usize,
        /// Mode being left.
        from: DeployMode,
        /// Mode being entered.
        to: DeployMode,
        /// Which protocol step.
        phase: SwitchPhase,
        /// Eq. 7 prewarm count (`Requested` toward serverless; else 0).
        prewarm_count: u32,
        /// Estimated load at this step, queries/second.
        load_qps: f64,
    }

    /// Monitor heartbeat.
    Heartbeat = "heartbeat", heartbeats;
    /// Monitor heartbeat: the sample-period summary the PCA consumes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HeartbeatRecord {
        /// Heartbeat time.
        t as "t_us": SimTime,
        /// Smoothed meter latencies [cpu, io, net], seconds (None = no
        /// observation yet).
        meter_latency_s: [Option<f64>; 3],
        /// Inverted pressures `P`.
        pressures: [f64; 3],
        /// Eq. 6 weights after this heartbeat's refresh.
        weights: [f64; 3],
    }

    /// QoS violation with attribution.
    Violation = "violation", violations;
    /// One query finishing over its QoS target.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ViolationRecord {
        /// Completion time.
        t as "t_us": SimTime,
        /// Service index.
        service: usize,
        /// Where the query executed.
        platform: DeployMode,
        /// End-to-end latency, seconds.
        latency_s: f64,
        /// The QoS target it missed, seconds.
        target_s: f64,
        /// Cold-start share of the latency, seconds.
        cold_start_s: f64,
        /// Queueing share, seconds.
        queue_wait_s: f64,
        /// Attributed cause.
        cause: ViolationCause,
    }

    /// Warm serverless breakdown sample.
    WarmSample = "warm_sample", warm_samples;
    /// A warm serverless execution's latency breakdown (Fig. 4 input).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WarmSampleRecord {
        /// Completion time.
        t as "t_us": SimTime,
        /// Service index.
        service: usize,
        /// Auth/processing overhead, seconds.
        auth_s: f64,
        /// Code-loading overhead, seconds.
        code_load_s: f64,
        /// Result-posting overhead, seconds.
        result_post_s: f64,
        /// Execution time, seconds.
        exec_s: f64,
    }

    /// Proactive-controller forecast (Amoeba-Pro runs only).
    Forecast = "forecast", forecasts;
    /// One proactive-controller forecast: what the [`TickRecord`]'s
    /// decision evaluated Eq. 5 against when the run is an Amoeba-Pro
    /// variant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ForecastRecord {
        /// Tick time the forecast was issued at.
        t as "t_us": SimTime,
        /// Service index.
        service: usize,
        /// Horizon the forecast targets (the switch latency), seconds.
        horizon_s: f64,
        /// Point forecast of λ at `t + horizon`, queries/second.
        mean_qps: f64,
        /// Lower bound of the forecast band.
        lo_qps: f64,
        /// Upper bound of the band — what the controller fed into Eq. 5.
        hi_qps: f64,
        /// λ actually realized at `t + horizon`, filled in by the report
        /// layer after the run (None while the stream is being produced).
        realized_qps: Option<f64>,
    }

    /// An injected fault landed (chaos runs only).
    Fault = "fault", faults;
    /// One injected fault landing (or an induced failure being detected).
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultRecord {
        /// When the fault fired / was detected.
        t as "t_us": SimTime,
        /// What kind of fault.
        kind: FaultKind,
        /// Affected service index, when the fault is attributable to one
        /// (e.g. boot failures, ack losses); `None` for pool-wide faults.
        service: Option<usize>,
        /// In-flight queries displaced by the fault (crashes, forced
        /// drains).
        queries_displaced: u64,
        /// Of those, queries lost outright instead of re-queued.
        queries_dropped: u64,
    }

    /// The system recovered from an earlier fault (chaos runs only).
    Recovery = "recovery", recoveries;
    /// The system recovering from an earlier fault.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RecoveryRecord {
        /// When the recovery completed.
        t as "t_us": SimTime,
        /// What kind of recovery.
        kind: RecoveryKind,
        /// Affected service index, when attributable to one.
        service: Option<usize>,
        /// Seconds from the triggering fault to this recovery.
        after_s: f64,
    }

    /// A completed workflow stage span (workflow runs only).
    StageSpan = "stage_span", stage_spans;
    /// One completed workflow stage of one query instance. The
    /// `instance` is shared by every stage span of one DAG traversal, so
    /// joining on it reconstructs the whole critical path;
    /// `latency_s > budget_s` attributes an end-to-end violation to this
    /// stage.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct StageSpanRecord {
        /// Stage completion time.
        t as "t_us": SimTime,
        /// Workflow index (order of attachment to the experiment).
        workflow: usize,
        /// The instance (root sequence number) this span belongs to.
        instance: u64,
        /// Stage index within the DAG.
        stage: usize,
        /// Runtime service index the stage executed as.
        service: usize,
        /// Platform the stage executed on.
        platform: DeployMode,
        /// Stage latency (submit → complete), seconds.
        latency_s: f64,
        /// This stage's slice of the end-to-end budget, seconds.
        budget_s: f64,
    }

    /// A query's node placement (multi-node runs only).
    Placement = "placement", placements;
    /// One user query's node placement.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PlacementRecord {
        /// Arrival time.
        t as "t_us": SimTime,
        /// Service index.
        service: usize,
        /// Executing node's index (0 = the home/control node).
        node: usize,
        /// Did the scheduler spill the query off its home node?
        spill: bool,
    }

    /// Fleet utilization snapshot (multi-node runs only).
    NodeUtil = "node_util", node_utils;
    /// Fleet-wide utilization snapshot, once per control tick.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NodeUtilRecord {
        /// Tick time.
        t as "t_us": SimTime,
        /// Mean serverless-pool utilization across nodes [cpu, io, net].
        mean_util: [f64; 3],
        /// The hottest node's peak resource utilization.
        max_node_util: f64,
    }

    /// A tenant admission decision (multi-tenant runs only).
    Admission = "admission", admissions;
    /// One tenant's admission decision. Emitted at setup, one per
    /// submitted tenant, before any queries flow.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AdmissionRecord {
        /// Decision time (setup, so effectively t=0).
        t as "t_us": SimTime,
        /// Tenant service name.
        tenant: String,
        /// Whether the vendor admitted the tenant.
        admitted: bool,
        /// The pool share the tenant's provisioned peak reserves.
        reserved_share: f64,
        /// Overbooking ratio in force at the decision.
        ratio: f64,
    }

    /// Vendor reclamation-loop sample (multi-tenant runs only).
    VendorSample = "vendor_sample", vendor_samples;
    /// Vendor control-tick sample: what the vendor's reclamation loop saw
    /// and did.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct VendorSampleRecord {
        /// Tick time.
        t as "t_us": SimTime,
        /// Serverless pool utilization [cpu, io, net].
        pool_util: [f64; 3],
        /// Containers alive in the pool.
        containers: u64,
        /// Whether tenant caps are throttled by reclamation after this tick.
        throttled: bool,
    }

    /// One shard's per-epoch accounting (fleet executor only).
    ShardSpan = "shard_span", shard_spans;
    /// One worker shard's accounting for one epoch of a fleet run. Spans
    /// are emitted per epoch in shard-index order — a deterministic order
    /// for a given shard count, but the shard → cell assignment varies
    /// with the worker-thread count, which is why the fleet digest covers
    /// per-cell traces and not these spans.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ShardSpanRecord {
        /// The epoch boundary the span ends at.
        t as "t_us": SimTime,
        /// Epoch index.
        epoch: u64,
        /// Shard (worker slot) index.
        shard: usize,
        /// Cells the shard advanced this epoch.
        cells: u64,
        /// Simulation events the shard dispatched this epoch.
        events: u64,
    }

    /// Fleet-wide epoch-boundary sample (fleet executor only).
    FleetSample = "fleet_sample", fleet_samples;
    /// Fleet-wide sample at one epoch boundary: the cross-cell state the
    /// epoch exchange computed and fed back.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FleetSampleRecord {
        /// The epoch boundary.
        t as "t_us": SimTime,
        /// Epoch index.
        epoch: u64,
        /// Mean serverless-pool utilization across cells [cpu, io, net].
        mean_util: [f64; 3],
        /// External pressure injected into every cell for the next epoch.
        external_pressure: [f64; 3],
        /// Whether fleet-level reclamation throttled service caps.
        throttled: bool,
    }
}
