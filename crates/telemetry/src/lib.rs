#![warn(missing_docs)]
//! Structured telemetry for the Amoeba control loop.
//!
//! The simulation's control plane makes one QoS-critical decision per
//! service per control tick, and executes a multi-stage protocol every
//! time it switches a service between IaaS and serverless deployment.
//! This crate records that activity as an append-only stream of typed
//! [`TelemetryEvent`]s:
//!
//! - [`TickRecord`] — one per controller tick per managed service: the
//!   estimated load λ, predicted latency μ, the Eq. 5 discriminant
//!   λ(μ), the pressure vector and PCA weights that produced it, and
//!   the decision with its reason.
//! - [`SwitchRecord`] — one per stage of the switch protocol
//!   (`Requested → Ack → Flip → ReleaseIssued → Drained`, or
//!   `Aborted`), reassembled into [`SwitchSpan`]s with durations.
//! - [`HeartbeatRecord`] — the contention monitor's smoothed meter
//!   latencies, inverted pressures and current weights.
//! - [`ViolationRecord`] — each QoS violation with its attributed
//!   cause (cold start / queueing / contention).
//! - [`WarmSampleRecord`] — warm serverless latency breakdowns.
//!
//! Producers write through the [`TelemetrySink`] trait. The default
//! [`NoopSink`] reports `enabled() == false`, and instrumented code
//! guards event construction behind that check, so the disabled path
//! costs one branch and never allocates. [`MemorySink`] collects into a
//! [`Trace`], which offers typed iterators, [`Trace::switch_spans`],
//! [`Trace::summary`] and a JSON-lines serialisation
//! ([`Trace::to_jsonl`] / [`Trace::from_jsonl`]). The line format is
//! documented in `DESIGN.md` ("Telemetry event schema").
//!
//! The schema is declared once, in a table in [`event`]: from each
//! record's field list a macro derives the structs, the streaming
//! encoder ([`TelemetryEvent::write_json`], which writes into any
//! `fmt::Write` without allocating), the decoder and the `Trace`
//! accessors.

mod codec;
pub mod event;
pub mod sink;
pub mod trace;
pub mod vocab;

#[cfg(test)]
mod schema_tests;

pub use event::{
    AdmissionRecord, Decision, DecodeError, DeployMode, FaultKind, FaultRecord, FleetSampleRecord,
    ForecastRecord, HeartbeatRecord, NodeUtilRecord, PlacementRecord, RecoveryKind, RecoveryRecord,
    ServiceInfo, ShardSpanRecord, StageSpanRecord, SwitchPhase, SwitchRecord, TelemetryEvent,
    TickReason, TickRecord, VendorSampleRecord, ViolationCause, ViolationRecord, WarmSampleRecord,
};
pub use sink::{MemorySink, NoopSink, TelemetrySink};
pub use trace::{ServiceSummary, SwitchSpan, Trace, TraceSummary};
