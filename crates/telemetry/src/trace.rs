//! A recorded run: typed views, switch-span assembly, the summary, and
//! the JSON-lines (one event per line) serialisation.

use std::collections::BTreeMap;
use std::fmt;

use amoeba_sim::{SimDuration, SimTime};

use crate::event::{DecodeError, DeployMode, SwitchPhase, TelemetryEvent, ViolationCause};

/// An ordered, append-only stream of [`TelemetryEvent`]s for one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TelemetryEvent>,
}

/// One reconstructed deployment-switch protocol instance for a service:
/// `Requested → Ack → Flip → ReleaseIssued → Drained` (or `Aborted`).
///
/// Missing stages stay `None` — a switch whose drain outlives the horizon
/// has `drained: None`, and an impact-vetoed reversal recorded as
/// `Aborted` keeps whatever stages it reached.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSpan {
    /// The switching service's index (registration order).
    pub service: usize,
    /// Mode being left.
    pub from: DeployMode,
    /// Mode being entered.
    pub to: DeployMode,
    /// Containers asked for ahead of the flip (Eq. 7).
    pub prewarm_count: u32,
    /// When the controller requested the switch (prewarm issued).
    pub requested: SimTime,
    /// When the destination side acknowledged readiness.
    pub ack: Option<SimTime>,
    /// When the router flipped new arrivals to the destination.
    pub flip: Option<SimTime>,
    /// When the old side's release / drain was issued.
    pub release_issued: Option<SimTime>,
    /// When the old side finished draining (IaaS→serverless only).
    pub drained: Option<SimTime>,
    /// When the transition was aborted, if it was.
    pub aborted: Option<SimTime>,
}

impl SwitchSpan {
    /// Prewarm-issued → destination-ready duration (the paper's `S_pw`).
    pub fn prewarm_duration(&self) -> Option<SimDuration> {
        self.ack.map(|t| t - self.requested)
    }

    /// Router-flip → old-side-drained duration (the paper's `S_sd`).
    pub fn drain_duration(&self) -> Option<SimDuration> {
        match (self.flip, self.drained) {
            (Some(f), Some(d)) => Some(d - f),
            _ => None,
        }
    }

    /// Did this span complete (router flipped, not aborted)?
    pub fn completed(&self) -> bool {
        self.flip.is_some() && self.aborted.is_none()
    }
}

/// Per-service aggregates for [`TraceSummary`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSummary {
    /// Completed switches (router flips) this service made.
    pub switches: u64,
    /// Aborted transitions.
    pub aborted: u64,
    /// Wall-clock spent with the router pointing at IaaS.
    pub time_in_iaas: SimDuration,
    /// Wall-clock spent with the router pointing at serverless.
    pub time_in_serverless: SimDuration,
    /// QoS violations attributed to cold starts.
    pub violations_cold_start: u64,
    /// QoS violations attributed to queueing delay.
    pub violations_queueing: u64,
    /// QoS violations attributed to co-tenant contention.
    pub violations_contention: u64,
}

impl ServiceSummary {
    /// All violations, regardless of cause.
    pub fn violations(&self) -> u64 {
        self.violations_cold_start + self.violations_queueing + self.violations_contention
    }
}

/// Whole-run rollup of a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Controller ticks recorded.
    pub ticks: u64,
    /// Monitor heartbeats recorded.
    pub heartbeats: u64,
    /// Completed switches across all services.
    pub switches: u64,
    /// Aborted transitions across all services.
    pub aborted_switches: u64,
    /// Per-service aggregates, keyed by service name (from the run
    /// header; `svc<i>` when the header is absent).
    pub services: BTreeMap<String, ServiceSummary>,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ticks: {}  heartbeats: {}  switches: {} ({} aborted)",
            self.ticks, self.heartbeats, self.switches, self.aborted_switches
        )?;
        for (name, s) in &self.services {
            writeln!(
                f,
                "{name}: {} switch(es), iaas {:.0}s / serverless {:.0}s, \
                 violations {} (cold {}, queue {}, contention {})",
                s.switches,
                s.time_in_iaas.as_secs_f64(),
                s.time_in_serverless.as_secs_f64(),
                s.violations(),
                s.violations_cold_start,
                s.violations_queueing,
                s.violations_contention,
            )?;
        }
        Ok(())
    }
}

impl Trace {
    /// Wrap an already-ordered event list.
    pub fn from_events(events: Vec<TelemetryEvent>) -> Self {
        Trace { events }
    }

    /// All events, in arrival order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The run header, if one was recorded.
    fn run_started(&self) -> Option<&TelemetryEvent> {
        self.events
            .iter()
            .find(|e| matches!(e, TelemetryEvent::RunStarted { .. }))
    }

    /// A service's display name: from the run header, else `svc<i>`.
    pub fn service_name(&self, idx: usize) -> String {
        if let Some(TelemetryEvent::RunStarted { services, .. }) = self.run_started() {
            if let Some(info) = services.get(idx) {
                return info.name.clone();
            }
        }
        format!("svc{idx}")
    }

    /// Assemble per-service switch spans from the raw stage events.
    ///
    /// A `Requested` stage opens a span; subsequent stages for the same
    /// service attach to its most recent open span. A span stays open
    /// past `ReleaseIssued` only when leaving IaaS — the drain
    /// completion arrives later (or never, if the horizon ends first).
    pub fn switch_spans(&self) -> Vec<SwitchSpan> {
        let mut spans: Vec<SwitchSpan> = Vec::new();
        // Index into `spans` of the currently open span per service.
        let mut open: BTreeMap<usize, usize> = BTreeMap::new();
        for r in self.switch_events() {
            match r.phase {
                SwitchPhase::Requested => {
                    open.insert(r.service, spans.len());
                    spans.push(SwitchSpan {
                        service: r.service,
                        from: r.from,
                        to: r.to,
                        prewarm_count: r.prewarm_count,
                        requested: r.t,
                        ack: None,
                        flip: None,
                        release_issued: None,
                        drained: None,
                        aborted: None,
                    });
                }
                SwitchPhase::Ack => {
                    if let Some(&idx) = open.get(&r.service) {
                        spans[idx].ack = Some(r.t);
                    }
                }
                SwitchPhase::Flip => {
                    if let Some(&idx) = open.get(&r.service) {
                        spans[idx].flip = Some(r.t);
                    }
                }
                SwitchPhase::ReleaseIssued => {
                    if let Some(&idx) = open.get(&r.service) {
                        spans[idx].release_issued = Some(r.t);
                        if spans[idx].from != DeployMode::Iaas {
                            open.remove(&r.service);
                        }
                    }
                }
                SwitchPhase::Drained => {
                    let idx = open.remove(&r.service).or_else(|| {
                        spans
                            .iter()
                            .rposition(|s| s.service == r.service && s.from == DeployMode::Iaas)
                    });
                    if let Some(idx) = idx {
                        spans[idx].drained = Some(r.t);
                    }
                }
                SwitchPhase::Aborted => {
                    if let Some(idx) = open.remove(&r.service) {
                        spans[idx].aborted = Some(r.t);
                    }
                }
            }
        }
        spans
    }

    /// Roll the trace up into a [`TraceSummary`].
    ///
    /// Time-in-mode is charged per service from its initial mode (the
    /// `run_started` header) through each router flip to the run
    /// horizon (end of the last event when the header is absent).
    pub fn summary(&self) -> TraceSummary {
        let mut out = TraceSummary {
            ticks: self.ticks().count() as u64,
            heartbeats: self.heartbeats().count() as u64,
            ..TraceSummary::default()
        };

        // Initial modes + horizon from the header.
        let mut mode_at: BTreeMap<usize, (DeployMode, SimTime)> = BTreeMap::new();
        let mut horizon = self
            .events
            .last()
            .map(|e| e.time())
            .unwrap_or(SimTime::ZERO);
        if let Some(TelemetryEvent::RunStarted {
            horizon_s,
            services,
            ..
        }) = self.run_started()
        {
            horizon = SimTime::from_secs_f64(*horizon_s);
            for (i, s) in services.iter().enumerate() {
                mode_at.insert(i, (s.initial_mode, SimTime::ZERO));
                out.services
                    .insert(s.name.clone(), ServiceSummary::default());
            }
        }

        fn charge(s: &mut ServiceSummary, mode: DeployMode, dur: SimDuration) {
            match mode {
                DeployMode::Iaas => s.time_in_iaas += dur,
                DeployMode::Serverless => s.time_in_serverless += dur,
            }
        }

        for span in self.switch_spans() {
            let name = self.service_name(span.service);
            let s = out.services.entry(name).or_default();
            if span.aborted.is_some() {
                s.aborted += 1;
                out.aborted_switches += 1;
                continue;
            }
            if let Some(flip) = span.flip {
                s.switches += 1;
                out.switches += 1;
                let (mode, since) = mode_at
                    .get(&span.service)
                    .copied()
                    .unwrap_or((span.from, SimTime::ZERO));
                charge(s, mode, flip - since);
                mode_at.insert(span.service, (span.to, flip));
            }
        }
        for (idx, (mode, since)) in &mode_at {
            if *since <= horizon {
                let name = self.service_name(*idx);
                let s = out.services.entry(name).or_default();
                charge(s, *mode, horizon - *since);
            }
        }

        for v in self.violations() {
            let name = self.service_name(v.service);
            let s = out.services.entry(name).or_default();
            match v.cause {
                ViolationCause::ColdStart => s.violations_cold_start += 1,
                ViolationCause::Queueing => s.violations_queueing += 1,
                ViolationCause::Contention => s.violations_contention += 1,
            }
        }
        out
    }

    /// Serialise as JSON lines: one compact event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Stream the JSON-lines form into `out`, one event at a time.
    pub fn write_jsonl<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        for e in &self.events {
            e.write_json(out)?;
            out.write_str("\n")?;
        }
        Ok(())
    }

    /// Parse a JSON-lines dump produced by [`Trace::to_jsonl`]. Blank
    /// lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Trace, DecodeError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = amoeba_json::parse(line)
                .map_err(|e| DecodeError::new(format!("line {}: {e}", i + 1)))?;
            events.push(
                TelemetryEvent::from_json(&v)
                    .map_err(|e| DecodeError::new(format!("line {}: {e}", i + 1)))?,
            );
        }
        Ok(Trace::from_events(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        ServiceInfo, StageSpanRecord, SwitchRecord, TelemetryEvent, ViolationRecord,
    };

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn switch(
        secs: f64,
        service: usize,
        from: DeployMode,
        to: DeployMode,
        phase: SwitchPhase,
    ) -> TelemetryEvent {
        TelemetryEvent::Switch(SwitchRecord {
            t: t(secs),
            service,
            from,
            to,
            phase,
            prewarm_count: 4,
            load_qps: 10.0,
        })
    }

    fn header(horizon_s: f64, services: Vec<ServiceInfo>) -> TelemetryEvent {
        TelemetryEvent::RunStarted {
            variant: "amoeba".to_string(),
            seed: 7,
            horizon_s,
            services,
        }
    }

    fn dd_header(horizon_s: f64) -> TelemetryEvent {
        header(
            horizon_s,
            vec![ServiceInfo {
                name: "dd".to_string(),
                background: false,
                initial_mode: DeployMode::Iaas,
            }],
        )
    }

    #[test]
    fn spans_assemble_in_protocol_order() {
        let trace = Trace::from_events(vec![
            switch(
                10.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Requested,
            ),
            switch(
                12.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Ack,
            ),
            switch(
                12.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Flip,
            ),
            switch(
                12.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::ReleaseIssued,
            ),
            switch(
                19.5,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Drained,
            ),
        ]);
        let spans = trace.switch_spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.completed());
        assert_eq!(s.prewarm_duration().unwrap().as_secs_f64(), 2.0);
        assert!((s.drain_duration().unwrap().as_secs_f64() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn unfinished_drain_leaves_span_open_ended() {
        let trace = Trace::from_events(vec![
            switch(
                10.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Requested,
            ),
            switch(
                11.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Ack,
            ),
            switch(
                11.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Flip,
            ),
            switch(
                11.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::ReleaseIssued,
            ),
        ]);
        let spans = trace.switch_spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].completed());
        assert!(spans[0].drained.is_none());
        assert!(spans[0].drain_duration().is_none());
    }

    #[test]
    fn aborted_span_is_not_counted_as_switch() {
        let trace = Trace::from_events(vec![
            dd_header(100.0),
            switch(
                10.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Requested,
            ),
            switch(
                11.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Aborted,
            ),
        ]);
        let s = trace.summary();
        assert_eq!(s.switches, 0);
        assert_eq!(s.aborted_switches, 1);
        let svc = &s.services["dd"];
        // The whole horizon charged to the initial mode.
        assert!((svc.time_in_iaas.as_secs_f64() - 100.0).abs() < 1e-9);
        assert_eq!(svc.time_in_serverless, SimDuration::ZERO);
    }

    #[test]
    fn time_in_mode_splits_at_flips() {
        let trace = Trace::from_events(vec![
            dd_header(100.0),
            switch(
                30.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Requested,
            ),
            switch(
                32.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Ack,
            ),
            switch(
                32.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::Flip,
            ),
            switch(
                32.0,
                0,
                DeployMode::Iaas,
                DeployMode::Serverless,
                SwitchPhase::ReleaseIssued,
            ),
            switch(
                70.0,
                0,
                DeployMode::Serverless,
                DeployMode::Iaas,
                SwitchPhase::Requested,
            ),
            switch(
                74.0,
                0,
                DeployMode::Serverless,
                DeployMode::Iaas,
                SwitchPhase::Ack,
            ),
            switch(
                74.0,
                0,
                DeployMode::Serverless,
                DeployMode::Iaas,
                SwitchPhase::Flip,
            ),
            switch(
                74.0,
                0,
                DeployMode::Serverless,
                DeployMode::Iaas,
                SwitchPhase::ReleaseIssued,
            ),
        ]);
        let s = trace.summary();
        assert_eq!(s.switches, 2);
        let svc = &s.services["dd"];
        // Iaas: [0, 32) and [74, 100) = 58 s; serverless: [32, 74) = 42 s.
        assert!((svc.time_in_iaas.as_secs_f64() - 58.0).abs() < 1e-9);
        assert!((svc.time_in_serverless.as_secs_f64() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn fault_and_recovery_events_round_trip() {
        use crate::event::{FaultKind, FaultRecord, RecoveryKind, RecoveryRecord};
        let kinds = [
            (FaultKind::ContainerCrash, Some(1)),
            (FaultKind::VmBootFailure, Some(0)),
            (FaultKind::VmSlowBoot, Some(0)),
            (FaultKind::AckDropped, Some(2)),
            (FaultKind::AckTimeout, Some(2)),
            (FaultKind::DrainTimeout, Some(0)),
            (FaultKind::MeterOutage, None),
            (FaultKind::MeterOutlier, None),
            (FaultKind::PressureSpike, None),
        ];
        let mut events: Vec<TelemetryEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(kind, service))| {
                TelemetryEvent::Fault(FaultRecord {
                    t: t(i as f64),
                    kind,
                    service,
                    queries_displaced: i as u64,
                    queries_dropped: (i / 2) as u64,
                })
            })
            .collect();
        for (i, (kind, service)) in [
            (RecoveryKind::RequeuedQueryCompleted, Some(1)),
            (RecoveryKind::VmBootSucceeded, Some(0)),
            (RecoveryKind::AckReceived, Some(2)),
            (RecoveryKind::SwitchRolledBack, Some(2)),
            (RecoveryKind::DrainForced, None),
        ]
        .into_iter()
        .enumerate()
        {
            events.push(TelemetryEvent::Recovery(RecoveryRecord {
                t: t(20.0 + i as f64),
                kind,
                service,
                after_s: 0.5 * i as f64,
            }));
        }
        let trace = Trace::from_events(events);
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.to_jsonl(), text);
        assert_eq!(back.faults().count(), 9);
        assert_eq!(back.recoveries().count(), 5);
        assert_eq!(back.faults().next().unwrap().service, Some(1));
        assert!(back.recoveries().last().unwrap().service.is_none());
    }

    #[test]
    fn stage_span_events_round_trip() {
        let events: Vec<TelemetryEvent> = (0..4)
            .map(|i| {
                TelemetryEvent::StageSpan(StageSpanRecord {
                    t: t(1.0 + i as f64),
                    workflow: 0,
                    instance: 100 + i as u64,
                    stage: i,
                    service: 3 + i,
                    platform: if i % 2 == 0 {
                        DeployMode::Iaas
                    } else {
                        DeployMode::Serverless
                    },
                    latency_s: 0.05 * (i + 1) as f64,
                    budget_s: 0.2,
                })
            })
            .collect();
        let trace = Trace::from_events(events);
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.stage_spans().count(), 4);
        let last = back.stage_spans().last().unwrap();
        assert_eq!(last.stage, 3);
        assert_eq!(last.instance, 103);
        assert_eq!(last.platform, DeployMode::Serverless);
    }

    #[test]
    fn admission_and_vendor_sample_events_round_trip() {
        use crate::event::{AdmissionRecord, VendorSampleRecord};
        let events = vec![
            TelemetryEvent::Admission(AdmissionRecord {
                t: t(0.0),
                tenant: "float-t00".to_string(),
                admitted: true,
                reserved_share: 0.21,
                ratio: 1.5,
            }),
            TelemetryEvent::Admission(AdmissionRecord {
                t: t(0.0),
                tenant: "matmul-t01".to_string(),
                admitted: false,
                reserved_share: 0.4,
                ratio: 1.5,
            }),
            TelemetryEvent::VendorSample(VendorSampleRecord {
                t: t(5.0),
                pool_util: [0.8, 0.2, 0.1],
                containers: 42,
                throttled: true,
            }),
        ];
        let trace = Trace::from_events(events);
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = Trace::from_events(vec![
            header(
                50.0,
                vec![ServiceInfo {
                    name: "float".to_string(),
                    background: true,
                    initial_mode: DeployMode::Serverless,
                }],
            ),
            switch(
                5.0,
                0,
                DeployMode::Serverless,
                DeployMode::Iaas,
                SwitchPhase::Requested,
            ),
            TelemetryEvent::Violation(ViolationRecord {
                t: t(6.0),
                service: 0,
                platform: DeployMode::Serverless,
                latency_s: 0.9,
                target_s: 0.5,
                cold_start_s: 0.4,
                queue_wait_s: 0.0,
                cause: ViolationCause::ColdStart,
            }),
        ]);
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.to_jsonl(), text);
        assert_eq!(back.violations().count(), 1);
    }
}
