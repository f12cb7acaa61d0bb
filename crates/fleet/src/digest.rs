//! Order-sensitive trace digests.
//!
//! A fleet run at full scale dispatches tens of millions of events;
//! keeping the traces in memory just to compare them across thread
//! counts would dwarf the simulation itself. The [`DigestSink`] instead
//! streams each event's canonical JSON-line bytes — exactly the bytes
//! `Trace::to_jsonl` would emit — from the telemetry encoder straight
//! into an FNV-1a-64 running hash, so "byte-identical telemetry"
//! collapses to one `u64` comparison while remaining sensitive to any
//! reordering, insertion or field change.

use std::fmt;

use amoeba_telemetry::{TelemetryEvent, TelemetrySink, Trace};

/// FNV-1a 64-bit offset basis: the empty-input digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a-64 state.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// A running FNV-1a-64 state that text is written into: the encoder's
/// bytes are folded as they arrive, never buffered.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl fmt::Write for Fnv {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// A [`TelemetrySink`] that hashes instead of storing.
///
/// Each event contributes its JSON line plus a trailing newline — the
/// exact bytes `Trace::to_jsonl` writes — encoded straight into the hash
/// without allocating, so a `DigestSink` digest equals
/// [`DigestSink::of_jsonl`] over the equivalent materialised trace.
#[derive(Debug, Clone, Copy)]
pub struct DigestSink {
    hash: Fnv,
    events: u64,
}

impl DigestSink {
    /// An empty digest (state = FNV offset basis).
    pub fn new() -> Self {
        DigestSink {
            hash: Fnv(FNV_OFFSET),
            events: 0,
        }
    }

    /// The digest of already-serialised JSON-lines text.
    pub fn of_jsonl(text: &str) -> u64 {
        fnv1a(FNV_OFFSET, text.as_bytes())
    }

    /// The digest of a trace's JSON-lines form, streamed without
    /// materialising the text.
    pub fn of_trace(trace: &Trace) -> u64 {
        let mut hash = Fnv(FNV_OFFSET);
        trace
            .write_jsonl(&mut hash)
            .expect("hashing text cannot fail");
        hash.0
    }

    /// The running digest.
    pub fn digest(&self) -> u64 {
        self.hash.0
    }

    /// Events hashed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl TelemetrySink for DigestSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TelemetryEvent) {
        event
            .write_json(&mut self.hash)
            .expect("hashing text cannot fail");
        self.hash.0 = fnv1a(self.hash.0, b"\n");
        self.events += 1;
    }
}

/// Combine per-cell digests in cell-index order into one run digest.
/// Hashing the fixed-width little-endian words (rather than XOR-ing)
/// keeps the combination order-sensitive: swapping two cells' streams
/// changes the result.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut state = FNV_OFFSET;
    for d in digests {
        state = fnv1a(state, &d.to_le_bytes());
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_sim::SimTime;
    use amoeba_telemetry::{HeartbeatRecord, MemorySink};

    fn beat(secs: u64) -> TelemetryEvent {
        TelemetryEvent::Heartbeat(HeartbeatRecord {
            t: SimTime::from_secs(secs),
            meter_latency_s: [None; 3],
            pressures: [0.1, 0.2, 0.3],
            weights: [1.0; 3],
        })
    }

    #[test]
    fn digest_matches_materialised_jsonl() {
        let mut d = DigestSink::new();
        let mut m = MemorySink::new();
        for s in 0..5 {
            d.record(beat(s));
            m.record(beat(s));
        }
        let trace = m.into_trace();
        assert_eq!(d.digest(), DigestSink::of_jsonl(&trace.to_jsonl()));
        assert_eq!(d.digest(), DigestSink::of_trace(&trace));
        assert_eq!(d.events(), 5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = DigestSink::new();
        a.record(beat(1));
        a.record(beat(2));
        let mut b = DigestSink::new();
        b.record(beat(2));
        b.record(beat(1));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine([1u64, 2]), combine([2u64, 1]));
        assert_eq!(combine([]), FNV_OFFSET);
    }
}
