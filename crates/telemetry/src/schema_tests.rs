//! Property tests of the schema codec: arbitrary events of every kind
//! survive a JSON-lines round trip byte for byte, and each line is the
//! canonical form `amoeba_json` prints for the document it parses to.

use std::fmt;

use amoeba_json::Value;
use amoeba_sim::SimTime;
use proptest::prelude::*;

use crate::codec::JsonField;
use crate::event::{ServiceInfo, TelemetryEvent};
use crate::trace::Trace;

/// Draw an arbitrary value of a schema field type. The schema macros
/// implement it for the vocabularies and use it to build arbitrary
/// events of every kind.
pub(crate) trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Finite values only — a non-finite float encodes as `null`, which
/// decodes as a missing number — weighted toward the cases the writer
/// treats specially: integral values (with and without the `.0` form),
/// negative zero, and extreme magnitudes.
impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        match rng.below(6) {
            0 => rng.below(2_001) as f64 - 1_000.0,
            1 => -0.0,
            2 => rng.unit_f64() * 1e3,
            3 => rng.below(1 << 53) as f64 * 1e3,
            4 => rng.unit_f64() * 1e-300,
            _ => loop {
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        match rng.below(3) {
            0 => rng.below(10),
            1 => u64::MAX,
            _ => rng.next_u64(),
        }
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        u64::arbitrary(rng) as usize
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        u64::arbitrary(rng) as u32
    }
}

impl Arbitrary for SimTime {
    fn arbitrary(rng: &mut TestRng) -> Self {
        SimTime::from_micros(u64::arbitrary(rng))
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.below(2) == 1
    }
}

/// Short strings over an alphabet of escapes, control characters and
/// multi-byte code points.
impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> Self {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '漢', '😀',
        ];
        let len = rng.below(12);
        (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.below(3) != 0).then(|| T::arbitrary(rng))
    }
}

impl<T: Arbitrary> Arbitrary for [T; 3] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        [T::arbitrary(rng), T::arbitrary(rng), T::arbitrary(rng)]
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = rng.below(4);
        (0..len).map(|_| T::arbitrary(rng)).collect()
    }
}

impl Arbitrary for ServiceInfo {
    fn arbitrary(rng: &mut TestRng) -> Self {
        ServiceInfo {
            name: Arbitrary::arbitrary(rng),
            background: Arbitrary::arbitrary(rng),
            initial_mode: Arbitrary::arbitrary(rng),
        }
    }
}

fn written(f: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    f(&mut out).expect("writing to a String cannot fail");
    out
}

fn line(e: &TelemetryEvent) -> String {
    written(|out| e.write_json(out))
}

/// One arbitrary event of every kind, in `KINDS` order.
fn one_of_each(rng: &mut TestRng) -> Vec<TelemetryEvent> {
    (0..TelemetryEvent::KINDS.len())
        .map(|k| TelemetryEvent::arbitrary(k, rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kind, arbitrary fields: the line is the canonical form of
    /// the JSON document it parses to, decodes to the same event, and
    /// the whole trace survives `to_jsonl` / `from_jsonl` byte for byte.
    #[test]
    fn arbitrary_events_of_every_kind_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case("arbitrary_events", seed);
        let events = one_of_each(&mut rng);
        for (e, kind) in events.iter().zip(TelemetryEvent::KINDS) {
            prop_assert_eq!(e.kind(), *kind);
            let text = line(e);
            let parsed = amoeba_json::parse(&text).expect("the line is JSON");
            prop_assert_eq!(&parsed.compact(), &text);
            let back = TelemetryEvent::from_json(&parsed).expect("the line decodes");
            prop_assert_eq!(&back, e);
        }
        let trace = Trace::from_events(events);
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).expect("the trace decodes");
        prop_assert_eq!(back.events(), trace.events());
        prop_assert_eq!(back.to_jsonl(), text);
    }
}

#[test]
fn non_finite_floats_are_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(written(|o| x.write_json(o)), "null");
    }
}

#[test]
fn kinds_are_distinct() {
    let kinds = TelemetryEvent::KINDS;
    for (i, k) in kinds.iter().enumerate() {
        assert!(!kinds[..i].contains(k), "duplicate kind {k}");
    }
}

/// Members are found by key, so reordering them changes nothing; a
/// malformed object is a `DecodeError` naming what is wrong, never a
/// panic.
#[test]
fn decoder_reads_members_in_any_order_and_reports_what_is_wrong() {
    let mut rng = TestRng::for_case("member_order", 0);
    for e in one_of_each(&mut rng) {
        let Value::Object(mut members) = amoeba_json::parse(&line(&e)).expect("JSON") else {
            panic!("an event is a JSON object");
        };
        members.reverse();
        let back = TelemetryEvent::from_json(&Value::Object(members)).expect("decodes");
        assert_eq!(back, e);
    }
    let decode = |text: &str| TelemetryEvent::from_json(&amoeba_json::parse(text).expect("JSON"));
    let err = decode(r#"{"type":"nope"}"#).unwrap_err();
    assert!(err.message.contains("'nope'"), "{err}");
    let err = decode(r#"{"kind":"tick"}"#).unwrap_err();
    assert!(err.message.contains("'type'"), "{err}");
    let err =
        decode(r#"{"type":"shard_span","t_us":1,"epoch":0,"shard":0,"cells":1}"#).unwrap_err();
    assert!(err.message.contains("'events'"), "{err}");
    let err =
        decode(r#"{"type":"placement","t_us":1,"service":0,"node":0,"spill":"yes"}"#).unwrap_err();
    assert!(err.message.contains("'spill'"), "{err}");
    let err = Trace::from_jsonl("\n{\"type\":\"tick\"}\n").unwrap_err();
    assert!(err.message.starts_with("line 2:"), "{err}");
}
