//! The determinism gate: every [`SystemVariant`], with and without an
//! active fault plan, must reproduce its committed golden JSONL trace
//! byte for byte at a fixed seed.
//!
//! These fixtures were generated *before* the runtime kernel was
//! decomposed into staged event-dispatch modules, so any refactor of
//! the runtime/engine/controller/monitor/chaos plumbing that perturbs
//! event ordering, RNG stream consumption, or telemetry emission fails
//! here immediately. Future restructures inherit the same gate.
//!
//! Regenerate deliberately (after an *intentional* behaviour change)
//! with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and review the fixture diff like any other code change.

use amoeba::core::{Experiment, ServiceSetup, SystemVariant};
use amoeba::fleet::{DigestSink, FleetRun};
use amoeba::sim::SimDuration;
use amoeba::telemetry::{TelemetrySink, Trace};
use amoeba::workload::{benchmarks, DiurnalPattern, LoadTrace};
use amoeba_chaos::FaultPlan;
use std::path::PathBuf;

/// The fixture scenario: one foreground service (float at a quarter of
/// its benchmark peak, so fixtures stay small) plus two low-peak
/// background services, on a 90-second compressed Didi day. Small
/// enough to commit, rich enough that every switching variant performs
/// 1-3 switches and, under the fault plan, every fault class fires.
const DAY_S: f64 = 90.0;
const SEED: u64 = 42;

fn scenario() -> Vec<ServiceSetup> {
    let mut fg = benchmarks::float();
    fg.peak_qps *= 0.25;
    let mut setups = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), fg.peak_qps, DAY_S),
        spec: fg,
        background: false,
    }];
    for (spec, frac) in [(benchmarks::dd(), 0.05), (benchmarks::cloud_stor(), 0.08)] {
        let peak = spec.peak_qps * frac;
        let mut bg = spec;
        bg.name = format!("bg_{}", bg.name);
        setups.push(ServiceSetup {
            trace: LoadTrace::new(DiurnalPattern::didi(), peak, DAY_S),
            spec: bg,
            background: true,
        });
    }
    setups
}

/// The level-1 fault plan used for the faulty half of the gate: the
/// reference mixed plan at unit intensity (every fault class active).
fn level1_plan() -> FaultPlan {
    FaultPlan::mixed()
}

fn traced_jsonl(variant: SystemVariant, plan: Option<FaultPlan>) -> String {
    let mut b =
        Experiment::builder(variant, SimDuration::from_secs_f64(DAY_S), SEED).services(scenario());
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    let (_, trace) = b.build().run_traced();
    trace.to_jsonl()
}

fn fixture_path(variant: SystemVariant, faulty: bool) -> PathBuf {
    let stem = variant.label().to_lowercase().replace('-', "_");
    let suffix = if faulty { "faults" } else { "clean" };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}_{suffix}.jsonl"))
}

fn check(variant: SystemVariant, faulty: bool) {
    let plan = faulty.then(level1_plan);
    let got = traced_jsonl(variant, plan);
    let path = fixture_path(variant, faulty);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_BLESS=1",
            path.display()
        )
    });
    if got != want {
        // Locate the first divergent line for a readable failure.
        let (mut line, mut shown) = (0usize, String::new());
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                line = i + 1;
                shown = format!("got:  {g}\nwant: {w}");
                break;
            }
        }
        if shown.is_empty() {
            line = got.lines().count().min(want.lines().count()) + 1;
            shown = format!(
                "traces diverge in length: got {} lines, want {}",
                got.lines().count(),
                want.lines().count()
            );
        }
        panic!(
            "{} trace ({}) is not byte-identical to {} — first divergence at line {line}:\n{shown}",
            variant.label(),
            if faulty {
                "level-1 faults"
            } else {
                "fault-free"
            },
            path.display(),
        );
    }
}

macro_rules! golden {
    ($name:ident, $variant:expr, $faulty:expr) => {
        #[test]
        fn $name() {
            check($variant, $faulty);
        }
    };
}

golden!(amoeba_clean, SystemVariant::Amoeba, false);
golden!(amoeba_faults, SystemVariant::Amoeba, true);
golden!(nameko_clean, SystemVariant::Nameko, false);
golden!(nameko_faults, SystemVariant::Nameko, true);
golden!(openwhisk_clean, SystemVariant::OpenWhisk, false);
golden!(openwhisk_faults, SystemVariant::OpenWhisk, true);
golden!(amoeba_nom_clean, SystemVariant::AmoebaNoM, false);
golden!(amoeba_nom_faults, SystemVariant::AmoebaNoM, true);
golden!(amoeba_nop_clean, SystemVariant::AmoebaNoP, false);
golden!(amoeba_nop_faults, SystemVariant::AmoebaNoP, true);
golden!(amoeba_pro_clean, SystemVariant::AmoebaPro, false);
golden!(amoeba_pro_faults, SystemVariant::AmoebaPro, true);

/// Build the golden-scenario experiment for `variant`/`faulty`.
fn golden_experiment(variant: SystemVariant, faulty: bool, seed: u64) -> Experiment {
    let mut b =
        Experiment::builder(variant, SimDuration::from_secs_f64(DAY_S), seed).services(scenario());
    if faulty {
        b = b.fault_plan(level1_plan());
    }
    b.build()
}

/// The sharded executor against the *serial* fixtures: running the
/// golden experiment as a fleet cell — sliced into ten epochs, at one
/// and at four worker threads, alone and co-resident with three sibling
/// cells — must reproduce the committed JSONL byte for byte. This is
/// the executable form of the §16 determinism argument: epoch slicing,
/// thread count and co-residency never leak into a cell's trace.
fn check_sharded(variant: SystemVariant, faulty: bool) {
    let path = fixture_path(variant, faulty);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_BLESS=1",
            path.display()
        )
    });
    let epoch = SimDuration::from_secs_f64(DAY_S / 10.0);

    // One cell, one shard: epoch slicing alone.
    let solo = FleetRun::from_experiments(vec![golden_experiment(variant, faulty, SEED)], epoch);
    let (_, traces) = solo.run_traced(1);
    assert_eq!(
        traces[0].to_jsonl(),
        want,
        "{} ({faulty}): 1-cell sharded trace diverges from serial fixture",
        variant.label()
    );

    // Four cells on four threads; the golden experiment is cell 0 and
    // the siblings differ by seed, so any cross-cell or cross-thread
    // leakage would perturb cell 0's bytes.
    let cells: Vec<Experiment> = (0..4)
        .map(|i| golden_experiment(variant, faulty, SEED + i))
        .collect();
    let (_, traces) = FleetRun::from_experiments(cells, epoch).run_traced(4);
    assert_eq!(
        traces[0].to_jsonl(),
        want,
        "{} ({faulty}): co-resident sharded trace diverges from serial fixture",
        variant.label()
    );
}

macro_rules! golden_sharded {
    ($name:ident, $variant:expr, $faulty:expr) => {
        #[test]
        fn $name() {
            check_sharded($variant, $faulty);
        }
    };
}

golden_sharded!(sharded_amoeba_clean, SystemVariant::Amoeba, false);
golden_sharded!(sharded_amoeba_faults, SystemVariant::Amoeba, true);
golden_sharded!(sharded_nameko_clean, SystemVariant::Nameko, false);
golden_sharded!(sharded_nameko_faults, SystemVariant::Nameko, true);
golden_sharded!(sharded_openwhisk_clean, SystemVariant::OpenWhisk, false);
golden_sharded!(sharded_openwhisk_faults, SystemVariant::OpenWhisk, true);
golden_sharded!(sharded_amoeba_nom_clean, SystemVariant::AmoebaNoM, false);
golden_sharded!(sharded_amoeba_nom_faults, SystemVariant::AmoebaNoM, true);
golden_sharded!(sharded_amoeba_nop_clean, SystemVariant::AmoebaNoP, false);
golden_sharded!(sharded_amoeba_nop_faults, SystemVariant::AmoebaNoP, true);
golden_sharded!(sharded_amoeba_pro_clean, SystemVariant::AmoebaPro, false);
golden_sharded!(sharded_amoeba_pro_faults, SystemVariant::AmoebaPro, true);

/// The traced and untraced paths must agree: attaching a sink never
/// feeds back into the run (checked here once on the richest variant
/// so the golden fixtures also vouch for `Experiment::run`).
#[test]
fn traced_equals_untraced() {
    let exp = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(DAY_S),
        SEED,
    )
    .services(scenario())
    .fault_plan(level1_plan())
    .build();
    let (traced, _) = exp.run_traced();
    let bare = exp.run();
    for (a, b) in traced.services.iter().zip(&bare.services) {
        assert_eq!(a.completed, b.completed, "{}", a.name);
        assert_eq!(a.failed, b.failed, "{}", a.name);
    }
    assert_eq!(traced.cold_starts, bare.cold_starts);
    assert_eq!(traced.final_weights, bare.final_weights);
}

/// The fixtures are also the telemetry codec's spec, independent of
/// the simulator: every committed trace decodes, re-encodes to the same
/// bytes, and streams into the fleet digest exactly as its text hashes.
#[test]
fn fixtures_round_trip_through_the_codec_and_the_digest() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture directory") {
        let path = entry.expect("fixture entry").path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("fixture text");
        let trace = Trace::from_jsonl(&text).expect("fixture decodes");
        assert_eq!(trace.to_jsonl(), text, "{} re-encodes", path.display());
        let mut sink = DigestSink::new();
        for e in trace.events() {
            sink.record(e.clone());
        }
        let want = DigestSink::of_jsonl(&text);
        assert_eq!(sink.digest(), want, "{} streamed digest", path.display());
        assert_eq!(DigestSink::of_trace(&trace), want, "{}", path.display());
        checked += 1;
    }
    assert!(checked >= 14, "only {checked} fixtures found");
}
