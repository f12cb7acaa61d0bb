//! Scale gates for the sharded fleet executor.
//!
//! The always-on test drives a mid-size fleet — coupling and
//! fleet-level reclamation active — at 1/2/4 worker threads and
//! asserts the run digest (an FNV-1a-64 fold of every cell's JSONL
//! telemetry bytes) is identical: the executable form of the claim
//! that thread count and interleaving never reach simulation state.
//!
//! The `#[ignore]`d test is the acceptance run: the full 1,000-service
//! × 7-day fleet at 1/2/4/8 worker threads, each run's digest checked
//! against the pinned fleet contract value, with wall-clocks printed.
//! It is ignored only to keep the debug `cargo test` fast; CI runs it
//! in release:
//!
//! ```text
//! cargo test --release --test fleet_scale -- --include-ignored --nocapture
//! ```

use amoeba::fleet::{FleetOutcome, FleetSpec};

/// A 64-service, 8-cell fleet over three compressed days with the full
/// epoch exchange (pressure coupling + reclamation) enabled.
fn mid_fleet() -> FleetSpec {
    FleetSpec::new(31)
        .services(64)
        .cells(8)
        .days(3.0)
        .day_seconds(120.0)
        .epoch_s(20.0)
        .peak_scale(0.05, 0.1)
        .peak_floor(0.5)
}

/// The mid fleet's digest at seed 31. Pinning it makes any change to
/// the telemetry bytes a fleet emits — encoder or simulation — fail
/// here on every run, not only in the full-scale acceptance test.
const MID_FLEET_DIGEST: u64 = 0xb8f2_4f20_f0e3_b744;

#[test]
fn mid_fleet_digest_identical_across_threads() {
    let base = mid_fleet().build().run(1);
    assert_eq!(
        base.digest, MID_FLEET_DIGEST,
        "mid-fleet digest {:#018x} changed",
        base.digest
    );
    assert!(base.totals.submitted > 0, "fleet carried no load");
    assert!(base.epochs > 1, "exchange never ran");
    for threads in [2usize, 4] {
        let out = mid_fleet().build().run(threads);
        assert_eq!(
            base.digest, out.digest,
            "telemetry diverged at {threads} threads"
        );
        assert_eq!(base.totals, out.totals, "totals diverged at {threads}");
        assert_eq!(base.events, out.events, "event count diverged at {threads}");
        assert_eq!(base.epochs, out.epochs, "epoch count diverged at {threads}");
    }
}

/// A 16-service, 2-cell fleet over one 1,200 s day: each cell sends
/// 332 heartbeats, more than the monitor's 240-row PCA window holds, so
/// the window fills and then slides.
fn window_filling_fleet() -> FleetSpec {
    FleetSpec::new(7)
        .services(16)
        .cells(2)
        .days(1.0)
        .day_seconds(1200.0)
}

/// The window-filling fleet's digest at seed 7. `Heartbeat` and `Tick`
/// records carry the Eq. 6 weights, so any change in when or how the
/// monitor refits them changes this value.
const WINDOW_FILLING_FLEET_DIGEST: u64 = 0x1d23_9907_665e_0332;

#[test]
fn window_filling_fleet_digest_is_pinned() {
    let out = window_filling_fleet().build().run(1);
    assert_eq!(
        out.digest, WINDOW_FILLING_FLEET_DIGEST,
        "window-filling fleet digest {:#018x} changed",
        out.digest
    );
}

/// A recorded run fills in μ and λ(μ) for every tick record, a quiet
/// run only where a verdict reads them, so the two must simulate the
/// same fleet. With the default long-tail peaks most of this fleet's
/// decisions find a serverless-resident service at zero load.
#[test]
fn quiet_and_recorded_window_filling_fleets_agree() {
    let quiet = window_filling_fleet().build().run_quiet(1);
    let recorded = window_filling_fleet().build().run(1);
    assert_eq!(quiet.totals, recorded.totals);
    assert_eq!(quiet.events, recorded.events);
    assert_eq!(quiet.epochs, recorded.epochs);
    let switches = |out: &FleetOutcome| {
        out.results
            .iter()
            .flat_map(|cell| &cell.services)
            .map(|s| (s.name.clone(), s.switch_history.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(switches(&quiet), switches(&recorded));
    assert!(recorded.totals.switches > 0, "no service ever switched");
}

/// The fleet executor's exchange is live, not decorative: with
/// coupling on, epochs after the first see the injected external
/// pressure in the fleet telemetry whenever the pools carry load.
#[test]
fn mid_fleet_exchange_reports_pressure() {
    let out = mid_fleet().build().run(2);
    let samples: Vec<_> = out.fleet_trace.fleet_samples().collect();
    assert_eq!(samples.len() as u64, out.epochs);
    assert!(
        samples.iter().any(|s| s.mean_util.iter().any(|&u| u > 0.0)),
        "pool occupancy never observed across {} epochs",
        samples.len()
    );
}

/// The fleet week's digest at seed 2026: the contract value the
/// repository benchmark's `fleet_week_digest` gate also checks.
const FLEET_WEEK_DIGEST: u64 = 0xe439_01c4_926d_c3c7;

/// The acceptance run: 1,000 services, 7 diurnal days, the pinned
/// digest at 1, 2, 4 and 8 worker threads. Prints each run's
/// wall-clock.
#[test]
#[ignore = "four fleet weeks: seconds in release, minutes in debug; CI runs it with --include-ignored"]
fn fleet_week_digest_identical_across_threads() {
    let spec = || {
        FleetSpec::new(2026)
            .services(1000)
            .days(7.0)
            .day_seconds(4_320.0)
    };
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let out = spec().build().run(threads);
        println!(
            "threads={threads}: wall={:.1}s events={} services={} digest={:#018x}",
            out.wall.as_secs_f64(),
            out.events,
            out.totals.services,
            out.digest
        );
        digests.push(out.digest);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "digests diverged across thread counts: {digests:#x?}"
    );
    assert_eq!(
        digests[0], FLEET_WEEK_DIGEST,
        "fleet-week digest {:#018x} changed",
        digests[0]
    );
}
