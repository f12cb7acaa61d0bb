//! Scale gates for the sharded fleet executor.
//!
//! The always-on test drives a mid-size fleet — coupling and
//! fleet-level reclamation active — at 1/2/4 worker threads and
//! asserts the run digest (an FNV-1a-64 fold of every cell's JSONL
//! telemetry bytes) is identical: the executable form of the claim
//! that thread count and interleaving never reach simulation state.
//!
//! The `#[ignore]`d test is the acceptance run: the full 1,000-service
//! × 7-day fleet, digest-compared across 1/2/4/8 worker threads, with
//! wall-clocks printed. Run it explicitly:
//!
//! ```text
//! cargo test --release --test fleet_scale -- --ignored --nocapture
//! ```

use amoeba::fleet::FleetSpec;

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

/// The acceptance run: 1,000 services, 7 diurnal days, digest-identical
/// at 1, 2, 4 and 8 worker threads. Prints per-thread wall-clocks so
/// the scaling record in results/BENCH_simcore.json can be re-measured.
#[test]
#[ignore = "minutes-long; run with --ignored --nocapture"]
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
}
