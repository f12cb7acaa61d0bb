//! The measured run (`--trace 0`): one untimed warm-up unit, then units
//! back to back for at least one full pass and at least `--seconds`.

use std::time::Instant;

use crate::cells::{self, Fnv, Tally, UnitRun};
use crate::report::{Report, END_TO_END};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workloads::{Scale, Workload};

/// Set-up is timed at least this many times per run; the median is
/// reported.
const MIN_SETUP_SAMPLES: usize = 25;

/// Run workload `w` and report its end-to-end metrics.
pub fn measure(w: Workload, scale: &Scale, seed: u64, seconds: f64) -> Report {
    let k = w.units(scale);
    let mut report = Report::new(w, seed, END_TO_END);
    let warm = cells::run_unit(w, scale, seed, 0, None);
    report.failures.extend(warm.broken().cloned());

    let start = Instant::now();
    let mut runs: Vec<UnitRun> = Vec::new();
    // Completed simulated queries per host second of each unit.
    let mut unit_qps: Vec<f64> = Vec::new();
    loop {
        let i = runs.len() as u64;
        let t = Instant::now();
        let u = cells::run_unit(w, scale, seed, i % k, None);
        let completed: u64 = u.cells.iter().map(|c| c.tally.completed).sum();
        unit_qps.push(completed as f64 / t.elapsed().as_secs_f64());
        runs.push(u);
        if i + 1 >= k && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    check_repetitions(&mut report, &warm, &runs, k);
    let cells: Vec<_> = runs.iter().flat_map(|u| &u.cells).collect();
    report.ops = cells.iter().map(|c| c.tally.submitted).sum();

    let wall_s: Vec<f64> = cells.iter().map(|c| c.wall_s()).collect();
    let mut setup_s: Vec<f64> = cells.iter().map(|c| c.setup_s()).collect();
    while setup_s.len() < MIN_SETUP_SAMPLES {
        setup_s.push(cells::setup_only(w, scale, seed));
    }
    // A median, not the total over the wall: a neighbour's burst on the
    // shared host then moves a few units, not the result.
    report.set("sim_qps", median(&unit_qps));
    report.set("run_s_p50", median(&wall_s));
    // The tail is informational: on this workload set it mostly measures
    // host noise, and the fleets give too few runs to have one.
    if wall_s.len() >= 100 {
        let p90 = quantile(&wall_s, 0.9);
        report
            .notes
            .push(format!("run_s_p90 {p90} s over {} cells", wall_s.len()));
    }
    report.set("setup_s", median(&setup_s));

    // Simulated metrics come from the first pass only, so they are a
    // function of the seed alone, never of how many units fit the time.
    let (mut all, mut scored) = (Tally::default(), Tally::default());
    for c in runs[..k as usize].iter().flat_map(|u| &u.cells) {
        all += c.tally;
        if c.scored {
            scored += c.tally;
        }
    }
    report.set(
        "completed_share",
        all.completed as f64 / all.submitted as f64,
    );
    report.set(
        "qos_violation_pct",
        100.0 * scored.violations as f64 / scored.completed as f64,
    );
    report.set("core_s_per_query", scored.core_s / scored.completed as f64);
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report
            .failures
            .push("VmHWM missing from /proc/self/status".into()),
    }
    report
}

/// The per-repetition gates: every cell conserves queries, and every
/// repetition of a unit — the warm-up included — reproduces the
/// fingerprint of its first pass. A failing repetition's queries all
/// count as failed. Sets the report's fingerprint to the first pass's.
pub fn check_repetitions(report: &mut Report, warm: &UnitRun, runs: &[UnitRun], k: u64) {
    let mut pass = Fnv::default();
    for (i, u) in runs.iter().enumerate() {
        let reference = if i == 0 {
            warm.fingerprint
        } else {
            runs[i % k as usize].fingerprint
        };
        let mut bad: Vec<String> = u.broken().cloned().collect();
        if u.fingerprint != reference {
            bad.push(format!(
                "repetition {i} of unit {}: fingerprint {:#018x}, first run gave {reference:#018x}",
                i as u64 % k,
                u.fingerprint
            ));
        }
        if !bad.is_empty() {
            report.failed_ops += u.submitted();
            report.failures.extend(bad);
        }
        if (i as u64) < k {
            pass.word(u.fingerprint);
        }
    }
    report.fingerprint = pass.0;
}
