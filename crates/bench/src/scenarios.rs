//! Standard experiment scenarios (§VII-A).
//!
//! The paper evaluates each benchmark with a diurnal pattern "whose peak
//! load is set high enough to arise transformation", while `float`, `dd`
//! and `cloud_stor` run at lower peaks as background services that put "a
//! slight pressure" on the serverless platform. A full day is compressed
//! into [`DEFAULT_DAY_S`] simulated seconds so one diurnal cycle fits in
//! an experiment run (§II-A: the exact fluctuation pattern does not
//! affect the analysis).

use amoeba_core::{Experiment, ServiceSetup, SystemVariant};
use amoeba_sim::SimDuration;
use amoeba_workload::{benchmarks, DiurnalPattern, LoadTrace, MicroserviceSpec};

/// Compressed day length, simulated seconds.
pub const DEFAULT_DAY_S: f64 = 480.0;

/// Default experiment seed.
pub const DEFAULT_SEED: u64 = 42;

/// Fractions of each background service's nominal peak (§VII-A: "a lower
/// peak load ... by carefully designed parameters").
const BACKGROUND: [(&str, f64); 3] = [("float", 0.20), ("dd", 0.15), ("cloud_stor", 0.20)];

/// The three §VII-A background services on their reduced peaks —
/// shared by the standard scenario and the workflow report, so every
/// comparison runs against the same contention floor.
pub fn background_services(day_s: f64) -> Vec<ServiceSetup> {
    BACKGROUND
        .iter()
        .map(|&(name, frac)| {
            let mut spec = benchmarks::benchmark_by_name(name).expect("known benchmark");
            let peak = spec.peak_qps * frac;
            spec.name = format!("bg_{name}");
            spec.peak_qps = peak;
            ServiceSetup {
                trace: LoadTrace::new(DiurnalPattern::didi(), peak, day_s),
                spec,
                background: true,
            }
        })
        .collect()
}

/// The §VII-A setup: one foreground benchmark plus the three background
/// services, all on Didi-shaped diurnal traces over a compressed day.
pub fn standard_scenario(foreground: MicroserviceSpec, day_s: f64) -> Vec<ServiceSetup> {
    let mut setups = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), foreground.peak_qps, day_s),
        spec: foreground,
        background: false,
    }];
    setups.extend(background_services(day_s));
    setups
}

/// A ready experiment for (variant, foreground benchmark).
pub fn standard_experiment(
    variant: SystemVariant,
    foreground: MicroserviceSpec,
    day_s: f64,
    seed: u64,
) -> Experiment {
    Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(standard_scenario(foreground, day_s))
        .build()
}

/// Run one (variant, benchmark) cell of the evaluation grid.
pub fn run_cell(
    variant: SystemVariant,
    foreground: MicroserviceSpec,
    day_s: f64,
    seed: u64,
) -> amoeba_core::RunResult {
    standard_experiment(variant, foreground, day_s, seed).run()
}

/// [`run_cell`] with the telemetry stream captured — for analyses that
/// read the controller/switch record instead of the aggregate results.
/// The results half is bit-identical to [`run_cell`] at the same seed.
pub fn run_cell_traced(
    variant: SystemVariant,
    foreground: MicroserviceSpec,
    day_s: f64,
    seed: u64,
) -> (amoeba_core::RunResult, amoeba_telemetry::Trace) {
    standard_experiment(variant, foreground, day_s, seed).run_traced()
}

/// The five foreground benchmarks in Table III order.
pub fn foregrounds() -> Vec<MicroserviceSpec> {
    benchmarks::standard_benchmarks()
}

/// Run `f` over `jobs` with one scoped thread per job and return the
/// results in job order. Every report fans its independent cells out
/// through here; each cell owns its RNG streams, so the output does
/// not depend on how the threads are scheduled.
pub(crate) fn par_map<T, R>(jobs: impl IntoIterator<Item = T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let f = &f;
    std::thread::scope(|s| {
        // Collecting the handles before joining is load-bearing: it
        // spawns every job before any join, which is what runs the
        // jobs in parallel rather than one at a time.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| s.spawn(move || f(job)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("report cell panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_runs_every_job_at_once_and_keeps_job_order() {
        use std::sync::mpsc::channel;
        // Job i waits for job i + 1's signal, so the jobs finish in
        // reverse order, and the chain only unwinds if every job has
        // been spawned before any is joined.
        const N: usize = 8;
        let mut waits = Vec::new();
        let mut signals = vec![None];
        for _ in 1..N {
            let (tx, rx) = channel::<()>();
            waits.push(Some(rx));
            signals.push(Some(tx));
        }
        waits.push(None);
        let jobs: Vec<_> = waits.into_iter().zip(signals).enumerate().collect();
        let out = par_map(jobs, |(i, (wait, signal))| {
            if let Some(rx) = wait {
                rx.recv().expect("the next job signals");
            }
            if let Some(tx) = signal {
                tx.send(()).expect("the previous job waits");
            }
            i
        });
        assert_eq!(out, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn scenario_has_one_foreground_three_background() {
        let s = standard_scenario(benchmarks::matmul(), DEFAULT_DAY_S);
        assert_eq!(s.len(), 4);
        assert!(!s[0].background);
        assert!(s[1..].iter().all(|x| x.background));
        assert_eq!(s[0].spec.name, "matmul");
    }

    #[test]
    fn background_peaks_are_slight_pressure() {
        let s = standard_scenario(benchmarks::float(), DEFAULT_DAY_S);
        for bg in &s[1..] {
            let nominal = benchmarks::benchmark_by_name(&bg.spec.name["bg_".len()..])
                .unwrap()
                .peak_qps;
            assert!(bg.spec.peak_qps <= nominal * 0.25, "{}", bg.spec.name);
        }
    }

    #[test]
    fn run_cell_smoke() {
        let r = run_cell(SystemVariant::Nameko, benchmarks::float(), 60.0, 1);
        assert_eq!(r.services.len(), 4);
        assert!(r.services[0].completed > 0);
    }
}
