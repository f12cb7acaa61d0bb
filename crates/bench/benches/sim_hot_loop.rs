//! The simulation-core hot-loop benchmark: one full Amoeba experiment
//! over a compressed 1-day Didi diurnal trace, end to end through the
//! event-dispatch kernel (arrivals → platforms → effects → controller
//! ticks → completions). The guarded figure is simulated queries per
//! wall-clock second; refactors of the kernel must stay within 5 % of
//! it. The before/after medians of the data-plane kernel refactor are
//! in its CHANGES.md entry.

use amoeba_core::{Experiment, SystemVariant};
use amoeba_sim::SimDuration;
use amoeba_workload::{benchmarks, DiurnalPattern, LoadTrace, MicroserviceSpec};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// The standard paper scenario: float in the foreground at full
/// benchmark peak, the three background services at low peak (§VII-A),
/// all on the Didi diurnal shape compressed into `day_s` seconds.
fn scenario(day_s: f64) -> Vec<amoeba_core::ServiceSetup> {
    let fg: MicroserviceSpec = benchmarks::float();
    let mut setups = vec![amoeba_core::ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), fg.peak_qps, day_s),
        spec: fg,
        background: false,
    }];
    for (spec, frac) in [
        (benchmarks::float(), 0.2),
        (benchmarks::dd(), 0.15),
        (benchmarks::cloud_stor(), 0.2),
    ] {
        let peak = spec.peak_qps * frac;
        let mut bg = spec;
        bg.name = format!("bg_{}", bg.name);
        setups.push(amoeba_core::ServiceSetup {
            trace: LoadTrace::new(DiurnalPattern::didi(), peak, day_s),
            spec: bg,
            background: true,
        });
    }
    setups
}

fn run_day(variant: SystemVariant, day_s: f64, seed: u64) -> usize {
    let result = Experiment::builder(variant, SimDuration::from_secs_f64(day_s), seed)
        .services(scenario(day_s))
        .build()
        .run();
    result.services.iter().map(|s| s.completed).sum()
}

fn bench_sim_hot_loop(c: &mut Criterion) {
    let day_s = 360.0;
    // Report the workload size once so ns/iter converts to simulated
    // queries per second: qps = completed / (ns_per_iter * 1e-9).
    let completed = run_day(SystemVariant::Amoeba, day_s, 7);
    println!("sim_hot_loop: {completed} queries per iteration (day_s = {day_s})");

    let mut g = c.benchmark_group("sim_hot_loop");
    g.sample_size(10);
    g.bench_function("amoeba_day", |b| {
        b.iter(|| black_box(run_day(SystemVariant::Amoeba, day_s, 7)))
    });
    g.bench_function("openwhisk_day", |b| {
        b.iter(|| black_box(run_day(SystemVariant::OpenWhisk, day_s, 7)))
    });
    g.finish();
}

criterion_group!(benches, bench_sim_hot_loop);
criterion_main!(benches);
