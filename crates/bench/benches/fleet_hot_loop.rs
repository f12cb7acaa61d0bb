//! The fleet-executor hot-loop benchmark: a small multi-cell fleet
//! driven end to end through the epoch-barrier executor (cell worlds →
//! shard workers → barrier exchange → aggregation) at 1/2/4/8 worker
//! threads. The guarded figure is service-epochs advanced per
//! wall-clock second; the CHANGES.md entry of the data-plane kernel
//! refactor holds its before/after medians. Telemetry is disabled
//! (`run_quiet`) so the benchmark measures the simulation and the
//! barrier machinery, not per-event serialisation.

use amoeba_fleet::FleetSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// 48 services over two compressed days in 8 cells: big enough that
/// every thread count up to 8 gets distinct shards, small enough for a
/// benchmark iteration.
fn spec() -> FleetSpec {
    FleetSpec::new(7)
        .services(48)
        .cells(8)
        .days(2.0)
        .day_seconds(90.0)
        .epoch_s(15.0)
        .peak_scale(0.05, 0.1)
        .peak_floor(0.5)
}

fn run_fleet(threads: usize) -> u64 {
    spec().build().run_quiet(threads).events
}

fn bench_fleet_hot_loop(c: &mut Criterion) {
    // Report the workload size once so ns/iter converts to throughput:
    // service_epochs_per_s = services * epochs / (ns_per_iter * 1e-9).
    let probe = spec().build().run_quiet(1);
    println!(
        "fleet_hot_loop: {} services x {} epochs, {} events per iteration",
        probe.totals.services, probe.epochs, probe.events
    );

    let mut g = c.benchmark_group("fleet_hot_loop");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let name = format!("threads_{threads}");
        g.bench_function(&name, |b| b.iter(|| black_box(run_fleet(threads))));
    }
    g.finish();
}

criterion_group!(benches, bench_fleet_hot_loop);
criterion_main!(benches);
