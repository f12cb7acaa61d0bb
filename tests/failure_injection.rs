//! Failure-injection tests, driven by the deterministic `amoeba-chaos`
//! subsystem: schedule faults from a [`FaultPlan`], then check the
//! system-wide invariants — conservation (`submitted == completed +
//! failed`), bit-identical reruns, rollback safety — plus a few ambient
//! degradations (tiny keep-alive, starved pool, flash crowd) that need
//! no injector.

use amoeba::chaos::FaultPlan;
use amoeba::core::{Experiment, RunResult, ServiceSetup, SystemVariant};
use amoeba::platform::ServerlessConfig;
use amoeba::sim::{SimDuration, SimTime};
use amoeba::telemetry::Trace;
use amoeba::workload::{benchmarks, trace::Burst, DiurnalPattern, LoadTrace};

fn scenario(day_s: f64) -> Vec<ServiceSetup> {
    let fg = benchmarks::float();
    let mut setups = vec![ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::didi(), fg.peak_qps, day_s),
        spec: fg,
        background: false,
    }];
    for (name, frac) in [("dd", 0.15), ("cloud_stor", 0.2)] {
        let mut spec = benchmarks::benchmark_by_name(name).unwrap();
        spec.peak_qps *= frac;
        spec.name = format!("bg_{name}");
        setups.push(ServiceSetup {
            trace: LoadTrace::new(DiurnalPattern::didi(), spec.peak_qps, day_s),
            spec,
            background: true,
        });
    }
    setups
}

fn run_chaos(day_s: f64, seed: u64, plan: Option<FaultPlan>) -> (RunResult, Trace) {
    let mut b = Experiment::builder(
        SystemVariant::Amoeba,
        SimDuration::from_secs_f64(day_s),
        seed,
    )
    .services(scenario(day_s));
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    b.build().run_traced()
}

// ---- injected faults (amoeba-chaos) ----------------------------------

#[test]
fn same_seed_and_plan_give_bit_identical_traces() {
    // The whole point of the chaos subsystem: a faulty run is as
    // reproducible as a clean one. Every event in the telemetry stream —
    // fault times, victim choices, recovery order — must match exactly.
    let plan = FaultPlan::mixed();
    let (ra, ta) = run_chaos(240.0, 61, Some(plan.clone()));
    let (rb, tb) = run_chaos(240.0, 61, Some(plan));
    assert_eq!(ta.to_jsonl(), tb.to_jsonl(), "traces must be bit-identical");
    assert_eq!(ra.cold_starts, rb.cold_starts);
    for (a, b) in ra.services.iter().zip(&rb.services) {
        assert_eq!(a.completed, b.completed, "{}", a.name);
        assert_eq!(a.failed, b.failed, "{}", a.name);
    }
}

#[test]
fn a_zero_rate_plan_is_indistinguishable_from_no_plan() {
    // The mixed plan scaled to zero keeps its durations, multipliers
    // and spike rate, but its zero rates and probabilities schedule no
    // fault and fail no decision, and the injector's RNG stream is
    // independent of the runtime's: the run must match one with no plan
    // set event for event.
    let (ra, ta) = run_chaos(240.0, 67, None);
    let (rb, tb) = run_chaos(240.0, 67, Some(FaultPlan::mixed().scaled(0.0)));
    assert_eq!(ta.to_jsonl(), tb.to_jsonl());
    assert_eq!(ra.final_weights, rb.final_weights);
    for (a, b) in ra.services.iter().zip(&rb.services) {
        assert_eq!(a.submitted, b.submitted, "{}", a.name);
        assert_eq!(a.completed, b.completed, "{}", a.name);
    }
}

#[test]
fn queries_are_conserved_under_every_fault_mix() {
    // Whatever the injector throws at the platforms, nothing may vanish:
    // every post-warmup submission either completes or is counted as an
    // explicit crash-drop failure.
    let mixes: Vec<(&str, FaultPlan)> = vec![
        (
            "crashes, always requeue",
            FaultPlan {
                container_crash_rate_per_hour: 240.0,
                crash_drop_prob: 0.0,
                ..FaultPlan::default()
            },
        ),
        (
            "crashes, always drop",
            FaultPlan {
                container_crash_rate_per_hour: 240.0,
                crash_drop_prob: 1.0,
                ..FaultPlan::default()
            },
        ),
        (
            "boot faults",
            FaultPlan {
                vm_boot_failure_prob: 0.5,
                vm_slow_boot_prob: 0.3,
                slow_boot_multiplier: 3.0,
                ..FaultPlan::default()
            },
        ),
        (
            "lost acks",
            FaultPlan {
                ack_drop_prob: 1.0,
                ..FaultPlan::default()
            },
        ),
        (
            "meter chaos",
            FaultPlan {
                meter_outage_rate_per_hour: 120.0,
                meter_outage_duration_s: 5.0,
                meter_outlier_rate_per_hour: 240.0,
                outlier_factor: 25.0,
                ..FaultPlan::default()
            },
        ),
        (
            "pressure spikes",
            FaultPlan {
                pressure_spike_rate_per_hour: 60.0,
                spike_duration_s: 5.0,
                spike_qps: 40.0,
                ..FaultPlan::default()
            },
        ),
        (
            "everything at twice the mixed rate",
            FaultPlan::mixed().scaled(2.0),
        ),
    ];
    for (label, plan) in mixes {
        let expect_failures = plan.crash_drop_prob > 0.0;
        let (r, trace) = run_chaos(200.0, 71, Some(plan));
        let mut failed_total = 0;
        for s in &r.services {
            assert_eq!(
                s.submitted,
                s.completed + s.failed,
                "conservation broke under '{label}' for {}",
                s.name
            );
            failed_total += s.failed;
        }
        if !expect_failures {
            assert_eq!(failed_total, 0, "'{label}' must not drop queries");
        }
        assert!(
            trace.faults().count() > 0,
            "'{label}' scheduled no faults — the mix is not exercising anything"
        );
    }
}

#[test]
fn exhausted_ack_retries_roll_the_switch_back_without_losing_queries() {
    // Every prewarm ack is dropped and the deadline policy is tight, so
    // every attempted switch to serverless must retry, give up, and roll
    // back — leaving the router on the old (IaaS) platform the whole
    // time, with zero dropped queries.
    let day_s = 240.0;
    let plan = FaultPlan {
        ack_drop_prob: 1.0,
        ..FaultPlan::default()
    };
    let (r, trace) =
        Experiment::builder(SystemVariant::Amoeba, SimDuration::from_secs_f64(day_s), 73)
            .services(scenario(day_s))
            .fault_plan(plan)
            .ack_policy(SimDuration::from_secs(2), 1)
            .build()
            .run_traced();

    let summary = trace.summary();
    assert!(
        summary.aborted_switches > 0,
        "with every ack lost, at least one switch must abort"
    );
    let fg = &r.services[0];
    assert!(
        fg.switch_history.is_empty(),
        "no switch can complete without an ack: {:?}",
        fg.switch_history
    );
    // The router never left IaaS, so the mode timeline is flat zero.
    assert!(
        fg.mode_timeline.samples().iter().all(|&(_, m)| m == 0.0),
        "router must stay on the old platform through every abort"
    );
    // And the rollback machinery loses nothing.
    for s in &r.services {
        assert_eq!(s.submitted, s.completed, "{}", s.name);
        assert_eq!(s.failed, 0, "{}", s.name);
    }
    assert!(r.failed_switches > 0);
    assert!(r.wasted_prewarms > 0, "each retry re-prewarms");
}

// ---- ambient degradations (no injector needed) -----------------------

#[test]
fn blind_monitor_does_not_break_the_run() {
    // With the contention meters disabled the monitor reads zero
    // pressure everywhere — the controller flies blind but the system
    // must stay sound. (QoS may degrade; that is the *point* of the
    // meters.)
    let day_s = 240.0;
    let exp = Experiment::builder(SystemVariant::Amoeba, SimDuration::from_secs_f64(day_s), 31)
        .services(scenario(day_s))
        .run_meters(false)
        .build();
    let r = exp.run();
    assert_eq!(r.meter_cpu_overhead, 0.0, "no meters, no meter cost");
    assert_eq!(r.mean_pressures, [0.0; 3], "blind monitor reads zero");
    for s in &r.services {
        assert_eq!(s.submitted, s.completed, "{}", s.name);
    }
}

#[test]
fn cold_start_storm_under_tiny_keep_alive() {
    // A platform that reclaims idle containers after 1 s keep-alive:
    // every lull re-cold-starts the pool. The system must survive (no
    // lost queries) and the cold-start count must explode relative to
    // the default platform.
    let day_s = 180.0;
    let run = |keep_alive_s: u64, seed: u64| {
        Experiment::builder(
            SystemVariant::OpenWhisk,
            SimDuration::from_secs_f64(day_s),
            seed,
        )
        .services(scenario(day_s))
        .serverless_cfg(ServerlessConfig {
            keep_alive: SimDuration::from_secs(keep_alive_s),
            ..Default::default()
        })
        .build()
        .run()
    };
    let storm = run(1, 41);
    let normal = run(60, 41);
    for s in &storm.services {
        assert_eq!(s.submitted, s.completed, "{}", s.name);
    }
    assert!(
        storm.cold_starts > normal.cold_starts * 3,
        "tiny keep-alive must cause a cold-start storm: {} vs {}",
        storm.cold_starts,
        normal.cold_starts
    );
    // And the QoS pays for it.
    assert!(
        storm.services[0].violation_ratio() > normal.services[0].violation_ratio(),
        "storm {} vs normal {}",
        storm.services[0].violation_ratio(),
        normal.services[0].violation_ratio()
    );
}

#[test]
fn memory_starved_pool_still_conserves_queries() {
    // A pool with room for only 8 containers shared by three tenants:
    // constant eviction churn and queueing, but nothing is lost and the
    // FIFO queue eventually drains everything.
    let day_s = 120.0;
    let exp = Experiment::builder(
        SystemVariant::OpenWhisk,
        SimDuration::from_secs_f64(day_s),
        43,
    )
    .services(scenario(day_s))
    .serverless_cfg(ServerlessConfig {
        pool_memory_mb: 8.0 * 256.0,
        ..Default::default()
    })
    .build();
    let r = exp.run();
    for s in &r.services {
        assert_eq!(s.submitted, s.completed, "{}", s.name);
    }
    // Such a pool cannot hold the peak: violations must be substantial
    // (this is the §IV-A memory ceiling binding).
    assert!(
        r.services[0].violation_ratio() > 0.2,
        "an 8-container pool should buckle: {}",
        r.services[0].violation_ratio()
    );
}

#[test]
fn flash_crowd_on_pure_serverless_recovers() {
    // A 4x flash crowd hits a serverless-pinned service; once the burst
    // passes, latencies recover (the backlog drains rather than
    // wedging).
    let day_s = 300.0;
    let spec = benchmarks::matmul();
    let trace =
        LoadTrace::new(DiurnalPattern::flat(0.25), spec.peak_qps, day_s).with_burst(Burst {
            start: SimTime::from_secs(100),
            duration_s: 30.0,
            magnitude: 1.0,
        });
    let services = vec![ServiceSetup {
        trace,
        spec,
        background: false,
    }];
    let r = Experiment::builder(
        SystemVariant::OpenWhisk,
        SimDuration::from_secs_f64(day_s),
        47,
    )
    .services(services)
    .build()
    .run();
    let fg = &r.services[0];
    assert_eq!(fg.submitted, fg.completed);
    // Mean load after the burst window returns to the pre-burst level
    // (load estimator sanity) …
    let pre = fg
        .load_timeline
        .mean_step(SimTime::from_secs(60), SimTime::from_secs(95));
    let post = fg
        .load_timeline
        .mean_step(SimTime::from_secs(200), SimTime::from_secs(290));
    assert!((post - pre).abs() / pre < 0.4, "pre {pre} post {post}");
}
