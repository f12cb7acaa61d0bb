use super::*;
use amoeba_workload::benchmarks;

fn surfaces_for(spec: &MicroserviceSpec) -> [LatencySurface; 3] {
    let phases = [
        spec.demand.cpu_s,
        spec.demand.io_mb / 500.0,
        spec.demand.net_mb / 250.0,
    ];
    let overhead = 0.02;
    let loads = vec![0.5, 5.0, 20.0, 60.0, 120.0];
    let pressures = vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.95];
    let kappas = [1.2, 1.8, 1.5];
    [0, 1, 2].map(|r| {
        LatencySurface::analytic(
            phases,
            overhead,
            r,
            kappas[r],
            120,
            spec.qos_percentile,
            loads.clone(),
            pressures.clone(),
        )
    })
}

fn model_for(spec: MicroserviceSpec) -> ServiceModel {
    let surfaces = surfaces_for(&spec);
    let phases_sum = spec.demand.cpu_s + spec.demand.io_mb / 500.0 + spec.demand.net_mb / 250.0;
    let l0 = phases_sum + 0.02;
    let base = phases_sum.max(1e-3);
    // util per qps on a 40-core / 3000 MBps / 3125 MBps node.
    let util_per_qps = [
        l0 * (spec.demand.cpu_s / base) / 40.0,
        l0 * (spec.demand.io_mb / base) / 3000.0,
        l0 * (spec.demand.net_mb / base) / 3125.0,
    ];
    ServiceModel {
        spec,
        l0_s: l0,
        surfaces,
        util_per_qps,
        n_max: 12,
    }
}

fn controller_with(specs: Vec<MicroserviceSpec>) -> DeploymentController {
    let mut c = DeploymentController::new(ControllerConfig::default());
    for s in specs {
        c.register(model_for(s));
    }
    c
}

const UNIFORM: [f64; 3] = [1.0, 1.0, 1.0];
const CALIBRATED: [f64; 3] = [0.34, 0.33, 0.33];

#[test]
fn eq7_prewarm_count() {
    // (n-1)/QoS < V ≤ n/QoS.
    assert_eq!(prewarm_count(10.0, 0.2), 2);
    assert_eq!(prewarm_count(10.0, 0.5), 5);
    assert_eq!(prewarm_count(9.9, 0.5), 5);
    assert_eq!(prewarm_count(10.1, 0.5), 6);
    // Tiny but positive load still warms one container.
    assert_eq!(prewarm_count(0.1, 0.5), 1);
}

#[test]
fn eq7_degenerate_inputs_warm_nothing() {
    assert_eq!(prewarm_count(0.0, 0.5), 0);
    assert_eq!(prewarm_count(-3.0, 0.5), 0);
    assert_eq!(prewarm_count(f64::NAN, 0.5), 0);
    assert_eq!(prewarm_count(f64::INFINITY, 0.5), 0);
    assert_eq!(prewarm_count(10.0, 0.0), 0);
    assert_eq!(prewarm_count(10.0, -1.0), 0);
    assert_eq!(prewarm_count(10.0, f64::NAN), 0);
    assert_eq!(prewarm_count(10.0, f64::INFINITY), 0);
    // A huge-but-finite product saturates instead of wrapping.
    assert_eq!(prewarm_count(1e30, 1e30), u32::MAX);
}

#[test]
fn load_estimation_over_window() {
    let mut c = controller_with(vec![benchmarks::float()]);
    // 20 arrivals within the 4s window.
    for i in 0..20 {
        c.record_arrival(0, SimTime::from_millis(i * 100));
    }
    let load = c.estimated_load(0, SimTime::from_secs(2));
    assert!((load - 5.0).abs() < 0.01, "load {load}");
    // After the window slides past, old arrivals drop out.
    let load = c.estimated_load(0, SimTime::from_secs(60));
    assert_eq!(load, 0.0);
}

#[test]
fn mu_degrades_with_pressure() {
    let c = controller_with(vec![benchmarks::float()]);
    let mu_idle = c.predicted_mu(0, [0.0; 3], CALIBRATED);
    let mu_pressed = c.predicted_mu(0, [0.8, 0.0, 0.0], CALIBRATED);
    assert!(mu_pressed < mu_idle, "{mu_pressed} !< {mu_idle}");
}

#[test]
fn mu_sensitive_only_to_relevant_resource() {
    // float is CPU-bound: IO pressure barely moves its μ.
    let c = controller_with(vec![benchmarks::float()]);
    let mu_idle = c.predicted_mu(0, [0.0; 3], CALIBRATED);
    let mu_io = c.predicted_mu(0, [0.0, 0.9, 0.0], CALIBRATED);
    assert!((mu_idle - mu_io) / mu_idle < 0.05, "{mu_idle} vs {mu_io}");
    // dd is IO-bound: IO pressure hits hard.
    let c = controller_with(vec![benchmarks::dd()]);
    let mu_idle = c.predicted_mu(0, [0.0; 3], CALIBRATED);
    let mu_io = c.predicted_mu(0, [0.0, 0.9, 0.0], CALIBRATED);
    assert!(mu_io < mu_idle * 0.5, "{mu_idle} vs {mu_io}");
}

#[test]
fn nom_weights_are_pessimistic() {
    // cloud_stor touches all three resources, so the accumulation
    // across resources actually bites.
    let c = controller_with(vec![benchmarks::cloud_stor()]);
    let mu_amoeba = c.predicted_mu(0, [0.6, 0.6, 0.6], CALIBRATED);
    let mu_nom = c.predicted_mu(0, [0.6, 0.6, 0.6], UNIFORM);
    // Uniform (1,1,1) accumulates all three degradations -> smaller μ.
    assert!(mu_nom < mu_amoeba * 0.75, "{mu_nom} vs {mu_amoeba}");
    // With no contention at all the two readings coincide: the
    // pessimism is about degradations, not the base latency.
    let idle_nom = c.predicted_mu(0, [0.0; 3], UNIFORM);
    let idle_cal = c.predicted_mu(0, [0.0; 3], CALIBRATED);
    assert!((idle_nom - idle_cal).abs() / idle_cal < 1e-6);
}

#[test]
fn lambda_max_shrinks_under_contention() {
    let c = controller_with(vec![benchmarks::float()]);
    let lam_idle = c.lambda_max(0, [0.0; 3], CALIBRATED);
    let lam_pressed = c.lambda_max(0, [0.8, 0.2, 0.0], CALIBRATED);
    assert!(lam_idle > 0.0);
    assert!(
        lam_pressed < lam_idle,
        "contention must lower the switch point: {lam_pressed} vs {lam_idle}"
    );
}

#[test]
fn decide_switches_down_at_low_load() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let now = SimTime::from_secs(100);
    // 2 qps — far below the idle-platform admissible load.
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    let d = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::SwitchToServerless);
}

#[test]
fn decide_stays_on_iaas_at_high_load() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let now = SimTime::from_secs(100);
    // 120 qps = peak.
    for i in 0..480 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 8));
    }
    let d = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::Stay);
}

#[test]
fn decide_switches_up_when_load_rises_on_serverless() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let now = SimTime::from_secs(100);
    for i in 0..480 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 8));
    }
    let d = c.decide(
        0,
        DeployMode::Serverless,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::SwitchToIaas);
}

#[test]
fn contention_moves_the_switch_point() {
    // The paper's core claim: there is no fixed switch load — under
    // heavy IO pressure, an IO-bound service must stay on IaaS at a
    // load it could happily serve on an idle pool.
    let mut c = controller_with(vec![benchmarks::dd()]);
    let now = SimTime::from_secs(100);
    // 6 qps.
    for i in 0..24 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 160));
    }
    let idle = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(idle, Decision::SwitchToServerless);
    let io_storm = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0, 0.93, 0.0],
        CALIBRATED,
        &[],
    );
    assert_eq!(
        io_storm,
        Decision::Stay,
        "IO-bound service must not move into an IO storm"
    );
    // A CPU-bound service at comparable relative load is unaffected
    // by the same IO storm (paper: "a CPU-bound microservice can be
    // safely switched").
    let mut c2 = controller_with(vec![benchmarks::float()]);
    for i in 0..24 {
        c2.record_arrival(0, now - SimDuration::from_millis(i * 160));
    }
    let d = c2.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0, 0.93, 0.0],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::SwitchToServerless);
}

#[test]
fn dwell_time_prevents_flapping() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let now = SimTime::from_secs(10);
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    // Switched 2s ago, dwell is 8s.
    let d = c.decide(
        0,
        DeployMode::Iaas,
        now,
        now - SimDuration::from_secs(2),
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::Stay);
}

#[test]
fn impact_check_vetoes_harmful_switch() {
    // dd (heavy IO per query) moving in at high load must not be
    // allowed to wreck a co-located IO-sensitive service already
    // near its QoS.
    let mut c = controller_with(vec![benchmarks::dd(), benchmarks::cloud_stor()]);
    let ok = c.impact_ok(0, 40.0, [0.0, 0.55, 0.3], &[(1, 30.0)]);
    assert!(
        !ok,
        "switching 40qps of dd into an IO-pressed pool must be vetoed"
    );
    let ok_low = c.impact_ok(0, 1.0, [0.0, 0.1, 0.0], &[(1, 5.0)]);
    assert!(ok_low, "a tiny load on a quiet pool is harmless");
    let _ = &mut c;
}

#[test]
fn gain_calibration_converges() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let pressures = [0.2, 0.0, 0.0];
    let raw_pred = {
        // Raw (gain-1) prediction.
        c.predicted_service_time(0, pressures, CALIBRATED)
    };
    // Observed service times are consistently 1.5x the raw model.
    for _ in 0..200 {
        c.observe_service_time(0, raw_pred * 1.5, pressures, CALIBRATED);
    }
    assert!((c.gain(0) - 1.5).abs() < 0.05, "gain {}", c.gain(0));
    let pred = c.predicted_service_time(0, pressures, CALIBRATED);
    assert!((pred - raw_pred * 1.5).abs() / pred < 0.05);
}

#[test]
fn gain_is_clamped() {
    let mut c = controller_with(vec![benchmarks::float()]);
    for _ in 0..500 {
        c.observe_service_time(0, 1e6, [0.0; 3], CALIBRATED);
    }
    assert!(c.gain(0) <= 4.0);
    for _ in 0..500 {
        c.observe_service_time(0, 1e-9, [0.0; 3], CALIBRATED);
    }
    assert!(c.gain(0) >= 0.25);
}

#[test]
fn own_pressure_subtraction() {
    let c = controller_with(vec![benchmarks::float()]);
    let p = c.adjust_pressures(0, [0.5, 0.1, 0.1], 40.0, OwnPressure::Removed);
    assert!(p[0] < 0.5, "own cpu contribution removed: {p:?}");
    assert!(p.iter().all(|&x| x >= 0.0));
    // Subtracting more than present clamps at zero.
    let p = c.adjust_pressures(0, [0.01, 0.0, 0.0], 500.0, OwnPressure::Removed);
    assert_eq!(p[0], 0.0);
}

#[test]
fn with_and_without_own_are_inverse_below_clamp() {
    let c = controller_with(vec![benchmarks::dd()]);
    let env = [0.1, 0.2, 0.05];
    let load = 8.0;
    let with = c.adjust_pressures(0, env, load, OwnPressure::Added);
    let back = c.adjust_pressures(0, with, load, OwnPressure::Removed);
    for r in 0..3 {
        assert!((back[r] - env[r]).abs() < 1e-9, "{back:?} vs {env:?}");
    }
}

#[test]
fn decide_explained_matches_decide_and_carries_reasons() {
    let mut c = controller_with(vec![benchmarks::float()]);
    let now = SimTime::from_secs(100);
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    // Low load on IaaS: switch down, reason LoadBelowDownMargin.
    let (d, tr) = c.decide_explained(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::SwitchToServerless);
    assert_eq!(tr.reason, TickReason::LoadBelowDownMargin);
    let eq5 = tr.discriminant.expect("the verdict read λ(μ)");
    assert!(tr.load_qps > 0.0 && tr.load_qps < eq5.lambda_max);
    assert!(eq5.mu > 0.0);
    // Dwell pending: Stay regardless of load, with the dwell reason —
    // Eq. 5 unread, but the record still gets its quantities.
    let (d, mut tr) = c.decide_explained(
        0,
        DeployMode::Iaas,
        now,
        now - SimDuration::from_secs(2),
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::Stay);
    assert_eq!(tr.reason, TickReason::DwellPending);
    assert_eq!(tr.discriminant, None);
    assert!(c.fill_discriminant(0, &mut tr).lambda_max > 0.0);
    // decide() is the explained verdict with the trace discarded.
    let d2 = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d2, Decision::SwitchToServerless);
}

/// At zero load a serverless-resident service stays whatever `λ(μ)`
/// is, so its verdict reads no Eq. 5; an IaaS-resident one switches
/// down exactly when `λ(μ) > 0`, so its verdict must read it. Either
/// way the record's `μ` and `λ(μ)` are the controller's own at the
/// trace's pressures, bit for bit.
#[test]
fn zero_load_reads_eq5_only_where_the_verdict_depends_on_it() {
    // One service time of `float` alone misses a 1 ms target, so its
    // λ(μ) is exactly 0; at the spec's own target it is positive.
    let mut tight = benchmarks::float();
    tight.qos_target_s = 1e-3;
    let c = controller_with(vec![tight, benchmarks::float()]);
    let now = SimTime::from_secs(100);
    let pressures = [0.3, 0.1, 0.0];
    let same_as_controller = |idx: usize, tr: &DecisionTrace, eq5: Discriminant| {
        let mu = c.predicted_mu(idx, tr.pressures, CALIBRATED);
        let lambda_max = c.lambda_max(idx, tr.pressures, CALIBRATED);
        assert_eq!(eq5.mu.to_bits(), mu.to_bits());
        assert_eq!(eq5.lambda_max.to_bits(), lambda_max.to_bits());
    };
    for (idx, admissible) in [(1, true), (0, false)] {
        let decide = |mode| c.decide(idx, mode, now, SimTime::ZERO, pressures, CALIBRATED, &[]);
        let explain =
            |mode| c.decide_explained(idx, mode, now, SimTime::ZERO, pressures, CALIBRATED, &[]);

        assert_eq!(decide(DeployMode::Serverless), Decision::Stay);
        let (d, mut tr) = explain(DeployMode::Serverless);
        assert_eq!(
            (d, tr.reason),
            (Decision::Stay, TickReason::LoadBelowUpMargin)
        );
        assert_eq!(tr.eval_qps, 0.0);
        assert_eq!(tr.discriminant, None, "service {idx}: Eq. 5 evaluated");
        let eq5 = c.fill_discriminant(idx, &mut tr);
        same_as_controller(idx, &tr, eq5);
        assert_eq!(
            eq5.lambda_max > 0.0,
            admissible,
            "λ(μ) = {}",
            eq5.lambda_max
        );
        assert_eq!(tr.discriminant, Some(eq5), "filled once, kept");

        let want = if admissible {
            (
                Decision::SwitchToServerless,
                TickReason::LoadBelowDownMargin,
            )
        } else {
            (Decision::Stay, TickReason::LoadAboveDownMargin)
        };
        assert_eq!(decide(DeployMode::Iaas), want.0);
        let (d, tr) = explain(DeployMode::Iaas);
        assert_eq!((d, tr.reason), want, "service {idx}");
        let eq5 = tr.discriminant.expect("the IaaS verdict reads λ(μ)");
        same_as_controller(idx, &tr, eq5);
    }
}

/// Test stub: a forecaster pinned to one value regardless of input.
struct FixedForecast(f64);

impl Forecaster for FixedForecast {
    fn observe(&mut self, _t: SimTime, _lambda_qps: f64) {}
    fn predict(&self, _horizon: SimDuration) -> amoeba_forecast::ForecastInterval {
        amoeba_forecast::ForecastInterval::point(self.0)
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

fn proactive_cfg() -> ControllerConfig {
    ControllerConfig {
        proactive: Some(ProactiveConfig {
            up_horizon: SimDuration::from_secs(6),
            down_horizon: SimDuration::from_secs(3),
        }),
    }
}

#[test]
fn proactive_forecast_advances_the_switch_up() {
    // Serverless-resident at a tiny current load, but the forecast
    // says the rush arrives within the VM boot time: Amoeba-Pro
    // boots now, reactive Amoeba waits until the load is already
    // there.
    let mut c = DeploymentController::new(proactive_cfg());
    c.register(model_for(benchmarks::float()));
    let now = SimTime::from_secs(100);
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    let reactive = c.decide(
        0,
        DeployMode::Serverless,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(reactive, Decision::Stay, "no forecaster: reactive rule");
    c.attach_forecaster(0, Box::new(FixedForecast(200.0)));
    let (d, tr) = c.decide_explained(
        0,
        DeployMode::Serverless,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::SwitchToIaas);
    assert_eq!(tr.eval_qps, 200.0);
    assert!(tr.load_qps < 3.0, "current load still low: {}", tr.load_qps);
    let fc = tr.forecast.expect("forecast snapshot recorded");
    assert_eq!(fc.horizon, SimDuration::from_secs(6));
    assert_eq!(fc.hi, 200.0);
}

#[test]
fn proactive_forecast_holds_a_doomed_switch_down() {
    // IaaS-resident, load momentarily low enough to switch down, but
    // the forecast upper bound at the prewarm horizon is above the
    // admission margin: stay — the pool would have to hand the
    // service straight back.
    let mut c = DeploymentController::new(proactive_cfg());
    c.register(model_for(benchmarks::float()));
    let now = SimTime::from_secs(100);
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    let reactive = c.decide(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(reactive, Decision::SwitchToServerless);
    c.attach_forecaster(0, Box::new(FixedForecast(200.0)));
    let (d, tr) = c.decide_explained(
        0,
        DeployMode::Iaas,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    assert_eq!(d, Decision::Stay);
    assert_eq!(tr.reason, TickReason::LoadAboveDownMargin);
    assert_eq!(
        tr.forecast.expect("snapshot").horizon,
        SimDuration::from_secs(3),
        "IaaS-resident decisions look ahead by the down horizon"
    );
}

#[test]
fn observe_load_feeds_the_forecaster() {
    let mut c = DeploymentController::new(proactive_cfg());
    c.register(model_for(benchmarks::float()));
    c.attach_forecaster(0, Box::new(amoeba_forecast::Naive::new()));
    let now = SimTime::from_secs(100);
    for i in 0..8 {
        c.record_arrival(0, now - SimDuration::from_millis(i * 450));
    }
    c.observe_load(0, now);
    let (_, tr) = c.decide_explained(
        0,
        DeployMode::Serverless,
        now,
        SimTime::ZERO,
        [0.0; 3],
        CALIBRATED,
        &[],
    );
    let fc = tr.forecast.expect("snapshot");
    assert!(
        (fc.mean - tr.load_qps).abs() < 1e-9,
        "naive forecast echoes the observed load: {} vs {}",
        fc.mean,
        tr.load_qps
    );
    // Unchanged decision semantics: eval is the max of both.
    assert!((tr.eval_qps - tr.load_qps.max(fc.hi)).abs() < 1e-12);
}

#[test]
fn admissible_load_is_the_self_consistent_fixed_point() {
    let c = controller_with(vec![benchmarks::dd()]);
    let env = [0.05, 0.15, 0.05];
    let lam = c.admissible_load(0, env, CALIBRATED);
    assert!(lam > 0.0, "dd must be admissible at mild pressure");
    // Just inside: the predicate holds at the pressure the load
    // itself creates.
    let p_in = c.adjust_pressures(0, env, lam * 0.98, OwnPressure::Added);
    assert!(
        lam * 0.98 <= c.lambda_max(0, p_in, CALIBRATED),
        "fixed point not satisfied from below"
    );
    // Just outside: it fails.
    let p_out = c.adjust_pressures(0, env, lam * 1.05, OwnPressure::Added);
    assert!(
        lam * 1.05 > c.lambda_max(0, p_out, CALIBRATED),
        "fixed point not binding from above"
    );
}

#[test]
fn admissible_load_shrinks_with_environment_pressure() {
    let c = controller_with(vec![benchmarks::dd()]);
    let mut prev = f64::MAX;
    for io in [0.0, 0.2, 0.4, 0.6] {
        let lam = c.admissible_load(0, [0.0, io, 0.0], CALIBRATED);
        assert!(
            lam <= prev + 1e-9,
            "not monotone at io={io}: {lam} > {prev}"
        );
        prev = lam;
    }
}

#[test]
fn admissible_load_zero_when_environment_already_violates() {
    // An IO-saturated pool cannot admit dd at any load.
    let c = controller_with(vec![benchmarks::dd()]);
    let lam = c.admissible_load(0, [0.0, 0.95, 0.0], CALIBRATED);
    assert_eq!(lam, 0.0);
}

#[test]
fn cpu_pure_service_ignores_io_environment_in_admission() {
    let c = controller_with(vec![benchmarks::float()]);
    let clean = c.admissible_load(0, [0.0; 3], CALIBRATED);
    let io_storm = c.admissible_load(0, [0.0, 0.85, 0.0], CALIBRATED);
    assert!(
        (clean - io_storm).abs() / clean < 0.05,
        "float's admission moved under IO pressure: {clean} vs {io_storm}"
    );
}
