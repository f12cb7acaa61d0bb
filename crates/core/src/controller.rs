// Indexing `0..3` over the fixed [cpu, io, net] resource axes reads
// better than zipped iterators here.
#![allow(clippy::needless_range_loop)]

//! The contention-aware deployment controller (§IV).
//!
//! Per control period and per service the controller:
//!
//! 1. estimates the service's load `V_u` (arrivals over a sliding
//!    window);
//! 2. takes the platform pressure `P = {P_cpu, P_io, P_net}` from the
//!    monitor, minus the service's own contribution when it is already
//!    running on the serverless platform;
//! 3. looks up the per-resource predicted latencies `L₁, L₂, L₃` in the
//!    profiled latency surfaces (Fig. 9) and combines them with the
//!    monitor's PCA weights into the per-container processing capacity
//!    `μ` (Eq. 6), calibrated by a feedback gain that converges `μ` to
//!    the real capacity (§VI-A);
//! 4. evaluates the discriminant `λ(μ)` (Eq. 5) on the M/M/N model with
//!    the container ceiling `n_max` (§IV-A) and compares the observed
//!    load against it, with a hysteresis band so the deployment does not
//!    flap;
//! 5. refuses a switch to serverless that would push any co-located
//!    service past its own QoS target (§III).

use amoeba_forecast::Forecaster;
use amoeba_meters::LatencySurface;
use amoeba_platform::{ServerlessConfig, ServerlessPlatform, ServiceId};
use amoeba_queueing::MmnModel;
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{Decision, DeployMode, TickReason};
use amoeba_workload::MicroserviceSpec;
use std::collections::VecDeque;

/// Whose pressure contribution [`DeploymentController::adjust_pressures`]
/// applies: project the service's own serverless footprint onto the
/// measured pressure, or strip it back out. The two operations are
/// inverses below the clamps, and pairing them through one entry point
/// keeps callers from mixing up which direction a given mode requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnPressure {
    /// Add the service's projected contribution at the given load (an
    /// IaaS-resident candidate being evaluated for admission — the pool
    /// has not felt it yet). Clamped to ≤ 0.97 per resource.
    Added,
    /// Remove the service's contribution at the given load (a
    /// pool-resident service whose own traffic must not read as
    /// co-tenant contention). Clamped to ≥ 0 per resource.
    Removed,
}

/// The forecast a proactive decision was evaluated against, for the
/// telemetry record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastSnapshot {
    /// Horizon the forecast targets (the relevant switch latency).
    pub horizon: SimDuration,
    /// Point forecast of λ at `now + horizon`, queries/second.
    pub mean: f64,
    /// Lower bound of the forecast band.
    pub lo: f64,
    /// Upper bound — what Eq. 5 was evaluated against.
    pub hi: f64,
}

/// Switch an IaaS-resident service to serverless when
/// `V_u < DOWN_MARGIN · λ(μ)` (and the §III impact check passes).
pub const DOWN_MARGIN: f64 = 0.65;

/// Switch a serverless-resident service to IaaS when
/// `V_u > UP_MARGIN · λ(μ)`. Non-negative, so zero load never switches
/// up: [`DeploymentController::decide_explained`] relies on it to skip
/// Eq. 5 for idle serverless services.
pub const UP_MARGIN: f64 = 0.85;

/// Minimum time between switches of one service (anti-flapping).
pub const MIN_DWELL: SimDuration = SimDuration::from_secs(8);

/// Sliding window over which arrivals estimate the load `V_u`.
pub const LOAD_WINDOW: SimDuration = SimDuration::from_secs(4);

/// EWMA factor of the μ-calibration gain.
pub const GAIN_ALPHA: f64 = 0.15;

/// Eq. 6's per-container capacity `μ` and the Eq. 5 discriminant
/// `λ(μ)` it yields, at one effective pressure vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discriminant {
    /// Eq. 6 predicted per-container capacity `μ`, queries/second.
    pub mu: f64,
    /// Eq. 5 discriminant `λ(μ)`: the maximum admissible load, never
    /// negative or NaN.
    pub lambda_max: f64,
}

/// The intermediate quantities behind one
/// [`DeploymentController::decide_explained`] verdict — everything Eq. 5
/// and Eq. 6 saw and produced, for the telemetry tick record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// Estimated load `V_u`, queries/second.
    pub load_qps: f64,
    /// The load Eq. 5 was actually compared against:
    /// `max(load_qps, forecast.hi)` in proactive mode, `load_qps`
    /// otherwise.
    pub eval_qps: f64,
    /// The effective pressure vector the discriminant is evaluated at
    /// (own contribution projected in for an IaaS candidate).
    pub pressures: [f64; 3],
    /// The Eq. 6 weights the discriminant is evaluated with.
    pub weights: [f64; 3],
    /// `μ` and `λ(μ)` at `pressures` and `weights`, when the verdict
    /// read them. `None` when it did not — a pending dwell, or a
    /// serverless-resident service at zero load;
    /// [`DeploymentController::fill_discriminant`] evaluates them then.
    pub discriminant: Option<Discriminant>,
    /// Why the verdict came out the way it did.
    pub reason: TickReason,
    /// The forecast behind `eval_qps`, when the service has one.
    pub forecast: Option<ForecastSnapshot>,
}

/// Horizons for the proactive (Amoeba-Pro) decision rule: how far ahead
/// the controller looks is exactly how long the corresponding switch
/// takes to become effective — a decision made now lands then.
#[derive(Debug, Clone, Copy)]
pub struct ProactiveConfig {
    /// Lookahead for a serverless-resident service considering a switch
    /// up to IaaS (VM boot plus one control period).
    pub up_horizon: SimDuration,
    /// Lookahead for an IaaS-resident service considering a switch down
    /// to serverless (container prewarm plus one control period).
    pub down_horizon: SimDuration,
}

/// Controller tuning. The hysteresis band ([`DOWN_MARGIN`],
/// [`UP_MARGIN`]), the dwell ([`MIN_DWELL`]), the load window
/// ([`LOAD_WINDOW`]) and the calibration rate ([`GAIN_ALPHA`]) are fixed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerConfig {
    /// Proactive lookahead horizons. `None` (the default) keeps the
    /// paper's reactive rule; `Some` makes every decision for a service
    /// with an attached forecaster evaluate Eq. 5 against the upper
    /// forecast bound at the switch latency.
    pub proactive: Option<ProactiveConfig>,
}

/// Everything the controller knows about one service.
pub struct ServiceModel {
    /// The service's spec (QoS target, percentile, peak load).
    pub spec: MicroserviceSpec,
    /// Solo end-to-end latency `L₀` on the serverless platform, seconds
    /// (includes the per-query overhead `α`).
    pub l0_s: f64,
    /// Latency surfaces per metered resource [cpu, io, net] (Fig. 9).
    pub surfaces: [LatencySurface; 3],
    /// Utilisation added to resource `r` per unit of load (qps) when this
    /// service runs serverless: `ΔU_r = V_u · l0 · rate_r / capacity_r`
    /// precomputed as per-qps values.
    pub util_per_qps: [f64; 3],
    /// Container ceiling `n_max` (§IV-A).
    pub n_max: u32,
}

impl ServiceModel {
    /// The controller's model of `sid` from analytic profiling of the
    /// serverless platform it is registered on: solo latency, per-qps
    /// utilisation, and Fig. 9 latency surfaces over a load grid
    /// around the spec's peak and a fixed pressure grid. `cfg` is the
    /// configuration the platform models (slowdown response and node
    /// capacity).
    pub fn profiled(
        serverless: &ServerlessPlatform,
        sid: ServiceId,
        cfg: &ServerlessConfig,
        n_max: u32,
    ) -> ServiceModel {
        let spec = serverless.spec(sid);
        let phases = serverless.service_phases(sid);
        let overhead = serverless.overhead_seconds(sid);
        let l0 = serverless.solo_latency_seconds(sid);
        let rates = serverless.service_rates(sid);
        let rate_arr = [rates.cpu_cores, rates.io_mbps, rates.net_mbps];
        let caps = [cfg.node.cores, cfg.node.disk_bw_mbps, cfg.node.nic_bw_mbps];
        let mut loads: Vec<f64> = vec![
            0.5,
            spec.peak_qps * 0.25,
            spec.peak_qps * 0.5,
            spec.peak_qps * 0.75,
            spec.peak_qps,
            spec.peak_qps * 1.25,
        ];
        loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
        loads.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let pressures = vec![0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
        let surfaces: [LatencySurface; 3] = [0, 1, 2].map(|r| {
            LatencySurface::analytic(
                phases,
                overhead,
                r,
                cfg.slowdown_kappa[r],
                n_max,
                spec.qos_percentile,
                loads.clone(),
                pressures.clone(),
            )
        });
        let util_per_qps = [0, 1, 2].map(|r| l0 * rate_arr[r] / caps[r]);
        ServiceModel {
            spec: spec.clone(),
            l0_s: l0,
            surfaces,
            util_per_qps,
            n_max,
        }
    }
}

struct ServiceState {
    model: ServiceModel,
    arrivals: VecDeque<SimTime>,
    gain: f64,
    forecaster: Option<Box<dyn Forecaster + Send>>,
    /// External λ-shift hint: the arrival rate this service is *about*
    /// to see, known upstream of its own measured window (a workflow
    /// stage's successors see the root's λ after the upstream
    /// latencies, so their own windows lag load changes and go stale
    /// across an upstream switch). `None` — the default, and the only
    /// state non-workflow runs ever observe — leaves decisions purely
    /// measurement-driven.
    load_hint: Option<f64>,
}

/// The deployment controller for a set of services.
pub struct DeploymentController {
    cfg: ControllerConfig,
    services: Vec<ServiceState>,
}

impl DeploymentController {
    /// An empty controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        DeploymentController {
            cfg,
            services: Vec::new(),
        }
    }

    /// Register a service model; indices align with registration order
    /// (and thus with the platforms' `ServiceId`s).
    pub fn register(&mut self, model: ServiceModel) -> usize {
        self.services.push(ServiceState {
            model,
            arrivals: VecDeque::new(),
            gain: 1.0,
            forecaster: None,
            load_hint: None,
        });
        self.services.len() - 1
    }

    /// Set (or clear) the λ-shift hint for a service. The next
    /// [`Self::decide`] evaluates Eq. 5 against the max of the measured
    /// load, the forecast bound and this hint — conservative toward
    /// QoS, like the proactive bound: a hint can only delay a switch
    /// down or advance a switch up.
    pub fn set_load_hint(&mut self, idx: usize, hint: Option<f64>) {
        self.services[idx].load_hint = hint.filter(|h| h.is_finite() && *h >= 0.0);
    }

    /// Attach a load forecaster to a service. Until one is attached (or
    /// when [`ControllerConfig::proactive`] is `None`) decisions stay
    /// purely reactive.
    pub fn attach_forecaster(&mut self, idx: usize, forecaster: Box<dyn Forecaster + Send>) {
        self.services[idx].forecaster = Some(forecaster);
    }

    /// Feed the current load estimate to the service's forecaster (call
    /// once per control tick, before [`Self::decide`]). A no-op without
    /// an attached forecaster, so callers need not special-case reactive
    /// variants.
    pub fn observe_load(&mut self, idx: usize, now: SimTime) {
        let load = self.estimated_load(idx, now);
        if let Some(f) = self.services[idx].forecaster.as_mut() {
            f.observe(now, load);
        }
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Record a query arrival (drives the load estimator).
    pub fn record_arrival(&mut self, idx: usize, at: SimTime) {
        let s = &mut self.services[idx];
        s.arrivals.push_back(at);
        // Prune outside the window as we go to bound memory.
        let cutoff = at.as_micros().saturating_sub(LOAD_WINDOW.as_micros());
        while let Some(front) = s.arrivals.front() {
            if front.as_micros() < cutoff {
                s.arrivals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Estimated load `V_u` in queries/second at `now`: the arrivals
    /// inside the last [`LOAD_WINDOW`], per second.
    pub fn estimated_load(&self, idx: usize, now: SimTime) -> f64 {
        let cutoff = now.as_micros().saturating_sub(LOAD_WINDOW.as_micros());
        let count = self.services[idx]
            .arrivals
            .iter()
            .filter(|t| t.as_micros() >= cutoff)
            .count();
        count as f64 / LOAD_WINDOW.as_secs_f64()
    }

    /// Eq. 6: the predicted per-container processing capacity `μ` under
    /// pressure `P` with weights `w`, scaled by the service's calibration
    /// gain. `L_i` is the surface latency at the low-load edge (pure
    /// contention effect — queueing is the M/M/N model's job, not the
    /// surface's). The service time combines the solo latency with the
    /// weighted per-resource *degradations*:
    ///
    /// ```text
    /// S = gain · (L₀ + Σ_i w_i · (L_i − L₀)),   μ = 1/S
    /// ```
    ///
    /// With `w = (1,1,1)` this is exactly Amoeba-NoM's "pessimistically
    /// assume that the QoS degradations due to the contention on each of
    /// the shared resources are accumulated" (§VII-C); with the monitor's
    /// PCA weights, correlated resources are merged instead of
    /// double-counted.
    pub fn predicted_mu(&self, idx: usize, pressures: [f64; 3], weights: [f64; 3]) -> f64 {
        let service_time = self.predicted_service_time(idx, pressures, weights);
        debug_assert!(service_time > 0.0);
        1.0 / service_time
    }

    /// The Eq. 6 denominator: `gain · Σ w_i · L_i` (the overhead `α` is
    /// part of each surface's latency already).
    pub fn predicted_service_time(
        &self,
        idx: usize,
        pressures: [f64; 3],
        weights: [f64; 3],
    ) -> f64 {
        let s = &self.services[idx];
        (s.gain * self.raw_service_time(idx, pressures, weights)).max(1e-6)
    }

    /// The uncalibrated Eq. 6 denominator `L₀ + Σ w_i·(L_i − L₀)`.
    fn raw_service_time(&self, idx: usize, pressures: [f64; 3], weights: [f64; 3]) -> f64 {
        let s = &self.services[idx];
        let (loads, _) = s.model.surfaces[0].axes();
        let low_load = loads[0];
        let mut acc = s.model.l0_s;
        for r in 0..3 {
            let l_i = s.model.surfaces[r].predict(low_load, pressures[r]);
            acc += weights[r] * (l_i - s.model.l0_s).max(0.0);
        }
        acc
    }

    /// Feed back an observed serverless service time (end-to-end minus
    /// queue wait and cold start) to calibrate the gain, converging `μₙ`
    /// to the real capacity (§VI-A).
    pub fn observe_service_time(
        &mut self,
        idx: usize,
        observed_s: f64,
        pressures: [f64; 3],
        weights: [f64; 3],
    ) {
        if !(observed_s.is_finite() && observed_s > 0.0) {
            return;
        }
        let raw_pred = self.raw_service_time(idx, pressures, weights);
        if raw_pred <= 0.0 {
            return;
        }
        let target = observed_s / raw_pred;
        let s = &mut self.services[idx];
        s.gain += GAIN_ALPHA * (target - s.gain);
        s.gain = s.gain.clamp(0.25, 4.0);
    }

    /// The current calibration gain (diagnostics).
    pub fn gain(&self, idx: usize) -> f64 {
        self.services[idx].gain
    }

    /// Eq. 5 resolved: the maximum admissible load `λ(μ)` for this
    /// service under the given pressure and weights.
    pub fn lambda_max(&self, idx: usize, pressures: [f64; 3], weights: [f64; 3]) -> f64 {
        self.discriminant(idx, pressures, weights).lambda_max
    }

    /// Eq. 6's `μ` under the given pressure and weights, and the Eq. 5
    /// discriminant `λ(μ)` on the service's M/M/`n_max` model.
    pub fn discriminant(&self, idx: usize, pressures: [f64; 3], weights: [f64; 3]) -> Discriminant {
        let s = &self.services[idx];
        let mu = self.predicted_mu(idx, pressures, weights);
        let lambda_max = MmnModel::new(s.model.n_max.max(1), mu).map_or(0.0, |model| {
            model.discriminant_lambda(s.model.spec.qos_target_s, s.model.spec.qos_percentile)
        });
        Discriminant { mu, lambda_max }
    }

    /// The trace's `μ` and `λ(μ)`, for the telemetry record: the ones
    /// its verdict read, or, when the verdict read none, evaluated now
    /// at the trace's pressures and weights and kept in the trace. So
    /// each is computed at most once per decision, and a record carries
    /// the same values whether or not the verdict needed them.
    pub fn fill_discriminant(&self, idx: usize, tr: &mut DecisionTrace) -> Discriminant {
        *tr.discriminant
            .get_or_insert_with(|| self.discriminant(idx, tr.pressures, tr.weights))
    }

    /// The measured pressure vector with this service's own serverless
    /// contribution at `load` qps [`OwnPressure::Added`] (evaluating an
    /// IaaS-resident candidate: project its footprint onto the pool) or
    /// [`OwnPressure::Removed`] (a pool-resident service: its own
    /// traffic is not co-tenant contention).
    pub fn adjust_pressures(
        &self,
        idx: usize,
        pressures: [f64; 3],
        load: f64,
        own: OwnPressure,
    ) -> [f64; 3] {
        let s = &self.services[idx];
        let mut p = pressures;
        for r in 0..3 {
            let delta = load * s.model.util_per_qps[r];
            p[r] = match own {
                OwnPressure::Added => (p[r] + delta).min(0.97),
                OwnPressure::Removed => (p[r] - delta).max(0.0),
            };
        }
        p
    }

    /// §III: would moving `idx` (at `load` qps) onto the serverless
    /// platform keep every co-located service within its QoS target?
    /// `others` lists (service index, its current load) for services
    /// already on the platform.
    pub fn impact_ok(
        &self,
        idx: usize,
        load: f64,
        pressures: [f64; 3],
        others: &[(usize, f64)],
    ) -> bool {
        let s = &self.services[idx];
        // Added pressure from the candidate's own traffic.
        let mut p_after = pressures;
        for r in 0..3 {
            p_after[r] = (p_after[r] + load * s.model.util_per_qps[r]).min(0.98);
        }
        for &(j, load_j) in others {
            if j == idx {
                continue;
            }
            let o = &self.services[j].model;
            // Predicted p95 of the co-located service at its own load
            // under the increased pressure, taking the worst resource
            // (surfaces are per-resource; the worst one bounds the
            // combined effect from below — conservative enough for a
            // veto check, and independent of the weight calibration).
            let mut worst: f64 = 0.0;
            for r in 0..3 {
                worst = worst.max(o.surfaces[r].predict(load_j, p_after[r]));
            }
            if worst > o.spec.qos_target_s {
                return false;
            }
        }
        true
    }

    /// The full decision for one service at one control tick.
    ///
    /// `mode` is the service's current deployment, `last_switch` when it
    /// last changed, `others` the co-located serverless services for the
    /// impact check.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        idx: usize,
        mode: DeployMode,
        now: SimTime,
        last_switch: SimTime,
        pressures: [f64; 3],
        weights: [f64; 3],
        others: &[(usize, f64)],
    ) -> Decision {
        self.decide_explained(idx, mode, now, last_switch, pressures, weights, others)
            .0
    }

    /// [`Self::decide`], plus the intermediate quantities the verdict was
    /// derived from — the telemetry tick record. The decision is computed
    /// exactly once (by this method); `decide` discards the trace.
    ///
    /// Eq. 6 and Eq. 5 are evaluated only when the verdict reads them.
    /// Two verdicts do not: a pending dwell is `Stay`, and so is a
    /// serverless-resident service at zero evaluated load, because
    /// `λ(μ)` is never negative or NaN and [`UP_MARGIN`] is
    /// non-negative, so `0 > UP_MARGIN · λ(μ)` is false. Their traces
    /// carry no [`Discriminant`]; [`Self::fill_discriminant`] supplies
    /// it for a record.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_explained(
        &self,
        idx: usize,
        mode: DeployMode,
        now: SimTime,
        last_switch: SimTime,
        pressures: [f64; 3],
        weights: [f64; 3],
        others: &[(usize, f64)],
    ) -> (Decision, DecisionTrace) {
        let dwell_pending = now.duration_since(last_switch) < MIN_DWELL;
        let load = self.estimated_load(idx, now);
        // Proactive (Amoeba-Pro): evaluate Eq. 5 against the *upper*
        // forecast bound at the moment a switch started now would take
        // effect. The lookahead matches the direction under
        // consideration — a serverless-resident service is weighing a
        // switch up (VM boot), an IaaS-resident one a switch down
        // (prewarm). Taking max(current, forecast hi) is conservative
        // toward QoS: forecast uncertainty can only delay a switch down
        // or advance a switch up, never admit load the reactive rule
        // would have refused.
        let forecast = match (self.cfg.proactive, self.services[idx].forecaster.as_ref()) {
            (Some(p), Some(f)) => {
                let horizon = match mode {
                    DeployMode::Serverless => p.up_horizon,
                    DeployMode::Iaas => p.down_horizon,
                };
                let fc = f.predict(horizon);
                Some(ForecastSnapshot {
                    horizon,
                    mean: fc.mean,
                    lo: fc.lo,
                    hi: fc.hi,
                })
            }
            _ => None,
        };
        let eval_qps = forecast.map_or(load, |fc| load.max(fc.hi));
        // λ-shift: a workflow stage's true offered load is the root
        // stage's λ time-shifted by upstream latencies, so its own
        // arrival window understates imminent load while upstream
        // stages drain, switch or burst. Taking the max keeps the
        // admission test honest about what is about to arrive.
        let eval_qps = match self.services[idx].load_hint {
            Some(h) => eval_qps.max(h),
            None => eval_qps,
        };
        let p_eff = match mode {
            // Measured pressure excludes this service (it runs on
            // IaaS); project its own contribution at the candidate
            // load on top, so self-contention is part of the
            // admission decision — Fig. 9's surfaces are functions
            // of (V_u, P) for exactly this reason.
            DeployMode::Iaas => self.adjust_pressures(idx, pressures, eval_qps, OwnPressure::Added),
            // Measured pressure already includes this service's own
            // traffic: evaluate admissibility of the current load at
            // the pressure that load creates.
            DeployMode::Serverless => pressures,
        };
        let mut discriminant = None;
        let (decision, reason) = if dwell_pending {
            (Decision::Stay, TickReason::DwellPending)
        } else {
            match mode {
                DeployMode::Iaas => {
                    let lambda_max = discriminant
                        .insert(self.discriminant(idx, p_eff, weights))
                        .lambda_max;
                    if eval_qps >= DOWN_MARGIN * lambda_max {
                        (Decision::Stay, TickReason::LoadAboveDownMargin)
                    } else if !self.impact_ok(idx, eval_qps, pressures, others) {
                        (Decision::Stay, TickReason::ImpactVetoed)
                    } else {
                        (
                            Decision::SwitchToServerless,
                            TickReason::LoadBelowDownMargin,
                        )
                    }
                }
                // Zero load is below any non-negative multiple of
                // λ(μ), whatever λ(μ) is: stay without evaluating it.
                DeployMode::Serverless if eval_qps == 0.0 => {
                    (Decision::Stay, TickReason::LoadBelowUpMargin)
                }
                DeployMode::Serverless => {
                    let lambda_max = discriminant
                        .insert(self.discriminant(idx, p_eff, weights))
                        .lambda_max;
                    if eval_qps > UP_MARGIN * lambda_max {
                        (Decision::SwitchToIaas, TickReason::LoadAboveUpMargin)
                    } else {
                        (Decision::Stay, TickReason::LoadBelowUpMargin)
                    }
                }
            }
        };
        let trace = DecisionTrace {
            load_qps: load,
            eval_qps,
            pressures: p_eff,
            weights,
            discriminant,
            reason,
            forecast,
        };
        (decision, trace)
    }

    /// The self-consistent admissible load: the largest `λ` with
    /// `λ ≤ λ_max(P_env + own(λ))` — the Eq. 5 discriminant evaluated at
    /// the pressure the service itself would add at that load. This is
    /// the quantity Fig. 15 compares against the enumerated real switch
    /// point; [`Self::decide`] evaluates the same predicate at the
    /// current load.
    pub fn admissible_load(&self, idx: usize, p_env: [f64; 3], weights: [f64; 3]) -> f64 {
        let cap = self.services[idx].model.n_max as f64 * self.predicted_mu(idx, p_env, weights);
        let ok = |lam: f64| {
            let p = self.adjust_pressures(idx, p_env, lam, OwnPressure::Added);
            lam <= self.lambda_max(idx, p, weights)
        };
        if !ok(1e-3) {
            return 0.0;
        }
        let mut lo = 1e-3;
        let mut hi = cap.max(1.0);
        if ok(hi) {
            return hi;
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if ok(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The service's registered model.
    pub fn model(&self, idx: usize) -> &ServiceModel {
        &self.services[idx].model
    }
}

/// Eq. 7: the prewarm container count `n` with
/// `(n−1)/QoS_t < V_u ≤ n/QoS_t`, i.e. the smallest `n ≥ V_u · QoS_t`.
/// Degenerate inputs — zero, negative or non-finite load or target —
/// yield 0 containers rather than letting a NaN propagate through the
/// `ceil`-and-cast (which would silently produce 0 anyway on some
/// platforms and UB-adjacent garbage on others). Callers that must warm
/// at least one container clamp at the call site.
pub fn prewarm_count(load_qps: f64, qos_target_s: f64) -> u32 {
    if !(load_qps.is_finite() && load_qps > 0.0) {
        return 0;
    }
    if !(qos_target_s.is_finite() && qos_target_s > 0.0) {
        return 0;
    }
    let n = (load_qps * qos_target_s).ceil();
    n.min(u32::MAX as f64).max(1.0) as u32
}

#[cfg(test)]
#[path = "controller_tests.rs"]
mod tests;
