//! Steady-state capacity probing.
//!
//! Fig. 3 and Fig. 15 both need the *actual* maximum load a deployment
//! sustains under a QoS target, found by driving the platform at a flat
//! rate and bisecting on the measured r-ile latency — the paper's
//! "λ_real achieved by enumeration".

use amoeba_core::{Experiment, ServiceSetup, SystemVariant};
use amoeba_platform::ServerlessConfig;
use amoeba_sim::SimDuration;
use amoeba_workload::{DiurnalPattern, LoadTrace, MicroserviceSpec};

/// How long each steady probe runs (simulated seconds).
const PROBE_S: f64 = 150.0;

/// `spec` at a flat `qps` plus the background services at their flat
/// rates.
fn flat_services(
    spec: &MicroserviceSpec,
    qps: f64,
    background: &[(MicroserviceSpec, f64)],
) -> Vec<ServiceSetup> {
    let day = PROBE_S * 1000.0; // flat anyway; keep the trace constant
    let flat = |spec: &MicroserviceSpec, qps: f64, background| ServiceSetup {
        trace: LoadTrace::new(DiurnalPattern::flat(1.0), qps.max(0.01), day),
        spec: spec.clone(),
        background,
    };
    let mut services = vec![flat(spec, qps, false)];
    services.extend(
        background
            .iter()
            .map(|(bg, bg_qps)| flat(bg, *bg_qps, true)),
    );
    services
}

/// Measured r-ile latency (seconds) of `spec` at a flat `qps`, deployed
/// per `variant` (use [`SystemVariant::OpenWhisk`] for serverless,
/// [`SystemVariant::Nameko`] for IaaS), with optional background
/// services also at flat rates. Returns `None` when too few queries
/// completed to call a percentile.
pub fn steady_qos_latency(
    spec: &MicroserviceSpec,
    qps: f64,
    variant: SystemVariant,
    serverless_cfg: ServerlessConfig,
    background: &[(MicroserviceSpec, f64)],
    seed: u64,
) -> Option<f64> {
    // The warm pool needs time to grow to its steady LIFO size before
    // the percentile is representative (cold-start transients are a
    // start-up artefact at a *steady* rate, not part of the sustained
    // capacity the probe measures).
    let exp = Experiment::builder(variant, SimDuration::from_secs_f64(PROBE_S), seed)
        .services(flat_services(spec, qps, background))
        .serverless_cfg(serverless_cfg)
        .warmup(SimDuration::from_secs(60))
        .build();
    let mut run = exp.run();
    let fg = &mut run.services[0];
    if fg.completed < 50 {
        return None;
    }
    fg.qos_latency()
}

/// A steady flat-rate probe returning (mean warm service latency of the
/// foreground, monitor mean pressures, final PCA weights) — the
/// calibration inputs Fig. 15 needs under the *same* conditions as the
/// λ_real enumeration.
pub fn steady_probe(
    spec: &MicroserviceSpec,
    qps: f64,
    serverless_cfg: ServerlessConfig,
    background: &[(MicroserviceSpec, f64)],
    seed: u64,
) -> (f64, [f64; 3], [f64; 3]) {
    let exp = Experiment::builder(
        SystemVariant::OpenWhisk,
        SimDuration::from_secs_f64(PROBE_S * 1.5),
        seed,
    )
    .services(flat_services(spec, qps, background))
    .serverless_cfg(serverless_cfg)
    .warmup(SimDuration::from_secs(20))
    .build();
    let run = exp.run();
    let bd = &run.services[0].breakdown;
    let mean_service = bd.auth_s + bd.code_load_s + bd.result_post_s + bd.exec_s;
    (mean_service, run.mean_pressures, run.final_weights)
}

/// The largest flat load (qps) at which `spec` still meets its QoS on
/// the given deployment — bisection over [`steady_qos_latency`].
pub fn max_steady_qps(
    spec: &MicroserviceSpec,
    variant: SystemVariant,
    serverless_cfg: ServerlessConfig,
    background: &[(MicroserviceSpec, f64)],
    lo_hint: f64,
    hi_hint: f64,
    seed: u64,
) -> f64 {
    let meets = |qps: f64| -> bool {
        match steady_qos_latency(spec, qps, variant, serverless_cfg, background, seed) {
            Some(l) => l <= spec.qos_target_s,
            None => true, // too little traffic to violate anything
        }
    };
    let mut lo = lo_hint.max(0.1);
    let mut hi = hi_hint;
    if !meets(lo) {
        return 0.0;
    }
    // Expand hi until it fails (or give up at 4x the hint).
    let cap = hi_hint * 4.0;
    while meets(hi) {
        lo = hi;
        hi *= 1.5;
        if hi > cap {
            return lo;
        }
    }
    // Bisect to ~2% relative.
    for _ in 0..12 {
        if (hi - lo) / hi < 0.02 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_workload::benchmarks;

    #[test]
    fn low_load_meets_qos_on_both_platforms() {
        let spec = benchmarks::float();
        let cfg = ServerlessConfig::default();
        let sl = steady_qos_latency(&spec, 3.0, SystemVariant::OpenWhisk, cfg, &[], 1).unwrap();
        assert!(sl <= spec.qos_target_s, "serverless p95 {sl}");
        let ia = steady_qos_latency(&spec, 3.0, SystemVariant::Nameko, cfg, &[], 1).unwrap();
        assert!(ia <= spec.qos_target_s, "iaas p95 {ia}");
        // Serverless includes the per-query overheads: strictly slower.
        assert!(sl > ia, "serverless {sl} vs iaas {ia}");
    }

    #[test]
    fn overload_violates_qos_on_serverless() {
        let spec = benchmarks::dd();
        let cfg = ServerlessConfig::default();
        // dd at its full peak saturates the disk in the shared pool.
        let l = steady_qos_latency(&spec, spec.peak_qps, SystemVariant::OpenWhisk, cfg, &[], 2)
            .unwrap();
        assert!(
            l > spec.qos_target_s,
            "p95 {l} vs target {}",
            spec.qos_target_s
        );
    }

    #[test]
    fn capacity_search_is_between_zero_and_hint_expansion() {
        let spec = benchmarks::float();
        let cfg = ServerlessConfig::default();
        let max = max_steady_qps(
            &spec,
            SystemVariant::OpenWhisk,
            cfg,
            &[],
            2.0,
            spec.peak_qps,
            3,
        );
        assert!(max > 5.0, "max {max}");
        // And the found point indeed meets QoS.
        let l =
            steady_qos_latency(&spec, max * 0.95, SystemVariant::OpenWhisk, cfg, &[], 3).unwrap();
        assert!(l <= spec.qos_target_s * 1.1, "p95 {l}");
    }
}
