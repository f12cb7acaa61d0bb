//! The simulated serverless pool against the queueing model the
//! controller trusts (Eq. 5's M/M/N, `crates/queueing`).
//!
//! One `float` service runs under OpenWhisk at a flat Poisson rate on a
//! warm pool of `N` containers: no contention (κ = 0), no per-query
//! overheads, keep-alive past the horizon and no meters, so the pool is
//! an N-server FIFO queue whose service time is the solo execution
//! time with lognormal jitter σ. Its mean wait (mean latency minus mean
//! service time) is compared with the Allen–Cunneen approximation,
//! `E[W_M/M/N] · (1 + C_s²) / 2` with `C_s² = e^{σ²} − 1`, which is the
//! exact Pollaczek–Khinchine formula at N = 1. Eq. 5's M/M/N must
//! over-predict the wait at every point: that is the margin that makes
//! the controller conservative (DESIGN.md §4).

use amoeba::core::{Experiment, ServiceSetup, SystemVariant};
use amoeba::platform::ServerlessConfig;
use amoeba::queueing::MmnModel;
use amoeba::sim::SimDuration;
use amoeba::workload::{benchmarks, DiurnalPattern, LoadTrace};

const RHOS: [f64; 3] = [0.5, 0.7, 0.85];
const SIGMAS: [f64; 2] = [0.0, 0.05];
const HORIZON_S: f64 = 4_000.0;
const SEED: u64 = 1;

/// One sweep point: the simulated mean wait, the Allen–Cunneen
/// reference and the M/M/N mean wait, in seconds.
struct Point {
    sim: f64,
    allen_cunneen: f64,
    mmn: f64,
}

fn measure(n: u32, rho: f64, sigma: f64) -> Point {
    let spec = benchmarks::float();
    let cfg = ServerlessConfig {
        tenant_container_cap: n,
        keep_alive: SimDuration::from_secs_f64(2.0 * HORIZON_S),
        auth_s: 0.0,
        code_load_base_s: 0.0,
        code_load_s_per_mb: 0.0,
        result_post_s: 0.0,
        slowdown_kappa: [0.0; 3],
        exec_jitter_sigma: sigma,
        ..ServerlessConfig::default()
    };
    let solo = spec
        .demand
        .solo_exec_seconds(cfg.per_flow_io_mbps, cfg.per_flow_net_mbps);
    let mean_service = solo * (sigma * sigma / 2.0).exp();
    let lambda = rho * f64::from(n) / mean_service;
    let trace = LoadTrace::new(DiurnalPattern::flat(1.0), lambda, HORIZON_S);
    let mut run = Experiment::builder(
        SystemVariant::OpenWhisk,
        SimDuration::from_secs_f64(HORIZON_S),
        SEED,
    )
    .service(ServiceSetup {
        spec,
        trace,
        background: false,
    })
    .serverless_cfg(cfg)
    .run_meters(false)
    .warmup(SimDuration::from_secs(100))
    .build()
    .run();
    let svc = &mut run.services[0];
    let latency = svc.latency.mean().expect("queries completed").as_secs_f64();
    let sim = latency - svc.breakdown.exec_s;
    let mmn = MmnModel::new(n, 1.0 / mean_service)
        .and_then(|m| m.mean_wait(lambda))
        .expect("a stable M/M/N queue");
    let cs2 = (sigma * sigma).exp() - 1.0;
    Point {
        sim,
        allen_cunneen: mmn * (1.0 + cs2) / 2.0,
        mmn,
    }
}

/// Sweep ρ × σ at `n` containers. At N = 1 the simulated wait must be
/// within 7 % of Pollaczek–Khinchine; at N > 1 within 15 % of
/// Allen–Cunneen for ρ ≥ 0.7 (at ρ = 0.5 the approximation itself is
/// loose, so it is not asserted); everywhere M/M/N must over-predict it
/// at least 1.4×.
fn check(n: u32) {
    for rho in RHOS {
        for sigma in SIGMAS {
            let p = measure(n, rho, sigma);
            let ratio = p.sim / p.allen_cunneen;
            let at = format!(
                "N={n} rho={rho} sigma={sigma}: sim {:.6} s, Allen-Cunneen {:.6} s, M/M/N {:.6} s",
                p.sim, p.allen_cunneen, p.mmn
            );
            if n == 1 {
                assert!((ratio - 1.0).abs() <= 0.07, "{at}");
            } else if rho >= 0.7 {
                assert!((ratio - 1.0).abs() <= 0.15, "{at}");
            }
            assert!(p.mmn >= 1.4 * p.sim, "{at}");
        }
    }
}

#[test]
fn one_container_matches_pollaczek_khinchine() {
    check(1);
}

#[test]
fn two_containers_match_allen_cunneen() {
    check(2);
}

#[test]
fn four_containers_match_allen_cunneen() {
    check(4);
}

#[test]
fn eight_containers_match_allen_cunneen() {
    check(8);
}
