//! The three contention-meter functions.
//!
//! Each meter's demand vector is ~pure in one metered resource, so its
//! latency is (to first order) a function of that resource's pressure
//! alone. The meters run continuously at [`METER_QPS`] in the background
//! of the serverless platform (§VII-E sets 1 query/second each and
//! measures 1.1 % / 0.5 % / 0.6 % CPU overhead for the CPU-memory / IO /
//! network meters).

use crate::ProfileCurve;
use amoeba_platform::ServerlessConfig;
use amoeba_workload::{DemandVector, MicroserviceSpec, ResourceKind};

/// Background rate of each meter, queries/second (§VII-E).
pub const METER_QPS: f64 = 1.0;

fn meter_spec(name: &str, demand: DemandVector) -> MicroserviceSpec {
    MicroserviceSpec {
        name: name.to_string(),
        demand,
        // Meters have no QoS of their own; the target is only used by
        // spec validation, so give them a loose one.
        qos_target_s: 5.0,
        qos_percentile: 0.95,
        peak_qps: METER_QPS,
        container_mem_mb: 256.0,
    }
}

/// The CPU/memory contention meter: a pure arithmetic kernel.
pub fn cpu_meter() -> MicroserviceSpec {
    meter_spec(
        "meter_cpu",
        DemandVector {
            cpu_s: 0.040,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 0.0,
        },
    )
}

/// The IO-bandwidth contention meter: a small disk-streaming kernel.
pub fn io_meter() -> MicroserviceSpec {
    meter_spec(
        "meter_io",
        DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 30.0,
            net_mb: 0.0,
        },
    )
}

/// The network-bandwidth contention meter: a small transfer kernel.
pub fn net_meter() -> MicroserviceSpec {
    meter_spec(
        "meter_net",
        DemandVector {
            cpu_s: 0.002,
            mem_mb: 64.0,
            io_mb: 0.0,
            net_mb: 15.0,
        },
    )
}

/// The meter covering a metered resource dimension.
pub fn meter_for(kind: ResourceKind) -> MicroserviceSpec {
    match kind {
        ResourceKind::Cpu | ResourceKind::Memory => cpu_meter(),
        ResourceKind::Io => io_meter(),
        ResourceKind::Network => net_meter(),
    }
}

/// The analytic latency-vs-pressure curve (Fig. 8) of the meter for
/// resource `resource` (0 CPU, 1 IO, 2 network) on a pool configured by
/// `cfg`: the meter's solo phase times and fixed overheads through
/// [`ProfileCurve::analytic`], 40 points up to the pool's maximum
/// utilisation.
pub fn meter_curve(cfg: &ServerlessConfig, resource: usize) -> ProfileCurve {
    let m = [cpu_meter, io_meter, net_meter][resource]();
    let phases = [
        m.demand.cpu_s,
        m.demand.io_mb / cfg.per_flow_io_mbps,
        m.demand.net_mb / cfg.per_flow_net_mbps,
    ];
    let overhead = cfg.auth_s
        + cfg.code_load_base_s
        + cfg.code_load_s_per_mb * m.demand.mem_mb
        + cfg.result_post_s;
    ProfileCurve::analytic(
        phases,
        resource,
        overhead,
        cfg.slowdown_kappa[resource],
        cfg.max_utilization,
        40,
    )
}

/// Approximate CPU overhead fraction a meter adds to a platform with
/// `platform_cores` cores when run at [`METER_QPS`] — the §VII-E
/// accounting (their node: 1.1 % CPU-memory, 0.5 % IO, 0.6 % network;
/// the bound is dominated by the busiest meter since they can be
/// scheduled round-trip).
pub fn meter_overhead_fraction(meter: &MicroserviceSpec, platform_cores: f64) -> f64 {
    // Each in-flight meter query occupies ~cpu_s cores-seconds per query
    // plus a small container residency overhead.
    let per_query_core_s = meter.demand.cpu_s + 0.002;
    METER_QPS * per_query_core_s / platform_cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_workload::benchmarks::{SOLO_IO_RATE_MBPS, SOLO_NET_RATE_MBPS};
    use amoeba_workload::Sensitivity;

    #[test]
    fn meters_are_valid_specs() {
        for m in [cpu_meter(), io_meter(), net_meter()] {
            assert!(m.is_valid(), "{}", m.name);
        }
    }

    #[test]
    fn each_meter_is_pure_in_its_resource() {
        let shares =
            |m: &MicroserviceSpec| m.demand.phase_shares(SOLO_IO_RATE_MBPS, SOLO_NET_RATE_MBPS);
        let cpu = shares(&cpu_meter());
        assert!(cpu[0] > 0.95, "cpu meter shares {cpu:?}");
        let io = shares(&io_meter());
        assert!(io[1] > 0.95, "io meter shares {io:?}");
        let net = shares(&net_meter());
        assert!(net[2] > 0.95, "net meter shares {net:?}");
    }

    /// The closed-form curve starts where the platform's own model puts
    /// an uncontended meter query, and is profiled up to the pool's
    /// maximum utilisation.
    #[test]
    fn meter_curve_starts_at_the_platforms_solo_latency() {
        let cfg = ServerlessConfig::default();
        for (r, meter) in [cpu_meter(), io_meter(), net_meter()]
            .into_iter()
            .enumerate()
        {
            let mut pool = amoeba_platform::ServerlessPlatform::new(cfg);
            let sid = pool.register(meter);
            let solo = pool.solo_latency_seconds(sid);
            let curve = meter_curve(&cfg, r);
            let idle = curve.latency_at(0.0);
            assert!((idle - solo).abs() <= 1e-12 * solo, "{r}: {idle} vs {solo}");
            assert_eq!(curve.points().last().unwrap().0, cfg.max_utilization);
            assert!(curve.latency_at(cfg.max_utilization) > solo, "{r}");
        }
    }

    #[test]
    fn meter_for_maps_resources() {
        assert_eq!(meter_for(ResourceKind::Cpu).name, "meter_cpu");
        assert_eq!(meter_for(ResourceKind::Memory).name, "meter_cpu");
        assert_eq!(meter_for(ResourceKind::Io).name, "meter_io");
        assert_eq!(meter_for(ResourceKind::Network).name, "meter_net");
    }

    #[test]
    fn overhead_matches_paper_magnitude() {
        // §VII-E: CPU-memory meter ≈ 1.1 %, IO ≈ 0.5 %, net ≈ 0.6 % on a
        // 40-core node; ours should land in the same ballpark (≤ 2 %).
        let cores = 40.0;
        let cpu = meter_overhead_fraction(&cpu_meter(), cores);
        let io = meter_overhead_fraction(&io_meter(), cores);
        let net = meter_overhead_fraction(&net_meter(), cores);
        assert!(cpu < 0.02, "cpu meter overhead {cpu}");
        assert!(io < 0.01, "io meter overhead {io}");
        assert!(net < 0.01, "net meter overhead {net}");
        assert!(cpu > io && cpu > net, "CPU meter is the most expensive");
    }

    #[test]
    fn meters_have_low_sensitivity_off_dimension() {
        let io = io_meter();
        assert_eq!(
            io.demand
                .sensitivity(ResourceKind::Cpu, SOLO_IO_RATE_MBPS, SOLO_NET_RATE_MBPS),
            Sensitivity::Low
        );
    }
}
