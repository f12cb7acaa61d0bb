//! §II investigation experiments: Table III, Fig. 2, Fig. 3, Fig. 4.

use crate::report::{row, Report};
use crate::scenarios::{par_map, run_cell, DEFAULT_DAY_S};
use crate::steady::max_steady_qps;
use amoeba_core::SystemVariant;
use amoeba_json::json;
use amoeba_platform::{required_cores, IaasConfig, NodeConfig, ServerlessConfig};
use amoeba_workload::benchmarks::{self, SOLO_IO_RATE_MBPS, SOLO_NET_RATE_MBPS};
use amoeba_workload::ResourceKind;

/// Table II: the simulated platform configuration.
pub fn table2() -> Report {
    let mut r = Report::new("table2", "Hardware and software setup (simulated)");
    let node = NodeConfig::default();
    r.line(node.table_ii());
    let sl = ServerlessConfig::default();
    r.line(format!(
        "Serverless | container: {:.0} MB, keep-alive: {}, cold start median: {:.1}s, tenant cap: {}",
        sl.container_memory_mb, sl.keep_alive, sl.cold_start_median_s, sl.tenant_container_cap
    ));
    let ia = IaasConfig::default();
    r.line(format!(
        "IaaS       | VM: {} cores / {:.0} GB, boot: {:.0}s, sizing headroom: {:.2}",
        ia.cores_per_vm,
        ia.vm_memory_mb / 1024.0,
        ia.boot_time_s,
        ia.sizing_headroom
    ));
    r.json = json!({
        "cores": node.cores,
        "dram_mb": node.dram_mb,
        "disk_bw_mbps": node.disk_bw_mbps,
        "nic_bw_mbps": node.nic_bw_mbps,
    });
    r
}

/// Table III: benchmark sensitivity classification, derived from the
/// demand vectors (a unit test pins this to the paper's table).
pub fn table3() -> Report {
    let mut r = Report::new("table3", "The benchmarks used in the experiments");
    let w = [12, 8, 8, 10, 9];
    r.line(row(
        &[
            "Name".into(),
            "CPU".into(),
            "Memory".into(),
            "Disk I/O".into(),
            "Network".into(),
        ],
        &w,
    ));
    let mut rows = Vec::new();
    for b in benchmarks::standard_benchmarks() {
        let s = |k: ResourceKind| {
            b.demand
                .sensitivity(k, SOLO_IO_RATE_MBPS, SOLO_NET_RATE_MBPS)
                .label()
                .to_string()
        };
        let cells = [
            b.name.clone(),
            s(ResourceKind::Cpu),
            s(ResourceKind::Memory),
            s(ResourceKind::Io),
            s(ResourceKind::Network),
        ];
        r.line(row(&cells, &w));
        rows.push(json!({
            "name": b.name, "cpu": cells[1], "memory": cells[2],
            "io": cells[3], "network": cells[4],
        }));
    }
    r.json = json!(rows);
    r
}

/// Fig. 2: lowest / average / highest CPU utilisation of each benchmark
/// under pure IaaS deployment (paper: 2.6–15.1 % / 13.6–70.9 % /
/// 24.1–95.1 %).
pub fn fig2(day_s: f64, seed: u64) -> Report {
    let mut r = Report::new(
        "fig2",
        "CPU utilisation of the benchmarks with IaaS-based deployment",
    );
    let w = [12, 8, 8, 8];
    r.line(row(
        &["Name".into(), "min%".into(), "avg%".into(), "max%".into()],
        &w,
    ));
    let mut rows = Vec::new();
    let results: Vec<_> = par_map(benchmarks::standard_benchmarks(), |b| {
        (
            b.name.clone(),
            run_cell(SystemVariant::Nameko, b, day_s, seed),
        )
    });
    for (name, run) in results {
        let u = &run.services[0].usage;
        r.line(row(
            &[
                name.clone(),
                format!("{:.1}", u.min_utilization * 100.0),
                format!("{:.1}", u.avg_utilization * 100.0),
                format!("{:.1}", u.max_utilization * 100.0),
            ],
            &w,
        ));
        rows.push(json!({
            "name": name,
            "min": u.min_utilization, "avg": u.avg_utilization, "max": u.max_utilization,
        }));
    }
    r.json = json!(rows);
    r
}

/// Fig. 3: achievable serverless peak load normalised to the IaaS peak
/// with the same resources (paper: 73.9–89.2 %).
pub fn fig3(seed: u64) -> Report {
    let mut r = Report::new(
        "fig3",
        "Serverless peak load normalised to IaaS peak with the same resources",
    );
    let w = [12, 12, 12, 10];
    r.line(row(
        &[
            "Name".into(),
            "IaaS qps".into(),
            "SL qps".into(),
            "ratio".into(),
        ],
        &w,
    ));
    let iaas_cfg = IaasConfig::default();
    let mut rows = Vec::new();
    let results: Vec<_> = par_map(benchmarks::standard_benchmarks(), |b| {
        // IaaS peak with its just-enough sizing.
        let iaas_peak = max_steady_qps(
            &b,
            SystemVariant::Nameko,
            ServerlessConfig::default(),
            &[],
            b.peak_qps * 0.3,
            b.peak_qps * 1.2,
            seed,
        );
        // Serverless restricted to the *same rented*
        // footprint: the cores and memory of the IaaS VM
        // group. Disk and NIC stay at the node's full rates —
        // Table II's deployments sit on identical hardware,
        // and what a maintainer rents is compute/memory, not
        // the NVMe.
        let cores = required_cores(&b, &iaas_cfg) as f64;
        let base = NodeConfig::default();
        let vms = (cores / iaas_cfg.cores_per_vm as f64).ceil();
        let mut cfg = ServerlessConfig::default();
        cfg.node = NodeConfig {
            cores,
            dram_mb: vms * iaas_cfg.vm_memory_mb,
            disk_bw_mbps: base.disk_bw_mbps,
            nic_bw_mbps: base.nic_bw_mbps,
        };
        cfg.pool_memory_mb = vms * iaas_cfg.vm_memory_mb;
        cfg.tenant_container_cap = cfg.memory_container_cap();
        let sl_peak = max_steady_qps(
            &b,
            SystemVariant::OpenWhisk,
            cfg,
            &[],
            1.0,
            b.peak_qps * 1.2,
            seed,
        );
        (b.name, iaas_peak, sl_peak)
    });
    for (name, iaas_peak, sl_peak) in results {
        let ratio = if iaas_peak > 0.0 {
            sl_peak / iaas_peak
        } else {
            0.0
        };
        r.line(row(
            &[
                name.clone(),
                format!("{iaas_peak:.1}"),
                format!("{sl_peak:.1}"),
                format!("{:.1}%", ratio * 100.0),
            ],
            &w,
        ));
        rows.push(json!({"name": name, "iaas_peak": iaas_peak, "serverless_peak": sl_peak, "ratio": ratio}));
    }
    r.json = json!(rows);
    r
}

/// Fig. 4: the serverless latency breakdown (paper: extra overheads take
/// 10–45 % of end-to-end latency, queueing and cold start excluded).
pub fn fig4(seed: u64) -> Report {
    let mut r = Report::new(
        "fig4",
        "Latency breakdown of queries with serverless-based deployment",
    );
    let w = [12, 9, 10, 9, 9, 10];
    r.line(row(
        &[
            "Name".into(),
            "auth ms".into(),
            "load ms".into(),
            "exec ms".into(),
            "post ms".into(),
            "overhead%".into(),
        ],
        &w,
    ));
    let mut rows = Vec::new();
    for b in benchmarks::standard_benchmarks() {
        // A light flat load on an otherwise idle pool: warm queries, no
        // co-tenant contention, matching the paper's breakdown
        // experiment (Fig. 4 excludes queueing and cold start).
        let mut spec = b.clone();
        spec.peak_qps = (b.peak_qps * 0.2).max(1.0);
        let services = vec![amoeba_core::ServiceSetup {
            trace: amoeba_workload::LoadTrace::new(
                amoeba_workload::DiurnalPattern::flat(1.0),
                spec.peak_qps,
                DEFAULT_DAY_S,
            ),
            spec: spec.clone(),
            background: false,
        }];
        // Run with the memory sink attached and rebuild the breakdown
        // from the trace's warm samples — the report is a pure consumer
        // of the telemetry stream.
        let (_run, trace) = amoeba_core::Experiment::builder(
            SystemVariant::OpenWhisk,
            amoeba_sim::SimDuration::from_secs_f64(DEFAULT_DAY_S / 4.0),
            seed,
        )
        .services(services)
        .build()
        .run_traced();
        let bd = amoeba_core::BreakdownMeans::from_warm_samples(
            trace.warm_samples().filter(|s| s.service == 0),
        );
        let bd = &bd;
        r.line(row(
            &[
                b.name.clone(),
                format!("{:.1}", bd.auth_s * 1000.0),
                format!("{:.1}", bd.code_load_s * 1000.0),
                format!("{:.1}", bd.exec_s * 1000.0),
                format!("{:.1}", bd.result_post_s * 1000.0),
                format!("{:.1}", bd.overhead_fraction() * 100.0),
            ],
            &w,
        ));
        rows.push(json!({
            "name": b.name, "auth_s": bd.auth_s, "code_load_s": bd.code_load_s,
            "exec_s": bd.exec_s, "result_post_s": bd.result_post_s,
            "overhead_fraction": bd.overhead_fraction(),
        }));
    }
    r.json = json!(rows);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let r = table3();
        let text = r.render();
        assert!(text.contains("float"));
        assert!(text.contains("high"));
        // dd row: medium CPU, high IO.
        let dd_line = r.lines.iter().find(|l| l.contains("dd")).unwrap();
        assert!(dd_line.contains("medium") && dd_line.contains("high"));
    }

    #[test]
    fn fig2_utilization_bands() {
        let r = fig2(120.0, 5);
        // Five benchmark rows plus a header.
        assert_eq!(r.lines.len(), 6);
        let rows = r.json.as_array().unwrap();
        for row in rows {
            let min = row["min"].as_f64().unwrap();
            let avg = row["avg"].as_f64().unwrap();
            let max = row["max"].as_f64().unwrap();
            assert!(min <= avg && avg <= max, "{row}");
            assert!(max <= 1.0);
            // The paper's point: IaaS leaves plenty idle on a diurnal
            // trace — average utilisation well below 100 %.
            assert!(avg < 0.85, "avg {avg}");
        }
    }

    #[test]
    fn fig4_overhead_fraction_in_band() {
        let r = fig4(5);
        for row in r.json.as_array().unwrap() {
            let f = row["overhead_fraction"].as_f64().unwrap();
            assert!((0.05..=0.50).contains(&f), "{row}");
        }
    }
}
