//! The repository benchmark: end-to-end and per-layer performance of
//! the Amoeba simulator on four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! cargo test --offline --manifest-path benchmark/Cargo.toml   # smoke scale
//! ```
//!
//! The package is its own workspace and links the simulator crates by
//! path, so it needs no change to the main workspace's manifest or lock
//! file. Each workload runs in its own process, on one host thread (the
//! traced run adds one 2-thread fleet run). The binary prints every
//! metric by name with its unit, then `ops` (simulated queries
//! submitted), `failed_ops`, `host_cpus` and a result `fingerprint`,
//! and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits nonzero
//! when a correctness gate fails. The benchmark drives only the public
//! API of the workspace crates and times each layer from outside,
//! around the calls it makes into that layer.
//!
//! # Workloads
//!
//! Simulated arrivals are open-loop: diurnal Poisson traces drawn from
//! the seed, independent of what the simulated system does. The host
//! side is closed-loop: units run back to back. Every run does one
//! untimed warm-up unit, then repeats the workload's units for at least
//! one full pass and at least `--seconds`. Simulated metrics come from
//! the first pass, so they depend on the seed only. `BENCHMARK.json`
//! runs 25 s: on a 2-vCPU Xeon VM that times a quiet fleet run about
//! six times, a digest fleet run four times, a grid sweep about 60
//! times and a chaos seed about 300 times.
//!
//! - `paper_grid` (seed 42): 18 sweeps of the §VII evaluation grid, each
//!   5 foregrounds (float, matmul, linpack, dd, cloud_stor) × 4 systems
//!   (Amoeba, AmoebaPro, OpenWhisk, Nameko) on the standard scenario
//!   (foreground + 3 background services, Didi day of 480 s), meters
//!   on, telemetry off; sweep `i` uses seed `s + i`. The code path
//!   behind every paper figure: dense load, monotone pushes, serverless-
//!   and IaaS-heavy cells, monitor, PCA and forecaster all running. The
//!   fleet and telemetry layers are bypassed.
//! - `fleet_week` (seed 2026, 1 thread): 1,000 long-tail services × 7
//!   days of 4,320 s in 16 cells through `FleetRun::run_quiet`. The
//!   opposite operating point: sparse load (~0.3 queries per event),
//!   control ticks, metering and far-future pushes dominate, meters
//!   off; the epoch barrier and exchange run. Telemetry is bypassed.
//!   One worker, because on a shared 2-CPU host a second one makes the
//!   barrier wait on whichever CPU a neighbour holds; the traced run
//!   times the 2-thread executor (`fleet.run_t2_s`, `.speedup_t2`).
//! - `fleet_week_digest` (seed 2026, 1 thread): the same fleet through
//!   `FleetRun::run`, which JSON-encodes and hashes every event. Against
//!   `fleet_week` only the sink differs, so the gap isolates telemetry
//!   encoding.
//! - `chaos_dag` (seed 42): 120 seeds of one experiment — float
//!   scenario, the 4-stage media DAG at 40 qps, a 4-node fabric
//!   (Amoeba-per-node, 40 ms RTT), `FaultPlan::mixed().scaled(3.0)`
//!   without VM boot faults (they strand queries on some seeds; see
//!   `workloads::chaos_plan`) and a median-3 monitor — each recorded to
//!   memory and read through the
//!   trace's fault, recovery and switch-span accessors. It drives the
//!   rare paths: calendar cancels, out-of-order inserts, stale slab
//!   tickets, forced drains, crash re-queues, ack retries and aborts,
//!   fabric spills and DAG joins. A common-path gain that costs these
//!   paths shows here and not on `paper_grid`.
//!
//! # Metrics
//!
//! End to end (`--trace 0`): `sim_qps` (completed simulated queries per
//! host second, the median over the timed units), `run_s_p50` (median
//! host seconds per cell, or per fleet run), `setup_s` (median host time
//! of building an experiment and `EpochRun::new`, or of
//! `FleetSpec::build`, over at least 25 set-ups), `peak_rss_mb`
//! (`VmHWM` at exit), and three simulated metrics of the first pass:
//! `completed_share`, `qos_violation_pct`
//! and `core_s_per_query` (allocated core-seconds per completed query);
//! the last two count only Amoeba and AmoebaPro cells on `paper_grid`.
//! The per-cell p90 is printed as an `info` line where at least 100
//! cells were timed; it is not a result metric, because on a shared
//! 2-CPU host it mostly measures neighbours, and a fleet run gives only
//! a handful of samples.
//!
//! On a shared 2-vCPU Xeon VM, one fleet run took from 3.75 s to 5.0 s
//! in fifteen back-to-back runs of the same seed, with no CPU stolen
//! inside the VM: neighbours slow the host unevenly. Over ten seeds,
//! the middle half of the host-time metrics spread 5–10 % of their
//! median. The regression bounds in `BENCHMARK.json` are sized for
//! that, and a claimed gain needs the paired comparison below, not one
//! run against another.
//!
//! Per layer (`--trace 1`), with the end-to-end metric and workload
//! each should move:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `sim` | `sim.events`, `.events_per_query`, `.events_per_s`, `.queue.push_pop_ns` | `sim_qps` on `fleet_week` (far-future pushes, lap jumps) and `paper_grid` |
//! | `core.runtime` | `.setup_s`, `.advance_s`, `.finish_s` | `run_s_p50`, `setup_s` on every single-experiment workload |
//! | `core.controller`, `queueing` | `.ticks`, `.decide_ns`, `.lambda_max_ns`, `.est_share_pct`, `queueing.mmn.*` | `sim_qps` on `fleet_week`; small share on `paper_grid` |
//! | `core.monitor`, `linalg`, `forecast` | `.heartbeats`, `.heartbeat_ns`, `linalg.pca.fit_ns`, `forecast.records`, `.tick_ns` | `paper_grid` only (meters are off in the fleet) |
//! | `platform` | `serverless.cold_starts`, `.warm_execs`, `.query_share`, `.submit_complete_ns`, `fabric.spills` | `sim_qps` on `paper_grid` (OpenWhisk cells); spills on `chaos_dag` |
//! | `core.engine` | `.switches`, `.failed_switches`, `.wasted_prewarms`, `.switch_success_ratio` | `chaos_dag` |
//! | `chaos`, `core.workflow` | `chaos.faults`, `.recoveries`, `core.workflow.instances`, `.stage_spans` | `chaos_dag` only |
//! | `telemetry` | `.events`, `.bytes_per_event`, `.encode_ns_per_event`, `.decode_ns_per_event`, `.digest_ns_per_event`, `.record_overhead_pct` | `run_s_p50` on `fleet_week_digest` and `chaos_dag`; no change on `fleet_week`, `paper_grid` |
//! | `fleet` | `.epochs`, `.services_admitted`, `.shard_imbalance`, `.run_t1_s`, `.run_t2_s`, `.speedup_t2`, `.digest_overhead_pct` | `run_s_p50` on both fleet workloads; absent elsewhere (reported as 0) |
//! | `bench` | `.trace_overhead_pct`, `.span_coverage_pct` | — |
//!
//! `*.est_share_pct` is a layer's calls in the traced run × its isolated
//! per-call time (a median over 11 batches) ÷ the advance phase. The
//! traced run writes its spans — name, start and end in ns, parent and
//! cell — to `results/benchmark/<workload>.trace.json`. Counts that
//! only telemetry reveals (ticks, heartbeats, faults) are not visible
//! inside fleet cells, so the fleet workloads report them as 0.
//!
//! # Correctness gates
//!
//! A repetition that fails a gate counts all its queries as failed and
//! the binary exits nonzero: `submitted == completed + failed` per
//! service and per workflow; every repetition of a unit reproduces the
//! fingerprint (an FNV-1a fold of per-service submitted, completed,
//! failed, violations, core-seconds and switches) of its first run; the
//! `fleet_week_digest` digest at seed 2026 is `0xe43901c4926dc3c7`; in
//! the traced run the fleet gives identical results on 1 and 2
//! threads, tracing leaves every fingerprint unchanged, and the JSONL
//! round trip of the sampled trace decodes to an identical trace.
//!
//! # Comparing two commits
//!
//! Build both commits' benchmark, then alternate parent and change for
//! at least ten pairs per workload, with the same seeds on both sides,
//! and compare medians and quartiles. A change meant only to make the
//! simulator faster must leave the simulated metrics and the
//! fingerprint bit-identical; any difference there is a behaviour
//! change, not a speed-up.

mod cells;
mod layers;
mod measure;
mod report;
mod stats;
mod traced;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use report::Report;
use workloads::{Scale, Workload, FULL};

const USAGE: &str =
    "usage: benchmark --workload <paper_grid|fleet_week|fleet_week_digest|chaos_dag> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// Seconds measured when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let s = value("an unsigned integer")?;
                seed = Some(s.parse().map_err(|_| format!("bad seed {s:?}"))?);
            }
            "--seconds" => {
                let s = value("a number of seconds")?;
                seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {s:?}"))?;
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Where the traced run writes its span file.
const SPAN_DIR: &str = "results/benchmark";

fn run(args: &Args, scale: &Scale, span_dir: &Path) -> Report {
    if args.trace {
        traced::trace(args.workload, scale, args.seed, span_dir)
    } else {
        measure::measure(args.workload, scale, args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, &FULL, Path::new(SPAN_DIR));
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_json::Value;
    use workloads::{ALL, SMOKE};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `(name, unit)` of every metric of a `BENCHMARK.json` section.
    fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
        spec[section]
            .as_array()
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload chaos_dag --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ChaosDag,
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        let a = parse_args(&argv("--trace 0 --workload fleet_week")).unwrap();
        assert_eq!((a.seed, a.trace), (2026, false));
        assert!(
            parse_args(&argv("--workload paper_grid --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload paper_grid --seconds -1")).is_err());
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = amoeba_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ALL.map(Workload::name));
        for (section, table) in [
            ("end_to_end", report::END_TO_END),
            ("per_layer", report::PER_LAYER),
        ] {
            let want: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.into(), u.into())).collect();
            assert_eq!(declared(&spec, section), want, "{section}");
        }
    }

    /// Every workload at smoke scale, measured and traced: the gates
    /// pass, the last line carries exactly the declared metrics with
    /// their declared units, each also printed on its own line, and the
    /// traced run leaves a span file.
    #[test]
    fn every_workload_reports_its_declared_metrics_at_smoke_scale() {
        let spec = amoeba_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let span_dir =
            std::env::temp_dir().join(format!("amoeba-benchmark-{}", std::process::id()));
        for w in ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: w.default_seed(),
                    seconds: 0.0,
                    trace,
                };
                let out = run(&args, &SMOKE, &span_dir).render();
                let last = out.lines().last().expect("output");
                let result = amoeba_json::parse(last).expect("last line is JSON");
                let ctx = format!("{} trace={trace}:\n{out}", w.name());
                assert_eq!(result["correct"].as_bool(), Some(true), "{ctx}");
                assert!(result["attempted"].as_u64().unwrap() >= 1, "{ctx}");
                assert_eq!(result["failed"].as_u64(), Some(0), "{ctx}");
                let metrics = result["metrics"].as_object().expect("metrics object");
                let section = if trace { "per_layer" } else { "end_to_end" };
                let want = declared(&spec, section);
                assert_eq!(metrics.len(), want.len(), "{ctx}");
                for (name, unit) in want {
                    let m = &result["metrics"][name.as_str()];
                    assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}: {ctx}");
                    let v = m["value"].as_f64().expect("numeric value");
                    assert!(
                        out.contains(&format!("metric {name} {v} {unit}\n")),
                        "{ctx}"
                    );
                }
            }
            let spans =
                std::fs::read_to_string(traced::span_file(&span_dir, w)).expect("span file");
            let spans = amoeba_json::parse(&spans).expect("span file is JSON");
            assert!(!spans["spans"].as_array().expect("spans").is_empty());
        }
        std::fs::remove_dir_all(&span_dir).expect("remove span files");
    }
}
