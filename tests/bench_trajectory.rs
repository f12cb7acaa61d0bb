//! Schema gate for `BENCH_trajectory.json`, the committed record of the
//! repository benchmark's runs that `scripts/bench.sh` appends to.
//!
//! Every row names the commit, host and run it came from and carries
//! the benchmark's result with exactly the metrics `BENCHMARK.json`
//! declares for its mode (`end_to_end` at `trace: 0`, `per_layer` at
//! `trace: 1`), and every gate passed. Rows of one commit, workload,
//! seed and mode agree on the fingerprint and, at `trace: 0`, on the
//! simulated metrics: the simulator is deterministic, so a disagreement
//! means a row was not written by the benchmark it names.

use std::collections::BTreeMap;

use amoeba_json::Value;

const TRAJECTORY: &str = include_str!("../BENCH_trajectory.json");
const BENCHMARK: &str = include_str!("../BENCHMARK.json");

/// Row fields, in the order the recorder writes them.
const FIELDS: &str =
    "rev date cpu nproc workload seed trace wall_s fingerprint correct attempted failed metrics";

/// The end-to-end metrics the seed alone determines; the others time
/// the host.
const SIMULATED: [&str; 3] = ["completed_share", "qos_violation_pct", "core_s_per_query"];

fn is_hex(s: &str, len: usize) -> bool {
    s.len() == len && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// `YYYY-MM-DDTHH:MM:SSZ`.
fn is_utc_iso8601(s: &str) -> bool {
    s.len() == 20
        && s.bytes().enumerate().all(|(i, b)| match i {
            4 | 7 => b == b'-',
            10 => b == b'T',
            13 | 16 => b == b':',
            19 => b == b'Z',
            _ => b.is_ascii_digit(),
        })
}

#[test]
fn every_trajectory_row_is_a_passing_benchmark_run() {
    let spec = amoeba_json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let names = |v: &Value, field: &str| -> Vec<String> {
        let list = v.as_array().expect("a BENCHMARK.json list");
        list.iter()
            .map(|x| x[field].as_str().expect("string field").to_string())
            .collect()
    };
    let workloads = names(&spec["workloads"], "name");
    let rows = amoeba_json::parse(TRAJECTORY).expect("BENCH_trajectory.json parses");
    let rows = rows.as_array().expect("the trajectory is an array");
    assert!(!rows.is_empty(), "the trajectory has no rows");

    // (rev, workload, seed, trace) -> the first row of that run kind.
    let mut first: BTreeMap<(&str, &str, u64, u64), &Value> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<&str> = row
            .as_object()
            .map_or(vec![], |o| o.iter().map(|(k, _)| k.as_str()).collect());
        assert_eq!(fields.join(" "), FIELDS, "row {i}: fields");
        let text = |k: &str| {
            row[k]
                .as_str()
                .unwrap_or_else(|| panic!("row {i}: {k} is not a string"))
        };
        let count = |k: &str| {
            row[k]
                .as_u64()
                .unwrap_or_else(|| panic!("row {i}: {k} is not a count"))
        };

        let (rev, workload, fingerprint) = (text("rev"), text("workload"), text("fingerprint"));
        assert!(is_hex(rev, 12), "row {i}: rev {rev:?} is not a 12-hex hash");
        assert!(
            is_utc_iso8601(text("date")),
            "row {i}: date is not UTC ISO-8601"
        );
        assert!(!text("cpu").is_empty(), "row {i}: empty cpu");
        assert!(count("nproc") > 0, "row {i}: nproc is 0");
        assert!(
            workloads.iter().any(|w| w == workload),
            "row {i}: workload {workload:?} is not in BENCHMARK.json"
        );
        let (seed, trace) = (count("seed"), count("trace"));
        let section = match trace {
            0 => "end_to_end",
            1 => "per_layer",
            t => panic!("row {i}: trace {t} is neither 0 nor 1"),
        };
        assert!(
            row["wall_s"]
                .as_f64()
                .is_some_and(|s| s > 0.0 && s.is_finite()),
            "row {i}: wall_s is not a positive number"
        );
        assert!(
            fingerprint
                .strip_prefix("0x")
                .is_some_and(|h| is_hex(h, 16)),
            "row {i}: fingerprint {fingerprint:?} is not 0x + 16 hex digits"
        );
        assert_eq!(row["correct"].as_bool(), Some(true), "row {i}: correct");
        assert!(count("attempted") > 0, "row {i}: attempted is 0");
        assert_eq!(count("failed"), 0, "row {i}: failed");

        let metrics = row["metrics"].as_object().expect("metrics object");
        let got: Vec<(&str, Option<&str>)> = metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m["unit"].as_str()))
            .collect();
        let (want_names, want_units) =
            (names(&spec[section], "name"), names(&spec[section], "unit"));
        let want: Vec<(&str, Option<&str>)> = want_names
            .iter()
            .zip(&want_units)
            .map(|(n, u)| (n.as_str(), Some(u.as_str())))
            .collect();
        assert_eq!(got, want, "row {i}: metrics are not exactly {section}");
        for (name, m) in metrics {
            assert!(
                m["value"].as_f64().is_some_and(f64::is_finite),
                "row {i}: metric {name} has no finite value"
            );
        }

        let key = (rev, workload, seed, trace);
        let seen = *first.entry(key).or_insert(row);
        assert_eq!(
            row["fingerprint"], seen["fingerprint"],
            "row {i}: fingerprint differs from an earlier run of {key:?}"
        );
        if trace == 0 {
            for name in SIMULATED {
                assert_eq!(
                    row["metrics"][name]["value"], seen["metrics"][name]["value"],
                    "row {i}: {name} differs from an earlier run of {key:?}"
                );
            }
        }
    }
}
