//! The experiment runner: regenerates every table and figure of the
//! paper.
//!
//! ```text
//! experiments [all|<group>|<id>...] [--json DIR] [--smoke]
//! ```
//!
//! Groups: investigation profiling evaluation ablations extensions.
//!
//! Known ids: table2 table3 fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 overhead ablation-slowdown cost
//! ablation-prewarm ablation-percentile week trace forecast resilience
//! multinode workflow multitenant fleet.
//!
//! `--smoke` shrinks the simulated day and seed sweep (currently the
//! `multinode`, `workflow`, `multitenant` and `fleet` reports) so CI
//! can exercise the report path cheaply.

use amoeba_bench::{
    ablations, evaluation, extensions, fleet, forecast, investigation, multinode, multitenant,
    profiling, resilience, workflow, Report,
};
use amoeba_bench::{DEFAULT_DAY_S, DEFAULT_SEED};
use std::io::Write;

/// Builds one report; the flag is `--smoke`, which shrinks the
/// `multinode`, `workflow`, `multitenant` and `fleet` reports.
type Build = fn(bool) -> Report;

/// Every report, in the order `all` runs them: its id, the group that
/// runs it, and how to build it.
const REPORTS: &[(&str, &str, Build)] = &[
    ("table2", "investigation", |_| investigation::table2()),
    ("table3", "investigation", |_| investigation::table3()),
    ("fig2", "investigation", |_| {
        investigation::fig2(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig3", "investigation", |_| {
        investigation::fig3(DEFAULT_SEED)
    }),
    ("fig4", "investigation", |_| {
        investigation::fig4(DEFAULT_SEED)
    }),
    ("fig8", "profiling", |_| profiling::fig8(DEFAULT_SEED)),
    ("fig9", "profiling", |_| profiling::fig9()),
    ("fig10", "evaluation", |_| {
        evaluation::fig10(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig11", "evaluation", |_| {
        evaluation::fig11(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig12", "evaluation", |_| {
        evaluation::fig12(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig13", "evaluation", |_| {
        evaluation::fig13(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig14", "ablations", |_| {
        ablations::fig14(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("fig15", "ablations", |_| ablations::fig15(DEFAULT_SEED)),
    ("fig16", "ablations", |_| {
        ablations::fig16(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("overhead", "ablations", |_| {
        ablations::overhead(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("ablation-slowdown", "ablations", |_| {
        ablations::ablation_slowdown()
    }),
    ("cost", "extensions", |_| {
        extensions::cost(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("ablation-prewarm", "extensions", |_| {
        extensions::ablation_prewarm(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("ablation-percentile", "extensions", |_| {
        extensions::ablation_percentile(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("week", "extensions", |_| {
        extensions::week(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("trace", "extensions", |_| {
        extensions::trace_summary(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("forecast", "extensions", |_| {
        forecast::forecast(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("resilience", "extensions", |_| {
        resilience::resilience(DEFAULT_DAY_S, DEFAULT_SEED)
    }),
    ("multinode", "extensions", |smoke| {
        if smoke {
            multinode::multinode(120.0, DEFAULT_SEED, 1)
        } else {
            multinode::multinode(DEFAULT_DAY_S, DEFAULT_SEED, 2)
        }
    }),
    ("workflow", "extensions", |smoke| {
        if smoke {
            workflow::workflow(120.0, DEFAULT_SEED, 1)
        } else {
            workflow::workflow(DEFAULT_DAY_S, DEFAULT_SEED, 2)
        }
    }),
    ("multitenant", "extensions", |smoke| {
        if smoke {
            multitenant::multitenant(120.0, DEFAULT_SEED, 6, &[1.0, 2.0])
        } else {
            multitenant::multitenant(
                DEFAULT_DAY_S,
                DEFAULT_SEED,
                multitenant::FLEET,
                &multitenant::RATIOS,
            )
        }
    }),
    ("fleet", "extensions", |smoke| {
        if smoke {
            fleet::fleet(24, 1.0, 90.0, &[1, 2])
        } else {
            fleet::fleet(
                fleet::FLEET_SERVICES,
                fleet::FLEET_DAYS,
                fleet::FLEET_DAY_S,
                &[1, 2, 4, 8],
            )
        }
    }),
];

fn main() {
    let mut json_dir: Option<String> = None;
    let mut smoke = false;
    let mut targets: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = it.next(),
            "--smoke" => smoke = true,
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }

    // A target is `all`, a group or one id; an unknown one stops the
    // run when it is reached.
    let mut ids: Vec<&str> = Vec::new();
    for t in &targets {
        let group: Vec<&str> = REPORTS
            .iter()
            .filter(|&&(_, g, _)| t == "all" || t == g)
            .map(|&(id, _, _)| id)
            .collect();
        if group.is_empty() {
            ids.push(t);
        } else {
            ids.extend(group);
        }
    }

    for id in ids {
        let Some(&(_, _, build)) = REPORTS.iter().find(|&&(known, _, _)| known == id) else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        };
        let report = build(smoke);
        println!("{}", report.render());
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{}.json", report.id);
            let mut f = std::fs::File::create(&path).expect("create json file");
            let blob = amoeba_json::json!({
                "id": report.id,
                "title": report.title,
                "data": report.json,
            });
            writeln!(f, "{}", amoeba_json::to_string_pretty(&blob).unwrap()).expect("write json");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::REPORTS;
    use std::collections::BTreeSet;

    #[test]
    fn report_ids_are_unique_and_shadow_no_group() {
        let ids: BTreeSet<&str> = REPORTS.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids.len(), REPORTS.len(), "duplicate report id");
        for &(_, group, _) in REPORTS {
            assert!(!ids.contains(group) && group != "all", "{group}");
        }
    }
}
