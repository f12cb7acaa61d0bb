//! The experiment runner: regenerates every table and figure of the
//! paper.
//!
//! ```text
//! experiments [all|investigation|profiling|evaluation|ablations|<id>...] [--json DIR] [--smoke]
//! ```
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

fn by_id(id: &str, smoke: bool) -> Option<Report> {
    let r = match id {
        "table2" => investigation::table2(),
        "table3" => investigation::table3(),
        "fig2" => investigation::fig2(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig3" => investigation::fig3(DEFAULT_SEED),
        "fig4" => investigation::fig4(DEFAULT_SEED),
        "fig8" => profiling::fig8(DEFAULT_SEED),
        "fig9" => profiling::fig9(),
        "fig10" => evaluation::fig10(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig11" => evaluation::fig11(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig12" => evaluation::fig12(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig13" => evaluation::fig13(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig14" => ablations::fig14(DEFAULT_DAY_S, DEFAULT_SEED),
        "fig15" => ablations::fig15(DEFAULT_SEED),
        "fig16" => ablations::fig16(DEFAULT_DAY_S, DEFAULT_SEED),
        "overhead" => ablations::overhead(DEFAULT_DAY_S, DEFAULT_SEED),
        "ablation-slowdown" => ablations::ablation_slowdown(),
        "cost" => extensions::cost(DEFAULT_DAY_S, DEFAULT_SEED),
        "ablation-prewarm" => extensions::ablation_prewarm(DEFAULT_DAY_S, DEFAULT_SEED),
        "ablation-percentile" => extensions::ablation_percentile(DEFAULT_DAY_S, DEFAULT_SEED),
        "week" => extensions::week(DEFAULT_DAY_S, DEFAULT_SEED),
        "trace" => extensions::trace_summary(DEFAULT_DAY_S, DEFAULT_SEED),
        "forecast" => forecast::forecast(DEFAULT_DAY_S, DEFAULT_SEED),
        "resilience" => resilience::resilience(DEFAULT_DAY_S, DEFAULT_SEED),
        "multinode" => {
            if smoke {
                multinode::multinode(120.0, DEFAULT_SEED, 1)
            } else {
                multinode::multinode(DEFAULT_DAY_S, DEFAULT_SEED, 2)
            }
        }
        "workflow" => {
            if smoke {
                workflow::workflow(120.0, DEFAULT_SEED, 1)
            } else {
                workflow::workflow(DEFAULT_DAY_S, DEFAULT_SEED, 2)
            }
        }
        "multitenant" => {
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
        }
        "fleet" => {
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
        }
        _ => return None,
    };
    Some(r)
}

const GROUPS: &[(&str, &[&str])] = &[
    (
        "investigation",
        &["table2", "table3", "fig2", "fig3", "fig4"],
    ),
    ("profiling", &["fig8", "fig9"]),
    ("evaluation", &["fig10", "fig11", "fig12", "fig13"]),
    (
        "ablations",
        &["fig14", "fig15", "fig16", "overhead", "ablation-slowdown"],
    ),
    (
        "extensions",
        &[
            "cost",
            "ablation-prewarm",
            "ablation-percentile",
            "week",
            "trace",
            "forecast",
            "resilience",
            "multinode",
            "workflow",
            "multitenant",
            "fleet",
        ],
    ),
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

    let mut ids: Vec<String> = Vec::new();
    for t in &targets {
        if t == "all" {
            for (_, group) in GROUPS {
                ids.extend(group.iter().map(|s| s.to_string()));
            }
        } else if let Some((_, group)) = GROUPS.iter().find(|(g, _)| g == t) {
            ids.extend(group.iter().map(|s| s.to_string()));
        } else {
            ids.push(t.clone());
        }
    }

    for id in ids {
        let Some(report) = by_id(&id, smoke) else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        };
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
