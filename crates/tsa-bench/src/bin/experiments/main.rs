//! The experiment driver: regenerates every table and figure of the
//! reconstructed evaluation (see `DESIGN.md` §5 and `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run -p tsa-bench --release --bin experiments -- all [--quick] [--csv]
//! cargo run -p tsa-bench --release --bin experiments -- table2 fig3
//! ```

mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod table1;
mod table10;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;
mod table7;
mod table8;

use tsa_bench::{pool, table, RunConfig};
use tsa_service::json::escape;

const IDS: &[(&str, &str)] = &[
    ("table1", "sequential runtime & MCUPS vs length"),
    (
        "table2",
        "parallel speedup vs thread count (measured + model)",
    ),
    ("fig1", "speedup curves: cell wavefront vs tile order"),
    ("fig2", "runtime vs length, all algorithms"),
    ("fig3", "tile-size sensitivity of the tile order"),
    ("table3", "memory footprint vs length"),
    ("table4", "divide-and-conquer overhead & optimality"),
    ("table5", "exact vs center-star quality"),
    ("fig4", "model-predicted vs measured speedup"),
    ("table6", "affine-gap extension cost"),
    ("table7", "Carrillo-Lipman pruning effectiveness"),
    ("fig5", "simulated cluster scalability (alpha-beta model)"),
    ("table8", "progressive MSA vs exact optimum on triples"),
    ("fig6", "wavefront load profile over execution"),
    ("fig7", "measured plane profile vs model prediction"),
    ("table10", "anchored seed-chain-extend vs exact DP"),
];

fn usage() -> String {
    let mut s = String::from(
        "usage: experiments <id>... [--quick] [--csv] [--json-dir <dir>]\n       experiments all [--quick] [--csv] [--json-dir <dir>]\n\nEvery printed table is also written to <dir>/<id>.json\n(default dir: results, when it exists).\n\nexperiments:\n",
    );
    for (id, desc) in IDS {
        s.push_str(&format!("  {id:<8} {desc}\n"));
    }
    s
}

fn run_one(id: &str, cfg: &RunConfig, json_dir: Option<&str>) -> bool {
    let desc = IDS
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, d)| *d)
        .unwrap_or("");
    println!("\n=== {id}: {desc} ===");
    table::capture_begin();
    match id {
        "table1" => table1::run(cfg),
        "table2" => table2::run(cfg),
        "fig1" => fig1::run(cfg),
        "fig2" => fig2::run(cfg),
        "fig3" => fig3::run(cfg),
        "table3" => table3::run(cfg),
        "table4" => table4::run(cfg),
        "table5" => table5::run(cfg),
        "fig4" => fig4::run(cfg),
        "table6" => table6::run(cfg),
        "table7" => table7::run(cfg),
        "fig5" => fig5::run(cfg),
        "table8" => table8::run(cfg),
        "fig6" => fig6::run(cfg),
        "fig7" => fig7::run(cfg),
        "table10" => table10::run(cfg),
        _ => {
            table::capture_end();
            return false;
        }
    };
    let tables = table::capture_end();
    if let Some(dir) = json_dir {
        let path = format!("{dir}/{id}.json");
        let doc = format!(
            "{{\n  \"experiment\": \"{}\",\n  \"description\": \"{}\",\n  \"quick\": {},\n  \"tables\": [\n    {}\n  ]\n}}\n",
            escape(id),
            escape(desc),
            cfg.quick,
            tables.join(",\n    ")
        );
        match std::fs::write(&path, doc) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = RunConfig {
        quick: args.iter().any(|a| a == "--quick"),
        csv: args.iter().any(|a| a == "--csv"),
    };
    let json_dir: Option<String> = match args.iter().position(|a| a == "--json-dir") {
        Some(i) => match args.get(i + 1) {
            Some(dir) => Some(dir.clone()),
            None => {
                eprintln!("--json-dir needs a directory\n{}", usage());
                std::process::exit(2);
            }
        },
        None => std::path::Path::new("results")
            .is_dir()
            .then(|| "results".to_string()),
    };
    let flag_values: Vec<usize> = args
        .iter()
        .position(|a| a == "--json-dir")
        .map(|i| vec![i + 1])
        .unwrap_or_default();
    let ids: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_values.contains(i))
        .map(|(_, a)| a.as_str())
        .collect();
    if ids.is_empty() {
        eprint!("{}", usage());
        std::process::exit(2);
    }
    println!(
        "# host cores: {} (measured parallel times are wall-clock on this host; \
         model columns predict P real workers)",
        pool::host_cores()
    );
    let list: Vec<&str> = if ids == ["all"] {
        IDS.iter().map(|(i, _)| *i).collect()
    } else {
        ids
    };
    for id in list {
        if !run_one(id, &cfg, json_dir.as_deref()) {
            eprintln!("unknown experiment `{id}`\n{}", usage());
            std::process::exit(2);
        }
    }
}
