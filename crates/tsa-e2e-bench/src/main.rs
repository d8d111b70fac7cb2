//! `tsa-e2e-bench`: run, trace and compare the served-alignment
//! benchmark. See the crate README.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsa_e2e_bench::bench::{self, Config, Report};
use tsa_e2e_bench::gen::Workload;
use tsa_e2e_bench::stats::{judge, Verdict, END_TO_END, MIN_PAIRS, PER_LAYER};
use tsa_service::json::Value;

const USAGE: &str = "\
usage:
  tsa-e2e-bench run   [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                      [--out DIR] [--tsa PATH]
  tsa-e2e-bench trace [same options; --trace defaults to 1]
  tsa-e2e-bench compare PARENT_DIR CHANGE_DIR

run prints every end-to-end metric of each workload (trace: every
per-layer metric), then one JSON result line, and appends that line to
DIR/run-<workload>.jsonl (trace: DIR/layers-<workload>.jsonl). compare
judges the runs collected in two such directories, pair by pair.
Workloads: serve-align serve-score serve-small-hot cluster-mixed.
Defaults: --workload all --seed 1 --seconds 20 --out .e2e-bench, and the
tsa binary next to this one.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tsa-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A command-line mistake: the message followed by the usage text.
fn usage(message: impl std::fmt::Display) -> String {
    format!("{message}\n{USAGE}")
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => measure(&args[1..], false),
        Some("trace") => measure(&args[1..], true),
        Some("compare") => match &args[1..] {
            [parent, change] => {
                compare(Path::new(parent), Path::new(change)).map_err(|e| e.to_string())
            }
            _ => Err(usage("compare takes two directories")),
        },
        _ => Err(usage("missing or unknown mode")),
    }
}

fn measure(args: &[String], mut traced: bool) -> Result<bool, String> {
    let mut workloads = Workload::ALL.to_vec();
    let sibling = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("tsa");
    let mut cfg = Config {
        tsa: sibling.exists().then_some(sibling),
        seed: 1,
        seconds: 20.0,
        max_jobs: None,
        out: PathBuf::from(".e2e-bench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|e| usage(format!("{flag} {value}: {e}")))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads = vec![Workload::by_name(value)
                    .ok_or_else(|| usage(format!("unknown workload {value}")))?]
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|e| usage(format!("--seed {value}: {e}")))?
            }
            "--seconds" => cfg.seconds = number()?,
            "--trace" => traced = value != "0",
            "--out" => cfg.out = PathBuf::from(value),
            "--tsa" => cfg.tsa = Some(PathBuf::from(value)),
            other => return Err(usage(format!("unknown option {other}"))),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err(usage("--seconds must be positive"));
    }
    let mut correct = true;
    for workload in workloads {
        let report = if traced {
            bench::trace(workload, &cfg)
        } else {
            bench::run(workload, &cfg)
        }
        .map_err(|e| format!("{}: {e}", workload.name()))?;
        correct &= report.correct();
        print_and_keep(&report, &cfg.out, if traced { "layers" } else { "run" })
            .map_err(|e| e.to_string())?;
    }
    Ok(correct)
}

fn print_and_keep(report: &Report, out: &Path, kind: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    for line in report.notes.iter().chain(&report.lines()) {
        writeln!(stdout, "{line}")?;
    }
    let json = report.json();
    writeln!(stdout, "{json}")?;
    stdout.flush()?;
    std::fs::create_dir_all(out)?;
    let path = out.join(format!("{kind}-{}.jsonl", report.workload.name()));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{json}")
}

/// One stored result line: failures and metric values.
struct Stored {
    failed: u64,
    metrics: HashMap<String, f64>,
}

fn read_results(path: &Path) -> io::Result<Option<Vec<Stored>>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bad = |line: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {line}", path.display()),
        )
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Value::parse(line).map_err(|_| bad(line))?;
            let failed = v
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(line))?;
            let Some(Value::Obj(fields)) = v.get("metrics") else {
                return Err(bad(line));
            };
            let metrics = fields
                .iter()
                .filter_map(|(name, m)| match m.get("value") {
                    Some(Value::Num(x)) => Some((name.clone(), *x)),
                    _ => None,
                })
                .collect();
            Ok(Stored { failed, metrics })
        })
        .collect::<io::Result<Vec<_>>>()
        .map(Some)
}

/// Judge every metric of every workload present in both directories.
/// Returns false when anything regressed.
fn compare(parent: &Path, change: &Path) -> io::Result<bool> {
    let mut clean = true;
    let mut judged = 0;
    for workload in Workload::ALL {
        for (kind, defs) in [("run", &END_TO_END[..]), ("layers", &PER_LAYER[..])] {
            let file = format!("{kind}-{}.jsonl", workload.name());
            let (Some(p), Some(c)) = (
                read_results(&parent.join(&file))?,
                read_results(&change.join(&file))?,
            ) else {
                continue;
            };
            let pairs = p.len().min(c.len());
            println!(
                "{} {kind}: {} parent runs, {} change runs{}",
                workload.name(),
                p.len(),
                c.len(),
                if pairs < MIN_PAIRS {
                    format!(" (fewer than {MIN_PAIRS} pairs: no gain can be claimed)")
                } else {
                    String::new()
                }
            );
            for def in defs {
                let values = |runs: &[Stored]| -> Vec<f64> {
                    runs.iter()
                        .filter_map(|r| r.metrics.get(def.name).copied())
                        .collect()
                };
                let Some(j) = judge(&values(&p), &values(&c), def) else {
                    continue;
                };
                judged += 1;
                clean &= j.verdict != Verdict::Regression;
                let q = |q: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", q[0], q[1], q[2]);
                println!(
                    "{} {} {} parent(q1/med/q3)={} change={} wins={}/{} {}",
                    workload.name(),
                    def.name,
                    def.unit,
                    q(j.parent),
                    q(j.change),
                    j.wins,
                    j.pairs,
                    j.verdict.name()
                );
            }
            let failed = |runs: &[Stored]| runs.iter().map(|r| r.failed).sum::<u64>();
            let (pf, cf) = (failed(&p), failed(&c));
            let verdict = if cf > pf { "regression" } else { "unchanged" };
            clean &= cf <= pf;
            println!(
                "{} failed count parent={pf} change={cf} {verdict}",
                workload.name()
            );
        }
    }
    if judged == 0 {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "no result files common to both directories",
        ));
    }
    Ok(clean)
}
