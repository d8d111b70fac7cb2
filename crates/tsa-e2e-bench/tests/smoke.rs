//! Smoke test: every workload at a tiny job count. The in-process replay
//! always runs; the TCP legs run when the `tsa` binary has been built
//! next to the benchmark binary (`cargo build -p tsa-cli`). Asserts only
//! that every metric is emitted and nothing failed — no timings, so it
//! cannot flake.

use std::path::{Path, PathBuf};
use tsa_e2e_bench::bench::{self, Config, Report};
use tsa_e2e_bench::gen::Workload;
use tsa_e2e_bench::stats::{END_TO_END, PER_LAYER};

fn config(tsa: Option<PathBuf>, test: &str) -> Config {
    Config {
        tsa,
        seed: 5,
        seconds: 120.0,
        max_jobs: Some(4),
        out: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-smoke-{test}")),
    }
}

fn assert_complete(report: &Report, want: &[&str]) {
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    for name in want {
        assert!(
            got.contains(name),
            "{}: {name} missing from {got:?}",
            report.workload.name()
        );
    }
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        report.workload.name(),
        report.notes
    );
    assert!(report.attempted > 0);
    assert!(report.json().starts_with(r#"{"correct":true,"#));
}

#[test]
fn replay_emits_every_in_process_layer_metric() {
    let tcp_only = ["server.transport_ms_p50", "cluster.hop_ms_p50"];
    let want: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !tcp_only.contains(n))
        .collect();
    for workload in Workload::ALL {
        let report = bench::trace(workload, &config(None, "replay")).unwrap();
        assert_complete(&report, &want);
    }
}

#[test]
fn served_workloads_emit_every_metric() {
    let tsa = Path::new(env!("CARGO_BIN_EXE_tsa-e2e-bench")).with_file_name("tsa");
    if !tsa.exists() {
        println!(
            "skip: no tsa binary at {} (cargo build -p tsa-cli)",
            tsa.display()
        );
        return;
    }
    let cfg = config(Some(tsa), "served");
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for workload in Workload::ALL {
        assert_complete(&bench::run(workload, &cfg).unwrap(), &end_to_end);
        assert_complete(&bench::trace(workload, &cfg).unwrap(), &per_layer);
    }
}
