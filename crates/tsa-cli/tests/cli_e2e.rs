//! End-to-end tests driving the real `tsa` binary
//! (via `CARGO_BIN_EXE_tsa`): the full user path — process spawn, argv,
//! stdin/stdout/stderr, exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn tsa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tsa"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = tsa().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("tsa align"));
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails_with_usage_on_stderr() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn inline_align_score_only() {
    let (stdout, _, ok) = run(&[
        "align",
        "--a",
        "GATTACA",
        "--b",
        "GATACA",
        "--c",
        "GTTACA",
        "--score-only",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "26");
}

#[test]
fn align_all_algorithms_agree_through_the_binary() {
    let mut scores = Vec::new();
    for alg in [
        "full",
        "wavefront",
        "tile-wavefront",
        "hirschberg",
        "par-hirschberg",
        "carrillo-lipman",
    ] {
        let (stdout, stderr, ok) = run(&[
            "align",
            "--a",
            "GATTACAGAT",
            "--b",
            "GATACAGTT",
            "--c",
            "GTTACAGAT",
            "--algorithm",
            alg,
            "--score-only",
        ]);
        assert!(ok, "{alg}: {stderr}");
        scores.push(stdout.trim().to_string());
    }
    assert!(scores.windows(2).all(|w| w[0] == w[1]), "{scores:?}");
}

#[test]
fn clustal_format_output() {
    let (stdout, _, ok) = run(&[
        "align", "--a", "GATTACA", "--b", "GATACA", "--c", "GTTACA", "--format", "clustal",
    ]);
    assert!(ok);
    assert!(stdout.contains("CLUSTAL"));
    assert!(stdout.contains('*'));
}

#[test]
fn gen_pipes_into_align_via_file() {
    let dir = std::env::temp_dir().join("tsa-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.fa");

    let (fasta, _, ok) = run(&["gen", "--len", "30", "--seed", "11"]);
    assert!(ok);
    assert_eq!(fasta.matches('>').count(), 3);
    std::fs::write(&path, &fasta).unwrap();

    let (stdout, stderr, ok) = run(&["align", "--file", path.to_str().unwrap(), "--stats"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# score:"));
    assert!(stdout.contains("# bounds:"));
}

/// The `--stats` cells and fallback lines, and the lattice's cell count.
fn cells_and_fallback(stdout: &str) -> (u64, String, u64) {
    let value = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in {stdout}"))
            .trim()
            .to_string()
    };
    let cube = value("# lengths:")
        .split_whitespace()
        .map(|n| n.parse::<u64>().unwrap() + 1)
        .product();
    let cells = value("# cells:");
    assert!(
        cells.ends_with(&format!("of the lattice's {cube}")),
        "{cells}"
    );
    let computed = cells.split_whitespace().next().unwrap().parse().unwrap();
    (computed, value("# fallback:"), cube)
}

#[test]
fn align_stats_report_cells_computed_and_fallback() {
    // A family triple: the pruned sweep computes a sliver of the lattice.
    let dir = std::env::temp_dir().join("tsa-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("family-stats.fa");
    let (fasta, _, ok) = run(&["gen", "--len", "60", "--seed", "5"]);
    assert!(ok);
    std::fs::write(&path, &fasta).unwrap();
    let (stdout, stderr, ok) = run(&["align", "--file", path.to_str().unwrap(), "--stats"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("CarrilloLipman"), "{stdout}");
    let (cells, fallback, cube) = cells_and_fallback(&stdout);
    assert!(cells < cube / 4, "{cells} of {cube}");
    assert_eq!(fallback, "none");
    // An unrelated 48×8×64 triple, a thin cube (the bounds' pairwise cells
    // are 42% of the lattice): the dense lattice runs at once.
    let (stdout, stderr, ok) = run(&[
        "align",
        "--a",
        "TCTTTCGTCTGCCACGGACGAAGAGCCCTGAATTAAGGTTTTCGTCCT",
        "--b",
        "GCTCCGTT",
        "--c",
        "AATTGTCTCAGGATTTAAGAAATTTCATAAGTGGATTGTTCAAAGGGGACTCGTTTTCTAAGCA",
        "--stats",
    ]);
    assert!(ok, "{stderr}");
    let (cells, fallback, cube) = cells_and_fallback(&stdout);
    assert_eq!((cells, fallback.as_str()), (cube, "full"));
}

#[test]
fn msa_subcommand_aligns_many_records() {
    let dir = std::env::temp_dir().join("tsa-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("many.fa");
    std::fs::write(
        &path,
        ">s0\nGATTACAGATTACA\n>s1\nGATACAGATTAC\n>s2\nGTTACAGATCACA\n>s3\nGATTACAGATTACA\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = run(&["msa", "--file", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# sequences: 4"));
    assert!(stdout.contains("# SP score:"));
    assert_eq!(stdout.matches('>').count(), 4);
}

#[test]
fn plan_subcommand_prints_model() {
    let (stdout, _, ok) = run(&["plan", "--n1", "64", "--n2", "64", "--n3", "64"]);
    assert!(ok);
    assert!(stdout.contains("lattice 64×64×64"));
    // One plan line per algorithm and job kind: a default score job runs
    // the pruned sweep over two rolling sparse slabs, priced at (and
    // checkpointing as) the slab sweep it may fall back to; a default
    // alignment runs the pruned slab sweep, priced at the dense lattice it
    // may fall back to.
    for want in [
        [
            "auto",
            "score",
            "carrillo-lipman",
            "slabs",
            "slabs",
            "274625",
            "33800",
        ],
        [
            "auto",
            "align",
            "carrillo-lipman",
            "slabs",
            "-",
            "274625",
            "1098500",
        ],
    ] {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().collect::<Vec<_>>() == want),
            "{stdout}"
        );
    }
    assert!(stdout.contains("predicted speedup"));
    assert!(stdout.contains("ethernet-cluster"));
}

#[test]
fn affine_flags_route_to_affine_dp() {
    let (stdout, stderr, ok) = run(&[
        "align",
        "--a",
        "AAAATTTTGG",
        "--b",
        "AAAAGG",
        "--c",
        "AAAAGG",
        "--gap-open",
        "-8",
        "--gap-extend",
        "-1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("AffineDp"), "{stdout}");
}

#[test]
fn bad_file_fails_cleanly() {
    let (_, stderr, ok) = run(&["align", "--file", "/definitely/not/here.fa"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
}

#[test]
fn stdin_is_not_consumed_accidentally() {
    // The binary takes no stdin; giving it some must not hang or change
    // behaviour.
    let mut child = tsa()
        .args([
            "align",
            "--a",
            "ACG",
            "--b",
            "ACG",
            "--c",
            "ACG",
            "--score-only",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // The child may exit before reading; a broken pipe here is fine.
    let _ = child.stdin.as_mut().unwrap().write_all(b"garbage\n");
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "18");
}

/// Every verb that prints to standard output ends quietly, with status 0
/// and nothing on stderr, when its standard output is closed: the reading
/// end of a socket pair is shut before the command starts, so its first
/// write fails with a broken pipe (`tsa align ... | head`, early).
#[cfg(unix)]
#[test]
fn closed_stdout_ends_every_printing_verb_quietly() {
    use std::io::{BufRead, BufReader};
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join("tsa-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let family = dir.join("closed-stdout.fa");
    let (fasta, _, ok) = run(&["gen", "--len", "60", "--seed", "7"]);
    assert!(ok);
    std::fs::write(&family, &fasta).unwrap();
    let family = family.to_str().unwrap();

    // A server whose flight recorder `tsa trace` queries, killed however
    // the test ends.
    struct Server(std::process::Child);
    impl Drop for Server {
        fn drop(&mut self) {
            self.0.kill().ok();
            self.0.wait().ok();
        }
    }
    let mut server = Server(
        tsa()
            .args(["serve", "--listen", "127.0.0.1:0", "--flight-recorder", "8"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tsa serve"),
    );
    let mut announce = String::new();
    BufReader::new(server.0.stderr.take().unwrap())
        .read_line(&mut announce)
        .expect("read announce line");
    let addr = announce
        .trim()
        .strip_prefix("# tsa serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line {announce:?}"))
        .to_string();

    let verbs: [&[&str]; 8] = [
        &["help"],
        &["gen", "--len", "200", "--seed", "3"],
        &["align", "--file", family, "--stats"],
        &["align", "--file", family, "--score-only"],
        &["plan", "--n1", "64", "--n2", "64", "--n3", "64"],
        &["msa", "--file", family],
        &["info", "--file", family],
        &["trace", "--connect", &addr, "--recent", "4"],
    ];
    for args in verbs {
        let (reader, writer) = UnixStream::pair().expect("socket pair");
        drop(reader);
        let out = tsa()
            .args(args)
            .stdout(Stdio::from(OwnedFd::from(writer)))
            .stderr(Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}
