//! Kernel benchmark baselines and the CI perf-regression gates.
//!
//! ```text
//! cargo run -p tsa-bench --release --bin bench -- run [--quick] [--out BENCH_kernel.json]
//! cargo run -p tsa-bench --release --bin bench -- compare BENCH_kernel.json fresh.json [--tolerance 0.20]
//! cargo run -p tsa-bench --release --bin bench -- gate-compose [--quick] [--baseline BENCH_kernel.json] [--out BENCH_compose.json]
//! ```
//!
//! `run` measures the pinned workload matrix (alphabet × size ×
//! algorithm × SIMD kernel × threads) and writes a machine-readable
//! baseline. `compare` diffs two baseline files and exits nonzero when
//! any shared workload lost more than the tolerance (default 20%) of
//! its median cells/s — that exit code is what CI gates on.
//! `gate-compose` is the composition gate: it measures the
//! tile-wavefront (`auto` kernel) at 2 threads against the
//! single-thread scalar slab reference at `n ≥ 128` and exits nonzero
//! when tiling + SIMD + threads fail to beat the classic sequential
//! DP — the win the tile executor exists for (the old cell-plane
//! wavefront *lost* this comparison).
//!
//! Thread rows are measured only where the host has the cores for them:
//! on a 1-core host `run` skips its `-tN` rows and `gate-compose` passes
//! without measuring, each with a `::warning` annotation.

use tsa_bench::baseline::{compare, sample, Baseline, Fingerprint, Record, DEFAULT_TOLERANCE};
use tsa_bench::{pool, workload};
use tsa_core::{Algorithm, Aligner, SimdKernel};
use tsa_scoring::Scoring;
use tsa_seq::family::FamilyConfig;
use tsa_seq::Seq;

const USAGE: &str = "\
usage: bench run [--quick] [--out <path>]
       bench compare <baseline.json> <current.json> [--tolerance <frac>]
       bench gate-compose [--quick] [--baseline <path>] [--out <path>]

run           measure the pinned workload matrix, write a baseline JSON
compare       diff two baselines; exit 1 on >tolerance median cells/s drop
gate-compose  assert tile-wavefront@2 threads >= scalar slab@1 at n>=128
";

const KERNELS: [SimdKernel; 4] = [
    SimdKernel::Scalar,
    SimdKernel::Sse2,
    SimdKernel::Avx2,
    SimdKernel::Auto,
];

/// Timed repetitions per record: `--quick` (CI) and full runs.
const QUICK_REPS: usize = 3;
const FULL_REPS: usize = 11;

/// Tile edge for the tile-wavefront column: a tile row is four full
/// 8-lane AVX2 vectors, and tiles stay small enough to expose tile
/// parallelism at the bench sizes.
const TILE: usize = 32;

/// `(algorithm, id label, parallel)` — parallel algorithms are measured
/// at both thread counts, sequential ones only at `threads = 1`.
const ALGORITHMS: [(Algorithm, &str, bool); 3] = [
    (Algorithm::FullDp, "full", false),
    (Algorithm::Wavefront, "wavefront", true),
    (
        Algorithm::TileWavefront { tile: TILE },
        "tile-wavefront",
        true,
    ),
];

/// The multi-thread column: every core of the host. A 1-core host has no
/// such column — its rows would only time-share one core.
fn multi_threads() -> Option<usize> {
    let cores = pool::host_cores();
    (cores >= 2).then_some(cores)
}

/// One workload triple plus everything needed to label its records.
struct Workload {
    alphabet: &'static str,
    n: usize,
    scoring: Scoring,
    seqs: (Seq, Seq, Seq),
}

fn workloads(quick: bool) -> Vec<Workload> {
    // The quick sizes must overlap the full ones: CI measures `--quick`
    // and diffs it against the committed full baseline, so only shared
    // workload ids are gated.
    let sizes: &[usize] = if quick { &[48, 64] } else { &[64, 128, 256] };
    let mut out = Vec::new();
    for &n in sizes {
        out.push(Workload {
            alphabet: "dna",
            n,
            scoring: Scoring::dna_default(),
            seqs: workload::triple(n),
        });
        let [a, b, c] =
            FamilyConfig::protein(n, workload::CANONICAL_SUB, workload::CANONICAL_INDEL)
                .generate(workload::SEED_BASE ^ (n as u64).rotate_left(17))
                .members;
        out.push(Workload {
            alphabet: "protein",
            n,
            scoring: Scoring::by_name("blosum62").expect("preset exists"),
            seqs: (a, b, c),
        });
    }
    out
}

/// Measure one cell of the matrix inside a dedicated `threads`-wide
/// rayon pool and label the record (`-t{N}` id suffix above one thread,
/// so single-thread ids stay stable across the v1 → v2 migration).
#[allow(clippy::too_many_arguments)] // one label per JSON field
fn measure(
    w: &Workload,
    a: &Seq,
    b: &Seq,
    c: &Seq,
    cells: usize,
    algorithm: Algorithm,
    alg_name: &str,
    kernel: SimdKernel,
    threads: usize,
    reps: usize,
) -> Result<Record, String> {
    let aligner = Aligner::new()
        .scoring(w.scoring.clone())
        .algorithm(algorithm)
        .kernel(kernel);
    // Warm-up run (pulls pages in, fills the profile cache), then the
    // timed samples — all inside the pool the record is labelled with.
    let (score, samples) = pool::with_pool(threads, || {
        let score = aligner.score3(a, b, c).map_err(|e| e.to_string())?;
        let samples = sample(reps, || aligner.score3(a, b, c).expect("warm-up succeeded"));
        Ok::<_, String>((score, samples))
    })?;
    let id = if threads == 1 {
        format!("{}-{}-{}-{}", w.alphabet, w.n, alg_name, kernel.name())
    } else {
        format!(
            "{}-{}-{}-{}-t{}",
            w.alphabet,
            w.n,
            alg_name,
            kernel.name(),
            threads
        )
    };
    let record = Record::from_samples(
        id,
        w.alphabet,
        w.n,
        alg_name,
        kernel.name(),
        kernel.resolve().name(),
        threads,
        cells,
        &samples,
    );
    println!(
        "{:<40} score {score:>8}  median {:>9.3} ms  {:>8.1} Mcells/s ({})",
        record.id,
        record.median_ms,
        record.cells_per_sec / 1e6,
        record.resolved
    );
    Ok(record)
}

fn run(quick: bool, out_path: &str) -> Result<(), String> {
    let reps = if quick { QUICK_REPS } else { FULL_REPS };
    let fingerprint = Fingerprint::host();
    println!(
        "# bench run: {} matrix, {reps} reps, host {} ({} cores, avx2={})",
        if quick { "quick" } else { "full" },
        fingerprint.arch,
        fingerprint.cores,
        fingerprint.avx2
    );
    let multi = multi_threads();
    if multi.is_none() {
        println!(
            "::warning::1-core host: skipping every -tN thread row (they would time-share one core)"
        );
    }
    let mut results = Vec::new();
    for w in workloads(quick) {
        let (a, b, c) = &w.seqs;
        let cells = workload::cell_updates(a, b, c);
        for (algorithm, alg_name, parallel) in ALGORITHMS {
            let mut thread_counts = vec![1];
            thread_counts.extend(multi.filter(|_| parallel));
            for threads in thread_counts {
                for kernel in KERNELS {
                    let record = measure(
                        &w, a, b, c, cells, algorithm, alg_name, kernel, threads, reps,
                    )?;
                    results.push(record);
                }
            }
        }
    }
    let baseline = Baseline {
        quick,
        fingerprint,
        results,
    };
    std::fs::write(out_path, baseline.encode()).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("# wrote {out_path}");
    Ok(())
}

/// The composition gate: tile-wavefront (`auto`) at 2 threads must match
/// or beat the single-thread scalar slab reference on DNA at `n ≥ 128`.
/// Exits via the returned flag; the measurements are also written as a
/// baseline-format artifact so CI can upload them.
fn gate_compose(quick: bool, baseline_path: &str, out_path: &str) -> Result<bool, String> {
    if multi_threads().is_none() {
        println!("::warning::1-core host: compose gate needs 2 cores; passing without measuring");
        return Ok(false);
    }
    let sizes: &[usize] = if quick { &[128] } else { &[128, 256] };
    let reps = if quick { QUICK_REPS } else { FULL_REPS };
    let fingerprint = Fingerprint::host();
    println!(
        "# gate-compose: dna n in {sizes:?}, tile {TILE}, host {} ({} cores, avx2={})",
        fingerprint.arch, fingerprint.cores, fingerprint.avx2
    );
    let mut results = Vec::new();
    let mut failed = false;
    for &n in sizes {
        let w = Workload {
            alphabet: "dna",
            n,
            scoring: Scoring::dna_default(),
            seqs: workload::triple(n),
        };
        let (a, b, c) = &w.seqs;
        let cells = workload::cell_updates(a, b, c);
        // Baseline: the single-thread *scalar* slab — the repo's reference
        // semantics and the classic sequential DP the parallel claim is
        // measured against. (The vectorized slab is not the bar here: its
        // rolling O(n²) working set is cache-resident while any
        // full-lattice sweep is DRAM-bound, so comparing against it would
        // measure memory systems, not scheduling.)
        let slab = measure(
            &w,
            a,
            b,
            c,
            cells,
            Algorithm::FullDp,
            "full",
            SimdKernel::Scalar,
            1,
            reps,
        )?;
        let tiled = measure(
            &w,
            a,
            b,
            c,
            cells,
            Algorithm::TileWavefront { tile: TILE },
            "tile-wavefront",
            SimdKernel::Auto,
            2,
            reps,
        )?;
        let ratio = if slab.cells_per_sec > 0.0 {
            tiled.cells_per_sec / slab.cells_per_sec
        } else {
            0.0
        };
        let ok = tiled.cells_per_sec >= slab.cells_per_sec;
        println!(
            "# compose n={n}: tile-wavefront(auto)@2 / slab(scalar)@1 = {ratio:.3} — {}",
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
        results.push(slab);
        results.push(tiled);
    }
    let doc = Baseline {
        quick,
        fingerprint,
        results,
    };
    std::fs::write(out_path, doc.encode()).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("# wrote {out_path}");
    // Annotate (never fail) when the committed baseline cannot
    // cross-check these measurements yet.
    match std::fs::read_to_string(baseline_path) {
        Ok(text) => match Baseline::decode(&text) {
            Ok(base) => {
                let shared = doc
                    .results
                    .iter()
                    .filter(|r| base.results.iter().any(|b| b.id == r.id))
                    .count();
                if shared == 0 {
                    println!(
                        "::warning::baseline {baseline_path} has no composition ids; \
                         cross-run drift is unmonitored until it is regenerated at v2"
                    );
                }
            }
            Err(e) => println!(
                "::warning::baseline {baseline_path} unreadable ({e}); \
                 compose gate ran self-contained"
            ),
        },
        Err(_) => println!(
            "::warning::missing bench baseline {baseline_path}; compose gate ran self-contained"
        ),
    }
    if failed {
        println!("# FAIL: tile-wavefront at 2 threads lost to the single-thread scalar slab");
    } else {
        println!("# OK: thread x SIMD composition holds at n >= 128");
    }
    Ok(failed)
}

fn run_compare(base_path: &str, current_path: &str, tolerance: f64) -> Result<bool, String> {
    // A missing baseline is expected on branches that never committed
    // one; surface it as a GitHub annotation (picked up from stdout by
    // the runner) and pass the gate instead of erroring.
    if !std::path::Path::new(base_path).exists() {
        println!("::warning::missing bench baseline {base_path}; skipping perf gate");
        return Ok(false);
    }
    let load = |path: &str| -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Baseline::decode(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(base_path)?;
    let current = load(current_path)?;
    let cmp = compare(&base, &current, tolerance);
    if cmp.fingerprint_mismatch {
        println!(
            "# note: fingerprints differ (baseline: {} {} cores; current: {} {} cores) — \
             cross-machine deltas are noisy",
            base.fingerprint.arch,
            base.fingerprint.cores,
            current.fingerprint.arch,
            current.fingerprint.cores
        );
    }
    println!(
        "{:<28} {:>12} {:>12} {:>7}  verdict",
        "workload", "base Mc/s", "curr Mc/s", "ratio"
    );
    for d in &cmp.deltas {
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>7.3}  {}",
            d.id,
            d.base / 1e6,
            d.current / 1e6,
            d.ratio,
            if d.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for id in &cmp.only_base {
        println!("{id:<28} removed from current run");
    }
    for id in &cmp.only_current {
        println!("{id:<28} new in current run (no baseline)");
    }
    if cmp.regressed() {
        println!(
            "# FAIL: median cells/s dropped more than {:.0}% on at least one workload",
            tolerance * 1e2
        );
    } else {
        println!("# OK: no workload regressed beyond {:.0}%", tolerance * 1e2);
    }
    Ok(cmp.regressed())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let fail = |msg: &str| -> ! {
        eprintln!("bench: {msg}\n{USAGE}");
        std::process::exit(2);
    };
    match mode {
        Some("run") => {
            let quick = args.iter().any(|a| a == "--quick");
            let out = match args.iter().position(|a| a == "--out") {
                Some(i) => args
                    .get(i + 1)
                    .unwrap_or_else(|| fail("--out needs a path"))
                    .clone(),
                None => "BENCH_kernel.json".to_string(),
            };
            if let Err(e) = run(quick, &out) {
                eprintln!("bench: {e}");
                std::process::exit(1);
            }
        }
        Some("compare") => {
            let tolerance_value = args.iter().position(|a| a == "--tolerance").map(|i| i + 1);
            let paths: Vec<&String> = args[1..]
                .iter()
                .enumerate()
                .filter(|(i, a)| !a.starts_with("--") && Some(i + 1) != tolerance_value)
                .map(|(_, a)| a)
                .collect();
            if paths.len() != 2 {
                fail("compare needs exactly two baseline paths");
            }
            let tolerance = match args.iter().position(|a| a == "--tolerance") {
                Some(i) => args
                    .get(i + 1)
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| fail("--tolerance needs a fraction in [0, 1)")),
                None => DEFAULT_TOLERANCE,
            };
            match run_compare(paths[0], paths[1], tolerance) {
                Ok(regressed) => std::process::exit(i32::from(regressed)),
                Err(e) => {
                    eprintln!("bench: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("gate-compose") => {
            let quick = args.iter().any(|a| a == "--quick");
            let value_of = |flag: &str, default: &str| -> String {
                match args.iter().position(|a| a == flag) {
                    Some(i) => args
                        .get(i + 1)
                        .unwrap_or_else(|| fail(&format!("{flag} needs a path")))
                        .clone(),
                    None => default.to_string(),
                }
            };
            let baseline = value_of("--baseline", "BENCH_kernel.json");
            let out = value_of("--out", "BENCH_compose.json");
            match gate_compose(quick, &baseline, &out) {
                Ok(failed) => std::process::exit(i32::from(failed)),
                Err(e) => {
                    eprintln!("bench: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => fail("need a mode: run | compare | gate-compose"),
    }
}
