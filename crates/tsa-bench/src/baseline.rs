//! Machine-readable kernel benchmark baselines.
//!
//! The `bench` binary runs a pinned workload matrix (alphabet × size ×
//! algorithm × SIMD kernel) and serialises the measurements to
//! `BENCH_kernel.json` at the repo root. CI re-runs the same matrix and
//! diffs the fresh file against the committed baseline with
//! [`compare`]: a drop of more than the tolerance in median cells/s on
//! any workload the two files share is a perf regression and fails the
//! gate. The JSON layer reuses the dependency-free reader/writer from
//! `tsa-service`.

use std::time::{Duration, Instant};
use tsa_service::json::{escape, Value};

/// Format version stamped into every baseline file.
///
/// v2 added a `threads` column. Records measured at `threads = 1` keep
/// their v1 ids (`dna-64-full-scalar`); multi-thread records append a
/// `-t{N}` suffix. [`Baseline::decode`] still reads [`SCHEMA_V1`] files
/// (every record defaulting to `threads = 1`), so diffing a fresh v2 run
/// against a committed v1 baseline gates all the ids the two matrices
/// share — the regression gate stays non-vacuous across the migration.
pub const SCHEMA: &str = "tsa-bench/kernel-baseline/v2";

/// The previous format version, still accepted by [`Baseline::decode`].
pub const SCHEMA_V1: &str = "tsa-bench/kernel-baseline/v1";

/// Default regression tolerance: fail on >20% median cells/s drop.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Where the measurement ran — recorded so a baseline from a different
/// machine is flagged in the comparison report instead of silently
/// producing noise verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Target architecture (`x86_64`, `aarch64`, ...).
    pub arch: String,
    /// Logical CPU count.
    pub cores: u64,
    /// Whether the AVX2 kernel resolves natively on this host.
    pub avx2: bool,
    /// CPU model string from `/proc/cpuinfo` (empty if unavailable).
    pub cpu: String,
}

impl Fingerprint {
    /// Probe the current host.
    pub fn host() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_default();
        Fingerprint {
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            avx2: tsa_core::SimdKernel::Avx2.resolve().name() == "avx2",
            cpu,
        }
    }
}

/// One measured workload cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Stable workload key, e.g. `dna-256-wavefront-auto`. Comparison
    /// matches records across files by this id.
    pub id: String,
    /// `dna` or `protein`.
    pub alphabet: String,
    /// Nominal ancestor length of the workload family.
    pub n: u64,
    /// Algorithm name (`full`, `wavefront`).
    pub algorithm: String,
    /// Requested kernel knob (`scalar`, `sse2`, `avx2`, `auto`).
    pub kernel: String,
    /// What the knob resolved to on the measuring host.
    pub resolved: String,
    /// Rayon worker threads the measurement ran under (1 = sequential
    /// column; v1 records decode to 1).
    pub threads: u64,
    /// Lattice cells per run (the cells/s numerator).
    pub cells: u64,
    /// Number of timed repetitions behind the statistics.
    pub samples: u64,
    /// Median wall time, milliseconds.
    pub median_ms: f64,
    /// 10th-percentile (fastest-decile) wall time, milliseconds.
    pub p10_ms: f64,
    /// Cells per second at the median wall time — the gated figure.
    pub cells_per_sec: f64,
}

impl Record {
    /// Build a record from raw wall-time samples (sorted internally).
    #[allow(clippy::too_many_arguments)] // one label per JSON field
    pub fn from_samples(
        id: String,
        alphabet: &str,
        n: usize,
        algorithm: &str,
        kernel: &str,
        resolved: &str,
        threads: usize,
        cells: usize,
        samples: &[Duration],
    ) -> Record {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        secs.sort_by(f64::total_cmp);
        let median = percentile(&secs, 0.5);
        let p10 = percentile(&secs, 0.1);
        Record {
            id,
            alphabet: alphabet.to_string(),
            n: n as u64,
            algorithm: algorithm.to_string(),
            kernel: kernel.to_string(),
            resolved: resolved.to_string(),
            threads: threads as u64,
            cells: cells as u64,
            samples: samples.len() as u64,
            median_ms: median * 1e3,
            p10_ms: p10 * 1e3,
            cells_per_sec: if median > 0.0 {
                cells as f64 / median
            } else {
                0.0
            },
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A complete baseline file: fingerprint plus the measured matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Whether this was a `--quick` (CI-sized) run.
    pub quick: bool,
    /// Host the numbers came from.
    pub fingerprint: Fingerprint,
    /// One record per workload cell.
    pub results: Vec<Record>,
}

impl Baseline {
    /// Serialise to the `BENCH_kernel.json` wire format (one pretty-ish
    /// document, trailing newline included).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SCHEMA)));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"fingerprint\": {{\"arch\": \"{}\", \"cores\": {}, \"avx2\": {}, \"cpu\": \"{}\"}},\n",
            escape(&self.fingerprint.arch),
            self.fingerprint.cores,
            self.fingerprint.avx2,
            escape(&self.fingerprint.cpu)
        ));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"alphabet\": \"{}\", \"n\": {}, \
                 \"algorithm\": \"{}\", \"kernel\": \"{}\", \"resolved\": \"{}\", \
                 \"threads\": {}, \"cells\": {}, \"samples\": {}, \"median_ms\": {}, \
                 \"p10_ms\": {}, \"cells_per_sec\": {}}}{}\n",
                escape(&r.id),
                escape(&r.alphabet),
                r.n,
                escape(&r.algorithm),
                escape(&r.kernel),
                escape(&r.resolved),
                r.threads,
                r.cells,
                r.samples,
                json_f64(r.median_ms),
                json_f64(r.p10_ms),
                json_f64(r.cells_per_sec),
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a baseline document, validating the schema stamp.
    pub fn decode(text: &str) -> Result<Baseline, String> {
        let doc = Value::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!(
                "schema `{schema}`, want `{SCHEMA}` (or `{SCHEMA_V1}`)"
            ));
        }
        let fp = doc.get("fingerprint").ok_or("missing `fingerprint`")?;
        let fingerprint = Fingerprint {
            arch: str_field(fp, "arch")?,
            cores: num_field(fp, "cores")? as u64,
            avx2: fp
                .get("avx2")
                .and_then(Value::as_bool)
                .ok_or("missing `avx2`")?,
            cpu: str_field(fp, "cpu")?,
        };
        let results = match doc.get("results") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|item| {
                    Ok(Record {
                        id: str_field(item, "id")?,
                        alphabet: str_field(item, "alphabet")?,
                        n: num_field(item, "n")? as u64,
                        algorithm: str_field(item, "algorithm")?,
                        kernel: str_field(item, "kernel")?,
                        resolved: str_field(item, "resolved")?,
                        // v1 predates the threads column; those runs were
                        // all single-threaded.
                        threads: match item.get("threads") {
                            Some(Value::Num(n)) => *n as u64,
                            _ => 1,
                        },
                        cells: num_field(item, "cells")? as u64,
                        samples: num_field(item, "samples")? as u64,
                        median_ms: num_field(item, "median_ms")?,
                        p10_ms: num_field(item, "p10_ms")?,
                        cells_per_sec: num_field(item, "cells_per_sec")?,
                    })
                })
                .collect::<Result<Vec<Record>, String>>()?,
            _ => return Err("missing `results` array".into()),
        };
        Ok(Baseline {
            quick: doc.get("quick").and_then(Value::as_bool).unwrap_or(false),
            fingerprint,
            results,
        })
    }
}

/// Emit an f64 as a JSON number (JSON has no inf/nan; clamp those to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(n)) => Ok(*n),
        _ => Err(format!("missing number `{key}`")),
    }
}

/// Verdict for one workload id present in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Workload id.
    pub id: String,
    /// Baseline median cells/s.
    pub base: f64,
    /// Current median cells/s.
    pub current: f64,
    /// `current / base` (0 when the baseline is degenerate).
    pub ratio: f64,
    /// Whether this delta breaches the tolerance.
    pub regressed: bool,
}

/// Outcome of diffing a current run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-shared-workload verdicts, baseline file order.
    pub deltas: Vec<Delta>,
    /// Ids only in the baseline (workload removed — reported, not fatal).
    pub only_base: Vec<String>,
    /// Ids only in the current run (new workload — reported, not fatal).
    pub only_current: Vec<String>,
    /// True when the two files were measured on different hosts.
    pub fingerprint_mismatch: bool,
}

impl Comparison {
    /// True when any shared workload regressed beyond tolerance.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }
}

/// Diff `current` against `base`: a shared workload regresses when its
/// median cells/s falls below `(1 - tolerance) ×` the baseline figure.
pub fn compare(base: &Baseline, current: &Baseline, tolerance: f64) -> Comparison {
    let floor = 1.0 - tolerance;
    let mut deltas = Vec::new();
    let mut only_base = Vec::new();
    for b in &base.results {
        match current.results.iter().find(|c| c.id == b.id) {
            Some(c) => {
                let ratio = if b.cells_per_sec > 0.0 {
                    c.cells_per_sec / b.cells_per_sec
                } else {
                    0.0
                };
                deltas.push(Delta {
                    id: b.id.clone(),
                    base: b.cells_per_sec,
                    current: c.cells_per_sec,
                    ratio,
                    regressed: b.cells_per_sec > 0.0 && ratio < floor,
                });
            }
            None => only_base.push(b.id.clone()),
        }
    }
    let only_current = current
        .results
        .iter()
        .filter(|c| !base.results.iter().any(|b| b.id == c.id))
        .map(|c| c.id.clone())
        .collect();
    Comparison {
        deltas,
        only_base,
        only_current,
        fingerprint_mismatch: base.fingerprint != current.fingerprint,
    }
}

/// Time `f` `reps` times and return every wall-time sample.
pub fn sample<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<Duration> {
    assert!(reps >= 1, "need at least one repetition");
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            let _ = f();
            start.elapsed()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, cps: f64) -> Record {
        Record {
            id: id.into(),
            alphabet: "dna".into(),
            n: 64,
            algorithm: "wavefront".into(),
            kernel: "auto".into(),
            resolved: "avx2".into(),
            threads: 1,
            cells: 1000,
            samples: 5,
            median_ms: 1.5,
            p10_ms: 1.4,
            cells_per_sec: cps,
        }
    }

    fn base_with(results: Vec<Record>) -> Baseline {
        Baseline {
            quick: true,
            fingerprint: Fingerprint::host(),
            results,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let b = base_with(vec![rec("dna-64-wavefront-auto", 1.25e8)]);
        let text = b.encode();
        let back = Baseline::decode(&text).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn decode_rejects_wrong_schema() {
        let err = Baseline::decode("{\"schema\": \"bogus/v9\"}").unwrap_err();
        assert!(err.contains("bogus/v9"), "{err}");
    }

    #[test]
    fn decode_accepts_v1_with_threads_defaulting_to_one() {
        // A v1 document: old schema stamp, records without `threads`.
        let text = format!(
            "{{\"schema\": \"{SCHEMA_V1}\", \"quick\": false, \
             \"fingerprint\": {{\"arch\": \"x86_64\", \"cores\": 1, \"avx2\": true, \"cpu\": \"\"}}, \
             \"results\": [{{\"id\": \"dna-64-full-scalar\", \"alphabet\": \"dna\", \"n\": 64, \
             \"algorithm\": \"full\", \"kernel\": \"scalar\", \"resolved\": \"scalar\", \
             \"cells\": 1000, \"samples\": 5, \"median_ms\": 1.0, \"p10_ms\": 0.9, \
             \"cells_per_sec\": 1000000.0}}]}}"
        );
        let v1 = Baseline::decode(&text).unwrap();
        assert_eq!(v1.results[0].threads, 1);

        // Migration non-vacuity: the single-thread ids of a v2 run are
        // unchanged, so a v1 baseline still gates them.
        let mut new_style = rec("dna-64-full-scalar", 5e5);
        new_style.cells_per_sec = 5e5; // 50% drop vs the v1 figure
        let mut multi = rec("dna-64-wavefront-auto-t8", 1e9);
        multi.threads = 8;
        let current = base_with(vec![new_style, multi]);
        let cmp = compare(&v1, &current, DEFAULT_TOLERANCE);
        assert_eq!(cmp.deltas.len(), 1, "shared v1 id is still gated");
        assert!(cmp.deltas[0].regressed);
        assert_eq!(
            cmp.only_current,
            vec!["dna-64-wavefront-auto-t8".to_string()]
        );
    }

    #[test]
    fn from_samples_computes_median_and_p10() {
        let samples: Vec<Duration> = [30, 10, 20, 50, 40]
            .iter()
            .map(|ms| Duration::from_millis(*ms))
            .collect();
        let r = Record::from_samples(
            "id".into(),
            "dna",
            64,
            "full",
            "scalar",
            "scalar",
            1,
            3_000_000,
            &samples,
        );
        assert!((r.median_ms - 30.0).abs() < 1e-9);
        assert!((r.p10_ms - 10.0).abs() < 1e-9);
        assert!((r.cells_per_sec - 1e8).abs() < 1.0);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let base = base_with(vec![rec("a", 100.0), rec("b", 100.0), rec("gone", 50.0)]);
        let current = base_with(vec![rec("a", 85.0), rec("b", 75.0), rec("new", 10.0)]);
        let cmp = compare(&base, &current, DEFAULT_TOLERANCE);
        assert_eq!(cmp.deltas.len(), 2);
        assert!(!cmp.deltas[0].regressed, "15% drop is within 20%");
        assert!(cmp.deltas[1].regressed, "25% drop breaches 20%");
        assert!(cmp.regressed());
        assert_eq!(cmp.only_base, vec!["gone".to_string()]);
        assert_eq!(cmp.only_current, vec!["new".to_string()]);
        assert!(!cmp.fingerprint_mismatch);
    }

    #[test]
    fn compare_improvements_never_fail() {
        let base = base_with(vec![rec("a", 100.0)]);
        let current = base_with(vec![rec("a", 500.0)]);
        assert!(!compare(&base, &current, DEFAULT_TOLERANCE).regressed());
    }

    #[test]
    fn sample_returns_every_rep() {
        assert_eq!(sample(4, || ()).len(), 4);
    }
}
