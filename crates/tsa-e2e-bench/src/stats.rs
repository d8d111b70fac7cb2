//! Nearest-rank percentiles, the metric table, and the paired-run rule
//! `compare` applies.

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;
/// A gain needs at least this many alternating parent/change pairs.
pub const MIN_PAIRS: usize = 10;

/// A nearest-rank percentile with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The nearest-rank `pct`-th percentile (1..=100) of `values`: the
/// smallest sample with at least `pct`% of the samples at or below it.
/// `None` when `values` is empty.
pub fn percentile(values: &[f64], pct: usize) -> Option<Percentile> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit ratio).
    Higher,
    /// Smaller is better (latency, memory, set-up time).
    Lower,
}

impl Better {
    /// How much `to` improves on `from` (negative: it got worse).
    pub fn improvement(self, from: f64, to: f64) -> f64 {
        match self {
            Better::Higher => to - from,
            Better::Lower => from - to,
        }
    }

    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name; per-layer names carry their layer as a prefix.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a client of `tsa serve` / `tsa cluster` sees; printed by `run`.
///
/// The bounds are set by measurement: on the shared 2-core reference
/// host, ten runs with distinct seeds spread by up to 13% (interquartile
/// range over median), 18% for the p95, and ten-run medians moved by up
/// to 15% between sets (see the README). Set-up time keeps the largest
/// bound so that work moved into set-up still shows.
pub const END_TO_END: [MetricDef; 5] = [
    def("jobs_per_s", "1/s", Better::Higher, 0.20),
    def("latency_p50_ms", "ms", Better::Lower, 0.20),
    def("latency_p95_ms", "ms", Better::Lower, 0.24),
    def("setup_s", "s", Better::Lower, 0.25),
    def("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// Single-layer numbers; printed by `trace`.
pub const PER_LAYER: [MetricDef; 19] = [
    layer("protocol.parse_us", "us", Better::Lower),
    layer("protocol.render_us", "us", Better::Lower),
    layer("protocol.response_bytes", "bytes", Better::Lower),
    layer("engine.admit_us", "us", Better::Lower),
    layer("engine.queued_ms_p50", "ms", Better::Lower),
    layer("engine.queued_ms_p99", "ms", Better::Lower),
    layer("engine.service_ms_p50", "ms", Better::Lower),
    layer("cache.hit_ratio", "ratio", Better::Higher),
    layer("cache.lookup_us", "us", Better::Lower),
    layer("cache.put_us", "us", Better::Lower),
    layer("kernel.align_ms_p50", "ms", Better::Lower),
    layer("kernel.align_mcells_per_s", "Mcells/s", Better::Higher),
    layer("kernel.score_ms_p50", "ms", Better::Lower),
    layer("kernel.score_mcells_per_s", "Mcells/s", Better::Higher),
    layer("kernel.cells", "count", Better::Lower),
    layer("traceback.rows_us", "us", Better::Lower),
    layer("server.transport_ms_p50", "ms", Better::Lower),
    layer("cluster.hop_ms_p50", "ms", Better::Lower),
    layer("cluster.route_skew", "ratio", Better::Lower),
];

/// Look a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won ≥ 9/10 of ≥ 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regression,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// Within the bound and the spread.
    Unchanged,
}

impl Verdict {
    /// Lower-case report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Quartiles `[q1, median, q3]`, nearest rank.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let q = |pct| percentile(values, pct).map(|q| q.value);
    Some([q(25)?, q(50)?, q(75)?])
}

/// One metric's comparison: the verdict and the numbers behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Pairs compared (run i of the parent with run i of the change).
    pub pairs: usize,
    /// Pairs the change won; ties count for neither side.
    pub wins: usize,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
}

fn relative_spread(q: [f64; 3]) -> f64 {
    let iqr = q[2] - q[0];
    if iqr == 0.0 {
        0.0
    } else {
        iqr / q[1].abs()
    }
}

/// Compare paired runs of one metric. `parent[i]` and `change[i]` are
/// the i-th runs of each side, made alternately. `None` when either side
/// has no runs.
pub fn judge(parent: &[f64], change: &[f64], def: &MetricDef) -> Option<Judgement> {
    let (p, c) = (quartiles(parent)?, quartiles(change)?);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| def.better.improvement(parent[i], change[i]) > 0.0)
        .count();
    let delta = def.better.improvement(p[1], c[1]);
    let every_run_better = parent
        .iter()
        .all(|&x| change.iter().all(|&y| def.better.improvement(x, y) > 0.0));
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && delta > p[2] - p[0] {
        Verdict::Gain
    } else {
        match def.bound {
            Some(bound) if -delta > bound * p[1].abs() => Verdict::Regression,
            Some(bound)
                if relative_spread(p).max(relative_spread(c)) > bound && !every_run_better =>
            {
                Verdict::Unresolved
            }
            _ => Verdict::Unchanged,
        }
    };
    Some(Judgement {
        verdict,
        pairs,
        wins,
        parent: p,
        change: c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = def("latency_p50_ms", "ms", Better::Lower, 0.10);
    const RATE: MetricDef = def("jobs_per_s", "1/s", Better::Higher, 0.10);

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        use tsa_service::json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Value::parse(&text).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Arr(items)) = json.get(key) else {
                panic!("{key} missing");
            };
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, def) in items.iter().zip(table) {
                let field = |k| item.get(k).and_then(Value::as_str);
                assert_eq!(field("name"), Some(def.name));
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(field("better"), Some(def.better.name()), "{}", def.name);
                let bound = match item.get("bound") {
                    Some(Value::Num(b)) => Some(*b),
                    _ => None,
                };
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles_count_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99).unwrap().beyond, 9);
        let p50 = percentile(&[3.0, 1.0, 2.0, 4.0], 50).unwrap();
        assert_eq!(p50.value, 2.0);
        assert_eq!(percentile(&[7.0], 1).unwrap().value, 7.0);
        assert!(percentile(&[], 50).is_none());
    }

    #[test]
    fn clear_improvement_is_a_gain() {
        let j = judge(&runs(100.0, 1.0), &runs(80.0, 1.0), &LATENCY).unwrap();
        assert_eq!((j.verdict, j.pairs, j.wins), (Verdict::Gain, 10, 10));
        let j = judge(&runs(100.0, 1.0), &runs(120.0, 1.0), &RATE).unwrap();
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        // Nine pairs: not enough, however large the improvement.
        let j = judge(&runs(100.0, 1.0)[..9], &runs(80.0, 1.0)[..9], &LATENCY).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
        // Two of ten pairs lost: 8/10 wins is below nine tenths.
        let mut change = runs(80.0, 1.0);
        change[0] = 200.0;
        change[1] = 200.0;
        assert_eq!(
            judge(&runs(100.0, 1.0), &change, &LATENCY).unwrap().verdict,
            Verdict::Unchanged
        );
        // Every pair won, but by less than the parent's IQR.
        let parent = runs(100.0, 3.0);
        let change: Vec<f64> = parent.iter().map(|x| x - 1.0).collect();
        let j = judge(&parent, &change, &LATENCY).unwrap();
        assert_eq!((j.wins, j.verdict), (10, Verdict::Unchanged));
        // Ties count for neither side.
        let j = judge(&runs(100.0, 1.0), &runs(100.0, 1.0), &LATENCY).unwrap();
        assert_eq!(j.wins, 0);
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression() {
        let j = judge(&runs(100.0, 1.0), &runs(115.0, 1.0), &LATENCY).unwrap();
        assert_eq!(j.verdict, Verdict::Regression);
        let j = judge(&runs(100.0, 1.0), &runs(85.0, 1.0), &RATE).unwrap();
        assert_eq!(j.verdict, Verdict::Regression);
        // Within the bound: unchanged.
        let j = judge(&runs(100.0, 1.0), &runs(105.0, 1.0), &LATENCY).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        // IQR 2×8 = 16 on a median of 100 is wider than the 10% bound.
        let j = judge(&runs(100.0, 8.0), &runs(101.0, 8.0), &LATENCY).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        // A wide spread is unresolved on either side.
        let j = judge(&runs(100.0, 1.0), &runs(101.0, 8.0), &LATENCY).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 3.0).collect();
        let change: Vec<f64> = (0..10).map(|i| 99.0 - f64::from(i) * 3.0).collect();
        let j = judge(&parent, &change, &LATENCY).unwrap();
        assert_ne!(j.verdict, Verdict::Unresolved);
        // Per-layer metrics carry no bound: never a regression.
        let cells = layer("kernel.cells", "count", Better::Lower);
        let j = judge(&runs(100.0, 1.0), &runs(300.0, 1.0), &cells).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
    }
}
