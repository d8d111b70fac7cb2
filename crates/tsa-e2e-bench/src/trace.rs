//! Benchmark-side spans, recorded around the benchmark's own calls into
//! each layer (the program is not instrumented), kept in memory and
//! written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval of one job.
#[derive(Debug, Clone)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Which pass recorded it (`tcp-serve`, `replay`, `lab`, ...).
    pub phase: &'static str,
    /// Job index in the workload stream; shared by a job's spans.
    pub job: usize,
    /// Stage name.
    pub name: &'static str,
    /// Offsets from the recorder's epoch.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// In-memory span store. Span ids are indices into [`Recorder::spans`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded, in recording order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Record a span; returns its id.
    pub fn record(
        &mut self,
        phase: &'static str,
        job: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent,
            phase,
            job,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort();
                let (mut covered, mut reach) = (Duration::ZERO, span.start);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end.saturating_sub(span.start)).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times in microseconds, grouped by `phase/name`.
    pub fn self_times_by_stage(&self) -> BTreeMap<String, Vec<f64>> {
        let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_stage
                .entry(format!("{}/{}", span.phase, span.name))
                .or_default()
                .push(own.as_secs_f64() * 1e6);
        }
        by_stage
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"phase":"{}","job":{},"name":"{}","start_us":{:.3},"end_us":{:.3},"self_us":{:.3}}}"#,
                span.phase,
                span.job,
                span.name,
                us(span.start),
                us(span.end),
                us(own),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::default();
        let t = rec.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = rec.record("p", 0, None, "job", at(0), at(100));
        rec.record("p", 0, Some(root), "a", at(10), at(40));
        rec.record("p", 0, Some(root), "b", at(30), at(50));
        rec.record("p", 0, Some(root), "c", at(90), at(120));
        let own = rec.self_times();
        // Children cover 10..50 and 90..100 of the root.
        assert_eq!(own[root], Duration::from_micros(50));
        assert_eq!(own[1], Duration::from_micros(30));
    }
}
