//! Post-phase answer checking. Runs after the timed phase, so the
//! reference DP never competes with the server for the CPU.

use crate::gen::{Stream, Workload};
use crate::reference::{check_rows, sp_score};
use std::collections::HashMap;
use tsa_scoring::Scoring;
use tsa_service::json::Value;

/// Failure messages kept for the report; the count is always exact.
const KEPT_FAILURES: usize = 5;

/// A `done` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Reported score.
    pub score: i32,
    /// Reported gapped rows, for alignment jobs.
    pub rows: Option<[String; 3]>,
}

impl Answer {
    /// Read a protocol reply; an `Err` says why it is not a usable `done`.
    pub fn from_reply(reply: &Value) -> Result<Answer, String> {
        if reply.get("status").and_then(Value::as_str) != Some("done") {
            return Err(format!("not done: {reply:?}"));
        }
        let score = reply
            .get("score")
            .and_then(Value::as_i64)
            .and_then(|s| i32::try_from(s).ok())
            .ok_or("done reply without an i32 score")?;
        let rows = match reply.get("rows") {
            None => None,
            Some(Value::Arr(items)) => {
                let rows: Vec<String> = items
                    .iter()
                    .filter_map(|row| row.as_str().map(str::to_owned))
                    .collect();
                Some(<[String; 3]>::try_from(rows).map_err(|_| "rows is not three strings")?)
            }
            Some(_) => return Err("rows is not an array".into()),
        };
        Ok(Answer { score, rows })
    }
}

/// Checks answers against the problems the workload stream asked for.
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    stream: Stream,
    dna: Scoring,
    protein: Scoring,
    /// First score seen per problem; repeats must match it.
    first: HashMap<usize, i32>,
    /// Reference score per problem checked against the reference DP.
    reference: HashMap<usize, i32>,
    /// Answers checked.
    pub checked: usize,
    /// Answers that failed, for any reason.
    pub failed: usize,
    failures: Vec<String>,
}

impl Checker {
    /// A checker for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Checker {
        Checker {
            workload,
            stream: Stream::new(workload, seed),
            dna: Scoring::dna_default(),
            protein: Scoring::blosum62(),
            first: HashMap::new(),
            reference: HashMap::new(),
            checked: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check the answer to job `job` of the stream.
    pub fn check_job(&mut self, job: usize, answer: Result<Answer, String>) {
        self.stream.extend_to(job);
        let problem = self.stream.jobs[job];
        let rows_expected = !self.stream.problems[problem].score_only;
        self.check(problem, rows_expected, answer);
    }

    /// Check an answer for problem `problem`: rows present exactly when
    /// `rows_expected`, valid, consistent with earlier answers to the same
    /// problem, and, for sampled problems, optimal.
    pub fn check(&mut self, problem: usize, rows_expected: bool, answer: Result<Answer, String>) {
        self.checked += 1;
        if let Err(reason) = self.verify(problem, rows_expected, answer) {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(format!("problem {problem}: {reason}"));
            }
        }
    }

    fn verify(
        &mut self,
        problem: usize,
        rows_expected: bool,
        answer: Result<Answer, String>,
    ) -> Result<(), String> {
        let answer = answer?;
        let p = &self.stream.problems[problem];
        let scoring = if p.protein { &self.protein } else { &self.dna };
        let seqs = [0, 1, 2].map(|i| p.seqs[i].as_slice());
        match (&answer.rows, rows_expected) {
            (Some(rows), true) => check_rows(rows, seqs, scoring, answer.score)?,
            (None, false) => {}
            (_, want) => return Err(format!("rows expected: {want}, got: {}", !want)),
        }
        let first = *self.first.entry(problem).or_insert(answer.score);
        if first != answer.score {
            return Err(format!(
                "score {} differs from earlier {first}",
                answer.score
            ));
        }
        // Every alignment is checked; score-only problems fully on the
        // hot workload and otherwise on a fixed 1-in-8 sample.
        if rows_expected
            || p.score_only && (self.workload.checks_every_problem() || problem % 8 == 0)
        {
            let optimal = *self
                .reference
                .entry(problem)
                .or_insert_with(|| sp_score(seqs[0], seqs[1], seqs[2], scoring));
            if optimal != answer.score {
                return Err(format!(
                    "score {} is not the optimum {optimal}",
                    answer.score
                ));
            }
        }
        Ok(())
    }

    /// One report line: answers checked, distinct problems scored by the
    /// reference DP, how many of the distinct score-only problems were
    /// among them, and failures.
    pub fn summary(&self) -> String {
        let score_only = |p: &&usize| self.stream.problems[**p].score_only;
        let mut line = format!(
            "reference {} checked={} reference_problems={} score_only_referenced={}/{} failed={}",
            self.workload.name(),
            self.checked,
            self.reference.len(),
            self.reference.keys().filter(score_only).count(),
            self.first.keys().filter(score_only).count(),
            self.failed,
        );
        for failure in &self.failures {
            line.push_str(&format!("\n  failure: {failure}"));
        }
        line
    }
}
