//! The benchmark's own workload generator.
//!
//! Every request line is a pure function of the workload and the seed,
//! built here rather than through `tsa-seq::family` or `tsa-bench`, so a
//! change to either cannot change what the benchmark measures. Streams
//! are unbounded: a timed run draws as many jobs as it has time for.

use std::fmt;

/// Nucleotide residues drawn by the generator.
pub const DNA: &[u8] = b"ACGT";
/// Amino-acid residues drawn by the generator (BLOSUM62 order).
pub const PROTEIN: &[u8] = b"ARNDCQEGHILKMFPSTWYV";
/// Per-residue substitution rate of each family member.
pub const SUB_RATE: f64 = 0.15;
/// Per-residue indel rate (half insertions, half deletions).
pub const INDEL_RATE: f64 = 0.05;
/// Distinct problems at the head of `serve-small-hot`; later jobs reuse them.
pub const HOT_SET: usize = 512;

/// SplitMix64: a tiny, seedable, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn residue(&mut self, alphabet: &[u8]) -> u8 {
        alphabet[self.range(0, alphabet.len() - 1)]
    }
}

/// Which server a workload is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `tsa serve --listen 127.0.0.1:0 --workers 2`.
    Serve,
    /// `tsa cluster --listen 127.0.0.1:0 --workers 2 --worker-threads 1`.
    Cluster,
}

impl Topology {
    /// The other topology (trace mode measures both remainders).
    pub fn other(self) -> Topology {
        match self {
            Topology::Serve => Topology::Cluster,
            Topology::Cluster => Topology::Serve,
        }
    }
}

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct DNA full alignments, n 40–88: the align kernel dominates.
    ServeAlign,
    /// Distinct score-only jobs, n 80–144, half DNA and half protein.
    ServeScore,
    /// Tiny jobs, 512 distinct then skewed reuse: the request path dominates.
    ServeSmallHot,
    /// Align, score-only and repeats through the cluster coordinator.
    ClusterMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeAlign,
        Workload::ServeScore,
        Workload::ServeSmallHot,
        Workload::ClusterMixed,
    ];

    /// The workload's name as the command line and reports spell it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeAlign => "serve-align",
            Workload::ServeScore => "serve-score",
            Workload::ServeSmallHot => "serve-small-hot",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight on each connection (closed loop).
    pub fn window(self) -> usize {
        match self {
            // One in flight keeps the cluster in a single timing regime:
            // at 4, replies held for the coordinator's delayed ACK on the
            // worker links flip runs between two latency modes (p50 72 vs
            // 104 ms), and ten-run medians moved by 35% between sets.
            Workload::ServeAlign | Workload::ServeScore | Workload::ClusterMixed => 1,
            Workload::ServeSmallHot => 16,
        }
    }

    /// The job count the shares were designed around; also the length of
    /// the key stream the cache and routing replays walk.
    pub fn design_jobs(self) -> usize {
        match self {
            Workload::ServeAlign | Workload::ServeScore => 1000,
            Workload::ServeSmallHot => 12000,
            Workload::ClusterMixed => 2000,
        }
    }

    /// The server the workload is driven through.
    pub fn topology(self) -> Topology {
        match self {
            Workload::ClusterMixed => Topology::Cluster,
            _ => Topology::Serve,
        }
    }

    /// Whether the reference check covers every distinct problem; the
    /// others check every alignment but only a 1-in-8 sample of the
    /// (much costlier) score-only problems.
    pub fn checks_every_problem(self) -> bool {
        self == Workload::ServeSmallHot
    }

    fn salt(self) -> u64 {
        // FNV-1a of the name keeps each workload's stream independent.
        self.name().bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

/// One distinct alignment problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// The three family members.
    pub seqs: [Vec<u8>; 3],
    /// Protein (scored with `blosum62`) rather than DNA (`dna`).
    pub protein: bool,
    /// Ask for the score only, no traceback.
    pub score_only: bool,
}

impl Problem {
    fn family(rng: &mut SplitMix64, protein: bool, n: usize, score_only: bool) -> Problem {
        let alphabet = if protein { PROTEIN } else { DNA };
        let ancestor: Vec<u8> = (0..n).map(|_| rng.residue(alphabet)).collect();
        let seqs = std::array::from_fn(|_| {
            let mut member = Vec::with_capacity(n + n / 8);
            for &r in &ancestor {
                let u = rng.unit();
                if u < INDEL_RATE {
                    if rng.coin() {
                        member.push(rng.residue(alphabet));
                        member.push(r);
                    }
                } else if u < INDEL_RATE + SUB_RATE {
                    let mut s = rng.residue(alphabet);
                    while s == r {
                        s = rng.residue(alphabet);
                    }
                    member.push(s);
                } else {
                    member.push(r);
                }
            }
            member
        });
        Problem {
            seqs,
            protein,
            score_only,
        }
    }

    /// The scoring preset name sent on the wire.
    pub fn scoring(&self) -> &'static str {
        if self.protein {
            "blosum62"
        } else {
            "dna"
        }
    }

    /// Full-lattice cells `(n1+1)(n2+1)(n3+1)`.
    pub fn cells(&self) -> u64 {
        self.seqs.iter().map(|s| s.len() as u64 + 1).product()
    }

    /// The NDJSON submit line for job `job` (no trailing newline).
    pub fn line(&self, job: usize) -> String {
        let text = |s: &[u8]| String::from_utf8(s.to_vec()).expect("generated residues are ASCII");
        format!(
            r#"{{"op":"submit","id":"j{job}","alphabet":"{}","a":"{}","b":"{}","c":"{}","scoring":"{}"{}}}"#,
            if self.protein { "protein" } else { "dna" },
            text(&self.seqs[0]),
            text(&self.seqs[1]),
            text(&self.seqs[2]),
            self.scoring(),
            if self.score_only {
                r#","score_only":true"#
            } else {
                ""
            },
        )
    }
}

/// A workload's job stream: job `i` asks for problem `jobs[i]`.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: SplitMix64,
    /// Distinct problems in order of first use.
    pub problems: Vec<Problem>,
    /// The problem index of every job drawn so far.
    pub jobs: Vec<usize>,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream {
            workload,
            rng: SplitMix64::new(seed ^ workload.salt()),
            problems: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Draw the next job; returns its index.
    pub fn next_job(&mut self) -> usize {
        enum Draw {
            Fresh {
                protein: bool,
                n: (usize, usize),
                score_only: bool,
            },
            Repeat(usize),
        }
        let rng = &mut self.rng;
        let draw = match self.workload {
            Workload::ServeAlign => Draw::Fresh {
                protein: false,
                n: (40, 88),
                score_only: false,
            },
            Workload::ServeScore => Draw::Fresh {
                protein: rng.coin(),
                n: (80, 144),
                score_only: true,
            },
            Workload::ServeSmallHot if self.jobs.len() < HOT_SET => Draw::Fresh {
                protein: false,
                n: (16, 40),
                score_only: rng.coin(),
            },
            Workload::ServeSmallHot => {
                // Job i < HOT_SET asked for problem i; u² skews reuse
                // toward the oldest entries.
                let u = rng.unit();
                Draw::Repeat((HOT_SET as f64 * u * u) as usize)
            }
            Workload::ClusterMixed => {
                let u = rng.unit();
                if u < 0.2 && !self.jobs.is_empty() {
                    Draw::Repeat(self.jobs[rng.range(0, self.jobs.len() - 1)])
                } else {
                    Draw::Fresh {
                        protein: false,
                        n: if u < 0.6 { (32, 64) } else { (96, 160) },
                        score_only: u >= 0.6,
                    }
                }
            }
        };
        match draw {
            Draw::Fresh {
                protein,
                n: (lo, hi),
                score_only,
            } => {
                let n = rng.range(lo, hi);
                let problem = Problem::family(rng, protein, n, score_only);
                self.jobs.push(self.problems.len());
                self.problems.push(problem);
            }
            Draw::Repeat(problem) => self.jobs.push(problem),
        }
        self.jobs.len() - 1
    }

    /// Draw jobs until job `job` exists.
    pub fn extend_to(&mut self, job: usize) {
        while self.jobs.len() <= job {
            self.next_job();
        }
    }

    /// The problem job `job` asks for (the job must have been drawn).
    pub fn problem(&self, job: usize) -> &Problem {
        &self.problems[self.jobs[job]]
    }

    /// The request line of job `job` (the job must have been drawn).
    pub fn line(&self, job: usize) -> String {
        self.problem(job).line(job)
    }
}

/// The input properties a workload was designed around, measured over
/// its first [`Workload::design_jobs`] jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Shares {
    /// Workload name.
    pub workload: &'static str,
    /// Jobs measured.
    pub jobs: usize,
    /// Jobs whose problem an earlier job already asked for.
    pub repeat: f64,
    /// Score-only jobs.
    pub score_only: f64,
    /// Protein jobs.
    pub protein: f64,
    /// Shortest and longest generated sequence.
    pub lengths: (usize, usize),
}

impl Shares {
    /// Measure the shares of `workload` under `seed`.
    pub fn of(workload: Workload, seed: u64) -> Shares {
        let mut stream = Stream::new(workload, seed);
        let jobs = workload.design_jobs();
        stream.extend_to(jobs - 1);
        let share = |pred: &dyn Fn(&Problem) -> bool| {
            (0..jobs).filter(|&j| pred(stream.problem(j))).count() as f64 / jobs as f64
        };
        let lens = stream
            .problems
            .iter()
            .flat_map(|p| p.seqs.iter().map(Vec::len));
        Shares {
            workload: workload.name(),
            jobs,
            repeat: (jobs - stream.problems.len()) as f64 / jobs as f64,
            score_only: share(&|p| p.score_only),
            protein: share(&|p| p.protein),
            lengths: (lens.clone().min().unwrap_or(0), lens.max().unwrap_or(0)),
        }
    }
}

impl fmt::Display for Shares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shares {} jobs={} repeat={:.3} score_only={:.3} align={:.3} protein={:.3} dna={:.3} len={}..{}",
            self.workload,
            self.jobs,
            self.repeat,
            self.score_only,
            1.0 - self.score_only,
            self.protein,
            1.0 - self.protein,
            self.lengths.0,
            self.lengths.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(workload: Workload, seed: u64, jobs: usize) -> u64 {
        let mut stream = Stream::new(workload, seed);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..jobs {
            let job = stream.next_job();
            for b in stream.line(job).bytes().chain(std::iter::once(b'\n')) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    #[test]
    fn same_seed_gives_pinned_lines_and_other_seeds_differ() {
        // Pinned FNV-1a digests of the first 600 request lines at seed 1.
        // A change here changes every number the benchmark reports.
        let pinned = [
            (Workload::ServeAlign, 0x7883_422e_e285_6383u64),
            (Workload::ServeScore, 0x1b21_97a4_2642_5593),
            (Workload::ServeSmallHot, 0xa0c1_e0b3_04f2_d393),
            (Workload::ClusterMixed, 0x3a54_9230_681a_8c1f),
        ];
        for (workload, want) in pinned {
            let got = digest(workload, 1, 600);
            assert_eq!(got, digest(workload, 1, 600), "{}", workload.name());
            assert_eq!(got, want, "{} digest {got:#x}", workload.name());
            assert_ne!(got, digest(workload, 2, 600), "{}", workload.name());
        }
    }

    #[test]
    fn shares_match_the_design() {
        let align = Shares::of(Workload::ServeAlign, 7);
        assert_eq!(
            (align.repeat, align.score_only, align.protein),
            (0.0, 0.0, 0.0)
        );
        let score = Shares::of(Workload::ServeScore, 7);
        assert_eq!((score.repeat, score.score_only), (0.0, 1.0));
        assert!((0.45..0.55).contains(&score.protein), "{score}");
        let hot = Shares::of(Workload::ServeSmallHot, 7);
        assert!((0.95..0.96).contains(&hot.repeat), "{hot}");
        assert!((0.4..0.6).contains(&hot.score_only), "{hot}");
        let mixed = Shares::of(Workload::ClusterMixed, 7);
        assert!((0.17..0.23).contains(&mixed.repeat), "{mixed}");
        assert!((0.45..0.55).contains(&mixed.score_only), "{mixed}");
    }

    #[test]
    fn families_follow_the_mutation_rates() {
        let mut rng = SplitMix64::new(3);
        let p = Problem::family(&mut rng, true, 20_000, false);
        for member in &p.seqs {
            let drift = member.len() as f64 / 20_000.0;
            assert!((0.97..1.03).contains(&drift), "length drift {drift}");
            assert!(member.iter().all(|r| PROTEIN.contains(r)));
        }
    }
}
