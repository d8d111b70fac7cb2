//! Hand-rolled argument parsing for the `tsa` binary (no CLI-framework
//! dependency; the surface is small and fixed).

use tsa_core::{Algorithm, SimdKernel};
use tsa_scoring::{GapModel, Scoring};

/// The full usage text (also the `help` output).
pub const USAGE: &str = "\
tsa — optimal three-sequence alignment (sum-of-pairs, exact)

USAGE:
    tsa align (--file <fasta> | --a <seq> --b <seq> --c <seq>) [options]
    tsa gen --len <n> [--sub <rate>] [--indel <rate>] [--seed <u64>] [--protein]
    tsa plan --n1 <len> --n2 <len> --n3 <len> [--tile <t>] [--t-cell <ns>]
    tsa msa --file <fasta> [--scoring <name>] [--gap <g>] [--exact-triples]
            [--guide upgma|nj] [--refine <sweeps>]
    tsa info --file <fasta>
    tsa serve [--listen <addr:port>] [service options]
    tsa batch --file <ndjson> [--repeat <n>] [--quiet] [service options]
    tsa cluster [--workers <n>] [--attach <addr:port>]... [cluster options]
    tsa trace --connect <addr:port> [<trace-id>] [--recent <n>] [--json]
    tsa chaos run <spec.json> [chaos options]
    tsa help

ALIGN OPTIONS:
    --scoring <name>     dna | unit | edit | blosum62 | blosum50 | pam250   [dna]
    --gap <g>            linear gap penalty (negative integer)
    --gap-open <o>       affine gap open (with --gap-extend)
    --gap-extend <e>     affine gap extend
    --algorithm <name>   auto | full | wavefront | tile-wavefront |
                         hirschberg | par-hirschberg | center-star |
                         carrillo-lipman | anchored | affine                [auto]
    --kernel <k>         SIMD score kernel: auto | scalar | sse2 | avx2    [auto]
                         (bit-identical scores; auto takes the widest set
                         the CPU supports, and a request it lacks degrades)
    --tile <t>           tile edge for tile-wavefront                       [16]
    --threads <n>        rayon worker threads (default: all cores)
    --width <w>          output wrap width, 0 = no wrap                     [60]
    --format <f>         plain | fasta | clustal                            [plain]
    --score-only         print only the optimal score
    --stats              print bounds, cells computed, fallback, identity,
                         and timing
    --profile-planes     time every wavefront plane (forces the wavefront
                         fill) and print occupancy/imbalance/barrier
                         figures plus the cost-model comparison on stderr

PLAN OPTIONS (tsa plan --n1 <len> --n2 <len> --n3 <len>):
    prints the lattice's plane profile, each algorithm's plan for an
    alignment and a score-only job (what runs, its sweep and checkpoint
    kind, cell updates and peak bytes) and the modeled speedup
    --tile <t>           tile edge of tile-wavefront and of the modeled
                         tile schedule                                      [16]
    --t-cell <ns>        assumed per-cell cost in nanoseconds               [10]

GEN OPTIONS:
    --len <n>            ancestor length                                    [100]
    --sub <rate>         substitution rate per descendant                   [0.1]
    --indel <rate>       insertion/deletion rate per descendant             [0.02]
    --seed <u64>         RNG seed                                           [42]
    --protein            protein alphabet instead of DNA

SERVICE OPTIONS (tsa serve / tsa batch):
    --workers <n>        worker threads (0 = all cores)                     [0]
    --queue <n>          bounded queue capacity (backpressure beyond it)    [64]
    --cache <n>          result-cache entries, 0 disables                   [1024]
    --deadline-ms <ms>   default per-job deadline (absent = none)
    --memory-budget <b>  cap on planned kernel bytes (`tsa plan`), per job
                         and summed over in-flight jobs; K/M/G suffixes
    --max-cells <n>      per-job cap on planned DP cell updates
    --state-dir <dir>    durable state: crash-safe job journal plus kernel
                         checkpoint snapshots; a restart with the same dir
                         recovers finished jobs and resumes in-flight ones
    --checkpoint-every <p>  DP slabs/planes between checkpoint snapshots  [32]
    --client-rate <r>    per-client token-bucket rate (jobs/second) for
                         requests carrying a `client` field; absent = no
                         rate limiting
    --max-in-flight-per-client <n>  per-client in-flight quota; beyond it
                         submissions are rejected with `overloaded` and a
                         retry_after_ms hint; absent = unbounded
    --flight-recorder <n>  keep the last n completed trace trees in an
                         in-memory ring, queryable via the `trace` op
                         and dumped to --state-dir on SIGUSR1; errors,
                         sheds, retries and hedges are always retained;
                         0 disables                                      [0]
    --slow-ms <ms>       with --flight-recorder, also always retain
                         requests slower than this; 0 disables           [0]
    --trace-sample <n>   with --flight-recorder, keep one in n clean
                         (fast, successful) traces                       [1]
    serve --listen       serve NDJSON over TCP instead of stdin/stdout
                         (the bound address is announced on stderr, so
                         port 0 picks a free port discoverably)
    serve --shard <n>    cluster shard identity, reported by the
                         shard_info and hello ops
    serve --idle-timeout-ms <ms>  close TCP connections idle this long,
                         0 disables                                   [300000]
    serve --trace-jobs   emit a span per job lifecycle stage on stderr
    serve --log-format   text | json — span format for --trace-jobs     [text]
    batch --file         NDJSON file of submit requests (`op` optional)
    batch --repeat <n>   run the batch n times (cache warm after first)    [1]
    batch --quiet        suppress per-job response lines, print stats only
    batch --metrics      dump the Prometheus exposition on stderr at exit

CLUSTER OPTIONS (tsa cluster):
    --workers <n>        local worker processes to spawn                    [2]
    --attach <addr>      also attach a pre-started `tsa serve --listen`
                         worker over TCP (repeatable)
    --listen <addr>      serve the cluster over TCP through the poll(2)
                         event-loop front door; without it a batch runs
                         from --batch (or stdin) and the cluster exits
    --batch <file>       NDJSON request file, `-` for stdin
    --state-dir <dir>    root state dir; worker n journals under
                         <dir>/shard-n and recovers it on respawn
    --worker-threads <n> engine threads per worker (0 = all cores)
    --queue <n>          per-worker queue capacity                         [64]
    --cache <n>          per-worker result-cache entries                 [1024]
    --deadline-ms <ms>   default per-job deadline, per worker
    --heartbeat-ms <ms>  supervisor health-check cadence                  [500]
    --breaker-threshold <n>  consecutive shard failures that trip its
                         circuit breaker; 0 disables breakers              [0]
    --breaker-cooldown-ms <ms>  open-breaker cooldown before a half-open
                         probe is admitted                              [1000]
    --retry-budget <pct> cluster-wide retry budget: retries stay under
                         pct% of routed traffic; 0 disables retries        [0]
    --hedge-after-ms <ms>  race a pending job on its runner-up shard
                         after this long; 0 disables hedging               [0]
    --client-rate <r>    per-client rate limit, forwarded to every worker
    --max-in-flight-per-client <n>  per-client in-flight quota, forwarded
                         to every worker
    --idle-timeout-ms <ms>  close front-door connections idle this long,
                         0 disables                                   [300000]
    --flight-recorder <n>  coordinator + per-worker flight recorders of
                         n trace trees; the coordinator stitches its
                         routing/retry/hedge spans with each worker's
                         job subtree on a `trace` query; 0 disables      [0]
    --slow-ms <ms>       always retain traces slower than this           [0]
    --trace-sample <n>   keep one in n clean traces                      [1]

CHAOS OPTIONS (tsa chaos run — deterministic chaos + integrity check):
    <spec.json>          schedule spec: seed, workload shape, and a list
                         of injections (kill / pause / sever /
                         corrupt-journal / corrupt-checkpoints) pinned
                         to submission indices; see DESIGN.md §4i
    --seed <u64>         override the spec's seed (replay a printed
                         failing seed without editing the spec)
    --log <file>         also write the deterministic event log to a
                         file (it always goes to stdout)
    --state-dir <dir>    cluster state root for the run (default: a
                         fresh directory under the OS temp dir)
    --binary <path>      worker binary to spawn (default: this binary)
    --keep-state         keep the state directory after a passing run
                         (failing runs always keep it)

TRACE OPTIONS (tsa trace — query a serve/cluster flight recorder):
    --connect <addr>     server or cluster front door to query
    <trace-id>           16-hex trace id (as printed in responses and
                         batch reports); omit for the recent notable set
    --recent <n>         how many recent notable traces to list           [5]
    --json               print the raw `trace` response line instead of
                         rendered text trees
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Align three sequences.
    Align(AlignArgs),
    /// Generate a synthetic three-sequence family as FASTA on stdout.
    Gen(GenArgs),
    /// Print analytic schedule/memory predictions for given lengths.
    Plan(PlanArgs),
    /// Progressive multiple alignment of every record in a FASTA file.
    Msa(MsaArgs),
    /// Per-record FASTA summary (length, composition, GC, entropy).
    Info {
        /// FASTA file to summarize.
        file: String,
    },
    /// Run the alignment service (NDJSON over stdio or TCP).
    Serve(ServeArgs),
    /// Run a file of NDJSON requests through the service engine.
    Batch(BatchArgs),
    /// Run a sharded multi-worker cluster (coordinator + N workers).
    Cluster(ClusterArgs),
    /// Query a running server's or cluster's flight recorder.
    Trace(TraceArgs),
    /// Run a deterministic chaos schedule against a real cluster.
    Chaos(ChaosArgs),
    /// Print usage.
    Help,
}

/// Arguments of `tsa chaos run`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosArgs {
    /// Schedule spec file (JSON).
    pub spec: String,
    /// Seed override (replay a printed failing seed).
    pub seed: Option<u64>,
    /// Also write the event log here (stdout always gets it).
    pub log: Option<String>,
    /// Cluster state root (default: fresh temp directory).
    pub state_dir: Option<String>,
    /// Worker binary to spawn (default: the current binary).
    pub binary: Option<String>,
    /// Keep the state directory after a passing run.
    pub keep_state: bool,
}

/// Arguments of `tsa trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Server or cluster front door to query.
    pub connect: String,
    /// 16-hex trace id to fetch; `None` lists recent notable traces.
    pub id: Option<String>,
    /// How many recent notable traces to list when no id is given.
    pub recent: usize,
    /// Print the raw response line instead of rendered text trees.
    pub json: bool,
}

/// Arguments of `tsa align`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignArgs {
    /// FASTA file holding (at least) three records.
    pub file: Option<String>,
    /// Inline sequences (all three required together).
    pub inline: Option<(String, String, String)>,
    /// Scoring preset name.
    pub scoring: String,
    /// Linear gap override.
    pub gap: Option<i32>,
    /// Affine gap override (open, extend).
    pub gap_affine: Option<(i32, i32)>,
    /// Algorithm name.
    pub algorithm: String,
    /// SIMD kernel name: auto | scalar | sse2 | avx2.
    pub kernel: String,
    /// Tile edge for the tile-wavefront algorithm.
    pub tile: usize,
    /// Worker thread count (None = rayon default).
    pub threads: Option<usize>,
    /// Output wrap width.
    pub width: usize,
    /// Output format: plain | fasta | clustal.
    pub format: String,
    /// Print only the score.
    pub score_only: bool,
    /// Print bounds/identity/timing.
    pub stats: bool,
    /// Run the profiled wavefront fill and print the per-plane profile
    /// plus the cost-model comparison.
    pub profile_planes: bool,
}

impl Default for AlignArgs {
    fn default() -> Self {
        AlignArgs {
            file: None,
            inline: None,
            scoring: "dna".into(),
            gap: None,
            gap_affine: None,
            algorithm: "auto".into(),
            kernel: "auto".into(),
            tile: 16,
            threads: None,
            width: 60,
            format: "plain".into(),
            score_only: false,
            stats: false,
            profile_planes: false,
        }
    }
}

/// Arguments of `tsa gen`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenArgs {
    /// Ancestor length.
    pub len: usize,
    /// Substitution rate.
    pub sub: f64,
    /// Indel rate.
    pub indel: f64,
    /// RNG seed.
    pub seed: u64,
    /// Protein alphabet?
    pub protein: bool,
}

impl Default for GenArgs {
    fn default() -> Self {
        GenArgs {
            len: 100,
            sub: 0.1,
            indel: 0.02,
            seed: 42,
            protein: false,
        }
    }
}

/// Arguments of `tsa plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// The three sequence lengths.
    pub n: (usize, usize, usize),
    /// Tile edge of the modeled tile schedule.
    pub tile: usize,
    /// Assumed per-cell cost (ns).
    pub t_cell_ns: f64,
}

/// Arguments of `tsa msa`.
#[derive(Debug, Clone, PartialEq)]
pub struct MsaArgs {
    /// FASTA file with ≥ 1 records.
    pub file: String,
    /// Scoring preset name.
    pub scoring: String,
    /// Linear gap override.
    pub gap: Option<i32>,
    /// Use the exact 3-sequence DP when exactly three records are given.
    pub exact_triples: bool,
    /// Guide tree method name (upgma | nj).
    pub guide: String,
    /// Iterative refinement sweeps (0 = off).
    pub refine: usize,
}

/// Engine sizing flags shared by `tsa serve` and `tsa batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOpts {
    /// Worker threads (0 = all cores).
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue: usize,
    /// Result-cache entries (0 disables).
    pub cache: usize,
    /// Default per-job deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cap on estimated kernel bytes (per job and globally in flight).
    pub memory_budget: Option<u64>,
    /// Per-job cap on estimated DP cell updates.
    pub max_cells: Option<u64>,
    /// Durable state directory (journal + checkpoint snapshots).
    pub state_dir: Option<String>,
    /// DP planes between checkpoint snapshots.
    pub checkpoint_every: usize,
    /// Per-client token-bucket rate (jobs/second); `None` = unlimited.
    pub client_rate: Option<f64>,
    /// Per-client in-flight quota; `None` = unbounded.
    pub max_in_flight_per_client: Option<usize>,
    /// Flight-recorder ring capacity (trace trees); 0 disables.
    pub flight_recorder: usize,
    /// With the recorder, always retain traces slower than this; 0
    /// disables the slow trigger.
    pub slow_ms: u64,
    /// Keep one in this many clean traces (≤ 1 keeps every one).
    pub trace_sample: u64,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            workers: 0,
            queue: 64,
            cache: 1024,
            deadline_ms: None,
            memory_budget: None,
            max_cells: None,
            state_dir: None,
            checkpoint_every: 32,
            client_rate: None,
            max_in_flight_per_client: None,
            flight_recorder: 0,
            slow_ms: 0,
            trace_sample: 1,
        }
    }
}

impl ServiceOpts {
    /// Try to consume one service flag; `Ok(true)` when it was one.
    fn take_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = parse_num(flag, take_value(flag, it)?)?,
            "--queue" => {
                self.queue = parse_num(flag, take_value(flag, it)?)?;
                if self.queue == 0 {
                    return Err("--queue must be >= 1".into());
                }
            }
            "--cache" => self.cache = parse_num(flag, take_value(flag, it)?)?,
            "--deadline-ms" => self.deadline_ms = Some(parse_num(flag, take_value(flag, it)?)?),
            "--memory-budget" => {
                self.memory_budget = Some(parse_bytes(flag, take_value(flag, it)?)?);
            }
            "--max-cells" => self.max_cells = Some(parse_num(flag, take_value(flag, it)?)?),
            "--state-dir" => self.state_dir = Some(take_value(flag, it)?.clone()),
            "--checkpoint-every" => {
                self.checkpoint_every = parse_num(flag, take_value(flag, it)?)?;
                if self.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be >= 1".into());
                }
            }
            "--client-rate" => {
                let rate: f64 = parse_num(flag, take_value(flag, it)?)?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--client-rate must be a positive number".into());
                }
                self.client_rate = Some(rate);
            }
            "--max-in-flight-per-client" => {
                let n: usize = parse_num(flag, take_value(flag, it)?)?;
                if n == 0 {
                    return Err("--max-in-flight-per-client must be >= 1".into());
                }
                self.max_in_flight_per_client = Some(n);
            }
            "--flight-recorder" => {
                self.flight_recorder = parse_num(flag, take_value(flag, it)?)?;
            }
            "--slow-ms" => self.slow_ms = parse_num(flag, take_value(flag, it)?)?,
            "--trace-sample" => {
                self.trace_sample = parse_num(flag, take_value(flag, it)?)?;
                if self.trace_sample == 0 {
                    return Err("--trace-sample must be >= 1".into());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Arguments of `tsa serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP listen address; stdin/stdout when absent.
    pub listen: Option<String>,
    /// Cluster shard identity, reported by `shard_info` and `hello`.
    pub shard: Option<u64>,
    /// Engine sizing.
    pub service: ServiceOpts,
    /// Emit a span per job lifecycle stage on stderr.
    pub trace_jobs: bool,
    /// Span format for `--trace-jobs`: `text` or `json`.
    pub log_format: String,
    /// Close TCP connections idle this long, in milliseconds; 0 disables.
    pub idle_timeout_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            listen: None,
            shard: None,
            service: ServiceOpts::default(),
            trace_jobs: false,
            log_format: "text".into(),
            idle_timeout_ms: 300_000,
        }
    }
}

/// Arguments of `tsa cluster`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArgs {
    /// Local worker processes to spawn.
    pub workers: u32,
    /// Pre-started workers to attach over TCP.
    pub attach: Vec<String>,
    /// Front-door TCP listen address; batch mode when absent.
    pub listen: Option<String>,
    /// NDJSON request file (`-` = stdin) for batch mode.
    pub batch: Option<String>,
    /// Root state directory (worker n journals under `shard-n`).
    pub state_dir: Option<String>,
    /// Engine threads per worker (0 = all cores).
    pub worker_threads: Option<usize>,
    /// Per-worker queue capacity.
    pub queue: Option<usize>,
    /// Per-worker result-cache entries.
    pub cache: Option<usize>,
    /// Default per-job deadline, per worker.
    pub deadline_ms: Option<u64>,
    /// Supervisor health-check cadence in milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive shard failures that trip its breaker; 0 disables.
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before a half-open probe, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Cluster-wide retry budget as a percent of routed traffic; 0
    /// disables retries.
    pub retry_budget: f64,
    /// Hedge a pending job on its runner-up shard after this many
    /// milliseconds; 0 disables hedging.
    pub hedge_after_ms: u64,
    /// Per-client rate limit forwarded to every worker.
    pub client_rate: Option<f64>,
    /// Per-client in-flight quota forwarded to every worker.
    pub max_in_flight_per_client: Option<usize>,
    /// Close front-door connections idle this long (ms); 0 disables.
    pub idle_timeout_ms: u64,
    /// Flight-recorder ring capacity on the coordinator and every
    /// worker; 0 disables distributed tracing.
    pub flight_recorder: usize,
    /// Always retain traces slower than this (ms); 0 disables.
    pub slow_ms: u64,
    /// Keep one in this many clean traces (≤ 1 keeps every one).
    pub trace_sample: u64,
}

impl Default for ClusterArgs {
    fn default() -> Self {
        ClusterArgs {
            workers: 2,
            attach: Vec::new(),
            listen: None,
            batch: None,
            state_dir: None,
            worker_threads: None,
            queue: None,
            cache: None,
            deadline_ms: None,
            heartbeat_ms: 500,
            breaker_threshold: 0,
            breaker_cooldown_ms: 1000,
            retry_budget: 0.0,
            hedge_after_ms: 0,
            client_rate: None,
            max_in_flight_per_client: None,
            idle_timeout_ms: 300_000,
            flight_recorder: 0,
            slow_ms: 0,
            trace_sample: 1,
        }
    }
}

/// Arguments of `tsa batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArgs {
    /// NDJSON request file.
    pub file: String,
    /// Engine sizing.
    pub service: ServiceOpts,
    /// How many times to run the batch (≥ 2 exercises the cache).
    pub repeat: usize,
    /// Suppress per-job output; print only the final stats.
    pub quiet: bool,
    /// Dump the Prometheus exposition on stderr after the run.
    pub metrics: bool,
}

/// Parse a full argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("align") => parse_align(it.as_slice()).map(Command::Align),
        Some("gen") => parse_gen(it.as_slice()).map(Command::Gen),
        Some("plan") => parse_plan(it.as_slice()).map(Command::Plan),
        Some("msa") => parse_msa(it.as_slice()).map(Command::Msa),
        Some("serve") => parse_serve(it.as_slice()).map(Command::Serve),
        Some("batch") => parse_batch(it.as_slice()).map(Command::Batch),
        Some("cluster") => parse_cluster(it.as_slice()).map(Command::Cluster),
        Some("trace") => parse_trace(it.as_slice()).map(Command::Trace),
        Some("chaos") => parse_chaos(it.as_slice()).map(Command::Chaos),
        Some("info") => {
            let rest = it.as_slice();
            match rest {
                [flag, file] if flag == "--file" => Ok(Command::Info { file: file.clone() }),
                _ => Err("info needs exactly --file <fasta>".into()),
            }
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    }
}

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse::<T>()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// Parse a byte count with an optional K/M/G (binary) suffix, e.g.
/// `512M`, `4G`, `65536`.
fn parse_bytes(flag: &str, raw: &str) -> Result<u64, String> {
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'k' | b'K') => (&raw[..raw.len() - 1], 10),
        Some(b'm' | b'M') => (&raw[..raw.len() - 1], 20),
        Some(b'g' | b'G') => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let base: u64 = parse_num(flag, digits)?;
    base.checked_mul(1u64 << shift)
        .ok_or_else(|| format!("{flag}: `{raw}` overflows"))
}

fn parse_align(argv: &[String]) -> Result<AlignArgs, String> {
    let mut a = AlignArgs::default();
    let (mut sa, mut sb, mut sc) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--file" => a.file = Some(take_value(flag, &mut it)?.clone()),
            "--a" => sa = Some(take_value(flag, &mut it)?.clone()),
            "--b" => sb = Some(take_value(flag, &mut it)?.clone()),
            "--c" => sc = Some(take_value(flag, &mut it)?.clone()),
            "--scoring" => a.scoring = take_value(flag, &mut it)?.clone(),
            "--gap" => a.gap = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--gap-open" => {
                let open = parse_num(flag, take_value(flag, &mut it)?)?;
                a.gap_affine = Some((open, a.gap_affine.map(|x| x.1).unwrap_or(-1)));
            }
            "--gap-extend" => {
                let extend = parse_num(flag, take_value(flag, &mut it)?)?;
                a.gap_affine = Some((a.gap_affine.map(|x| x.0).unwrap_or(-4), extend));
            }
            "--algorithm" => a.algorithm = take_value(flag, &mut it)?.clone(),
            "--kernel" => a.kernel = take_value(flag, &mut it)?.clone(),
            "--tile" => a.tile = parse_num(flag, take_value(flag, &mut it)?)?,
            "--threads" => a.threads = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--width" => a.width = parse_num(flag, take_value(flag, &mut it)?)?,
            "--format" => a.format = take_value(flag, &mut it)?.clone(),
            "--score-only" => a.score_only = true,
            "--stats" => a.stats = true,
            "--profile-planes" => a.profile_planes = true,
            other => return Err(format!("unknown align flag `{other}`")),
        }
    }
    match (sa, sb, sc) {
        (Some(x), Some(y), Some(z)) => a.inline = Some((x, y, z)),
        (None, None, None) => {}
        _ => return Err("--a/--b/--c must be given together".into()),
    }
    if a.file.is_none() && a.inline.is_none() {
        return Err("align needs --file or --a/--b/--c".into());
    }
    if a.file.is_some() && a.inline.is_some() {
        return Err("give either --file or inline sequences, not both".into());
    }
    Ok(a)
}

fn parse_gen(argv: &[String]) -> Result<GenArgs, String> {
    let mut g = GenArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--len" => g.len = parse_num(flag, take_value(flag, &mut it)?)?,
            "--sub" => g.sub = parse_num(flag, take_value(flag, &mut it)?)?,
            "--indel" => g.indel = parse_num(flag, take_value(flag, &mut it)?)?,
            "--seed" => g.seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--protein" => g.protein = true,
            other => return Err(format!("unknown gen flag `{other}`")),
        }
    }
    Ok(g)
}

fn parse_plan(argv: &[String]) -> Result<PlanArgs, String> {
    let (mut n1, mut n2, mut n3) = (None, None, None);
    let mut p = PlanArgs {
        n: (0, 0, 0),
        tile: 16,
        t_cell_ns: 10.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--n1" => n1 = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--n2" => n2 = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--n3" => n3 = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--tile" => p.tile = parse_num(flag, take_value(flag, &mut it)?)?,
            "--t-cell" => p.t_cell_ns = parse_num(flag, take_value(flag, &mut it)?)?,
            other => return Err(format!("unknown plan flag `{other}`")),
        }
    }
    match (n1, n2, n3) {
        (Some(a), Some(b), Some(c)) => {
            p.n = (a, b, c);
            if p.tile == 0 {
                return Err("--tile must be >= 1".into());
            }
            Ok(p)
        }
        _ => Err("plan needs --n1, --n2 and --n3".into()),
    }
}

fn parse_msa(argv: &[String]) -> Result<MsaArgs, String> {
    let mut m = MsaArgs {
        file: String::new(),
        scoring: "dna".into(),
        gap: None,
        exact_triples: false,
        guide: "upgma".into(),
        refine: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--file" => m.file = take_value(flag, &mut it)?.clone(),
            "--scoring" => m.scoring = take_value(flag, &mut it)?.clone(),
            "--gap" => m.gap = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--exact-triples" => m.exact_triples = true,
            "--guide" => m.guide = take_value(flag, &mut it)?.clone(),
            "--refine" => m.refine = parse_num(flag, take_value(flag, &mut it)?)?,
            other => return Err(format!("unknown msa flag `{other}`")),
        }
    }
    if m.file.is_empty() {
        return Err("msa needs --file".into());
    }
    Ok(m)
}

fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
    let mut s = ServeArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if s.service.take_flag(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--listen" => s.listen = Some(take_value(flag, &mut it)?.clone()),
            "--shard" => s.shard = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--idle-timeout-ms" => {
                s.idle_timeout_ms = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--trace-jobs" => s.trace_jobs = true,
            "--log-format" => {
                s.log_format = take_value(flag, &mut it)?.clone();
                if !matches!(s.log_format.as_str(), "text" | "json") {
                    return Err(format!(
                        "--log-format must be `text` or `json`, not `{}`",
                        s.log_format
                    ));
                }
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    Ok(s)
}

fn parse_batch(argv: &[String]) -> Result<BatchArgs, String> {
    let mut b = BatchArgs {
        file: String::new(),
        service: ServiceOpts::default(),
        repeat: 1,
        quiet: false,
        metrics: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if b.service.take_flag(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--file" => b.file = take_value(flag, &mut it)?.clone(),
            "--repeat" => {
                b.repeat = parse_num(flag, take_value(flag, &mut it)?)?;
                if b.repeat == 0 {
                    return Err("--repeat must be >= 1".into());
                }
            }
            "--quiet" => b.quiet = true,
            "--metrics" => b.metrics = true,
            other => return Err(format!("unknown batch flag `{other}`")),
        }
    }
    if b.file.is_empty() {
        return Err("batch needs --file".into());
    }
    Ok(b)
}

fn parse_cluster(argv: &[String]) -> Result<ClusterArgs, String> {
    let mut c = ClusterArgs::default();
    let mut workers_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workers" => {
                c.workers = parse_num(flag, take_value(flag, &mut it)?)?;
                workers_given = true;
            }
            "--attach" => c.attach.push(take_value(flag, &mut it)?.clone()),
            "--listen" => c.listen = Some(take_value(flag, &mut it)?.clone()),
            "--batch" => c.batch = Some(take_value(flag, &mut it)?.clone()),
            "--state-dir" => c.state_dir = Some(take_value(flag, &mut it)?.clone()),
            "--worker-threads" => {
                c.worker_threads = Some(parse_num(flag, take_value(flag, &mut it)?)?);
            }
            "--queue" => {
                let queue: usize = parse_num(flag, take_value(flag, &mut it)?)?;
                if queue == 0 {
                    return Err("--queue must be >= 1".into());
                }
                c.queue = Some(queue);
            }
            "--cache" => c.cache = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--deadline-ms" => c.deadline_ms = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--heartbeat-ms" => {
                c.heartbeat_ms = parse_num(flag, take_value(flag, &mut it)?)?;
                if c.heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be >= 1".into());
                }
            }
            "--breaker-threshold" => {
                c.breaker_threshold = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--breaker-cooldown-ms" => {
                c.breaker_cooldown_ms = parse_num(flag, take_value(flag, &mut it)?)?;
                if c.breaker_cooldown_ms == 0 {
                    return Err("--breaker-cooldown-ms must be >= 1".into());
                }
            }
            "--retry-budget" => {
                c.retry_budget = parse_num(flag, take_value(flag, &mut it)?)?;
                if !c.retry_budget.is_finite() || c.retry_budget < 0.0 {
                    return Err("--retry-budget must be a non-negative percentage".into());
                }
            }
            "--hedge-after-ms" => {
                c.hedge_after_ms = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--client-rate" => {
                let rate: f64 = parse_num(flag, take_value(flag, &mut it)?)?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--client-rate must be a positive number".into());
                }
                c.client_rate = Some(rate);
            }
            "--max-in-flight-per-client" => {
                let n: usize = parse_num(flag, take_value(flag, &mut it)?)?;
                if n == 0 {
                    return Err("--max-in-flight-per-client must be >= 1".into());
                }
                c.max_in_flight_per_client = Some(n);
            }
            "--idle-timeout-ms" => {
                c.idle_timeout_ms = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--flight-recorder" => {
                c.flight_recorder = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--slow-ms" => c.slow_ms = parse_num(flag, take_value(flag, &mut it)?)?,
            "--trace-sample" => {
                c.trace_sample = parse_num(flag, take_value(flag, &mut it)?)?;
                if c.trace_sample == 0 {
                    return Err("--trace-sample must be >= 1".into());
                }
            }
            other => return Err(format!("unknown cluster flag `{other}`")),
        }
    }
    // `--workers 0 --attach host:port` is an attach-only cluster; an
    // explicit zero with nothing attached cannot serve anything.
    if workers_given && c.workers == 0 && c.attach.is_empty() {
        return Err("a cluster needs at least one worker (--workers or --attach)".into());
    }
    if c.listen.is_some() && c.batch.is_some() {
        return Err("give either --listen or --batch, not both".into());
    }
    Ok(c)
}

fn parse_trace(argv: &[String]) -> Result<TraceArgs, String> {
    let mut t = TraceArgs {
        connect: String::new(),
        id: None,
        recent: 5,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => t.connect = take_value(arg, &mut it)?.clone(),
            "--recent" => {
                t.recent = parse_num(arg, take_value(arg, &mut it)?)?;
                if t.recent == 0 {
                    return Err("--recent must be >= 1".into());
                }
            }
            "--json" => t.json = true,
            other if !other.starts_with("--") => {
                if t.id.is_some() {
                    return Err("trace takes at most one <trace-id>".into());
                }
                if u64::from_str_radix(other, 16).is_err() {
                    return Err(format!("`{other}` is not a hex trace id"));
                }
                t.id = Some(other.to_string());
            }
            other => return Err(format!("unknown trace flag `{other}`")),
        }
    }
    if t.connect.is_empty() {
        return Err("trace needs --connect <addr:port>".into());
    }
    Ok(t)
}

fn parse_chaos(argv: &[String]) -> Result<ChaosArgs, String> {
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        Some("run") => {}
        Some(other) => return Err(format!("unknown chaos subcommand `{other}` (try `run`)")),
        None => return Err("chaos needs a subcommand: run <spec.json>".into()),
    }
    let mut c = ChaosArgs::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => c.seed = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            "--log" => c.log = Some(take_value(arg, &mut it)?.clone()),
            "--state-dir" => c.state_dir = Some(take_value(arg, &mut it)?.clone()),
            "--binary" => c.binary = Some(take_value(arg, &mut it)?.clone()),
            "--keep-state" => c.keep_state = true,
            other if !other.starts_with("--") => {
                if !c.spec.is_empty() {
                    return Err("chaos run takes exactly one <spec.json>".into());
                }
                c.spec = other.to_string();
            }
            other => return Err(format!("unknown chaos flag `{other}`")),
        }
    }
    if c.spec.is_empty() {
        return Err("chaos run needs a <spec.json> schedule file".into());
    }
    Ok(c)
}

impl AlignArgs {
    /// Resolve the scoring preset + gap overrides into a [`Scoring`].
    pub fn build_scoring(&self) -> Result<Scoring, String> {
        let mut scoring = Scoring::by_name(&self.scoring)
            .ok_or_else(|| format!("unknown scoring `{}`", self.scoring))?;
        if let Some((open, extend)) = self.gap_affine {
            scoring = scoring.with_gap(GapModel::affine(open, extend));
        } else if let Some(g) = self.gap {
            scoring = scoring.with_gap(GapModel::linear(g));
        }
        Ok(scoring)
    }

    /// Resolve the algorithm name through the shared
    /// [`Algorithm::by_name`] lookup.
    pub fn build_algorithm(&self) -> Result<Algorithm, String> {
        Algorithm::by_name(&self.algorithm, self.tile)
            .ok_or_else(|| format!("unknown algorithm `{}`", self.algorithm))
    }

    /// Resolve the kernel name through the shared [`SimdKernel::by_name`]
    /// lookup.
    pub fn build_kernel(&self) -> Result<SimdKernel, String> {
        SimdKernel::by_name(&self.kernel).ok_or_else(|| {
            format!(
                "unknown kernel `{}` (want auto|scalar|sse2|avx2)",
                self.kernel
            )
        })
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_variants() {
        for h in [&[][..], &["help"][..], &["--help"][..], &["-h"][..]] {
            assert_eq!(parse(&sv(h)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(parse(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn align_inline_parses() {
        let cmd = parse(&sv(&[
            "align",
            "--a",
            "ACG",
            "--b",
            "AG",
            "--c",
            "AC",
            "--algorithm",
            "full",
            "--score-only",
        ]))
        .unwrap();
        let Command::Align(a) = cmd else { panic!() };
        assert_eq!(a.inline, Some(("ACG".into(), "AG".into(), "AC".into())));
        assert_eq!(a.algorithm, "full");
        assert!(a.score_only);
        assert!(!a.stats);
    }

    #[test]
    fn align_file_parses() {
        let Command::Align(a) = parse(&sv(&["align", "--file", "x.fa", "--width", "0"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.file.as_deref(), Some("x.fa"));
        assert_eq!(a.width, 0);
    }

    #[test]
    fn align_requires_input() {
        assert!(parse(&sv(&["align"])).is_err());
        assert!(parse(&sv(&["align", "--a", "A", "--b", "C"])).is_err());
        assert!(parse(&sv(&[
            "align", "--file", "x.fa", "--a", "A", "--b", "C", "--c", "G"
        ]))
        .is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&sv(&["align", "--file"])).is_err());
        assert!(parse(&sv(&[
            "align", "--a", "A", "--b", "C", "--c", "G", "--tile"
        ]))
        .is_err());
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(parse(&sv(&["align", "--file", "x", "--gap", "abc"])).is_err());
        assert!(parse(&sv(&["gen", "--len", "-3"])).is_err());
    }

    #[test]
    fn gen_defaults_and_overrides() {
        let Command::Gen(g) = parse(&sv(&["gen"])).unwrap() else {
            panic!()
        };
        assert_eq!(g, GenArgs::default());
        let Command::Gen(g) = parse(&sv(&[
            "gen",
            "--len",
            "50",
            "--sub",
            "0.3",
            "--seed",
            "9",
            "--protein",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(g.len, 50);
        assert!((g.sub - 0.3).abs() < 1e-12);
        assert_eq!(g.seed, 9);
        assert!(g.protein);
    }

    #[test]
    fn scoring_resolution() {
        let mut a = AlignArgs::default();
        for name in ["dna", "unit", "edit", "blosum62", "blosum50", "pam250"] {
            a.scoring = name.into();
            a.build_scoring().unwrap();
        }
        a.scoring = "nope".into();
        assert!(a.build_scoring().is_err());
    }

    #[test]
    fn gap_overrides() {
        let mut a = AlignArgs::default();
        a.gap = Some(-5);
        assert_eq!(a.build_scoring().unwrap().gap.linear_penalty(), Some(-5));
        a.gap_affine = Some((-9, -2));
        let s = a.build_scoring().unwrap();
        assert_eq!(s.gap.open_penalty(), -9);
        assert_eq!(s.gap.extend_penalty(), -2);
    }

    #[test]
    fn affine_flags_compose_in_any_order() {
        let Command::Align(a) = parse(&sv(&[
            "align",
            "--file",
            "x",
            "--gap-extend",
            "-2",
            "--gap-open",
            "-9",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.gap_affine, Some((-9, -2)));
    }

    #[test]
    fn plan_parses_and_validates() {
        let Command::Plan(p) = parse(&sv(&[
            "plan", "--n1", "100", "--n2", "120", "--n3", "90", "--tile", "8",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(p.n, (100, 120, 90));
        assert_eq!(p.tile, 8);
        assert!((p.t_cell_ns - 10.0).abs() < 1e-12);
        assert!(parse(&sv(&["plan", "--n1", "10"])).is_err());
        assert!(parse(&sv(&[
            "plan", "--n1", "1", "--n2", "1", "--n3", "1", "--tile", "0"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "plan", "--n1", "1", "--n2", "1", "--n3", "1", "--bogus", "x"
        ]))
        .is_err());
    }

    #[test]
    fn info_parses() {
        assert_eq!(
            parse(&sv(&["info", "--file", "x.fa"])).unwrap(),
            Command::Info {
                file: "x.fa".into()
            }
        );
        assert!(parse(&sv(&["info"])).is_err());
        assert!(parse(&sv(&["info", "--file"])).is_err());
        assert!(parse(&sv(&["info", "--file", "x", "extra"])).is_err());
    }

    #[test]
    fn format_flag_parses() {
        let Command::Align(a) =
            parse(&sv(&["align", "--file", "x", "--format", "clustal"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.format, "clustal");
        let Command::Align(a) = parse(&sv(&["align", "--file", "x"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.format, "plain");
    }

    #[test]
    fn serve_parses_defaults_and_flags() {
        let Command::Serve(s) = parse(&sv(&["serve"])).unwrap() else {
            panic!()
        };
        assert_eq!(s, ServeArgs::default());
        let Command::Serve(s) = parse(&sv(&[
            "serve",
            "--listen",
            "127.0.0.1:7777",
            "--workers",
            "4",
            "--queue",
            "8",
            "--cache",
            "0",
            "--deadline-ms",
            "500",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.listen.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(s.service.workers, 4);
        assert_eq!(s.service.queue, 8);
        assert_eq!(s.service.cache, 0);
        assert_eq!(s.service.deadline_ms, Some(500));
        assert!(parse(&sv(&["serve", "--queue", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--bogus"])).is_err());
    }

    #[test]
    fn governor_flags_parse_with_suffixes() {
        let Command::Serve(s) = parse(&sv(&[
            "serve",
            "--memory-budget",
            "512M",
            "--max-cells",
            "1000000",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.service.memory_budget, Some(512 << 20));
        assert_eq!(s.service.max_cells, Some(1_000_000));

        for (raw, want) in [("65536", 65536u64), ("4k", 4 << 10), ("2G", 2 << 30)] {
            let Command::Batch(b) =
                parse(&sv(&["batch", "--file", "x", "--memory-budget", raw])).unwrap()
            else {
                panic!()
            };
            assert_eq!(b.service.memory_budget, Some(want));
        }

        assert!(parse(&sv(&["serve", "--memory-budget", "lots"])).is_err());
        assert!(parse(&sv(&["serve", "--memory-budget", "99999999999G"])).is_err());
        assert!(parse(&sv(&["serve", "--memory-budget"])).is_err());
        assert!(parse(&sv(&["serve", "--max-cells", "-1"])).is_err());
    }

    #[test]
    fn durability_flags_parse() {
        let Command::Serve(s) = parse(&sv(&[
            "serve",
            "--state-dir",
            "/var/lib/tsa",
            "--checkpoint-every",
            "8",
            "--idle-timeout-ms",
            "0",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.service.state_dir.as_deref(), Some("/var/lib/tsa"));
        assert_eq!(s.service.checkpoint_every, 8);
        assert_eq!(s.idle_timeout_ms, 0);
        assert!(parse(&sv(&["serve", "--checkpoint-every", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--state-dir"])).is_err());
        assert!(parse(&sv(&["batch", "--file", "x", "--idle-timeout-ms", "1"])).is_err());

        let Command::Batch(b) = parse(&sv(&["batch", "--file", "x", "--state-dir", "d"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(b.service.state_dir.as_deref(), Some("d"));
        assert_eq!(b.service.checkpoint_every, 32);
    }

    #[test]
    fn batch_parses_and_validates() {
        let Command::Batch(b) = parse(&sv(&[
            "batch",
            "--file",
            "jobs.ndjson",
            "--repeat",
            "2",
            "--quiet",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(b.file, "jobs.ndjson");
        assert_eq!(b.repeat, 2);
        assert!(b.quiet);
        assert_eq!(b.service, ServiceOpts::default());
        assert!(parse(&sv(&["batch"])).is_err());
        assert!(parse(&sv(&["batch", "--file", "x", "--repeat", "0"])).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let Command::Serve(s) =
            parse(&sv(&["serve", "--trace-jobs", "--log-format", "json"])).unwrap()
        else {
            panic!()
        };
        assert!(s.trace_jobs);
        assert_eq!(s.log_format, "json");
        assert!(parse(&sv(&["serve", "--log-format", "xml"])).is_err());
        assert!(parse(&sv(&["serve", "--log-format"])).is_err());

        let Command::Batch(b) = parse(&sv(&["batch", "--file", "x", "--metrics"])).unwrap() else {
            panic!()
        };
        assert!(b.metrics);

        let Command::Align(a) = parse(&sv(&["align", "--file", "x", "--profile-planes"])).unwrap()
        else {
            panic!()
        };
        assert!(a.profile_planes);
    }

    #[test]
    fn kernel_flag_parses_and_validates() {
        let Command::Align(a) =
            parse(&sv(&["align", "--file", "x", "--kernel", "scalar"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.kernel, "scalar");
        assert_eq!(a.build_kernel().unwrap(), SimdKernel::Scalar);

        let Command::Align(a) = parse(&sv(&["align", "--file", "x"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.build_kernel().unwrap(), SimdKernel::Auto);

        let mut bad = AlignArgs::default();
        bad.kernel = "avx512".into();
        assert!(bad.build_kernel().is_err());

        // Served jobs always run `auto`: the service commands take no
        // kernel flag.
        assert!(parse(&sv(&["serve", "--kernel", "avx2"])).is_err());
        assert!(parse(&sv(&["batch", "--file", "x", "--kernel", "sse2"])).is_err());
        assert!(parse(&sv(&["cluster", "--kernel", "scalar"])).is_err());
    }

    #[test]
    fn serve_shard_flag_parses() {
        let Command::Serve(s) = parse(&sv(&["serve", "--shard", "3"])).unwrap() else {
            panic!()
        };
        assert_eq!(s.shard, Some(3));
        assert_eq!(ServeArgs::default().shard, None);
        assert!(parse(&sv(&["serve", "--shard", "minus-one"])).is_err());
        assert!(parse(&sv(&["serve", "--shard"])).is_err());
    }

    #[test]
    fn cluster_parses_defaults_and_flags() {
        let Command::Cluster(c) = parse(&sv(&["cluster"])).unwrap() else {
            panic!()
        };
        assert_eq!(c, ClusterArgs::default());
        assert_eq!(c.workers, 2);

        let Command::Cluster(c) = parse(&sv(&[
            "cluster",
            "--workers",
            "4",
            "--attach",
            "10.0.0.1:7777",
            "--attach",
            "10.0.0.2:7777",
            "--state-dir",
            "/var/lib/tsa",
            "--worker-threads",
            "2",
            "--queue",
            "16",
            "--cache",
            "64",
            "--deadline-ms",
            "250",
            "--heartbeat-ms",
            "100",
            "--batch",
            "-",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.workers, 4);
        assert_eq!(c.attach, vec!["10.0.0.1:7777", "10.0.0.2:7777"]);
        assert_eq!(c.state_dir.as_deref(), Some("/var/lib/tsa"));
        assert_eq!(c.worker_threads, Some(2));
        assert_eq!(c.queue, Some(16));
        assert_eq!(c.cache, Some(64));
        assert_eq!(c.deadline_ms, Some(250));
        assert_eq!(c.heartbeat_ms, 100);
        assert_eq!(c.batch.as_deref(), Some("-"));
    }

    #[test]
    fn cluster_validates_topology_and_modes() {
        // Attach-only is fine; zero workers with nothing attached is not.
        let Command::Cluster(c) =
            parse(&sv(&["cluster", "--workers", "0", "--attach", "h:1"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.workers, 0);
        assert!(parse(&sv(&["cluster", "--workers", "0"])).is_err());
        assert!(parse(&sv(&["cluster", "--listen", "0:0", "--batch", "x.ndjson"])).is_err());
        assert!(parse(&sv(&["cluster", "--queue", "0"])).is_err());
        assert!(parse(&sv(&["cluster", "--heartbeat-ms", "0"])).is_err());
        assert!(parse(&sv(&["cluster", "--bogus"])).is_err());
    }

    #[test]
    fn overload_flags_parse_and_default_off() {
        // Everything defaults off/unbounded: an unconfigured cluster
        // is byte-identical to the pre-robustness behavior.
        let d = ClusterArgs::default();
        assert_eq!(d.breaker_threshold, 0);
        assert_eq!(d.retry_budget, 0.0);
        assert_eq!(d.hedge_after_ms, 0);
        assert_eq!(d.client_rate, None);
        assert_eq!(d.max_in_flight_per_client, None);
        assert_eq!(d.idle_timeout_ms, 300_000);
        assert_eq!(ServiceOpts::default().client_rate, None);
        assert_eq!(ServiceOpts::default().max_in_flight_per_client, None);

        let Command::Cluster(c) = parse(&sv(&[
            "cluster",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown-ms",
            "200",
            "--retry-budget",
            "10",
            "--hedge-after-ms",
            "50",
            "--client-rate",
            "2.5",
            "--max-in-flight-per-client",
            "4",
            "--idle-timeout-ms",
            "0",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.breaker_threshold, 3);
        assert_eq!(c.breaker_cooldown_ms, 200);
        assert_eq!(c.retry_budget, 10.0);
        assert_eq!(c.hedge_after_ms, 50);
        assert_eq!(c.client_rate, Some(2.5));
        assert_eq!(c.max_in_flight_per_client, Some(4));
        assert_eq!(c.idle_timeout_ms, 0);

        assert!(parse(&sv(&["cluster", "--retry-budget", "-1"])).is_err());
        assert!(parse(&sv(&["cluster", "--client-rate", "0"])).is_err());
        assert!(parse(&sv(&["cluster", "--max-in-flight-per-client", "0"])).is_err());
        assert!(parse(&sv(&["cluster", "--breaker-cooldown-ms", "0"])).is_err());
    }

    #[test]
    fn fairness_flags_parse_for_serve_and_batch() {
        let Command::Serve(s) = parse(&sv(&[
            "serve",
            "--client-rate",
            "5",
            "--max-in-flight-per-client",
            "2",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.service.client_rate, Some(5.0));
        assert_eq!(s.service.max_in_flight_per_client, Some(2));

        let Command::Batch(b) =
            parse(&sv(&["batch", "--file", "x", "--client-rate", "0.5"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(b.service.client_rate, Some(0.5));

        assert!(parse(&sv(&["serve", "--client-rate", "nan"])).is_err());
        assert!(parse(&sv(&["serve", "--client-rate", "-2"])).is_err());
        assert!(parse(&sv(&["serve", "--max-in-flight-per-client", "0"])).is_err());
    }

    #[test]
    fn tracing_flags_parse_and_default_off() {
        // Unconfigured behavior is byte-identical: every tracing knob
        // defaults off.
        let d = ServiceOpts::default();
        assert_eq!(d.flight_recorder, 0);
        assert_eq!(d.slow_ms, 0);
        assert_eq!(d.trace_sample, 1);
        let cd = ClusterArgs::default();
        assert_eq!(cd.flight_recorder, 0);
        assert_eq!(cd.slow_ms, 0);
        assert_eq!(cd.trace_sample, 1);

        let Command::Serve(s) = parse(&sv(&[
            "serve",
            "--flight-recorder",
            "256",
            "--slow-ms",
            "50",
            "--trace-sample",
            "10",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.service.flight_recorder, 256);
        assert_eq!(s.service.slow_ms, 50);
        assert_eq!(s.service.trace_sample, 10);
        assert!(parse(&sv(&["serve", "--trace-sample", "0"])).is_err());

        let Command::Cluster(c) = parse(&sv(&[
            "cluster",
            "--flight-recorder",
            "64",
            "--slow-ms",
            "5",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.flight_recorder, 64);
        assert_eq!(c.slow_ms, 5);
        assert!(parse(&sv(&["cluster", "--trace-sample", "0"])).is_err());
    }

    #[test]
    fn trace_subcommand_parses_and_validates() {
        let Command::Trace(t) = parse(&sv(&[
            "trace",
            "--connect",
            "127.0.0.1:7777",
            "00000000000000ff",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(t.connect, "127.0.0.1:7777");
        assert_eq!(t.id.as_deref(), Some("00000000000000ff"));
        assert_eq!(t.recent, 5);
        assert!(!t.json);

        let Command::Trace(t) = parse(&sv(&[
            "trace",
            "--connect",
            "h:1",
            "--recent",
            "3",
            "--json",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(t.id, None);
        assert_eq!(t.recent, 3);
        assert!(t.json);

        assert!(parse(&sv(&["trace"])).is_err(), "needs --connect");
        assert!(parse(&sv(&["trace", "--connect", "h:1", "zz-not-hex"])).is_err());
        assert!(parse(&sv(&["trace", "--connect", "h:1", "--recent", "0"])).is_err());
        assert!(parse(&sv(&["trace", "--connect", "h:1", "1", "2"])).is_err());
    }

    #[test]
    fn algorithm_resolution() {
        let mut a = AlignArgs::default();
        for (name, want) in [
            ("auto", Algorithm::Auto),
            ("full", Algorithm::FullDp),
            ("wavefront", Algorithm::Wavefront),
            ("hirschberg", Algorithm::Hirschberg),
            ("par-hirschberg", Algorithm::ParallelHirschberg),
            ("center-star", Algorithm::CenterStar),
            ("affine", Algorithm::AffineDp),
        ] {
            a.algorithm = name.into();
            assert_eq!(a.build_algorithm().unwrap(), want);
        }
        a.algorithm = "blocked".into();
        assert!(a.build_algorithm().is_err(), "retired algorithm name");
        a.algorithm = "tile-wavefront".into();
        a.tile = 8;
        assert_eq!(
            a.build_algorithm().unwrap(),
            Algorithm::TileWavefront { tile: 8 }
        );
        a.algorithm = "whatever".into();
        assert!(a.build_algorithm().is_err());
    }
}
