//! Command implementations for the `tsa` binary.

use crate::args::{
    AlignArgs, BatchArgs, Command, GenArgs, MsaArgs, PlanArgs, ServeArgs, TraceArgs, USAGE,
};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsa_core::sweep::Order;
use tsa_core::{bounds, format, Algorithm, Aligner, CancelToken, KernelKind};
use tsa_perfmodel::{model, planes, ClusterModel, CostModel};
use tsa_scoring::GapModel;
use tsa_seq::family::FamilyConfig;
use tsa_seq::{fasta, Alphabet, Seq};
use tsa_service::{Engine, FlightRecorder, RecorderConfig, ServiceConfig};

/// Why a command stopped short: a message for stderr, or standard output
/// closed under it (`tsa align ... | head`), which ends the command
/// quietly with status 0.
#[derive(Debug)]
pub enum Failure {
    /// An error to report.
    Message(String),
    /// Standard output is gone: nothing left to say, and no one to say it
    /// to.
    StdoutClosed,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Failure::StdoutClosed,
            _ => Failure::Message(format!("stdout: {e}")),
        }
    }
}

/// Execute a parsed command. The verbs that print to standard output
/// write through one locked handle each.
pub fn run(cmd: Command) -> Result<(), Failure> {
    match cmd {
        Command::Help => {
            writeln!(std::io::stdout().lock(), "{USAGE}")?;
            Ok(())
        }
        Command::Gen(g) => run_gen(g),
        Command::Align(a) => run_align(a),
        Command::Plan(p) => run_plan(p),
        Command::Msa(m) => run_msa(m),
        Command::Info { file } => run_info(&file),
        Command::Serve(s) => Ok(run_serve(s)?),
        Command::Batch(b) => Ok(run_batch(b)?),
        Command::Cluster(c) => Ok(crate::cluster::run_cluster(c)?),
        Command::Trace(t) => run_trace(t),
        Command::Chaos(c) => Ok(crate::chaos::run_chaos(c)?),
    }
}

fn engine_config(opts: &crate::args::ServiceOpts) -> ServiceConfig {
    // With a flight recorder the engine needs a tracer sinking into it;
    // every job then records a span tree, and the `trace` op queries
    // the ring. Without one, nothing is traced (byte-identical).
    let recorder = (opts.flight_recorder > 0).then(|| {
        Arc::new(FlightRecorder::new(RecorderConfig {
            capacity: opts.flight_recorder,
            slow_us: opts.slow_ms.saturating_mul(1_000),
            sample_one_in: opts.trace_sample,
        }))
    });
    ServiceConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache_capacity: opts.cache,
        default_deadline: opts.deadline_ms.map(Duration::from_millis),
        memory_budget: opts.memory_budget,
        max_cells: opts.max_cells,
        state_dir: opts.state_dir.as_ref().map(std::path::PathBuf::from),
        checkpoint_every_planes: opts.checkpoint_every,
        client_rate: opts.client_rate,
        max_in_flight_per_client: opts.max_in_flight_per_client,
        tracer: recorder
            .as_ref()
            .map(|r| tsa_service::Tracer::new(Arc::clone(r) as Arc<dyn tsa_service::SpanSink>)),
        recorder,
        ..ServiceConfig::default()
    }
}

/// Write one line to stderr, best-effort. `eprintln!` panics once
/// nothing reads stderr any more (an orphaned cluster worker,
/// `tsa serve 2>&1 | head`), and a notice must never turn a clean drain
/// into a crash or a hung server.
fn notice(line: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Install SIGINT/SIGTERM handlers that trip a flag, and a watcher
/// thread that turns the flag into a graceful [`Engine::drain`]: stop
/// admission, checkpoint in-flight durable kernels, flush the journal,
/// and exit 0. Hand-rolled `signal(2)` FFI — the workspace carries no
/// libc binding, and a store to a static atomic is async-signal-safe.
#[cfg(unix)]
fn install_drain_signals(engine: &Arc<Engine>) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    static DUMP: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" fn on_dump(_sig: i32) {
        DUMP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIGUSR1: i32 = 10;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        // SIGUSR1 dumps the flight recorder to --state-dir without
        // disturbing the server.
        signal(SIGUSR1, on_dump as extern "C" fn(i32) as usize);
    }
    let engine = Arc::clone(engine);
    std::thread::Builder::new()
        .name("tsa-drain-signal".into())
        .spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                notice(format_args!("# tsa serve: signal received, draining"));
                let stats = engine.drain();
                notice(format_args!("{stats}"));
                std::process::exit(0);
            }
            if DUMP.swap(false, Ordering::SeqCst) {
                match engine.dump_traces() {
                    Ok(Some(path)) => notice(format_args!(
                        "# tsa serve: flight recorder dumped to {}",
                        path.display()
                    )),
                    Ok(None) => notice(format_args!(
                        "# tsa serve: SIGUSR1 ignored (needs --flight-recorder and --state-dir)"
                    )),
                    Err(e) => notice(format_args!("# tsa serve: trace dump failed: {e}")),
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}

#[cfg(not(unix))]
fn install_drain_signals(_engine: &Arc<Engine>) {}

fn run_serve(s: ServeArgs) -> Result<(), String> {
    let mut config = engine_config(&s.service);
    if s.trace_jobs {
        let stderr_sink: Arc<dyn tsa_service::SpanSink> = match s.log_format.as_str() {
            "json" => Arc::new(tsa_service::JsonSink::new(std::io::stderr())),
            _ => Arc::new(tsa_service::TextSink::new(std::io::stderr())),
        };
        // With a flight recorder too, fan spans out to both sinks.
        let sink: Arc<dyn tsa_service::SpanSink> = match config.recorder.clone() {
            Some(recorder) => Arc::new(tsa_service::MultiSink::new(vec![
                stderr_sink,
                recorder as Arc<dyn tsa_service::SpanSink>,
            ])),
            None => stderr_sink,
        };
        config.tracer = Some(tsa_service::Tracer::new(sink));
    }
    let engine = Arc::new(Engine::start(config));
    install_drain_signals(&engine);
    let options = tsa_service::ServeOptions {
        idle_timeout: (s.idle_timeout_ms > 0).then(|| Duration::from_millis(s.idle_timeout_ms)),
        shard: s.shard,
        ..tsa_service::ServeOptions::default()
    };
    let stats = match &s.listen {
        Some(addr) => std::net::TcpListener::bind(addr).and_then(|listener| {
            // Announce the address the listener actually bound
            // (not the one requested), so `--listen 127.0.0.1:0`
            // picks a free port that callers can discover.
            eprintln!("# tsa serve: listening on {}", listener.local_addr()?);
            tsa_service::serve_listener(&engine, listener, &options)
        }),
        None => tsa_service::serve_stdio(&engine),
    }
    .map_err(|e| format!("serve: {e}"))?;
    notice(format_args!("{stats}"));
    Ok(())
}

fn run_batch(b: BatchArgs) -> Result<(), String> {
    let input = std::fs::read_to_string(&b.file).map_err(|e| format!("{}: {e}", b.file))?;
    let engine = Arc::new(Engine::start(engine_config(&b.service)));
    let startup = engine.stats();
    if b.service.state_dir.is_some() && startup.recovered + startup.resumed + startup.restarted > 0
    {
        eprintln!(
            "# recovery: {} recovered, {} resumed, {} restarted from {}",
            startup.recovered,
            startup.resumed,
            startup.restarted,
            b.service.state_dir.as_deref().unwrap_or_default()
        );
    }
    let start = Instant::now();
    let (mut prev_hits, mut prev_recovered, mut prev_lookups) = (0u64, 0u64, 0u64);
    let mut first_round_ms = 0.0f64;
    let mut total = tsa_service::BatchSummary::default();
    for round in 0..b.repeat {
        let round_start = Instant::now();
        let summary = if b.quiet {
            tsa_service::run_batch(&engine, &input, &mut std::io::sink())
        } else {
            tsa_service::run_batch(&engine, &input, &mut std::io::stdout().lock())
        }
        .map_err(|e| format!("batch: {e}"))?;
        let submitted = summary.submitted;
        total.submitted += summary.submitted;
        total.done += summary.done;
        total.deadline += summary.deadline;
        total.cancelled += summary.cancelled;
        total.failed += summary.failed;
        total.errors += summary.errors;
        total.flagged.extend(summary.flagged);
        let round_ms = round_start.elapsed().as_secs_f64() * 1e3;
        if round == 0 {
            first_round_ms = round_ms;
        }
        if b.repeat > 1 {
            // Per-round cache and latency deltas: round_batch drains the
            // queue before returning, so the snapshot difference is
            // exactly this round's lookups.
            let snap = engine.stats();
            let lookups = snap.cache_hits + snap.cache_misses;
            let (hits_d, lookups_d) = (snap.cache_hits - prev_hits, lookups - prev_lookups);
            let recovered_d = snap.cache_recovered_hits - prev_recovered;
            (prev_hits, prev_recovered, prev_lookups) =
                (snap.cache_hits, snap.cache_recovered_hits, lookups);
            // Journal-recovered hits are satisfied by entries replayed
            // from a previous process, not warmed by an earlier round —
            // report them apart from ordinary warm hits.
            let warm_d = hits_d - recovered_d;
            let recovered_note = if recovered_d > 0 {
                format!(", {recovered_d} journal-recovered")
            } else {
                String::new()
            };
            let vs_first = if round == 0 || first_round_ms <= 0.0 {
                String::new()
            } else {
                format!(
                    ", {:+.1}% vs round 1",
                    (round_ms - first_round_ms) / first_round_ms * 100.0
                )
            };
            eprintln!(
                "# round {}/{}: {submitted} job(s) in {round_ms:.3} ms \
                 (cache {warm_d}/{lookups_d} warm hit{recovered_note}{vs_first})",
                round + 1,
                b.repeat,
            );
        }
    }
    let final_snap = engine.stats();
    let exposition = b.metrics.then(|| engine.metrics_text());
    let stats = engine.shutdown();
    eprintln!(
        "# batch finished in {:.3} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    eprintln!("# batch outcomes: {total}");
    report_flagged(&total.flagged);
    if b.repeat > 1 {
        let lookups = final_snap.cache_hits + final_snap.cache_misses;
        let ratio = if lookups == 0 {
            0.0
        } else {
            final_snap.cache_hits as f64 / lookups as f64 * 100.0
        };
        eprintln!(
            "# cache: {}/{lookups} lookups hit ({ratio:.1}%), {} from the recovery journal",
            final_snap.cache_hits, final_snap.cache_recovered_hits
        );
    }
    eprintln!("{stats}");
    if let Some(text) = exposition {
        eprintln!("# metrics exposition:");
        eprint!("{text}");
    }
    if !total.all_ok() {
        return Err(format!("batch had non-success outcomes: {total}"));
    }
    Ok(())
}

/// Print every non-clean job from a batch tally with its trace id, so
/// failures are immediately queryable via `tsa trace`. Bounded: a
/// flood of failures summarizes past the first 20.
pub fn report_flagged(flagged: &[tsa_service::FlaggedJob]) {
    const MAX_LINES: usize = 20;
    for f in flagged.iter().take(MAX_LINES) {
        let tag = if f.tag.is_empty() {
            "(anonymous)"
        } else {
            &f.tag
        };
        if f.trace_id != 0 {
            eprintln!("#   {}: {} trace {:016x}", tag, f.outcome, f.trace_id);
        } else {
            eprintln!("#   {}: {}", tag, f.outcome);
        }
    }
    if flagged.len() > MAX_LINES {
        eprintln!(
            "#   … and {} more flagged job(s)",
            flagged.len() - MAX_LINES
        );
    }
}

/// `tsa trace` — query a running server's (or cluster front door's)
/// flight recorder and render the stitched trace trees.
fn run_trace(t: TraceArgs) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    use std::io::{BufRead, BufReader};
    use tsa_service::json::Value;

    let stream =
        std::net::TcpStream::connect(&t.connect).map_err(|e| format!("{}: {e}", t.connect))?;
    let request = match &t.id {
        Some(id) => format!("{{\"op\":\"trace\",\"trace_id\":\"{id}\"}}\n"),
        None => format!("{{\"op\":\"trace\",\"recent\":{}}}\n", t.recent),
    };
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(request.as_bytes())
        .map_err(|e| format!("{}: {e}", t.connect))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("{}: {e}", t.connect))?;
    let line = line.trim();
    if line.is_empty() {
        return Err(format!("{}: connection closed without a response", t.connect).into());
    }
    if t.json {
        writeln!(out, "{line}")?;
        return Ok(());
    }
    let value = Value::parse(line).map_err(|e| format!("unparseable trace response: {e}"))?;
    if !value.get("ok").and_then(Value::as_bool).unwrap_or(false) {
        let message = value
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or("trace query refused");
        return Err(message.to_string().into());
    }
    let trees = tsa_service::protocol::parse_trace_trees(&value);
    if trees.is_empty() {
        match &t.id {
            Some(id) => writeln!(
                out,
                "no trace {id} (evicted, sampled out, or never recorded)"
            )?,
            None => writeln!(out, "no notable traces recorded yet")?,
        }
        return Ok(());
    }
    for tree in &trees {
        write!(out, "{}", tsa_service::render_tree(tree))?;
    }
    Ok(())
}

fn run_info(file: &str) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let seqs = fasta::parse_auto(&text).map_err(|e| format!("{file}: {e}"))?;
    writeln!(out, "# {} record(s) in {file}", seqs.len())?;
    for seq in &seqs {
        let st = tsa_seq::stats::seq_stats(seq);
        let comp: Vec<String> = st
            .composition
            .iter()
            .take(6)
            .map(|&(b, c)| format!("{}:{c}", b as char))
            .collect();
        let gc = st
            .gc
            .map(|g| format!("{:.1}%", g * 100.0))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{:<16} {:>8} nt/aa  {:<8}  GC {:>6}  H {:>5.2} bits  [{}]",
            seq.id(),
            st.len,
            seq.alphabet().name(),
            gc,
            st.entropy_bits,
            comp.join(" ")
        )?;
    }
    Ok(())
}

fn run_msa(m: MsaArgs) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    let text = std::fs::read_to_string(&m.file).map_err(|e| format!("{}: {e}", m.file))?;
    let seqs = fasta::parse_auto(&text).map_err(|e| format!("{}: {e}", m.file))?;
    if seqs.is_empty() {
        return Err(format!("{}: no FASTA records", m.file).into());
    }
    let mut scoring = tsa_scoring::Scoring::by_name(&m.scoring)
        .ok_or_else(|| format!("unknown scoring `{}`", m.scoring))?;
    if let Some(g) = m.gap {
        scoring = scoring.with_gap(tsa_scoring::GapModel::linear(g));
    }
    let guide = match m.guide.as_str() {
        "upgma" => tsa_msa::GuideMethod::Upgma,
        "nj" => tsa_msa::GuideMethod::NeighborJoining,
        other => return Err(format!("unknown guide method `{other}` (use upgma | nj)").into()),
    };
    let mut msa = tsa_msa::MsaBuilder::new()
        .scoring(scoring.clone())
        .exact_triples(m.exact_triples)
        .guide(guide)
        .align(&seqs)
        .map_err(|e| e.to_string())?;
    if m.refine > 0 {
        let refined = tsa_msa::refine::refine(&msa, &scoring, m.refine);
        if refined.accepted > 0 {
            writeln!(
                out,
                "# refinement: +{} SP over {} accepted step(s), {} sweep(s)",
                refined.msa.sp_score - refined.initial_score,
                refined.accepted,
                refined.sweeps
            )?;
        }
        msa = refined.msa;
    }
    msa.validate(&seqs).map_err(|e| format!("internal: {e}"))?;
    writeln!(out, "# sequences: {}", seqs.len())?;
    writeln!(out, "# columns: {}", msa.len())?;
    writeln!(out, "# SP score: {}", msa.sp_score)?;
    for (seq, row) in seqs.iter().zip(&msa.rows) {
        writeln!(out, ">{}", seq.id())?;
        let body: String = row
            .iter()
            .map(|r| r.map(char::from).unwrap_or('-'))
            .collect();
        writeln!(out, "{body}")?;
    }
    Ok(())
}

fn run_plan(p: PlanArgs) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    let (n1, n2, n3) = p.n;
    let profile = planes::plane_profile(n1, n2, n3);
    let cells: usize = profile.iter().sum();
    writeln!(
        out,
        "lattice {n1}×{n2}×{n3}: {cells} cells, {} planes",
        profile.len()
    )?;
    writeln!(
        out,
        "max plane {} cells; mean parallelism {:.0}",
        profile.iter().max().unwrap_or(&0),
        model::speedup_cap(&profile)
    )?;
    writeln!(
        out,
        "\nplans (dna scoring, 4 GiB lattice budget; affine under an affine gap):"
    )?;
    writeln!(
        out,
        "  {:<16} {:<6} {:<16} {:<7} {:<10} {:>14} {:>14}",
        "algorithm", "job", "runs", "sweep", "checkpoint", "cells", "peak_bytes"
    )?;
    let algorithms = [
        Algorithm::Auto,
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: p.tile },
        Algorithm::Hirschberg,
        Algorithm::ParallelHirschberg,
        Algorithm::CarrilloLipman,
        Algorithm::CenterStar,
        Algorithm::Anchored,
        Algorithm::AffineDp,
    ];
    for algorithm in algorithms {
        let aligner = match algorithm {
            Algorithm::AffineDp => Aligner::new().gap(GapModel::affine(-4, -1)),
            _ => Aligner::new(),
        }
        .algorithm(algorithm);
        for score_only in [false, true] {
            let plan = aligner.plan(n1, n2, n3, score_only);
            let sweep = match plan.order {
                Some(Order::Slabs) => "slabs",
                Some(Order::Planes) => "planes",
                Some(Order::Tiles { .. }) => "tiles",
                None => "-",
            };
            let checkpoint = match plan.checkpoint {
                Some(KernelKind::Slabs) => "slabs",
                Some(KernelKind::Planes) => "planes",
                None => "-",
            };
            writeln!(
                out,
                "  {:<16} {:<6} {:<16} {:<7} {:<10} {:>14} {:>14}",
                algorithm.name(),
                if score_only { "score" } else { "align" },
                plan.algorithm.name(),
                sweep,
                checkpoint,
                plan.cells,
                plan.peak_bytes
            )?;
        }
    }
    let m = CostModel::ideal(p.t_cell_ns);
    let eth = ClusterModel::ethernet(p.t_cell_ns);
    writeln!(
        out,
        "\npredicted speedup (t_cell {} ns, tile {} for the cluster column):",
        p.t_cell_ns, p.tile
    )?;
    writeln!(
        out,
        "{:>4} {:>14} {:>16}",
        "P", "shared-memory", "ethernet-cluster"
    )?;
    for workers in [1usize, 2, 4, 8, 16, 32] {
        writeln!(
            out,
            "{workers:>4} {:>14.2} {:>16.2}",
            m.predict_speedup(&profile, workers),
            eth.predict_speedup((n1, n2, n3), p.tile, workers)
        )?;
    }
    Ok(())
}

fn run_gen(g: GenArgs) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    let cfg = if g.protein {
        FamilyConfig::protein(g.len, g.sub, g.indel)
    } else {
        FamilyConfig::new(g.len, g.sub, g.indel)
    };
    let fam = cfg.try_generate(g.seed).map_err(|e| e.to_string())?;
    write!(out, "{}", fasta::emit(&fam.members, 60))?;
    Ok(())
}

fn load_inputs(a: &AlignArgs) -> Result<(Seq, Seq, Seq), String> {
    if let Some((sa, sb, sc)) = &a.inline {
        let parse = |s: &str, name: &str| {
            let alphabet = Alphabet::infer(s.as_bytes())
                .ok_or_else(|| format!("sequence {name} fits no known alphabet"))?;
            Seq::new(name, alphabet, s.as_bytes().to_vec()).map_err(|e| e.to_string())
        };
        return Ok((parse(sa, "A")?, parse(sb, "B")?, parse(sc, "C")?));
    }
    let path = a.file.as_ref().expect("parser guarantees an input source");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let seqs = fasta::parse_auto(&text).map_err(|e| format!("{path}: {e}"))?;
    if seqs.len() < 3 {
        return Err(format!(
            "{path}: need at least 3 FASTA records, found {}",
            seqs.len()
        ));
    }
    let mut it = seqs.into_iter();
    Ok((
        it.next().expect("len checked"),
        it.next().expect("len checked"),
        it.next().expect("len checked"),
    ))
}

fn run_align(args: AlignArgs) -> Result<(), Failure> {
    let mut out = std::io::stdout().lock();
    let scoring = args.build_scoring()?;
    let algorithm = args.build_algorithm()?;
    let kernel = args.build_kernel()?;
    let (a, b, c) = load_inputs(&args)?;

    if let Some(t) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .map_err(|e| format!("thread pool: {e}"))?;
    }

    let aligner = Aligner::auto(scoring.clone())
        .algorithm(algorithm)
        .kernel(kernel);

    // A bare score request takes the quadratic-space score-only sweeps,
    // which honor --kernel; the full alignment paths below need the
    // traceback machinery and keep their own inner loops.
    if args.score_only && !args.profile_planes {
        let score = aligner.score3(&a, &b, &c).map_err(|e| e.to_string())?;
        writeln!(out, "{score}")?;
        return Ok(());
    }

    let start = Instant::now();
    // The cells the run computed and the dense lattice a pruned run fell
    // back to, for `--stats`.
    let (aln, cells, fallback) = if args.profile_planes {
        if scoring.gap.linear_penalty().is_none() {
            return Err(Failure::Message(
                "--profile-planes requires a linear gap model".into(),
            ));
        }
        let (lattice, profile) = tsa_core::wavefront::fill_profiled(&a, &b, &c, &scoring);
        let aln = tsa_core::full::traceback(&lattice, &a, &b, &c, &scoring);
        let summary = profile.summary();
        let cmp = tsa_perfmodel::measured::compare(&profile);
        eprintln!("# plane profile:");
        for line in summary.to_string().lines() {
            eprintln!("#   {line}");
        }
        eprintln!("# model comparison:");
        for line in cmp.to_string().lines() {
            eprintln!("#   {line}");
        }
        (aln, lattice.extents.cells() as u64, None)
    } else {
        let run = aligner
            .run_cancellable(&a, &b, &c, false, &CancelToken::never())
            .map_err(|e| e.to_string())?;
        let aln = run.alignment.expect("alignment jobs trace back");
        (aln, run.cells, run.fallback)
    };
    let elapsed = start.elapsed();
    aln.validate(&a, &b, &c)
        .map_err(|e| format!("internal: {e}"))?;

    if args.score_only {
        writeln!(out, "{}", aln.score)?;
        return Ok(());
    }

    writeln!(out, "# score: {}", aln.score)?;
    if args.profile_planes {
        writeln!(out, "# algorithm: Wavefront (forced by --profile-planes)")?;
    } else {
        writeln!(
            out,
            "# algorithm: {:?} (resolved from {:?})",
            aligner.resolve(a.len(), b.len(), c.len()),
            algorithm
        )?;
    }
    writeln!(out, "# lengths: {} {} {}", a.len(), b.len(), c.len())?;
    if args.stats {
        if scoring.gap.linear_penalty().is_some() {
            let br = bounds::bounds(&a, &b, &c, &scoring);
            writeln!(
                out,
                "# bounds: center-star {} ≤ score ≤ pairwise-sum {}",
                br.lower, br.upper
            )?;
        }
        let cube = (a.len() + 1) * (b.len() + 1) * (c.len() + 1);
        writeln!(out, "# cells: {cells} of the lattice's {cube}")?;
        writeln!(out, "# fallback: {}", fallback.map_or("none", |f| f.name()))?;
        let st = tsa_core::stats::alignment_stats(&aln);
        writeln!(out, "# columns: {}", st.columns)?;
        writeln!(out, "# full-match columns: {}", st.full_match_columns)?;
        writeln!(
            out,
            "# gapped columns: {} ({} gap chars)",
            st.gapped_columns, st.total_gaps
        )?;
        writeln!(
            out,
            "# pairwise identity: AB {:.2} AC {:.2} BC {:.2} (mean {:.2})",
            st.pairwise_identity[0],
            st.pairwise_identity[1],
            st.pairwise_identity[2],
            st.mean_identity
        )?;
        writeln!(out, "# time: {:.3} ms", elapsed.as_secs_f64() * 1e3)?;
    }
    let ids = [a.id(), b.id(), c.id()];
    match args.format.as_str() {
        "fasta" => write!(out, "{}", format::to_aligned_fasta(&aln, ids, args.width))?,
        "clustal" => write!(out, "{}", format::to_clustal(&aln, ids, args.width))?,
        "plain" => {
            let rows = aln.rows();
            for (id, row) in ids.iter().zip(&rows) {
                writeln!(out, ">{id}")?;
                let text: String = row
                    .iter()
                    .map(|r| r.map(char::from).unwrap_or('-'))
                    .collect();
                if args.width == 0 {
                    writeln!(out, "{text}")?;
                } else {
                    for chunk in text.as_bytes().chunks(args.width) {
                        writeln!(out, "{}", std::str::from_utf8(chunk).expect("ascii"))?;
                    }
                }
            }
        }
        other => return Err(format!("unknown format `{other}`").into()),
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn gen_produces_three_parseable_records() {
        // Drive run_gen's core through the library path it uses.
        let g = GenArgs {
            len: 30,
            sub: 0.1,
            indel: 0.02,
            seed: 5,
            protein: false,
        };
        let cfg = FamilyConfig::new(g.len, g.sub, g.indel);
        let fam = cfg.try_generate(g.seed).unwrap();
        let text = fasta::emit(&fam.members, 60);
        let parsed = fasta::parse_auto(&text).unwrap();
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn load_inline_inputs() {
        let mut a = AlignArgs::default();
        a.inline = Some(("ACGT".into(), "AGT".into(), "ACT".into()));
        let (x, y, z) = load_inputs(&a).unwrap();
        assert_eq!(x.residues(), b"ACGT");
        assert_eq!(y.residues(), b"AGT");
        assert_eq!(z.residues(), b"ACT");
    }

    #[test]
    fn inline_bad_alphabet_is_reported() {
        let mut a = AlignArgs::default();
        a.inline = Some(("AC1T".into(), "AGT".into(), "ACT".into()));
        assert!(load_inputs(&a).unwrap_err().contains("alphabet"));
    }

    #[test]
    fn file_with_too_few_records() {
        let dir = std::env::temp_dir().join("tsa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.fa");
        std::fs::write(&path, ">a\nACGT\n>b\nACG\n").unwrap();
        let mut a = AlignArgs::default();
        a.file = Some(path.to_string_lossy().into_owned());
        assert!(load_inputs(&a).unwrap_err().contains("3 FASTA records"));
    }

    #[test]
    fn file_roundtrip_align_path() {
        let dir = std::env::temp_dir().join("tsa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("three.fa");
        std::fs::write(&path, ">a\nGATTACA\n>b\nGATACA\n>c\nGTTACA\n").unwrap();
        let mut args = AlignArgs::default();
        args.file = Some(path.to_string_lossy().into_owned());
        let (a, b, c) = load_inputs(&args).unwrap();
        let aln = Aligner::new().align3(&a, &b, &c).unwrap();
        aln.validate(&a, &b, &c).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        let mut a = AlignArgs::default();
        a.file = Some("/nonexistent/path.fa".into());
        assert!(load_inputs(&a).is_err());
    }
}
