//! The repository's benchmark: one named workload per run, every output
//! checked, end-to-end metrics with `--trace 0` and per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! perfbench --workload serve_repeat|serve_churn|build_road --seed N
//!           --seconds S --trace 0|1 --workdir DIR --commit SHA
//! ```
//!
//! Workloads (see `BENCHMARK.json` for the metric list and bounds):
//!
//! * `serve_repeat` — the `lcs_server` daemon in-process on loopback
//!   (`workers = nproc`) serving one warm 32×32 grid session to two
//!   closed-loop keep-alive clients; reads dominate and repeat.
//! * `serve_churn` — the same daemon and graph with mutations beside reads
//!   and fresh arguments, so no result can be reused.
//! * `build_road` — library only: a seeded `road_like` 316×316 graph is
//!   stored as `.lcsg`, loaded, built on the sketch backend and prepared,
//!   then serves a batch of aggregates.
//!
//! Standard output carries two JSON lines: a header (seed, held-out seed,
//! host fingerprint, sample counts, metrics a workload does not exercise)
//! and, last, the result object `{correct, attempted, failed, metrics}`.
//! With `--trace 1` the run also writes its spans as JSON lines into the
//! work directory.

mod probes;
mod road;
mod serve;
mod trace;

use lcs_core::CacheStats;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Metrics, Trace};

/// The seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 20_211;

/// One run's settings, from the command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    pub commit: String,
    /// Host parallelism: server workers and simulator threads.
    pub nproc: usize,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations (requests, direct calls, aggregates).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    pub metrics: Metrics,
    /// Sample counts behind the reported timings.
    pub samples: Vec<(&'static str, usize)>,
    /// Metrics printed as 0 because the workload does not exercise the
    /// layer they measure.
    pub absent: Vec<String>,
    /// The run's spans as JSON lines (traced runs only).
    pub spans: Option<String>,
    /// Seconds of each set-up; `setup_s` is their median.
    pub setups: Vec<f64>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Folds another tally of checked operations into this one.
    pub fn absorb(&mut self, attempted: u64, failed: u64, first_error: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(e) = first_error {
            self.first_error.get_or_insert(e);
        }
    }

    /// Sets a metric the workload does not exercise to 0 and lists it as
    /// absent in the header.
    pub fn absent(&mut self, name: impl Into<String>, unit: &'static str) {
        let name = name.into();
        self.metrics.set(name.clone(), 0.0, unit);
        self.absent.push(name);
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds of a fixed integer loop (median of three), so results
/// from hosts of different speed are never compared silently.
fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for i in 0..20_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Served artifacts ÷ (served + built), over every artifact class.
pub fn artifact_hit_ratio(stats: &CacheStats) -> f64 {
    let classes = [
        stats.tree,
        stats.diameter,
        stats.full,
        stats.quality,
        stats.partials,
        stats.op_artifacts,
    ];
    let hits: u64 = classes.iter().map(|c| c.hits).sum();
    let builds: u64 = classes.iter().map(|c| c.builds).sum();
    hits as f64 / (hits + builds).max(1) as f64
}

/// Summed latency of the traced and of the plain windows of a traced run,
/// over the requests all four windows reached. The windows replay one
/// stream in the order without, with, with and without spans, so both sums
/// cover the same requests and drift falls on both alike; `windows[w]`
/// lists window `w`'s latencies in stream order.
pub fn paired_sums(windows: [&[f64]; 4]) -> (f64, f64) {
    let n = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    let sum = |w: usize| windows[w][..n].iter().sum::<f64>();
    (sum(1) + sum(2), sum(0) + sum(3))
}

/// Attributed shares, tracing overhead and error rate — the fields every
/// traced run ends with. `overhead` is the traced windows' summed latency
/// over the plain windows', minus 1 (see [`paired_sums`]).
///
/// An attributed share is the sum of the layer times that make up one
/// end-to-end operation, each measured on its own, over that operation's
/// end-to-end time: near 1 when the layers explain the operation, lower by
/// the time they miss. `shares` gives those of `setup`, `e2e` and `handle`
/// (`None` where the workload has no such operation). `library` is the
/// engine's part of an aggregate: `congest.zero_round_ms` plus the
/// aggregate's messages at `congest.ns_per_message`, over
/// `partwise.aggregate_ms`.
pub fn finish_trace(
    trace: &Trace,
    shares: [(&'static str, Option<f64>); 3],
    overhead: f64,
    out: &mut Outcome,
) {
    let get = |name| out.metrics.get(name);
    let engine_ms = get("congest.zero_round_ms")
        + get("partwise.aggregate_messages") * get("congest.ns_per_message") / 1e6;
    let library = engine_ms / get("partwise.aggregate_ms");
    for (phase, share) in shares.into_iter().chain([("library", Some(library))]) {
        let name = format!("attributed_share.{phase}");
        match share {
            Some(share) => out.metrics.set(name, share, "ratio"),
            None => out.absent(name, "ratio"),
        }
    }
    out.metrics.set("trace.overhead_share", overhead, "ratio");
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.set("error_rate", rate, "share");
    out.spans = Some(trace.to_jsonl());
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("{flag} is required"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        workdir: PathBuf::from(value("--workdir")?),
        commit: value("--commit")?,
        nproc,
    })
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", run.workdir.display());
        std::process::exit(2);
    }
    let calibration = calibration_ms();
    let mut outcome = match run.workload.as_str() {
        "serve_repeat" => serve::run(&run, serve::Mix::Repeat),
        "serve_churn" => serve::run(&run, serve::Mix::Churn),
        "build_road" => road::run(&run),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (serve_repeat, serve_churn, build_road)"
            );
            std::process::exit(2);
        }
    };

    if !run.trace {
        let setup_s = trace::median(&outcome.setups);
        outcome.metrics.set("setup_s", setup_s, "s");
        outcome.samples.push(("setups", outcome.setups.len()));
    }
    if outcome.attempted == 0 {
        outcome.check(Err("the run checked no operation".into()));
    }
    if let Some(spans) = &outcome.spans {
        let path = run
            .workdir
            .join(format!("trace-{}-{}.jsonl", run.workload, run.seed));
        match std::fs::write(&path, spans) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: first failure: {e}");
    }

    let mut header = String::new();
    let _ = write!(
        header,
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"calibration_ms\": {calibration:?}, \
         \"git_commit\": \"{}\", \"build_profile\": \"{}\"}}, \"samples\": {{",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc,
        run.commit,
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for (i, (name, n)) in outcome.samples.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(header, "{sep}\"{name}\": {n}");
    }
    header.push_str("}, \"absent\": [");
    for (i, name) in outcome.absent.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(header, "{sep}\"{name}\"");
    }
    header.push_str("]}}");
    println!("{header}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.render()
    );
}
