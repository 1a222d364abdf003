//! Perf snapshot binary: emits `BENCH_sim.json` and `BENCH_partial.json`.
//!
//! Usage:
//!
//! ```text
//! bench_snapshot [--fast] [--threads-sweep] [--out DIR]
//! ```
//!
//! `--fast` restricts the sweep to the n ≈ 1e3 instances with a single
//! repetition (the CI smoke configuration — it still covers every backend:
//! strict, queued/calendar, the multi-lane decentralized executor,
//! sketch-mode detection, and the packed `message_packing = 8` rows); the
//! full run covers n ∈ {1e3, 1e4, 1e5} with the median of three
//! repetitions per entry. `--threads-sweep` widens the multi-thread block
//! on the largest strict and queued instances from `threads = 4` to
//! `threads ∈ {2, 4, 8}` (the `threads = 1` rows come from the main
//! sweep), so together with the single-thread rows the snapshot carries a
//! full lane-scaling curve.
//!
//! Packed rows (`"packing": 8`) carry `rounds_vs_unpacked`, their round
//! count relative to the same instance's unpacked row from this run. The
//! binary asserts the packed sketch pipeline cuts rounds at all (< 1.0),
//! detects the identical cut set, and — on the full-size n = 1e5 instance
//! — meets the ≥ 2× reduction bar.
//!
//! The partial-construction sweep and the `facade_overhead` row run
//! through the `ShortcutSession` facade; `facade_overhead` compares served
//! aggregation queries (warm session, cached shortcut) against the direct
//! `AggregateOp::run_on` path and **asserts** the ratio stays ≤ 1.05× — the builder
//! and cache layer must be zero-cost.
//!
//! Every entry carries the wall time measured by this run (`wall_ms`) next
//! to the pinned pre-CSR baseline (`wall_ms_before`, measured at the seed
//! engine commit on the same instance; `null` for instances the seed engine
//! was never measured on). Simulator entries additionally break one
//! repetition's wall time into the engine's phase buckets
//! (`compute_ms` / `stage_ms` / `merge_ms`, see
//! [`lcs_congest::PhaseTimings`]) — the serial-share evidence for the
//! decentralized executor. Multi-threaded entries additionally report
//! `speedup_vs_t1`, the ratio against the single-thread entry of the same
//! instance **from the same run**. Sketch-mode detection entries assert
//! their accuracy against the centralized exact construction (every cut's
//! true load within the KMV error band of the threshold, cut counts within
//! a constant factor of the exact detector's) and record the observed
//! values.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p lcs_bench --bin bench_snapshot -- --out .
//! ```

use lcs_congest::protocols::{AggOp, BfsTreeProgram};
use lcs_congest::{PhaseTimings, SimConfig, SimMode, Simulator};
use lcs_core::dist::{DistConfig, DistMode};
use lcs_core::session::{Backend, Session, SessionConfig};
use lcs_core::{full_shortcut, Partition, ShortcutConfig, SweepOutcome, WitnessMode};
use lcs_graph::{bfs, gen, Graph, NodeId};
use lcs_partwise::{AggregateOp, SessionPartwiseOps};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock baselines measured at the pre-CSR seed engine (commit
/// `a3f13c8`, `Vec<VecDeque>` per-directed-edge mailboxes) on the same
/// machine class that produced the committed snapshots. Keyed by
/// `(bench, family, n, mode)`; all baselines are single-threaded.
const BASELINE_MS: &[(&str, &str, u64, &str, f64)] = &[
    ("sim", "grid", 1024, "strict", 0.59),
    ("sim", "grid", 1024, "queued", 0.45),
    ("sim", "torus", 1024, "strict", 0.54),
    ("sim", "grid", 10000, "strict", 7.44),
    ("sim", "grid", 10000, "queued", 6.99),
    ("sim", "torus", 10000, "strict", 7.06),
    ("sim", "grid", 99856, "strict", 147.20),
    ("sim", "grid", 99856, "queued", 133.49),
    ("sim", "torus", 99856, "strict", 158.15),
    ("partial", "grid_rows", 1024, "exact", 3.69),
    ("partial", "grid_rows", 10000, "exact", 101.76),
    ("partial", "torus_voronoi", 1024, "exact", 1.60),
];

/// Accuracy envelope for sketch-mode detection (deterministic for the
/// fixed hash seed). A `t = 16` KMV estimate carries ~25% relative error,
/// so the sketch legitimately cuts at *different tree edges* than the
/// exact detector — what must hold is that its decisions stay within the
/// estimator's error band:
///
/// - every edge the sketch cuts must carry a true crossing load of at
///   least `MIN_CUT_LOAD_RATIO · threshold` (no wild false positives), and
/// - the sketch must cut a similar *number* of edges as the exact
///   construction (each cut absorbs ~threshold parts, so counts track
///   total load): ratio within `[1 / MAX_CUT_COUNT_RATIO,
///   MAX_CUT_COUNT_RATIO]`.
const MIN_CUT_LOAD_RATIO: f64 = 0.5;
const MAX_CUT_COUNT_RATIO: f64 = 4.0;

/// `SimConfig::message_packing` of the packed bench rows (matches the CI
/// packing-conformance matrix). With the default `O(log n)` bandwidth the
/// effective batch size is budget-limited below 8 for 64-bit sketch
/// payloads and packing-limited at 8 for id payloads.
const PACKING: usize = 8;

fn baseline_ms(bench: &str, family: &str, n: u64, mode: &str) -> Option<f64> {
    BASELINE_MS
        .iter()
        .find(|&&(b, f, bn, m, _)| b == bench && f == family && bn == n && m == mode)
        .map(|&(_, _, _, _, ms)| ms)
}

struct Entry {
    family: String,
    n: u64,
    m: u64,
    mode: String,
    threads: usize,
    /// `SimConfig::message_packing` the entry ran with (1 = unpacked).
    packing: usize,
    /// The partition source the entry's parts came from (`rows` /
    /// `voronoi` / `singletons` — the [`lcs_core::PartitionSource`]
    /// naming); `None` for partition-free simulator rows.
    partition_source: Option<&'static str>,
    /// The graph source kind the instance came from (the
    /// [`lcs_core::GraphSource::name`] naming — every snapshot row is
    /// synthesized in-process, so today this is always `generator`;
    /// file-backed rows would carry `edge_list_json` / `flat_binary`).
    graph_source: &'static str,
    rounds: u64,
    messages: u64,
    wall_ms: f64,
    wall_ms_before: Option<f64>,
    /// Sketch entries: min over cut edges of `true load / threshold`.
    min_cut_load_ratio: Option<f64>,
    /// Sketch entries: `(sketch cuts, exact cuts)` edge counts.
    cut_edges: Option<(usize, usize)>,
    /// `facade_overhead` entry: session wall time / direct-call wall time.
    /// The builder+cache layer must be zero-cost: asserted <= 1.05.
    overhead_vs_direct: Option<f64>,
    /// Simulator entries: the engine's per-phase wall-time split of the
    /// last repetition (compute / serial stage window / account fold).
    timings: Option<PhaseTimings>,
    terminated: bool,
    truncated: bool,
}

type RunStats = (u64, u64, bool, bool);

fn median_ms(reps: usize, mut f: impl FnMut() -> RunStats) -> (f64, RunStats) {
    let mut times = Vec::with_capacity(reps);
    let mut out = (0, 0, false, false);
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], out)
}

fn sim_entry(
    bench: &str,
    family: &str,
    g: &Graph,
    mode: SimMode,
    threads: usize,
    reps: usize,
) -> Entry {
    let sim = Simulator::new(
        g,
        SimConfig {
            mode,
            threads,
            ..SimConfig::default()
        },
    );
    let mut timings = PhaseTimings::default();
    let (wall_ms, (rounds, messages, terminated, truncated)) = median_ms(reps, || {
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        timings = run.timings;
        (
            run.metrics.rounds,
            run.metrics.messages,
            run.metrics.terminated,
            run.metrics.truncated,
        )
    });
    let mode_name = match mode {
        SimMode::Strict => "strict",
        SimMode::Queued => "queued",
    };
    Entry {
        family: family.to_string(),
        n: g.num_nodes() as u64,
        m: g.num_edges() as u64,
        mode: mode_name.to_string(),
        threads,
        packing: 1,
        partition_source: None,
        graph_source: "generator",
        rounds,
        messages,
        wall_ms,
        wall_ms_before: (threads == 1)
            .then(|| baseline_ms(bench, family, g.num_nodes() as u64, mode_name))
            .flatten(),
        min_cut_load_ratio: None,
        cut_edges: None,
        overhead_vs_direct: None,
        timings: Some(timings),
        terminated,
        truncated,
    }
}

/// Detection representation for a partial-construction entry.
enum DetectKind {
    Exact,
    /// KMV sketch detection — the workload that makes n = 1e5 affordable.
    Sketch,
}

fn sketch_mode() -> DistMode {
    DistMode::Sketch {
        t: 16,
        hash_seed: 0xbeef,
        cut_factor: 1.0,
    }
}

/// Number of edges the centralized exact detector cuts on the same tree —
/// the reference for the sketch cut-count accuracy band.
fn exact_cut_count(g: &Graph, partition: &Partition, cfg: &ShortcutConfig) -> usize {
    let tree = bfs::bfs_tree(g, NodeId(0));
    match lcs_core::partial_shortcut_or_witness(g, &tree, partition, 1, cfg) {
        SweepOutcome::Shortcut(ps) => ps.data.over_edges.len(),
        SweepOutcome::DenseMinor { data, .. } => data.over_edges.len(),
    }
}

fn partial_entry(
    family: &str,
    g: &Graph,
    parts: Vec<Vec<NodeId>>,
    partition_source: &'static str,
    kind: DetectKind,
    packing: usize,
    reps: usize,
) -> (Entry, Vec<u64>) {
    let partition = Partition::from_parts(g, parts).expect("valid partition");
    let cfg = ShortcutConfig {
        witness_mode: WitnessMode::Skip,
        ..ShortcutConfig::default()
    };
    let sim_config = SimConfig {
        message_packing: packing,
        ..SimConfig::default()
    };
    let session_config = SessionConfig {
        shortcut: cfg,
        sim: sim_config,
        ..SessionConfig::default()
    };
    // The construction benchmark runs through the facade: one fresh session
    // per repetition (caching would defeat a construction benchmark), with
    // the backend selecting the detection mode.
    let (mode_name, backend) = match kind {
        DetectKind::Exact => ("exact", Backend::Distributed(sim_config)),
        DetectKind::Sketch => (
            "sketch",
            Backend::Sketch(DistConfig {
                mode: sketch_mode(),
                sim: sim_config,
            }),
        ),
    };
    // Sessions are pre-built outside the timed region (build() is lazy and
    // free, but the partition clone is O(n) and must not pollute the
    // construction timing); the timed closure only runs `partial(1)`.
    let mut sessions: Vec<_> = (0..reps)
        .map(|_| {
            Session::on(g)
                .root(NodeId(0))
                .partition_object(partition.clone())
                .backend(backend.clone())
                .config(session_config.clone())
                .build()
                .expect("partition already validated")
        })
        .collect();
    let mut last_session = None;
    let (wall_ms, (rounds, messages, terminated, truncated)) = median_ms(reps, || {
        let mut session = sessions.pop().expect("one fresh session per rep");
        let res = session.partial(1);
        let (bfs_m, det_m) = (
            res.metrics_bfs.as_ref().expect("distributed backend"),
            res.metrics_detect.as_ref().expect("distributed backend"),
        );
        let stats = (
            bfs_m.rounds + det_m.rounds,
            bfs_m.messages + det_m.messages,
            bfs_m.terminated && det_m.terminated,
            bfs_m.truncated || det_m.truncated,
        );
        last_session = Some(session);
        stats
    });
    // Pull the sweep data from the last rep's cache after the clock stopped.
    let data = last_session
        .as_mut()
        .map(|session| session.partial(1).data.clone())
        .expect("at least one repetition ran");
    // The detected cut set, for packed-vs-unpacked identity checks.
    let mut detected_cuts: Vec<u64> = data
        .over_edges
        .iter()
        .map(|oe| oe.edge.index() as u64)
        .collect();
    detected_cuts.sort_unstable();
    assert!(
        terminated && !truncated,
        "{family}/{mode_name}: detection benchmark must quiesce"
    );
    let (min_cut_load_ratio, cut_edges) = match kind {
        DetectKind::Exact => (None, None),
        DetectKind::Sketch => {
            // Accuracy: the re-derived SweepData carries the *true* crossing
            // set of every edge the sketch protocol cut, so each cut's real
            // load is directly comparable against the threshold.
            let threshold = f64::from(data.congestion_threshold);
            assert!(
                !data.over_edges.is_empty(),
                "{family}: the sketch detection workload must actually cut edges"
            );
            let min_ratio = data
                .over_edges
                .iter()
                .map(|oe| oe.parts.len() as f64 / threshold)
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_ratio >= MIN_CUT_LOAD_RATIO,
                "{family}: sketch cut an edge with true load {min_ratio:.3}×threshold \
                 (< {MIN_CUT_LOAD_RATIO}) — outside the KMV error band"
            );
            let exact = exact_cut_count(g, &partition, &cfg);
            let count_ratio = data.over_edges.len() as f64 / (exact.max(1)) as f64;
            assert!(
                (1.0 / MAX_CUT_COUNT_RATIO..=MAX_CUT_COUNT_RATIO).contains(&count_ratio),
                "{family}: sketch cut {} edges vs {} exact — outside the \
                 [1/{MAX_CUT_COUNT_RATIO}, {MAX_CUT_COUNT_RATIO}] accuracy band",
                data.over_edges.len(),
                exact
            );
            (Some(min_ratio), Some((data.over_edges.len(), exact)))
        }
    };
    let entry = Entry {
        family: family.to_string(),
        n: g.num_nodes() as u64,
        m: g.num_edges() as u64,
        mode: mode_name.to_string(),
        threads: 1,
        packing,
        partition_source: Some(partition_source),
        graph_source: "generator",
        rounds,
        messages,
        wall_ms,
        wall_ms_before: (packing == 1)
            .then(|| baseline_ms("partial", family, g.num_nodes() as u64, mode_name))
            .flatten(),
        min_cut_load_ratio,
        cut_edges,
        overhead_vs_direct: None,
        timings: None,
        terminated,
        truncated,
    };
    (entry, detected_cuts)
}

/// Maximum session-over-direct wall-time ratio the facade may cost. The
/// builder and cache layer add only artifact lookups to a served call, so
/// anything beyond noise-level indicates a regression.
const MAX_FACADE_OVERHEAD: f64 = 1.05;

/// The zero-cost-facade guard: `K` aggregation queries served by a warm
/// `ShortcutSession` versus the same queries through the direct
/// `AggregateOp::run_on` entry with prebuilt artifacts. Asserts the ratio stays ≤
/// [`MAX_FACADE_OVERHEAD`] and emits it as a `facade_overhead` row.
///
/// Noise hardening for the CI smoke: both paths get one untimed warm-up,
/// samples are minima over ≥ 5 repetitions, the two paths are measured in
/// interleaved rounds (so load drift hits both), and a ratio over budget
/// is re-measured once before the assert fires.
fn facade_overhead_entry(reps: usize) -> Entry {
    const QUERIES: usize = 4;
    let side = 32;
    let g = gen::grid(side, side);
    let partition =
        Partition::from_parts(&g, gen::rows_of_grid(side, side)).expect("valid partition");
    let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 1009).collect();

    // Direct path: artifacts prebuilt, K `AggregateOp::run_on` calls per
    // sample.
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
    let cfg = SessionConfig::default();
    let op = AggregateOp {
        values: &values,
        op: AggOp::Sum,
        leaders: None,
    };
    let run_direct = |g: &Graph, partition: &Partition| {
        for _ in 0..QUERIES {
            let out = op.run_on(g, partition, &built.shortcut, &cfg);
            assert!(out.all_members_informed);
        }
    };

    // Facade path: a warm session (construction outside the timed region —
    // it is cached, which is the whole point), K aggregate calls per sample.
    let mut session = Session::on(&g)
        .partition_object(partition.clone())
        .build()
        .expect("partition already validated");
    session.prepare();

    let measure = |session: &mut lcs_core::session::ShortcutSession<'_>| {
        let samples = reps.max(5);
        let mut last = (0u64, 0u64, false, false);
        let (mut direct_ms, mut facade_ms) = (f64::INFINITY, f64::INFINITY);
        // Interleave the two paths so slow periods penalize both equally.
        for _ in 0..samples {
            let t0 = Instant::now();
            run_direct(&g, &partition);
            direct_ms = direct_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            for _ in 0..QUERIES {
                let report = session.aggregate(&values, AggOp::Sum);
                assert!(report.result.all_members_informed);
                last = (
                    report.rounds,
                    report.messages,
                    report.result.metrics.terminated,
                    report.result.metrics.truncated,
                );
            }
            facade_ms = facade_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        }
        (direct_ms, facade_ms, last)
    };

    // Untimed warm-up of both paths (first-touch allocation, cache fill).
    run_direct(&g, &partition);
    let _ = session.aggregate(&values, AggOp::Sum);

    let (mut direct_ms, mut facade_ms, mut last) = measure(&mut session);
    let mut ratio = facade_ms / direct_ms.max(1e-9);
    if ratio > MAX_FACADE_OVERHEAD {
        // One re-measure before failing: a single noisy window must not
        // turn the smoke red.
        (direct_ms, facade_ms, last) = measure(&mut session);
        ratio = facade_ms / direct_ms.max(1e-9);
    }
    assert_eq!(
        session.cache_stats().full.builds,
        1,
        "the session must serve from cache"
    );
    assert!(
        ratio <= MAX_FACADE_OVERHEAD,
        "facade overhead {ratio:.3}x exceeds the {MAX_FACADE_OVERHEAD}x budget \
         (session {facade_ms:.2} ms vs direct {direct_ms:.2} ms)"
    );
    Entry {
        family: "facade_overhead".to_string(),
        n: g.num_nodes() as u64,
        m: g.num_edges() as u64,
        mode: "aggregate".to_string(),
        threads: 1,
        packing: 1,
        partition_source: Some("rows"),
        graph_source: "generator",
        rounds: last.0,
        messages: last.1,
        wall_ms: facade_ms,
        wall_ms_before: None,
        min_cut_load_ratio: None,
        cut_edges: None,
        overhead_vs_direct: Some(ratio),
        timings: None,
        terminated: last.2,
        truncated: last.3,
    }
}

fn render(schema: &str, entries: &[Entry]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{schema}\",");
    out.push_str(
        "  \"note\": \"wall_ms_before is the pinned pre-CSR seed-engine baseline (single-thread); \
         speedup_vs_t1 compares a threads>1 entry against the same instance at threads=1 in this \
         run and depends on the host's core count; compute_ms/stage_ms/merge_ms split one \
         repetition's engine wall time into parallel compute vs the coordinator's serial stage \
         window vs the (overlapped) metric fold; regenerate with \
         `cargo run --release -p lcs_bench --bin bench_snapshot -- --out .`\",\n",
    );
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    out.push_str("  \"entries\": [\n");
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| format!("{x:.2}"));
    let fmt_phase = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| format!("{x:.3}"));
    for (i, e) in entries.iter().enumerate() {
        let speedup = fmt_opt(e.wall_ms_before.map(|b| b / e.wall_ms.max(1e-9)));
        let vs_t1 = fmt_opt(
            (e.threads > 1)
                .then(|| {
                    entries
                        .iter()
                        .find(|t| {
                            t.threads == 1
                                && t.family == e.family
                                && t.n == e.n
                                && t.mode == e.mode
                                && t.packing == e.packing
                        })
                        .map(|t| t.wall_ms / e.wall_ms.max(1e-9))
                })
                .flatten(),
        );
        // Packed rows report their round count relative to the same
        // instance's packing = 1 row from this run (< 1.0 means packing
        // cut rounds; the CI smoke greps this for the sketch family).
        let vs_unpacked = fmt_opt(
            (e.packing > 1)
                .then(|| {
                    entries
                        .iter()
                        .find(|t| {
                            t.packing == 1
                                && t.family == e.family
                                && t.n == e.n
                                && t.mode == e.mode
                                && t.threads == e.threads
                        })
                        .map(|t| e.rounds as f64 / (t.rounds as f64).max(1e-9))
                })
                .flatten(),
        );
        let load_ratio = fmt_opt(e.min_cut_load_ratio);
        let cuts = e.cut_edges.map_or_else(
            || "null".to_string(),
            |(s, x)| format!("{{\"sketch\": {s}, \"exact\": {x}}}"),
        );
        let _ = write!(
            out,
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"mode\": \"{}\", \
             \"threads\": {}, \"packing\": {}, \"partition_source\": {}, \
             \"graph_source\": \"{}\", \
             \"rounds\": {}, \"messages\": {}, \
             \"wall_ms\": {:.2}, \"wall_ms_before\": {}, \"speedup\": {}, \
             \"speedup_vs_t1\": {}, \"rounds_vs_unpacked\": {}, \
             \"min_cut_load_ratio\": {}, \"cut_edges\": {}, \"overhead_vs_direct\": {}, \
             \"compute_ms\": {}, \"stage_ms\": {}, \"merge_ms\": {}, \
             \"terminated\": {}, \"truncated\": {}}}",
            e.family,
            e.n,
            e.m,
            e.mode,
            e.threads,
            e.packing,
            e.partition_source
                .map_or_else(|| "null".to_string(), |s| format!("\"{s}\"")),
            e.graph_source,
            e.rounds,
            e.messages,
            e.wall_ms,
            fmt_opt(e.wall_ms_before),
            speedup,
            vs_t1,
            vs_unpacked,
            load_ratio,
            cuts,
            fmt_opt(e.overhead_vs_direct),
            fmt_phase(e.timings.map(|t| t.compute_ms)),
            fmt_phase(e.timings.map(|t| t.stage_ms)),
            fmt_phase(e.timings.map(|t| t.merge_ms)),
            e.terminated,
            e.truncated,
        );
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let threads_sweep = args.iter().any(|a| a == "--threads-sweep");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".to_string());
    let reps = if fast { 1 } else { 3 };
    // Grid sides giving n ≈ 1e3 / 1e4 / 1e5.
    let sides: &[usize] = if fast { &[32] } else { &[32, 100, 316] };

    let mut sim_entries = Vec::new();
    for &side in sides {
        let g = gen::grid(side, side);
        sim_entries.push(sim_entry("sim", "grid", &g, SimMode::Strict, 1, reps));
        sim_entries.push(sim_entry("sim", "grid", &g, SimMode::Queued, 1, reps));
        let t = gen::torus(side, side);
        sim_entries.push(sim_entry("sim", "torus", &t, SimMode::Strict, 1, reps));
    }
    // The decentralized executor on the largest instance of the sweep (the
    // CI smoke covers the backend at n = 1e3): 4 lanes by default,
    // `--threads-sweep` widens to the full scaling curve. Together with the
    // single-thread rows above this yields threads ∈ {1, 2, 4, 8}.
    {
        let side = if fast { 32 } else { 316 };
        let g = gen::grid(side, side);
        let lane_counts: &[usize] = if threads_sweep { &[2, 4, 8] } else { &[4] };
        for &t in lane_counts {
            sim_entries.push(sim_entry("sim", "grid", &g, SimMode::Strict, t, reps));
            sim_entries.push(sim_entry("sim", "grid", &g, SimMode::Queued, t, reps));
        }
    }
    // The zero-cost-facade guard (asserts <= MAX_FACADE_OVERHEAD; the CI
    // smoke greps for this row).
    sim_entries.push(facade_overhead_entry(reps));

    let mut partial_entries = Vec::new();
    let partial_sides: &[usize] = if fast { &[32] } else { &[32, 100] };
    let mut grid_rows_largest_cuts = Vec::new();
    for &side in partial_sides {
        let g = gen::grid(side, side);
        let (entry, cuts) = partial_entry(
            "grid_rows",
            &g,
            gen::rows_of_grid(side, side),
            "rows",
            DetectKind::Exact,
            1,
            reps,
        );
        partial_entries.push(entry);
        grid_rows_largest_cuts = cuts;
    }
    {
        let t = gen::torus(32, 32);
        let mut rng = SmallRng::seed_from_u64(42);
        let parts = gen::random_connected_parts(&t, 32, &mut rng);
        partial_entries.push(
            partial_entry(
                "torus_voronoi",
                &t,
                parts,
                "voronoi",
                DetectKind::Exact,
                1,
                reps,
            )
            .0,
        );
    }
    // Multi-value packing on the exact part-id streams: a packed twin of
    // the sweep's largest grid_rows instance. `rounds_vs_unpacked` relates
    // it to the packing = 1 row above; the detected cut set must be
    // identical.
    {
        let side = *partial_sides.last().expect("non-empty sweep");
        let g = gen::grid(side, side);
        let (packed, cuts_packed) = partial_entry(
            "grid_rows",
            &g,
            gen::rows_of_grid(side, side),
            "rows",
            DetectKind::Exact,
            PACKING,
            reps,
        );
        assert_eq!(
            cuts_packed, grid_rows_largest_cuts,
            "grid_rows: packed exact detection must cut the identical edge set"
        );
        partial_entries.push(packed);
    }
    // Sketch-mode detection: the n = 1e5 workload (exact streaming would
    // need ~n·k messages; the KMV sketch caps per-edge traffic at t + 1).
    // Singleton parts make the detection non-trivial — edges do get cut —
    // and the accuracy assertion compares against the centralized exact
    // cut set. The CI smoke runs the same family at n = 1e3. The instance
    // is emitted unpacked and at packing = 8; the packed run must detect
    // the identical cut set with a reduced round count (the
    // `rounds_vs_unpacked` column, asserted ≥ 2× on the full-size
    // instance).
    {
        let side = if fast { 32 } else { 316 };
        let g = gen::grid(side, side);
        let parts = gen::singleton_parts(&g);
        let (unpacked, cuts_unpacked) = partial_entry(
            "grid_singletons",
            &g,
            parts.clone(),
            "singletons",
            DetectKind::Sketch,
            1,
            reps,
        );
        let (packed, cuts_packed) = partial_entry(
            "grid_singletons",
            &g,
            parts,
            "singletons",
            DetectKind::Sketch,
            PACKING,
            reps,
        );
        assert_eq!(
            cuts_packed, cuts_unpacked,
            "grid_singletons: packed sketch detection must cut the identical edge set"
        );
        let ratio = packed.rounds as f64 / (unpacked.rounds as f64).max(1e-9);
        assert!(
            ratio < 1.0,
            "sketch packing = {PACKING} must reduce pipeline rounds \
             ({} packed vs {} unpacked)",
            packed.rounds,
            unpacked.rounds
        );
        if !fast {
            // Acceptance bar of the packing work: ≥ 2× fewer rounds on the
            // n = 1e5 sketch partial pipeline (BFS + detection).
            assert!(
                ratio <= 0.5,
                "n = 1e5 sketch pipeline: packing = {PACKING} cut rounds only \
                 {:.2}× ({} vs {}), below the 2× bar",
                1.0 / ratio,
                packed.rounds,
                unpacked.rounds
            );
        }
        partial_entries.push(unpacked);
        partial_entries.push(packed);
    }

    let sim_json = render("bench_sim/v7", &sim_entries);
    let partial_json = render("bench_partial/v7", &partial_entries);
    std::fs::write(format!("{out_dir}/BENCH_sim.json"), &sim_json).expect("write BENCH_sim.json");
    std::fs::write(format!("{out_dir}/BENCH_partial.json"), &partial_json)
        .expect("write BENCH_partial.json");
    print!("{sim_json}");
    print!("{partial_json}");
}
