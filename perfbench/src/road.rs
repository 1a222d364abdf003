//! `build_road`: the library alone on one large near-planar instance.
//!
//! A `road_like` 316×316 graph (n ≈ 1e5, constant δ) is written as
//! `.lcsg` before timing. Set-up is `GraphSource::FlatBinary` resolve, a
//! session on the sketch backend (t = 16, packing 8, `nproc` threads) over
//! a 256-part Voronoi partition, and `prepare()`; then aggregates on fresh
//! values. The round loop, the Theorem 1.5 sketch construction and
//! ingestion do the work; the working set exceeds a 4 MiB L2.
//!
//! The run seed draws the Voronoi cells and the values. The graph itself
//! is one fixed instance: across graph seeds the served shortcut's
//! congestion ranges from about 150 to 250, a spread as wide as the
//! largest bound a metric may have, while across Voronoi seeds on one
//! graph it stays within about 10%.

use crate::probes;
use crate::trace::{mean, median, quantile, Spans, Trace};
use crate::{peak_rss_mb, Outcome, Rng, Run};
use lcs_congest::protocols::AggOp;
use lcs_congest::SimConfig;
use lcs_core::dist::{DistConfig, DistMode};
use lcs_core::session::{Backend, SessionConfig, ShortcutSession};
use lcs_core::{measure_quality, GeneratorSpec, GraphSource, PartitionSource, ResolvedGraph};
use lcs_graph::{io, NodeId};
use lcs_partwise::SessionPartwiseOps;
use std::time::{Duration, Instant};

const SIDE: usize = 316;
/// Seed of the one `road_like` instance (the one `bench_ingest` uses).
const ROAD_SEED: u64 = 7;
const PARTS: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Repetitions of the quality measurement in the library phase.
const QUALITY_REPS: usize = 5;

/// One aggregate's outcome.
struct Sample {
    ms: f64,
    rounds: u64,
    messages: u64,
}

/// The workload's fixed inputs and the partition the benchmark knows it
/// asked for.
struct Inputs {
    source: GraphSource,
    sim: SimConfig,
    partition: PartitionSource,
    /// The Voronoi parts, resolved by the benchmark itself.
    parts: Vec<Vec<NodeId>>,
    n: usize,
    seed: u64,
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let path = run
        .workdir
        .join(format!("road-{}-{}.lcsg", run.seed, std::process::id()));
    if let Err(e) = measure(run, &path, &mut out) {
        out.check(Err(e));
    }
    let _ = std::fs::remove_file(&path);
    out
}

fn session<'g>(
    resolved: &'g ResolvedGraph,
    inputs: &Inputs,
) -> Result<ShortcutSession<'g>, String> {
    resolved
        .session()
        .backend(Backend::Sketch(DistConfig {
            mode: DistMode::Sketch {
                t: 16,
                hash_seed: 0xbeef,
                cut_factor: 1.0,
            },
            sim: inputs.sim,
        }))
        .config(SessionConfig {
            sim: inputs.sim,
            partition_source: Some(inputs.partition.clone()),
            graph_source: Some(inputs.source.clone()),
            ..SessionConfig::default()
        })
        .build()
        .map_err(|e| format!("session build: {e}"))
}

/// One timed set-up: resolve, build, prepare.
fn setup<'g>(
    inputs: &Inputs,
    spans: &mut Spans,
    slot: &'g mut Option<ResolvedGraph>,
) -> Result<(ShortcutSession<'g>, f64, &'g ResolvedGraph), String> {
    let t0 = Instant::now();
    let resolved = spans
        .time("setup", "graph.load", || inputs.source.resolve())
        .map_err(|e| format!("graph load: {e}"))?;
    let resolved: &'g ResolvedGraph = slot.insert(resolved);
    let mut s = spans.time("setup", "core.build", || session(resolved, inputs))?;
    spans.time("setup", "core.prepare", || s.prepare());
    Ok((s, t0.elapsed().as_secs_f64(), resolved))
}

/// Runs aggregates on fresh values until `seconds` pass, checking each.
fn aggregates(
    s: &mut ShortcutSession<'_>,
    inputs: &Inputs,
    salt: u64,
    seconds: f64,
    spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> (Vec<Sample>, f64) {
    let mut rng = Rng::new(inputs.seed, salt);
    let mut samples = Vec::new();
    let mut spans = spans;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let values: Vec<u64> = (0..inputs.n).map(|_| rng.below(1_000_000)).collect();
        let op = [AggOp::Sum, AggOp::Min, AggOp::Max][rng.below(3) as usize];
        let t0 = Instant::now();
        let report = s.aggregate(&values, op);
        let t1 = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("e2e", "partwise.aggregate", t0, t1);
        }
        let expected = inputs.parts.iter().map(|part| {
            part.iter()
                .map(|v| values[v.index()])
                .reduce(|a, b| op.apply(a, b))
        });
        let metrics = &report.result.metrics;
        let result = if !report.result.all_members_informed {
            Err("aggregate: not every member was informed".to_string())
        } else if !metrics.terminated || metrics.truncated {
            Err("aggregate: the simulation did not quiesce".to_string())
        } else if report.result.results.len() != inputs.parts.len()
            || !expected.eq(report.result.results.iter().copied())
        {
            Err("aggregate: results differ from the expected per-part aggregates".to_string())
        } else {
            Ok(())
        };
        if result.is_ok() {
            samples.push(Sample {
                ms: (t1 - t0).as_secs_f64() * 1e3,
                rounds: report.rounds,
                messages: report.messages,
            });
        }
        out.check(result);
    }
    (samples, start.elapsed().as_secs_f64())
}

fn measure(run: &Run, path: &std::path::Path, out: &mut Outcome) -> Result<(), String> {
    let mut trace = Trace::new();

    // Inputs, before any timing.
    let g = GeneratorSpec::RoadLike {
        rows: SIDE,
        cols: SIDE,
        seed: ROAD_SEED,
    }
    .build()
    .map_err(|e| format!("road_like: {e}"))?;
    io::save_graph(path, &g, None).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let partition = PartitionSource::Voronoi {
        parts: PARTS,
        seed: run.seed,
    };
    let inputs = Inputs {
        source: GraphSource::FlatBinary {
            path: path
                .to_str()
                .ok_or("work directory is not UTF-8")?
                .to_string(),
        },
        sim: SimConfig {
            message_packing: 8,
            threads: run.nproc,
            ..SimConfig::default()
        },
        parts: partition.resolve(&g),
        partition,
        n: g.num_nodes(),
        seed: run.seed,
    };

    // Set-up, several times; the last session serves the measured phase.
    let start = trace.begin();
    let mut spans = trace.spans(0);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let mut slot = None;
        let (_, secs, _) = setup(&inputs, &mut spans, &mut slot)?;
        setups.push(secs);
    }
    let mut slot = None;
    let (mut s, secs, resolved) = setup(&inputs, &mut spans, &mut slot)?;
    setups.push(secs);
    trace.end("setup", start, spans);
    out.setups = setups.clone();
    out.check(if resolved.graph == g {
        Ok(())
    } else {
        Err("the loaded graph differs from the generated one".into())
    });
    let quality = s.quality().clone();
    out.check(if quality.all_connected() {
        Ok(())
    } else {
        Err("a part of the served shortcut is disconnected".into())
    });

    if !run.trace {
        let (samples, elapsed) = aggregates(&mut s, &inputs, 1, run.seconds, None, out);
        let lat: Vec<f64> = samples.iter().map(|x| x.ms).collect();
        let rounds: Vec<f64> = samples.iter().map(|x| x.rounds as f64).collect();
        let m = &mut out.metrics;
        m.set("throughput_ops_s", samples.len() as f64 / elapsed, "ops/s");
        m.set("latency_p50_ms", quantile(&lat, 0.5), "ms");
        m.set("latency_p99_ms", quantile(&lat, 0.99), "ms");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m.set("sim_rounds_per_op", mean(&rounds), "rounds");
        m.set(
            "shortcut_congestion",
            f64::from(quality.max_congestion),
            "edges",
        );
        m.set(
            "shortcut_dilation",
            f64::from(quality.max_dilation_upper),
            "hops",
        );
        out.samples.push(("latency", lat.len()));
        return Ok(());
    }

    // Traced run: the same aggregates in four windows, without, with, with
    // and without spans, so that warm-up and drift fall on both sides.
    let quarter = run.seconds / 4.0;
    let mut windows: Vec<Vec<Sample>> = Vec::new();
    for record in [false, true, true, false] {
        windows.push(if record {
            trace.phase("e2e", |spans| {
                aggregates(&mut s, &inputs, 1, quarter, Some(spans), out).0
            })
        } else {
            aggregates(&mut s, &inputs, 1, quarter, None, out).0
        });
    }
    let lat = |w: usize| windows[w].iter().map(|x| x.ms).collect::<Vec<_>>();
    let (traced_ms, plain_ms) = crate::paired_sums([&lat(0), &lat(1), &lat(2), &lat(3)]);
    let overhead = traced_ms / plain_ms - 1.0;
    let traced: Vec<Sample> = windows.drain(1..3).flatten().collect();

    let hit_ratio = crate::artifact_hit_ratio(s.cache_stats());

    let (construction, delta_hat) = trace.phase("library", |spans| {
        for _ in 0..QUALITY_REPS {
            let q = spans.time("library", "core.quality", || {
                measure_quality(s.graph(), s.partition(), s.tree_ref(), s.shortcut_ref())
            });
            out.check(if q == quality {
                Ok(())
            } else {
                Err("measure_quality disagrees with the cached report".into())
            });
        }
        (s.construction_stats(), s.delta_hat())
    });

    let graph = &resolved.graph;
    probes::congest(graph, inputs.sim, run.nproc, true, &mut trace, out);
    probes::graph(&inputs.source, graph, bytes, &mut trace, out);

    let agg_ms = median(&traced.iter().map(|x| x.ms).collect::<Vec<_>>());
    let agg_msgs = median(&traced.iter().map(|x| x.messages as f64).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("core.build_ms", trace.median_ms("core.build"), "ms");
    m.set("core.prepare_ms", trace.median_ms("core.prepare"), "ms");
    m.set("core.quality_ms", trace.median_ms("core.quality"), "ms");
    m.set(
        "core.construct_rounds",
        construction.rounds as f64,
        "rounds",
    );
    m.set(
        "core.construct_messages",
        construction.messages as f64,
        "messages",
    );
    m.set("core.delta_hat", f64::from(delta_hat), "count");
    m.set("core.artifact_hit_ratio", hit_ratio, "ratio");
    m.set("partwise.aggregate_ms", agg_ms, "ms");
    m.set(
        "partwise.aggregate_rounds",
        median(&traced.iter().map(|x| x.rounds as f64).collect::<Vec<_>>()),
        "rounds",
    );
    m.set("partwise.aggregate_messages", agg_msgs, "messages");
    m.set(
        "partwise.ns_per_message",
        agg_ms * 1e6 / agg_msgs.max(1.0),
        "ns",
    );
    // The server layers do not run on this workload.
    for kind in [
        "quality",
        "aggregate",
        "create",
        "reassign",
        "mst",
        "unicast",
    ] {
        out.absent(format!("server.transport_ms.{kind}"), "ms");
        out.absent(format!("server.handle_ms.{kind}"), "ms");
    }
    for (name, unit) in [
        ("server.lock_wait_ms.p50", "ms"),
        ("server.lock_wait_ms.p99", "ms"),
        ("server.json_parse_ms", "ms"),
        ("server.json_render_ms", "ms"),
        ("server.registry_ms", "ms"),
        ("server.hit_ratio", "ratio"),
        ("server.worker_panics", "count"),
        ("server.repeat_share", "ratio"),
        ("server.mutation_share", "ratio"),
        ("core.reassign_ms", "ms"),
        ("partwise.unicast_ms", "ms"),
        ("partwise.unicast_rounds", "rounds"),
        ("algos.mst_ms", "ms"),
        ("algos.mst_rounds", "rounds"),
    ] {
        out.absent(name, unit);
    }
    out.samples.push(("traced_aggregates", traced.len()));
    // Set-up is load, build and prepare; no server stands between the
    // benchmark and an aggregate.
    let m = &out.metrics;
    let setup_share = (m.get("graph.load_ms") + m.get("core.build_ms") + m.get("core.prepare_ms"))
        / (median(&setups) * 1e3);
    let shares = [
        ("setup", Some(setup_share)),
        ("e2e", None),
        ("handle", None),
    ];
    crate::finish_trace(&trace, shares, overhead, out);
    Ok(())
}
