//! Per-layer probes shared by every workload: the CONGEST engine and the
//! graph layer, each timed from outside through its public functions.

use crate::trace::{median, Spans, Trace};
use crate::Outcome;
use lcs_congest::protocols::BfsTreeProgram;
use lcs_congest::{Ctx, Incoming, MessageSize, NodeProgram, SimConfig, Simulator};
use lcs_core::GraphSource;
use lcs_graph::{bfs, Graph, NodeId};
use std::time::Instant;

/// Repetitions of each probe; their median is reported.
const REPS: usize = 7;

/// A program that is done before the first round: a run of it costs only
/// the engine's per-run set-up and tear-down.
struct Idle;

#[derive(Clone)]
struct NoMsg;

impl MessageSize for NoMsg {
    fn size_bits(&self) -> usize {
        1
    }
}

impl NodeProgram for Idle {
    type Msg = NoMsg;

    fn on_round(&mut self, _: &mut Ctx<'_, NoMsg>, _: &[Incoming<NoMsg>]) {}

    fn is_done(&self) -> bool {
        true
    }
}

struct BfsRun {
    wall_ms: f64,
    compute_ms: f64,
    stage_ms: f64,
    merge_ms: f64,
    messages: u64,
}

fn bfs_run(sim: &Simulator<'_>, spans: &mut Spans, name: &str) -> Result<BfsRun, String> {
    let root = NodeId(0);
    let t0 = Instant::now();
    let run = spans.time("congest", name, || {
        sim.run(|v, _| BfsTreeProgram::new(v == root))
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !run.metrics.terminated || run.metrics.truncated {
        return Err(format!("{name}: the BFS run did not quiesce"));
    }
    if run.programs.iter().any(|p| p.dist().is_none()) {
        return Err(format!("{name}: the BFS run left a node unreached"));
    }
    Ok(BfsRun {
        wall_ms,
        compute_ms: run.timings.compute_ms,
        stage_ms: run.timings.stage_ms,
        merge_ms: run.timings.merge_ms,
        messages: run.metrics.messages,
    })
}

/// `congest.*`: the engine on the workload's graph and `SimConfig`.
/// `speedup` adds the threads = 1 vs `nproc` comparison.
pub fn congest(
    g: &Graph,
    sim: SimConfig,
    nproc: usize,
    speedup: bool,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let engine = Simulator::new(g, sim);
    let runs = trace.phase("congest", |spans| {
        for _ in 0..REPS {
            let run = spans.time("congest", "congest.zero_round", || engine.run(|_, _| Idle));
            out.check(if run.metrics.terminated && !run.metrics.truncated {
                Ok(())
            } else {
                Err("an idle run did not terminate".into())
            });
        }
        let runs: Vec<BfsRun> = (0..REPS)
            .filter_map(|_| {
                let run = bfs_run(&engine, spans, "congest.bfs_run");
                out.check(run.as_ref().map(|_| ()).map_err(Clone::clone));
                run.ok()
            })
            .collect();
        if speedup {
            let single = Simulator::new(g, SimConfig { threads: 1, ..sim });
            let parallel = Simulator::new(
                g,
                SimConfig {
                    threads: nproc,
                    ..sim
                },
            );
            for _ in 0..REPS {
                for (engine, name) in [(&single, "congest.bfs_t1"), (&parallel, "congest.bfs_tn")] {
                    let run = bfs_run(engine, spans, name);
                    out.check(run.map(|_| ()));
                }
            }
        }
        runs
    });

    let pick = |f: fn(&BfsRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let wall = pick(|r| r.wall_ms);
    let buckets = pick(|r| r.compute_ms + r.stage_ms + r.merge_ms);
    let messages = runs.first().map_or(0, |r| r.messages);
    let m = &mut out.metrics;
    m.set(
        "congest.zero_round_ms",
        trace.median_ms("congest.zero_round"),
        "ms",
    );
    m.set("congest.bfs_run_ms", wall, "ms");
    m.set("congest.compute_ms", pick(|r| r.compute_ms), "ms");
    m.set("congest.stage_ms", pick(|r| r.stage_ms), "ms");
    m.set("congest.merge_ms", pick(|r| r.merge_ms), "ms");
    m.set("congest.attributed_share", buckets / wall, "ratio");
    m.set(
        "congest.ns_per_message",
        wall * 1e6 / messages.max(1) as f64,
        "ns",
    );
    if speedup {
        let t1 = trace.median_ms("congest.bfs_t1");
        let tn = trace.median_ms("congest.bfs_tn");
        m.set("congest.speedup_t2", t1 / tn, "x");
    } else {
        out.absent("congest.speedup_t2", "x");
    }
    out.samples.push(("congest_runs", REPS));
}

/// `graph.*`: resolving the workload's graph source and a sequential BFS.
/// `bytes` is the size of the graph's `.lcsg` form (load throughput).
pub fn graph(source: &GraphSource, g: &Graph, bytes: u64, trace: &mut Trace, out: &mut Outcome) {
    trace.phase("graph", |spans| {
        for _ in 0..REPS {
            let resolved = spans.time("graph", "graph.load", || source.resolve());
            out.check(match resolved {
                Ok(r) if r.graph == *g => Ok(()),
                Ok(_) => Err("the resolved graph differs from the served one".into()),
                Err(e) => Err(format!("graph load failed: {e}")),
            });
        }
        for _ in 0..REPS {
            let tree = spans.time("graph", "graph.bfs", || bfs::bfs(g, NodeId(0)));
            out.check(
                if (0..g.num_nodes()).all(|v| tree.reached(NodeId(v as u32))) {
                    Ok(())
                } else {
                    Err("sequential BFS left a node unreached".into())
                },
            );
        }
    });
    let load_ms = trace.median_ms("graph.load");
    let m = &mut out.metrics;
    m.set("graph.load_ms", load_ms, "ms");
    m.set(
        "graph.load_mb_s",
        bytes as f64 / 1e6 / (load_ms / 1e3),
        "MB/s",
    );
    m.set("graph.bfs_ms", trace.median_ms("graph.bfs"), "ms");
}

/// The size in bytes of `g` in the `.lcsg` format.
pub fn lcsg_bytes(g: &Graph) -> u64 {
    let mut buf = Vec::new();
    lcs_graph::io::write_graph(&mut buf, g, None).expect("writing to memory cannot fail");
    buf.len() as u64
}
