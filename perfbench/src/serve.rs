//! `serve_repeat` and `serve_churn`: the `lcs_server` daemon in-process on
//! loopback, one warm 32×32 grid session (default rows partition,
//! centralized backend), two closed-loop keep-alive clients.
//!
//! `serve_repeat` is read-heavy and repetitive (a pool of four aggregate
//! arguments, quality, cache stats, re-POSTs of the same spec), so the
//! transport, JSON, registry and lock layers set the median. `serve_churn`
//! mixes mutations with reads on fresh arguments, so every op bumps an
//! epoch and the partwise/algos/engine layers do the work.
//!
//! Churn client `c` owns grid row `2c + 1` and only ever moves that row's
//! end segments into row `2c`; every move list is absolute, so it is valid
//! in any state and keeps both parts connected. Churn clients pause for a
//! seeded think time between an answer and their next request (see
//! [`THINK_MS`]).

use crate::probes;
use crate::trace::{mean, median, quantile, Spans, Trace};
use crate::{peak_rss_mb, Outcome, Rng, Run};
use lcs_algos::mst::kruskal;
use lcs_algos::SessionAlgoOps;
use lcs_congest::protocols::AggOp;
use lcs_core::session::{Session, SessionConfig, ShortcutSession};
use lcs_core::{measure_quality, GeneratorSpec, GraphSource};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, EdgeId, Graph, NodeId, PartId};
use lcs_partwise::SessionPartwiseOps;
use lcs_server::client::Client;
use lcs_server::{
    api, json, AppState, Server, ServerConfig, ServerHandle, SessionEntry, SessionSpec,
};
use serde::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SIDE: usize = 32;
const CLIENTS: usize = 2;
/// Fewest requests an untraced run measures, so that its p99 rests on at
/// least fifteen samples.
const MIN_REQUESTS: usize = 1500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// A churn client moves fewer than this many nodes off each end of its row.
const BAND: usize = 8;
const DEMANDS: usize = 16;
/// Edges an `update_weights` re-draws: a quarter of the grid's edges, so
/// that every mst runs on fresh weights and its cost does not hinge on one
/// seeded weight vector.
const WEIGHT_CHANGES: usize = 496;
const MAX_WEIGHT: u64 = 1 << 20;
const VALUE_RANGE: u64 = 1_000_000;
/// Stream salt of the measured phases; the untraced run's correctness
/// pass uses its own.
const SALT: u64 = 1;
/// Mean think time (ms) of a `serve_churn` client: an exponential pause
/// between an answer and the client's next request. Without it the two
/// clients run in lockstep on the one session lock, each request waiting
/// out exactly one request of the other client; every latency is then a
/// sum of two service times, and mst + mst pairs, about 1% of requests,
/// put p99 on the edge between two modes (over ten seeds it read either
/// 204–236 ms or 261–289 ms). Random pauses spread the overlaps.
/// `serve_repeat` has none: its requests are short and it measures the
/// transport.
const THINK_MS: f64 = 20.0;
/// Library-phase repetitions of build, prepare and quality.
const LIB_REPS: usize = 5;
/// Registry hit-path calls timed in the server phase.
const REGISTRY_CALLS: usize = 200;
/// Requests whose bodies are parsed, and responses rendered, in the
/// server phase.
const JSON_SAMPLES: usize = 400;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Repeat,
    Churn,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Quality,
    Aggregate,
    Create,
    Reassign,
    Mst,
    Unicast,
    Update,
    CacheStats,
    Info,
}

impl Kind {
    /// Every kind of request.
    const ALL: [Kind; 9] = [
        Kind::Quality,
        Kind::Aggregate,
        Kind::Create,
        Kind::Reassign,
        Kind::Mst,
        Kind::Unicast,
        Kind::Update,
        Kind::CacheStats,
        Kind::Info,
    ];

    /// The kinds the per-layer metrics are broken down by.
    const REPORTED: [Kind; 6] = [
        Kind::Quality,
        Kind::Aggregate,
        Kind::Create,
        Kind::Reassign,
        Kind::Mst,
        Kind::Unicast,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Quality => "quality",
            Kind::Aggregate => "aggregate",
            Kind::Create => "create",
            Kind::Reassign => "reassign",
            Kind::Mst => "mst",
            Kind::Unicast => "unicast",
            Kind::Update => "update_weights",
            Kind::CacheStats => "cache_stats",
            Kind::Info => "info",
        }
    }

    fn mutates(self) -> bool {
        matches!(self, Kind::Reassign | Kind::Update)
    }
}

/// The arguments of one request, kept structured so the direct replays
/// can call the session without decoding the body.
enum Op {
    Plain,
    Aggregate { values: Arc<Vec<u64>>, op: AggOp },
    Reassign { band: (usize, usize) },
    Update { changes: Vec<(u32, u64)> },
    Mst { weights: Vec<u64>, total: u64 },
    Unicast { demands: Vec<(u32, u32)> },
}

struct Req {
    kind: Kind,
    op: Op,
    method: &'static str,
    path: String,
    body: String,
}

/// Everything the clients share: the spec, the session id and the graph
/// the benchmark computes expected results on.
struct Ctx {
    mix: Mix,
    seed: u64,
    graph: Graph,
    sid: String,
    spec_body: String,
    /// `serve_repeat`'s aggregate arguments with their rendered bodies.
    pool: Vec<(Arc<Vec<u64>>, AggOp, String)>,
    /// The session's initial edge weights (`serve_churn` only).
    weights: Option<Vec<u64>>,
}

fn agg_name(op: AggOp) -> &'static str {
    match op {
        AggOp::Sum => "sum",
        AggOp::Min => "min",
        AggOp::Max => "max",
    }
}

fn random_op(rng: &mut Rng) -> AggOp {
    [AggOp::Sum, AggOp::Min, AggOp::Max][rng.below(3) as usize]
}

fn aggregate_body(values: &[u64], op: AggOp) -> String {
    let mut body = String::with_capacity(8 * values.len() + 32);
    body.push_str("{\"values\": [");
    for (i, v) in values.iter().enumerate() {
        let _ = write!(body, "{}{v}", if i > 0 { "," } else { "" });
    }
    let _ = write!(body, "], \"op\": \"{}\"}}", agg_name(op));
    body
}

fn pairs_body(field: &str, pairs: impl Iterator<Item = (u64, u64)>) -> String {
    let mut body = format!("{{\"{field}\": [");
    for (i, (a, b)) in pairs.enumerate() {
        let _ = write!(body, "{}[{a},{b}]", if i > 0 { "," } else { "" });
    }
    body.push_str("]}");
    body
}

/// Client `client`'s absolute move list: row `2c + 1`'s first `kl` and
/// last `kr` nodes go to part `2c`, the rest stay in part `2c + 1`.
fn moves(client: usize, (kl, kr): (usize, usize)) -> Vec<(u32, u32)> {
    let row = 2 * client + 1;
    (0..SIDE)
        .map(|j| {
            let part = if j < kl || j >= SIDE - kr {
                row - 1
            } else {
                row
            };
            ((row * SIDE + j) as u32, part as u32)
        })
        .collect()
}

fn mst_total(g: &Graph, weights: &[u64]) -> u64 {
    let w = EdgeWeights::from_vec(g, weights.to_vec());
    w.total(kruskal(g, &w))
}

/// One client's seeded request stream; `salt` separates the phases that
/// must not replay each other's requests.
struct Stream<'a> {
    ctx: &'a Ctx,
    client: usize,
    rng: Rng,
    weights: Vec<u64>,
    pending_mst: bool,
    /// The kinds still to come in the current block of the mix.
    deck: Vec<Kind>,
}

impl<'a> Stream<'a> {
    fn new(ctx: &'a Ctx, client: usize, salt: u64) -> Self {
        let mut rng = Rng::new(ctx.seed, 16 * salt + client as u64);
        let weights = (0..ctx.graph.num_edges())
            .map(|_| 1 + rng.below(MAX_WEIGHT))
            .collect();
        Stream {
            ctx,
            client,
            rng,
            weights,
            pending_mst: false,
            deck: Vec::new(),
        }
    }

    /// Deals the next block of the mix in a seeded order. Every block holds
    /// the mix's exact proportions, so the work per request does not vary
    /// with the seed.
    fn deal(&mut self) {
        let block: &[(Kind, usize)] = match self.ctx.mix {
            // 25% aggregate, 45% quality, 15% cache stats / session info,
            // 15% re-POSTs of the same spec.
            Mix::Repeat => &[
                (Kind::Aggregate, 10),
                (Kind::Quality, 18),
                (Kind::CacheStats, 3),
                (Kind::Info, 3),
                (Kind::Create, 6),
            ],
            // Each update is followed by an mst, so of all requests 35%
            // aggregate, 15% reassign, 10% update + 10% mst, 15% unicast
            // and 15% quality.
            Mix::Churn => &[
                (Kind::Aggregate, 7),
                (Kind::Reassign, 3),
                (Kind::Update, 2),
                (Kind::Unicast, 3),
                (Kind::Quality, 3),
            ],
        };
        for &(kind, count) in block {
            self.deck.extend(std::iter::repeat_n(kind, count));
        }
        for i in (1..self.deck.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            self.deck.swap(i, j);
        }
    }

    fn next_req(&mut self) -> Req {
        let kind = if std::mem::take(&mut self.pending_mst) {
            Kind::Mst
        } else {
            if self.deck.is_empty() {
                self.deal();
            }
            self.deck.pop().expect("a dealt deck is not empty")
        };
        let sid = &self.ctx.sid;
        let op_path = |name: &str| format!("/sessions/{sid}/{name}");
        let (op, method, path, body) = match kind {
            Kind::Quality => (Op::Plain, "POST", op_path("quality"), String::new()),
            Kind::CacheStats => (Op::Plain, "POST", op_path("cache_stats"), String::new()),
            Kind::Info => (Op::Plain, "GET", format!("/sessions/{sid}"), String::new()),
            Kind::Create => (
                Op::Plain,
                "POST",
                "/sessions".to_string(),
                self.ctx.spec_body.clone(),
            ),
            Kind::Aggregate => {
                let (values, op, body) = match self.ctx.mix {
                    Mix::Repeat => {
                        self.ctx.pool[self.rng.below(self.ctx.pool.len() as u64) as usize].clone()
                    }
                    Mix::Churn => {
                        let n = self.ctx.graph.num_nodes();
                        let values: Vec<u64> =
                            (0..n).map(|_| self.rng.below(VALUE_RANGE)).collect();
                        let op = random_op(&mut self.rng);
                        let body = aggregate_body(&values, op);
                        (Arc::new(values), op, body)
                    }
                };
                (
                    Op::Aggregate { values, op },
                    "POST",
                    op_path("aggregate"),
                    body,
                )
            }
            Kind::Reassign => {
                let band = (
                    self.rng.below(BAND as u64) as usize,
                    self.rng.below(BAND as u64) as usize,
                );
                let list = moves(self.client, band);
                let body = pairs_body("moves", list.iter().map(|&(v, p)| (v.into(), p.into())));
                (
                    Op::Reassign { band },
                    "POST",
                    op_path("reassign_parts"),
                    body,
                )
            }
            Kind::Update => {
                let m = self.ctx.graph.num_edges() as u64;
                let changes: Vec<(u32, u64)> = (0..WEIGHT_CHANGES)
                    .map(|_| (self.rng.below(m) as u32, 1 + self.rng.below(MAX_WEIGHT)))
                    .collect();
                for &(e, w) in &changes {
                    self.weights[e as usize] = w;
                }
                self.pending_mst = true;
                let body = pairs_body("changes", changes.iter().map(|&(e, w)| (e.into(), w)));
                (
                    Op::Update { changes },
                    "POST",
                    op_path("update_weights"),
                    body,
                )
            }
            Kind::Mst => {
                let weights = self.weights.clone();
                let total = mst_total(&self.ctx.graph, &weights);
                let mut body = String::from("{\"weights\": [");
                for (i, w) in weights.iter().enumerate() {
                    let _ = write!(body, "{}{w}", if i > 0 { "," } else { "" });
                }
                body.push_str("]}");
                (Op::Mst { weights, total }, "POST", op_path("mst"), body)
            }
            Kind::Unicast => {
                let n = self.ctx.graph.num_nodes() as u64;
                let demands: Vec<(u32, u32)> = (0..DEMANDS)
                    .map(|_| {
                        let u = self.rng.below(n);
                        let v = self.rng.below(n - 1);
                        (u as u32, if v >= u { v + 1 } else { v } as u32)
                    })
                    .collect();
                let body = pairs_body(
                    "demands",
                    demands.iter().map(|&(u, v)| (u.into(), v.into())),
                );
                (Op::Unicast { demands }, "POST", op_path("unicast"), body)
            }
        };
        Req {
            kind,
            op,
            method,
            path,
            body,
        }
    }
}

/// A client's seeded pauses between requests.
struct Think {
    rng: Rng,
    mean_ms: f64,
}

impl Think {
    fn new(ctx: &Ctx, client: usize) -> Self {
        Think {
            rng: Rng::new(ctx.seed, 1000 + client as u64),
            mean_ms: match ctx.mix {
                Mix::Repeat => 0.0,
                Mix::Churn => THINK_MS,
            },
        }
    }

    /// Sleeps for an exponentially distributed time of mean `mean_ms`.
    fn pause(&mut self) {
        if self.mean_ms > 0.0 {
            let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let ms = -self.mean_ms * (1.0 - u).ln();
            std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
        }
    }
}

/// Simulated cost of one checked op (0 for ops that simulate nothing).
#[derive(Default)]
struct Cost {
    rounds: Option<u64>,
    messages: u64,
}

/// Checks one client's responses against results the benchmark computes
/// itself, tracking the part of the partition the client has set.
struct Checker<'a> {
    ctx: &'a Ctx,
    client: usize,
    /// This client's last confirmed move band; `None` while unknown.
    band: Option<(usize, usize)>,
}

impl<'a> Checker<'a> {
    fn new(ctx: &'a Ctx, client: usize) -> Self {
        Checker {
            ctx,
            client,
            band: None,
        }
    }

    /// Whether `results` (one per row part) is the aggregate of `values`
    /// under some partition the clients may have set by now: rows no client
    /// moves must match exactly, and each client's row pair must match one
    /// of its move bands (the confirmed one for this client's own rows).
    fn aggregate_ok(&self, values: &[u64], op: AggOp, results: &[Option<u64>]) -> bool {
        if results.len() != SIDE {
            return false;
        }
        let fold = |nodes: &mut dyn Iterator<Item = usize>| {
            nodes.map(|v| values[v]).reduce(|a, b| op.apply(a, b))
        };
        let row = |r: usize| r * SIDE..(r + 1) * SIDE;
        let moved_rows = if self.ctx.mix == Mix::Churn {
            2 * CLIENTS
        } else {
            0
        };
        if (moved_rows..SIDE).any(|r| results[r] != fold(&mut row(r))) {
            return false;
        }
        (0..moved_rows / 2).all(|c| {
            let mover = 2 * c + 1;
            let bands: Vec<(usize, usize)> = match self.band {
                Some(b) if c == self.client => vec![b],
                _ => (0..BAND)
                    .flat_map(|kl| (0..BAND).map(move |kr| (kl, kr)))
                    .collect(),
            };
            bands.iter().any(|&(kl, kr)| {
                let moved = |v: &usize| {
                    let j = v % SIDE;
                    j < kl || j >= SIDE - kr
                };
                let receiver = fold(&mut row(mover - 1).chain(row(mover).filter(moved)));
                let rest = fold(&mut row(mover).filter(|v| !moved(v)));
                results[mover - 1] == receiver && results[mover] == rest
            })
        })
    }

    /// Checks a daemon response.
    fn http(&mut self, req: &Req, status: u16, body: &Value) -> Result<Cost, String> {
        if req.kind == Kind::Reassign {
            self.band = None;
        }
        if status != 200 {
            return Err(format!(
                "{} answered {status}: {}",
                req.kind.name(),
                json::render(body)
            ));
        }
        let num = |v: &Value, name: &str| match json::lookup(v, name) {
            Some(Value::U64(x)) => Some(*x),
            _ => None,
        };
        let rounds = num(body, "rounds");
        let fail = |what: &str| Err(format!("{}: {what}", req.kind.name()));
        let result = json::lookup(body, "result").unwrap_or(&Value::Null);
        match (&req.op, req.kind) {
            (_, Kind::Quality) => {
                if !matches!(json::lookup(body, "all_connected"), Some(Value::Bool(true))) {
                    return fail("a part of the served shortcut is disconnected");
                }
            }
            (_, Kind::CacheStats) => {
                if json::lookup(body, "full").is_none() {
                    return fail("no artifact counters");
                }
            }
            (_, Kind::Info) => {
                if num(body, "num_nodes") != Some((SIDE * SIDE) as u64) {
                    return fail("wrong node count");
                }
            }
            (_, Kind::Create) => {
                let id_ok =
                    matches!(json::lookup(body, "id"), Some(Value::Str(id)) if *id == self.ctx.sid);
                if !id_ok || !matches!(json::lookup(body, "created"), Some(Value::Bool(false))) {
                    return fail("the re-POST did not hit the warm session");
                }
            }
            (Op::Aggregate { values, op }, _) => {
                let results: Option<Vec<Option<u64>>> = match json::lookup(result, "results") {
                    Some(Value::Arr(items)) => items
                        .iter()
                        .map(|x| match x {
                            Value::U64(v) => Some(Some(*v)),
                            Value::Null => Some(None),
                            _ => None,
                        })
                        .collect(),
                    _ => None,
                };
                if !matches!(
                    json::lookup(result, "all_members_informed"),
                    Some(Value::Bool(true))
                ) {
                    return fail("not every member was informed");
                }
                match results {
                    Some(r) if self.aggregate_ok(values, *op, &r) => {}
                    _ => return fail("results differ from the expected per-part aggregates"),
                }
            }
            (Op::Reassign { band }, _) => {
                let row = 2 * self.client + 1;
                let touched_ok = match json::lookup(body, "touched_parts") {
                    Some(Value::Arr(parts)) => parts.iter().all(|p| {
                        matches!(p, Value::U64(x) if *x as usize == row || *x as usize == row - 1)
                    }),
                    _ => false,
                };
                if !touched_ok {
                    return fail("touched parts outside the client's rows");
                }
                self.band = Some(*band);
            }
            (Op::Update { changes }, _) => {
                if num(body, "updated") != Some(changes.len() as u64) {
                    return fail("wrong update count");
                }
            }
            (Op::Mst { total, .. }, _) => {
                if num(result, "total_weight") != Some(*total) {
                    return fail("weight differs from Kruskal's");
                }
            }
            (Op::Unicast { demands }, _) => {
                if num(result, "delivered") != Some(demands.len() as u64) {
                    return fail("not every demand was delivered");
                }
            }
            (Op::Plain, _) => unreachable!("plain requests are matched by kind"),
        }
        let messages = num(body, "messages").unwrap_or(0);
        Ok(Cost { rounds, messages })
    }

    /// Runs `req` directly on a session and checks the result, including
    /// that every simulation quiesced without truncation. `prepare` makes
    /// a reassignment also re-customize the shortcut.
    fn direct(
        &mut self,
        s: &mut ShortcutSession<'_>,
        req: &Req,
        prepare: bool,
    ) -> Result<Cost, String> {
        let name = req.kind.name();
        let quiesced = |m: &lcs_congest::RunMetrics| m.terminated && !m.truncated;
        match &req.op {
            Op::Plain => match req.kind {
                Kind::Quality => {
                    let q = s.try_quality().map_err(|e| format!("{name}: {e}"))?;
                    if !q.all_connected() {
                        return Err(format!("{name}: a part is disconnected"));
                    }
                }
                _ => {
                    std::hint::black_box(s.cache_stats());
                }
            },
            Op::Aggregate { values, op } => {
                let r = s
                    .try_aggregate(values, *op)
                    .map_err(|e| format!("{name}: {e}"))?;
                let ok = r.result.all_members_informed
                    && quiesced(&r.result.metrics)
                    && self.aggregate_ok(values, *op, &r.result.results);
                if !ok {
                    return Err(format!("{name}: wrong, partial or truncated result"));
                }
                return Ok(Cost {
                    rounds: Some(r.rounds),
                    messages: r.messages,
                });
            }
            Op::Reassign { band } => {
                self.band = None;
                let list: Vec<(NodeId, PartId)> = moves(self.client, *band)
                    .into_iter()
                    .map(|(v, p)| (NodeId(v), PartId(p)))
                    .collect();
                s.try_reassign_parts(&list)
                    .map_err(|e| format!("{name}: {e}"))?;
                if prepare {
                    s.prepare();
                }
                self.band = Some(*band);
            }
            Op::Update { changes } => {
                let list: Vec<(EdgeId, u64)> =
                    changes.iter().map(|&(e, w)| (EdgeId(e), w)).collect();
                s.try_update_weights(&list)
                    .map_err(|e| format!("{name}: {e}"))?;
            }
            Op::Mst { weights, total } => {
                let w = EdgeWeights::from_vec(s.graph(), weights.clone());
                let r = s.try_mst(&w).map_err(|e| format!("{name}: {e}"))?;
                if r.result.total_weight != *total {
                    return Err(format!("{name}: weight differs from Kruskal's"));
                }
                return Ok(Cost {
                    rounds: Some(r.rounds),
                    messages: r.messages,
                });
            }
            Op::Unicast { demands } => {
                let list: Vec<(NodeId, NodeId)> = demands
                    .iter()
                    .map(|&(u, v)| (NodeId(u), NodeId(v)))
                    .collect();
                let r = s.try_unicast(&list).map_err(|e| format!("{name}: {e}"))?;
                if r.result.delivered != demands.len() || !quiesced(&r.result.metrics) {
                    return Err(format!("{name}: undelivered or truncated"));
                }
                return Ok(Cost {
                    rounds: Some(r.rounds),
                    messages: r.messages,
                });
            }
        }
        Ok(Cost::default())
    }
}

/// One thread's record of a phase.
struct Log {
    /// `(kind, latency ms)` per request that passed its checks.
    lat: Vec<(Kind, f64)>,
    rounds: Vec<u64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    spans: Spans,
    /// `(kind, ms)` of every request in stream order, for pairing the same
    /// request across phases.
    seq: Vec<(Kind, f64)>,
    /// Response bodies kept for the JSON render probe.
    responses: Vec<(Kind, String)>,
    start: Instant,
    end: Instant,
}

impl Log {
    fn new(epoch: Instant, thread: u32) -> Self {
        let now = Instant::now();
        Log {
            lat: Vec::new(),
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
            spans: Spans::new(epoch, thread),
            seq: Vec::new(),
            responses: Vec::new(),
            start: now,
            end: now,
        }
    }

    fn count(&mut self, result: Result<Cost, String>) {
        self.attempted += 1;
        match result {
            Ok(cost) => self.rounds.extend(cost.rounds),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

fn fold_logs(out: &mut Outcome, logs: &mut [Log]) {
    for log in logs {
        out.absorb(log.attempted, log.failed, log.first_error.take());
    }
}

/// Runs `body(client, log)` on one thread per client, all released
/// together, and returns their logs.
fn on_clients(epoch: Instant, body: impl Fn(usize, &mut Log) + Sync) -> Vec<Log> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let mut log = Log::new(epoch, c as u32 + 1);
                    barrier.wait();
                    log.start = Instant::now();
                    body(c, &mut log);
                    log.end = Instant::now();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn span_of(logs: &[Log]) -> f64 {
    let start = logs
        .iter()
        .map(|l| l.start)
        .min()
        .expect("at least one client");
    let end = logs
        .iter()
        .map(|l| l.end)
        .max()
        .expect("at least one client");
    (end - start).as_secs_f64()
}

/// The closed loop: each client sends its stream's next request only after
/// the previous answer arrived (and its think time passed), until `seconds`
/// have passed and the clients together issued `min_requests` (or three
/// times `seconds` passed).
fn http_phase(
    ctx: &Ctx,
    addr: SocketAddr,
    seconds: f64,
    min_requests: usize,
    epoch: Instant,
    record: bool,
) -> Vec<Log> {
    let issued = AtomicUsize::new(0);
    on_clients(epoch, |c, log| {
        let mut client = Client::new(addr).with_timeout(Duration::from_secs(60));
        let mut stream = Stream::new(ctx, c, SALT);
        let mut checker = Checker::new(ctx, c);
        let mut think = Think::new(ctx, c);
        let deadline = log.start + Duration::from_secs_f64(seconds);
        let cap = log.start + Duration::from_secs_f64(3.0 * seconds);
        loop {
            let now = Instant::now();
            let short = issued.fetch_add(1, Ordering::Relaxed) < min_requests;
            if now >= cap || (now >= deadline && !short) {
                break;
            }
            let req = stream.next_req();
            let t0 = Instant::now();
            let response = client.request(req.method, &req.path, req.body.as_bytes());
            let t1 = Instant::now();
            let result = match response {
                Ok(r) => checker.http(&req, r.status, &r.body),
                Err(e) => Err(format!("{}: transport error {e}", req.kind.name())),
            };
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            if result.is_ok() {
                log.lat.push((req.kind, ms));
            }
            log.seq.push((req.kind, ms));
            if record {
                let name = format!("http.{}", req.kind.name());
                log.spans.record("e2e", &name, t0, t1);
            }
            log.count(result);
            think.pause();
        }
    })
}

/// The session spec: the grid, plus initial weights when given.
fn spec_value(weights: Option<&[u64]>) -> Value {
    let graph = Value::object([
        ("kind", Value::Str("grid".to_string())),
        ("rows", Value::U64(SIDE as u64)),
        ("cols", Value::U64(SIDE as u64)),
    ]);
    match weights {
        None => Value::object([("graph", graph)]),
        Some(w) => {
            let w = w.iter().map(|&x| Value::U64(x)).collect();
            Value::object([("graph", graph), ("weights", Value::Arr(w))])
        }
    }
}

/// A daemon with its one prepared session, and that session's shortcut
/// congestion and dilation as a client sees them.
struct Started {
    handle: ServerHandle,
    sid: String,
    congestion: f64,
    dilation: f64,
}

/// Starts the daemon, creates the session and prepares it: the full
/// shortcut (`prepare`) and its quality report (the first `quality`), the
/// artifacts `ShortcutSession::prepare` builds in the library. The client
/// is dropped on return, since an open connection pins a worker.
fn start_server(run: &Run, spec_body: &str, spans: &mut Spans) -> Result<Started, String> {
    let handle = spans
        .time("setup", "server.start", || {
            Server::start(ServerConfig {
                workers: run.nproc,
                io_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::new(handle.addr());
    let created = spans
        .time("setup", "setup.create", || {
            client.post_raw("/sessions", spec_body.as_bytes())
        })
        .map_err(|e| format!("create: {e}"))?;
    let sid = match created.field("id") {
        Some(Value::Str(id)) if created.is_ok() => id.clone(),
        _ => return Err(format!("create answered {}", created.status)),
    };
    let prepared = spans
        .time("setup", "setup.prepare", || {
            client.post_raw(&format!("/sessions/{sid}/prepare"), b"")
        })
        .map_err(|e| format!("prepare: {e}"))?;
    if !prepared.is_ok() {
        return Err(format!("prepare answered {}", prepared.status));
    }
    let quality = spans
        .time("setup", "setup.quality", || {
            client.post_raw(&format!("/sessions/{sid}/quality"), b"")
        })
        .map_err(|e| format!("quality: {e}"))?;
    if !matches!(quality.field("all_connected"), Some(Value::Bool(true))) {
        return Err(format!(
            "quality answered {}: a part is disconnected",
            quality.status
        ));
    }
    let num = |name: &str| match quality.field(name) {
        Some(Value::U64(x)) => *x as f64,
        _ => 0.0,
    };
    Ok(Started {
        congestion: num("max_congestion"),
        dilation: num("max_dilation_upper"),
        handle,
        sid,
    })
}

pub fn run(run: &Run, mix: Mix) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(run, mix, &mut out) {
        out.check(Err(e));
    }
    out
}

fn measure(run: &Run, mix: Mix, out: &mut Outcome) -> Result<(), String> {
    let mut trace = Trace::new();
    let (ctx, started, setups) = set_up(run, mix, &mut trace, out)?;
    out.setups = setups;
    let handle = started.handle;
    let entry = handle
        .state()
        .registry
        .get(&ctx.sid)
        .ok_or("the created session is not in the registry")?;

    if !run.trace {
        let epoch = trace.epoch;
        let mut logs = http_phase(&ctx, handle.addr(), run.seconds, MIN_REQUESTS, epoch, false);
        let elapsed = span_of(&logs);
        fold_logs(out, &mut logs);
        verify_direct(&ctx, &entry, out);
        drop(entry);
        handle.shutdown();
        e2e_metrics(out, &logs, elapsed, started.congestion, started.dilation);
        return Ok(());
    }
    traced(run, &ctx, handle, entry, trace, out)
}

/// Set-up, several times: start + create + prepare. The last server stays
/// up for the measured phase.
fn set_up(
    run: &Run,
    mix: Mix,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Result<(Ctx, Started, Vec<f64>), String> {
    // Churn sessions start weighted, so that `update_weights` applies.
    let graph = gen::grid(SIDE, SIDE);
    let weights = (mix == Mix::Churn).then(|| {
        let mut rng = Rng::new(run.seed, 3);
        (0..graph.num_edges())
            .map(|_| 1 + rng.below(MAX_WEIGHT))
            .collect::<Vec<u64>>()
    });
    let spec_body = json::render(&spec_value(weights.as_deref()));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Started> = None;
    trace.phase("setup", |spans| -> Result<(), String> {
        for _ in 0..SETUPS {
            if let Some(old) = server.take() {
                old.handle.shutdown();
            }
            let t0 = Instant::now();
            let started = start_server(run, &spec_body, spans);
            setups.push(t0.elapsed().as_secs_f64());
            out.check(started.as_ref().map(|_| ()).map_err(Clone::clone));
            server = Some(started?);
        }
        Ok(())
    })?;
    let started = server.expect("at least one set-up");

    // The pool's ops are fixed, since their costs differ (max is the
    // cheapest); only the values follow the seed.
    let mut rng = Rng::new(run.seed, 0);
    let pool = [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Sum]
        .into_iter()
        .map(|op| {
            let values: Vec<u64> = (0..SIDE * SIDE).map(|_| rng.below(VALUE_RANGE)).collect();
            let body = aggregate_body(&values, op);
            (Arc::new(values), op, body)
        })
        .collect();
    let ctx = Ctx {
        mix,
        seed: run.seed,
        graph,
        sid: started.sid.clone(),
        spec_body,
        pool,
        weights,
    };
    Ok((ctx, started, setups))
}

/// A traced run: the closed loop without and with spans on the same stream
/// (for the tracing overhead), then each layer on its own.
fn traced(
    run: &Run,
    ctx: &Ctx,
    handle: ServerHandle,
    entry: Arc<SessionEntry>,
    mut trace: Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    let (addr, epoch) = (handle.addr(), trace.epoch);
    // Four windows of the same stream, without, with, with and without
    // spans, so that drift and the state the mutations leave fall on both
    // sides alike.
    let quarter = run.seconds / 4.0;
    let mut windows: Vec<Vec<Log>> = Vec::new();
    for record in [false, true, true, false] {
        windows.push(if record {
            trace.phase("e2e", |_| http_phase(ctx, addr, quarter, 0, epoch, true))
        } else {
            http_phase(ctx, addr, quarter, 0, epoch, false)
        });
    }
    let (traced_ms, plain_ms) = (0..CLIENTS)
        .map(|c| {
            let lat = |w: usize| windows[w][c].seq.iter().map(|x| x.1).collect::<Vec<_>>();
            crate::paired_sums([&lat(0), &lat(1), &lat(2), &lat(3)])
        })
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    let overhead = traced_ms / plain_ms - 1.0;
    for logs in &mut windows {
        fold_logs(out, logs);
    }
    // The first traced window is the stream the layers replay.
    let issued: Vec<usize> = windows[1].iter().map(|l| l.seq.len()).collect();
    daemon_counters(ctx, addr, &entry, out)?;
    stream_shape(ctx, &issued, out);

    let budget = Duration::from_secs_f64(run.seconds / 4.0);
    let state = handle.state().clone();
    let mut handled = trace.phase("handle", |_| {
        replay_handle(ctx, &state, &issued, budget, epoch)
    });
    fold_logs(out, &mut handled);
    // Transport: a request's loopback latency minus its in-process
    // `api::handle` time, per request of the same stream.
    let mut transport: Vec<(Kind, f64)> = Vec::new();
    let mut responses = Vec::new();
    for (h, l) in handled.iter_mut().zip(&windows[1]) {
        transport.extend(h.seq.iter().zip(&l.seq).map(|(h, l)| (h.0, l.1 - h.1)));
        responses.append(&mut h.responses);
    }
    trace.phase("server", |spans| {
        server_layers(ctx, &state, &responses, spans, out)
    })?;
    let mut direct = trace.phase("session", |_| replay_session(ctx, &entry, budget, epoch));
    fold_logs(out, &mut direct);
    for log in windows.into_iter().flatten().chain(handled).chain(direct) {
        trace.merge(log.spans);
    }
    drop(entry);
    handle.shutdown();

    library(ctx, budget, &mut trace, out);
    let sim = SessionConfig::default().sim;
    probes::congest(&ctx.graph, sim, run.nproc, false, &mut trace, out);
    let source = GraphSource::Generator(GeneratorSpec::Grid {
        rows: SIDE,
        cols: SIDE,
    });
    probes::graph(
        &source,
        &ctx.graph,
        probes::lcsg_bytes(&ctx.graph),
        &mut trace,
        out,
    );

    for kind in Kind::REPORTED {
        let (transport_name, handle_name) = (
            format!("server.transport_ms.{}", kind.name()),
            format!("server.handle_ms.{}", kind.name()),
        );
        let diffs: Vec<f64> = transport
            .iter()
            .filter(|t| t.0 == kind)
            .map(|t| t.1)
            .collect();
        if diffs.is_empty() {
            out.absent(transport_name, "ms");
            out.absent(handle_name, "ms");
            continue;
        }
        let handled = trace.median_ms(&format!("server.handle.{}", kind.name()));
        out.metrics.set(transport_name, median(&diffs), "ms");
        out.metrics.set(handle_name, handled, "ms");
    }
    let waits = trace.family("server.lock_wait");
    let m = &mut out.metrics;
    m.set("server.lock_wait_ms.p50", quantile(&waits, 0.5), "ms");
    m.set("server.lock_wait_ms.p99", quantile(&waits, 0.99), "ms");
    m.set(
        "server.json_parse_ms",
        median(&trace.family("server.json_parse")),
        "ms",
    );
    m.set(
        "server.json_render_ms",
        median(&trace.family("server.json_render")),
        "ms",
    );
    m.set(
        "server.registry_ms",
        trace.median_ms("server.registry"),
        "ms",
    );
    out.samples.push(("lock_waits", waits.len()));
    let shares = [
        ("setup", Some(setup_share(&out.metrics, &out.setups))),
        (
            "e2e",
            Some(request_share(&trace, "http", |k| {
                trace.mean_ms(&format!("server.handle.{}", k.name()))
            })),
        ),
        (
            "handle",
            Some(request_share(&trace, "server.handle", |k| {
                handle_parts_ms(&trace, k)
            })),
        ),
    ];
    crate::finish_trace(&trace, shares, overhead, out);
    Ok(())
}

/// What the library explains of a set-up: graph load, build and prepare
/// (which also builds the quality report), each timed alone, over the
/// median set-up through the daemon.
fn setup_share(m: &crate::trace::Metrics, setups: &[f64]) -> f64 {
    let library_ms = m.get("graph.load_ms") + m.get("core.build_ms") + m.get("core.prepare_ms");
    library_ms / (median(setups) * 1e3)
}

/// Σ over kinds of count × `parts(kind)` ÷ Σ of count × the mean time of
/// the spans `<whole>.<kind>`, with kinds counted in the traced loop. Means,
/// not medians, because a mean of sums is the sum of the means.
fn request_share(trace: &Trace, whole: &str, parts: impl Fn(Kind) -> f64) -> f64 {
    let (mut explained, mut total) = (0.0, 0.0);
    for kind in Kind::ALL {
        let count = trace.durations(&format!("http.{}", kind.name())).len() as f64;
        let whole_ms = trace.mean_ms(&format!("{whole}.{}", kind.name()));
        if count > 0.0 && whole_ms > 0.0 {
            explained += count * parts(kind);
            total += count * whole_ms;
        }
    }
    explained / total
}

/// The layers inside `api::handle` for one kind, each timed alone: JSON
/// parse of the body, the session-lock wait and the session op (the
/// registry hit path for a re-POST), and JSON render of the answer.
fn handle_parts_ms(trace: &Trace, kind: Kind) -> f64 {
    let of = |layer: &str| trace.mean_ms(&format!("{layer}.{}", kind.name()));
    let op = if kind == Kind::Create {
        trace.mean_ms("server.registry")
    } else {
        of("server.lock_wait") + of("session")
    };
    of("server.json_parse") + op + of("server.json_render")
}

/// Counters the daemon exports on `/metrics`, and the served session's
/// artifact cache.
fn daemon_counters(
    ctx: &Ctx,
    addr: SocketAddr,
    entry: &SessionEntry,
    out: &mut Outcome,
) -> Result<(), String> {
    let metrics = Client::new(addr)
        .get("/metrics")
        .map_err(|e| format!("metrics: {e}"))?;
    let counter = |path: &[&str]| {
        let mut v = &metrics.body;
        for p in path {
            v = json::lookup(v, p).unwrap_or(&Value::Null);
        }
        match v {
            Value::U64(x) => *x as f64,
            _ => 0.0,
        }
    };
    // The registry counts hits on re-POSTs of a spec, which only
    // `serve_repeat` sends.
    if ctx.mix == Mix::Repeat {
        let hits = counter(&["registry", "hits"]);
        let misses = counter(&["registry", "misses"]);
        out.metrics
            .set("server.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    } else {
        out.absent("server.hit_ratio", "ratio");
    }
    let m = &mut out.metrics;
    m.set(
        "server.worker_panics",
        counter(&["server", "worker_panics"]),
        "count",
    );
    let ratio = crate::artifact_hit_ratio(entry.lock().cache_stats());
    m.set("core.artifact_hit_ratio", ratio, "ratio");
    Ok(())
}

/// How much of the traced stream repeats an earlier request exactly, and
/// how much of it mutates the session.
fn stream_shape(ctx: &Ctx, issued: &[usize], out: &mut Outcome) {
    let mut seen = HashSet::new();
    let (mut repeats, mut mutations, mut total) = (0usize, 0usize, 0usize);
    for (c, &n) in issued.iter().enumerate() {
        let mut stream = Stream::new(ctx, c, SALT);
        for _ in 0..n {
            let req = stream.next_req();
            let mut h = DefaultHasher::new();
            (req.method, &req.path, &req.body).hash(&mut h);
            repeats += usize::from(!seen.insert(h.finish()));
            mutations += usize::from(req.kind.mutates());
            total += 1;
        }
    }
    let m = &mut out.metrics;
    m.set(
        "server.repeat_share",
        repeats as f64 / total.max(1) as f64,
        "ratio",
    );
    m.set(
        "server.mutation_share",
        mutations as f64 / total.max(1) as f64,
        "ratio",
    );
    out.samples.push(("traced_requests", total));
}

/// The traced stream again, through `api::handle` in process on two
/// threads, for at most `budget`.
fn replay_handle(
    ctx: &Ctx,
    state: &AppState,
    issued: &[usize],
    budget: Duration,
    epoch: Instant,
) -> Vec<Log> {
    on_clients(epoch, |c, log| {
        let mut stream = Stream::new(ctx, c, SALT);
        let mut checker = Checker::new(ctx, c);
        let mut think = Think::new(ctx, c);
        let deadline = log.start + budget;
        for _ in 0..issued[c] {
            if Instant::now() >= deadline {
                break;
            }
            let req = stream.next_req();
            let name = format!("server.handle.{}", req.kind.name());
            let t0 = Instant::now();
            let (status, body) = log.spans.time("handle", &name, || {
                api::handle(state, req.method, &req.path, req.body.as_bytes())
            });
            log.seq.push((req.kind, t0.elapsed().as_secs_f64() * 1e3));
            let parsed = json::parse(body.as_bytes()).unwrap_or(Value::Null);
            log.count(checker.http(&req, status, &parsed));
            if log.responses.len() < JSON_SAMPLES / CLIENTS {
                log.responses.push((req.kind, body));
            }
            think.pause();
        }
    })
}

/// JSON parse on the stream's request bodies, JSON render on the replayed
/// responses, and the registry's warm-spec hit path.
fn server_layers(
    ctx: &Ctx,
    state: &AppState,
    responses: &[(Kind, String)],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut stream = Stream::new(ctx, 0, SALT);
    for _ in 0..JSON_SAMPLES {
        let req = stream.next_req();
        if !req.body.is_empty() {
            let name = format!("server.json_parse.{}", req.kind.name());
            let parsed = spans.time("server", &name, || json::parse(req.body.as_bytes()));
            out.check(parsed.map(|_| ()).map_err(|e| e.message));
        }
    }
    for (kind, body) in responses {
        let value = json::parse(body.as_bytes()).unwrap_or(Value::Null);
        let name = format!("server.json_render.{}", kind.name());
        let rendered = spans.time("server", &name, || json::render(&value));
        out.check(if rendered == *body {
            Ok(())
        } else {
            Err("render is not the inverse of parse".into())
        });
    }
    let spec = json::parse(ctx.spec_body.as_bytes()).map_err(|e| e.message)?;
    let spec = SessionSpec::from_value(&spec).map_err(|e| e.message)?;
    for _ in 0..REGISTRY_CALLS {
        let hit = spans.time("server", "server.registry", || {
            state.registry.get_or_create(&spec)
        });
        out.check(match hit {
            Ok((e, false)) if e.id == ctx.sid => Ok(()),
            Ok(_) => Err("the registry missed a warm spec".into()),
            Err(e) => Err(e.message),
        });
    }
    Ok(())
}

/// The stream's session ops called directly through the entry lock on two
/// threads: lock wait and op time apart.
fn replay_session(ctx: &Ctx, entry: &SessionEntry, budget: Duration, epoch: Instant) -> Vec<Log> {
    on_clients(epoch, |c, log| {
        let mut stream = Stream::new(ctx, c, SALT);
        let mut checker = Checker::new(ctx, c);
        let mut think = Think::new(ctx, c);
        let deadline = log.start + budget;
        while Instant::now() < deadline {
            let req = stream.next_req();
            if req.kind == Kind::Create {
                continue;
            }
            let t0 = Instant::now();
            let mut session = entry.lock();
            let t1 = Instant::now();
            let result = checker.direct(&mut session, &req, false);
            drop(session);
            let t2 = Instant::now();
            let kind = req.kind.name();
            log.spans
                .record("session", &format!("server.lock_wait.{kind}"), t0, t1);
            log.spans
                .record("session", &format!("session.{kind}"), t1, t2);
            log.count(result);
            think.pause();
        }
    })
}

/// Untraced runs still check that the served session's simulations
/// quiesce, which the HTTP responses do not show: a short prefix of a
/// fresh stream runs directly on the session.
fn verify_direct(ctx: &Ctx, entry: &SessionEntry, out: &mut Outcome) {
    const PREFIX: usize = 12;
    for c in 0..CLIENTS {
        let mut stream = Stream::new(ctx, c, 2);
        let mut checker = Checker::new(ctx, c);
        for _ in 0..PREFIX {
            let req = stream.next_req();
            if req.kind != Kind::Create {
                let result = checker.direct(&mut entry.lock(), &req, false);
                out.check(result.map(|_| ()));
            }
        }
    }
}

/// Single-threaded service times on a fresh library session: build,
/// prepare and quality, then the stream's ops.
fn library(ctx: &Ctx, budget: Duration, trace: &mut Trace, out: &mut Outcome) {
    let g = &ctx.graph;
    let mut costs: Vec<(Kind, f64, Cost)> = Vec::new();
    let stats = trace.phase("library", |spans| {
        let mut session = None;
        for _ in 0..LIB_REPS {
            let built = spans.time("library", "core.build", || {
                let builder = Session::on(g).partition(gen::rows_of_grid(SIDE, SIDE));
                match &ctx.weights {
                    Some(w) => builder.weights(EdgeWeights::from_vec(g, w.clone())).build(),
                    None => builder.build(),
                }
            });
            match built {
                Ok(mut s) => {
                    spans.time("library", "core.prepare", || s.prepare());
                    session = Some(s);
                    out.check(Ok(()));
                }
                Err(e) => out.check(Err(format!("session build: {e}"))),
            }
        }
        let mut s = session?;
        for _ in 0..LIB_REPS {
            let q = spans.time("library", "core.quality", || {
                measure_quality(g, s.partition(), s.tree_ref(), s.shortcut_ref())
            });
            out.check(if q.all_connected() {
                Ok(())
            } else {
                Err("measured quality: a part is disconnected".into())
            });
        }
        let stats = (s.construction_stats(), s.delta_hat());
        let mut stream = Stream::new(ctx, 0, SALT);
        let mut checker = Checker::new(ctx, 0);
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            let req = stream.next_req();
            if req.kind == Kind::Create {
                continue;
            }
            let t0 = Instant::now();
            let result = checker.direct(&mut s, &req, true);
            let t1 = Instant::now();
            let name = match req.kind {
                Kind::Aggregate => "partwise.aggregate",
                Kind::Unicast => "partwise.unicast",
                Kind::Mst => "algos.mst",
                Kind::Reassign => "core.reassign",
                Kind::Update => "core.update_weights",
                Kind::Quality => "core.quality_cached",
                _ => "core.cache_stats",
            };
            spans.record("library", name, t0, t1);
            match result {
                Ok(cost) => {
                    costs.push((req.kind, (t1 - t0).as_secs_f64() * 1e3, cost));
                    out.check(Ok(()));
                }
                Err(e) => out.check(Err(e)),
            }
        }
        Some(stats)
    });

    let m = &mut out.metrics;
    m.set("core.build_ms", trace.median_ms("core.build"), "ms");
    m.set("core.prepare_ms", trace.median_ms("core.prepare"), "ms");
    m.set("core.quality_ms", trace.median_ms("core.quality"), "ms");
    if let Some((construction, delta_hat)) = stats {
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
    }
    // Median over the library calls of one kind.
    let pick = |kind: Kind, f: fn(&(Kind, f64, Cost)) -> f64| {
        median(
            &costs
                .iter()
                .filter(|c| c.0 == kind)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let ran = |kind: Kind| costs.iter().filter(|c| c.0 == kind).count();
    let wall = |c: &(Kind, f64, Cost)| c.1;
    let rounds = |c: &(Kind, f64, Cost)| c.2.rounds.unwrap_or(0) as f64;
    let agg_ms = pick(Kind::Aggregate, wall);
    let agg_msgs = pick(Kind::Aggregate, |c| c.2.messages as f64);
    m.set("partwise.aggregate_ms", agg_ms, "ms");
    m.set(
        "partwise.aggregate_rounds",
        pick(Kind::Aggregate, rounds),
        "rounds",
    );
    m.set("partwise.aggregate_messages", agg_msgs, "messages");
    m.set(
        "partwise.ns_per_message",
        agg_ms * 1e6 / agg_msgs.max(1.0),
        "ns",
    );
    for (kind, ms_name, rounds_name) in [
        (
            Kind::Unicast,
            "partwise.unicast_ms",
            "partwise.unicast_rounds",
        ),
        (Kind::Mst, "algos.mst_ms", "algos.mst_rounds"),
    ] {
        if ran(kind) == 0 {
            out.absent(ms_name, "ms");
            out.absent(rounds_name, "rounds");
        } else {
            out.metrics.set(ms_name, pick(kind, wall), "ms");
            out.metrics.set(rounds_name, pick(kind, rounds), "rounds");
        }
    }
    if ran(Kind::Reassign) == 0 {
        out.absent("core.reassign_ms", "ms");
    } else {
        out.metrics
            .set("core.reassign_ms", trace.median_ms("core.reassign"), "ms");
    }
    out.samples
        .push(("library_aggregates", ran(Kind::Aggregate)));
}

/// The end-to-end metrics of an untraced run.
fn e2e_metrics(out: &mut Outcome, logs: &[Log], elapsed: f64, congestion: f64, dilation: f64) {
    let lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lat.iter().map(|x| x.1))
        .collect();
    let rounds: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.rounds.iter().map(|&r| r as f64))
        .collect();
    let m = &mut out.metrics;
    m.set("throughput_ops_s", lat.len() as f64 / elapsed, "ops/s");
    m.set("latency_p50_ms", quantile(&lat, 0.5), "ms");
    m.set("latency_p99_ms", quantile(&lat, 0.99), "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("sim_rounds_per_op", mean(&rounds), "rounds");
    m.set("shortcut_congestion", congestion, "edges");
    m.set("shortcut_dilation", dilation, "hops");
    out.samples.push(("latency", lat.len()));
    out.samples.push(("simulating_ops", rounds.len()));
}
