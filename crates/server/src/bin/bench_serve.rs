//! Serving benchmark: a mixed query/mutation workload over real loopback
//! sockets. Emits `BENCH_serve.json`.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--fast] [--out DIR]
//! ```
//!
//! The scenario the daemon exists for: one warm `ShortcutSession` behind
//! the LRU absorbs a stream of concurrent clients — aggregates, quality
//! queries, periodic partition churn (`reassign_parts`), and periodic
//! re-creation POSTs that must hit the warm session instead of
//! rebuilding. Each client thread drives its own keep-alive connection
//! and records per-request latencies; the headline numbers are sustained
//! QPS and the p50/p99 latency over the steady-state phase.
//!
//! After the steady state, a **malformed-request barrage** throws broken
//! JSON, unknown sessions, bad op arguments, invalid mutations, and
//! oversized bodies at the daemon. The binary **asserts**:
//!
//! - every barrage response is a structured 4xx (never a 5xx, never a
//!   dropped worker),
//! - `worker_panics` stays 0 and `/health` still answers 200 afterwards —
//!   no worker died,
//! - the warm-session hit rate over the steady state exceeds 0.9.
//!
//! `--fast` is the CI smoke configuration (24×24 grid, 4 clients). The
//! full run serves a 48×48 grid (n = 2 304) to 8 clients.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p lcs_server --bin bench_serve -- --out .
//! ```

use lcs_server::client::Client;
use lcs_server::{json, Server, ServerConfig};
use serde::Value;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Steady-state acceptance bar: re-POSTing a live spec must be answered by
/// the warm session, not a rebuild.
const MIN_HIT_RATE: f64 = 0.9;

fn grid_spec(side: usize) -> Value {
    Value::object([(
        "graph",
        Value::object([
            ("kind", Value::Str("grid".to_string())),
            ("rows", Value::U64(side as u64)),
            ("cols", Value::U64(side as u64)),
        ]),
    )])
}

fn u64_field(v: &Value, name: &str) -> u64 {
    match json::lookup(v, name) {
        Some(Value::U64(x)) => *x,
        other => panic!("metrics field `{name}` missing or mistyped: {other:?}"),
    }
}

/// One client thread: `iters` requests in a query/churn/re-create mix on a
/// private keep-alive connection. Thread `t` owns mover row `1 + 2t` of
/// the grid, so concurrent churn touches disjoint part pairs and every
/// move keeps both parts connected (rows are paths, `(r,0)-(r-1,0)` is a
/// grid edge).
fn client_loop(
    addr: SocketAddr,
    session: String,
    spec_body: String,
    values_body: String,
    side: usize,
    thread: usize,
    iters: usize,
) -> Vec<u64> {
    // Generous timeout: all clients serialize on the one warm session, so
    // a request's queue wait can be many multiples of its service time.
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(120));
    let mut latencies = Vec::with_capacity(iters);
    let row = 1 + 2 * thread;
    let node = (row * side) as u64;
    for i in 0..iters {
        let t0 = Instant::now();
        let response = if i % 16 == 8 {
            let target = if i % 32 == 8 { row - 1 } else { row } as u64;
            let moves = Value::object([(
                "moves",
                Value::Arr(vec![Value::Arr(vec![Value::U64(node), Value::U64(target)])]),
            )]);
            client.post(&format!("/sessions/{session}/reassign_parts"), &moves)
        } else if i % 10 == 0 {
            client.post_raw("/sessions", spec_body.as_bytes())
        } else if i % 3 == 0 {
            client.post_raw(&format!("/sessions/{session}/quality"), b"")
        } else {
            client.post_raw(
                &format!("/sessions/{session}/aggregate"),
                values_body.as_bytes(),
            )
        };
        let response = response.expect("steady-state request");
        assert!(
            response.is_ok(),
            "steady-state request {i} on thread {thread} failed: {} {}",
            response.status,
            json::render(&response.body)
        );
        latencies.push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }
    latencies
}

/// Fires structured-failure requests and asserts every answer is a 4xx.
/// Returns the number of requests sent.
fn malformed_barrage(addr: SocketAddr, session: &str, rounds: usize) -> usize {
    let mut client = Client::new(addr);
    let oversized = vec![b'x'; 300 * 1024];
    let mut sent = 0;
    for _ in 0..rounds {
        let cases: Vec<(String, Vec<u8>, u16)> = vec![
            ("/sessions".to_string(), b"{broken json".to_vec(), 400),
            (
                "/sessions/s999/aggregate".to_string(),
                b"{\"values\": []}".to_vec(),
                404,
            ),
            (
                format!("/sessions/{session}/aggregate"),
                b"{\"values\": \"not an array\"}".to_vec(),
                422,
            ),
            (
                format!("/sessions/{session}/reassign_parts"),
                b"{\"moves\": [[0, 4000000]]}".to_vec(),
                409,
            ),
            (
                format!("/sessions/{session}/update_weights"),
                b"{\"changes\": [[9999999, 1]]}".to_vec(),
                422,
            ),
            (
                format!("/sessions/{session}/aggregate"),
                oversized.clone(),
                413,
            ),
            ("/nope".to_string(), Vec::new(), 404),
        ];
        for (path, body, expected) in cases {
            let response = client
                .post_raw(&path, &body)
                .expect("barrage request reaches the server");
            assert_eq!(
                response.status,
                expected,
                "barrage {path} answered {} ({})",
                response.status,
                json::render(&response.body)
            );
            sent += 1;
        }
    }
    sent
}

struct Measurement {
    qps: f64,
    p50_micros: u64,
    p99_micros: u64,
    requests: usize,
    hit_rate: f64,
    barrage_requests: usize,
}

fn measure(side: usize, threads: usize, iters: usize) -> Measurement {
    let handle = Server::start(ServerConfig {
        workers: threads.max(2),
        max_body: 256 * 1024,
        io_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let addr = handle.addr();

    // Setup: create the warm session over HTTP and prepare its shortcut.
    let mut setup = Client::new(addr);
    let spec = grid_spec(side);
    let created = setup.post("/sessions", &spec).expect("create session");
    assert!(created.is_ok(), "create failed: {}", created.status);
    let session = match created.field("id") {
        Some(Value::Str(id)) => id.clone(),
        other => panic!("create response has no id: {other:?}"),
    };
    let prepared = setup
        .post_raw(&format!("/sessions/{session}/prepare"), b"")
        .expect("prepare");
    assert!(prepared.is_ok(), "prepare failed: {}", prepared.status);

    let n = side * side;
    let values = Value::object([
        (
            "values",
            Value::Arr((0..n as u64).map(Value::U64).collect()),
        ),
        ("op", Value::Str("sum".to_string())),
    ]);
    let values_body = json::render(&values);
    let spec_body = json::render(&spec);

    // Steady state: concurrent clients on their own keep-alive sockets.
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let session = session.clone();
            let spec_body = spec_body.clone();
            let values_body = values_body.clone();
            std::thread::spawn(move || {
                client_loop(addr, session, spec_body, values_body, side, t, iters)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(threads * iters);
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    let pct = |q: f64| latencies[(((requests - 1) as f64) * q).round() as usize];

    // Hit rate: every steady-state re-POST of the live spec must have been
    // answered warm (the one miss is the setup create).
    let metrics = setup.get("/metrics").expect("metrics");
    let registry = json::lookup(&metrics.body, "registry").expect("registry stats");
    let hits = u64_field(registry, "hits");
    let misses = u64_field(registry, "misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // Malformed barrage, then prove no worker died: the panic counter is
    // still zero and the daemon still answers.
    let barrage_requests = malformed_barrage(addr, &session, 8);
    let metrics = setup.get("/metrics").expect("metrics after barrage");
    let server_stats = json::lookup(&metrics.body, "server").expect("server stats");
    let panics = u64_field(server_stats, "worker_panics");
    assert_eq!(panics, 0, "the barrage must not panic any handler");
    let health = setup.get("/health").expect("health after barrage");
    assert_eq!(
        health.status, 200,
        "the daemon must keep serving after the barrage"
    );

    handle.shutdown();
    Measurement {
        qps: requests as f64 / elapsed.max(1e-9),
        p50_micros: pct(0.50),
        p99_micros: pct(0.99),
        requests,
        hit_rate,
        barrage_requests,
    }
}

fn render(side: usize, threads: usize, m: &Measurement) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench_serve/v1\",");
    out.push_str(
        "  \"note\": \"mixed aggregate/quality/churn/re-create workload over real loopback \
         sockets with keep-alive clients; hit_rate > 0.9 and worker_panics == 0 across the \
         malformed barrage are asserted in-binary; regenerate with `cargo run --release -p \
         lcs_server --bin bench_serve -- --out .`\",\n",
    );
    out.push_str("  \"entries\": [\n");
    let _ = writeln!(
        out,
        "    {{\"family\": \"grid_rows\", \"n\": {}, \"threads\": {}, \"requests\": {}, \
         \"qps\": {:.0}, \"p50_micros\": {}, \"p99_micros\": {}, \"hit_rate\": {:.4}, \
         \"malformed_requests\": {}, \"worker_panics\": 0}}",
        side * side,
        threads,
        m.requests,
        m.qps,
        m.p50_micros,
        m.p99_micros,
        m.hit_rate,
        m.barrage_requests
    );
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".to_string());

    let (side, threads, iters) = if fast { (24, 4, 120) } else { (48, 8, 250) };

    let mut m = measure(side, threads, iters);
    if m.hit_rate <= MIN_HIT_RATE {
        // One re-measure before failing: a single noisy window must not
        // turn the bench red.
        m = measure(side, threads, iters);
    }
    assert!(
        m.hit_rate > MIN_HIT_RATE,
        "steady-state warm-session hit rate {:.4} is below the {MIN_HIT_RATE} bar",
        m.hit_rate
    );

    let json = render(side, threads, &m);
    std::fs::write(format!("{out_dir}/BENCH_serve.json"), &json).expect("write BENCH_serve.json");
    print!("{json}");
}
