//! The lane executor: the engine's one round loop.
//!
//! Each *lane* pairs a [`Shard`] with the delivery partition of the dirs
//! its nodes receive, and runs four steps per round with no
//! synchronization beyond two barriers:
//!
//! 1. **Ingest** the mailboxes routed to it last round (sender-lane
//!    order), pushing each envelope into its own delivery partition.
//! 2. **Stage** the round's due deliveries straight into its shard's
//!    inbound buffer.
//! 3. **Compute** the node callbacks: `on_start` in round 0,
//!    [`Shard::run_round`] in every later round.
//! 4. **Flush**: validate each send against the bandwidth budget, account
//!    its bits, stamp it with the lane's next sequence number, and route
//!    it to the receiving lane's mailbox for the *next* round.
//!
//! Round 0 is an ordinary lane round with nothing to ingest or stage:
//! `on_start` sends travel through the same flush and mailboxes as every
//! later round's. The coordinator's serial window between rounds is
//! `O(lanes²)` pointer work and no per-message work: sum the per-lane
//! accounts for the quiescence check and rotate the mailbox buffers (the
//! receiver's drained vec swaps back to the sender, so the steady state
//! allocates nothing). The metric fold of one round overlaps the next
//! round's compute.
//!
//! # Determinism argument
//!
//! Ordering is per dir. Every message on a dir comes from the dir's one
//! sender node, hence from one lane, and a lane stamps its sends from a
//! counter that rises across the whole run (rounds in order, nodes
//! ascending within a round, issue order within a node). So within a dir
//! the sequence numbers follow send order, and that is all the delivery
//! backends compare: strict mode ignores `seq`, and the calendar queue
//! breaks `(priority, seq)` ties only among one dir's pending messages.
//! Sequence numbers of different lanes are never compared.
//!
//! A partition ingests its mailboxes in sender-lane order, each mailbox
//! in issue order. Lanes are contiguous node ranges, so that push order is
//! ascending sender node, then issue order, whatever the lane count; the
//! staged deliveries and every inbox inherit it. Metrics are folded from
//! the per-lane [`ShardAccount`]s in lane order. None of this depends on
//! which OS thread runs which lane, so rounds, messages, bits and
//! max_queue are bit-identical at any thread count — the pinned corpus in
//! `tests/sim_conformance.rs` checks exactly this.
//!
//! # Execution
//!
//! Lanes are the *determinism* unit; OS threads are the *execution* unit.
//! `exec = min(available_parallelism, lanes)` threads run the lanes
//! round-robin (thread `w` owns lanes `w, w + exec, …`); the calling
//! thread is worker 0. At `exec = 1` no worker is spawned and the loop
//! runs on the calling thread; what it pays over a bare loop is a
//! one-participant barrier (one atomic add) and uncontended lane locks.
//! With `exec > 1`, rounds are microseconds long, so the barrier is a
//! spin barrier (sense-reversing, two atomics) with a `yield_now`
//! fallback for oversubscribed hosts. Worker panics are caught, parked
//! until the barrier cycle completes (a raw unwind past a barrier would
//! deadlock everyone else), and re-raised on the caller once the workers
//! have been shut down.

use super::delivery::{Delivery, ShardAccount};
use super::shard::Shard;
use super::topology::Topology;
use super::{ms, NodeProgram, RunMetrics, SimConfig};
use crate::{MessageSize, PackedMsg, PhaseTimings};
use lcs_graph::Graph;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// A sense-reversing spin barrier for `total` participants.
///
/// Spins briefly, then yields — on a loaded or single-core host the
/// participants degrade to cooperative scheduling instead of burning the
/// quantum.
pub(crate) struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    pub fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset the count, then open the next generation.
            // Every other participant is past its own increment (it read
            // `gen` first), so the reset cannot race a stale arrival.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One routed envelope: a validated send awaiting ingestion by the
/// receiving lane.
struct Env<M> {
    dir: u32,
    priority: u64,
    /// The sending lane's sequence number for this send.
    seq: u64,
    msg: M,
}

/// A lane: one shard plus the delivery partition of the dirs it receives,
/// its mailboxes, and its per-round account. The unit of deterministic
/// work; several lanes may share one OS thread.
struct Lane<P: NodeProgram, D> {
    shard: Shard<P>,
    part: D,
    /// `in_from[t]`: the envelopes sender lane `t` routed to this lane last
    /// round. Ingested in `t` order.
    in_from: Vec<Vec<Env<PackedMsg<P::Msg>>>>,
    /// `out_to[s]`: envelopes this lane's nodes sent to receiver lane `s`
    /// this round, in issue order.
    out_to: Vec<Vec<Env<PackedMsg<P::Msg>>>>,
    /// The sequence number of this lane's latest send. It rises across
    /// the whole run and is never reset between rounds.
    seq: u64,
    account: ShardAccount,
}

/// One lane's full round: ingest → stage → compute → flush (round 0:
/// `on_start`, then flush). Runs with no access to any other lane's
/// state; panics (bandwidth or strict-mode assertions) unwind to the
/// calling worker's catch.
fn lane_phase<P, D>(
    lane: &mut Lane<P, D>,
    g: &Graph,
    topo: &Topology<'_>,
    round: u64,
    bandwidth: usize,
) where
    P: NodeProgram,
    D: Delivery<PackedMsg<P::Msg>>,
{
    let Lane {
        shard,
        part,
        in_from,
        out_to,
        seq,
        account: acc,
    } = lane;
    *acc = ShardAccount::default();

    if round == 0 {
        shard.run_start(g);
    } else {
        // Ingest: last round's sends routed to this partition, sender-lane
        // major. The senders executed in `round - 1`, which is the round
        // the delivery backends schedule from.
        for mail in in_from.iter_mut() {
            for env in mail.drain(..) {
                part.push(env.dir, env.priority, env.seq, env.msg, round - 1, topo);
            }
        }
        // Stage this round's due deliveries straight into the shard's
        // inbound buffer, then compute.
        debug_assert!(shard.inbound.is_empty());
        part.stage(round, topo, &mut shard.inbound, acc);
        shard.run_round(g, topo, round);
    }

    // Flush: validate + bit-account this lane's own sends and route each
    // envelope to the lane that receives it. Sizing is `n`-aware
    // ([`MessageSize::size_bits_in`]): id payloads are billed at
    // `O(log n)` bits, and a packed envelope bills its true multi-value
    // width and must fit the budget like any other message.
    let n = topo.num_nodes();
    acc.sends = shard.outbox.len() as u64;
    for (dir, priority, msg) in shard.outbox.drain(..) {
        let bits = msg.size_bits_in(n);
        assert!(
            bits <= bandwidth,
            "message of {bits} bits exceeds the {bandwidth}-bit CONGEST bandwidth"
        );
        acc.bits += bits as u64;
        *seq += 1;
        out_to[topo.dir_shard(dir)].push(Env {
            dir,
            priority,
            seq: *seq,
            msg,
        });
    }
    acc.wakes = shard.pending_wakes();
    acc.pending = part.pending();
}

/// The coordinator's mailbox rotation: swaps every `out_to[s]` with the
/// matching `in_from[t]` buffer, so the receiver gets the envelopes and
/// the sender gets a drained vec back. `O(lanes²)` pointer swaps, no
/// envelope is copied.
fn rotate_mailboxes<P, D>(lanes: &mut [MutexGuard<'_, Lane<P, D>>])
where
    P: NodeProgram,
{
    let count = lanes.len();
    for t in 0..count {
        for s in 0..count {
            if s == t {
                let Lane {
                    in_from, out_to, ..
                } = &mut *lanes[t];
                std::mem::swap(&mut out_to[t], &mut in_from[t]);
            } else {
                let (a, b) = lanes.split_at_mut(s.max(t));
                let (sender, receiver) = if t < s {
                    (&mut *a[t], &mut *b[0])
                } else {
                    (&mut *b[0], &mut *a[s])
                };
                std::mem::swap(&mut sender.out_to[s], &mut receiver.in_from[t]);
            }
        }
    }
}

/// Folds the per-lane accounts of one round into the run metrics, in
/// lane order.
fn fold_accounts(accounts: &[ShardAccount], metrics: &mut RunMetrics) {
    for acc in accounts {
        metrics.bits += acc.bits;
        metrics.messages += acc.messages;
        metrics.max_queue = metrics.max_queue.max(acc.max_queue);
    }
}

/// Runs a whole simulation, round 0 included, over one lane per shard
/// (`parts[s]` is shard `s`'s delivery partition) on `exec` OS threads:
/// the caller plus `exec - 1` scoped workers, each running the lanes
/// `w, w + exec, …` between two spin barriers per round. The fold of
/// round `r - 1`'s accounts happens after the release barrier, overlapped
/// with the workers' round-`r` compute.
///
/// `metrics` arrives carrying the execution configuration; its
/// `bandwidth_bits` is the budget every send is validated against.
/// Returns the final shards (for program extraction), the metrics, and
/// the phase timings.
pub(crate) fn drive<P, D>(
    config: &SimConfig,
    g: &Graph,
    topo: &Topology<'_>,
    parts: Vec<D>,
    shards: Vec<Shard<P>>,
    mut metrics: RunMetrics,
    exec: usize,
) -> (Vec<Shard<P>>, RunMetrics, PhaseTimings)
where
    P: NodeProgram + Send,
    P::Msg: Send,
    D: Delivery<PackedMsg<P::Msg>> + Send,
{
    let count = shards.len();
    debug_assert_eq!(parts.len(), count);
    debug_assert!((1..=count.max(1)).contains(&exec));
    let bandwidth = metrics.bandwidth_bits;
    let cells: Vec<Mutex<Lane<P, D>>> = shards
        .into_iter()
        .zip(parts)
        .map(|(shard, part)| {
            Mutex::new(Lane {
                shard,
                part,
                in_from: (0..count).map(|_| Vec::new()).collect(),
                out_to: (0..count).map(|_| Vec::new()).collect(),
                seq: 0,
                account: ShardAccount::default(),
            })
        })
        .collect();
    let barrier = SpinBarrier::new(exec);
    let stop = AtomicBool::new(false);
    let round_now = AtomicU64::new(0);
    let worker_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut timings = PhaseTimings::default();

    std::thread::scope(|scope| {
        for w in 1..exec {
            let cells = &cells;
            let (barrier, stop, round_now) = (&barrier, &stop, &round_now);
            let worker_panic = &worker_panic;
            scope.spawn(move || loop {
                barrier.wait(); // released by the coordinator once rotated
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let round = round_now.load(Ordering::Acquire);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    for cell in cells.iter().skip(w).step_by(exec) {
                        lane_phase(&mut lock(cell), g, topo, round, bandwidth);
                    }
                }));
                if let Err(payload) = result {
                    lock(worker_panic).get_or_insert(payload);
                }
                barrier.wait(); // round work done
            });
        }

        // The coordinator loop must not unwind between barriers (the
        // workers would deadlock); its own lane phases are caught like a
        // worker's, and the serial window is guarded by this outer catch.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The accounts of the last finished round, folded into the
            // metrics while the lanes compute the next one.
            let mut fold: Vec<ShardAccount> = Vec::with_capacity(count);
            loop {
                let round = metrics.rounds;
                round_now.store(round, Ordering::Release);
                let t0 = Instant::now();
                barrier.wait(); // release the workers into the round
                fold_accounts(&fold, &mut metrics);
                let t1 = Instant::now();
                // The coordinator is worker 0: run its own lanes.
                let own = catch_unwind(AssertUnwindSafe(|| {
                    for cell in cells.iter().step_by(exec) {
                        lane_phase(&mut lock(cell), g, topo, round, bandwidth);
                    }
                }));
                if let Err(payload) = own {
                    lock(&worker_panic).get_or_insert(payload);
                }
                barrier.wait(); // wait for every lane to finish
                let t2 = Instant::now();
                timings.merge_ms += ms(t1 - t0);
                timings.compute_ms += ms(t2 - t1);
                if lock(&worker_panic).is_some() {
                    break; // re-raised below, after the workers are stopped
                }

                // Serial window: the workers are parked at the release
                // barrier, so every lock is uncontended.
                let mut guards: Vec<_> = cells.iter().map(lock).collect();
                fold.clear();
                fold.extend(guards.iter().map(|l| l.account));
                let inflight: usize = fold.iter().map(|a| a.pending + a.sends as usize).sum();
                let wakes: usize = fold.iter().map(|a| a.wakes).sum();
                let quiescent = inflight == 0 && wakes == 0;
                if quiescent || metrics.rounds >= config.max_rounds {
                    metrics.terminated = quiescent && guards.iter().all(|l| l.shard.all_done());
                    metrics.truncated = !quiescent;
                    fold_accounts(&fold, &mut metrics);
                    break;
                }
                rotate_mailboxes(&mut guards);
                metrics.rounds += 1;
                timings.stage_ms += ms(t2.elapsed());
            }
        }));

        // Shut the workers down (they are parked at the release barrier).
        stop.store(true, Ordering::Release);
        barrier.wait();
        if let Err(payload) = outcome {
            lock(&worker_panic).get_or_insert(payload);
        }
    });

    if let Some(payload) = lock(&worker_panic).take() {
        resume_unwind(payload);
    }

    let shards = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(|e| e.into_inner()).shard)
        .collect();
    (shards, metrics, timings)
}

/// Locks ignoring poison: a poisoned lane only occurs on a worker panic,
/// which the coordinator re-raises anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{panic_message, Bomb, MaxFlood};
    use super::super::{Ctx, Incoming, SimMode, Simulator};
    use super::*;
    use lcs_graph::{gen, NodeId};

    /// MaxFlood over `lanes` lanes on `exec` forced OS threads.
    fn run_max_flood(g: &Graph, lanes: usize, exec: usize) -> (Vec<MaxFlood>, RunMetrics) {
        let sim = Simulator::new(
            g,
            SimConfig {
                threads: lanes,
                ..SimConfig::default()
            },
        );
        let run = sim.run_exec(|v, _| MaxFlood { best: v.0 }, Some(exec));
        (run.programs, run.metrics)
    }

    #[test]
    fn forced_thread_counts_match_the_inline_path() {
        let g = gen::grid(7, 9);
        let (base_progs, base) = run_max_flood(&g, 4, 1);
        assert!(base.terminated);
        assert!(base_progs.iter().all(|p| p.best == 62));
        for exec in [2, 3, 4] {
            let (progs, metrics) = run_max_flood(&g, 4, exec);
            assert_eq!(metrics.counts(), base.counts(), "exec={exec}");
            assert!(progs.iter().all(|p| p.best == 62), "exec={exec}");
        }
        // Lanes ≠ exec ≠ divisor cases: uneven round-robin assignment.
        let (_, m7) = run_max_flood(&g, 7, 3);
        let (_, m7b) = run_max_flood(&g, 7, 1);
        assert_eq!(m7.counts(), m7b.counts());
    }

    #[test]
    fn threaded_worker_panics_propagate() {
        let g = gen::path(8);
        let sim = Simulator::new(
            &g,
            SimConfig {
                threads: 4,
                ..SimConfig::default()
            },
        );
        let msg = panic_message(|| sim.run_exec(|_, _| Bomb, Some(2)));
        assert!(msg.contains("protocol bug on node 5"), "got: {msg}");
    }

    /// On a 6-cycle, node 5 streams priority-5 values to node 0 (first
    /// and last lane at any lane count > 1): five from `on_start`, two
    /// more in round 1, then one priority-1 value in round 2. Node 0
    /// records arrivals.
    enum Fifo {
        Sender,
        Receiver(Vec<u32>),
        Idle,
    }

    impl NodeProgram for Fifo {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let Fifo::Sender = self {
                let port = ctx.port_to(NodeId(0)).expect("cycle edge");
                for v in 0..5 {
                    ctx.send_with_priority(port, v, 5);
                }
                ctx.wake_next_round();
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            match self {
                Fifo::Sender => {
                    let port = ctx.port_to(NodeId(0)).expect("cycle edge");
                    if ctx.round() == 1 {
                        ctx.send_with_priority(port, 5, 5);
                        ctx.send_with_priority(port, 6, 5);
                        ctx.wake_next_round();
                    } else if ctx.round() == 2 {
                        ctx.send_with_priority(port, 100, 1);
                    }
                }
                Fifo::Receiver(got) => got.extend(inbox.iter().map(|m| m.msg)),
                Fifo::Idle => {}
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Queued-mode per-dir FIFO across rounds and lanes: one dir's
    /// equal-priority backlog spans `on_start` and later rounds, so its
    /// order rests on the sending lane's counter running across rounds;
    /// the priority-1 send preempts what is still queued. The arrival
    /// order and the metrics are the same at every lane and worker count.
    #[test]
    fn queued_fifo_holds_across_rounds_and_lanes() {
        let g = gen::cycle(6);
        let run = |lanes: usize, exec: usize| {
            let sim = Simulator::new(
                &g,
                SimConfig {
                    mode: SimMode::Queued,
                    threads: lanes,
                    ..SimConfig::default()
                },
            );
            let run = sim.run_exec(
                |v, _| match v.0 {
                    5 => Fifo::Sender,
                    0 => Fifo::Receiver(Vec::new()),
                    _ => Fifo::Idle,
                },
                Some(exec),
            );
            let Fifo::Receiver(got) = &run.programs[0] else {
                panic!("node 0 records");
            };
            (got.clone(), run.metrics)
        };
        let (base, base_metrics) = run(1, 1);
        assert_eq!(base, vec![0, 1, 100, 2, 3, 4, 5, 6]);
        assert_eq!(base_metrics.rounds, 8);
        assert_eq!(base_metrics.max_queue, 6);
        for (lanes, exec) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
            let (got, metrics) = run(lanes, exec);
            assert_eq!(got, base, "lanes={lanes} exec={exec}");
            assert_eq!(
                metrics.counts(),
                base_metrics.counts(),
                "lanes={lanes} exec={exec}"
            );
        }
    }
}
