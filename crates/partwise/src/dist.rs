//! Distributed part-wise aggregation over shortcut subgraphs.

use crate::centralized::identity;
use lcs_congest::protocols::AggOp;
use lcs_congest::{
    id_bits, Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use lcs_core::session::{
    deps, AggregateOpts, OpReport, PartwiseOp, SessionConfig, ShortcutSession,
};
use lcs_core::{Partition, Shortcut};
use lcs_graph::{Graph, NodeId, PartId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of [`AggregateOp`].
#[derive(Clone, Debug)]
pub struct PartwiseOutcome {
    /// Aggregate per part as known by its leader (`None` if the leader never
    /// finished, e.g. because `G[P_i] + H_i` is disconnected).
    pub results: Vec<Option<u64>>,
    /// Whether every member of every part learned its part's result.
    pub all_members_informed: bool,
    /// Simulation metrics (rounds are the headline number: expect
    /// `Õ(congestion + dilation)`).
    pub metrics: RunMetrics,
}

/// Per node, per part, the participating ports — the subgraph
/// `G[P_i] + H_i` every part-wise protocol runs over. An edge participates
/// in part `i` iff it is in `H_i` or both endpoints lie in `P_i`
/// (Definition 2.1); this rule is shared by the leader-based solver and
/// the gossip solver, so it lives in exactly one place.
///
/// Building the map is O(n + m) — per-query cost a serving deployment
/// should not pay twice. The session-driven ops share one instance in the
/// session's derived-artifact store
/// ([`ShortcutSession::op_artifact_patched`]), keyed by this type: every
/// later aggregate/gossip call reuses it while the partition and shortcut
/// are unchanged, a tracked `reassign_parts` churn refreshes only the
/// touched parts' entries via [`ParticipationMap::refreshed`], and a
/// wholesale partition change rebuilds it. The direct entries
/// ([`AggregateOp::run_on`], [`GossipOp::run_on`](crate::GossipOp::run_on))
/// build a fresh one per call.
#[derive(Clone, Debug)]
pub struct ParticipationMap {
    per_node: Vec<HashMap<u32, Vec<usize>>>,
}

impl ParticipationMap {
    /// Derives the map from a graph, partition, and shortcut.
    ///
    /// # Panics
    ///
    /// Panics if the shortcut's shape differs from the partition's.
    pub fn build(g: &Graph, partition: &Partition, shortcut: &Shortcut) -> Self {
        assert_eq!(
            shortcut.num_parts(),
            partition.num_parts(),
            "shortcut and partition shapes differ"
        );
        let mut participation: Vec<HashMap<u32, Vec<usize>>> = vec![HashMap::new(); g.num_nodes()];
        let mut register = |part: u32, u: NodeId, v: NodeId| {
            let pu = g.port_to(u, v).expect("edge endpoints adjacent");
            participation[u.index()].entry(part).or_default().push(pu);
        };
        for (pid, _) in partition.iter() {
            for &e in shortcut.edges_for(pid) {
                let (u, v) = g.endpoints(e);
                register(pid.0, u, v);
                register(pid.0, v, u);
            }
        }
        for er in g.edges() {
            if let (Some(a), Some(b)) = (partition.part_of(er.u), partition.part_of(er.v)) {
                if a == b && !shortcut.contains(a, er.id) {
                    register(a.0, er.u, er.v);
                    register(a.0, er.v, er.u);
                }
            }
        }
        for lists in &mut participation {
            for ports in lists.values_mut() {
                ports.sort_unstable();
                ports.dedup();
            }
        }
        ParticipationMap {
            per_node: participation,
        }
    }

    /// The session's cached map, one artifact slot shared by aggregation
    /// and gossip ([`ShortcutSession::op_artifact_patched`] over
    /// [`deps::SHORTCUT`]): built on first use, then served, or refreshed
    /// for the touched parts only under tracked `reassign_parts` churn.
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition.
    pub(crate) fn cached(session: &mut ShortcutSession<'_>) -> Arc<Self> {
        session.op_artifact_patched(
            deps::SHORTCUT,
            |s| ParticipationMap::build(s.graph(), s.partition(), s.shortcut_ref()),
            |s, old: &ParticipationMap, touched| {
                old.refreshed(s.graph(), s.partition(), s.shortcut_ref(), touched)
            },
        )
    }

    /// An incrementally refreshed copy: the entries of the `touched` parts
    /// are dropped everywhere and re-registered from the (new) partition
    /// and shortcut; every other part's entries are carried over untouched.
    /// Equals [`ParticipationMap::build`] on the same inputs, at
    /// O(n·|touched| + Σ_{i ∈ touched} (|P_i| · deg + |H_i|)) instead of
    /// O(n + m).
    ///
    /// # Panics
    ///
    /// Panics if the shortcut's shape differs from the partition's.
    pub fn refreshed(
        &self,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        touched: &[PartId],
    ) -> Self {
        assert_eq!(
            shortcut.num_parts(),
            partition.num_parts(),
            "shortcut and partition shapes differ"
        );
        let mut participation = self.per_node.clone();
        for lists in &mut participation {
            for &p in touched {
                lists.remove(&p.0);
            }
        }
        for &pid in touched {
            for &e in shortcut.edges_for(pid) {
                let (u, v) = g.endpoints(e);
                for (a, b) in [(u, v), (v, u)] {
                    let pa = g.port_to(a, b).expect("edge endpoints adjacent");
                    participation[a.index()].entry(pid.0).or_default().push(pa);
                }
            }
            for &u in partition.part(pid) {
                for (port, nb) in g.neighbors(u).enumerate() {
                    if partition.part_of(nb.node) == Some(pid) && !shortcut.contains(pid, nb.edge) {
                        participation[u.index()]
                            .entry(pid.0)
                            .or_default()
                            .push(port);
                    }
                }
            }
        }
        for lists in &mut participation {
            for &p in touched {
                if let Some(ports) = lists.get_mut(&p.0) {
                    ports.sort_unstable();
                    ports.dedup();
                }
            }
        }
        ParticipationMap {
            per_node: participation,
        }
    }

    /// The `part id -> participating ports` lists of one node.
    pub(crate) fn at(&self, v: NodeId) -> &HashMap<u32, Vec<usize>> {
        &self.per_node[v.index()]
    }
}

#[derive(Clone, Copy, Debug)]
enum PaMsg {
    /// BFS-offer wave for a part.
    Offer(u32),
    /// "You are my parent for this part."
    Adopt(u32),
    /// "I already have a parent for this part."
    Decline(u32),
    /// Convergecast: aggregate of the sender's subtree.
    Up(u32, u64),
    /// Result broadcast.
    Down(u32, u64),
}

impl MessageSize for PaMsg {
    fn size_bits(&self) -> usize {
        match self {
            PaMsg::Offer(_) | PaMsg::Adopt(_) | PaMsg::Decline(_) => 3 + 32,
            PaMsg::Up(..) | PaMsg::Down(..) => 3 + 32 + 64,
        }
    }

    /// Part ids are id payloads (`O(log n)` bits); aggregate values keep
    /// their full 64-bit width.
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            PaMsg::Offer(_) | PaMsg::Adopt(_) | PaMsg::Decline(_) => 3 + id_bits(n),
            PaMsg::Up(..) | PaMsg::Down(..) => 3 + id_bits(n) + 64,
        }
    }
}

/// Per-(node, part) protocol state.
#[derive(Clone, Debug)]
struct PartState {
    ports: Vec<usize>,
    parent: Option<usize>,
    started: bool,
    awaiting_replies: usize,
    children: Vec<usize>,
    pending_up: usize,
    acc: u64,
    is_leader: bool,
    up_sent: bool,
    result: Option<u64>,
}

struct PaProgram {
    op: AggOp,
    /// part id -> state.
    states: HashMap<u32, PartState>,
    /// (part, remaining delay) for leader starts.
    delays: Vec<(u32, u32)>,
    /// Per-part scheduling priority (the part's random delay, reused as a
    /// queue priority so late-starting parts also yield edge access).
    priority: HashMap<u32, u64>,
    /// Sends buffered during one callback, flushed grouped by
    /// `(port, priority)` at the callback's end so same-edge traffic of
    /// different parts is issued consecutively — the shape
    /// [`SimConfig::message_packing`] coalesces into multi-value messages.
    pending: Vec<(usize, u64, PaMsg)>,
}

impl PaProgram {
    fn queue(&mut self, port: usize, msg: PaMsg, prio: u64) {
        self.pending.push((port, prio, msg));
    }

    /// Flushes the callback's buffered sends, stable-sorted by
    /// `(port, priority)`: per-edge order of equal-priority messages is
    /// preserved (FIFO semantics unchanged), while runs on one shared edge
    /// become adjacent and thus packable.
    fn flush_pending(&mut self, ctx: &mut Ctx<'_, PaMsg>) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|&(port, prio, _)| (port, prio));
        for (port, prio, msg) in pending.drain(..) {
            ctx.send_with_priority(port, msg, prio);
        }
        self.pending = pending;
    }

    fn start_part(&mut self, part: u32) {
        let prio = self.priority[&part];
        let st = self.states.get_mut(&part).expect("leader state exists");
        st.started = true;
        st.awaiting_replies = st.ports.len();
        let ports = st.ports.clone();
        for p in ports {
            self.queue(p, PaMsg::Offer(part), prio);
        }
        self.maybe_up(part);
    }

    fn maybe_up(&mut self, part: u32) {
        let prio = self.priority[&part];
        let st = self.states.get_mut(&part).expect("state exists");
        if st.up_sent || !st.started || st.awaiting_replies > 0 || st.pending_up > 0 {
            return;
        }
        st.up_sent = true;
        if st.is_leader {
            st.result = Some(st.acc);
            let acc = st.acc;
            let children = st.children.clone();
            for p in children {
                self.queue(p, PaMsg::Down(part, acc), prio);
            }
        } else {
            let parent = st.parent.expect("non-leader has a parent once started");
            let acc = st.acc;
            self.queue(parent, PaMsg::Up(part, acc), prio);
        }
    }
}

impl NodeProgram for PaProgram {
    type Msg = PaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PaMsg>) {
        let immediate: Vec<u32> = self
            .delays
            .iter()
            .filter(|&&(_, d)| d == 0)
            .map(|&(p, _)| p)
            .collect();
        self.delays.retain(|&(_, d)| d > 0);
        for part in immediate {
            self.start_part(part);
        }
        if !self.delays.is_empty() {
            ctx.wake_next_round();
        }
        self.flush_pending(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, PaMsg>, inbox: &[Incoming<PaMsg>]) {
        // Tick leader delays.
        if !self.delays.is_empty() {
            let mut ready = Vec::new();
            for d in &mut self.delays {
                d.1 -= 1;
                if d.1 == 0 {
                    ready.push(d.0);
                }
            }
            self.delays.retain(|&(_, d)| d > 0);
            for part in ready {
                self.start_part(part);
            }
            if !self.delays.is_empty() {
                ctx.wake_next_round();
            }
        }

        for m in inbox {
            match m.msg {
                PaMsg::Offer(part) => {
                    let prio = self.priority[&part];
                    let st = self
                        .states
                        .get_mut(&part)
                        .expect("offer only travels participating edges");
                    if st.started {
                        self.queue(m.port, PaMsg::Decline(part), prio);
                    } else {
                        st.started = true;
                        st.parent = Some(m.port);
                        st.awaiting_replies = st.ports.len() - 1;
                        let ports = st.ports.clone();
                        self.queue(m.port, PaMsg::Adopt(part), prio);
                        for p in ports {
                            if p != m.port {
                                self.queue(p, PaMsg::Offer(part), prio);
                            }
                        }
                        self.maybe_up(part);
                    }
                }
                PaMsg::Adopt(part) => {
                    let st = self.states.get_mut(&part).expect("state exists");
                    st.children.push(m.port);
                    st.pending_up += 1;
                    st.awaiting_replies -= 1;
                    self.maybe_up(part);
                }
                PaMsg::Decline(part) => {
                    let st = self.states.get_mut(&part).expect("state exists");
                    st.awaiting_replies -= 1;
                    self.maybe_up(part);
                }
                PaMsg::Up(part, val) => {
                    let op = self.op;
                    let st = self.states.get_mut(&part).expect("state exists");
                    st.acc = op.apply(st.acc, val);
                    st.pending_up -= 1;
                    self.maybe_up(part);
                }
                PaMsg::Down(part, val) => {
                    let prio = self.priority[&part];
                    let st = self.states.get_mut(&part).expect("state exists");
                    if st.result.is_none() {
                        st.result = Some(val);
                        let children = st.children.clone();
                        for p in children {
                            self.queue(p, PaMsg::Down(part, val), prio);
                        }
                    }
                }
            }
        }
        self.flush_pending(ctx);
    }

    fn is_done(&self) -> bool {
        self.states.values().all(|st| st.result.is_some())
    }
}

/// Part-wise aggregation as a session-drivable operation ([`PartwiseOp`]):
/// every node of part `P_i` learns the aggregate of its part's values,
/// computed by one echo protocol per part over `G[P_i] + H_i`.
///
/// Used in two ways: `session.run(AggregateOp { .. })` (or the facade's
/// `session.aggregate(..)` sugar) serves it from the session's cached
/// shortcut; [`AggregateOp::run_on`] runs it over explicitly supplied
/// artifacts. Both read the same [`SessionConfig`] fields: the
/// `aggregate` block and [`SessionConfig::sim`].
///
/// `leaders[i]`, when given, must be a member of part `i`; by default the
/// minimum-id member leads. Every part's subgraph must be connected for the
/// run to complete (a disconnected part simply never finishes and is
/// reported as uninformed).
#[derive(Clone, Copy, Debug)]
pub struct AggregateOp<'a> {
    /// One value per node.
    pub values: &'a [u64],
    /// The aggregation operator.
    pub op: AggOp,
    /// Explicit per-part leaders; `None` elects the minimum-id member.
    pub leaders: Option<&'a [NodeId]>,
}

impl PartwiseOp for AggregateOp<'_> {
    type Output = PartwiseOutcome;

    fn run(self, session: &mut ShortcutSession<'_>) -> OpReport<PartwiseOutcome> {
        session.prepare();
        let quality = session.quality_shared();
        let participation = ParticipationMap::cached(session);
        let sc = session.config();
        let out = self.run_with(
            session.graph(),
            session.partition(),
            &participation,
            &sc.aggregate,
            sc.sim,
        );
        let metrics = out.metrics.clone();
        OpReport::from_metrics(out, &metrics, quality)
    }
}

impl AggregateOp<'_> {
    /// Runs the protocol over explicit artifacts (the non-session path),
    /// configured by `cfg.aggregate` on [`SessionConfig::sim`].
    ///
    /// # Panics
    ///
    /// Panics if `self.values.len() != g.num_nodes()`, a leader is not a
    /// member of its part, or the shortcut's shape differs from the
    /// partition's.
    pub fn run_on(
        &self,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        cfg: &SessionConfig,
    ) -> PartwiseOutcome {
        let participation = ParticipationMap::build(g, partition, shortcut);
        self.run_with(g, partition, &participation, &cfg.aggregate, cfg.sim)
    }

    /// Runs the protocol over a prebuilt [`ParticipationMap`] with the
    /// aggregation knobs `opts` on simulator `sim` (its mode is forced to
    /// [`Queued`](SimMode::Queued): several part instances share edges).
    /// The session path passes its cached map; Boruvka's phases pass
    /// `SessionConfig::aggregate` with the MST or min-cut simulator.
    ///
    /// # Panics
    ///
    /// Panics like [`run_on`](Self::run_on).
    pub fn run_with(
        &self,
        g: &Graph,
        partition: &Partition,
        participation: &ParticipationMap,
        opts: &AggregateOpts,
        sim: SimConfig,
    ) -> PartwiseOutcome {
        let (values, op, leaders) = (self.values, self.op, self.leaders);
        assert_eq!(values.len(), g.num_nodes(), "one value per node");
        let k = partition.num_parts();
        let default_leaders: Vec<NodeId> = partition
            .iter()
            .map(|(_, nodes)| *nodes.iter().min().expect("parts are non-empty"))
            .collect();
        let leaders = leaders.unwrap_or(&default_leaders);
        assert_eq!(leaders.len(), k, "one leader per part");
        for (i, &l) in leaders.iter().enumerate() {
            assert_eq!(
                partition.part_of(l),
                Some(PartId(i as u32)),
                "leader {l:?} is not a member of part {i}"
            );
        }

        // Random delays per part.
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let delays: Vec<u32> = (0..k)
            .map(|_| {
                if opts.delay_range == 0 {
                    0
                } else {
                    rng.gen_range(0..opts.delay_range)
                }
            })
            .collect();

        let sim_cfg = SimConfig {
            mode: SimMode::Queued,
            ..sim
        };
        let sim = Simulator::new(g, sim_cfg);
        let run = sim.run(|v, _| {
            let mut states = HashMap::new();
            let mut priority = HashMap::new();
            let mut node_delays = Vec::new();
            // States for parts this node participates in (as relay or member).
            let mut parts: Vec<u32> = participation.at(v).keys().copied().collect();
            if let Some(pid) = partition.part_of(v) {
                if !parts.contains(&pid.0) {
                    parts.push(pid.0); // singleton part without edges
                }
            }
            for part in parts {
                let is_member = partition.part_of(v) == Some(PartId(part));
                let is_leader = leaders[part as usize] == v;
                let ports = participation.at(v).get(&part).cloned().unwrap_or_default();
                states.insert(
                    part,
                    PartState {
                        ports,
                        parent: None,
                        started: false,
                        awaiting_replies: 0,
                        children: Vec::new(),
                        pending_up: 0,
                        acc: if is_member {
                            values[v.index()]
                        } else {
                            identity(op)
                        },
                        is_leader,
                        up_sent: false,
                        result: None,
                    },
                );
                priority.insert(part, u64::from(delays[part as usize]));
                if is_leader {
                    node_delays.push((part, delays[part as usize]));
                }
            }
            PaProgram {
                op,
                states,
                delays: node_delays,
                priority,
                pending: Vec::new(),
            }
        });

        // Collect results.
        let mut results: Vec<Option<u64>> = vec![None; k];
        let mut all_informed = true;
        for (i, &leader) in leaders.iter().enumerate() {
            let part = i as u32;
            results[i] = run.programs[leader.index()]
                .states
                .get(&part)
                .and_then(|st| st.result);
            for &member in partition.part(PartId(part)) {
                let informed = run.programs[member.index()]
                    .states
                    .get(&part)
                    .map(|st| st.result.is_some())
                    .unwrap_or(false);
                if !informed {
                    all_informed = false;
                }
            }
        }

        PartwiseOutcome {
            results,
            all_members_informed: all_informed,
            metrics: run.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{baseline, full_shortcut, ShortcutConfig};
    use lcs_graph::{bfs, gen};

    fn grid_setup(side: usize) -> (Graph, Partition, Shortcut) {
        let g = gen::grid(side, side);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(side, side)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        (g, partition, built.shortcut)
    }

    #[test]
    fn matches_centralized_for_all_ops() {
        let (g, partition, shortcut) = grid_setup(8);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let out = AggregateOp {
                values: &values,
                op,
                leaders: None,
            }
            .run_on(&g, &partition, &shortcut, &SessionConfig::default());
            assert!(out.metrics.terminated);
            assert!(out.all_members_informed);
            let expect = crate::centralized_aggregate(&partition, &values, op);
            let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn no_shortcut_still_correct_but_slower() {
        let (g, partition, shortcut) = grid_setup(8);
        let empty = baseline::no_shortcut(&partition);
        let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
        let op = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: None,
        };
        let cfg = SessionConfig::default();
        let with = op.run_on(&g, &partition, &shortcut, &cfg);
        let without = op.run_on(&g, &partition, &empty, &cfg);
        assert!(with.all_members_informed && without.all_members_informed);
        assert_eq!(with.results, without.results);
        // On short row parts the shortcut brings no speedup (the rows are
        // already paths of length 7) — correctness must hold either way. The
        // wheel test below covers the speedup claim.
    }

    #[test]
    fn wheel_rim_needs_shortcuts() {
        // The paper's Section 2 wheel example: D = 2, rim diameter Θ(n).
        let n = 64;
        let g = gen::wheel(n);
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let values: Vec<u64> = (0..n as u64).collect();

        let op = AggregateOp {
            values: &values,
            op: AggOp::Max,
            leaders: None,
        };
        let cfg = SessionConfig::default();
        let with = op.run_on(&g, &partition, &built.shortcut, &cfg);
        let without = op.run_on(&g, &partition, &baseline::no_shortcut(&partition), &cfg);
        assert_eq!(with.results[0], Some(n as u64 - 1));
        assert_eq!(without.results[0], Some(n as u64 - 1));
        // Shortcut routes through the hub: O(1) diameter vs Θ(n) rim walk.
        assert!(
            with.metrics.rounds * 4 < without.metrics.rounds,
            "with {} vs without {}",
            with.metrics.rounds,
            without.metrics.rounds
        );
    }

    #[test]
    fn disconnected_shortcut_reports_uninformed() {
        let g = gen::path(6);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        // A shortcut edge disconnected from the part.
        let far = g.find_edge(NodeId(4), NodeId(5)).unwrap();
        let s = Shortcut::from_edge_lists(vec![vec![far]]);
        let values = vec![1; 6];
        let out = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: None,
        }
        .run_on(&g, &partition, &s, &SessionConfig::default());
        // The members finish (their side is connected) and the run quiesces
        // early, but the relay island never hears an offer, so the run does
        // not count as fully terminated.
        assert!(!out.metrics.terminated);
        assert!(out.metrics.rounds < 100);
        assert!(out.all_members_informed);
        assert_eq!(out.results[0], Some(2));
    }

    #[test]
    fn explicit_leaders_and_delays() {
        let (g, partition, shortcut) = grid_setup(6);
        let leaders: Vec<NodeId> = partition
            .iter()
            .map(|(_, nodes)| *nodes.last().unwrap())
            .collect();
        let values = vec![3u64; g.num_nodes()];
        let out = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: Some(&leaders),
        }
        .run_on(
            &g,
            &partition,
            &shortcut,
            &SessionConfig {
                aggregate: AggregateOpts {
                    delay_range: 8,
                    ..AggregateOpts::default()
                },
                ..SessionConfig::default()
            },
        );
        assert!(out.all_members_informed);
        assert!(out.results.iter().all(|&r| r == Some(18)));
    }

    /// The heaviest queued-mode consumer (many instances, mixed random-delay
    /// priorities) must be invisible to the thread count: same results,
    /// same metrics.
    #[test]
    fn partwise_is_thread_count_invariant() {
        let (g, partition, shortcut) = grid_setup(8);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| x * 7 % 31).collect();
        let run_with = |threads| {
            AggregateOp {
                values: &values,
                op: AggOp::Sum,
                leaders: None,
            }
            .run_on(
                &g,
                &partition,
                &shortcut,
                &SessionConfig {
                    aggregate: AggregateOpts {
                        delay_range: 12,
                        ..AggregateOpts::default()
                    },
                    sim: SimConfig {
                        threads,
                        ..SimConfig::default()
                    },
                    ..SessionConfig::default()
                },
            )
        };
        let t1 = run_with(1);
        assert!(t1.all_members_informed);
        for threads in [2, 4] {
            let t = run_with(threads);
            assert_eq!(t.results, t1.results, "threads={threads}");
            assert_eq!(t.metrics.counts(), t1.metrics.counts(), "threads={threads}");
        }
    }

    #[test]
    fn refreshed_participation_matches_fresh_build() {
        // Drive the real churn path: the session's incremental shortcut
        // keeps untouched parts' H_i byte-identical, which is exactly the
        // contract `refreshed` relies on.
        use lcs_core::session::Session;
        let g = gen::grid(6, 6);
        let mut session = Session::on(&g)
            .partition(gen::rows_of_grid(6, 6))
            .build()
            .unwrap();
        session.prepare();
        let old_map = ParticipationMap::build(&g, session.partition(), session.shortcut_ref());
        let touched = session.reassign_parts(&[(NodeId(6), PartId(0))]).unwrap();
        assert_eq!(touched, vec![PartId(0), PartId(1)]);
        session.prepare(); // re-customizes the touched parts in place
        let refreshed =
            old_map.refreshed(&g, session.partition(), session.shortcut_ref(), &touched);
        let fresh = ParticipationMap::build(&g, session.partition(), session.shortcut_ref());
        for v in g.nodes() {
            let mut a: Vec<_> = refreshed.at(v).iter().collect();
            let mut b: Vec<_> = fresh.at(v).iter().collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "node {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn foreign_leader_rejected() {
        let (g, partition, shortcut) = grid_setup(4);
        let bad: Vec<NodeId> = vec![NodeId(0); 4];
        let values = vec![0u64; g.num_nodes()];
        AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: Some(&bad),
        }
        .run_on(&g, &partition, &shortcut, &SessionConfig::default());
    }

    use lcs_graph::Graph;
}
