//! Connected components / spanning forests, distributed (unweighted
//! Boruvka) and centralized.
//!
//! "Subgraph connectivity" is among the paper's listed applications: with
//! unit weights, the MST machinery computes a spanning forest, and fragment
//! ids at fixpoint are component labels, in `Õ(δD)` rounds per phase.

use crate::mst::{boruvka, op_report, MstReport, ShortcutProvider};
use lcs_core::session::{deps, Backend, OpReport, PartwiseOp, SessionConfig, ShortcutSession};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{Graph, NodeId, UnionFind};

/// Result of [`ComponentsOp`].
#[derive(Clone, Debug)]
pub struct ComponentsReport {
    /// Dense component label per node.
    pub label: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
    /// The underlying spanning-forest run.
    pub mst: MstReport,
}

/// Connected components as a session-drivable operation ([`PartwiseOp`]):
/// unit-weight Boruvka over the session's root, with its backend as the
/// shortcut provider.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComponentsOp;

impl PartwiseOp for ComponentsOp {
    type Output = ComponentsReport;

    fn run(self, session: &mut ShortcutSession<'_>) -> OpReport<ComponentsReport> {
        // Purely topology-scoped: partition and weight churn keep the
        // cached report alive.
        let report = session.op_artifact_with(deps::TOPOLOGY_ONLY, |s| {
            self.run_on(s.graph(), s.root(), s.backend(), s.config())
        });
        let mst = &report.mst;
        let (rounds, messages, bits) = (mst.rounds.total(), mst.messages, mst.bits);
        op_report(
            session.graph(),
            session.config().sim,
            rounds,
            messages,
            bits,
            (*report).clone(),
        )
    }
}

impl ComponentsOp {
    /// Computes connected components by unit-weight Boruvka over explicit
    /// inputs (the non-session path), configured like
    /// [`MstOp::run_on`](crate::mst::MstOp::run_on) with `backend` as the
    /// shortcut provider.
    ///
    /// # Panics
    ///
    /// Panics like [`MstOp::run_on`](crate::mst::MstOp::run_on).
    pub fn run_on(
        &self,
        g: &Graph,
        root: NodeId,
        backend: &Backend,
        cfg: &SessionConfig,
    ) -> ComponentsReport {
        let weights = EdgeWeights::unit(g);
        let provider = ShortcutProvider::Backend(backend.clone());
        let mst = boruvka(g, &weights, root, &provider, cfg);
        let mut uf = UnionFind::new(g.num_nodes());
        for &e in &mst.edges {
            let (u, v) = g.endpoints(e);
            uf.union(u.index(), v.index());
        }
        let mut label = vec![u32::MAX; g.num_nodes()];
        let mut next = 0u32;
        for v in g.nodes() {
            let r = uf.find(v.index());
            if label[r] == u32::MAX {
                label[r] = next;
                next += 1;
            }
            label[v.index()] = label[r];
        }
        ComponentsReport {
            label,
            count: next as usize,
            mst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{components, gen};

    fn run(g: &Graph) -> ComponentsReport {
        ComponentsOp.run_on(
            g,
            NodeId(0),
            &Backend::Centralized,
            &SessionConfig::default(),
        )
    }

    #[test]
    fn single_component_grid() {
        let g = gen::grid(5, 5);
        let rep = run(&g);
        assert_eq!(rep.count, 1);
        assert_eq!(rep.mst.edges.len(), 24);
        assert!(rep.label.iter().all(|&l| l == rep.label[0]));
    }

    #[test]
    fn matches_centralized_components() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)]);
        let rep = run(&g);
        let reference = components::connected_components(&g);
        assert_eq!(rep.count, reference.count);
        // Labels agree up to renaming: same label iff same component.
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    rep.label[u.index()] == rep.label[v.index()],
                    reference.label[u.index()] == reference.label[v.index()]
                );
            }
        }
    }
}
