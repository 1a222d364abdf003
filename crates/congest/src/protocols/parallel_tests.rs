//! Thread-count invariance of the standard protocols: a multi-lane run
//! must produce the same trees, leaders, and metrics as a one-lane run.

use super::{extract_tree, BfsTreeProgram, LeaderElectProgram};
use crate::{SimConfig, Simulator};
use lcs_graph::{gen, NodeId};

#[test]
fn bfs_tree_is_thread_count_invariant() {
    let g = gen::grid(9, 7);
    let run_with = |threads| {
        let sim = Simulator::new(
            &g,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        assert!(run.metrics.terminated);
        let tree = extract_tree(&g, &run);
        (run.metrics, tree)
    };
    let (metrics1, tree1) = run_with(1);
    for threads in [2, 4] {
        let (metrics, tree) = run_with(threads);
        assert_eq!(metrics.counts(), metrics1.counts(), "threads={threads}");
        assert_eq!(tree.parent_port, tree1.parent_port, "threads={threads}");
    }
}

#[test]
fn leader_election_is_thread_count_invariant() {
    let g = gen::torus(5, 5);
    let run_with = |threads| {
        let sim = Simulator::new(
            &g,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| LeaderElectProgram::new(v));
        assert!(run.metrics.terminated);
        let leaders: Vec<_> = run.programs.iter().map(|p| p.leader()).collect();
        (run.metrics, leaders)
    };
    let (metrics1, leaders1) = run_with(1);
    let (metrics4, leaders4) = run_with(4);
    assert_eq!(metrics4.counts(), metrics1.counts());
    assert_eq!(leaders4, leaders1);
}
