//! Criterion bench: distributed part-wise aggregation end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcs_congest::protocols::AggOp;
use lcs_core::session::SessionConfig;
use lcs_core::{full_shortcut, Partition, ShortcutConfig};
use lcs_graph::{bfs, gen, NodeId};
use lcs_partwise::AggregateOp;

fn bench_partwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("partwise_aggregation");
    group.sample_size(15);
    for side in [8usize, 16, 24] {
        let g = gen::grid(side, side);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(side, side)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
        let op = AggregateOp {
            values: &values,
            op: AggOp::Min,
            leaders: None,
        };
        let cfg = SessionConfig::default();
        group.bench_with_input(BenchmarkId::new("grid_rows", side), &side, |b, _| {
            b.iter(|| {
                let out = op.run_on(&g, &partition, &built.shortcut, &cfg);
                std::hint::black_box(out.metrics.rounds)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partwise);
criterion_main!(benches);
