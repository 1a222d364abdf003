//! Criterion bench: distributed Boruvka MST end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcs_algos::mst::{kruskal, MstOp, ShortcutProvider};
use lcs_core::session::{Backend, SessionConfig};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst");
    group.sample_size(10);
    for side in [8usize, 12, 16] {
        let g = gen::grid(side, side);
        let mut rng = SmallRng::seed_from_u64(3);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        group.bench_with_input(BenchmarkId::new("boruvka_grid", side), &side, |b, _| {
            b.iter(|| {
                let provider = ShortcutProvider::Backend(Backend::Centralized);
                let rep = MstOp.run_on(&g, &w, NodeId(0), &provider, &SessionConfig::default());
                std::hint::black_box(rep.rounds.total())
            })
        });
        group.bench_with_input(BenchmarkId::new("kruskal_grid", side), &side, |b, _| {
            b.iter(|| std::hint::black_box(kruskal(&g, &w)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mst);
criterion_main!(benches);
