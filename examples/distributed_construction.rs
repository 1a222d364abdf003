//! Theorem 1.5 end to end: one `ShortcutSession` per backend — the
//! centralized Theorem 1.2 construction, the distributed exact-streaming
//! protocol, and the randomized KMV-sketch detection — all serving the same
//! partition from one call site.
//!
//! Run with: `cargo run --release --example distributed_construction`

use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::core::WitnessMode;
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let side = 20;
    let g = gen::grid(side, side);
    let mut rng = SmallRng::seed_from_u64(99);
    let parts = gen::random_connected_parts(&g, side * side / 4, &mut rng);
    let partition = Partition::from_parts(&g, parts).expect("Voronoi parts are valid");
    let config = SessionConfig {
        shortcut: ShortcutConfig {
            witness_mode: WitnessMode::Skip,
            ..ShortcutConfig::default()
        },
        ..SessionConfig::default()
    };

    let backends = [
        ("centralized", Backend::Centralized),
        ("exact", Backend::Distributed(SimConfig::default())),
        (
            "sketch t=16",
            Backend::Sketch(DistConfig {
                mode: DistMode::Sketch {
                    t: 16,
                    hash_seed: 0xfeed,
                    cut_factor: 1.0,
                },
                sim: SimConfig::default(),
            }),
        ),
    ];

    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>5} {:>10} {:>8}",
        "backend", "rounds", "messages", "bits", "δ̂", "congestion", "blocks"
    );
    for (name, backend) in backends {
        let mut session = Session::on(&g)
            .root(NodeId(0))
            .partition_object(partition.clone())
            .backend(backend)
            .config(config.clone())
            .build()
            .expect("partition already validated");
        let delta_hat = session.delta_hat();
        let stats = session.construction_stats();
        let q = session.quality().clone();
        assert!(q.tree_restricted && q.all_connected());
        println!(
            "{:<14} {:>8} {:>10} {:>10} {:>5} {:>10} {:>8}",
            name,
            stats.rounds,
            stats.messages,
            stats.bits,
            delta_hat,
            q.max_congestion,
            q.max_blocks
        );
        assert_eq!(session.cache_stats().full.builds, 1);
    }

    println!("\nall three backends satisfy the Theorem 3.1 bounds;");
    println!(
        "the exact backend's construction equals the centralized one (zero simulated cost there);"
    );
    println!("the sketch backend trades exactness for O(t) messages per edge.");
}
