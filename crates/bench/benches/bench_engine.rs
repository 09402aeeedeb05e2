//! Dense vs frontier vs hybrid engine scheduling on the
//! sparse-convergence workloads (gnm n=2000 m=6000, grid 50×50): the
//! wall-time counterpart to `exp_baseline`'s work counters.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mte_core::catalog::SourceDetection;
use mte_core::engine::{EngineStrategy, OwnedBackend};
use mte_core::frt::le_list::{LeListAlgorithm, Ranks};
use mte_core::run::run_to_fixpoint_on;
use mte_graph::generators::{gnm_graph, grid_graph};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn workloads() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xE16E);
    vec![
        (
            "gnm_n2000_m6000",
            gnm_graph(2000, 6000, 1.0..50.0, &mut rng),
        ),
        ("grid_50x50", grid_graph(50, 50, 1.0..5.0, &mut rng)),
    ]
}

fn strategies() -> [(&'static str, EngineStrategy); 3] {
    [
        ("dense", EngineStrategy::Dense),
        ("frontier", EngineStrategy::Frontier),
        ("hybrid", EngineStrategy::default()),
    ]
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for (graph_name, g) in workloads() {
        let sssp = SourceDetection::sssp(g.n(), 0);
        for (strat_name, strategy) in strategies() {
            group.bench_function(format!("sssp/{graph_name}/{strat_name}"), |b| {
                b.iter(|| {
                    black_box(run_to_fixpoint_on(
                        OwnedBackend::new(strategy),
                        &sssp,
                        &g,
                        g.n() + 1,
                    ))
                    .work
                    .edge_relaxations
                })
            });
        }

        let mut rng = StdRng::seed_from_u64(0x1E11);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let le = LeListAlgorithm::new(ranks);
        for (strat_name, strategy) in strategies() {
            group.bench_function(format!("le_lists/{graph_name}/{strat_name}"), |b| {
                b.iter(|| {
                    black_box(run_to_fixpoint_on(
                        OwnedBackend::new(strategy),
                        &le,
                        &g,
                        g.n() + 1,
                    ))
                    .work
                    .edge_relaxations
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
