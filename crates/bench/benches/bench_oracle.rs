//! Oracle vs explicit `H` (Theorem 5.2): one simulated `H`-iteration on
//! `G'`'s sparse edges against one real iteration on the dense explicit
//! `H`. The oracle round is a resume from round 0 with the warm states
//! and a budget of one round, on the arena lane.

use criterion::{criterion_group, criterion_main, Criterion};
use mte_core::arena::ArenaBackend;
use mte_core::engine::{iterate, run};
use mte_core::frt::le_list::{LeListAlgorithm, Ranks};
use mte_core::oracle::try_resume_oracle_on;
use mte_core::run::Checkpoint;
use mte_core::simgraph::SimulatedGraph;
use mte_graph::algorithms::shortest_path_diameter;
use mte_graph::generators::gnm_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    let mut rng = StdRng::seed_from_u64(7);
    let g = gnm_graph(256, 768, 1.0..10.0, &mut rng);
    let spd = shortest_path_diameter(&g) as usize;
    let sim = SimulatedGraph::without_hopset(&g, spd, 0.1, &mut rng);
    let h = sim.explicit_h();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let alg = LeListAlgorithm::new(ranks);
    let warm = run(&alg, &g, 2).states;
    let ckpt = Checkpoint {
        hop: 0,
        frontier: Vec::new(),
        states: warm.clone(),
    };

    group.bench_function("oracle_iteration/n=256", |b| {
        b.iter(|| try_resume_oracle_on::<ArenaBackend, _>(&alg, &sim, 1, &ckpt))
    });
    group.bench_function("explicit_h_iteration/n=256", |b| {
        b.iter(|| iterate(&alg, &h, &warm))
    });
    group.finish();
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
