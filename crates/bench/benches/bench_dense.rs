//! Dense-block backend timings: the flat matrix kernels
//! (`mte_algebra::dense`) against the owned sparse engine on APSP-class
//! workloads, both on the frontier schedule, plus the raw row-kernel
//! microbenchmarks — the wall-time counterpart to the `apsp dense-block`
//! rows of `exp_baseline`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mte_algebra::dense::{relax_row_into, relax_rows_into};
use mte_algebra::MinPlus;
use mte_core::catalog::SourceDetection;
use mte_core::dense::DenseBackend;
use mte_core::engine::OwnedBackend;
use mte_core::run::run_to_fixpoint_on;
use mte_graph::generators::{gnm_graph, grid_graph};
use mte_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn workloads() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xDE45);
    vec![
        ("gnm_n400_m1600", gnm_graph(400, 1600, 1.0..50.0, &mut rng)),
        ("grid_20x20", grid_graph(20, 20, 1.0..5.0, &mut rng)),
    ]
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // Row-kernel microbenchmarks: one relaxation of a k = 4096 row, and
    // the cache-tiled 8-source aggregation.
    let k = 4096;
    let src: Vec<MinPlus> = (0..k).map(|i| MinPlus::new((i % 97) as f64)).collect();
    let mut dst: Vec<MinPlus> = (0..k).map(|i| MinPlus::new((i % 89) as f64)).collect();
    group.bench_function("relax_row_into/k4096", |b| {
        b.iter(|| {
            relax_row_into(black_box(&mut dst), black_box(&src), MinPlus::new(1.5));
            dst[0]
        })
    });
    let srcs: Vec<(&[MinPlus], MinPlus)> =
        (0..8).map(|i| (&src[..], MinPlus::new(i as f64))).collect();
    group.bench_function("relax_rows_into/k4096x8", |b| {
        b.iter(|| {
            relax_rows_into(black_box(&mut dst), black_box(&srcs));
            dst[0]
        })
    });

    // Whole-run comparisons: owned sparse vs dense-block.
    for (graph_name, g) in workloads() {
        let apsp = SourceDetection::apsp(g.n());
        group.bench_function(format!("apsp/{graph_name}/owned"), |b| {
            b.iter(|| {
                black_box(run_to_fixpoint_on(
                    OwnedBackend::new(),
                    &apsp,
                    &g,
                    g.n() + 1,
                ))
                .iterations
            })
        });
        group.bench_function(format!("apsp/{graph_name}/dense-block"), |b| {
            b.iter(|| {
                black_box(run_to_fixpoint_on(
                    DenseBackend::new(None),
                    &apsp,
                    &g,
                    g.n() + 1,
                ))
                .iterations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dense);
criterion_main!(benches);
