//! Differential tests for the serving layer (PR 9 satellite): oracle
//! answers must be **bit-identical** to direct recomputation from the
//! embedding — point queries and batched sweeps against
//! [`FrtTree::leaf_distance`], the intersection rung against a direct
//! LE-list recompute — across thread counts {1, 4} and a save/load
//! roundtrip through the snapshot container. Degraded (non-exact)
//! answers must still be sound upper bounds on the graph metric, with
//! every ladder fall recorded.

mod common;

use common::{with_threads, workload_graphs};
use metric_tree_embedding::core::frt::{le_lists_direct, FrtTree, LeList, Ranks};
use metric_tree_embedding::prelude::*;
use metric_tree_embedding::serving::{
    CancelToken, Oracle, OracleArtifact, Rung, ServeConfig, ServeDegradation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn artifact_for(g: &Graph, seed: u64) -> OracleArtifact {
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(seed)));
    let (lists, _, _) = le_lists_direct(g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
    OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree).expect("parts are valid")
}

/// Direct LE-list intersection recompute: `min_w (d_u(w) + d_v(w))`
/// over nodes common to both lists, the reference for rung 3.
fn direct_intersection(lu: &LeList, lv: &LeList) -> f64 {
    let mut best = f64::INFINITY;
    for &(w, du) in lu.entries() {
        for &(x, dv) in lv.entries() {
            if w == x && du.value() + dv.value() < best {
                best = du.value() + dv.value();
            }
        }
    }
    best
}

#[test]
fn point_queries_match_leaf_distance_bit_for_bit() {
    for (name, g) in workload_graphs() {
        let artifact = artifact_for(&g, 0x53E2);
        let oracle = Oracle::new(artifact);
        let n = g.n() as u32;
        for u in 0..n {
            for v in 0..n {
                let answer = oracle
                    .distance(u, v)
                    .unwrap_or_else(|e| panic!("{name}: ({u},{v}) failed: {e}"));
                assert!(answer.exact, "{name}: default budget must serve exact");
                assert!(matches!(answer.rung, Rung::TreeLca | Rung::CacheHit));
                let reference = oracle.artifact().tree().leaf_distance(u, v);
                assert!(
                    answer.value == reference,
                    "{name}: ({u},{v}) served {} want {reference}",
                    answer.value
                );
            }
        }
        // The symmetric sweep revisits every pair: the cache must have
        // served some of it, and hits are exact too (checked above).
        assert!(oracle.cache_stats().hits > 0, "{name}: cache never hit");
    }
}

#[test]
fn batched_sweeps_match_leaf_distance_bit_for_bit() {
    for (name, g) in workload_graphs() {
        let artifact = artifact_for(&g, 0x53E3);
        let oracle = Oracle::new(artifact);
        let n = g.n() as u32;
        let sources: Vec<u32> = (0..n).step_by(7).collect();
        let batch = oracle
            .batch_distances(&sources, &CancelToken::new())
            .unwrap_or_else(|e| panic!("{name}: batch failed: {e}"));
        assert_eq!(batch.distances.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..n {
                let reference = oracle.artifact().tree().leaf_distance(s, v);
                assert!(
                    batch.distances[i][v as usize] == reference,
                    "{name}: batch ({s},{v}) = {} want {reference}",
                    batch.distances[i][v as usize]
                );
            }
        }
        assert!(batch.work > 0, "{name}: work units not accounted");
    }
}

#[test]
fn intersection_rung_matches_direct_recompute() {
    let mut rungs_exercised = 0usize;
    for (name, g) in workload_graphs() {
        let artifact = artifact_for(&g, 0x53E4);
        let climb_bound = (artifact.tree().num_levels() - 1) as u64;
        let n = g.n() as u32;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let lu = &artifact.le_lists()[u as usize];
                let lv = &artifact.le_lists()[v as usize];
                let cost = (lu.len() + lv.len()) as u64;
                // A budget that affords the probe + the intersection but
                // not a worst-case climb pins the ladder on rung 3.
                if cost >= climb_bound {
                    continue;
                }
                let config = ServeConfig {
                    query_budget: 1 + cost,
                    ..ServeConfig::default()
                };
                // Fresh oracle per pair: an empty cache keeps the probe
                // a miss and the ladder path deterministic.
                let oracle = Oracle::with_config(artifact.clone(), config);
                let answer = oracle
                    .distance(u, v)
                    .unwrap_or_else(|e| panic!("{name}: ({u},{v}) failed: {e}"));
                assert_eq!(answer.rung, Rung::ListIntersection, "{name}: ({u},{v})");
                assert!(!answer.exact);
                assert!(
                    answer
                        .degradations
                        .contains(&ServeDegradation::TreeLcaSkipped),
                    "{name}: ({u},{v}) skip not recorded: {:?}",
                    answer.degradations
                );
                let reference = direct_intersection(lu, lv);
                assert!(
                    answer.value == reference,
                    "{name}: ({u},{v}) served {} want {reference}",
                    answer.value
                );
                rungs_exercised += 1;
            }
        }
    }
    assert!(
        rungs_exercised > 0,
        "no pair in the catalog could pin the intersection rung"
    );
}

#[test]
fn degraded_answers_are_upper_bounds_on_the_graph_metric() {
    for (name, g) in workload_graphs() {
        let artifact = artifact_for(&g, 0x53E5);
        // Three work units: a cache probe plus the degraded rung's
        // two-unit floor — nothing else is affordable.
        let config = ServeConfig {
            query_budget: 3,
            ..ServeConfig::default()
        };
        let oracle = Oracle::with_config(artifact, config);
        let all_pairs = apsp(&g);
        let n = g.n() as u32;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let answer = oracle
                    .distance(u, v)
                    .unwrap_or_else(|e| panic!("{name}: ({u},{v}) failed under floor budget: {e}"));
                assert!(!answer.exact, "{name}: 3 units cannot buy an exact answer");
                assert!(
                    answer.value.is_finite(),
                    "{name}: degraded bound not finite"
                );
                // The bound is exact arithmetic ≥ d_G, but the two
                // sides accumulate their sums in different association
                // orders — allow rounding-level slack, nothing more.
                let d_g = all_pairs[u as usize][v as usize].value();
                assert!(
                    answer.value >= d_g - 1e-9 * d_g.max(1.0),
                    "{name}: ({u},{v}) bound {} below graph distance {d_g}",
                    answer.value
                );
                assert!(
                    !answer.degradations.is_empty(),
                    "{name}: ladder falls unrecorded"
                );
            }
        }
    }
}

/// One full query sweep (point + batch), returning every served value
/// in a deterministic order for cross-thread comparison.
fn sweep_values(oracle: &Oracle, n: u32) -> Vec<f64> {
    let mut out = Vec::new();
    for u in 0..n {
        for v in 0..n {
            let answer = oracle
                .distance(u, v)
                .unwrap_or_else(|e| panic!("({u},{v}) failed: {e}"));
            out.push(answer.value);
        }
    }
    let sources: Vec<u32> = (0..n).step_by(5).collect();
    let batch = oracle
        .batch_distances(&sources, &CancelToken::new())
        .unwrap_or_else(|e| panic!("batch failed: {e}"));
    for row in batch.distances {
        out.extend(row);
    }
    out
}

#[test]
fn answers_are_bit_identical_across_thread_counts_and_a_roundtrip() {
    for (name, g) in workload_graphs() {
        let artifact = artifact_for(&g, 0x53E6);
        let image = artifact.encode();
        let n = g.n() as u32;
        let mut sweeps = Vec::new();
        for threads in [1usize, 4] {
            // Serve from a freshly decoded copy each time: the roundtrip
            // through the snapshot container is part of the contract.
            let image = &image;
            let values = with_threads(threads, move || {
                let artifact = OracleArtifact::decode(image).expect("own encoding must decode");
                let oracle = Oracle::new(artifact);
                sweep_values(&oracle, n)
            });
            sweeps.push(values);
        }
        assert_eq!(sweeps[0], sweeps[1], "{name}: thread divergence");
        // And against the never-serialized original.
        let direct = sweep_values(&Oracle::new(artifact), n);
        assert_eq!(sweeps[0], direct, "{name}: roundtrip divergence");
    }
}

#[test]
fn save_load_roundtrip_through_a_file_preserves_answers() {
    let (_, g) = &workload_graphs()[0];
    let artifact = artifact_for(g, 0x53E7);
    let dir = std::env::temp_dir().join(format!("mte_serving_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("oracle.snap");
    artifact.write_to(&path).expect("atomic write");
    let loaded = OracleArtifact::read_from(&path).expect("read back");
    std::fs::remove_dir_all(&dir).ok();
    let n = g.n() as u32;
    let before = Oracle::new(artifact);
    let after = Oracle::new(loaded);
    for u in 0..n {
        for v in 0..n {
            let b = before.distance(u, v).expect("before").value;
            let a = after.distance(u, v).expect("after").value;
            assert!(a == b, "({u},{v}): {a} != {b}");
        }
    }
}
