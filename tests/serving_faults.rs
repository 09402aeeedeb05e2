//! Fault sweep over the serving layer's injection sites (PR 9
//! acceptance): every wired (site, kind) × arrival index × thread count
//! yields **a typed [`ServeError`] or a correct answer** — zero panics
//! escape the oracle, zero exact-flagged answers are wrong, and every
//! ladder fall is recorded in the response. Plus the resilience
//! mechanics themselves: admission shedding under saturation and
//! cooperative batch cancellation.

mod common;

use common::{with_threads, FaultGuard};
use metric_tree_embedding::core::frt::{le_lists_direct, FrtTree, Ranks};
use metric_tree_embedding::faults::{self, FaultKind, FaultPlan, FaultSite};
use metric_tree_embedding::prelude::*;
use metric_tree_embedding::serving::{
    CancelToken, Oracle, OracleArtifact, ServeConfig, ServeError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 150-vertex gnm artifact: a tree of several levels, and enough
/// vertices for the point and batch queries below.
fn fixture_image() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x5EF1);
    let g = gnm_graph(150, 430, 1.0..9.0, &mut rng);
    let ranks = std::sync::Arc::new(Ranks::sample(g.n(), &mut rng));
    let (lists, _, _) = le_lists_direct(&g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
    OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree)
        .expect("fixture parts are valid")
        .encode()
}

/// One guarded serving workload: load the artifact, serve a pair twice,
/// then one small batch. Exercises both serve sites:
/// `serve_artifact_read` on load, `serve_query_budget` on every charge.
fn serving_workload(image: &[u8]) -> Result<Vec<f64>, ServeError> {
    let oracle = Oracle::load(image, ServeConfig::default())?;
    let mut values = Vec::new();
    for _ in 0..2 {
        let answer = oracle.distance(3, 77)?;
        assert!(
            answer.exact,
            "default budget serves exact (degradations: {:?})",
            answer.degradations
        );
        let reference = oracle.artifact().tree().leaf_distance(3, 77);
        assert!(
            answer.value == reference,
            "exact answer {} != leaf distance {reference}",
            answer.value
        );
        values.push(answer.value);
    }
    let sources = [0u32, 9, 140];
    let batch = oracle.batch_distances(&sources, &CancelToken::new())?;
    for (i, &s) in sources.iter().enumerate() {
        for v in 0..oracle.artifact().n() as u32 {
            let reference = oracle.artifact().tree().leaf_distance(s, v);
            assert!(
                batch.distances[i][v as usize] == reference,
                "batch ({s},{v}) diverged"
            );
            values.push(batch.distances[i][v as usize]);
        }
    }
    Ok(values)
}

/// The tentpole sweep: every wired (site, kind) × arrival index ×
/// thread count ends in a typed error or answers bit-identical to the
/// clean baseline. The workload's internal asserts already enforce
/// "zero wrong exact answers"; the panic hook is a no-op, so any unwind
/// escaping the oracle fails the test as an un-absorbed panic.
#[test]
fn serve_faults_error_typed_or_answer_bit_identical() {
    let _guard = FaultGuard::acquire();
    let image = fixture_image();

    let mut baselines = Vec::new();
    for threads in [1usize, 4] {
        let image = &image;
        let clean = with_threads(threads, move || serving_workload(image))
            .unwrap_or_else(|e| panic!("clean serving workload failed: {e}"));
        baselines.push(clean);
    }
    assert_eq!(baselines[0], baselines[1], "clean thread divergence");

    let wired = [
        (FaultSite::ServeArtifactRead, FaultKind::Panic),
        (FaultSite::ServeArtifactRead, FaultKind::Io),
        (FaultSite::ServeQueryBudget, FaultKind::Panic),
    ];
    for (site, kind) in wired {
        // nth 0 fires on the first arrival (always reached); a large nth
        // is never reached, exercising the armed-but-silent path.
        for nth in [0u64, 3, 1_000_000] {
            for (ti, threads) in [1usize, 4].into_iter().enumerate() {
                faults::install(FaultPlan::single(site, kind, nth));
                let image = &image;
                let outcome = with_threads(threads, move || serving_workload(image));
                faults::clear();
                match outcome {
                    Err(ServeError::InjectedFault { site: s, .. }) => {
                        assert_eq!(s, site, "typed error names the wrong site");
                    }
                    Err(ServeError::Artifact(_)) => {
                        // The absorbed serve_artifact_read io path.
                        assert_eq!(site, FaultSite::ServeArtifactRead);
                        assert_eq!(kind, FaultKind::Io);
                    }
                    Err(other) => panic!(
                        "{site}/{kind}/nth={nth}/t={threads}: unexpected error class {other:?}"
                    ),
                    Ok(values) => assert_eq!(
                        values, baselines[ti],
                        "{site}/{kind}/nth={nth}/t={threads}: Ok answers diverged"
                    ),
                }
            }
        }
    }
}

/// Admission control sheds typed once the bounded in-flight count is
/// reached — and capacity frees again when permits drop.
#[test]
fn saturation_sheds_typed_and_recovers() {
    let _guard = FaultGuard::acquire();
    let image = fixture_image();
    let config = ServeConfig {
        max_in_flight: 0,
        ..ServeConfig::default()
    };
    let oracle = Oracle::load(&image, config).expect("clean load");
    match oracle.distance(0, 1) {
        Err(ServeError::Overloaded {
            in_flight,
            capacity,
        }) => {
            assert_eq!(capacity, 0);
            assert!(in_flight >= capacity);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(oracle.in_flight(), 0, "shed arrival leaked a permit");

    // A real capacity admits again; queries drain the counter fully.
    let oracle = Oracle::load(&image, ServeConfig::default()).expect("clean load");
    for _ in 0..4 {
        oracle.distance(0, 1).expect("admitted");
    }
    assert_eq!(oracle.in_flight(), 0);
}

/// A cancelled token stops a batch sweep between row strides with a
/// typed error that reports the progress point deterministically.
#[test]
fn cancellation_stops_a_batch_sweep_typed() {
    let _guard = FaultGuard::acquire();
    let image = fixture_image();
    let oracle = Oracle::load(&image, ServeConfig::default()).expect("clean load");
    let sources: Vec<u32> = (0..16).collect();
    let token = CancelToken::new();
    token.cancel();
    match oracle.batch_distances(&sources, &token) {
        Err(ServeError::Cancelled { rows_done }) => {
            assert!(rows_done > 0, "progress point not reported");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The same oracle still serves: cancellation is cooperative, not
    // poisoning.
    let fresh = oracle
        .batch_distances(&sources, &CancelToken::new())
        .expect("post-cancel batch");
    assert_eq!(fresh.distances.len(), sources.len());
}

/// Deadline exhaustion is typed, carries the budget, and leaves the
/// oracle fully serviceable for the next query.
#[test]
fn exhausted_deadline_is_typed_and_transient() {
    let _guard = FaultGuard::acquire();
    let image = fixture_image();
    // One unit: below the climb's worst case, the intersection's cost
    // and even the degraded rung's two-unit floor.
    let config = ServeConfig {
        query_budget: 1,
        ..ServeConfig::default()
    };
    let oracle = Oracle::load(&image, config).expect("clean load");
    match oracle.distance(2, 3) {
        Err(ServeError::DeadlineExceeded { budget }) => assert_eq!(budget, 1),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let generous = Oracle::load(&image, ServeConfig::default()).expect("clean load");
    generous.distance(2, 3).expect("generous budget serves");
}
