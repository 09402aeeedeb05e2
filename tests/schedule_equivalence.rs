//! Differential tests for the hot-path schedules: the rank-pruned merge
//! kernels, the frontier-list schedule, and the oracle's carry-over
//! seeding must all be **bit-identical** to their references
//! (merge-everything-then-filter, the literal `iterate` loop, and the
//! literal oracle loop, which restarts every level all-dirty from its
//! projection each round) — pruning and carry-over may only change *work
//! counters*, never states, iteration counts, or fixpoint flags. Each
//! comparison also runs under thread pools of size 1 and 4, pinning the
//! `MTE_THREADS` determinism guarantee through the schedule.

mod common;

use common::{literal_fixpoint, literal_oracle, oracle_run};
use metric_tree_embedding::algebra::store::{EpochStore, SpanOut};
use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::arena::{
    initial_store, ArenaBackend, ArenaMbfAlgorithm, DeltaFloor, ReceiverSummary, RecomputeCtx,
    SpanRecompute,
};
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{
    initial_states, iterate, LiteralBackend, MbfAlgorithm, MbfRun,
};
use metric_tree_embedding::core::frt::le_list::{le_lists_oracle, LeListAlgorithm, Ranks};
use metric_tree_embedding::core::frt::LeList;
use metric_tree_embedding::core::oracle::{Lane, OracleBackend};
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, try_run_on, Checkpoint, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Runs `f` on a dedicated pool of the given total parallelism.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

fn workload_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x53E1);
    vec![
        ("gnm sparse", gnm_graph(70, 180, 1.0..10.0, &mut rng)),
        ("grid 9x9", grid_graph(9, 9, 1.0..5.0, &mut rng)),
        ("path", path_graph(56, 1.0)),
    ]
}

// ---------------------------------------------------------------------
// Engine level: the arena's pruned LE merge vs the literal loop's
// merge-then-filter recompute.
// ---------------------------------------------------------------------

#[test]
fn pruned_le_merge_bit_identical_to_reference_and_cheaper() {
    for (name, g) in workload_graphs() {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E2)));
        let le = LeListAlgorithm::new(ranks);
        let cap = g.n() + 1;
        let literal = literal_fixpoint(&le, &g, cap);
        let pruned = run_to_fixpoint_on(ArenaBackend::new(), &le, &g, cap);
        assert_eq!(
            pruned.states, literal.states,
            "{name}: pruned diverged from the literal loop"
        );
        assert_eq!(pruned.iterations, literal.iterations, "{name}");
        assert_eq!(pruned.fixpoint, literal.fixpoint, "{name}");
        // The pruned path admits a strict subset of the entries the
        // literal loop merges on these workloads (Lemma 7.6: most
        // incoming entries are dominated).
        assert!(
            pruned.work.entries_processed < literal.work.entries_processed,
            "{name}: pruned {} !< merge-then-filter {}",
            pruned.work.entries_processed,
            literal.work.entries_processed
        );
    }
}

#[test]
fn pruned_le_merge_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x53E3);
    let g = gnm_graph(300, 900, 1.0..9.0, &mut rng);
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
    let (g, le) = (&g, &le);
    let cap = g.n() + 1;
    let literal = with_threads(1, move || literal_fixpoint(le, g, cap));
    for threads in [1, 4] {
        let (full, pruned) = with_threads(threads, move || {
            (
                run_to_fixpoint_on(LiteralBackend::new(), le, g, cap),
                run_to_fixpoint_on(ArenaBackend::new(), le, g, cap),
            )
        });
        for (run, label) in [(&full, "literal backend"), (&pruned, "pruned")] {
            assert_eq!(
                run.states, literal.states,
                "{label} run on {threads} threads diverged"
            );
            assert_eq!(run.iterations, literal.iterations, "{label}/{threads}");
            assert_eq!(run.fixpoint, literal.fixpoint, "{label}/{threads}");
        }
    }
}

// ---------------------------------------------------------------------
// Engine level: `mark_dirty` carry-over vs all-dirty restart.
// ---------------------------------------------------------------------

#[test]
fn mark_dirty_carry_over_matches_all_dirty_restart() {
    let mut rng = StdRng::seed_from_u64(0x53E4);
    let g = gnm_graph(90, 260, 1.0..8.0, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 4);

    // Run a few hops so the continuing backend holds a genuine residual
    // frontier (the run is not yet at its fixpoint).
    let mut carry = ArenaBackend::new();
    carry.start(&alg, &g).unwrap();
    for _ in 0..3 {
        carry.step(&alg, &g, 1.0);
    }

    // External sparse edit: re-seed a few vertices through the lane's
    // projection, as the oracle's projection diff does between
    // simulated rounds.
    let edited: Vec<NodeId> = vec![3, 41, 77];
    let mut states = StateBackend::<SourceDetection>::export_states(&carry);
    for &v in &edited {
        states[v as usize] = alg.init((v + 1) % g.n() as NodeId);
        assert!(
            carry.project(&alg, &states, v, true),
            "edit of {v} rewrote nothing"
        );
    }

    // Carry-over: seed only the edited vertices on the live backend.
    Lane::<SourceDetection>::mark_dirty(&mut carry, &g, &edited);
    // Reference: a fresh backend restarted all-dirty on the same vector.
    let mut restart = ArenaBackend::new();
    let loaded = Checkpoint {
        hop: 0,
        frontier: Vec::new(),
        states,
    };
    restart.resume(&alg, &g, &loaded).unwrap();
    Lane::<SourceDetection>::mark_all_dirty(&mut restart, &g);

    for hop in 0..g.n() + 1 {
        let (_, carry_changed) = carry.step(&alg, &g, 1.0);
        let (_, restart_changed) = restart.step(&alg, &g, 1.0);
        assert_eq!(
            StateBackend::<SourceDetection>::export_states(&carry),
            StateBackend::<SourceDetection>::export_states(&restart),
            "hop {hop}: carry-over schedule diverged from all-dirty restart"
        );
        if !carry_changed && !restart_changed {
            return;
        }
    }
    panic!("no fixpoint within n + 1 hops");
}

// ---------------------------------------------------------------------
// Oracle level: projection carry-over vs the literal oracle loop, which
// restarts every level all-dirty from its projection each round.
// ---------------------------------------------------------------------

fn oracle_fixture() -> (Graph, SimulatedGraph) {
    let mut rng = StdRng::seed_from_u64(0x53E5);
    let g = gnm_graph(140, 380, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 24, 0.15, &mut rng);
    (g, sim)
}

/// A lane's run (`carry`) against the literal oracle loop: equal
/// states, round counts and fixpoint flags, and the carry-over touched
/// no more vertices than the all-dirty restarts.
fn assert_oracle_runs_agree<M: PartialEq + std::fmt::Debug>(
    carry: &MbfRun<M>,
    literal: &MbfRun<M>,
    label: &str,
) {
    assert_eq!(
        carry.states, literal.states,
        "{label}: carry-over diverged from the literal oracle loop"
    );
    assert_eq!(carry.iterations, literal.iterations, "{label}");
    assert_eq!(carry.fixpoint, literal.fixpoint, "{label}");
    assert!(
        carry.work.touched_vertices <= literal.work.touched_vertices,
        "{label}: carry-over touched {} > literal {}",
        carry.work.touched_vertices,
        literal.work.touched_vertices
    );
}

#[test]
fn oracle_carry_over_bit_identical_to_all_dirty_restart() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let kssp = SourceDetection::k_ssp(g.n(), 5);
    let carry = oracle_run::<ArenaBackend, _>(&kssp, &sim, cap);
    assert_oracle_runs_agree(&carry, &literal_oracle(&kssp, &sim, cap), "k-ssp");

    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E6)));
    let le = LeListAlgorithm::new(ranks);
    let carry = oracle_run::<ArenaBackend, _>(&le, &sim, cap);
    let restart = literal_oracle(&le, &sim, cap);
    assert_oracle_runs_agree(&carry, &restart, "le-lists");
    // Multi-round oracle runs must see the savings the carry-over exists
    // for: later rounds touch only what the projection moved.
    assert!(
        carry.work.touched_vertices < restart.work.touched_vertices,
        "le-lists: carry-over saved nothing"
    );
}

/// With a level budget `d` below `SPD(G)` every level stops mid-wave,
/// so the aggregation keeps changing `x`-slots that a level itself did
/// not move last round. The carry-over diff must re-project those slots
/// too (its `x_changed` half); diffing only the level's own moved set
/// leaves stale projections and changes the LE lists these fixtures
/// produce.
#[test]
fn oracle_carry_over_reprojects_slots_the_aggregation_changed() {
    for seed in [12u64, 30, 39] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6 + seed as usize % 18;
        let g = gnm_graph(n, n - 1 + (seed as usize * 7) % 30, 1.0..10.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABC);
        let sim = SimulatedGraph::without_hopset(&g, 1, 0.2, &mut rng);
        let le = LeListAlgorithm::new(Arc::new(Ranks::sample(g.n(), &mut rng)));
        let cap = 4 * g.n();
        let arena = oracle_run::<ArenaBackend, _>(&le, &sim, cap);
        let literal = literal_oracle(&le, &sim, cap);
        assert_oracle_runs_agree(&arena, &literal, &format!("arena seed {seed}"));
    }
}

#[test]
fn oracle_carry_over_bit_identical_across_thread_counts() {
    let (g, sim) = oracle_fixture();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E7)));
    let cap = 4 * g.n();
    let le = LeListAlgorithm::new(ranks);
    let reference = literal_oracle(&le, &sim, cap);
    let (le, sim) = (&le, &sim);
    for threads in [1, 4] {
        let r = with_threads(threads, move || oracle_run::<ArenaBackend, _>(le, sim, cap));
        assert_eq!(
            r.states, reference.states,
            "{threads} threads: states diverged"
        );
        assert_eq!(r.iterations, reference.iterations);
        assert_eq!(r.fixpoint, reference.fixpoint);
    }
}

/// Runs the arena LE lane and the dense APSP lane under pools of 1 and
/// 4 threads, asserts each equals the literal oracle loop, and returns
/// the arena LE run for the caller's work pins.
fn lanes_equal_literal(g: &Graph, sim: &SimulatedGraph, rank_seed: u64) -> MbfRun<DistanceMap> {
    let cap = 4 * g.n();
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(
        g.n(),
        &mut StdRng::seed_from_u64(rank_seed),
    )));
    let apsp = SourceDetection::apsp(g.n());
    let (le, apsp) = (&le, &apsp);

    let literal = literal_oracle(le, sim, cap);
    assert!(literal.fixpoint);
    let arena = thread_invariant("le/arena", || oracle_run::<ArenaBackend, _>(le, sim, cap));
    assert_oracle_runs_agree(&arena, &literal, "le/arena");

    let dense = thread_invariant("apsp/dense", || {
        oracle_run::<DenseBackend, _>(apsp, sim, cap)
    });
    assert_oracle_runs_agree(&dense, &literal_oracle(apsp, sim, cap), "apsp/dense");
    arena
}

/// `(hops, touched_vertices, entries_processed)` of a run.
fn work_pin<M>(run: &MbfRun<M>) -> (u64, u64, u64) {
    (
        run.work.iterations,
        run.work.touched_vertices,
        run.work.entries_processed,
    )
}

/// A level whose projected input `P_λ x` did not change since its last
/// executed round keeps that round's output instead of recomputing it.
/// Every lane must still equal the literal oracle loop (which never
/// skips), and the arena LE run's work is pinned: re-running the idle
/// levels raises all three counters.
#[test]
fn oracle_idle_levels_skip_bit_identically() {
    // The benchmark's highway regime in small: with `d` below `SPD(G)`
    // the spine's waves need a dozen rounds, and the late ones change `x`
    // only at a few vertices, mostly of low level, so the top levels'
    // projected inputs stand still.
    let g = highway_graph(64, 400.0);
    let sim = SimulatedGraph::without_hopset(&g, 8, 0.15, &mut StdRng::seed_from_u64(0x53EF));
    assert_eq!(sim.levels().lambda(), 8);
    let arena = lanes_equal_literal(&g, &sim, 0x53F0);
    // Without the skip: 846 hops, 29,261 touched, 160,134 entries
    // (566 / 20,796 / 118,561 with the skip but without kept relays;
    // 557 / 20,608 / 116,677 without the delta floors).
    assert_eq!(
        work_pin(&arena),
        (557, 14_985, 91_022),
        "le/arena: hops, touched_vertices, entries_processed"
    );
}

/// A settled level (its last round's hops reached the fixpoint within
/// `d`) keeps its relay slots instead of resetting them to `⊥`. Every
/// lane must still equal the literal oracle loop, and the arena LE
/// run's work is pinned: resetting the relays replays their waves and
/// raises all three counters.
#[test]
fn oracle_settled_levels_keep_relays_bit_identically() {
    // With `d = 24` every level's hops reach their fixpoint within `d`,
    // so every round after the priming one keeps the relays.
    let (g, sim) = oracle_fixture();
    let arena = lanes_equal_literal(&g, &sim, 0x53F1);
    // Resetting the relays: 305 hops, 28,602 touched, 206,005 entries
    // (258 / 19,744 / 130,683 keeping them, without the delta floors).
    assert_eq!(
        work_pin(&arena),
        (258, 14_180, 108_995),
        "le/arena: hops, touched_vertices, entries_processed"
    );
}

// ---------------------------------------------------------------------
// Full FRT pipeline: production path (pruned merges + carry-over) vs
// the unpruned merges in the literal oracle loop, across thread counts.
// ---------------------------------------------------------------------

#[test]
fn frt_le_list_pipeline_matches_unpruned_all_dirty_reference() {
    let (g, sim) = oracle_fixture();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E8)));
    let cap = 4 * g.n();

    // The reference: merge everything, then filter, in the literal
    // oracle loop, every level restarting all-dirty each round.
    let reference = literal_oracle(&LeListAlgorithm::new(Arc::clone(&ranks)), &sim, cap);
    let reference_lists: Vec<LeList> = reference
        .states
        .iter()
        .map(|x| LeList::from_distance_map(x, &ranks))
        .collect();

    for threads in [1, 4] {
        let ranks = Arc::clone(&ranks);
        let sim = &sim;
        let (lists, h_iterations, _) =
            with_threads(threads, move || le_lists_oracle(sim, &ranks, Some(cap)));
        assert_eq!(h_iterations, reference.iterations, "{threads} threads");
        for (v, (got, want)) in lists.iter().zip(&reference_lists).enumerate() {
            assert_eq!(
                got.entries(),
                want.entries(),
                "LE list of node {v} diverged on {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Storage backends: the epoch-arena engine must be bit-identical to the
// literal loop — states, iteration counts and fixpoint flags, with no
// more work than the literal sweep (the arena's own counters are
// pinned) — and the arena oracle lane to the literal oracle loop.
// ---------------------------------------------------------------------

/// The arena run of `alg` against the literal loop; returns the arena
/// run's work for the caller's pins.
fn assert_backends_agree<A>(alg: &A, g: &Graph, label: &str) -> WorkStats
where
    A: ArenaMbfAlgorithm,
{
    let cap = g.n() + 1;
    let literal = literal_fixpoint(alg, g, cap);
    let arena = run_to_fixpoint_on(ArenaBackend::new(), alg, g, cap);
    assert_eq!(
        literal.states, arena.states,
        "{label}: arena backend diverged from the literal loop"
    );
    assert_eq!(literal.iterations, arena.iterations, "{label}");
    assert_eq!(literal.fixpoint, arena.fixpoint, "{label}");
    // The literal loop recomputes every vertex and merges every entry;
    // the arena recomputes the frontier's neighborhood (narrowed by the
    // delta floors for the semi-naive LE lists), admits only what the
    // filter keeps and skips absorbed neighbors, so every count may
    // only shrink.
    assert_narrowed_work(&literal.work, &arena.work, label);
    arena.work
}

/// `narrowed` recomputed no more vertices, processed no more entries and
/// relaxed no more edges than `reference`.
fn assert_narrowed_work(reference: &WorkStats, narrowed: &WorkStats, label: &str) {
    for (name, want, got) in [
        (
            "touched_vertices",
            reference.touched_vertices,
            narrowed.touched_vertices,
        ),
        (
            "entries_processed",
            reference.entries_processed,
            narrowed.entries_processed,
        ),
        (
            "edge_relaxations",
            reference.edge_relaxations,
            narrowed.edge_relaxations,
        ),
    ] {
        assert!(got <= want, "{label}: {name} {got} > reference {want}");
    }
}

/// `(touched_vertices, entries_processed)` of a run's work.
fn touched_entries(work: &WorkStats) -> (u64, u64) {
    (work.touched_vertices, work.entries_processed)
}

#[test]
fn arena_backend_bit_identical_to_literal_loop() {
    // The arena runs' `(touched_vertices, entries_processed)` per graph:
    // LE lists, 4-SSP, SSSP. The arena LE runs before the delta floors
    // read gnm (381, 2_031), grid (520, 2_289), path (623, 2_483).
    let pins = [
        [(259, 1_452), (217, 1_093), (344, 413)],
        [(276, 1_301), (238, 1_056), (379, 459)],
        [(241, 924), (172, 680), (218, 273)],
    ];
    for ((name, g), [le_pin, kssp_pin, sssp_pin]) in workload_graphs().into_iter().zip(pins) {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E9)));
        let le = assert_backends_agree(
            &LeListAlgorithm::new(Arc::clone(&ranks)),
            &g,
            &format!("{name}/le"),
        );
        assert_eq!(touched_entries(&le), le_pin, "{name}/le: touched, entries");
        let kssp = assert_backends_agree(
            &SourceDetection::k_ssp(g.n(), 4),
            &g,
            &format!("{name}/kssp"),
        );
        assert_eq!(
            touched_entries(&kssp),
            kssp_pin,
            "{name}/kssp: touched, entries"
        );
        let sssp = assert_backends_agree(
            &SourceDetection::sssp(g.n(), 1),
            &g,
            &format!("{name}/sssp"),
        );
        assert_eq!(
            touched_entries(&sssp),
            sssp_pin,
            "{name}/sssp: touched, entries"
        );
    }
}

/// LE lists restricted to a source set (the k-median candidate set of
/// Section 9): non-sources start from `⊥`. On the arena backend they
/// equal the literal loop, do no more work, and resume bit-identically
/// from every hop — for a singleton set and a set without the
/// minimum-rank node too, so no vertex can rely on starting with its
/// own entry or on the global minimum reaching it.
#[test]
fn source_masked_le_lists_on_arena_match_literal_and_resume() {
    let mut rng = StdRng::seed_from_u64(0x53F5);
    let graphs = [
        ("gnm", gnm_graph(120, 360, 1.0..9.0, &mut rng)),
        ("grid", grid_graph(8, 10, 1.0..5.0, &mut rng)),
        ("highway", highway_graph(48, 100.0)),
        ("path", path_graph(40, 1.0)),
    ];
    for (name, g) in &graphs {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (n, min) = (g.n() as NodeId, ranks.min_rank_node());
        let source_sets = [
            ("singleton", vec![n / 2]),
            ("every third", (0..n).filter(|v| v % 3 == 0).collect()),
            (
                "without min",
                (0..n).filter(|&v| v != min && v % 4 != 1).collect(),
            ),
        ];
        for (set, sources) in source_sets {
            let label = format!("{name}/{set}");
            let le = LeListAlgorithm::new(Arc::clone(&ranks)).with_sources(&sources);
            let cap = g.n() + 1;
            let literal = literal_fixpoint(&le, g, cap);
            assert!(literal.fixpoint, "{label}");
            let is_source = |u: NodeId| sources.contains(&u);
            assert!(
                literal
                    .states
                    .iter()
                    .all(|x| x.iter().all(|(u, _)| is_source(u))),
                "{label}: an entry names a non-source"
            );
            let mut checkpoints = Vec::new();
            let policy = CheckpointPolicy::every_hops(1);
            let (run, _) = try_run_on(ArenaBackend::new(), &le, g, cap, policy, |c| {
                checkpoints.push(c.clone());
                Ok(())
            })
            .unwrap();
            assert_eq!(run.states, literal.states, "{label}");
            assert_eq!(run.iterations, literal.iterations, "{label}");
            assert_eq!(run.fixpoint, literal.fixpoint, "{label}");
            assert_narrowed_work(&literal.work, &run.work, &label);
            assert!(!checkpoints.is_empty(), "{label}: run too short");
            for ckpt in &checkpoints {
                let (resumed, _) = try_resume_on(ArenaBackend::new(), &le, g, cap, ckpt).unwrap();
                let hop = ckpt.hop;
                assert_eq!(resumed.states, literal.states, "{label} hop {hop}");
                assert_eq!(resumed.iterations, literal.iterations, "{label} hop {hop}");
                assert_eq!(resumed.fixpoint, literal.fixpoint, "{label} hop {hop}");
            }
        }
    }
}

#[test]
fn arena_engine_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x53EA);
    let g = gnm_graph(300, 900, 1.0..9.0, &mut rng);
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let g = &g;
    let run = |threads: usize| {
        let ranks = Arc::clone(&ranks);
        with_threads(threads, move || {
            run_to_fixpoint_on(
                ArenaBackend::new(),
                &LeListAlgorithm::new(ranks),
                g,
                g.n() + 1,
            )
        })
    };
    let r1 = run(1);
    let r4 = run(4);
    assert_eq!(r1.states, r4.states, "arena states differ across threads");
    // The arena's pool layout and compaction schedule are deterministic,
    // so even the storage counters are bit-identical across threads.
    assert_eq!(
        r1.work, r4.work,
        "arena work counters differ across threads"
    );
    assert_eq!(r1.iterations, r4.iterations);
}

/// Runs `alg` on the live `backend` two hops in, captures it, runs it
/// three hops further, then restarts it mid-run with `start` and, once
/// that run reached the fixpoint, resumes it from the capture: both must
/// land on the `reference` fixpoint after the reference's hop count.
fn restart_and_resume_live<A, B>(
    mut backend: B,
    alg: &A,
    g: &Graph,
    reference: &MbfRun<A::M>,
    label: &str,
) where
    A: MbfAlgorithm,
    A::M: PartialEq + std::fmt::Debug,
    B: StateBackend<A>,
{
    let to_fixpoint = |backend: &mut B, mut hops: usize| loop {
        hops += 1;
        if !backend.step(alg, g, 1.0).1 {
            return (backend.export_states(), hops);
        }
    };
    let want = (reference.states.clone(), reference.iterations);
    backend.start(alg, g).unwrap();
    backend.step(alg, g, 1.0);
    backend.step(alg, g, 1.0);
    let ckpt = Checkpoint {
        hop: 2,
        frontier: backend.frontier().to_vec(),
        states: backend.export_states(),
    };
    for _ in 0..3 {
        backend.step(alg, g, 1.0);
    }
    // Restart: the initial states, every vertex dirty.
    backend.start(alg, g).unwrap();
    assert_eq!(to_fixpoint(&mut backend, 0), want, "{label}: restart");
    // Resume: the capture after hop 2 with its residual frontier.
    backend.resume(alg, g, &ckpt).unwrap();
    assert_eq!(to_fixpoint(&mut backend, 2), want, "{label}: resume");
}

/// A restart (`start`) and a resume declare the states rewritten outside
/// the hops, so a live backend must drop everything it cached about the
/// old ones: the arena its deltas and receiver summaries, the arena and
/// the dense backend their taints, the oracle its primed levels.
/// Restarting one mid-run from `r^V x⁽⁰⁾`, or resuming it from an
/// earlier capture, must land on the literal fixpoint.
#[test]
fn live_arena_engine_restarts_and_resumes_exactly() {
    for (name, g) in workload_graphs() {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53F2)));
        let le = LeListAlgorithm::new(ranks);
        let literal = literal_fixpoint(&le, &g, g.n() + 1);
        restart_and_resume_live(
            ArenaBackend::new(),
            &le,
            &g,
            &literal,
            &format!("{name}/le"),
        );
        let apsp = SourceDetection::apsp(g.n());
        let literal = literal_fixpoint(&apsp, &g, g.n() + 1);
        let label = format!("{name}/apsp");
        restart_and_resume_live(DenseBackend::new(None), &apsp, &g, &literal, &label);
    }
    // The oracle over a highway, whose waves need a dozen rounds at d = 8.
    let g = highway_graph(64, 400.0);
    let sim = SimulatedGraph::without_hopset(&g, 8, 0.15, &mut StdRng::seed_from_u64(0x53F3));
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(
        g.n(),
        &mut StdRng::seed_from_u64(0x53F4),
    )));
    let literal = literal_oracle(&le, &sim, 4 * g.n());
    let oracle = OracleBackend::<_, ArenaBackend>::new(&sim);
    restart_and_resume_live(oracle, &le, sim.augmented(), &literal, "oracle");
}

/// Two lanes of the oracle's level loop ran the same schedule: equal
/// states, round counts and fixpoint flags, and — since every lane hops
/// the same frontier — equal hop and touched-vertex counts. The other
/// counters are in each backend's own currency.
fn assert_lanes_agree<M: PartialEq + std::fmt::Debug>(a: &MbfRun<M>, b: &MbfRun<M>, label: &str) {
    assert_eq!(a.states, b.states, "{label}: lanes diverged");
    assert_eq!(a.iterations, b.iterations, "{label}");
    assert_eq!(a.fixpoint, b.fixpoint, "{label}");
    assert_eq!(a.work.iterations, b.work.iterations, "{label}: hops");
    assert_eq!(
        a.work.touched_vertices, b.work.touched_vertices,
        "{label}: touched_vertices"
    );
}

/// Runs `f` under pools of 1 and 4 threads and asserts the two runs are
/// identical down to every work counter.
fn thread_invariant<M: PartialEq + std::fmt::Debug + Send>(
    label: &str,
    f: impl Fn() -> MbfRun<M> + Send + Copy,
) -> MbfRun<M> {
    let r1 = with_threads(1, f);
    let r4 = with_threads(4, f);
    assert_eq!(r1.states, r4.states, "{label}: thread divergence");
    assert_eq!(r1.iterations, r4.iterations, "{label}");
    assert_eq!(r1.work, r4.work, "{label}: work differs across threads");
    r1
}

#[test]
fn arena_oracle_bit_identical_to_literal_oracle() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53EB)));
    let le = LeListAlgorithm::new(Arc::clone(&ranks));
    let kssp = SourceDetection::k_ssp(g.n(), 5);
    let (le, kssp, sim) = (&le, &kssp, &sim);
    let arena = thread_invariant("oracle/le", || oracle_run::<ArenaBackend, _>(le, sim, cap));
    assert_oracle_runs_agree(&arena, &literal_oracle(le, sim, cap), "oracle/le");
    // The arena LE lane's `(touched_vertices, entries_processed)`: the
    // semi-naive handover reads deltas, never a different admitted set,
    // and the delta floors drop only recomputations that admit nothing
    // (without them: (21_019, 124_972)).
    assert_eq!(
        touched_entries(&arena.work),
        (13_206, 86_698),
        "oracle/le: touched, entries"
    );

    let arena = thread_invariant("oracle/kssp", || {
        oracle_run::<ArenaBackend, _>(kssp, sim, cap)
    });
    assert_oracle_runs_agree(&arena, &literal_oracle(kssp, sim, cap), "oracle/kssp");
}

// ---------------------------------------------------------------------
// Semi-naive handover: a dirty neighbor handing over only its delta must
// admit exactly what the full handover admits, and a delta the receiver
// absorbs as a whole (its floor) must hold nothing the per-entry test
// would admit.
// ---------------------------------------------------------------------

/// An arena algorithm with the semi-naive handover turned off: the
/// engine records no deltas, so `RecomputeCtx::incoming` hands every
/// dirty neighbor's whole state over — the reference the delta handover
/// must reproduce.
struct FullHandover<A>(A);

impl<A: ArenaMbfAlgorithm> MbfAlgorithm for FullHandover<A> {
    type S = MinPlus;
    type M = DistanceMap;

    fn edge_coeff(&self, v: NodeId, w: NodeId, weight: f64) -> MinPlus {
        self.0.edge_coeff(v, w, weight)
    }

    fn filter(&self, x: &mut DistanceMap) {
        self.0.filter(x);
    }

    fn init(&self, v: NodeId) -> DistanceMap {
        self.0.init(v)
    }

    fn state_size(&self, x: &DistanceMap) -> usize {
        self.0.state_size(x)
    }
}

impl<A: ArenaMbfAlgorithm> ArenaMbfAlgorithm for FullHandover<A> {
    const USES_RANK_COLUMN: bool = A::USES_RANK_COLUMN;

    fn entry_aux(&self, node: NodeId) -> u32 {
        self.0.entry_aux(node)
    }

    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute {
        self.0.recompute_span(v, g, weight_scale, states, ctx, out)
    }
}

/// States, iteration counts and the storage traffic must match; the
/// delta handover must read strictly fewer neighbor entries, and its
/// delta floors may only drop recomputations (touched vertices, entries
/// processed and relaxations never exceed the full handover's). Returns
/// the semi-naive run's `(touched_vertices, entries_processed)` for the
/// caller's pins.
fn assert_same_but_smaller_handover(
    semi: (&[DistanceMap], usize, WorkStats),
    full: (&[DistanceMap], usize, WorkStats),
    label: &str,
) -> (u64, u64) {
    assert_eq!(semi.0, full.0, "{label}: states diverged");
    assert_eq!(semi.1, full.1, "{label}: iteration counts diverged");
    assert!(
        semi.2.handover_entries < full.2.handover_entries,
        "{label}: handover {} !< full {}",
        semi.2.handover_entries,
        full.2.handover_entries
    );
    assert_eq!(semi.2.iterations, full.2.iterations, "{label}: hops");
    assert_eq!(semi.2.bytes_copied, full.2.bytes_copied, "{label}: bytes");
    assert_eq!(semi.2.arena_bytes, full.2.arena_bytes, "{label}: arena");
    assert_narrowed_work(&full.2, &semi.2, label);
    touched_entries(&semi.2)
}

#[test]
fn semi_naive_handover_admits_exactly_what_the_full_handover_admits() {
    // The semi-naive runs' `(touched_vertices, entries_processed)`; the
    // full handover (and the semi-naive run before the delta floors)
    // read gnm (382, 1_932), grid (527, 2_323), path (525, 1_901).
    let engine_pins = [(253, 1_366), (291, 1_341), (211, 736)];
    for ((name, g), pin) in workload_graphs().into_iter().zip(engine_pins) {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53F0)));
        let le = LeListAlgorithm::new(Arc::clone(&ranks));
        for threads in [1, 4] {
            let (g, le) = (&g, &le);
            let (semi, full) = with_threads(threads, move || {
                let cap = g.n() + 1;
                (
                    run_to_fixpoint_on(ArenaBackend::new(), le, g, cap),
                    run_to_fixpoint_on(ArenaBackend::new(), &FullHandover(le.clone()), g, cap),
                )
            });
            let got = assert_same_but_smaller_handover(
                (&semi.states, semi.iterations, semi.work),
                (&full.states, full.iterations, full.work),
                &format!("{name}/le/t={threads}"),
            );
            assert_eq!(got, pin, "{name}/le/t={threads}: touched, entries");
        }
    }

    // The oracle: projection rewrites between rounds hand over whole
    // states, residual frontiers carry their deltas into the next round.
    // Pinned as above; the full handover read (19_744, 130_683).
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53F1)));
    let le = LeListAlgorithm::new(ranks);
    let semi = oracle_run::<ArenaBackend, _>(&le, &sim, cap);
    let full = oracle_run::<ArenaBackend, _>(&FullHandover(le.clone()), &sim, cap);
    assert_eq!(semi.fixpoint, full.fixpoint);
    let got = assert_same_but_smaller_handover(
        (&semi.states, semi.iterations, semi.work),
        (&full.states, full.iterations, full.work),
        "oracle",
    );
    assert_eq!(got, (14_180, 108_995), "oracle: touched, entries");
}

/// A random distance map of `len` draws over nodes `0..n`, distances on
/// a half-unit grid below `span / 2`.
fn random_map(rng: &mut StdRng, n: usize, len: usize, span: u32) -> DistanceMap {
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n as NodeId);
            (u, Dist::new(f64::from(rng.gen_range(0..span)) / 2.0))
        })
        .collect()
}

/// One random instance of the absorption rule, checked: node 0 holds an
/// LE-filtered receiver state and node 1 hands it a random delta over
/// the edge `{0, 1}` of random weight `s`. The half-unit grid makes the
/// rule's boundaries (`fl(floor.dist + s) = D`, `floor.aux = R`) common.
/// If the rule absorbs the delta, every entry must be rejected: by the
/// LE definition (an echo or dominated) and by the arena recompute's
/// per-entry test (a hop that hands node 0 the delta unfiltered leaves
/// its state alone). Returns
/// whether the rule absorbed a non-empty delta, and whether it did so
/// at the distance and at the rank boundary.
fn check_absorption(seed: u64) -> (bool, bool, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..10usize);
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(n, &mut rng)));
    let len = rng.gen_range(0..6);
    let mut receiver = random_map(&mut rng, n, len, 12);
    le.filter(&mut receiver);
    let len = rng.gen_range(0..4);
    let delta = random_map(&mut rng, n, len, 16);
    let s = Dist::new(f64::from(rng.gen_range(1..9u32)) / 2.0);

    let mut states = vec![DistanceMap::new(); n];
    states[0] = receiver.clone();
    states[1] = delta.clone();
    let mut store = initial_store(&le, n);
    store.import(&states, |u| le.entry_aux(u));
    let summary = ReceiverSummary::of(&store.get_raw(0));
    let floor = DeltaFloor::of(delta.entries(), |u| le.entry_aux(u));
    if !le.absorbs(summary, floor, s) {
        return (false, false, false);
    }

    for (u, du) in delta.iter() {
        let d = du + s;
        let echo = receiver.get(u) <= d;
        let dominated = receiver
            .iter()
            .any(|(b, db)| le.entry_aux(b) < le.entry_aux(u) && db <= d);
        assert!(echo || dominated, "seed {seed}: ({u}, {d:?}) is admissible");
    }
    let g = Graph::from_edges(n, [(0, 1, s.value())]);
    // A resume seeding node 1 records no delta for it, so node 0 reads
    // all of it entry by entry.
    let mut backend = ArenaBackend::new();
    let ckpt = Checkpoint {
        hop: 0,
        frontier: vec![1],
        states,
    };
    backend.resume(&le, &g, &ckpt).unwrap();
    backend.step(&le, &g, 1.0);
    let hopped = StateBackend::<LeListAlgorithm>::export_states(&backend);
    assert_eq!(hopped[0], receiver, "seed {seed}: arena hop moved");

    match summary {
        Some(r) if !delta.is_empty() => (
            true,
            (floor.dist + s).value() == r.max_dist.value(),
            floor.aux == r.min_aux,
        ),
        _ => (false, false, false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A delta the LE absorption rule absorbs holds no entry the
    /// per-entry echo/domination test would admit.
    #[test]
    fn delta_floor_absorption_rejects_every_entry(seed in any::<u64>()) {
        check_absorption(seed);
    }
}

/// The property above is not vacuous: on a fixed seed range the rule
/// absorbs, and it does so at both of its boundaries (745, 53 and 307
/// of 2,000 seeds).
#[test]
fn delta_floor_absorption_hits_both_boundaries() {
    let (mut absorbed, mut at_dist, mut at_rank) = (0, 0, 0);
    for seed in 0..2_000 {
        let (a, d, r) = check_absorption(seed);
        absorbed += usize::from(a);
        at_dist += usize::from(d);
        at_rank += usize::from(r);
    }
    assert!(
        absorbed >= 500 && at_dist >= 25 && at_rank >= 150,
        "absorbed {absorbed}, at the distance boundary {at_dist}, at the rank boundary {at_rank}"
    );
}

// ---------------------------------------------------------------------
// Dense-block backend: flat matrix kernels must be bit-identical to the
// literal loop — min over f64 is order-independent and every dense
// relaxation computes the same single `x + w` the sparse merges do, so
// the comparison is exact equality, not approximate.
// ---------------------------------------------------------------------

#[test]
fn dense_block_backend_bit_identical_to_literal_loop() {
    for (name, g) in workload_graphs() {
        // APSP: the one dense workload.
        let alg = SourceDetection::apsp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(
            literal.states, dense.states,
            "{name}: dense apsp diverged from the literal loop"
        );
        assert_eq!(literal.iterations, dense.iterations, "{name}");
        assert_eq!(literal.fixpoint, dense.fixpoint, "{name}");
        // Shared schedule with the arena: the scheduling counters agree
        // exactly (entries_processed counts a different currency —
        // dense coordinates — and is not compared), and both skip
        // exactly the clean neighbors.
        assert_eq!(arena.work.edge_relaxations, dense.work.edge_relaxations);
        assert_eq!(arena.work.touched_vertices, dense.work.touched_vertices);
    }
}

#[test]
fn dense_block_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x53EC);
    let g = gnm_graph(180, 520, 1.0..9.0, &mut rng);
    let alg = SourceDetection::apsp(g.n());
    let g = &g;
    let alg = &alg;
    let run = |threads: usize| {
        with_threads(threads, move || {
            run_to_fixpoint_on(DenseBackend::new(None), alg, g, g.n() + 1)
        })
    };
    let reference = literal_fixpoint(alg, g, g.n() + 1);
    let runs = [1, 2, 4].map(|threads| (threads, run(threads)));
    for (threads, dense) in &runs {
        assert_eq!(
            dense.states, reference.states,
            "dense run on {threads} threads diverged"
        );
        assert_eq!(dense.iterations, reference.iterations);
        assert_eq!(dense.fixpoint, reference.fixpoint);
        // And the dense runs agree on every counter (the reduction
        // tree is thread-count independent).
        assert_eq!(dense.work, runs[0].1.work);
    }
}

#[test]
fn dense_oracle_bit_identical_to_literal_oracle_across_threads() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let alg = SourceDetection::apsp(g.n());
    let (alg, sim) = (&alg, &sim);
    let literal = literal_oracle(alg, sim, cap);
    assert!(literal.fixpoint);
    let dense = thread_invariant("apsp/dense", || {
        oracle_run::<DenseBackend, _>(alg, sim, cap)
    });
    assert_oracle_runs_agree(&dense, &literal, "apsp/dense");
    let arena = thread_invariant("apsp/arena", || {
        oracle_run::<ArenaBackend, _>(alg, sim, cap)
    });
    assert_lanes_agree(&dense, &arena, "apsp");
}

/// One literal hop `x ← r^V A x` in place; returns whether it changed
/// anything.
fn literal_hop<A: MbfAlgorithm>(alg: &A, g: &Graph, states: &mut Vec<A::M>) -> bool {
    let next = iterate(alg, g, states).0;
    let changed = next != *states;
    *states = next;
    changed
}

// ---------------------------------------------------------------------
// Property fuzz: random (possibly disconnected) graphs.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pruned merges and the carry-over oracle schedule agree with their
    /// references on arbitrary random graphs (two components keep the
    /// disconnected case in every batch).
    #[test]
    fn random_graphs_pruned_and_carry_over_match_reference(
        n in 3usize..26,
        extra in 0usize..36,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n2 = 1 + n / 3;
        let mut edges: Vec<(NodeId, NodeId, f64)> =
            gnm_graph(n, (n - 1 + extra).min(n * (n - 1) / 2), 1.0..9.0, &mut rng)
                .edges()
                .collect();
        if n2 >= 2 {
            edges.extend(
                gnm_graph(n2, n2 - 1, 1.0..9.0, &mut rng)
                    .edges()
                    .map(|(u, v, w)| (u + n as NodeId, v + n as NodeId, w)),
            );
        }
        let g = Graph::from_edges(n + n2, edges);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));

        // Engine: the arena's pruned merge vs the literal loop's
        // merge-then-filter.
        let le = LeListAlgorithm::new(Arc::clone(&ranks));
        let pruned = run_to_fixpoint_on(ArenaBackend::new(), &le, &g, g.n() + 1);
        let literal = literal_fixpoint(&le, &g, g.n() + 1);
        prop_assert!(pruned.work.entries_processed <= literal.work.entries_processed);
        prop_assert_eq!(&pruned.states, &literal.states);
        prop_assert_eq!(pruned.iterations, literal.iterations);
        prop_assert_eq!(pruned.fixpoint, literal.fixpoint);

        // Oracle: the carry-over arena lane vs the literal oracle loop.
        let sim = SimulatedGraph::without_hopset(&g, 12, 0.2, &mut rng);
        let carry = oracle_run::<ArenaBackend, _>(&le, &sim, 3 * g.n());
        let literal = literal_oracle(&le, &sim, 3 * g.n());
        prop_assert_eq!(&carry.states, &literal.states);
        prop_assert_eq!(carry.iterations, literal.iterations);
        prop_assert_eq!(carry.fixpoint, literal.fixpoint);
        prop_assert!(carry.work.touched_vertices <= literal.work.touched_vertices);
    }

    /// Sparse external edits (copy-on-write projection rewrites +
    /// `mark_dirty` carry-over) interleaved with forced pool compactions
    /// and a mid-run checkpoint resume keep the semi-naive arena backend
    /// bit-identical to the literal `iterate` on the same edited
    /// vectors, hop for hop, on arbitrary random graphs.
    #[test]
    fn random_sparse_edits_and_compactions_keep_backends_identical(
        n in 4usize..24,
        extra in 0usize..30,
        seed in any::<u64>(),
        rounds in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnm_graph(n, (n - 1 + extra).min(n * (n - 1) / 2), 1.0..9.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let alg = LeListAlgorithm::new(Arc::clone(&ranks));

        let mut literal_states = initial_states(&alg, g.n());
        let mut backend = ArenaBackend::new();
        backend.start(&alg, &g).unwrap();
        let export = |b: &ArenaBackend| StateBackend::<LeListAlgorithm>::export_states(b);

        let mut salt = seed | 1;
        for round in 0..rounds {
            // A few sparse external edits, applied to both backends.
            for e in 0..(1 + round % 3) {
                salt = salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((salt >> 33) as usize % g.n()) as NodeId;
                literal_states[v as usize] = alg.init(((v as usize + e + 1) % g.n()) as NodeId);
                backend.project(&alg, &literal_states, v, true);
                Lane::<LeListAlgorithm>::mark_dirty(&mut backend, &g, &[v]);
            }
            // Interleave forced compactions: spans move, states must
            // not, and the subsequent hops must stay identical.
            if salt.is_multiple_of(2) {
                backend.compact();
            }
            for _ in 0..=(salt % 3) as usize {
                let c_literal = literal_hop(&alg, &g, &mut literal_states);
                let (_, c_arena) = backend.step(&alg, &g, 1.0);
                prop_assert_eq!(c_literal, c_arena);
            }
            prop_assert_eq!(&export(&backend), &literal_states);
        }
        // Capture the run mid-flight: a resumed backend starts without
        // deltas (whole spans for its seeded frontier) and must land on
        // the same fixpoint as both live backends.
        let cap = 2 * g.n() + 4;
        let ckpt = Checkpoint {
            hop: 0,
            frontier: StateBackend::<LeListAlgorithm>::frontier(&backend).to_vec(),
            states: export(&backend),
        };
        let (resumed, _) =
            try_resume_on(ArenaBackend::new(), &alg, &g, cap, &ckpt)
                .expect("resume from a consistent capture cannot fail");
        // Drive both to the fixpoint and compare once more.
        for _ in 0..cap {
            let c_literal = literal_hop(&alg, &g, &mut literal_states);
            let (_, c_arena) = backend.step(&alg, &g, 1.0);
            prop_assert_eq!(c_literal, c_arena);
            if !c_literal {
                break;
            }
        }
        prop_assert_eq!(&export(&backend), &literal_states);
        prop_assert!(resumed.fixpoint);
        prop_assert_eq!(resumed.states, literal_states);
    }

}
