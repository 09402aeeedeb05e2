//! Differential tests for the PR 3 hot-path rewrites: the rank-pruned
//! merge kernels, the frontier-list schedule, and the oracle's
//! carry-over seeding must all be **bit-identical** to the PR 1/PR 2
//! reference paths (merge-everything-then-filter, bitset-style full
//! recompute scheduling, all-dirty level restarts) — pruning and
//! carry-over may only change *work counters*, never states, iteration
//! counts, or fixpoint flags. Each comparison also runs under thread
//! pools of size 1 and 4, pinning the `MTE_THREADS` determinism
//! guarantee through the new schedule.

mod common;

use common::literal_fixpoint;
use metric_tree_embedding::algebra::store::{EpochStore, SpanOut};
use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::arena::{
    initial_store, oracle_run_arena_with_schedule, ArenaBackend, ArenaEngine, ArenaMbfAlgorithm,
    RecomputeCtx, SpanRecompute,
};
use metric_tree_embedding::core::catalog::{Connectivity, SourceDetection, WidestPaths};
use metric_tree_embedding::core::dense::{oracle_run_dense_with_schedule, DenseBackend};
use metric_tree_embedding::core::engine::{initial_states, MbfAlgorithm, MbfEngine, OwnedBackend};
use metric_tree_embedding::core::frt::le_list::{le_lists_oracle, LeListAlgorithm, Ranks};
use metric_tree_embedding::core::frt::LeList;
use metric_tree_embedding::core::oracle::{oracle_run_with_schedule, OracleRun};
use metric_tree_embedding::core::run::{run_to_fixpoint_on, try_resume_on, Checkpoint};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// [`LeListAlgorithm`] stripped of its `recompute_into` override: the
/// delegating wrapper inherits the trait's default merge-everything-
/// then-filter pipeline, i.e. the PR 1 reference path the pruned merge
/// must reproduce bit for bit.
struct UnprunedLeList(LeListAlgorithm);

impl MbfAlgorithm for UnprunedLeList {
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

    fn propagate_into(&self, acc: &mut DistanceMap, state: &DistanceMap, coeff: &MinPlus) {
        self.0.propagate_into(acc, state, coeff);
    }

    fn state_size(&self, x: &DistanceMap) -> usize {
        self.0.state_size(x)
    }
}

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
// Engine level: pruned merge kernels vs merge-then-filter reference.
// ---------------------------------------------------------------------

#[test]
fn pruned_le_merge_bit_identical_to_reference_and_cheaper() {
    for (name, g) in workload_graphs() {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E2)));
        let pruned_alg = LeListAlgorithm::new(Arc::clone(&ranks));
        let reference_alg = UnprunedLeList(LeListAlgorithm::new(Arc::clone(&ranks)));
        let pruned = run_to_fixpoint_on(OwnedBackend::new(), &pruned_alg, &g, g.n() + 1);
        let reference = run_to_fixpoint_on(OwnedBackend::new(), &reference_alg, &g, g.n() + 1);
        // The literal loop merges everything, then filters, too.
        let literal = literal_fixpoint(&pruned_alg, &g, g.n() + 1);
        for (want, label) in [(&reference, "merge-then-filter"), (&literal, "literal")] {
            assert_eq!(
                pruned.states, want.states,
                "{name}: pruned merge diverged from {label}"
            );
            assert_eq!(pruned.iterations, want.iterations, "{name}/{label}");
            assert_eq!(pruned.fixpoint, want.fixpoint, "{name}/{label}");
        }
        // The pruned path admits a strict subset of entries on these
        // workloads (Lemma 7.6: most incoming entries are dominated).
        assert!(
            pruned.work.entries_processed < reference.work.entries_processed,
            "{name}: pruned {} !< reference {}",
            pruned.work.entries_processed,
            reference.work.entries_processed
        );
        // Scheduling counters are untouched by the merge kernel.
        assert_eq!(
            pruned.work.edge_relaxations,
            reference.work.edge_relaxations
        );
        assert_eq!(
            pruned.work.touched_vertices,
            reference.work.touched_vertices
        );
    }
}

#[test]
fn pruned_le_merge_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x53E3);
    let g = gnm_graph(300, 900, 1.0..9.0, &mut rng);
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let g = &g;
    let run = |threads: usize, pruned: bool| {
        let ranks = Arc::clone(&ranks);
        with_threads(threads, move || {
            if pruned {
                run_to_fixpoint_on(
                    OwnedBackend::new(),
                    &LeListAlgorithm::new(ranks),
                    g,
                    g.n() + 1,
                )
            } else {
                run_to_fixpoint_on(
                    OwnedBackend::new(),
                    &UnprunedLeList(LeListAlgorithm::new(ranks)),
                    g,
                    g.n() + 1,
                )
            }
        })
    };
    let reference = run(1, false);
    for threads in [1, 4] {
        let pruned = run(threads, true);
        assert_eq!(
            pruned.states, reference.states,
            "pruned run on {threads} threads diverged"
        );
        assert_eq!(pruned.iterations, reference.iterations);
    }
    assert_eq!(run(4, false).states, reference.states);
}

// ---------------------------------------------------------------------
// Engine level: `mark_dirty` carry-over vs all-dirty restart.
// ---------------------------------------------------------------------

#[test]
fn mark_dirty_carry_over_matches_all_dirty_restart() {
    let mut rng = StdRng::seed_from_u64(0x53E4);
    let g = gnm_graph(90, 260, 1.0..8.0, &mut rng);
    let alg = SourceDetection::k_ssp(g.n(), 4);

    // Run a few hops so the continuing engine holds a genuine residual
    // frontier (the run is not yet at its fixpoint).
    let mut states = initial_states(&alg, g.n());
    let mut carry_engine = MbfEngine::new();
    carry_engine.mark_all_dirty(&g);
    for _ in 0..3 {
        carry_engine.step(&alg, &g, &mut states, 1.0);
    }

    // External sparse edit: re-seed a few vertices, as the oracle's
    // projection diff does between simulated rounds.
    let edited: Vec<NodeId> = vec![3, 41, 77];
    for &v in &edited {
        states[v as usize] = alg.init((v + 1) % g.n() as NodeId);
    }
    let mut restart_states = states.clone();

    // Carry-over: seed only the edited vertices on the live engine.
    carry_engine.mark_dirty(&g, edited.iter().copied());
    // Reference: a fresh engine restarted all-dirty on the same vector.
    let mut restart_engine = MbfEngine::new();
    restart_engine.mark_all_dirty(&g);

    for hop in 0..g.n() + 1 {
        let (_, carry_changed) = carry_engine.step(&alg, &g, &mut states, 1.0);
        let (_, restart_changed) = restart_engine.step(&alg, &g, &mut restart_states, 1.0);
        assert_eq!(
            states, restart_states,
            "hop {hop}: carry-over schedule diverged from all-dirty restart"
        );
        if !carry_changed && !restart_changed {
            return;
        }
    }
    panic!("no fixpoint within n + 1 hops");
}

// ---------------------------------------------------------------------
// Oracle level: projection carry-over vs all-dirty level restarts.
// ---------------------------------------------------------------------

fn oracle_fixture() -> (Graph, SimulatedGraph) {
    let mut rng = StdRng::seed_from_u64(0x53E5);
    let g = gnm_graph(140, 380, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 24, 0.15, &mut rng);
    (g, sim)
}

fn assert_oracle_runs_agree<M: PartialEq + std::fmt::Debug>(
    carry: &OracleRun<M>,
    restart: &OracleRun<M>,
    label: &str,
) {
    assert_eq!(
        carry.states, restart.states,
        "{label}: carry-over diverged from all-dirty restart"
    );
    assert_eq!(carry.h_iterations, restart.h_iterations, "{label}");
    assert_eq!(carry.fixpoint, restart.fixpoint, "{label}");
    assert!(
        carry.work.touched_vertices <= restart.work.touched_vertices,
        "{label}: carry-over touched {} > restart {}",
        carry.work.touched_vertices,
        restart.work.touched_vertices
    );
}

#[test]
fn oracle_carry_over_bit_identical_to_all_dirty_restart() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let kssp = SourceDetection::k_ssp(g.n(), 5);
    let carry = oracle_run_with_schedule(&kssp, &sim, cap, true);
    let restart = oracle_run_with_schedule(&kssp, &sim, cap, false);
    assert_oracle_runs_agree(&carry, &restart, "k-ssp");

    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E6)));
    let le = LeListAlgorithm::new(ranks);
    let carry = oracle_run_with_schedule(&le, &sim, cap, true);
    let restart = oracle_run_with_schedule(&le, &sim, cap, false);
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
        let restart = oracle_run_with_schedule(&le, &sim, cap, false);
        let owned = oracle_run_with_schedule(&le, &sim, cap, true);
        assert_oracle_runs_agree(&owned, &restart, &format!("owned seed {seed}"));
        let arena = oracle_run_arena_with_schedule(&le, &sim, cap, true);
        assert_oracle_runs_agree(&arena, &restart, &format!("arena seed {seed}"));
    }
}

#[test]
fn oracle_carry_over_bit_identical_across_thread_counts() {
    let (g, sim) = oracle_fixture();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E7)));
    let cap = 4 * g.n();
    let run = |threads: usize, carry_over: bool| {
        let ranks = Arc::clone(&ranks);
        let sim = &sim;
        with_threads(threads, move || {
            oracle_run_with_schedule(&LeListAlgorithm::new(ranks), sim, cap, carry_over)
        })
    };
    let reference = run(1, false);
    for threads in [1, 4] {
        for carry_over in [true, false] {
            let r = run(threads, carry_over);
            assert_eq!(
                r.states, reference.states,
                "{threads} threads, carry_over {carry_over}: states diverged"
            );
            assert_eq!(r.h_iterations, reference.h_iterations);
            assert_eq!(r.fixpoint, reference.fixpoint);
        }
    }
}

/// Runs the owned and arena LE lanes and the dense APSP lane with
/// carry-over under pools of 1 and 4 threads, asserts each equals the
/// all-dirty reference (which resets every slot of every level every
/// round), and returns the LE reference and arena runs for the caller's
/// work pins.
fn carry_over_lanes_equal_reference(
    g: &Graph,
    sim: &SimulatedGraph,
    rank_seed: u64,
) -> (OracleRun<DistanceMap>, OracleRun<DistanceMap>) {
    let cap = 4 * g.n();
    let le = LeListAlgorithm::new(Arc::new(Ranks::sample(
        g.n(),
        &mut StdRng::seed_from_u64(rank_seed),
    )));
    let apsp = SourceDetection::apsp(g.n());
    let (le, apsp) = (&le, &apsp);

    let reference = oracle_run_with_schedule(le, sim, cap, false);
    assert!(reference.fixpoint);
    let owned = thread_invariant("le/owned", || oracle_run_with_schedule(le, sim, cap, true));
    assert_oracle_runs_agree(&owned, &reference, "le/owned");
    let arena = thread_invariant("le/arena", || {
        oracle_run_arena_with_schedule(le, sim, cap, true)
    });
    assert_oracle_runs_agree(&arena, &reference, "le/arena");
    assert_lanes_agree(&owned, &arena, "le");

    let apsp_reference = oracle_run_with_schedule(apsp, sim, cap, false);
    let dense = thread_invariant("apsp/dense", || {
        oracle_run_dense_with_schedule(apsp, sim, cap, true)
    });
    assert_oracle_runs_agree(&dense, &apsp_reference, "apsp/dense");
    (reference, arena)
}

/// `(hops, touched_vertices, entries_processed)` of a run.
fn work_pin<M>(run: &OracleRun<M>) -> (u64, u64, u64) {
    (
        run.hops,
        run.work.touched_vertices,
        run.work.entries_processed,
    )
}

/// A level whose projected input `P_λ x` did not change since its last
/// executed round keeps that round's output instead of recomputing it.
/// Every lane must still equal the all-dirty reference (which never
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
    let (reference, arena) = carry_over_lanes_equal_reference(&g, &sim, 0x53F0);
    // The reference runs every level in every round.
    assert_eq!(
        (reference.hops, reference.work.touched_vertices),
        (846, 29_261),
        "le/reference: hops, touched_vertices"
    );
    // Without the skip: 846 hops, 29,261 touched, 160,134 entries
    // (566 / 20,796 / 118,561 with the skip but without kept relays).
    assert_eq!(
        work_pin(&arena),
        (557, 20_608, 116_677),
        "le/arena: hops, touched_vertices, entries_processed"
    );
}

/// A settled level (its last round's hops reached the fixpoint within
/// `d`) keeps its relay slots instead of resetting them to `⊥`. Every
/// lane must still equal the all-dirty reference, and the arena LE
/// run's work is pinned: resetting the relays replays their waves and
/// raises all three counters.
#[test]
fn oracle_settled_levels_keep_relays_bit_identically() {
    // With `d = 24` every level's hops reach their fixpoint within `d`,
    // so every round after the priming one keeps the relays.
    let (g, sim) = oracle_fixture();
    let (_, arena) = carry_over_lanes_equal_reference(&g, &sim, 0x53F1);
    // Resetting the relays: 305 hops, 28,602 touched, 206,005 entries.
    assert_eq!(
        work_pin(&arena),
        (258, 19_744, 130_683),
        "le/arena: hops, touched_vertices, entries_processed"
    );
}

// ---------------------------------------------------------------------
// Full FRT pipeline: production path (pruned merges + carry-over) vs
// the unpruned all-dirty reference, across thread counts.
// ---------------------------------------------------------------------

#[test]
fn frt_le_list_pipeline_matches_unpruned_all_dirty_reference() {
    let (g, sim) = oracle_fixture();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E8)));
    let cap = 4 * g.n();

    // The PR 1/PR 2 reference: default recompute (merge everything,
    // then filter) with every level restarting all-dirty each round.
    let reference = oracle_run_with_schedule(
        &UnprunedLeList(LeListAlgorithm::new(Arc::clone(&ranks))),
        &sim,
        cap,
        false,
    );
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
        assert_eq!(h_iterations, reference.h_iterations, "{threads} threads");
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
// Storage backends: the epoch-arena engine/oracle must be bit-identical
// to the owned-Vec reference — states, iteration counts, fixpoint
// flags, and the model-level schedule counters (only the storage
// counters may differ between backends).
// ---------------------------------------------------------------------

fn assert_backends_agree<A>(alg: &A, g: &Graph, label: &str)
where
    A: ArenaMbfAlgorithm,
{
    let cap = g.n() + 1;
    let literal = literal_fixpoint(alg, g, cap);
    let owned = run_to_fixpoint_on(OwnedBackend::new(), alg, g, cap);
    let arena = run_to_fixpoint_on(ArenaBackend::new(), alg, g, cap);
    assert_eq!(
        literal.states, arena.states,
        "{label}: arena backend diverged from the literal loop"
    );
    assert_eq!(literal.iterations, arena.iterations, "{label}");
    assert_eq!(literal.fixpoint, arena.fixpoint, "{label}");
    // Absorption-stable skipping never changes which entries are
    // admitted — only how many merges run — so `entries_processed`
    // matches the owned backend exactly while relaxations may only
    // shrink.
    assert_eq!(
        owned.work.entries_processed, arena.work.entries_processed,
        "{label}"
    );
    assert!(
        arena.work.edge_relaxations <= owned.work.edge_relaxations,
        "{label}: arena relaxed more edges than owned"
    );
    assert_eq!(owned.work.touched_vertices, arena.work.touched_vertices);
}

#[test]
fn arena_engine_bit_identical_to_owned_reference() {
    for (name, g) in workload_graphs() {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53E9)));
        assert_backends_agree(
            &LeListAlgorithm::new(Arc::clone(&ranks)),
            &g,
            &format!("{name}/le"),
        );
        assert_backends_agree(
            &SourceDetection::k_ssp(g.n(), 4),
            &g,
            &format!("{name}/kssp"),
        );
        assert_backends_agree(
            &SourceDetection::sssp(g.n(), 1),
            &g,
            &format!("{name}/sssp"),
        );
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

/// Two lanes of the oracle's level loop ran the same schedule: equal
/// states, round counts and fixpoint flags, and — since every lane hops
/// the same frontier — equal hop and touched-vertex counts. The other
/// counters are in each backend's own currency.
fn assert_lanes_agree<M: PartialEq + std::fmt::Debug>(
    a: &OracleRun<M>,
    b: &OracleRun<M>,
    label: &str,
) {
    assert_eq!(a.states, b.states, "{label}: lanes diverged");
    assert_eq!(a.h_iterations, b.h_iterations, "{label}");
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
    f: impl Fn() -> OracleRun<M> + Send + Copy,
) -> OracleRun<M> {
    let r1 = with_threads(1, f);
    let r4 = with_threads(4, f);
    assert_eq!(r1.states, r4.states, "{label}: thread divergence");
    assert_eq!(r1.h_iterations, r4.h_iterations, "{label}");
    assert_eq!(r1.work, r4.work, "{label}: work differs across threads");
    r1
}

#[test]
fn arena_oracle_bit_identical_to_owned_oracle() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53EB)));
    let le = LeListAlgorithm::new(Arc::clone(&ranks));
    let kssp = SourceDetection::k_ssp(g.n(), 5);
    let (le, kssp, sim) = (&le, &kssp, &sim);
    for carry_over in [true, false] {
        let label = format!("oracle/carry={carry_over}");
        let owned = thread_invariant(&format!("{label}/owned"), || {
            oracle_run_with_schedule(le, sim, cap, carry_over)
        });
        let arena = thread_invariant(&format!("{label}/arena"), || {
            oracle_run_arena_with_schedule(le, sim, cap, carry_over)
        });
        assert_lanes_agree(&owned, &arena, &label);
        // The semi-naive handover reads deltas, never a different
        // admitted set: the paper's work counter must match the
        // owned oracle exactly.
        assert_eq!(
            owned.work.entries_processed, arena.work.entries_processed,
            "{label}: entries_processed"
        );

        let label = format!("{label}/kssp");
        let owned = thread_invariant(&format!("{label}/owned"), || {
            oracle_run_with_schedule(kssp, sim, cap, carry_over)
        });
        let arena = thread_invariant(&format!("{label}/arena"), || {
            oracle_run_arena_with_schedule(kssp, sim, cap, carry_over)
        });
        assert_lanes_agree(&owned, &arena, &label);
    }
}

// ---------------------------------------------------------------------
// Semi-naive handover: a dirty neighbor handing over only its delta must
// admit exactly what the full handover admits.
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

/// Everything but the handover volume must match, and the delta
/// handover must read strictly fewer neighbor entries.
fn assert_same_but_smaller_handover(
    semi: (&[DistanceMap], usize, WorkStats),
    full: (&[DistanceMap], usize, WorkStats),
    label: &str,
) {
    assert_eq!(semi.0, full.0, "{label}: states diverged");
    assert_eq!(semi.1, full.1, "{label}: iteration counts diverged");
    assert!(
        semi.2.handover_entries < full.2.handover_entries,
        "{label}: handover {} !< full {}",
        semi.2.handover_entries,
        full.2.handover_entries
    );
    let strip = |w: WorkStats| WorkStats {
        handover_entries: 0,
        ..w
    };
    assert_eq!(strip(semi.2), strip(full.2), "{label}: work diverged");
}

#[test]
fn semi_naive_handover_admits_exactly_what_the_full_handover_admits() {
    for (name, g) in workload_graphs() {
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
            assert_same_but_smaller_handover(
                (&semi.states, semi.iterations, semi.work),
                (&full.states, full.iterations, full.work),
                &format!("{name}/le/t={threads}"),
            );
        }
    }

    // The oracle: projection rewrites between rounds hand over whole
    // states, residual frontiers carry their deltas into the next round.
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(0x53F1)));
    let le = LeListAlgorithm::new(ranks);
    for carry_over in [true, false] {
        let semi = oracle_run_arena_with_schedule(&le, &sim, cap, carry_over);
        let full = oracle_run_arena_with_schedule(&FullHandover(le.clone()), &sim, cap, carry_over);
        assert_eq!(semi.fixpoint, full.fixpoint);
        assert_same_but_smaller_handover(
            (&semi.states, semi.h_iterations, semi.work),
            (&full.states, full.h_iterations, full.work),
            &format!("oracle/carry={carry_over}"),
        );
    }
}

// ---------------------------------------------------------------------
// Dense-block backend: flat matrix kernels must be bit-identical to the
// literal loop — min over f64 is order-independent and every dense
// relaxation computes the same single `x + w` the sparse merges do, so
// the comparison is exact equality, not approximate.
// ---------------------------------------------------------------------

#[test]
fn dense_block_backend_bit_identical_to_owned() {
    for (name, g) in workload_graphs() {
        // APSP: the headline dense workload.
        let alg = SourceDetection::apsp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(
            literal.states, dense.states,
            "{name}: dense apsp diverged from the literal loop"
        );
        assert_eq!(literal.iterations, dense.iterations, "{name}");
        assert_eq!(literal.fixpoint, dense.fixpoint, "{name}");
        // Shared schedule: the scheduling counters agree exactly
        // (entries_processed counts a different currency — dense
        // coordinates — and is not compared).
        // The dense backend may skip provably-absorbed merges, so its
        // relaxation count can only be lower.
        assert!(dense.work.edge_relaxations <= owned.work.edge_relaxations);
        assert_eq!(owned.work.touched_vertices, dense.work.touched_vertices);

        // Boolean semiring: all-pairs connectivity.
        let alg = Connectivity::all_pairs(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states, "{name}/connectivity");
        assert_eq!(literal.iterations, dense.iterations);

        // Max-min semiring: all-pairs widest paths.
        let alg = WidestPaths::apwp(g.n());
        let literal = literal_fixpoint(&alg, &g, g.n() + 1);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &g, g.n() + 1);
        assert_eq!(literal.states, dense.states, "{name}/widest");
        assert_eq!(literal.iterations, dense.iterations);
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
    for threads in [1, 4] {
        let dense = run(threads);
        assert_eq!(
            dense.states, reference.states,
            "dense run on {threads} threads diverged"
        );
        assert_eq!(dense.iterations, reference.iterations);
        assert_eq!(dense.fixpoint, reference.fixpoint);
    }
    // And the two dense runs agree on every counter (the reduction
    // tree is thread-count independent).
    assert_eq!(run(1).work, run(4).work);
}

#[test]
fn dense_oracle_bit_identical_to_owned_oracle_across_threads() {
    let (g, sim) = oracle_fixture();
    let cap = 4 * g.n();
    let alg = SourceDetection::apsp(g.n());
    let (alg, sim) = (&alg, &sim);
    // One production-schedule reference for every run pins APSP
    // carry-over ≡ all-dirty restart as well as lane agreement.
    let reference = oracle_run_with_schedule(alg, sim, cap, true);
    assert!(reference.fixpoint);
    for carry_over in [true, false] {
        let label = format!("apsp/carry={carry_over}");
        let owned = thread_invariant(&format!("{label}/owned"), || {
            oracle_run_with_schedule(alg, sim, cap, carry_over)
        });
        let dense = thread_invariant(&format!("{label}/dense"), || {
            oracle_run_dense_with_schedule(alg, sim, cap, carry_over)
        });
        assert_lanes_agree(&owned, &dense, &label);
        assert_eq!(
            dense.states, reference.states,
            "{label}: diverged from the carry-over reference"
        );
        assert_eq!(dense.h_iterations, reference.h_iterations, "{label}");
        assert_eq!(dense.fixpoint, reference.fixpoint, "{label}");
    }
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

        // Engine: pruned vs merge-then-filter, and vs the literal loop.
        let le = LeListAlgorithm::new(Arc::clone(&ranks));
        let pruned = run_to_fixpoint_on(OwnedBackend::new(), &le, &g, g.n() + 1);
        let reference = run_to_fixpoint_on(OwnedBackend::new(), &UnprunedLeList(le.clone()), &g, g.n() + 1);
        prop_assert_eq!(&pruned.states, &reference.states);
        prop_assert_eq!(pruned.iterations, reference.iterations);
        prop_assert!(pruned.work.entries_processed <= reference.work.entries_processed);
        let literal = literal_fixpoint(&le, &g, g.n() + 1);
        prop_assert_eq!(&pruned.states, &literal.states);
        prop_assert_eq!(pruned.iterations, literal.iterations);
        prop_assert_eq!(pruned.fixpoint, literal.fixpoint);

        // Oracle: carry-over vs all-dirty restarts.
        let sim = SimulatedGraph::without_hopset(&g, 12, 0.2, &mut rng);
        let carry = oracle_run_with_schedule(&le, &sim, 3 * g.n(), true);
        let restart = oracle_run_with_schedule(&le, &sim, 3 * g.n(), false);
        prop_assert_eq!(&carry.states, &restart.states);
        prop_assert_eq!(carry.h_iterations, restart.h_iterations);
        prop_assert_eq!(carry.fixpoint, restart.fixpoint);
        prop_assert!(carry.work.touched_vertices <= restart.work.touched_vertices);

        // Storage backends: arena engine and oracle vs the owned paths.
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &le, &g, g.n() + 1);
        let owned = run_to_fixpoint_on(OwnedBackend::new(), &le, &g, g.n() + 1);
        prop_assert_eq!(&arena.states, &owned.states);
        prop_assert_eq!(arena.iterations, owned.iterations);
        let arena_oracle =
            oracle_run_arena_with_schedule(&le, &sim, 3 * g.n(), true);
        prop_assert_eq!(&arena_oracle.states, &carry.states);
        prop_assert_eq!(arena_oracle.h_iterations, carry.h_iterations);
        prop_assert_eq!(arena_oracle.fixpoint, carry.fixpoint);
    }

    /// Sparse external edits (copy-on-write `assign` + `mark_dirty`
    /// carry-over) interleaved with forced pool compactions and a
    /// mid-run checkpoint resume keep the semi-naive arena engine
    /// bit-identical to the owned engine, hop for hop, on arbitrary
    /// random graphs.
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

        let mut owned_states = initial_states(&alg, g.n());
        let mut owned_engine = MbfEngine::new();
        owned_engine.mark_all_dirty(&g);
        let mut store = initial_store(&alg, g.n());
        let mut engine = ArenaEngine::new();
        engine.mark_all_dirty(&g);

        let mut salt = seed | 1;
        for round in 0..rounds {
            // A few sparse external edits, applied to both backends.
            for e in 0..(1 + round % 3) {
                salt = salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((salt >> 33) as usize % g.n()) as NodeId;
                let edit = alg.init(((v as usize + e + 1) % g.n()) as NodeId);
                owned_states[v as usize] = edit.clone();
                owned_engine.mark_dirty(&g, [v]);
                store.assign(v, edit.entries(), |u| alg.entry_aux(u));
                engine.mark_dirty(&g, [v]);
            }
            // Interleave forced compactions: spans move, states must
            // not, and the subsequent hops must stay identical.
            if salt.is_multiple_of(2) {
                store.compact();
            }
            for _ in 0..=(salt % 3) as usize {
                let (_, c_owned) = owned_engine.step(&alg, &g, &mut owned_states, 1.0);
                let (_, c_arena) = engine.step(&alg, &g, &mut store, 1.0);
                prop_assert_eq!(c_owned, c_arena);
            }
            prop_assert_eq!(&store.export(), &owned_states);
        }
        // Capture the run mid-flight: a resumed engine starts without
        // deltas (whole spans for its seeded frontier) and must land on
        // the same fixpoint as both live engines.
        let cap = 2 * g.n() + 4;
        let ckpt = Checkpoint {
            hop: 0,
            frontier: engine.frontier().to_vec(),
            states: store.export(),
        };
        let (resumed, _) =
            try_resume_on(ArenaBackend::new(), &alg, &g, cap, &ckpt)
                .expect("resume from a consistent capture cannot fail");
        // Drive both to the fixpoint and compare once more.
        for _ in 0..cap {
            let (_, c_owned) = owned_engine.step(&alg, &g, &mut owned_states, 1.0);
            let (_, c_arena) = engine.step(&alg, &g, &mut store, 1.0);
            prop_assert_eq!(c_owned, c_arena);
            if !c_owned {
                break;
            }
        }
        prop_assert_eq!(&store.export(), &owned_states);
        prop_assert!(resumed.fixpoint);
        prop_assert_eq!(resumed.states, owned_states);
    }

}
