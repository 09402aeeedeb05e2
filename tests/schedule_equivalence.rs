//! Differential tests for the hot-path schedules: the rank-pruned merge
//! kernels, the frontier-list schedule, the dense block and the oracle's
//! carry-over seeding must all be **bit-identical** to their references
//! (merge-everything-then-filter, the literal `iterate` loop, and the
//! literal oracle loop, which restarts every level all-dirty from its
//! projection each round) — pruning and carry-over may only change
//! *work counters*, never states, iteration counts, or fixpoint flags.
//! The backend-against-reference tests run their slices of the
//! conformance matrix (`tests/common/matrix.rs`, with the work pins);
//! the rest check what is specific to a schedule: a `mark_dirty` seed
//! against an all-dirty restart, the re-projection of slots the
//! aggregation changed, the live restart and resume of a backend
//! mid-run, the semi-naive delta handover and its absorption rule,
//! random graphs, edits and compactions, and the FRT pipeline against
//! the unpruned literal oracle loop.

mod common;

use common::{
    assert_narrowed_work, literal_fixpoint, literal_oracle, oracle_fixture, oracle_run,
    with_threads, workload_graphs,
};
use metric_tree_embedding::algebra::store::{EpochStore, SpanOut};
use metric_tree_embedding::algebra::NodeId;
use metric_tree_embedding::core::arena::{
    initial_store, ArenaBackend, ArenaMbfAlgorithm, DeltaFloor, ReceiverSummary, RecomputeCtx,
    SpanRecompute,
};
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{initial_states, iterate, MbfAlgorithm, MbfRun};
use metric_tree_embedding::core::frt::le_list::{le_lists_oracle, LeListAlgorithm, Ranks};
use metric_tree_embedding::core::frt::LeList;
use metric_tree_embedding::core::oracle::{Lane, OracleBackend};
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, Checkpoint, StateBackend,
};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Each backend against its literal reference: slices of the matrix.
// The idle and settled slices run the oracle's LE lists on the
// fixtures whose work pins rise without the idle-level skip and when
// settled levels reset their relays.
// ---------------------------------------------------------------------

crate::slice_tests! {
    pruned_le_merge_bit_identical_to_reference_and_cheaper,
    pruned_le_merge_bit_identical_across_thread_counts,
    arena_backend_bit_identical_to_literal_loop,
    source_masked_le_lists_on_arena_match_literal_and_resume,
    arena_engine_bit_identical_across_thread_counts,
    dense_block_backend_bit_identical_to_literal_loop,
    dense_block_bit_identical_across_thread_counts,
    oracle_carry_over_bit_identical_to_all_dirty_restart,
    oracle_carry_over_bit_identical_across_thread_counts,
    arena_oracle_bit_identical_to_literal_oracle,
    oracle_idle_levels_skip_bit_identically,
    oracle_settled_levels_keep_relays_bit_identically,
    dense_oracle_bit_identical_to_literal_oracle_across_threads,
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
        assert_eq!(arena.states, literal.states, "seed {seed}: diverged");
        assert_eq!(arena.iterations, literal.iterations, "seed {seed}");
        assert_eq!(arena.fixpoint, literal.fixpoint, "seed {seed}");
        assert!(arena.work.touched_vertices <= literal.work.touched_vertices);
    }
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
    (semi.2.touched_vertices, semi.2.entries_processed)
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

/// One literal hop `x ← r^V A x` in place; returns whether it changed
/// anything.
fn literal_hop<A: MbfAlgorithm>(alg: &A, g: &Graph, states: &mut Vec<A::M>) -> bool {
    let next = iterate(alg, g, states).0;
    let changed = next != *states;
    *states = next;
    changed
}

// ---------------------------------------------------------------------
// Property fuzz: random (possibly disconnected) graphs, random edits.
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
