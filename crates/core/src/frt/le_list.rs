//! Least-Element (LE) lists (Section 7.1/7.2 of the paper; first
//! introduced by Cohen \[12, 14\]).
//!
//! Fix a uniformly random order (here: a random permutation rank) on `V`.
//! The LE list of `v` keeps, from `{(dist(v, w), w) | w ∈ V}`, exactly the
//! pairs not *dominated* — `(d', w')` dominates `(d, w)` iff `w' < w` and
//! `d' ≤ d`. Equivalently: for every radius `r`, the list can answer
//! "which is the smallest node within distance `r` of `v`?" — all an FRT
//! tree needs.
//!
//! Computing all LE lists is MBF-like (Definition 7.3, Lemma 7.5):
//! `S = S_{min,+}`, `M = D`, `r` = LE-domination filter, `x⁽⁰⁾_v = {v↦0}`.
//! Lemma 7.6 bounds every intermediate filtered list by `O(log n)` w.h.p.,
//! which is what makes each iteration cheap (Lemma 7.8).
//!
//! The hot path exploits Lemma 7.6 a second time: because filtered lists
//! stay `O(log n)`, most entries arriving from a neighbor's list are
//! already present in — or dominated by — the receiver's own list and
//! would be discarded by the filter anyway. On the arena backend
//! [`LeListAlgorithm`]'s [`ArenaMbfAlgorithm::recompute_span`] runs the
//! echo and rank-domination tests *per entry at merge time*, batching
//! the few survivors into a single sorted combine
//! ([`DistanceMap::assign_merged_min_entries`]), so dominated entries
//! are never inserted, sorted, or filtered — bit-identical to
//! merge-then-filter, differential-tested by the equivalence suite.

use crate::arena::{
    with_arena_acc, ArenaBackend, ArenaMbfAlgorithm, DeltaFloor, Incoming, ReceiverSummary,
    RecomputeCtx, SpanRecompute,
};
use crate::engine::MbfAlgorithm;
use crate::oracle::{default_iteration_cap, OracleBackend};
use crate::run::run_to_fixpoint_on;
use crate::simgraph::SimulatedGraph;
use crate::work::WorkStats;
use mte_algebra::store::{EpochStore, SpanOut};
use mte_algebra::{Dist, DistanceMap, Filter, MinPlus, NodeId};
use mte_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;

/// The domination probe: `(dist, prefix-min rank)` pairs sorted
/// ascending by distance.
type Probe = Vec<(Dist, u32)>;
/// The gather buffer batching the admitted (scaled) entries of all of a
/// vertex's neighbors, so the hop pays one sorted merge instead of one
/// per neighbor.
type Gather = Vec<(NodeId, Dist)>;

/// A vertex's base list as a node-indexed table, so the arena
/// recompute's echo test on an incoming `(u, d)` is one lookup instead
/// of a search of the base list: under the semi-naive handover a
/// recompute examines only a neighbor's one or two new entries, and the
/// search was most of the cost of each. `slots[u]` holds `u`'s base
/// distance iff its stamp is the current generation; 16 B per node per
/// thread.
#[derive(Debug)]
struct EchoTable {
    slots: Vec<(u32, Dist)>,
    gen: u32,
}

impl EchoTable {
    const fn new() -> Self {
        EchoTable {
            slots: Vec::new(),
            gen: 0,
        }
    }

    /// Loads `base` (node ids `< n`), forgetting the previous list.
    fn load(&mut self, n: usize, base: &[(NodeId, Dist)]) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, Dist::ZERO));
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrap-around: zero every stamp once so none aliases.
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.gen = 1;
        }
        for &(u, d) in base {
            self.slots[u as usize] = (self.gen, d);
        }
    }

    /// `true` iff the loaded list holds `u` at distance `≤ d`.
    #[inline]
    fn holds_within(&self, u: NodeId, d: Dist) -> bool {
        let (stamp, bd) = self.slots[u as usize];
        stamp == self.gen && bd <= d
    }
}

thread_local! {
    /// Per-thread probe, gather and echo-table scratch for the pruned
    /// [`ArenaMbfAlgorithm::recompute_span`], kept thread-local so the
    /// hot path stays allocation-free in steady state under the
    /// thread-parallel backend.
    static RECOMPUTE_SCRATCH: RefCell<(Probe, Gather, EchoTable)> =
        const { RefCell::new((Vec::new(), Vec::new(), EchoTable::new())) };
}

/// Runs `f` with this thread's probe + gather buffers (cleared by the
/// caller; keep their capacity across calls) and echo table. Falls back
/// to fresh buffers on re-entrant use instead of panicking, mirroring
/// [`mte_algebra::merge::with_dist_scratch`].
fn with_scratch<R>(f: impl FnOnce(&mut Probe, &mut Gather, &mut EchoTable) -> R) -> R {
    RECOMPUTE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let (probe, gather, echo) = &mut *scratch;
            f(probe, gather, echo)
        }
        Err(_) => f(&mut Vec::new(), &mut Vec::new(), &mut EchoTable::new()),
    })
}

/// A uniformly random total order on the nodes: `rank[v]` is `v`'s
/// position in a random permutation; *lower rank = smaller node* in the
/// paper's `v < w` notation.
#[derive(Clone, Debug)]
pub struct Ranks {
    rank: Vec<u32>,
    order: Vec<NodeId>,
}

impl Ranks {
    /// Samples a uniform permutation of `n` nodes.
    pub fn sample(n: usize, rng: &mut impl Rng) -> Ranks {
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.shuffle(rng);
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Ranks { rank, order }
    }

    /// A fixed order (for tests): `order[i]` is the node with rank `i`.
    pub fn from_order(order: Vec<NodeId>) -> Ranks {
        let mut rank = vec![0u32; order.len()];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Ranks { rank, order }
    }

    /// The rank of node `v`.
    #[inline]
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// The node of minimum rank (the globally "smallest" node).
    #[inline]
    pub fn min_rank_node(&self) -> NodeId {
        self.order[0]
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.rank.len()
    }
}

/// Core LE filtering **in place**: keeps only non-dominated entries,
/// leaving them sorted by ascending distance (hence strictly decreasing
/// rank). The entry vector is its own workspace — already
/// `(dist, rank)`-sorted inputs (the common case: LE lists stay sorted
/// between hops) skip the sort entirely, and survivors are compacted by
/// a two-pointer pass, so no scratch vector is ever allocated.
pub fn le_filter_in_place(entries: &mut Vec<(NodeId, Dist)>, ranks: &Ranks) {
    let sorted = entries
        .windows(2)
        .all(|w| (w[0].1, ranks.rank(w[0].0)) <= (w[1].1, ranks.rank(w[1].0)));
    if !sorted {
        entries.sort_unstable_by_key(|&(v, d)| (d, ranks.rank(v)));
    }
    let mut best_rank = u32::MAX;
    let mut kept = 0;
    for i in 0..entries.len() {
        let (v, d) = entries[i];
        let r = ranks.rank(v);
        if r < best_rank {
            entries[kept] = (v, d);
            kept += 1;
            best_rank = r;
        }
    }
    entries.truncate(kept);
}

/// Core LE filtering into a fresh vector (see [`le_filter_in_place`] for
/// the allocation-free variant used on hot paths — callers that own
/// their entry vector should prefer it; this one exists for borrowed
/// inputs). Already `(dist, rank)`-sorted inputs take a single
/// survivors-only pass (one reserve of at most `|entries|`, no copy of
/// dominated entries, no sort); unsorted inputs fall back to
/// copy-then-filter (the sort needs an owned buffer anyway).
pub fn le_filter_entries(entries: &[(NodeId, Dist)], ranks: &Ranks) -> Vec<(NodeId, Dist)> {
    let sorted = entries
        .windows(2)
        .all(|w| (w[0].1, ranks.rank(w[0].0)) <= (w[1].1, ranks.rank(w[1].0)));
    if !sorted {
        let mut kept = entries.to_vec();
        le_filter_in_place(&mut kept, ranks);
        return kept;
    }
    let mut kept = Vec::with_capacity(entries.len());
    let mut best_rank = u32::MAX;
    for &(v, d) in entries {
        let r = ranks.rank(v);
        if r < best_rank {
            kept.push((v, d));
            best_rank = r;
        }
    }
    kept
}

/// The LE representative projection of Definition 7.3 (Equation (7.3)):
/// `r(x)_w = ∞` iff some `w' < w` has `x_{w'} ≤ x_w`.
#[derive(Clone, Debug)]
pub struct LeFilter {
    ranks: Arc<Ranks>,
}

impl LeFilter {
    /// Filter w.r.t. the given random order.
    pub fn new(ranks: Arc<Ranks>) -> Self {
        LeFilter { ranks }
    }
}

impl Filter<MinPlus, DistanceMap> for LeFilter {
    fn apply(&self, x: &mut DistanceMap) {
        if x.len() <= 1 {
            return;
        }
        // Filter inside the map's own entry buffer; `edit_entries`
        // restores the node-sorted invariant afterwards.
        let ranks = &self.ranks;
        x.edit_entries(|entries| le_filter_in_place(entries, ranks));
    }
}

/// The LE-list MBF-like algorithm (Definition 7.3).
#[derive(Clone, Debug)]
pub struct LeListAlgorithm {
    ranks: Arc<Ranks>,
    /// The source set as a vertex mask ([`LeListAlgorithm::with_sources`]).
    sources: Option<Vec<bool>>,
}

impl LeListAlgorithm {
    /// LE lists w.r.t. the given random order.
    pub fn new(ranks: Arc<Ranks>) -> Self {
        LeListAlgorithm {
            ranks,
            sources: None,
        }
    }

    /// Restricts the lists to the source set `sources`: a non-source
    /// starts from `⊥`, so every entry names a source and the lists
    /// describe the submetric on the sources (the k-median candidate
    /// set, Section 9).
    pub fn with_sources(mut self, sources: &[NodeId]) -> Self {
        let mut mask = vec![false; self.ranks.n()];
        for &q in sources {
            mask[q as usize] = true;
        }
        self.sources = Some(mask);
        self
    }
}

impl MbfAlgorithm for LeListAlgorithm {
    type S = MinPlus;
    type M = DistanceMap;

    #[inline]
    fn edge_coeff(&self, _v: NodeId, _w: NodeId, weight: f64) -> MinPlus {
        MinPlus::new(weight)
    }

    fn filter(&self, x: &mut DistanceMap) {
        if x.len() <= 1 {
            return;
        }
        let ranks = &self.ranks;
        x.edit_entries(|entries| le_filter_in_place(entries, ranks));
    }

    /// Equation (7.5): `x⁽⁰⁾_{vv} = 0`, `∞` elsewhere; `⊥` for a
    /// non-source.
    fn init(&self, v: NodeId) -> DistanceMap {
        match &self.sources {
            Some(mask) if !mask[v as usize] => DistanceMap::new(),
            _ => DistanceMap::singleton(v, Dist::ZERO),
        }
    }

    #[inline]
    fn propagate_into(&self, acc: &mut DistanceMap, state: &DistanceMap, coeff: &MinPlus) {
        acc.merge_scaled(state, coeff.0);
    }

    #[inline]
    fn state_size(&self, x: &DistanceMap) -> usize {
        x.len().max(1)
    }
}

impl ArenaMbfAlgorithm for LeListAlgorithm {
    /// The LE lists are the rank column's *raison d'être*: the probe
    /// reads `(dist, rank)` pairs straight from the pool.
    const USES_RANK_COLUMN: bool = true;

    /// LE rank domination is absorption-stable (see
    /// [`RecomputeCtx`]): an entry a recomputation absorbed is later
    /// rejected as an echo or as dominated, every time. So a dirty
    /// neighbor need only hand over the entries its last change added
    /// or improved, and the pruned recompute admits exactly the entries
    /// the full handover would.
    const SEMI_NAIVE: bool = true;

    /// The pool's rank column carries each entry's permutation rank, so
    /// the arena probe never chases the rank table.
    #[inline]
    fn entry_aux(&self, node: NodeId) -> u32 {
        self.ranks.rank(node)
    }

    /// A non-empty receiver with largest distance `D` and smallest rank
    /// `R` absorbs a delta iff `fl(floor.dist + s) ≥ D` and
    /// `floor.aux ≥ R`: each incoming entry then lies at distance
    /// `≥ D`, so the receiver's minimum-rank entry dominates it or it
    /// is that entry's echo (the proof is in [`RecomputeCtx`], "Delta
    /// floors"). An empty delta is always absorbed. The comparisons are
    /// on raw `f64`s, so a poisoned (NaN) side never absorbs.
    #[inline]
    fn absorbs(&self, receiver: Option<ReceiverSummary>, floor: DeltaFloor, s: Dist) -> bool {
        if floor == DeltaFloor::EMPTY {
            return true;
        }
        receiver.is_some_and(|r| {
            (floor.dist + s).value() >= r.max_dist.value() && floor.aux >= r.min_aux
        })
    }

    /// Rank-pruned recomputation (the Lemma 7.6 work argument made
    /// operational, following Blelloch–Gu–Sun's prune-during-propagation
    /// structure), reading base and neighbor states as borrowed spans.
    /// A **domination probe** — `v`'s own filtered list sorted by
    /// distance with prefix-minimum ranks — is built once per
    /// recompute; one pass over the incoming entries then **admits** an
    /// entry `(u, d)` only if it is no echo (`u` is not already in `v`'s
    /// list at distance `≤ d`) and the probe holds no entry of strictly
    /// lower rank within distance `d` (one `O(log |x_v|)` binary search
    /// each). Admitted entries are batched (sorted, per-node minimum)
    /// and combined with the base list in a single sorted merge, so a
    /// recompute pays one merge — not one per neighbor — and rejected
    /// entries are never inserted, sorted, or filtered. Rejection is
    /// lossless:
    ///
    /// * the dominating entry is in `v`'s base list (`a_vv = 1` keeps
    ///   it) and min-merging only ever tightens it, and
    /// * domination is transitive, so a rejected entry cannot have been
    ///   the sole dominator of some other entry — its own dominator
    ///   dominates that entry too (even a rejected entry whose node
    ///   collides with a base entry only ever loses a value the filter
    ///   was about to discard).
    ///
    /// Hence `r(pruned batch merge) = r(full merge)` **bit-for-bit**:
    /// admitted entries are scaled by the same `d + coeff`, and the
    /// per-key minima of an idempotent total order are combination-order
    /// independent — no floating-point value is ever computed
    /// differently. The equivalence suite differential-tests this
    /// against the literal merge-then-filter loop. Engine states are
    /// always filter fixpoints, so when nothing is admitted the merge
    /// *and* the filter are the identity on the base list.
    /// `entries_processed` counts `|x_v|` plus only the **admitted**
    /// entries — pruned entries are examined but never processed (see
    /// [`crate::work::WorkStats`]). On top of the prune:
    ///
    /// * **semi-naive handover** — clean neighbors are skipped outright
    ///   and dirty ones hand over only the entries their last change
    ///   added ([`RecomputeCtx::incoming`]). LE rank domination is
    ///   absorption-stable (entry values only improve; a dominated
    ///   entry stays dominated because its dominator chain persists by
    ///   transitivity), so an already-absorbed entry is an echo or
    ///   dominated: provably an identity;
    /// * **delta floors** — a delta the receiver absorbs as a whole
    ///   ([`ArenaMbfAlgorithm::absorbs`]) is skipped before any of its
    ///   entries is read, like a clean neighbor;
    /// * the echo test is one lookup in a node-indexed table of the base
    ///   list (a per-thread `EchoTable`), not a search — with deltas of
    ///   one or two entries, the search was most of an examination's
    ///   cost;
    /// * the probe's `(dist, rank)` pairs come straight from the pool's
    ///   rank column (no per-entry rank lookups);
    /// * the quiescent case — nothing admitted — returns
    ///   [`SpanRecompute::unchanged_hint`] so the engine keeps the old
    ///   span without copying it.
    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute {
        let base = states.get(v);
        let base_entries = base.entries;
        let full = ctx.require_full(v);
        let mut relaxations = 0u64;
        let mut admitted = 0u64;
        let mut handover_entries = 0u64;
        let ranks = &*self.ranks;
        with_scratch(|probe, gather, echo| {
            // The probe is built lazily: a steady-state recompute rejects
            // every incoming entry as an echo and never pays the sort.
            let mut probe_ready = false;
            // So is the echo table, on the first incoming entry.
            let mut echo_ready = false;
            // The receiver summary, on the first delta.
            let mut receiver = None;
            gather.clear();
            for &(w, ew) in g.neighbors(v) {
                let Some(Incoming {
                    entries: incoming,
                    floor,
                }) = ctx.incoming(full, w, states)
                else {
                    continue; // already absorbed: provably an identity
                };
                let coeff = self.edge_coeff(v, w, ew * weight_scale);
                let s = coeff.0;
                if let Some(floor) = floor {
                    let receiver = *receiver.get_or_insert_with(|| ctx.receiver(v, &base));
                    if self.absorbs(receiver, floor, s) {
                        continue; // absorbed as a whole: provably an identity
                    }
                }
                relaxations += 1;
                if !s.is_finite() {
                    continue; // ∞ ⊙ x = ⊥ (Equation (2.2))
                }
                handover_entries += incoming.len() as u64;
                if !echo_ready && !incoming.is_empty() {
                    echo.load(states.len(), base_entries);
                    echo_ready = true;
                }
                for &(u, du) in incoming {
                    let d = du + s;
                    if echo.holds_within(u, d) {
                        continue; // echo: min-combining (u, d) is the identity
                    }
                    if !probe_ready {
                        probe.clear();
                        // (dist, rank) pairs straight out of the pool's
                        // parallel rank column.
                        probe.extend(
                            base.entries
                                .iter()
                                .zip(base.ranks)
                                .map(|(&(_, db), &rb)| (db, rb)),
                        );
                        probe.sort_unstable();
                        let mut best = u32::MAX;
                        for e in probe.iter_mut() {
                            best = best.min(e.1);
                            e.1 = best;
                        }
                        probe_ready = true;
                    }
                    let idx = probe.partition_point(|&(pd, _)| pd <= d);
                    let dominated = idx > 0 && probe[idx - 1].1 < ranks.rank(u);
                    if !dominated {
                        gather.push((u, d));
                        admitted += 1;
                    }
                }
            }
            let entries = base_entries.len().max(1) as u64 + admitted;
            if gather.is_empty() {
                // a_vv = 1 and nothing survived the prune: the hop is
                // the identity on `v` — keep the span, copy nothing.
                return SpanRecompute {
                    entries,
                    relaxations,
                    handover_entries,
                    unchanged_hint: true,
                };
            }
            gather.sort_unstable();
            gather.dedup_by(|next, prev| prev.0 == next.0);
            with_arena_acc(|acc| {
                acc.assign_merged_min_entries(base_entries, gather);
                self.filter(acc);
                for (u, d) in acc.iter() {
                    out.push(u, d, ranks.rank(u));
                }
            });
            SpanRecompute {
                entries,
                relaxations,
                handover_entries,
                unchanged_hint: false,
            }
        })
    }
}

/// A finished LE list: entries `(node, dist)` sorted by ascending
/// distance with strictly decreasing rank. The first entry is always
/// `(v, 0)` for the owner `v`; the last is the globally minimum-rank node.
#[derive(Clone, Debug, PartialEq)]
pub struct LeList {
    entries: Vec<(NodeId, Dist)>,
}

impl LeList {
    /// Builds a list from a (filtered) distance map.
    pub fn from_distance_map(x: &DistanceMap, ranks: &Ranks) -> LeList {
        LeList {
            entries: le_filter_entries(x.entries(), ranks),
        }
    }

    /// Wraps entries that are already LE-filtered and sorted by ascending
    /// distance (callers that maintain the invariant themselves, e.g. the
    /// Congest simulator).
    pub fn from_entries_sorted(entries: Vec<(NodeId, Dist)>) -> LeList {
        debug_assert!(entries.windows(2).all(|w| w[0].1 <= w[1].1));
        LeList { entries }
    }

    /// Entries sorted by ascending distance.
    #[inline]
    pub fn entries(&self) -> &[(NodeId, Dist)] {
        &self.entries
    }

    /// List length (`O(log n)` w.h.p. by Lemma 7.6).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff empty (only possible for an empty graph).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum-rank node within distance `radius` of the owner —
    /// the `v_i = min{w | dist(v, w) ≤ β2^i}` query of the FRT
    /// construction (Section 7.1, step (4)). Returns `None` if the ball is
    /// empty (radius below 0 never happens: the owner sits at distance 0).
    pub fn min_node_within(&self, radius: Dist) -> Option<NodeId> {
        // Entries are distance-ascending with decreasing rank, so the
        // answer is the *last* entry with dist ≤ radius.
        let idx = self.entries.partition_point(|&(_, d)| d <= radius);
        idx.checked_sub(1).map(|i| self.entries[i].0)
    }

    /// Largest finite distance in the list.
    pub fn max_dist(&self) -> Dist {
        self.entries.last().map_or(Dist::ZERO, |&(_, d)| d)
    }

    /// Approximate equality: same node sequence, distances within
    /// relative tolerance `rel` (floating-point sums in different orders
    /// differ in the last ulps).
    pub fn approx_eq(&self, other: &LeList, rel: f64) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(&(v, d), &(w, e))| {
                    v == w && mte_algebra::distance_map::dist_close(d, e, rel)
                })
    }
}

/// Approximate equality of whole LE-list collections (see
/// [`LeList::approx_eq`]).
pub fn le_lists_approx_eq(a: &[LeList], b: &[LeList], rel: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y, rel))
}

/// LE lists via the **oracle on `H`** — the paper's main pipeline
/// (Section 7.3/7.4). Runs on the arena lane of the oracle's level loop
/// (one epoch-arena store per level); bit-identical to the literal
/// oracle loop, asserted by `tests/common/matrix.rs`. The
/// guarded, checkpointable form of this run is
/// [`crate::run::try_run_on`] on [`OracleBackend`] over [`ArenaBackend`]
/// with [`LeListAlgorithm`]. Returns the lists, the
/// number of simulated `H`-iterations, and the work.
pub fn le_lists_oracle(
    sim: &SimulatedGraph,
    ranks: &Arc<Ranks>,
    cap: Option<usize>,
) -> (Vec<LeList>, usize, WorkStats) {
    let alg = LeListAlgorithm::new(Arc::clone(ranks));
    let cap = cap.unwrap_or_else(|| default_iteration_cap(sim.base().n()));
    let oracle = OracleBackend::<_, ArenaBackend>::new(sim);
    let run = run_to_fixpoint_on(oracle, &alg, sim.augmented(), cap);
    let lists = run
        .states
        .iter()
        .map(|x| LeList::from_distance_map(x, ranks))
        .collect();
    (lists, run.iterations, run.work)
}

/// LE lists by **direct iteration on `G`** (the algorithm of Khan et
/// al. \[26\], Section 8.1): `SPD(G) + 1` filtered MBF iterations.
/// Exact w.r.t. `dist(·,·,G)`; the baseline the oracle is measured
/// against.
pub fn le_lists_direct(g: &Graph, ranks: &Arc<Ranks>) -> (Vec<LeList>, usize, WorkStats) {
    let alg = LeListAlgorithm::new(Arc::clone(ranks));
    // Arena backend: bit-identical to the literal loop
    // (differential-tested), with copy-on-write state storage.
    let run = run_to_fixpoint_on(ArenaBackend::new(), &alg, g, g.n() + 1);
    let lists = run
        .states
        .iter()
        .map(|x| LeList::from_distance_map(x, ranks))
        .collect();
    (lists, run.iterations, run.work)
}

/// LE lists from an **explicit metric** (the Blelloch et al. \[10\]
/// baseline): a metric is a complete graph of SPD 1, so a single MBF-like
/// iteration — here computed directly per node in `Θ(n)` work each after
/// an `O(n log n)` sort — reproduces their result.
pub fn le_lists_from_metric(dist: &[Vec<Dist>], ranks: &Ranks) -> (Vec<LeList>, WorkStats) {
    let n = dist.len();
    let mut work = WorkStats {
        iterations: 1,
        ..WorkStats::default()
    };
    let lists: Vec<LeList> = (0..n)
        .map(|v| {
            let mut entries: Vec<(NodeId, Dist)> = (0..n)
                .filter(|&w| dist[v][w].is_finite())
                .map(|w| (w as NodeId, dist[v][w]))
                .collect();
            work.entries_processed += entries.len() as u64;
            // The row is owned: filter it in its own buffer.
            le_filter_in_place(&mut entries, ranks);
            LeList { entries }
        })
        .collect();
    (lists, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference LE list straight from the definition (Section 7.1 (3)).
    fn reference_le_list(dist_row: &[Dist], ranks: &Ranks) -> Vec<(NodeId, Dist)> {
        let n = dist_row.len();
        let mut kept = Vec::new();
        for w in 0..n as NodeId {
            let dw = dist_row[w as usize];
            if !dw.is_finite() {
                continue;
            }
            let dominated = (0..n as NodeId)
                .any(|u| ranks.rank(u) < ranks.rank(w) && dist_row[u as usize] <= dw);
            if !dominated {
                kept.push((w, dw));
            }
        }
        kept.sort_unstable_by_key(|&(v, d)| (d, ranks.rank(v)));
        kept
    }

    #[test]
    fn direct_le_lists_match_definition() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = gnm_graph(40, 100, 1.0..8.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let exact = apsp(&g);
        for v in 0..g.n() {
            let expect = LeList {
                entries: reference_le_list(&exact[v], &ranks),
            };
            assert!(lists[v].approx_eq(&expect, 1e-9), "node {v}");
        }
    }

    #[test]
    fn le_list_starts_with_owner_and_ends_with_min_rank() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = gnm_graph(30, 60, 1.0..5.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        for v in 0..g.n() as NodeId {
            let l = &lists[v as usize];
            assert_eq!(l.entries()[0], (v, Dist::ZERO), "owner first");
            assert_eq!(
                l.entries().last().unwrap().0,
                ranks.min_rank_node(),
                "global minimum last"
            );
            // Ranks strictly decrease along the list.
            for pair in l.entries().windows(2) {
                assert!(ranks.rank(pair[1].0) < ranks.rank(pair[0].0));
                assert!(pair[1].1 >= pair[0].1);
            }
        }
    }

    #[test]
    fn min_node_within_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = gnm_graph(25, 60, 1.0..6.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let exact = apsp(&g);
        for v in 0..g.n() {
            for radius in [0.0, 1.0, 2.5, 7.0, 1e6] {
                let r = Dist::new(radius);
                let expect = (0..g.n() as NodeId)
                    .filter(|&w| exact[v][w as usize] <= r)
                    .min_by_key(|&w| ranks.rank(w));
                assert_eq!(lists[v].min_node_within(r), expect, "v={v} r={radius}");
            }
        }
    }

    #[test]
    fn metric_baseline_agrees_with_direct() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = gnm_graph(30, 80, 1.0..4.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (direct, _, _) = le_lists_direct(&g, &ranks);
        let exact = apsp(&g);
        let (from_metric, _) = le_lists_from_metric(&exact, &ranks);
        assert!(le_lists_approx_eq(&direct, &from_metric, 1e-9));
    }

    #[test]
    fn oracle_le_lists_match_explicit_h() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = gnm_graph(25, 55, 1.0..6.0, &mut rng);
        let spd = mte_graph::algorithms::shortest_path_diameter(&g) as usize;
        let sim = SimulatedGraph::without_hopset(&g, spd.max(1), 0.15, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (via_oracle, _, _) = le_lists_oracle(&sim, &ranks, Some(4 * g.n()));
        let h = sim.explicit_h();
        let (via_h, _, _) = le_lists_direct(&h, &ranks);
        assert!(le_lists_approx_eq(&via_oracle, &via_h, 1e-9));
    }

    #[test]
    fn le_list_lengths_are_logarithmic() {
        // Lemma 7.6: |r(x)| ∈ O(log n) w.h.p.
        let mut rng = StdRng::seed_from_u64(46);
        let g = gnm_graph(400, 1200, 1.0..50.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let max_len = lists.iter().map(LeList::len).max().unwrap();
        // E[len] = H_n ≈ ln n ≈ 6; 6·ln n is a conservative w.h.p. bound.
        assert!(
            max_len as f64 <= 6.0 * (g.n() as f64).ln(),
            "max length {max_len}"
        );
    }

    #[test]
    fn path_graph_le_lists() {
        let g = path_graph(5, 1.0);
        // Order: node 4 smallest, then 0, 1, 2, 3.
        let ranks = Arc::new(Ranks::from_order(vec![4, 0, 1, 2, 3]));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        // Node 0: itself at 0, then node 4 at distance 4 (nothing between
        // dominates since 0 has rank 1).
        assert_eq!(lists[0].entries(), &[(0, Dist::ZERO), (4, Dist::new(4.0))]);
        // Node 3: itself, then 4 (rank 0) at distance 1 dominates 0,1,2.
        assert_eq!(lists[3].entries(), &[(3, Dist::ZERO), (4, Dist::new(1.0))]);
    }
}
