//! The epoch-arena state store: span-backed distance maps in one shared
//! pool.
//!
//! # Why
//!
//! The paper charges MBF-like iterations per **list entry** (Lemma 2.3,
//! Lemma 7.8): one hop costs `O(Σ_v |x_v|)`. A state vector stored as
//! `Vec<DistanceMap>` pays more than that model admits — every vertex
//! owns a private heap buffer, double-buffering `clone_from`s a full
//! list copy even for vertices whose state did not move, and `n`-sized
//! vectors of maps mean `Θ(n)` allocations per engine (times `Λ + 1`
//! levels in the oracle). At engine scale the merges stop being the
//! bottleneck; allocation and copy traffic are.
//!
//! [`EpochStore`] flattens the whole state vector `x ∈ D^V` into one
//! arena:
//!
//! * a shared **entry pool** (`Vec<(NodeId, Dist)>`) holding every
//!   vertex's non-`∞` coordinates back to back, with an **optional
//!   parallel rank column** (`Vec<u32>`) carrying per-entry auxiliary
//!   data — the LE lists store each entry's permutation rank there, so
//!   the domination probe reads `(dist, rank)` pairs straight out of
//!   the pool instead of chasing a rank table. Algorithms that never
//!   read ranks construct the store via
//!   [`EpochStore::with_rank_column`]`(n, false)` and skip the
//!   4 B/entry column entirely (16 instead of 20 bytes per append);
//! * a **span table**: vertex `v`'s state is the `(offset, len)` window
//!   `spans[v]` into the pool — the paper's `x_v ∈ D`, sorted by node
//!   id exactly like [`DistanceMap`].
//!
//! # Epochs and copy-on-write
//!
//! A hop never overwrites in place. New states are **appended** to the
//! pool (the next epoch) and committed by retargeting spans — a bump
//! and a pointer flip. A vertex untouched by a hop keeps its old span:
//! unchanged states cost **zero** copies, the copy-on-write that
//! replaces the former `clone_from` double-buffering. Superseded spans
//! become garbage; a **compaction** pass (amortized by a high-water
//! heuristic: compact when more than half the post-append pool would be
//! garbage) rewrites the live spans in vertex order into the shadow
//! pool and swaps the buffers.
//!
//! # Determinism
//!
//! Pool layout is a **pure function of the write sequence**: writers
//! append in a fixed order (the engine concatenates its per-chunk
//! append regions in chunk order; chunk boundaries depend only on the
//! schedule, never on `MTE_THREADS`), and the compaction trigger
//! depends only on pool length and live count — both deterministic. A
//! run's exported states, its work counters, *and* its internal arena
//! layout are therefore bit-identical across thread counts.
//!
//! No `unsafe` is involved: parallel workers write into chunk-local
//! append regions ([`SpanOut`] handles owned by the scheduler) and the
//! store concatenates them sequentially at commit time.

use crate::dist::Dist;
use crate::distance_map::DistanceMap;
use crate::NodeId;

/// Bytes a pool entry occupies in a **ranked** store: a 16-byte
/// `(NodeId, Dist)` pair (u32 + padding + f64) plus the 4-byte rank
/// column.
pub const ENTRY_BYTES: u64 = 20;

/// Bytes a pool entry occupies in an **unranked** store (see
/// [`EpochStore::with_rank_column`]): the `(NodeId, Dist)` pair alone.
pub const ENTRY_BYTES_UNRANKED: u64 = 16;

/// Pools shorter than this never compact — below the slack the garbage
/// cannot dominate the footprint and the pass would be pure overhead.
const MIN_COMPACTION_POOL: usize = 1024;

/// One vertex's state window into the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    off: u32,
    len: u32,
}

/// Storage-layer accounting, surfaced through
/// `WorkStats`-style counters so the copy-traffic trajectory is visible
/// in the benchmark artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of state entries written into the pool (appends, external
    /// assignments, and compaction copies). Copy-on-write keeps
    /// unchanged vertices off this tally entirely.
    pub bytes_copied: u64,
    /// Heap (re)allocations the store performed: pool/shadow/span-table
    /// growth events. Stays `O(log pool)` over a run — versus the `Θ(n)`
    /// per-vertex buffers of an owned state vector.
    pub alloc_count: u64,
    /// Peak pool footprint in bytes (entries + rank column), the arena's
    /// high-water mark.
    pub arena_bytes: u64,
    /// Number of compaction passes executed.
    pub compactions: u64,
}

/// Borrowed view of one vertex's state: the sorted entry slice plus the
/// parallel rank column — the `x_v ∈ D` the merge and probe kernels
/// read without materializing a [`DistanceMap`].
#[derive(Clone, Copy, Debug)]
pub struct DistanceSlice<'a> {
    /// Non-`∞` coordinates, sorted by node id (the [`DistanceMap`]
    /// invariant).
    pub entries: &'a [(NodeId, Dist)],
    /// Per-entry auxiliary column (`ranks[i]` belongs to `entries[i]`);
    /// the LE lists keep permutation ranks here, other algorithms zero.
    pub ranks: &'a [u32],
}

impl<'a> DistanceSlice<'a> {
    /// Number of entries (the paper's `|x_v|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the state is `⊥`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in node-id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Dist)> + 'a {
        self.entries.iter().copied()
    }

    /// Distance for node `v` (`∞` if absent).
    pub fn get(&self, v: NodeId) -> Dist {
        match self.entries.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.entries[i].1,
            Err(_) => Dist::INF,
        }
    }

    /// Materializes an owned [`DistanceMap`] (interop/export path).
    pub fn to_map(&self) -> DistanceMap {
        self.entries.iter().copied().collect()
    }
}

/// Append handle over a chunk-local region: parallel workers push their
/// recomputed states here (entry + rank column in lockstep), and the
/// store concatenates the regions in chunk order at commit time.
pub struct SpanOut<'a> {
    entries: &'a mut Vec<(NodeId, Dist)>,
    ranks: &'a mut Vec<u32>,
    ranked: bool,
}

impl<'a> SpanOut<'a> {
    /// Wraps a chunk's append buffers. Both columns must be in lockstep
    /// (equal length) — they are after any sequence of [`SpanOut::push`].
    pub fn new(entries: &'a mut Vec<(NodeId, Dist)>, ranks: &'a mut Vec<u32>) -> Self {
        Self::with_rank_column(entries, ranks, true)
    }

    /// As [`SpanOut::new`] with the rank column made explicit: an
    /// unranked handle (for algorithms whose
    /// `USES_RANK_COLUMN` marker is off) drops the per-entry rank
    /// values instead of buffering 4 dead bytes per entry.
    pub fn with_rank_column(
        entries: &'a mut Vec<(NodeId, Dist)>,
        ranks: &'a mut Vec<u32>,
        ranked: bool,
    ) -> Self {
        debug_assert!(!ranked || entries.len() == ranks.len());
        debug_assert!(ranked || ranks.is_empty());
        SpanOut {
            entries,
            ranks,
            ranked,
        }
    }

    /// Appends one entry with its rank-column value (dropped when the
    /// handle is unranked).
    #[inline]
    pub fn push(&mut self, v: NodeId, d: Dist, rank: u32) {
        self.entries.push((v, d));
        if self.ranked {
            self.ranks.push(rank);
        }
    }

    /// Entries written so far (across the whole chunk region).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing has been written to the chunk region yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The epoch-arena state store: one flat pool for a whole state vector
/// `x ∈ D^V`, span-backed with copy-on-write commits. See the module
/// docs for the design.
#[derive(Clone, Debug, Default)]
pub struct EpochStore {
    entries: Vec<(NodeId, Dist)>,
    ranks: Vec<u32>,
    spans: Vec<Span>,
    /// Sum of live span lengths; `entries.len() - live` is garbage.
    live: usize,
    /// Shadow columns the compactor writes into (ping-pong buffers).
    shadow_entries: Vec<(NodeId, Dist)>,
    shadow_ranks: Vec<u32>,
    /// Whether the parallel rank column is maintained. Off (the
    /// per-algorithm default), entries cost [`ENTRY_BYTES_UNRANKED`]
    /// instead of [`ENTRY_BYTES`] — sssp/source-detection appends used
    /// to carry 4 dead bytes per entry; only the LE lists read ranks.
    ranked: bool,
    stats: StoreStats,
}

impl EpochStore {
    /// An empty **ranked** store for `n` vertices, every state `⊥`.
    pub fn new(n: usize) -> Self {
        Self::with_rank_column(n, true)
    }

    /// An empty store with the rank column made explicit: algorithms
    /// that never read per-entry auxiliary data (their
    /// `USES_RANK_COLUMN` marker is off) skip the 4 B/entry column
    /// entirely — no buffering, no appends, no compaction copies.
    pub fn with_rank_column(n: usize, ranked: bool) -> Self {
        let mut store = EpochStore {
            ranked,
            ..EpochStore::default()
        };
        store.reset(n);
        store
    }

    /// `true` iff the store maintains the parallel rank column.
    #[inline]
    pub fn is_ranked(&self) -> bool {
        self.ranked
    }

    /// Bytes one pool entry occupies in this store.
    #[inline]
    pub fn entry_bytes(&self) -> u64 {
        if self.ranked {
            ENTRY_BYTES
        } else {
            ENTRY_BYTES_UNRANKED
        }
    }

    /// Clears the store back to `n` empty states, keeping buffer
    /// capacity (and accumulated stats).
    pub fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.ranks.clear();
        self.spans.clear();
        self.track_alloc(|s| {
            s.spans.resize(n, Span::default());
        });
        self.live = 0;
    }

    /// Number of vertices (span-table length).
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff the store holds no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Vertex `v`'s state as a borrowed view. In an unranked store the
    /// view's `ranks` slice is empty.
    #[inline]
    pub fn get(&self, v: NodeId) -> DistanceSlice<'_> {
        let s = self.spans[v as usize];
        let (a, mut b) = (s.off as usize, s.off as usize + s.len as usize);
        match mte_faults::check_for(
            mte_faults::FaultSite::ArenaSpanRead,
            &[
                mte_faults::FaultKind::Panic,
                mte_faults::FaultKind::TruncateSpan,
            ],
        ) {
            Some(mte_faults::FaultKind::Panic) => {
                mte_faults::trigger_panic(mte_faults::FaultSite::ArenaSpanRead)
            }
            Some(mte_faults::FaultKind::TruncateSpan) => {
                b = a + (b - a).saturating_sub(1);
            }
            _ => {}
        }
        DistanceSlice {
            entries: &self.entries[a..b],
            ranks: if self.ranked { &self.ranks[a..b] } else { &[] },
        }
    }

    /// Vertex `v`'s state as a borrowed view, bypassing the
    /// [`ArenaSpanRead`](mte_faults::FaultSite::ArenaSpanRead) fault
    /// site. Snapshot serialization uses this: a checkpoint must record
    /// the state that *is*, not the state an injected span-truncation
    /// pretends to read — persistence has its own `snapshot_write` /
    /// `snapshot_read` sites.
    #[inline]
    pub fn get_raw(&self, v: NodeId) -> DistanceSlice<'_> {
        let s = self.spans[v as usize];
        let (a, b) = (s.off as usize, s.off as usize + s.len as usize);
        DistanceSlice {
            entries: &self.entries[a..b],
            ranks: if self.ranked { &self.ranks[a..b] } else { &[] },
        }
    }

    /// Live entries across all spans (`Σ_v |x_v|`).
    #[cfg(test)]
    fn live_entries(&self) -> usize {
        self.live
    }

    /// Pool length including garbage from superseded epochs.
    #[cfg(test)]
    fn pool_entries(&self) -> usize {
        self.entries.len()
    }

    /// Storage accounting so far.
    #[inline]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Runs `f` over the store and counts column (re)allocations by
    /// capacity deltas.
    fn track_alloc(&mut self, f: impl FnOnce(&mut Self)) {
        let caps = (
            self.entries.capacity(),
            self.shadow_entries.capacity(),
            self.spans.capacity(),
        );
        f(self);
        let grown = [
            caps.0 != self.entries.capacity(),
            caps.1 != self.shadow_entries.capacity(),
            caps.2 != self.spans.capacity(),
        ];
        // The rank columns grow in lockstep with their entry columns;
        // counting the pair as one allocation event keeps the counter a
        // clean "buffers the storage layer acquired" tally.
        self.stats.alloc_count += grown.iter().filter(|&&g| g).count() as u64;
    }

    fn note_pool_footprint(&mut self) {
        let bytes = self.entries.len() as u64 * self.entry_bytes();
        self.stats.arena_bytes = self.stats.arena_bytes.max(bytes);
    }

    /// Opens the next epoch, given the number of entries about to be
    /// appended: compacts first iff more than half the post-append pool
    /// would be garbage (and the pool is past the slack threshold), so
    /// compaction cost amortizes against the appends that created the
    /// garbage. Deterministic: the decision depends only on pool length
    /// and live count.
    pub fn begin_epoch(&mut self, incoming: usize) {
        let projected = self.entries.len() + incoming;
        if projected > MIN_COMPACTION_POOL && projected > 2 * (self.live + incoming) {
            self.compact();
        }
    }

    /// Appends a chunk append region (entry + rank columns in lockstep)
    /// to the pool, returning the base offset its spans start at. The
    /// entries do **not** become live until [`EpochStore::set_span`]
    /// retargets a vertex into them.
    pub fn append_region(&mut self, entries: &[(NodeId, Dist)], ranks: &[u32]) -> u32 {
        if self.ranked {
            assert_eq!(entries.len(), ranks.len(), "columns out of lockstep");
        } else {
            debug_assert!(ranks.is_empty(), "rank data handed to an unranked store");
        }
        let base = self.entries.len();
        assert!(
            base + entries.len() <= u32::MAX as usize,
            "epoch-arena pool exceeds u32 offsets"
        );
        self.track_alloc(|s| {
            s.entries.extend_from_slice(entries);
            if s.ranked {
                s.ranks.extend_from_slice(ranks);
            }
        });
        self.stats.bytes_copied += entries.len() as u64 * self.entry_bytes();
        self.note_pool_footprint();
        base as u32
    }

    /// Commits vertex `v` to the window `[off, off + len)` of the pool
    /// (typically inside a region just appended). The previous span
    /// becomes garbage.
    pub fn set_span(&mut self, v: NodeId, off: u32, len: u32) {
        debug_assert!(off as usize + len as usize <= self.entries.len());
        let old = std::mem::replace(&mut self.spans[v as usize], Span { off, len });
        self.live = self.live - old.len as usize + len as usize;
    }

    /// Copy-on-write single-vertex assignment (external edits: oracle
    /// projection rewrites, test fixtures). Appends the new state and
    /// retargets the span; `aux` supplies the rank-column value per
    /// entry (never consulted by an unranked store).
    pub fn assign(
        &mut self,
        v: NodeId,
        entries: &[(NodeId, Dist)],
        mut aux: impl FnMut(NodeId) -> u32,
    ) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be node-sorted with unique keys"
        );
        self.begin_epoch(entries.len());
        let base = self.entries.len();
        assert!(
            base + entries.len() <= u32::MAX as usize,
            "epoch-arena pool exceeds u32 offsets"
        );
        self.track_alloc(|s| {
            s.entries.extend_from_slice(entries);
            if s.ranked {
                s.ranks.extend(entries.iter().map(|&(u, _)| aux(u)));
            }
        });
        self.stats.bytes_copied += entries.len() as u64 * self.entry_bytes();
        self.note_pool_footprint();
        self.set_span(v, base as u32, entries.len() as u32);
    }

    /// Bulk-loads a whole owned state vector (the interop boundary:
    /// `initial_states`, differential fixtures). One pool allocation
    /// instead of `n` map buffers.
    pub fn import(&mut self, states: &[DistanceMap], mut aux: impl FnMut(NodeId) -> u32) {
        self.reset(states.len());
        let total: usize = states.iter().map(DistanceMap::len).sum();
        self.track_alloc(|s| {
            s.entries.reserve(total);
            if s.ranked {
                s.ranks.reserve(total);
            }
        });
        for (v, x) in states.iter().enumerate() {
            let base = self.entries.len() as u32;
            self.entries.extend_from_slice(x.entries());
            if self.ranked {
                self.ranks.extend(x.iter().map(|(u, _)| aux(u)));
            }
            self.spans[v] = Span {
                off: base,
                len: x.len() as u32,
            };
        }
        self.live = total;
        self.stats.bytes_copied += total as u64 * self.entry_bytes();
        self.note_pool_footprint();
    }

    /// Exports the state vector as owned maps (the interop/verification
    /// boundary; bit-identical to the spans' contents).
    pub fn export(&self) -> Vec<DistanceMap> {
        (0..self.spans.len())
            .map(|v| self.get(v as NodeId).to_map())
            .collect()
    }

    /// [`EpochStore::export`] through [`EpochStore::get_raw`]: the
    /// checkpoint-capture path, which must record the true pool
    /// contents without consuming `arena_span_read` fault arrivals.
    pub fn export_raw(&self) -> Vec<DistanceMap> {
        (0..self.spans.len())
            .map(|v| self.get_raw(v as NodeId).to_map())
            .collect()
    }

    /// Compacts the pool: copies live spans in vertex order into the
    /// shadow columns and swaps the buffers. Span windows move, their
    /// contents do not. The resulting layout is a pure function of the
    /// current spans.
    pub fn compact(&mut self) {
        self.track_alloc(|s| {
            s.shadow_entries.clear();
            s.shadow_ranks.clear();
            s.shadow_entries.reserve(s.live);
            if s.ranked {
                s.shadow_ranks.reserve(s.live);
            }
            for span in s.spans.iter_mut() {
                let (a, b) = (span.off as usize, span.off as usize + span.len as usize);
                span.off = s.shadow_entries.len() as u32;
                s.shadow_entries.extend_from_slice(&s.entries[a..b]);
                if s.ranked {
                    s.shadow_ranks.extend_from_slice(&s.ranks[a..b]);
                }
            }
            std::mem::swap(&mut s.entries, &mut s.shadow_entries);
            std::mem::swap(&mut s.ranks, &mut s.shadow_ranks);
        });
        self.stats.bytes_copied += self.live as u64 * self.entry_bytes();
        self.stats.compactions += 1;
        debug_assert_eq!(self.entries.len(), self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(pairs: &[(NodeId, f64)]) -> DistanceMap {
        pairs.iter().map(|&(v, d)| (v, Dist::new(d))).collect()
    }

    #[test]
    fn import_export_roundtrip() {
        let states = vec![dm(&[(0, 0.0), (3, 2.5)]), dm(&[]), dm(&[(1, 1.0)])];
        let mut store = EpochStore::new(states.len());
        store.import(&states, |v| v * 10);
        assert_eq!(store.export(), states);
        assert_eq!(store.live_entries(), 3);
        assert_eq!(store.get(0).ranks, &[0, 30]);
        assert_eq!(store.get(2).get(1), Dist::new(1.0));
        assert_eq!(store.get(2).get(9), Dist::INF);
    }

    #[test]
    fn assign_is_copy_on_write() {
        let mut store = EpochStore::new(3);
        store.import(&[dm(&[(0, 0.0)]), dm(&[(1, 0.0)]), dm(&[(2, 0.0)])], |_| 0);
        let before = store.get(1).entries.to_vec();
        store.assign(0, dm(&[(0, 0.0), (5, 4.0)]).entries(), |_| 7);
        // Vertex 1's span still reads its old (untouched) window.
        assert_eq!(store.get(1).entries, &before[..]);
        assert_eq!(store.get(0).entries, dm(&[(0, 0.0), (5, 4.0)]).entries());
        assert_eq!(store.get(0).ranks, &[7, 7]);
        // The superseded span is garbage, not lost live data.
        assert_eq!(store.live_entries(), 4);
        assert!(store.pool_entries() > store.live_entries());
    }

    #[test]
    fn append_region_and_set_span_commit() {
        let mut store = EpochStore::new(2);
        store.import(&[dm(&[(0, 0.0)]), dm(&[(1, 0.0)])], |_| 0);
        let region = [(2u32, Dist::new(1.0)), (4, Dist::new(2.0))];
        let base = store.append_region(&region, &[9, 9]);
        // Not live until committed.
        assert_eq!(store.live_entries(), 2);
        store.set_span(1, base, 2);
        assert_eq!(store.live_entries(), 3);
        assert_eq!(store.get(1).entries, &region[..]);
    }

    #[test]
    fn compaction_preserves_states_and_reclaims_garbage() {
        let n = 64;
        let mut store = EpochStore::new(n);
        store.import(
            &(0..n)
                .map(|v| dm(&[(v as NodeId, 0.0)]))
                .collect::<Vec<_>>(),
            |v| v,
        );
        // Churn vertex 0 to build garbage.
        for round in 1..200u32 {
            store.assign(0, dm(&[(0, 0.0), (1, round as f64)]).entries(), |v| v);
        }
        let snapshot = store.export();
        store.compact();
        assert_eq!(store.export(), snapshot);
        assert_eq!(store.pool_entries(), store.live_entries());
        // Rank column compacted in lockstep.
        assert_eq!(store.get(0).ranks, &[0, 1]);
    }

    #[test]
    fn high_water_heuristic_bounds_garbage() {
        let mut store = EpochStore::new(4);
        store.import(&[dm(&[]), dm(&[]), dm(&[]), dm(&[])], |_| 0);
        let big: Vec<(NodeId, Dist)> = (0..512).map(|i| (i, Dist::new(i as f64))).collect();
        for _ in 0..64 {
            store.assign(2, &big, |_| 0);
        }
        // Garbage never exceeds ~half the pool (plus the slack floor).
        assert!(store.pool_entries() <= 2 * store.live_entries() + 2 * MIN_COMPACTION_POOL);
        assert!(store.stats().compactions > 0);
        let stats = store.stats();
        assert!(stats.bytes_copied >= 64 * 512 * ENTRY_BYTES);
        assert!(stats.arena_bytes > 0);
        // The pool grows by doubling: allocation events stay tiny
        // relative to the number of writes.
        assert!(stats.alloc_count < 64);
    }

    #[test]
    fn layout_is_a_pure_function_of_the_write_sequence() {
        let build = || {
            let mut store = EpochStore::new(3);
            store.import(&[dm(&[(0, 0.0)]), dm(&[(1, 0.0)]), dm(&[(2, 0.0)])], |v| v);
            store.assign(1, dm(&[(1, 0.0), (2, 3.0)]).entries(), |v| v);
            let base = store.append_region(&[(7, Dist::new(1.5))], &[7]);
            store.set_span(0, base, 1);
            store.compact();
            store
        };
        let (a, b) = (build(), build());
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn unranked_store_drops_the_rank_column_and_its_bytes() {
        // Identical write sequences, ranked vs unranked: same states,
        // same layout, but the unranked store never touches the rank
        // column and accounts 16 B/entry instead of 20 — the 20% append
        // traffic the ROADMAP item targeted.
        let states = vec![dm(&[(0, 0.0), (3, 2.5)]), dm(&[(1, 1.0)]), dm(&[])];
        let write = |ranked: bool| {
            let mut store = EpochStore::with_rank_column(states.len(), ranked);
            store.import(&states, |v| v);
            store.assign(2, dm(&[(2, 0.0), (4, 1.0)]).entries(), |v| v);
            let base = store.append_region(&[(7, Dist::new(1.5))], if ranked { &[7] } else { &[] });
            store.set_span(1, base, 1);
            store.compact();
            store
        };
        let ranked = write(true);
        let unranked = write(false);
        assert!(ranked.is_ranked() && !unranked.is_ranked());
        assert_eq!(ranked.export(), unranked.export());
        assert_eq!(ranked.live_entries(), unranked.live_entries());
        assert!(unranked.get(0).ranks.is_empty());
        assert_eq!(ranked.get(0).ranks, &[0, 3]);
        // Byte accounting scales exactly with the entry size.
        let (rs, us) = (ranked.stats(), unranked.stats());
        assert_eq!(
            rs.bytes_copied * ENTRY_BYTES_UNRANKED,
            us.bytes_copied * ENTRY_BYTES
        );
        assert_eq!(
            rs.arena_bytes * ENTRY_BYTES_UNRANKED,
            us.arena_bytes * ENTRY_BYTES
        );
        assert!(us.arena_bytes < rs.arena_bytes);
    }

    #[test]
    fn unranked_span_out_drops_rank_pushes() {
        let mut entries = Vec::new();
        let mut ranks = Vec::new();
        let mut out = SpanOut::with_rank_column(&mut entries, &mut ranks, false);
        out.push(3, Dist::new(1.0), 30);
        out.push(5, Dist::new(2.0), 50);
        assert_eq!(out.len(), 2);
        assert!(ranks.is_empty());
    }

    #[test]
    fn span_out_keeps_columns_in_lockstep() {
        let mut entries = Vec::new();
        let mut ranks = Vec::new();
        let mut out = SpanOut::new(&mut entries, &mut ranks);
        assert!(out.is_empty());
        out.push(3, Dist::new(1.0), 30);
        out.push(5, Dist::new(2.0), 50);
        assert_eq!(out.len(), 2);
        assert_eq!(entries, vec![(3, Dist::new(1.0)), (5, Dist::new(2.0))]);
        assert_eq!(ranks, vec![30, 50]);
    }
}
