//! Work/depth accounting (docs/DESIGN.md §3, substitution 1).
//!
//! The paper analyses algorithms in an abstract DAG model where **work** is
//! the number of DAG nodes and **depth** its longest path. We track the
//! model-level quantities the theorems bound:
//!
//! * `entries_processed` — total sparse state entries touched by
//!   propagate/aggregate/filter steps: the paper's `Σ|x_i|`-style work
//!   terms (Lemma 2.3, Lemma 7.8),
//! * `edge_relaxations` — semiring multiplications attributed to edges,
//! * `iterations` — sequential MBF-like rounds: the depth proxy (each
//!   round has polylog critical path by Lemmas 2.3/7.7).
//!
//! Beyond the model-level counters, the **storage counters**
//! (`bytes_copied`, `alloc_count`, `arena_bytes`) track what the
//! complexity story does *not* charge but real hardware does: copy and
//! allocation traffic of the state store. The paper charges work per
//! list entry; a `Vec<DistanceMap>` backend pays per vertex per hop
//! (every touched state is rewritten wholesale), while the epoch-arena
//! backend ([`mte_algebra::store::EpochStore`]) pays only for entries
//! that actually changed (copy-on-write) plus amortized compaction.
//! Recording both makes the gap visible in `BENCH_engine.json`.

use std::ops::AddAssign;

/// Counted work of an MBF-like computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Sequential MBF-like rounds executed (depth proxy).
    pub iterations: u64,
    /// Sparse state entries processed across all rounds (work proxy).
    /// The literal backend counts every merged entry. The arena backend
    /// prunes at merge time (see
    /// [`ArenaMbfAlgorithm::recompute_span`](crate::arena::ArenaMbfAlgorithm::recompute_span))
    /// and counts only the entries **admitted** into aggregation — a
    /// pruned entry costs one `O(log |x|)` domination probe, not a
    /// merge, a sort, and a filter pass, so it is examined but not
    /// processed. A recomputation the arena's delta floors skip costs
    /// nothing.
    pub entries_processed: u64,
    /// Edge relaxations (semiring `⊙` applications attributed to edges).
    /// Neighbors a recomputation skips unread (clean, or handing over a
    /// delta the receiver absorbs) cost none.
    pub edge_relaxations: u64,
    /// Neighbor-state entries the arena backend's recomputations read:
    /// the volume dirty neighbors handed over. Under the semi-naive
    /// handover ([`crate::arena::RecomputeCtx::incoming`]) a dirty
    /// neighbor hands over only the entries its last change added, so
    /// this counts examined entries while `entries_processed` counts
    /// admitted ones; a delta the receiver absorbs as a whole (its
    /// floor, see [`crate::arena::RecomputeCtx`]) is never read and
    /// never counted. 0 for the other backends.
    pub handover_entries: u64,
    /// Vertices whose state was recomputed across all rounds. The
    /// literal backend recomputes `n` per round; the frontier schedule
    /// only the closed neighborhood of the previous hop's changes. The
    /// arena backend's semi-naive algorithms (the LE lists) skip, and do
    /// not count, the recomputations their delta floors prove idle, so
    /// their `touched_vertices`, `entries_processed` and
    /// `edge_relaxations` sit below that closed neighborhood's.
    pub touched_vertices: u64,
    /// Bytes of state entries written into the state store. The
    /// epoch-arena backend appends only *changed* states (16 bytes per
    /// entry, 20 with the rank column) plus amortized compaction
    /// copies; the dense backend rewrites every touched row into its
    /// shadow. The literal backend does not count storage. Model-level
    /// accounting, not a heap profiler.
    pub bytes_copied: u64,
    /// Heap buffers the state-storage layer acquired: the arena backend
    /// grows a handful of pooled columns (`O(log pool)` growth events),
    /// the dense backend one flat shadow block. The literal backend
    /// does not count storage.
    pub alloc_count: u64,
    /// Peak bytes held by the epoch-arena span pool (0 for the other
    /// backends). **Max-combined**, not summed, by [`AddAssign`]: the
    /// high-water mark of a run is the max over its hops.
    pub arena_bytes: u64,
    /// Hops executed in whole-matrix mode (every state a dense row,
    /// relaxations through the contiguous row kernels of
    /// `mte_core::dense`).
    pub dense_hops: u64,
}

impl WorkStats {
    /// The empty tally.
    pub fn new() -> Self {
        WorkStats::default()
    }
}

impl AddAssign for WorkStats {
    fn add_assign(&mut self, rhs: WorkStats) {
        self.iterations += rhs.iterations;
        self.entries_processed += rhs.entries_processed;
        self.edge_relaxations += rhs.edge_relaxations;
        self.handover_entries += rhs.handover_entries;
        self.touched_vertices += rhs.touched_vertices;
        self.bytes_copied += rhs.bytes_copied;
        self.alloc_count += rhs.alloc_count;
        // A high-water mark, not a flow: combining two tallies keeps the
        // larger footprint.
        self.arena_bytes = self.arena_bytes.max(rhs.arena_bytes);
        self.dense_hops += rhs.dense_hops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut a = WorkStats {
            iterations: 1,
            entries_processed: 10,
            edge_relaxations: 5,
            handover_entries: 7,
            touched_vertices: 2,
            bytes_copied: 100,
            alloc_count: 3,
            arena_bytes: 64,
            dense_hops: 1,
        };
        a += WorkStats {
            iterations: 2,
            entries_processed: 1,
            edge_relaxations: 1,
            handover_entries: 2,
            touched_vertices: 3,
            bytes_copied: 20,
            alloc_count: 1,
            arena_bytes: 32,
            dense_hops: 4,
        };
        assert_eq!(
            a,
            WorkStats {
                iterations: 3,
                entries_processed: 11,
                edge_relaxations: 6,
                handover_entries: 9,
                touched_vertices: 5,
                bytes_copied: 120,
                alloc_count: 4,
                // Max-combined: the peak footprint, not the sum.
                arena_bytes: 64,
                dense_hops: 5,
            }
        );
    }
}
