//! Work/depth accounting (DESIGN.md §3, substitution 1).
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
    /// Algorithms that prune at merge time (see
    /// [`MbfAlgorithm::recompute_into`](crate::engine::MbfAlgorithm::recompute_into))
    /// count only the entries **admitted** into aggregation — a pruned
    /// entry costs one `O(log |x|)` domination probe, not a merge, a
    /// sort, and a filter pass, so it is examined but not processed.
    pub entries_processed: u64,
    /// Edge relaxations (semiring `⊙` applications attributed to edges).
    pub edge_relaxations: u64,
    /// Neighbor-state entries the arena backend's recomputations read:
    /// the volume dirty neighbors handed over. Under the semi-naive
    /// handover ([`crate::arena::RecomputeCtx::incoming`]) a dirty
    /// neighbor hands over only the entries its last change added, so
    /// this counts examined entries while `entries_processed` counts
    /// admitted ones. 0 for the other backends.
    pub handover_entries: u64,
    /// Vertices whose state was recomputed across all rounds. Dense
    /// sweeps recompute `n` per round; the frontier engine only the
    /// closed neighborhood of the previous hop's changes.
    pub touched_vertices: u64,
    /// Bytes of state entries written into the state store. The owned
    /// (`Vec<M>`) backend rewrites every *touched* vertex's state
    /// (16 bytes per sparse entry into the shadow buffer, changed or
    /// not); the epoch-arena backend appends only *changed* states
    /// (20 bytes per entry including the rank column) plus amortized
    /// compaction copies. Model-level accounting, not a heap profiler.
    pub bytes_copied: u64,
    /// Heap buffers the state-storage layer acquired: the owned backend
    /// materializes one buffer per vertex per state vector (`Θ(n)` per
    /// engine); the arena backend grows a handful of pooled columns
    /// (`O(log pool)` growth events).
    pub alloc_count: u64,
    /// Peak bytes held by the epoch-arena span pool (0 for the owned
    /// backend). **Max-combined**, not summed, by [`AddAssign`]: the
    /// high-water mark of a run is the max over its hops.
    pub arena_bytes: u64,
    /// Hops executed in whole-matrix mode (every state a dense row,
    /// relaxations through the contiguous row kernels of
    /// `mte_core::dense`).
    pub dense_hops: u64,
    /// Cross-shard exchange messages sent by the sharded engine
    /// (`core::shard`): one per ordered shard pair per hop, including
    /// the empty keep-alives the drop-detection barrier requires. 0
    /// for unsharded runs and single-shard specs. This is the Congest
    /// model's message count (`congest::CongestCost::from_exchange`),
    /// and the trackable exchange-volume metric on hosts where
    /// wall-clock speedups are meaningless.
    pub shard_msgs: u64,
    /// Model-level bytes of those messages: a fixed per-message header
    /// plus 16 bytes per cross-shard frontier entry carried (cf.
    /// `OWNED_ENTRY_BYTES`) — the exchange payload volume.
    pub shard_msg_bytes: u64,
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
        self.shard_msgs += rhs.shard_msgs;
        self.shard_msg_bytes += rhs.shard_msg_bytes;
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
            shard_msgs: 6,
            shard_msg_bytes: 200,
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
            shard_msgs: 2,
            shard_msg_bytes: 50,
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
                shard_msgs: 8,
                shard_msg_bytes: 250,
            }
        );
    }
}
