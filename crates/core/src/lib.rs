//! The paper's core contribution, implemented end to end:
//!
//! * [`engine`] — the class of **MBF-like algorithms** (paper Section 2):
//!   simple linear functions given by semiring adjacency matrices,
//!   interleaved with representative projections (filters); iterated in
//!   parallel with rayon: [`engine::run`] (`h` applications of the
//!   one-shot [`engine::iterate`]) is the literal reference every
//!   backend is tested against, and [`engine::LiteralBackend`] runs it
//!   for every state type; the frontier hop schedule the arena and
//!   dense backends share lives here too,
//! * [`arena`] — the **epoch-arena backend** of the same engine: state
//!   vectors `x ∈ D^V` as spans into one copy-on-write pool
//!   ([`mte_algebra::store`]), bit-identical to the literal loop while
//!   paying copy traffic only for states that actually changed — the
//!   backend of every distance-map algorithm,
//! * [`dense`] — the **dense-block backend** for APSP (min-plus
//!   distance maps whose filter is the identity): state vectors as flat
//!   row-major min-plus matrices ([`mte_algebra::dense`]) relaxed by
//!   contiguous cache-tiled row kernels, and the dense oracle lane,
//! * [`catalog`] — every example MBF-like algorithm of Section 3
//!   (source detection, SSSP, k-SSP, APSP, MSSP, forest fire, widest
//!   paths, k-SDP, k-DSDP, connectivity),
//! * [`simgraph`] — the **simulated graph `H`** (Section 4): vertex
//!   levels, penalty weights, `SPD(H) ∈ O(log² n)` w.h.p.,
//! * [`oracle`] — the **oracle for MBF-like queries** on `H`
//!   (Section 5): simulates iterations of any MBF-like algorithm on the
//!   complete graph `H` using only the edges of `G'`, as the
//!   [`OracleBackend`] the drivers of [`run`] hop, over its arena or
//!   dense lanes,
//! * [`metric`] — `(1+o(1))`- and `O(1)`-approximate metrics
//!   (Section 6, Theorems 6.1 and 6.2),
//! * [`frt`] — **sampling from the FRT distribution** via Least-Element
//!   lists (Section 7, Theorem 7.9 and Corollaries 7.10/7.11), FRT tree
//!   construction (Lemma 7.2), baselines, and path reconstruction
//!   (Section 7.5),
//! * [`work`] — work/depth accounting used by the experiments,
//! * [`run`] — the one fixpoint driver: the [`StateBackend`] trait
//!   (literal, arena, dense and oracle backends), plain, guarded and
//!   checkpointed runs, and bit-identical resume, with the
//!   deterministic recovery supervisor in [`error`].

pub mod arena;
pub mod catalog;
pub mod dense;
pub mod engine;
pub mod error;
pub mod frt;
pub mod metric;
pub mod oracle;
pub mod run;
pub mod simgraph;
pub mod work;

pub use arena::{ArenaBackend, ArenaMbfAlgorithm};
pub use dense::{DenseBackend, DenseMbfAlgorithm};
pub use engine::{LiteralBackend, MbfAlgorithm, MbfRun};
pub use error::{Degradation, RecoveryAttempt, RecoveryPolicy, RunError, RunReport, Supervisor};
pub use oracle::OracleBackend;
pub use run::{Checkpoint, CheckpointPolicy, StateBackend};
pub use simgraph::{LevelAssignment, SimulatedGraph};
pub use work::WorkStats;
