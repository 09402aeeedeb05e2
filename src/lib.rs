//! # metric-tree-embedding
//!
//! A parallel implementation of **metric tree embeddings** (FRT-style, with
//! expected stretch `O(log n)`) computed from sparse weighted graphs via an
//! **algebraic view on Moore-Bellman-Ford**, reproducing
//!
//! > Stephan Friedrichs, Christoph Lenzen.
//! > *Parallel Metric Tree Embedding based on an Algebraic View on
//! > Moore-Bellman-Ford.* SPAA 2016 (arXiv:1509.09047).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`algebra`] — semirings, semimodules, congruences/filters (paper §2, App. A),
//! * [`graph`] — graph substrate, generators, reference algorithms,
//!   Baswana–Sen spanners, hop sets,
//! * [`core`] — the MBF-like framework (§2–3), the simulated graph `H` (§4),
//!   the MBF oracle (§5), approximate metrics (§6) and FRT sampling (§7),
//! * [`congest`] — Congest-model simulator and distributed LE-list
//!   algorithms (§8),
//! * [`apps`] — k-median (§9) and buy-at-bulk network design (§10),
//! * [`persist`] — crash-safe snapshot store: checksummed binary
//!   snapshots of engine/oracle state, LE lists and FRT trees, with
//!   atomic writes and typed load errors; pairs with [`core::run`]
//!   (the fixpoint driver, resumable runs) and the recovery supervisor
//!   in [`core::error`],
//! * [`serving`] — resilient query-serving layer: a deadline-governed,
//!   load-shedding distance oracle ([`serving::Oracle`]) over frozen,
//!   zero-trust-validated artifacts ([`serving::OracleArtifact`]), with
//!   a recorded degradation ladder (cache → tree LCA → LE-list
//!   intersection → truncated upper bound), batched dense-block sweeps
//!   with cooperative cancellation, and typed shedding under overload.
//!
//! ## Engine architecture
//!
//! Every algorithm in the workspace — the Section 3 catalog, LE lists,
//! the `H`-oracle, approximate metrics, FRT sampling, and both
//! applications — bottoms out in the same iteration core,
//! [`core::engine`]. One hop computes `x ← r^V A x`: propagate states
//! over edges (`⊙`), aggregate (`⊕`), filter (`r`). There is one hop
//! schedule, the **frontier**: a hop recomputes only vertices whose
//! closed neighborhood contains a state that changed in the previous
//! hop. The skip is *bit-identical*, not approximate: an MBF-like hop is
//! a deterministic function of the closed in-neighborhood, so unchanged
//! inputs imply an unchanged output. Work per hop shrinks from `Θ(m)` to
//! the size of the active wave, complementing the paper's `|x|`-bounded
//! cost per relaxation (Lemmas 7.6–7.8) with an `|active|`-bounded
//! number of relaxations. Because the skip is exact, sweeping quiescent
//! vertices never lowers work or depth, so a hop sweeps all of `V` only
//! when the frontier is all of `V`. The literal iteration is
//! [`core::engine::run`] — `h` applications of the one-shot
//! [`core::engine::iterate`] kernel, which shares no schedule code with
//! the engines — and every backend is differential-tested against it.
//!
//! Hops execute **thread-parallel**: the vendored rayon backend runs a
//! real worker pool (`MTE_THREADS`, default = available parallelism)
//! with a deterministic reduction tree, so every result — states, work
//! counters, sampled trees — is bit-identical for every thread count;
//! only wall time changes. Under the engine sit zero-allocation merge
//! kernels ([`algebra::merge`]): sparse state aggregation ping-pongs
//! between the accumulator and a per-worker scratch buffer, and the
//! engine double-buffers whole state vectors, so a steady-state hop
//! performs no per-vertex allocation.
//!
//! Distance-map workloads (SSSP/k-SSP/APSP, LE lists, the oracle
//! pipeline) run on the **epoch-arena backend** ([`core::arena`]): the
//! whole state vector lives in one span-backed pool
//! ([`algebra::store::EpochStore`]) with copy-on-write commits — an
//! unchanged vertex keeps its span at zero cost, changed states are
//! appended through per-chunk regions with a deterministic layout, and
//! garbage amortizes away in high-water compactions (the per-entry
//! rank column is opt-in per algorithm; only the LE lists carry it).
//! APSP (`SourceDetection::apsp`), whose states converge to full rows,
//! runs on the **dense-block backend** ([`core::dense`]): the state
//! vector as one flat row-major min-plus matrix ([`algebra::dense`])
//! relaxed by contiguous cache-tiled row kernels. It is the only dense
//! workload: other semirings and masking filters stay sparse. The differential suite
//! asserts every backend bit-identical to the literal iteration under
//! `MTE_THREADS ∈ {1, 4}`.
//! `cargo run --release -p mte-bench --bin exp_baseline` runs the engine
//! suite (every backend on the standard catalog, states cross-checked
//! against the literal iteration), writing the counter-gated
//! `BENCH_engine.json` trajectory artifact.
//!
//! ## Quickstart
//!
//! ```
//! use metric_tree_embedding::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A sparse random graph with polynomially bounded weights.
//! let g = gnm_graph(200, 600, 1.0..100.0, &mut rng);
//! // Sample one tree from the FRT distribution via the H-oracle pipeline.
//! let embedding = FrtEmbedding::sample(&g, &FrtConfig::default(), &mut rng);
//! let t = embedding.tree();
//! // Tree distances dominate graph distances for every node pair.
//! let du = t.leaf_distance(3, 77);
//! assert!(du >= sssp(&g, 3).dist(77).value());
//! ```

pub use mte_algebra as algebra;
pub use mte_apps as apps;
pub use mte_congest as congest;
pub use mte_core as core;
pub use mte_faults as faults;
pub use mte_graph as graph;
pub use mte_persist as persist;
pub use mte_serving as serving;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use mte_algebra::{Dist, DistanceMap, MinPlus, NodeId, Semimodule, Semiring};
    pub use mte_apps::buyatbulk::{BuyAtBulkInstance, BuyAtBulkSolution, CableType, Demand};
    pub use mte_apps::kmedian::{KMedianConfig, KMedianSolution};
    pub use mte_core::frt::{FrtConfig, FrtEmbedding, FrtTree, LeList};
    pub use mte_core::simgraph::{LevelAssignment, SimulatedGraph};
    pub use mte_graph::algorithms::{apsp, sssp, ShortestPaths};
    pub use mte_graph::generators::{
        caterpillar_graph, cycle_graph, expander_graph, gnm_graph, grid_graph, highway_graph,
        path_graph, random_geometric_graph, star_graph, tree_graph,
    };
    pub use mte_graph::{Graph, Hopset, HopsetConfig};
    pub use mte_serving::{Oracle, OracleArtifact, ServeConfig, ServeError};
}
