//! Algebraic foundations for Moore-Bellman-Ford-like (MBF-like) algorithms.
//!
//! This crate implements the algebraic machinery of Friedrichs & Lenzen,
//! *Parallel Metric Tree Embedding based on an Algebraic View on
//! Moore-Bellman-Ford* (SPAA 2016), Sections 1.2, 2 and Appendix A:
//!
//! * [`Semiring`] — a ring without additive inverses (Definition A.2),
//! * [`Semimodule`] — scalar multiplication (propagation) plus a semigroup
//!   (aggregation) over a semiring (Definition A.3),
//! * [`Filter`] — a representative projection of a congruence relation
//!   (Definitions 2.4 and 2.6), the ingredient that makes MBF-like
//!   algorithms efficient,
//! * concrete semirings used by the paper: the min-plus (tropical) semiring
//!   [`minplus`], the max-min semiring [`maxmin`] (Section 3.2), the
//!   all-paths semiring [`allpaths`] (Section 3.3) and the Boolean semiring
//!   [`boolean`] (Section 3.4),
//! * the distance-map semimodule `D` (Definition 2.1) in [`distance_map`],
//! * the epoch-arena state store for whole vectors `x ∈ D^V` in
//!   [`store`]: one flat entry pool with per-vertex `(offset, len)`
//!   spans, copy-on-write epochs and amortized compaction — the
//!   storage backend of the production engine paths (a
//!   [`DistanceMap`] vector remains the semantics reference and interop
//!   type),
//! * the dense min-plus block store for APSP state vectors in
//!   [`dense`]: row-major `n × k` distance matrices with contiguous,
//!   cache-tiled relax/aggregate row kernels — the paper's
//!   matrix-semimodule view taken literally for states that are
//!   effectively full.
//!
//! The law-checking helpers in [`laws`] are used by the property-test suite
//! to verify every axiom the paper states for these structures.

pub mod allpaths;
pub mod boolean;
pub mod dense;
pub mod dist;
pub mod distance_map;
pub mod filter;
pub mod laws;
pub mod matrix;
pub mod maxmin;
pub mod merge;
pub mod minplus;
pub mod node_set;
pub mod semimodule;
pub mod semiring;
pub mod store;
pub mod width_map;

pub use allpaths::{AllPaths, Path};
pub use boolean::Bool;
pub use dense::DenseBlock;
pub use dist::Dist;
pub use distance_map::DistanceMap;
pub use filter::{Filter, IdentityFilter};
pub use matrix::SemiringMatrix;
pub use maxmin::Width;
pub use minplus::MinPlus;
pub use node_set::NodeSet;
pub use semimodule::Semimodule;
pub use semiring::Semiring;
pub use store::{DistanceSlice, EpochStore, SpanOut, StoreStats};
pub use width_map::WidthMap;

/// Node identifier used across the workspace. `u32` keeps sparse state
/// entries small (12 bytes for a `(NodeId, Dist)` pair plus padding).
pub type NodeId = u32;
