//! Graph substrate for the metric-tree-embedding workspace.
//!
//! Provides the weighted undirected graphs the paper's algorithms run on
//! (Section 1.2: no loops, no parallel edges, positive weights,
//! polynomially bounded weight ratio), together with
//!
//! * [`generators`] — reproducible random and structured graph families,
//! * [`algorithms`] — sequential reference algorithms (Dijkstra SSSP/APSP,
//!   hop-limited Moore-Bellman-Ford, BFS, shortest-path diameter),
//!   used as ground truth by the test suite,
//! * [`spanner`] — the Baswana–Sen `(2k−1)`-spanner (used by
//!   Theorem 6.2 and Corollary 7.11),
//! * [`hopset`] — `(d, ε̂)`-hop sets (the substitute for Cohen's
//!   construction; see docs/DESIGN.md §3).

pub mod algorithms;
pub mod generators;
pub mod graph;
pub mod hopset;
pub mod io;
pub mod spanner;
#[cfg(test)]
mod testkit;

pub use graph::{EdgeList, Graph, GraphBuildError};
pub use hopset::{Hopset, HopsetConfig};
pub use spanner::baswana_sen_spanner;
