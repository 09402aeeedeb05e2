//! Distributed FRT construction in the Congest model (Section 8 of the
//! paper).
//!
//! The Congest model (Peleg \[38\]): synchronous rounds; per round each node
//! may send one `O(log n)`-bit message over each incident edge — here, one
//! `(node id, distance)` pair. This crate *simulates* the model at the
//! message level (docs/DESIGN.md §3, substitution 4) and reports exact round
//! and message counts for
//!
//! * [`khan`] — the LE-list algorithm of Khan et al. \[26\]
//!   (Section 8.1), running in `O(SPD(G) log n)` rounds w.h.p.,
//! * [`skeleton`] — the skeleton-based algorithm in the spirit of
//!   Ghaffari & Lenzen \[22\] / Section 8.3, which jump-starts the LE-list
//!   computation from a √n-size skeleton and beats the Khan et al. bound
//!   when `SPD(G) ≫ √n`.

pub mod cost;
pub mod khan;
pub mod skeleton;

pub use cost::CongestCost;
pub use khan::{khan_le_lists, pipelined_le_lists};
pub use skeleton::{skeleton_frt, SkeletonConfig, SkeletonResult};
