//! `mte_serving` — resilient query-serving layer over frozen metric
//! tree embedding artifacts.
//!
//! The pipeline crates *compute* an FRT-style embedding (LE lists, a
//! random order, a sampled tree); this crate *serves* it. An
//! [`OracleArtifact`] freezes the three sections through the snapshot
//! store's checksummed format and re-validates them against each other
//! on load — zero-trust: torn, truncated, bit-flipped, or
//! CRC-correct-but-skewed inputs all surface as typed [`ServeError`]s,
//! never panics.
//!
//! An [`Oracle`] wraps the artifact with the resilience front-end:
//!
//! - **deterministic deadlines** — per-query *work-unit* budgets, not
//!   wall clocks, so behaviour replays identically under any load or
//!   thread count;
//! - **admission control** — a bounded in-flight count, sharded so
//!   that clients on different threads write different cache lines,
//!   that sheds excess arrivals with a typed `Overloaded` instead of
//!   queueing unboundedly;
//! - **a degradation ladder** — exact tree LCA → LE-list intersection
//!   → truncated-list upper bound, each fall recorded in the
//!   [`Answer`];
//! - **cooperative cancellation** — batched sweeps, one row per source
//!   filled by range writes over a leaf-DFS vertex order, poll a
//!   [`CancelToken`] between rows;
//! - **a guarded panic boundary** — injected faults and stray panics
//!   are caught and audited into typed errors, mirroring the
//!   pipeline's `run_guarded`.
//!
//! See `docs/SERVING.md` for the full design and
//! `docs/ROBUSTNESS.md` for how the `serve_*` fault sites are swept.

pub mod artifact;
pub mod batch;
pub mod error;
pub mod frontend;
pub mod query;

pub use artifact::OracleArtifact;
pub use batch::CancelToken;
pub use error::ServeError;
pub use frontend::{BatchAnswer, Oracle, ServeConfig};
pub use query::{Answer, Rung, ServeDegradation};
