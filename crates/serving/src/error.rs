//! Typed serving errors. A query that cannot be answered — torn
//! artifact, exhausted deadline, shed load, injected fault — maps to a
//! variant here; the serving layer never panics at a caller
//! (`tests/serving_corpus.rs` and the fault sweep pin the contract).

use mte_faults::{FaultKind, FaultSite};
use mte_persist::SnapshotError;
use std::fmt;

/// Why a query (or an artifact load) could not be served.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The artifact bytes failed the snapshot store's decode (bad
    /// magic, version skew, truncation, CRC mismatch, malformed
    /// payload) — or an injected `serve_artifact_read` I/O fault.
    Artifact(SnapshotError),
    /// The sections decoded individually but disagree with each other
    /// (length skew, a list that misses its owner or the global
    /// minimum-rank node, tree weights off the radius ladder, …):
    /// structurally invalid even though every CRC is correct.
    Malformed {
        /// First violated cross-section invariant.
        detail: String,
    },
    /// A query named a vertex the artifact does not embed.
    InvalidQuery {
        /// The offending vertex id.
        vertex: u32,
        /// Number of embedded vertices.
        n: usize,
    },
    /// The query's work-unit budget ran out: a point query could not
    /// afford even the degraded rung of the answer ladder, or a batch
    /// sweep could not finish all its rows.
    DeadlineExceeded {
        /// The budget that was in force.
        budget: u64,
    },
    /// Admission control shed the query: the bounded in-flight queue
    /// was full.
    Overloaded {
        /// Queries in flight when this one was shed: a racy sum of the
        /// admission shards' loads, at most `capacity`.
        in_flight: u32,
        /// The admission capacity.
        capacity: u32,
    },
    /// A cooperative cancellation token stopped a batch sweep.
    Cancelled {
        /// Output rows (one per source, in order) finished before the
        /// token was observed; the sweep polls it after each row that
        /// has a successor.
        rows_done: usize,
    },
    /// An injected fault fired during the query and was not absorbed
    /// (caught unwind or post-query audit of the fired-fault log).
    InjectedFault {
        /// The site that fired.
        site: FaultSite,
        /// The kind that fired.
        kind: FaultKind,
    },
    /// A non-injected panic crossed the query boundary.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Artifact(e) => write!(f, "artifact load failed: {e}"),
            ServeError::Malformed { detail } => {
                write!(f, "artifact sections disagree: {detail}")
            }
            ServeError::InvalidQuery { vertex, n } => {
                write!(f, "query names vertex {vertex}, artifact embeds {n}")
            }
            ServeError::DeadlineExceeded { budget } => {
                write!(f, "work-unit budget {budget} exhausted before an answer")
            }
            ServeError::Overloaded {
                in_flight,
                capacity,
            } => write!(f, "shed: {in_flight} in flight, capacity {capacity}"),
            ServeError::Cancelled { rows_done } => {
                write!(f, "batch cancelled after {rows_done} output rows")
            }
            ServeError::InjectedFault { site, kind } => {
                write!(f, "injected fault at {site} ({kind})")
            }
            ServeError::Panicked { message } => write!(f, "query panicked: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Artifact(e)
    }
}
