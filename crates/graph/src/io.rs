//! Plain-text graph I/O in the DIMACS shortest-path (`.gr`) dialect, so
//! experiments can run on external instances and results can be shared.
//!
//! Format:
//!
//! ```text
//! c comment lines
//! p sp <n> <m>
//! a <u> <v> <weight>     (1-based node ids; undirected edges once)
//! ```

use crate::graph::Graph;
use mte_algebra::NodeId;
use std::io::{BufRead, BufReader, Read};

/// Errors raised while parsing a `.gr` file.
#[derive(Debug, PartialEq, Eq)]
pub enum GraphParseError {
    /// The underlying reader failed; carries the I/O error's message.
    Io(String),
    /// Missing or malformed `p sp n m` line.
    MissingHeader,
    /// A second `p` line on the given line number.
    DuplicateHeader(usize),
    /// An arc line was malformed (wrong arity or unparsable numbers).
    BadArc(usize),
    /// A node id was outside `1..=n`.
    NodeOutOfRange(usize),
    /// The header declared `declared` edges but the document carried
    /// `parsed` arc lines.
    EdgeCountMismatch { declared: usize, parsed: usize },
    /// The arcs parsed but violate the graph invariants (loop,
    /// non-positive or non-finite weight).
    InvalidGraph(String),
}

impl std::fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphParseError::Io(msg) => write!(f, "I/O error: {msg}"),
            GraphParseError::MissingHeader => write!(f, "missing 'p sp <n> <m>' header"),
            GraphParseError::DuplicateHeader(line) => {
                write!(f, "duplicate 'p' header on line {line}")
            }
            GraphParseError::BadArc(line) => write!(f, "malformed arc on line {line}"),
            GraphParseError::NodeOutOfRange(line) => {
                write!(f, "node id out of range on line {line}")
            }
            GraphParseError::EdgeCountMismatch { declared, parsed } => {
                write!(
                    f,
                    "header declares {declared} edges but {parsed} were parsed"
                )
            }
            GraphParseError::InvalidGraph(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for GraphParseError {}

/// Parses a DIMACS-style `.gr` document.
///
/// Every failure maps to a typed [`GraphParseError`]: reader failures
/// to [`Io`](GraphParseError::Io), malformed lines to line-numbered
/// variants, a declared/parsed edge-count disagreement to
/// [`EdgeCountMismatch`](GraphParseError::EdgeCountMismatch), and
/// invariant violations (loops, bad weights) to
/// [`InvalidGraph`](GraphParseError::InvalidGraph) via
/// [`Graph::try_from_edges`]. No input makes this function panic.
pub fn read_gr(reader: impl Read) -> Result<Graph, GraphParseError> {
    if mte_faults::check_handled(
        mte_faults::FaultSite::GrParser,
        &[mte_faults::FaultKind::Io],
    )
    .is_some()
    {
        return Err(GraphParseError::Io("injected I/O failure".to_string()));
    }
    let buf = BufReader::new(reader);
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (idx, line) in buf.lines().enumerate() {
        let line = line.map_err(|e| GraphParseError::Io(e.to_string()))?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("c") | None => continue,
            Some("p") => {
                if header.is_some() {
                    return Err(GraphParseError::DuplicateHeader(idx + 1));
                }
                let _sp = parts.next();
                let nn = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or(GraphParseError::MissingHeader)?;
                let mm = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or(GraphParseError::MissingHeader)?;
                header = Some((nn, mm));
            }
            Some("a") => {
                let (n, _) = header.ok_or(GraphParseError::MissingHeader)?;
                let u = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or(GraphParseError::BadArc(idx + 1))?;
                let v = parts
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or(GraphParseError::BadArc(idx + 1))?;
                let w = parts
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or(GraphParseError::BadArc(idx + 1))?;
                if u == 0 || v == 0 || u > n || v > n {
                    return Err(GraphParseError::NodeOutOfRange(idx + 1));
                }
                edges.push(((u - 1) as NodeId, (v - 1) as NodeId, w));
            }
            Some(_) => continue, // unknown directive: skip
        }
    }
    let (n, m) = header.ok_or(GraphParseError::MissingHeader)?;
    if edges.len() != m {
        return Err(GraphParseError::EdgeCountMismatch {
            declared: m,
            parsed: edges.len(),
        });
    }
    Graph::try_from_edges(n, edges).map_err(|e| GraphParseError::InvalidGraph(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        // A path written as `.gr` text with fractional weights parses
        // back to its edges, in order and with 0-based ids.
        let text = "c path\np sp 5 4\na 1 2 2.5\na 2 3 0.75\na 3 4 4\na 4 5 1.25\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(0, 1, 2.5), (1, 2, 0.75), (2, 3, 4.0), (3, 4, 1.25)]
        );
    }

    #[test]
    fn parses_comments_and_header() {
        let text = "c hello\np sp 3 2\na 1 2 1.5\na 2 3 2.5\n";
        let g = read_gr(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.weight(0, 1), Some(1.5));
        assert_eq!(g.weight(1, 2), Some(2.5));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert_eq!(
            read_gr("a 1 2 1.0\n".as_bytes()).unwrap_err(),
            GraphParseError::MissingHeader
        );
    }

    #[test]
    fn out_of_range_node_is_an_error() {
        assert_eq!(
            read_gr("p sp 2 1\na 1 5 1.0\n".as_bytes()).unwrap_err(),
            GraphParseError::NodeOutOfRange(2)
        );
    }

    #[test]
    fn malformed_arc_is_an_error() {
        assert_eq!(
            read_gr("p sp 2 1\na 1 x 1.0\n".as_bytes()).unwrap_err(),
            GraphParseError::BadArc(2)
        );
    }
}
