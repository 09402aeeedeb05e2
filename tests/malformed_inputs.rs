//! Malformed-input coverage (PR 6 satellite): every corrupt `.gr`
//! document and every invalid edge list maps to the *right* typed error
//! — [`GraphParseError`] / [`GraphBuildError`] — and nothing in the
//! parsing or construction path panics, whatever the input. The guarded
//! run drivers hold the same line for algorithms a backend cannot run.

use metric_tree_embedding::algebra::Dist;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::initial_states;
use metric_tree_embedding::core::run::{try_resume_on, try_run_on, Checkpoint, CheckpointPolicy};
use metric_tree_embedding::core::RunError;
use metric_tree_embedding::graph::io::{read_gr, GraphParseError};
use metric_tree_embedding::graph::{Graph, GraphBuildError};
use proptest::prelude::*;
use std::io::Read;

// ---------------------------------------------------------------------
// `.gr` corpus: one document per failure mode, asserting the exact
// typed error (including the 1-based line number where one is carried).
// ---------------------------------------------------------------------

#[test]
fn duplicate_header_is_rejected_with_its_line() {
    let doc = "c two headers\np sp 3 2\np sp 4 1\na 1 2 1.0\na 2 3 1.0\n";
    assert_eq!(
        read_gr(doc.as_bytes()).unwrap_err(),
        GraphParseError::DuplicateHeader(3)
    );
}

#[test]
fn header_missing_the_edge_count_is_rejected() {
    assert_eq!(
        read_gr("p sp 3\na 1 2 1.0\n".as_bytes()).unwrap_err(),
        GraphParseError::MissingHeader
    );
}

#[test]
fn header_with_garbled_vertex_count_is_rejected() {
    assert_eq!(
        read_gr("p sp three 2\n".as_bytes()).unwrap_err(),
        GraphParseError::MissingHeader
    );
}

#[test]
fn arc_before_the_header_is_rejected() {
    assert_eq!(
        read_gr("a 1 2 1.0\np sp 2 1\n".as_bytes()).unwrap_err(),
        GraphParseError::MissingHeader
    );
}

#[test]
fn truncated_arc_is_rejected_with_its_line() {
    assert_eq!(
        read_gr("p sp 3 2\na 1 2 1.0\na 2 3\n".as_bytes()).unwrap_err(),
        GraphParseError::BadArc(3)
    );
}

#[test]
fn garbled_weight_is_rejected_with_its_line() {
    assert_eq!(
        read_gr("p sp 2 1\na 1 2 heavy\n".as_bytes()).unwrap_err(),
        GraphParseError::BadArc(2)
    );
}

#[test]
fn zero_node_id_is_out_of_range() {
    // DIMACS ids are 1-based; 0 must not wrap around.
    assert_eq!(
        read_gr("p sp 2 1\na 0 2 1.0\n".as_bytes()).unwrap_err(),
        GraphParseError::NodeOutOfRange(2)
    );
}

#[test]
fn declared_edge_count_must_match_parsed_arcs() {
    // Fewer arcs than declared (a truncated file)...
    assert_eq!(
        read_gr("p sp 3 2\na 1 2 1.0\n".as_bytes()).unwrap_err(),
        GraphParseError::EdgeCountMismatch {
            declared: 2,
            parsed: 1
        }
    );
    // ...and more arcs than declared (a concatenation accident).
    assert_eq!(
        read_gr("p sp 3 1\na 1 2 1.0\na 2 3 1.0\n".as_bytes()).unwrap_err(),
        GraphParseError::EdgeCountMismatch {
            declared: 1,
            parsed: 2
        }
    );
}

#[test]
fn empty_document_is_a_missing_header() {
    assert_eq!(
        read_gr("".as_bytes()).unwrap_err(),
        GraphParseError::MissingHeader
    );
    assert_eq!(
        read_gr("c only comments\nc nothing else\n".as_bytes()).unwrap_err(),
        GraphParseError::MissingHeader
    );
}

#[test]
fn loop_arcs_and_bad_weights_are_invalid_graphs() {
    for doc in [
        "p sp 2 1\na 1 1 1.0\n",  // loop
        "p sp 2 1\na 1 2 -3.0\n", // negative weight
        "p sp 2 1\na 1 2 0\n",    // zero weight
        "p sp 2 1\na 1 2 NaN\n",  // NaN parses as f64, fails validation
        "p sp 2 1\na 1 2 inf\n",  // non-finite
    ] {
        assert!(
            matches!(
                read_gr(doc.as_bytes()),
                Err(GraphParseError::InvalidGraph(_))
            ),
            "{doc:?} must be InvalidGraph, got {:?}",
            read_gr(doc.as_bytes())
        );
    }
}

/// A reader that fails mid-stream: the error surfaces as the typed
/// `Io` variant carrying the underlying message.
struct FailingReader {
    served: usize,
}

impl Read for FailingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.served == 0 {
            let doc = b"p sp 2 1\n";
            buf[..doc.len()].copy_from_slice(doc);
            self.served = doc.len();
            Ok(doc.len())
        } else {
            Err(std::io::Error::other("disk on fire"))
        }
    }
}

#[test]
fn reader_failures_are_typed_io_errors() {
    match read_gr(FailingReader { served: 0 }) {
        Err(GraphParseError::Io(msg)) => assert!(msg.contains("disk on fire"), "{msg}"),
        other => panic!("expected Io, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Checked construction: `Graph::try_from_edges` reports the first
// violation in input order.
// ---------------------------------------------------------------------

#[test]
fn first_violation_in_input_order_wins() {
    // Edge 0 is fine, edge 1 has a bad weight, edge 2 is a loop: the
    // weight must be reported (input order, not severity order).
    let edges = vec![(0u32, 1u32, 1.0), (1, 2, f64::INFINITY), (3, 3, 1.0)];
    assert_eq!(
        Graph::try_from_edges(4, edges).unwrap_err(),
        GraphBuildError::BadWeight {
            index: 1,
            weight: f64::INFINITY
        }
    );
}

#[test]
fn out_of_range_endpoint_names_the_node_and_bound() {
    assert_eq!(
        Graph::try_from_edges(3, vec![(0u32, 7u32, 1.0)]).unwrap_err(),
        GraphBuildError::EndpointOutOfRange {
            index: 0,
            node: 7,
            n: 3
        }
    );
}

// ---------------------------------------------------------------------
// Guarded runs: an algorithm the backend cannot represent is a typed
// error from the `try_` drivers, never an unwind into the caller.
// ---------------------------------------------------------------------

#[test]
fn dense_backend_refuses_non_dense_algorithms_without_unwinding() {
    let g = metric_tree_embedding::graph::generators::path_graph(12, 1.0);
    let n = g.n();
    let all: Vec<u32> = (0..n as u32).collect();
    // Each filter masks or truncates, so none has dense rows: k-SSP with
    // k below the source count truncates, MSSP masks non-sources, and a
    // finite distance limit masks far entries.
    let algs = [
        SourceDetection::k_ssp(n, 4),
        SourceDetection::mssp(n, &[0, 5]),
        SourceDetection::new(n, &all, n, Dist::new(3.0)),
    ];
    // Under a budget too small for any block, the refusal still comes
    // first: the backend checks the instance before it allocates.
    let backends = [|| DenseBackend::new(None), || DenseBackend::new(Some(8))];
    for alg in &algs {
        for backend in backends {
            let ckpt = Checkpoint {
                hop: 1,
                frontier: vec![0],
                states: initial_states(alg, n),
            };
            let outcomes = std::panic::catch_unwind(|| {
                let run = try_run_on(backend(), alg, &g, 13, CheckpointPolicy::disabled(), |_| {
                    Ok(())
                });
                let resume = try_resume_on(backend(), alg, &g, 13, &ckpt);
                [run.map(|_| ()), resume.map(|_| ())]
            })
            .expect("a try_ driver unwound");
            for outcome in outcomes {
                match outcome {
                    Err(RunError::Panicked { message }) => {
                        assert!(message.contains("dense"), "unexpected message: {message}")
                    }
                    other => panic!("expected a typed refusal, got {other:?}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property fuzz: arbitrary edge lists and mangled documents.
// ---------------------------------------------------------------------

/// An arbitrary (possibly invalid) edge for a graph on `n ≤ 12`
/// vertices: endpoints range past `n`, weights include zero, negatives,
/// and non-finite values.
fn any_edge() -> impl Strategy<Value = (u32, u32, f64)> {
    (
        0u32..16,
        0u32..16,
        prop_oneof![
            4 => 0.01f64..100.0,
            1 => Just(0.0),
            1 => -10.0f64..0.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `try_from_edges` accepts exactly the lists with no violation,
    /// rejects all others with the right first-violation error, and
    /// never panics.
    #[test]
    fn try_from_edges_accepts_iff_no_violation(
        n in 1usize..12,
        edges in proptest::collection::vec(any_edge(), 0..20),
    ) {
        let expected = edges.iter().enumerate().find_map(|(index, &(u, v, w))| {
            if u == v {
                return Some(GraphBuildError::Loop { index, node: u });
            }
            if !(w > 0.0 && w.is_finite()) {
                return Some(GraphBuildError::BadWeight { index, weight: w });
            }
            if u as usize >= n {
                return Some(GraphBuildError::EndpointOutOfRange { index, node: u, n });
            }
            if v as usize >= n {
                return Some(GraphBuildError::EndpointOutOfRange { index, node: v, n });
            }
            None
        });
        match (Graph::try_from_edges(n, edges.clone()), expected) {
            (Ok(g), None) => {
                // Accepted lists build a coherent graph: duplicates
                // collapse, so m is bounded by the input length.
                prop_assert_eq!(g.n(), n);
                prop_assert!(g.m() <= edges.len());
            }
            (Err(got), Some(want)) => {
                // NaN breaks PartialEq on BadWeight; compare through
                // the Debug form, which prints NaN literally.
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
            (got, want) => prop_assert!(false, "got {got:?}, wanted {want:?}"),
        }
    }

    /// No byte soup makes the parser panic; it always returns a typed
    /// result.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(words in proptest::collection::vec(0u32..256, 0..256)) {
        let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
        let _ = read_gr(bytes.as_slice());
    }

    /// Structured mangling: a valid document with one line dropped,
    /// duplicated, or bit-flipped still parses to a typed result, and
    /// the *unmangled* document round-trips.
    #[test]
    fn parser_never_panics_on_mangled_documents(
        n in 2usize..8,
        mangle_line in 0usize..6,
        mode in 0u8..3,
    ) {
        let base = format!(
            "c base\np sp {n} {m}\n{arcs}",
            m = n - 1,
            arcs = (1..n).map(|i| format!("a {i} {} {}.5\n", i + 1, i)).collect::<String>(),
        );
        prop_assert!(read_gr(base.as_bytes()).is_ok());
        let lines: Vec<&str> = base.lines().collect();
        let idx = mangle_line % lines.len();
        let mangled: String = match mode {
            0 => lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != idx)
                .map(|(_, l)| format!("{l}\n"))
                .collect(),
            1 => lines
                .iter()
                .enumerate()
                .flat_map(|(i, l)| {
                    std::iter::repeat_n(format!("{l}\n"), if i == idx { 2 } else { 1 })
                })
                .collect(),
            _ => lines
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    if i == idx {
                        format!("{}\n", l.replace(char::is_numeric, "?"))
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect(),
        };
        let _ = read_gr(mangled.as_bytes());
    }
}
