//! The literal reference shared by the differential suites.

use metric_tree_embedding::core::engine::{initial_states, iterate, MbfAlgorithm, MbfRun};
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::Graph;

/// The literal fixpoint loop: the one-shot `iterate` kernel from
/// `r^V x⁽⁰⁾` until the first hop that changes nothing, or `cap` hops,
/// counted like `run_to_fixpoint_on`. It shares no schedule, chunking
/// or commit code with the engines, so every backend's states,
/// iteration counts and fixpoint flags are asserted against it.
pub fn literal_fixpoint<A: MbfAlgorithm>(alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M> {
    let mut states = initial_states(alg, g.n());
    let mut work = WorkStats::new();
    let (mut iterations, mut fixpoint) = (0, false);
    while iterations < cap {
        let (next, w) = iterate(alg, g, &states);
        work += w;
        iterations += 1;
        if next == states {
            fixpoint = true;
            break;
        }
        states = next;
    }
    MbfRun {
        states,
        iterations,
        fixpoint,
        work,
    }
}
