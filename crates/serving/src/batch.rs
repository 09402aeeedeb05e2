//! Batched distance sweeps over the artifact's leaf-DFS vertex order.
//!
//! A batch asks for the tree distance from `k` source vertices to
//! *every* vertex. In an FRT tree every level-`ℓ` edge weighs
//! `r_{ℓ+1}`, so `dist_T(s, v)` depends only on the level of
//! `LCA(s, v)`: it is the artifact's climb table at that level. Let
//! `a_0 … a_top` be the leaf-to-root chain of source `s`. The vertices
//! whose LCA with `s` is `a_ℓ` are those below `a_ℓ` but not below
//! `a_{ℓ−1}`. In the artifact's leaf-DFS order the vertices below a
//! node form one contiguous range, so that set is
//! `range(a_ℓ) \ range(a_{ℓ−1})`: at most two contiguous pieces.
//!
//! One row therefore walks the chain once and writes `climb[ℓ]` into
//! those pieces. Every vertex is written exactly once, so a row costs
//! `n` writes plus `depth` chain steps, with no per-node block and no
//! arithmetic. Every value is a climb-table entry, which replays
//! `node_distance`'s accumulation order, so the row is bit-identical to
//! [`FrtTree::leaf_distance`].
//!
//! The sweep is metered — per row, one work unit per chain node plus
//! `⌈n/64⌉` units for its `n` writes — and polls its [`CancelToken`]
//! between rows.

use crate::artifact::TreeLayout;
use crate::error::ServeError;
use crate::query::{BudgetExhausted, Meter};
use mte_core::frt::FrtTree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Row writes billed per work unit: a row of `n` writes costs
/// `⌈n / WRITES_PER_UNIT⌉` units on top of its chain steps.
pub(crate) const WRITES_PER_UNIT: usize = 64;

/// A cooperative cancellation token: cloned into a batch sweep, which
/// polls it between rows and abandons with a typed
/// [`ServeError::Cancelled`] when set.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unset token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// One batched sweep: `out[i][v]` = exact tree distance from
/// `sources[i]` to vertex `v`, bit-identical to
/// [`FrtTree::leaf_distance`]. The caller validates the source ids.
pub(crate) fn batch_tree_distances(
    tree: &FrtTree,
    layout: &TreeLayout,
    sources: &[u32],
    token: &CancelToken,
    meter: &mut Meter,
) -> Result<Vec<Vec<f64>>, ServeError> {
    let budget = meter.budget();
    let budget_err = move |_: BudgetExhausted| ServeError::DeadlineExceeded { budget };
    let n = tree.num_vertices();
    let write_units = n.div_ceil(WRITES_PER_UNIT) as u64;
    let mut out = Vec::with_capacity(sources.len());
    for (rows_done, &s) in sources.iter().enumerate() {
        if rows_done > 0 && token.is_cancelled() {
            return Err(ServeError::Cancelled { rows_done });
        }
        meter.charge(write_units).map_err(budget_err)?;
        let mut row = vec![0.0f64; n];
        fill_row(tree, layout, s, &mut row, meter).map_err(budget_err)?;
        out.push(row);
    }
    Ok(out)
}

/// Writes source `s`'s row: for each node `a` on its leaf-to-root
/// chain, `climb[level(a)]` into the part of `a`'s range the previous
/// (lower) chain node did not cover. One work unit per chain node.
fn fill_row(
    tree: &FrtTree,
    layout: &TreeLayout,
    s: u32,
    row: &mut [f64],
    meter: &mut Meter,
) -> Result<(), BudgetExhausted> {
    let nodes = tree.nodes();
    let TreeLayout { climb, order, span } = layout;
    let mut a = tree.leaf(s);
    // `order[lo..hi]` is already written: the previous chain node's
    // range (empty before the leaf).
    let mut lo = span[a].0 as usize;
    let mut hi = lo;
    loop {
        meter.charge(1)?;
        let (start, len) = span[a];
        let (start, end) = (start as usize, start as usize + len as usize);
        let value = climb[nodes[a].level as usize];
        for &v in &order[start..lo] {
            row[v as usize] = value;
        }
        for &v in &order[hi..end] {
            row[v as usize] = value;
        }
        (lo, hi) = (start, end);
        if a == 0 {
            return Ok(());
        }
        a = nodes[a].parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::OracleArtifact;
    use crate::frontend::{Oracle, ServeConfig};
    use mte_core::frt::{le_lists_direct, le_lists_from_metric, Ranks};
    use mte_graph::algorithms::apsp;
    use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
    use mte_graph::Graph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn artifact_for(g: &Graph, seed: u64) -> OracleArtifact {
        let ranks = Arc::new(Ranks::sample(g.n(), &mut StdRng::seed_from_u64(seed)));
        let (lists, _, _) = le_lists_direct(g, &ranks);
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
        match OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree) {
            Ok(a) => a,
            Err(e) => panic!("valid parts rejected: {e}"),
        }
    }

    /// The tree of a metric in which vertices `2i` and `2i + 1` are
    /// copies of vertex `i` of `g`: every copy pair sits at distance 0
    /// and shares a leaf. (No artifact: the artifact's validation wants
    /// every vertex first in its own LE list, and a copy of lower rank
    /// sits there instead.)
    fn duplicated_metric_tree(g: &Graph, seed: u64) -> FrtTree {
        let base = apsp(g);
        let metric: Vec<Vec<_>> = (0..2 * g.n())
            .map(|u| (0..2 * g.n()).map(|v| base[u / 2][v / 2]).collect())
            .collect();
        let ranks = Ranks::sample(metric.len(), &mut StdRng::seed_from_u64(seed));
        let (lists, _) = le_lists_from_metric(&metric, &ranks);
        FrtTree::from_le_lists(&lists, &ranks, 1.7, 0.0)
    }

    /// The documented work of a `k`-source sweep.
    fn sweep_work(tree: &FrtTree, k: usize) -> u64 {
        let row = tree.num_levels() + tree.num_vertices().div_ceil(WRITES_PER_UNIT);
        (k * row) as u64
    }

    fn sweep(
        tree: &FrtTree,
        sources: &[u32],
        token: &CancelToken,
        budget: u64,
    ) -> (Result<Vec<Vec<f64>>, ServeError>, u64) {
        let mut meter = Meter::new(budget);
        let rows = batch_tree_distances(tree, &TreeLayout::new(tree), sources, token, &mut meter);
        (rows, meter.spent())
    }

    fn assert_all_rows_match(tree: &FrtTree) -> Result<(), TestCaseError> {
        let n = tree.num_vertices() as u32;
        let sources: Vec<u32> = (0..n).collect();
        let (rows, spent) = sweep(tree, &sources, &CancelToken::new(), u64::MAX);
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => return Err(TestCaseError(format!("sweep failed: {e}"))),
        };
        prop_assert_eq!(rows.len(), sources.len());
        for s in 0..n {
            for v in 0..n {
                let want = tree.leaf_distance(s, v);
                prop_assert_eq!(rows[s as usize][v as usize].to_bits(), want.to_bits());
            }
        }
        prop_assert_eq!(spent, sweep_work(tree, sources.len()));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every source × every target, bit for bit, on the gnm, grid
        /// and path families and on a metric whose copies share leaves.
        #[test]
        fn rows_equal_leaf_distance_everywhere(
            family in 0usize..4,
            size in 2usize..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = match family {
                0 => artifact_for(&gnm_graph(size + 1, 3 * size, 1.0..9.0, &mut rng), seed)
                    .tree()
                    .clone(),
                1 => artifact_for(&grid_graph(2 + size % 7, 1 + size / 4, 1.0..5.0, &mut rng), seed)
                    .tree()
                    .clone(),
                2 => artifact_for(&path_graph(size, 1.0), seed).tree().clone(),
                _ => duplicated_metric_tree(&gnm_graph(size / 2 + 1, size + 2, 1.0..9.0, &mut rng), seed),
            };
            if family == 3 {
                prop_assert_eq!(tree.leaf(0), tree.leaf(1));
            }
            assert_all_rows_match(&tree)?;
        }
    }

    /// Regression: the sweep used to bill one unit per tree node
    /// whatever the batch size, so under the default budget a batch of
    /// a few sources on a large tree failed with `DeadlineExceeded`.
    #[test]
    fn a_one_source_sweep_fits_the_default_budget_on_a_large_tree() {
        let mut rng = StdRng::seed_from_u64(0x5E4B);
        let artifact = artifact_for(&gnm_graph(2000, 6000, 1.0..50.0, &mut rng), 0x5E4C);
        let tree = artifact.tree().clone();
        assert!(artifact.n() >= 2000);
        assert!(
            tree.len() as u64 > ServeConfig::default().batch_budget_per_query,
            "the tree must outgrow the per-source budget"
        );
        let oracle = Oracle::new(artifact);
        let batch = match oracle.batch_distances(&[17], &CancelToken::new()) {
            Ok(batch) => batch,
            Err(e) => panic!("default budget must serve one source: {e}"),
        };
        for v in 0..tree.num_vertices() as u32 {
            assert_eq!(
                batch.distances[0][v as usize].to_bits(),
                tree.leaf_distance(17, v).to_bits(),
                "(17, {v})"
            );
        }
        assert_eq!(batch.work, sweep_work(&tree, 1));
    }

    #[test]
    fn the_budget_covers_exactly_the_documented_work() {
        let mut rng = StdRng::seed_from_u64(0xB0D6);
        let artifact = artifact_for(&gnm_graph(150, 430, 1.0..9.0, &mut rng), 7);
        let tree = artifact.tree();
        let sources = [0u32, 9, 140];
        let exact = sweep_work(tree, sources.len());
        let (rows, spent) = sweep(tree, &sources, &CancelToken::new(), exact);
        assert!(rows.is_ok());
        assert_eq!(spent, exact);
        let (rows, _) = sweep(tree, &sources, &CancelToken::new(), exact - 1);
        assert_eq!(
            rows,
            Err(ServeError::DeadlineExceeded { budget: exact - 1 })
        );
    }

    #[test]
    fn cancellation_is_polled_between_rows() {
        let artifact = artifact_for(&path_graph(20, 1.0), 5);
        let tree = artifact.tree();
        let token = CancelToken::new();
        token.cancel();
        let (rows, spent) = sweep(tree, &[0, 1, 2], &token, u64::MAX);
        assert_eq!(rows, Err(ServeError::Cancelled { rows_done: 1 }));
        // Only the finished row was billed.
        assert_eq!(spent, sweep_work(tree, 1));
        // A single row has no later row to skip: it is answered.
        let (rows, _) = sweep(tree, &[3], &token, u64::MAX);
        assert!(matches!(rows, Ok(rows) if rows.len() == 1));
    }

    #[test]
    fn token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }
}
