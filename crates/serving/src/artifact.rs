//! The frozen oracle artifact: an immutable, validated bundle of LE
//! lists + random order + FRT tree from a finished run, serialized
//! through `mte_persist`'s checksummed sections (`LeLists` / `Ranks` /
//! `FrtTree`).
//!
//! Loading is **zero-trust**: the snapshot store already rejects torn,
//! truncated, bit-flipped and per-section malformed images with a typed
//! [`SnapshotError`]; on top of that, [`OracleArtifact::from_parts`]
//! cross-validates the sections *against each other* — length skew, a
//! list missing its owner or the global minimum-rank node, unsorted
//! distances, tree edge weights off the radius ladder. Bytes that pass
//! every CRC can still not materialize an artifact whose queries panic,
//! loop, or silently answer wrong; every rejection is a typed
//! [`ServeError`].

use crate::error::ServeError;
use mte_core::frt::{FrtEmbedding, FrtTree, LeList, Ranks};
use mte_faults::{check_for, check_handled, trigger_panic, FaultKind, FaultSite};
use mte_persist::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::path::Path;

/// A validated, immutable distance-oracle artifact.
#[derive(Clone, Debug)]
pub struct OracleArtifact {
    lists: Vec<LeList>,
    ranks: Ranks,
    tree: FrtTree,
    /// The tree's batch layout, derived on freeze and load.
    layout: TreeLayout,
}

/// What the batch sweep reads besides the tree, derived from it in
/// O(|nodes| + n) and never serialized.
#[derive(Clone, Debug)]
pub(crate) struct TreeLayout {
    /// `climb[l]` = tree distance between two leaves whose LCA sits at
    /// level `l`, accumulated in exactly the fold order
    /// [`FrtTree::node_distance`] uses — bit-identical to the point
    /// rung whenever every edge weight sits on the radius ladder.
    pub(crate) climb: Vec<f64>,
    /// The vertices in leaf-DFS order: the vertices below any tree node
    /// are contiguous, and vertices sharing a leaf are adjacent.
    pub(crate) order: Vec<u32>,
    /// `span[node] = (start, len)`: the vertices below `node` are
    /// `order[start..start + len]`.
    pub(crate) span: Vec<(u32, u32)>,
}

impl OracleArtifact {
    /// Freezes a finished embedding into an artifact.
    pub fn from_embedding(emb: &FrtEmbedding) -> Result<OracleArtifact, ServeError> {
        OracleArtifact::from_parts(
            emb.le_lists().to_vec(),
            emb.ranks().clone(),
            emb.tree().clone(),
        )
    }

    /// Assembles and validates an artifact from raw parts. Every
    /// cross-section inconsistency is a typed error; a returned
    /// artifact can serve any query without panicking.
    pub fn from_parts(
        lists: Vec<LeList>,
        ranks: Ranks,
        tree: FrtTree,
    ) -> Result<OracleArtifact, ServeError> {
        validate(&lists, &ranks, &tree)?;
        let layout = TreeLayout::new(&tree);
        Ok(OracleArtifact {
            lists,
            ranks,
            tree,
            layout,
        })
    }

    /// Decodes and validates an artifact image.
    ///
    /// This is the `serve_artifact_read` fault site: an injected
    /// [`FaultKind::Io`] surfaces as a typed
    /// [`ServeError::Artifact`] (absorbed, like `snapshot_read`'s); an
    /// injected panic kind aborts the load (absorbed into a typed
    /// error by the guarded front-end).
    pub fn decode(bytes: &[u8]) -> Result<OracleArtifact, ServeError> {
        if check_for(FaultSite::ServeArtifactRead, &[FaultKind::Panic]).is_some() {
            trigger_panic(FaultSite::ServeArtifactRead);
        }
        if check_handled(FaultSite::ServeArtifactRead, &[FaultKind::Io]).is_some() {
            return Err(ServeError::Artifact(SnapshotError::Io(
                "injected I/O failure".to_string(),
            )));
        }
        let reader = SnapshotReader::decode(bytes)?;
        let lists = reader.le_lists()?;
        let ranks = reader.ranks()?;
        let tree = reader.frt_tree()?;
        OracleArtifact::from_parts(lists, ranks, tree)
    }

    /// Reads and validates an artifact file.
    pub fn read_from(path: &Path) -> Result<OracleArtifact, ServeError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::Artifact(SnapshotError::Io(e.to_string())))?;
        OracleArtifact::decode(&bytes)
    }

    /// The encoded snapshot image (sections `LeLists`, `Ranks`,
    /// `FrtTree`).
    pub fn encode(&self) -> Vec<u8> {
        self.writer().encode()
    }

    /// Crash-safe write through the snapshot store's atomic protocol.
    pub fn write_to(&self, path: &Path) -> Result<(), ServeError> {
        self.writer().write_to(path).map_err(ServeError::Artifact)
    }

    fn writer(&self) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.put_le_lists(&self.lists)
            .put_ranks(&self.ranks)
            .put_frt_tree(&self.tree);
        w
    }

    /// Number of embedded graph vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.ranks.n()
    }

    /// The LE lists (one per vertex, validated).
    #[inline]
    pub fn le_lists(&self) -> &[LeList] {
        &self.lists
    }

    /// The random order the LE lists are relative to.
    #[inline]
    pub fn ranks(&self) -> &Ranks {
        &self.ranks
    }

    /// The sampled FRT tree.
    #[inline]
    pub fn tree(&self) -> &FrtTree {
        &self.tree
    }

    /// The batch sweep's derived layout (see [`TreeLayout`]).
    #[inline]
    pub(crate) fn layout(&self) -> &TreeLayout {
        &self.layout
    }
}

impl TreeLayout {
    /// Derives the layout of a tree whose edge weights sit on its
    /// radius ladder (`from_le_lists` builds them so, and
    /// [`OracleArtifact::from_parts`] checks it), in linear passes that
    /// rely on every parent preceding its children (checked by
    /// `FrtTree::from_parts`).
    pub(crate) fn new(tree: &FrtTree) -> TreeLayout {
        let radii = tree.radii();
        let mut climb = vec![0.0f64; radii.len()];
        for l in 1..radii.len() {
            // The per-level increment of `node_distance` for two
            // level-aligned climbers: both parent edges weigh r_l.
            climb[l] = climb[l - 1] + (radii[l] + radii[l]);
        }
        let nodes = tree.nodes();
        let n = tree.num_vertices();
        // Children before parents: count the vertices below each node.
        let mut span = vec![(0u32, 0u32); nodes.len()];
        for v in 0..n as u32 {
            span[tree.leaf(v)].1 += 1;
        }
        for i in (1..nodes.len()).rev() {
            span[nodes[i].parent].1 += span[i].1;
        }
        // Parents before children: each child starts where its parent's
        // cursor (`.0`) stands and advances it by its own length; the
        // vertices then advance their leaf's cursor. Every cursor ends
        // at its node's range end.
        for i in 1..nodes.len() {
            let parent = nodes[i].parent;
            span[i].0 = span[parent].0;
            span[parent].0 += span[i].1;
        }
        let mut order = vec![0u32; n];
        for v in 0..n as u32 {
            let cursor = &mut span[tree.leaf(v)].0;
            order[*cursor as usize] = v;
            *cursor += 1;
        }
        for (start, len) in &mut span {
            *start -= *len;
        }
        TreeLayout { climb, order, span }
    }
}

/// Cross-section validation (see module docs). Returns the first
/// violated invariant as a typed error.
fn validate(lists: &[LeList], ranks: &Ranks, tree: &FrtTree) -> Result<(), ServeError> {
    let n = ranks.n();
    let malformed = |detail: String| Err(ServeError::Malformed { detail });
    if n == 0 {
        return malformed("empty rank permutation".to_string());
    }
    if lists.len() != n {
        return malformed(format!("{} LE lists for {n} ranked vertices", lists.len()));
    }
    if tree.num_vertices() != n {
        return malformed(format!(
            "tree embeds {} vertices, ranks cover {n}",
            tree.num_vertices()
        ));
    }
    let min_rank_node = ranks.min_rank_node();
    for (v, list) in lists.iter().enumerate() {
        let entries = list.entries();
        let Some((&(first, d0), &(last, _))) = entries.first().zip(entries.last()) else {
            return malformed(format!("vertex {v} has an empty LE list"));
        };
        if first as usize != v || d0.value() != 0.0 {
            return malformed(format!(
                "vertex {v}'s list does not start with its owner at distance 0"
            ));
        }
        if last != min_rank_node {
            return malformed(format!(
                "vertex {v}'s list does not end at the global minimum-rank node"
            ));
        }
        let mut prev_dist = f64::NEG_INFINITY;
        let mut prev_rank = u32::MAX;
        for &(w, d) in entries {
            if w as usize >= n {
                return malformed(format!("vertex {v}'s list names node {w} (n = {n})"));
            }
            let dv = d.value();
            if !dv.is_finite() || dv < prev_dist {
                return malformed(format!(
                    "vertex {v}'s list distances are not finite ascending"
                ));
            }
            let r = ranks.rank(w);
            if r >= prev_rank && entries.len() > 1 {
                return malformed(format!(
                    "vertex {v}'s list ranks are not strictly decreasing"
                ));
            }
            prev_dist = dv;
            prev_rank = r;
        }
    }
    // The snapshot decoder's `FrtTree::from_parts` already enforces the
    // tree-shape invariants (level ladder, parents preceding children,
    // finite positive weights, valid leaf indices). What it cannot know is that the weights sit
    // on the radius ladder — which is what makes the batch sweep's
    // climb table bit-identical to a leaf-to-leaf climb.
    let radii = tree.radii();
    for (i, node) in tree.nodes().iter().enumerate() {
        let expected = if i == 0 {
            0.0
        } else {
            match radii.get(node.level as usize + 1) {
                Some(&r) => r,
                None => {
                    return malformed(format!("tree node {i} sits above the radius ladder"));
                }
            }
        };
        if node.parent_weight != expected {
            return malformed(format!(
                "tree node {i} parent weight {} is off the radius ladder (want {expected})",
                node.parent_weight
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_core::frt::le_lists_direct;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn sample_parts() -> (Vec<LeList>, Ranks, FrtTree) {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gnm_graph(24, 60, 1.0..6.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.25, g.min_weight());
        (lists, Ranks::clone(&ranks), tree)
    }

    #[test]
    fn roundtrip_preserves_answers() {
        let (lists, ranks, tree) = sample_parts();
        let art = match OracleArtifact::from_parts(lists, ranks, tree) {
            Ok(a) => a,
            Err(e) => panic!("valid parts rejected: {e}"),
        };
        let back = match OracleArtifact::decode(&art.encode()) {
            Ok(a) => a,
            Err(e) => panic!("own encoding rejected: {e}"),
        };
        for u in 0..art.n() as u32 {
            for v in 0..u {
                assert_eq!(
                    back.tree().leaf_distance(u, v),
                    art.tree().leaf_distance(u, v)
                );
            }
        }
    }

    #[test]
    fn length_skew_is_typed() {
        let (mut lists, ranks, tree) = sample_parts();
        lists.pop();
        assert!(matches!(
            OracleArtifact::from_parts(lists, ranks, tree),
            Err(ServeError::Malformed { .. })
        ));
    }

    #[test]
    fn climb_table_matches_node_distance() {
        let (lists, ranks, tree) = sample_parts();
        let art = match OracleArtifact::from_parts(lists, ranks, tree) {
            Ok(a) => a,
            Err(e) => panic!("valid parts rejected: {e}"),
        };
        // Every leaf pair: the table entry at the LCA level equals the
        // climbed distance bit for bit.
        let tree = art.tree();
        for u in 0..art.n() as u32 {
            for v in 0..art.n() as u32 {
                let mut a = tree.leaf(u);
                let mut b = tree.leaf(v);
                while a != b {
                    a = tree.nodes()[a].parent;
                    b = tree.nodes()[b].parent;
                }
                let lca_level = tree.nodes()[a].level as usize;
                assert_eq!(
                    art.layout().climb[lca_level],
                    tree.leaf_distance(u, v),
                    "({u},{v})"
                );
            }
        }
    }
}
