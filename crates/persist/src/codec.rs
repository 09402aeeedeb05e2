//! Per-type payload codecs. Encoders read the in-memory structures
//! through their public accessors; decoders validate **every**
//! structural invariant before constructing, because the constructors
//! on the other side either panic on bad input (`Dist::new` on
//! NaN/negative) or merely debug-assert it
//! (`LeList::from_entries_sorted`) — a snapshot that came from disk
//! gets no benefit of the doubt.

use crate::error::SnapshotError;
use crate::wire::{put_f64, put_u32, put_u64, Cursor};
use mte_algebra::store::EpochStore;
use mte_algebra::{Dist, DistanceMap, NodeId};
use mte_core::frt::{FrtNode, FrtTree, LeList, Ranks};
use mte_core::run::Checkpoint;

fn finish(c: &Cursor<'_>, context: &'static str) -> Result<(), SnapshotError> {
    if c.is_done() {
        Ok(())
    } else {
        Err(SnapshotError::Malformed(format!(
            "{} bytes of trailing garbage after {context}",
            c.remaining()
        )))
    }
}

// -- distance maps ----------------------------------------------------

fn put_dist_entries(out: &mut Vec<u8>, entries: &[(NodeId, Dist)]) {
    put_u64(out, entries.len() as u64);
    for &(v, d) in entries {
        put_u32(out, v);
        put_f64(out, d.value());
    }
}

fn read_dist(c: &mut Cursor<'_>, context: &'static str) -> Result<Dist, SnapshotError> {
    let raw = c.f64(context)?;
    if raw.is_nan() || raw < 0.0 {
        return Err(SnapshotError::Malformed(format!(
            "distance {raw} in {context}"
        )));
    }
    Ok(Dist::new(raw))
}

/// One distance map: node ids strictly ascending, distances finite
/// (the [`DistanceMap`] invariant — `∞` entries are never stored).
fn read_distance_map(c: &mut Cursor<'_>) -> Result<DistanceMap, SnapshotError> {
    let len = c.count(12, "distance map")?;
    let mut entries = Vec::with_capacity(len);
    let mut prev: Option<NodeId> = None;
    for _ in 0..len {
        let v = c.u32("distance map entry")?;
        let d = read_dist(c, "distance map entry")?;
        if !d.is_finite() {
            return Err(SnapshotError::Malformed(format!(
                "infinite stored distance at node {v}"
            )));
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(SnapshotError::Malformed(
                "distance map nodes not strictly ascending".to_string(),
            ));
        }
        prev = Some(v);
        entries.push((v, d));
    }
    Ok(DistanceMap::from_entries(entries))
}

pub fn encode_distance_maps(maps: &[DistanceMap]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, maps.len() as u64);
    for m in maps {
        put_dist_entries(&mut out, m.entries());
    }
    out
}

pub fn decode_distance_maps(payload: &[u8]) -> Result<Vec<DistanceMap>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let maps = read_distance_maps(&mut c)?;
    finish(&c, "distance maps")?;
    Ok(maps)
}

fn read_distance_maps(c: &mut Cursor<'_>) -> Result<Vec<DistanceMap>, SnapshotError> {
    let n = c.count(8, "distance map count")?;
    (0..n).map(|_| read_distance_map(c)).collect()
}

// -- epoch store ------------------------------------------------------

/// A decoded [`EpochStore`] image: per-vertex states plus the rank
/// column bits (when the store was ranked). Validated at decode;
/// [`StoreSnapshot::restore`] is infallible.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreSnapshot {
    /// Whether the source store carried the 4 B/entry rank column.
    pub ranked: bool,
    /// Per-vertex states, index = node id.
    pub states: Vec<DistanceMap>,
    /// Sorted `(key, rank)` pairs reconstructed from the rank columns —
    /// ranks are a pure function of the entry key (the
    /// `ArenaMbfAlgorithm::entry_aux` contract, checked at decode), so
    /// one table covers every span. Empty for unranked stores.
    aux: Vec<(NodeId, u32)>,
}

impl StoreSnapshot {
    /// Rebuilds the pool: bulk-import of the states with the recorded
    /// rank column. The result is observationally identical to the
    /// snapshotted store (same per-vertex spans, same rank bits); pool
    /// internals (chunk boundaries, garbage) are not preserved — they
    /// were never observable.
    pub fn restore(&self) -> EpochStore {
        let mut store = EpochStore::with_rank_column(self.states.len(), self.ranked);
        store.import(&self.states, |u| {
            match self.aux.binary_search_by_key(&u, |&(k, _)| k) {
                Ok(i) => self.aux[i].1,
                Err(_) => 0,
            }
        });
        store
    }
}

pub fn encode_store(store: &EpochStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(store.is_ranked() as u8);
    put_u64(&mut out, store.len() as u64);
    for v in 0..store.len() {
        let slice = store.get_raw(v as NodeId);
        put_dist_entries(&mut out, slice.entries);
        if store.is_ranked() {
            for &r in slice.ranks {
                put_u32(&mut out, r);
            }
        }
    }
    out
}

pub fn decode_store(payload: &[u8]) -> Result<StoreSnapshot, SnapshotError> {
    let mut c = Cursor::new(payload);
    let ranked = match c.u8("store header")? {
        0 => false,
        1 => true,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "store ranked flag is {other}"
            )))
        }
    };
    let n = c.count(8, "store vertex count")?;
    let mut states = Vec::with_capacity(n);
    let mut aux: Vec<(NodeId, u32)> = Vec::new();
    for _ in 0..n {
        let map = read_distance_map(&mut c)?;
        if ranked {
            for &(key, _) in map.entries() {
                let rank = c.u32("store rank column")?;
                match aux.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) if aux[i].1 != rank => {
                        return Err(SnapshotError::Malformed(format!(
                            "key {key} carries conflicting ranks {} and {rank}",
                            aux[i].1
                        )));
                    }
                    Ok(_) => {}
                    Err(i) => aux.insert(i, (key, rank)),
                }
            }
        }
        states.push(map);
    }
    finish(&c, "store")?;
    Ok(StoreSnapshot {
        ranked,
        states,
        aux,
    })
}

// -- LE lists ---------------------------------------------------------

pub fn encode_le_lists(lists: &[LeList]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, lists.len() as u64);
    for l in lists {
        put_dist_entries(&mut out, l.entries());
    }
    out
}

pub fn decode_le_lists(payload: &[u8]) -> Result<Vec<LeList>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.count(8, "LE list count")?;
    let mut lists = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.count(12, "LE list")?;
        let mut entries = Vec::with_capacity(len);
        let mut prev = Dist::ZERO;
        for _ in 0..len {
            let v = c.u32("LE list entry")?;
            let d = read_dist(&mut c, "LE list entry")?;
            if !d.is_finite() {
                return Err(SnapshotError::Malformed(format!(
                    "infinite LE distance at node {v}"
                )));
            }
            // `from_entries_sorted` only debug-asserts this; enforce it
            // here so release builds cannot smuggle in unsorted lists.
            if d < prev {
                return Err(SnapshotError::Malformed(
                    "LE list distances not ascending".to_string(),
                ));
            }
            prev = d;
            entries.push((v, d));
        }
        lists.push(LeList::from_entries_sorted(entries));
    }
    finish(&c, "LE lists")?;
    Ok(lists)
}

// -- ranks ------------------------------------------------------------

pub fn encode_ranks(ranks: &Ranks) -> Vec<u8> {
    let n = ranks.n();
    // order[rank(v)] = v inverts the rank table.
    let mut order = vec![0 as NodeId; n];
    for v in 0..n as NodeId {
        order[ranks.rank(v) as usize] = v;
    }
    let mut out = Vec::new();
    put_u64(&mut out, n as u64);
    for v in order {
        put_u32(&mut out, v);
    }
    out
}

pub fn decode_ranks(payload: &[u8]) -> Result<Ranks, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.count(4, "rank order")?;
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let v = c.u32("rank order entry")?;
        if (v as usize) >= n || seen[v as usize] {
            return Err(SnapshotError::Malformed(format!(
                "rank order is not a permutation (node {v})"
            )));
        }
        seen[v as usize] = true;
        order.push(v);
    }
    finish(&c, "ranks")?;
    Ok(Ranks::from_order(order))
}

// -- FRT trees --------------------------------------------------------

pub fn encode_frt_tree(tree: &FrtTree) -> Vec<u8> {
    let mut out = Vec::new();
    put_f64(&mut out, tree.beta());
    put_u64(&mut out, tree.radii().len() as u64);
    for &r in tree.radii() {
        put_f64(&mut out, r);
    }
    put_u64(&mut out, tree.nodes().len() as u64);
    for node in tree.nodes() {
        put_u32(&mut out, node.level);
        put_u32(&mut out, node.leader);
        put_u64(&mut out, node.parent as u64);
        put_f64(&mut out, node.parent_weight);
        put_u32(&mut out, node.repr_leaf);
    }
    put_u64(&mut out, tree.num_vertices() as u64);
    for v in 0..tree.num_vertices() {
        put_u64(&mut out, tree.leaf(v as NodeId) as u64);
    }
    out
}

pub fn decode_frt_tree(payload: &[u8]) -> Result<FrtTree, SnapshotError> {
    let mut c = Cursor::new(payload);
    let beta = c.f64("FRT β")?;
    let num_radii = c.count(8, "FRT radii")?;
    let mut radii = Vec::with_capacity(num_radii);
    for _ in 0..num_radii {
        radii.push(c.f64("FRT radius")?);
    }
    let num_nodes = c.count(24, "FRT nodes")?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let level = c.u32("FRT node")?;
        let leader = c.u32("FRT node")?;
        let parent = c.u64("FRT node")?;
        let parent_weight = c.f64("FRT node")?;
        let repr_leaf = c.u32("FRT node")?;
        let parent = usize::try_from(parent)
            .map_err(|_| SnapshotError::Malformed("FRT parent index overflow".to_string()))?;
        nodes.push(FrtNode {
            level,
            leader,
            parent,
            parent_weight,
            repr_leaf,
        });
    }
    let num_leaves = c.count(8, "FRT leaf table")?;
    let mut leaf = Vec::with_capacity(num_leaves);
    for _ in 0..num_leaves {
        let idx = c.u64("FRT leaf entry")?;
        leaf.push(
            usize::try_from(idx)
                .map_err(|_| SnapshotError::Malformed("FRT leaf index overflow".to_string()))?,
        );
    }
    finish(&c, "FRT tree")?;
    // `from_parts` re-validates the full tree structure (level ladder,
    // parents preceding children, radius monotonicity, …).
    FrtTree::from_parts(nodes, leaf, radii, beta).map_err(SnapshotError::Malformed)
}

// -- checkpoints ------------------------------------------------------

pub fn encode_checkpoint(ckpt: &Checkpoint<DistanceMap>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, ckpt.hop);
    put_u64(&mut out, ckpt.frontier.len() as u64);
    for &v in &ckpt.frontier {
        put_u32(&mut out, v);
    }
    out.extend_from_slice(&encode_distance_maps(&ckpt.states));
    out
}

pub fn decode_checkpoint(payload: &[u8]) -> Result<Checkpoint<DistanceMap>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let hop = c.u64("checkpoint hop")?;
    let len = c.count(4, "checkpoint frontier")?;
    let mut frontier = Vec::with_capacity(len);
    let mut prev: Option<NodeId> = None;
    for _ in 0..len {
        let v = c.u32("checkpoint frontier entry")?;
        if prev.is_some_and(|p| p >= v) {
            return Err(SnapshotError::Malformed(
                "checkpoint frontier not strictly ascending".to_string(),
            ));
        }
        prev = Some(v);
        frontier.push(v);
    }
    let states = read_distance_maps(&mut c)?;
    finish(&c, "checkpoint")?;
    Ok(Checkpoint {
        hop,
        frontier,
        states,
    })
}
