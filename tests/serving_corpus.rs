//! Corrupted-artifact corpus for the serving layer (PR 9 satellite):
//! every damaged oracle artifact — truncations, bit flips, sections
//! that pass every CRC but disagree with each other, arbitrary byte
//! soup — maps to a typed [`ServeError`] on load, and nothing in the
//! load path panics, whatever the input. Companion to
//! `tests/snapshot_corpus.rs`, which makes the byte-level promise for
//! the snapshot container this artifact rides in; this suite owns the
//! *cross-section* (semantic) layer on top.

mod common;

use common::{push_section, snapshot_image, SNAPSHOT_HEADER};
use metric_tree_embedding::core::frt::{le_lists_direct, FrtNode, FrtTree, LeList, Ranks};
use metric_tree_embedding::persist::{SectionTag, SnapshotError, SnapshotWriter};
use metric_tree_embedding::prelude::*;
use metric_tree_embedding::serving::{OracleArtifact, ServeError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn sample_parts() -> (Vec<LeList>, Ranks, FrtTree) {
    let mut rng = StdRng::seed_from_u64(0x5E21);
    let g = gnm_graph(28, 70, 1.0..7.0, &mut rng);
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let (lists, _, _) = le_lists_direct(&g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
    (lists, Ranks::clone(&ranks), tree)
}

fn sample_image() -> Vec<u8> {
    let (lists, ranks, tree) = sample_parts();
    OracleArtifact::from_parts(lists, ranks, tree)
        .expect("sample parts are valid")
        .encode()
}

/// Encodes raw (possibly skewed) parts *without* artifact validation,
/// so the image reaches `OracleArtifact::decode` with every CRC
/// correct and only the cross-section validators left to object.
fn raw_image(lists: &[LeList], ranks: &Ranks, tree: &FrtTree) -> Vec<u8> {
    SnapshotWriter::new()
        .put_le_lists(lists)
        .put_ranks(ranks)
        .put_frt_tree(tree)
        .encode()
}

#[test]
fn the_sample_artifact_is_sound() {
    OracleArtifact::decode(&sample_image()).expect("uncorrupted artifact must load");
}

// ---------------------------------------------------------------------
// Byte-level damage: the snapshot container catches it, and the serving
// layer forwards the typed error instead of panicking.
// ---------------------------------------------------------------------

#[test]
fn every_truncation_point_is_a_typed_error() {
    let image = sample_image();
    for len in 0..image.len() {
        match OracleArtifact::decode(&image[..len]) {
            Err(ServeError::Artifact(_)) => {}
            Err(other) => panic!("truncation to {len}: wrong error class {other:?}"),
            Ok(_) => panic!("truncation to {len} bytes loaded cleanly"),
        }
    }
}

#[test]
fn every_sampled_bit_flip_is_a_typed_error() {
    let image = sample_image();
    // Every 8th bit touches every byte while keeping the corpus fast;
    // the container CRCs catch body flips, the header fields their own.
    for bit in (0..image.len() * 8).step_by(8) {
        let mut mangled = image.clone();
        mangled[bit / 8] ^= 1 << (bit % 8);
        match OracleArtifact::decode(&mangled) {
            Err(ServeError::Artifact(_)) => {}
            Err(other) => panic!("bit flip at {bit}: wrong error class {other:?}"),
            Ok(_) => panic!("bit flip at {bit} loaded cleanly"),
        }
    }
}

/// A serving-sized artifact (direct LE lists of a 1500-vertex gnm graph,
/// over 256 KiB) with 1024 sampled single-bit flips plus every flip in
/// the header. The 4.8 KB fixture above takes the checksum's 64-byte
/// fold about 75 steps per pass; this one takes it thousands, closer to
/// what a served artifact sees. Past the magic, version and section
/// count, every flip is the file checksum's.
#[test]
fn a_large_artifact_catches_sampled_bit_flips_by_checksum() {
    let mut rng = StdRng::seed_from_u64(0x1A26E);
    let g = gnm_graph(1500, 4500, 1.0..9.0, &mut rng);
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let (lists, _, _) = le_lists_direct(&g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
    let image = OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree)
        .expect("sampled parts are valid")
        .encode();
    assert!(image.len() >= 256 << 10, "{} bytes", image.len());
    OracleArtifact::decode(&image).expect("uncorrupted artifact must load");
    let bits = (0..1024).map(|_| rng.gen_range(0..image.len() * 8));
    for bit in (0..20 * 8).chain(bits) {
        let mut mangled = image.clone();
        mangled[bit / 8] ^= 1 << (bit % 8);
        match OracleArtifact::decode(&mangled) {
            Err(ServeError::Artifact(SnapshotError::CrcMismatch { section: 0 })) => {}
            Err(ServeError::Artifact(_)) if bit < 16 * 8 => {}
            Err(other) => panic!("bit flip at {bit}: wrong error {other:?}"),
            Ok(_) => panic!("bit flip at {bit} loaded cleanly"),
        }
    }
}

#[test]
fn missing_sections_are_typed_not_panics() {
    let (lists, ranks, tree) = sample_parts();
    // Each single-section image is CRC-sound but incomplete.
    let images = [
        SnapshotWriter::new().put_le_lists(&lists).encode(),
        SnapshotWriter::new().put_ranks(&ranks).encode(),
        SnapshotWriter::new().put_frt_tree(&tree).encode(),
        SnapshotWriter::new().encode(),
    ];
    for (i, image) in images.iter().enumerate() {
        assert!(
            matches!(
                OracleArtifact::decode(image),
                Err(ServeError::Artifact(SnapshotError::Malformed(_)))
            ),
            "incomplete image {i} did not fail typed"
        );
    }
}

// ---------------------------------------------------------------------
// CRC-correct but structurally invalid: sections that decode fine in
// isolation yet cannot serve queries. Only the artifact's cross-section
// validation stands between these and a panic mid-query.
// ---------------------------------------------------------------------

#[test]
fn length_skew_between_sections_is_malformed() {
    let (mut lists, ranks, tree) = sample_parts();
    lists.pop();
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &tree)),
        Err(ServeError::Malformed { .. })
    ));
}

#[test]
fn ranks_from_a_different_run_are_malformed() {
    let (lists, _, tree) = sample_parts();
    // A different permutation of the same size: sizes agree everywhere,
    // but the lists' strictly-decreasing-rank invariant breaks.
    let n = lists.len();
    let foreign = Ranks::sample(n, &mut StdRng::seed_from_u64(0xD15A));
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &foreign, &tree)),
        Err(ServeError::Malformed { .. })
    ));
}

#[test]
fn a_list_that_drops_its_tail_is_malformed() {
    let (mut lists, ranks, tree) = sample_parts();
    // Remove the global minimum-rank tail from one list: the degraded
    // rung's O(1) floor would silently disappear.
    let victim = lists
        .iter()
        .position(|l| l.len() > 1)
        .expect("some list has more than one entry");
    let mut entries = lists[victim].entries().to_vec();
    entries.pop();
    lists[victim] = LeList::from_entries_sorted(entries);
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &tree)),
        Err(ServeError::Malformed { .. })
    ));
}

/// Without its owner a list starts at a non-zero distance.
#[test]
fn a_list_that_loses_its_owner_is_malformed() {
    let (mut lists, ranks, tree) = sample_parts();
    let victim = lists
        .iter()
        .position(|l| l.len() > 1)
        .expect("some list has more than one entry");
    let entries = lists[victim].entries()[1..].to_vec();
    lists[victim] = LeList::from_entries_sorted(entries);
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &tree)),
        Err(ServeError::Malformed { .. })
    ));
}

/// A list may be led by a copy of its owner (a vertex at distance 0) of
/// lower rank, never by one of higher rank: that copy cannot dominate
/// the owner.
#[test]
fn a_list_led_by_a_higher_rank_node_is_malformed() {
    let (mut lists, ranks, tree) = sample_parts();
    let victim = (0..ranks.n() as u32)
        .find(|&v| ranks.rank(v) + 1 < ranks.n() as u32)
        .expect("some vertex is not of the highest rank");
    let higher = (0..ranks.n() as u32)
        .find(|&w| ranks.rank(w) > ranks.rank(victim))
        .expect("a vertex of higher rank exists");
    let mut entries = lists[victim as usize].entries().to_vec();
    entries[0].0 = higher;
    lists[victim as usize] = LeList::from_entries_sorted(entries);
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &tree)),
        Err(ServeError::Malformed { .. })
    ));
}

#[test]
fn tree_weights_off_the_radius_ladder_are_malformed() {
    let (lists, ranks, tree) = sample_parts();
    // Perturb one non-root parent weight: still finite and positive, so
    // the tree-shape validator accepts it — only the artifact's
    // radius-ladder check can notice, and it must, because the batch
    // sweep's climb table assumes the ladder.
    let mut nodes: Vec<FrtNode> = tree.nodes().to_vec();
    let victim = (1..nodes.len())
        .find(|&i| nodes[i].parent_weight > 0.0)
        .expect("a non-root node exists");
    nodes[victim].parent_weight *= 1.5;
    let skewed = FrtTree::from_parts(
        nodes,
        (0..ranks.n()).map(|v| tree.leaf(v as u32)).collect(),
        tree.radii().to_vec(),
        tree.beta(),
    )
    .expect("shape-valid tree");
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &skewed)),
        Err(ServeError::Malformed { .. })
    ));
}

/// The `FrtTree` section payload for raw parts, in the snapshot
/// codec's layout: β, the radii, the nodes, the leaf table.
fn tree_payload(tree: &FrtTree, nodes: &[FrtNode], leaf: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&tree.beta().to_bits().to_le_bytes());
    out.extend_from_slice(&(tree.radii().len() as u64).to_le_bytes());
    for &r in tree.radii() {
        out.extend_from_slice(&r.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    for node in nodes {
        out.extend_from_slice(&node.level.to_le_bytes());
        out.extend_from_slice(&node.leader.to_le_bytes());
        out.extend_from_slice(&(node.parent as u64).to_le_bytes());
        out.extend_from_slice(&node.parent_weight.to_bits().to_le_bytes());
        out.extend_from_slice(&node.repr_leaf.to_le_bytes());
    }
    out.extend_from_slice(&(leaf.len() as u64).to_le_bytes());
    for &idx in leaf {
        out.extend_from_slice(&(idx as u64).to_le_bytes());
    }
    out
}

/// Regression: a tree whose non-root nodes are stored in reverse order
/// keeps every level, weight and leaf, and passes every CRC, but a
/// child now precedes its parent. Such an image used to load, and every
/// batch sweep on it then panicked; it must fail the load typed.
#[test]
fn a_tree_stored_children_first_fails_the_load_typed() {
    let (lists, ranks, tree) = sample_parts();
    let base = SnapshotWriter::new()
        .put_le_lists(&lists)
        .put_ranks(&ranks)
        .encode();
    let leaf: Vec<usize> = (0..ranks.n()).map(|v| tree.leaf(v as u32)).collect();
    // The forged section reproduces the codec's bytes for the sound tree.
    let sound = append_section(
        &base,
        SectionTag::FrtTree,
        &tree_payload(&tree, tree.nodes(), &leaf),
    );
    assert_eq!(sound, raw_image(&lists, &ranks, &tree));

    let len = tree.len();
    let remap = |i: usize| if i == 0 { 0 } else { len - i };
    let mut nodes: Vec<FrtNode> = tree.nodes().to_vec();
    nodes[1..].reverse();
    for node in nodes.iter_mut().skip(1) {
        node.parent = remap(node.parent);
    }
    let leaf: Vec<usize> = leaf.into_iter().map(remap).collect();
    let payload = tree_payload(&tree, &nodes, &leaf);
    let image = append_section(&base, SectionTag::FrtTree, &payload);
    match Oracle::load(&image, ServeConfig::default()) {
        Err(ServeError::Artifact(SnapshotError::Malformed(reason))) => {
            assert!(reason.contains("does not precede"), "{reason}");
        }
        Err(other) => panic!("wrong error class {other:?}"),
        Ok(_) => panic!("a children-first tree loaded"),
    }
}

/// `image` with one more section appended and the header's section
/// count and file CRC rewritten to match.
fn append_section(image: &[u8], tag: SectionTag, payload: &[u8]) -> Vec<u8> {
    let count = u32::from_le_bytes([image[12], image[13], image[14], image[15]]);
    let mut body = image[SNAPSHOT_HEADER..].to_vec();
    push_section(&mut body, tag as u32, payload);
    snapshot_image(count + 1, &body)
}

#[test]
fn a_tree_for_a_different_vertex_count_is_malformed() {
    let (lists, ranks, _) = sample_parts();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let g = gnm_graph(12, 30, 1.0..4.0, &mut rng);
    let small_ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let (small_lists, _, _) = le_lists_direct(&g, &small_ranks);
    let small_tree = FrtTree::from_le_lists(&small_lists, &small_ranks, 1.3, g.min_weight());
    assert!(matches!(
        OracleArtifact::decode(&raw_image(&lists, &ranks, &small_tree)),
        Err(ServeError::Malformed { .. })
    ));
}

// ---------------------------------------------------------------------
// Property fuzz: arbitrary bytes, and arbitrary overwrites of a sound
// image, never panic the loader.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn loader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..255, 0..512),
    ) {
        let _ = OracleArtifact::decode(&bytes);
    }

    /// A sound artifact with a random slice overwritten still loads to
    /// a typed result — and if it loads cleanly, the overwrite must
    /// have been a no-op.
    #[test]
    fn overwritten_artifacts_never_panic(
        offset in 0usize..8192,
        val in 0u8..255,
        len in 1usize..64,
    ) {
        let image = sample_image();
        let offset = offset % image.len();
        let end = (offset + len).min(image.len());
        let mut mangled = image.clone();
        mangled[offset..end].fill(val);
        if OracleArtifact::decode(&mangled).is_ok() {
            prop_assert_eq!(mangled, image);
        }
    }
}
