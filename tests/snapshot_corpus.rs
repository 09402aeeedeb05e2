//! Corrupted-snapshot corpus (PR 8 satellite): every damaged snapshot —
//! bit flips, truncations, mangled magic/version fields, hand-crafted
//! payloads, arbitrary byte soup — maps to the *right* typed
//! [`SnapshotError`] on load, and nothing in the decode path panics,
//! whatever the input. Companion to `tests/malformed_inputs.rs`, which
//! makes the same promise for the `.gr` parser.

mod common;

use common::{push_section, snapshot_image};
use metric_tree_embedding::core::frt::{le_lists_direct, FrtTree, Ranks};
use metric_tree_embedding::core::run::Checkpoint;
use metric_tree_embedding::persist::{
    SectionTag, SnapshotError, SnapshotReader, SnapshotWriter, MAGIC, VERSION,
};
use metric_tree_embedding::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A representative snapshot exercising every section codec: distance
/// maps, an epoch store with a live rank column, LE lists, ranks, an
/// FRT tree, and a mid-run checkpoint.
fn sample_image() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x5_CAFE);
    let g = gnm_graph(20, 50, 1.0..6.0, &mut rng);
    let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
    let (lists, _, _) = le_lists_direct(&g, &ranks);
    let tree = FrtTree::from_le_lists(&lists, &ranks, 1.5, 1.0);
    let alg = metric_tree_embedding::core::frt::LeListAlgorithm::new(Arc::clone(&ranks));
    let store = metric_tree_embedding::core::arena::initial_store(&alg, g.n());
    let states: Vec<DistanceMap> = (0..g.n() as NodeId)
        .map(|v| {
            DistanceMap::from_entries(vec![
                (v, Dist::new(0.0)),
                ((v + 1) % g.n() as NodeId, Dist::new(1.5)),
            ])
        })
        .collect();
    SnapshotWriter::new()
        .put_distance_maps(&states)
        .put_store(&store)
        .put_le_lists(&lists)
        .put_ranks(&ranks)
        .put_frt_tree(&tree)
        .put_checkpoint(&Checkpoint {
            hop: 3,
            frontier: vec![0, 2, 5],
            states,
        })
        .encode()
}

/// Decodes every section of a reader, returning the first typed error
/// (or `None` if the whole snapshot is sound).
fn decode_everything(bytes: &[u8]) -> Result<(), SnapshotError> {
    let reader = SnapshotReader::decode(bytes)?;
    reader.distance_maps()?;
    reader.store().map(|s| s.restore())?;
    reader.le_lists()?;
    reader.ranks()?;
    reader.frt_tree()?;
    reader.checkpoint()?;
    Ok(())
}

#[test]
fn the_sample_snapshot_is_sound() {
    decode_everything(&sample_image()).expect("uncorrupted snapshot must decode");
}

// ---------------------------------------------------------------------
// One corruption per failure mode, asserting the exact typed error.
// ---------------------------------------------------------------------

#[test]
fn zeroed_magic_is_bad_magic() {
    let mut image = sample_image();
    image[..8].fill(0);
    assert_eq!(
        SnapshotReader::decode(&image).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn wrong_generation_magic_is_bad_magic() {
    let mut image = sample_image();
    image[7] = b'2'; // "MTESNAP2"
    assert_eq!(
        SnapshotReader::decode(&image).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn future_version_is_refused_with_the_found_version() {
    let mut image = sample_image();
    image[8..12].copy_from_slice(&(VERSION + 7).to_le_bytes());
    assert_eq!(
        SnapshotReader::decode(&image).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: VERSION + 7 }
    );
}

#[test]
fn header_truncation_is_typed() {
    let image = sample_image();
    for len in 8..20.min(image.len()) {
        assert_eq!(
            SnapshotReader::decode(&image[..len]).unwrap_err(),
            SnapshotError::Truncated { context: "header" },
            "prefix length {len}"
        );
    }
    // Shorter than the magic itself: indistinguishable from a non-snapshot.
    for len in 0..8 {
        assert_eq!(
            SnapshotReader::decode(&image[..len]).unwrap_err(),
            SnapshotError::BadMagic,
            "prefix length {len}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_caught_typed() {
    let image = sample_image();
    // Every bit of every byte, so a checksum kernel that loses one bit
    // lane cannot let a damaged image load. The first three header
    // fields (magic, version, section count) catch their own flips; the
    // file CRC catches every other one, its own field included, before
    // any section is read.
    for bit in 0..image.len() * 8 {
        let byte = bit / 8;
        let mut mangled = image.clone();
        mangled[byte] ^= 1 << (bit % 8);
        let err = SnapshotReader::decode(&mangled).expect_err("a bit flip decoded cleanly");
        match byte {
            0..8 => assert_eq!(err, SnapshotError::BadMagic, "bit {bit}"),
            8..12 => assert_eq!(
                err,
                SnapshotError::UnsupportedVersion {
                    found: VERSION ^ (1 << (bit - 64))
                },
                "bit {bit}"
            ),
            12..16 => assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Malformed(_)
                ),
                "bit {bit}: {err:?}"
            ),
            _ => assert_eq!(err, SnapshotError::CrcMismatch { section: 0 }, "bit {bit}"),
        }
    }
}

#[test]
fn every_truncation_point_is_caught_typed() {
    let image = sample_image();
    for len in 0..image.len() {
        let result = SnapshotReader::decode(&image[..len]);
        assert!(result.is_err(), "truncation to {len} bytes decoded cleanly");
    }
}

#[test]
fn body_corruption_names_the_file_checksum() {
    let mut image = sample_image();
    let mid = image.len() / 2;
    image[mid] ^= 0xFF;
    assert_eq!(
        SnapshotReader::decode(&image).unwrap_err(),
        SnapshotError::CrcMismatch { section: 0 }
    );
}

#[test]
fn missing_sections_are_malformed_not_panics() {
    let image = SnapshotWriter::new().encode();
    let reader = SnapshotReader::decode(&image).expect("empty snapshot is legal");
    assert!(matches!(
        reader.distance_maps().unwrap_err(),
        SnapshotError::Malformed(_)
    ));
    assert!(matches!(
        reader.checkpoint().unwrap_err(),
        SnapshotError::Malformed(_)
    ));
    assert!(matches!(
        reader.frt_tree().unwrap_err(),
        SnapshotError::Malformed(_)
    ));
}

// ---------------------------------------------------------------------
// Semantically invalid payloads behind valid checksums: the structural
// validators, not the CRCs, must catch these.
// ---------------------------------------------------------------------

/// Builds a single-section container with correct CRCs around an
/// arbitrary payload, so decode reaches the section codec.
fn container(tag: u32, payload: &[u8]) -> Vec<u8> {
    container_of(&[(tag, payload)])
}

/// [`container`] with any number of `(tag, payload)` sections.
fn container_of(sections: &[(u32, &[u8])]) -> Vec<u8> {
    let mut body = Vec::new();
    for &(tag, payload) in sections {
        push_section(&mut body, tag, payload);
    }
    snapshot_image(sections.len() as u32, &body)
}

#[test]
fn nan_negative_and_infinite_distances_are_malformed() {
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // one map
        payload.extend_from_slice(&1u64.to_le_bytes()); // one entry
        payload.extend_from_slice(&0u32.to_le_bytes()); // node 0
        payload.extend_from_slice(&bad.to_bits().to_le_bytes());
        let image = container(SectionTag::DistanceMaps as u32, &payload);
        let err = SnapshotReader::decode(&image)
            .expect("container is checksummed")
            .distance_maps()
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{bad}: {err:?}");
    }
}

#[test]
fn unsorted_distance_entries_are_malformed() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&2u64.to_le_bytes());
    for node in [5u32, 2] {
        payload.extend_from_slice(&node.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    }
    let image = container(SectionTag::DistanceMaps as u32, &payload);
    assert!(matches!(
        SnapshotReader::decode(&image).unwrap().distance_maps(),
        Err(SnapshotError::Malformed(_))
    ));
}

#[test]
fn giant_length_prefixes_are_truncation_not_allocation() {
    // A u64::MAX count must fail fast as Truncated, not attempt a
    // multi-exabyte Vec::with_capacity.
    let payload = u64::MAX.to_le_bytes().to_vec();
    let image = container(SectionTag::DistanceMaps as u32, &payload);
    assert!(matches!(
        SnapshotReader::decode(&image).unwrap().distance_maps(),
        Err(SnapshotError::Truncated { .. })
    ));
}

#[test]
fn non_permutation_rank_orders_are_malformed() {
    for order in [vec![0u32, 0], vec![0, 7], vec![1, 2]] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
        for v in &order {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let image = container(SectionTag::Ranks as u32, &payload);
        assert!(
            matches!(
                SnapshotReader::decode(&image).unwrap().ranks(),
                Err(SnapshotError::Malformed(_))
            ),
            "order {order:?} accepted"
        );
    }
}

#[test]
fn structurally_broken_frt_trees_are_malformed() {
    // β outside [1, 2): everything else well-formed is irrelevant — the
    // validated constructor rejects before any traversal can run.
    let mut payload = Vec::new();
    payload.extend_from_slice(&5.0f64.to_bits().to_le_bytes()); // β = 5
    payload.extend_from_slice(&0u64.to_le_bytes()); // no radii
    payload.extend_from_slice(&0u64.to_le_bytes()); // no nodes
    payload.extend_from_slice(&0u64.to_le_bytes()); // no leaves
    let image = container(SectionTag::FrtTree as u32, &payload);
    assert!(matches!(
        SnapshotReader::decode(&image).unwrap().frt_tree(),
        Err(SnapshotError::Malformed(_))
    ));
}

#[test]
fn unknown_and_duplicate_section_tags_are_malformed() {
    // 2 was the width-map section: a leftover one is rejected too.
    let ranks = SectionTag::Ranks as u32;
    let images = [
        (container(2, &[]), "unknown section tag 2"),
        (container(99, &[]), "unknown section tag 99"),
        (
            container_of(&[(ranks, &[]), (ranks, &[])]),
            "duplicate section tag 5",
        ),
    ];
    for (image, want) in images {
        match SnapshotReader::decode(&image) {
            Err(SnapshotError::Malformed(msg)) => assert_eq!(msg, want),
            other => panic!("{want}: got {:?}", other.map(|_| ())),
        }
    }
}

// ---------------------------------------------------------------------
// Property fuzz: arbitrary bytes and structured mangling.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No byte soup panics the decoder; it always returns a typed
    /// result.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..255, 0..512),
    ) {
        let _ = decode_everything(&bytes);
    }

    /// Arbitrary bytes stamped with a valid magic+version prefix reach
    /// the section machinery and still never panic.
    #[test]
    fn decoder_never_panics_on_magic_prefixed_soup(
        bytes in proptest::collection::vec(0u8..255, 0..512),
    ) {
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&VERSION.to_le_bytes());
        image.extend_from_slice(&bytes);
        let _ = decode_everything(&image);
    }

    /// A sound snapshot with a random slice of bytes overwritten still
    /// decodes to a typed result — and if it somehow decodes cleanly,
    /// the overwrite must have been a no-op.
    #[test]
    fn overwritten_snapshots_never_panic(
        offset in 0usize..4096,
        val in 0u8..255,
        len in 1usize..64,
    ) {
        let image = sample_image();
        let offset = offset % image.len();
        let end = (offset + len).min(image.len());
        let mut mangled = image.clone();
        mangled[offset..end].fill(val);
        if decode_everything(&mangled).is_ok() {
            prop_assert_eq!(mangled, image);
        }
    }
}
