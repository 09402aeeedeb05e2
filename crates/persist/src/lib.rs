//! Crash-safe snapshot store for the MBF pipeline.
//!
//! One snapshot file holds any subset of the pipeline's durable state —
//! engine/oracle min-plus state vectors ([`mte_algebra::DistanceMap`]),
//! epoch-arena pools
//! ([`mte_algebra::EpochStore`]), LE lists and their random order
//! ([`mte_core::frt::LeList`], [`mte_core::frt::Ranks`]), sampled FRT
//! trees ([`mte_core::frt::FrtTree`]), and mid-run checkpoints
//! ([`mte_core::run::Checkpoint`]) — in a versioned,
//! length-prefixed, checksummed little-endian binary format:
//!
//! ```text
//! magic "MTESNAP1" | version u32 | section count u32 | file CRC u32
//! per section: tag u32 | payload length u64 | payload CRC u32 | payload
//! ```
//!
//! The file CRC covers every byte after the header; each payload
//! additionally carries its own CRC, so a load can name the section a
//! bit flip hit. Two guarantees:
//!
//! * **Crash-safe writes** — [`SnapshotWriter::write_to`] writes a
//!   temporary sibling, fsyncs it, atomically renames it over the
//!   target, and fsyncs the directory. Readers see the old snapshot or
//!   the new one, never a torn hybrid.
//! * **Panic-free loads** — every decode failure (bad magic, version
//!   skew, truncation, CRC mismatch, structurally invalid data) is a
//!   typed [`SnapshotError`]. `tests/snapshot_corpus.rs` fuzzes this
//!   contract with bit flips, truncations and arbitrary bytes.
//!
//! Persistence has its own fault sites — `snapshot_write` (torn
//! write/bit flip/truncation applied to the encoded image) and
//! `snapshot_read` (injected I/O failure) behind
//! [`mte_faults::FaultKind::Io`], drivable from `MTE_FAULT_PLAN` — so
//! the recovery ladder in [`mte_core::error::Supervisor`] can be
//! exercised end to end.

mod codec;
mod crc;
mod error;
mod wire;

pub use codec::StoreSnapshot;
pub use error::SnapshotError;

use crc::crc32;
use mte_algebra::store::EpochStore;
use mte_algebra::DistanceMap;
use mte_core::frt::{FrtTree, LeList, Ranks};
use mte_core::run::Checkpoint;
use mte_faults::{check_for, check_handled, trigger_panic, FaultKind, FaultSite};
use std::fs;
use std::io::Write;
use std::path::Path;

/// File magic: "MTESNAP" + format generation.
pub const MAGIC: [u8; 8] = *b"MTESNAP1";
/// Current format version. Readers refuse anything else.
pub const VERSION: u32 = 1;

const HEADER_BYTES: usize = 8 + 4 + 4 + 4;

/// Section tags. One snapshot holds at most one section per tag. Tag 2
/// (a retired max-min state-vector section) stays unassigned, so a
/// snapshot carrying it decodes as `Malformed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionTag {
    /// `Vec<DistanceMap>` — engine/oracle min-plus state vectors.
    DistanceMaps = 1,
    /// [`EpochStore`] — the arena backend's pool, spans and rank column.
    Store = 3,
    /// `Vec<LeList>` — Least-Element lists (paper Section 7).
    LeLists = 4,
    /// [`Ranks`] — the random permutation the LE lists are relative to.
    Ranks = 5,
    /// [`FrtTree`] — a sampled tree embedding.
    FrtTree = 6,
    /// [`Checkpoint`] — a resumable mid-run capture.
    Checkpoint = 7,
}

impl SectionTag {
    fn from_u32(raw: u32) -> Option<SectionTag> {
        match raw {
            1 => Some(SectionTag::DistanceMaps),
            3 => Some(SectionTag::Store),
            4 => Some(SectionTag::LeLists),
            5 => Some(SectionTag::Ranks),
            6 => Some(SectionTag::FrtTree),
            7 => Some(SectionTag::Checkpoint),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Builds a snapshot section by section, then encodes or atomically
/// writes it. Re-putting a tag replaces that section.
#[derive(Default)]
pub struct SnapshotWriter {
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl SnapshotWriter {
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    fn put(&mut self, tag: SectionTag, payload: Vec<u8>) -> &mut Self {
        self.sections.retain(|(t, _)| *t != tag);
        self.sections.push((tag, payload));
        self
    }

    pub fn put_distance_maps(&mut self, maps: &[DistanceMap]) -> &mut Self {
        self.put(SectionTag::DistanceMaps, codec::encode_distance_maps(maps))
    }

    /// Captures the pool through its raw (un-fault-injected) span
    /// accessor: a snapshot records the state that *is*.
    pub fn put_store(&mut self, store: &EpochStore) -> &mut Self {
        self.put(SectionTag::Store, codec::encode_store(store))
    }

    pub fn put_le_lists(&mut self, lists: &[LeList]) -> &mut Self {
        self.put(SectionTag::LeLists, codec::encode_le_lists(lists))
    }

    pub fn put_ranks(&mut self, ranks: &Ranks) -> &mut Self {
        self.put(SectionTag::Ranks, codec::encode_ranks(ranks))
    }

    pub fn put_frt_tree(&mut self, tree: &FrtTree) -> &mut Self {
        self.put(SectionTag::FrtTree, codec::encode_frt_tree(tree))
    }

    pub fn put_checkpoint(&mut self, ckpt: &Checkpoint<DistanceMap>) -> &mut Self {
        self.put(SectionTag::Checkpoint, codec::encode_checkpoint(ckpt))
    }

    /// The encoded snapshot image.
    ///
    /// This is the `snapshot_write` fault site: an injected
    /// [`FaultKind::Io`] deterministically damages the image (torn
    /// write, bit flip, or zeroed header, chosen by image length) the
    /// way a crashed writer without the atomic-rename protocol would —
    /// the damage then surfaces as a typed [`SnapshotError`] at load,
    /// which is what the recovery ladder drills against. An injected
    /// panic kind aborts the encode (absorbed into a typed error by
    /// `run_guarded`).
    pub fn encode(&self) -> Vec<u8> {
        if check_for(FaultSite::SnapshotWrite, &[FaultKind::Panic]).is_some() {
            trigger_panic(FaultSite::SnapshotWrite);
        }
        let mut body = Vec::new();
        for (tag, payload) in &self.sections {
            wire::put_u32(&mut body, *tag as u32);
            wire::put_u64(&mut body, payload.len() as u64);
            wire::put_u32(&mut body, crc32(payload));
            body.extend_from_slice(payload);
        }
        let mut image = Vec::with_capacity(HEADER_BYTES + body.len());
        image.extend_from_slice(&MAGIC);
        wire::put_u32(&mut image, VERSION);
        wire::put_u32(&mut image, self.sections.len() as u32);
        wire::put_u32(&mut image, crc32(&body));
        image.extend_from_slice(&body);
        if check_handled(FaultSite::SnapshotWrite, &[FaultKind::Io]).is_some() {
            corrupt_image(&mut image);
        }
        image
    }

    /// Crash-safe write: encode, write to a temporary sibling, fsync,
    /// atomically rename over `path`, fsync the directory. A crash at
    /// any point leaves either the previous snapshot or the new one —
    /// never a torn hybrid.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let image = self.encode();
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = fs::File::create(&tmp).map_err(io)?;
            file.write_all(&image).map_err(io)?;
            file.sync_all().map_err(io)?;
            drop(file);
            fs::rename(&tmp, path).map_err(io)?;
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                // Make the rename itself durable. Directory fsync is
                // best-effort off Linux.
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// Deterministic image damage for the `snapshot_write` fault site,
/// keyed on the image length so sweeps over different payloads exercise
/// all three shapes.
fn corrupt_image(image: &mut Vec<u8>) {
    let len = image.len();
    match len % 3 {
        // A torn write: the tail never reached the disk.
        0 => image.truncate(len * 2 / 3),
        // A single flipped bit mid-file.
        1 => image[len / 2] ^= 0x10,
        // A zeroed-out header page.
        _ => image[..HEADER_BYTES.min(len)].fill(0),
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// A decoded snapshot: header and per-section checksums verified,
/// payloads split out. Typed getters decode individual sections.
#[derive(Debug)]
pub struct SnapshotReader {
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl SnapshotReader {
    /// Parses and checksum-verifies a snapshot image.
    ///
    /// This is the `snapshot_read` fault site: an injected
    /// [`FaultKind::Io`] surfaces as a typed [`SnapshotError::Io`]
    /// (absorbed, like the `.gr` parser's site); an injected panic kind
    /// aborts the decode.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotReader, SnapshotError> {
        if check_for(FaultSite::SnapshotRead, &[FaultKind::Panic]).is_some() {
            trigger_panic(FaultSite::SnapshotRead);
        }
        if check_handled(FaultSite::SnapshotRead, &[FaultKind::Io]).is_some() {
            return Err(SnapshotError::Io("injected I/O failure".to_string()));
        }
        if bytes.len() < HEADER_BYTES {
            if !bytes.starts_with(&MAGIC[..bytes.len().min(8)]) || bytes.len() < 8 {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated { context: "header" });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut c = wire::Cursor::new(&bytes[8..HEADER_BYTES]);
        let version = c.u32("header").expect("header length checked");
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let section_count = c.u32("header").expect("header length checked");
        let file_crc = c.u32("header").expect("header length checked");
        let body = &bytes[HEADER_BYTES..];
        if crc32(body) != file_crc {
            return Err(SnapshotError::CrcMismatch { section: 0 });
        }
        let mut c = wire::Cursor::new(body);
        let mut sections = Vec::new();
        for _ in 0..section_count {
            let raw_tag = c.u32("section header")?;
            let len = c.u64("section header")?;
            let payload_crc = c.u32("section header")?;
            let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated {
                context: "section payload",
            })?;
            if len > c.remaining() {
                return Err(SnapshotError::Truncated {
                    context: "section payload",
                });
            }
            let payload = c.bytes(len, "section payload")?.to_vec();
            if crc32(&payload) != payload_crc {
                return Err(SnapshotError::CrcMismatch { section: raw_tag });
            }
            let tag = SectionTag::from_u32(raw_tag).ok_or_else(|| {
                SnapshotError::Malformed(format!("unknown section tag {raw_tag}"))
            })?;
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(SnapshotError::Malformed(format!(
                    "duplicate section tag {raw_tag}"
                )));
            }
            sections.push((tag, payload));
        }
        if !c.is_done() {
            return Err(SnapshotError::Malformed(format!(
                "{} bytes of trailing garbage after the last section",
                c.remaining()
            )));
        }
        Ok(SnapshotReader { sections })
    }

    /// Reads and decodes a snapshot file.
    pub fn read_from(path: &Path) -> Result<SnapshotReader, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        SnapshotReader::decode(&bytes)
    }

    fn payload(&self, tag: SectionTag) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| SnapshotError::Malformed(format!("snapshot has no {tag:?} section")))
    }

    pub fn distance_maps(&self) -> Result<Vec<DistanceMap>, SnapshotError> {
        codec::decode_distance_maps(self.payload(SectionTag::DistanceMaps)?)
    }

    pub fn store(&self) -> Result<StoreSnapshot, SnapshotError> {
        codec::decode_store(self.payload(SectionTag::Store)?)
    }

    pub fn le_lists(&self) -> Result<Vec<LeList>, SnapshotError> {
        codec::decode_le_lists(self.payload(SectionTag::LeLists)?)
    }

    pub fn ranks(&self) -> Result<Ranks, SnapshotError> {
        codec::decode_ranks(self.payload(SectionTag::Ranks)?)
    }

    pub fn frt_tree(&self) -> Result<FrtTree, SnapshotError> {
        codec::decode_frt_tree(self.payload(SectionTag::FrtTree)?)
    }

    pub fn checkpoint(&self) -> Result<Checkpoint<DistanceMap>, SnapshotError> {
        codec::decode_checkpoint(self.payload(SectionTag::Checkpoint)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_algebra::Dist;
    use mte_core::frt::le_lists_direct;
    use mte_graph::generators::gnm_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn sample_maps() -> Vec<DistanceMap> {
        vec![
            DistanceMap::from_entries(vec![(0, Dist::new(0.0)), (3, Dist::new(2.5))]),
            DistanceMap::new(),
            DistanceMap::from_entries(vec![(1, Dist::new(7.25))]),
        ]
    }

    #[test]
    fn distance_maps_roundtrip_bit_exact() {
        let maps = sample_maps();
        let image = SnapshotWriter::new().put_distance_maps(&maps).encode();
        let back = SnapshotReader::decode(&image)
            .unwrap()
            .distance_maps()
            .unwrap();
        assert_eq!(back, maps);
    }

    #[test]
    fn store_roundtrip_preserves_spans_and_ranks() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnm_graph(30, 80, 1.0..5.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let alg = mte_core::frt::LeListAlgorithm::new(Arc::clone(&ranks));
        let store = mte_core::arena::initial_store(&alg, g.n());
        let image = SnapshotWriter::new().put_store(&store).encode();
        let snap = SnapshotReader::decode(&image).unwrap().store().unwrap();
        assert!(snap.ranked);
        let restored = snap.restore();
        assert_eq!(restored.export(), store.export());
        assert!(restored.is_ranked());
        for v in 0..g.n() as u32 {
            assert_eq!(
                restored.get_raw(v).ranks,
                store.get_raw(v).ranks,
                "node {v}"
            );
        }
    }

    #[test]
    fn le_lists_ranks_and_tree_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = gnm_graph(25, 60, 1.0..4.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.5, 1.0);
        let image = SnapshotWriter::new()
            .put_le_lists(&lists)
            .put_ranks(&ranks)
            .put_frt_tree(&tree)
            .encode();
        let reader = SnapshotReader::decode(&image).unwrap();
        let lists2 = reader.le_lists().unwrap();
        assert_eq!(lists2.len(), lists.len());
        for (a, b) in lists.iter().zip(&lists2) {
            assert_eq!(a.entries(), b.entries());
        }
        let ranks2 = reader.ranks().unwrap();
        for v in 0..g.n() as u32 {
            assert_eq!(ranks2.rank(v), ranks.rank(v));
        }
        let tree2 = reader.frt_tree().unwrap();
        assert_eq!(tree2.beta(), tree.beta());
        assert_eq!(tree2.radii(), tree.radii());
        assert_eq!(tree2.len(), tree.len());
        for v in 0..g.n() as u32 {
            for u in 0..v {
                assert_eq!(tree2.leaf_distance(u, v), tree.leaf_distance(u, v));
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ckpt = Checkpoint {
            hop: 42,
            frontier: vec![1, 4, 9],
            states: sample_maps(),
        };
        let image = SnapshotWriter::new().put_checkpoint(&ckpt).encode();
        let back = SnapshotReader::decode(&image)
            .unwrap()
            .checkpoint()
            .unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn atomic_write_and_read_from() {
        let dir = std::env::temp_dir().join(format!("mte_persist_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.mte");
        let maps = sample_maps();
        // Overwrite an existing snapshot: readers must never see a torn
        // hybrid, and the temp sibling must be gone afterwards.
        SnapshotWriter::new()
            .put_distance_maps(&[])
            .write_to(&path)
            .unwrap();
        SnapshotWriter::new()
            .put_distance_maps(&maps)
            .write_to(&path)
            .unwrap();
        let back = SnapshotReader::read_from(&path)
            .unwrap()
            .distance_maps()
            .unwrap();
        assert_eq!(back, maps);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1,
            "temp file left behind"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn typed_errors_for_the_classic_corruptions() {
        let maps = sample_maps();
        let image = SnapshotWriter::new().put_distance_maps(&maps).encode();

        assert_eq!(
            SnapshotReader::decode(b"").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::decode(b"NOTASNAP____________").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::decode(&image[..10]).unwrap_err(),
            SnapshotError::Truncated { context: "header" }
        );

        let mut wrong_version = image.clone();
        wrong_version[8] = 99;
        assert_eq!(
            SnapshotReader::decode(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99 }
        );

        let mut flipped = image.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            SnapshotReader::decode(&flipped).unwrap_err(),
            SnapshotError::CrcMismatch { section: 0 }
        );

        let truncated = &image[..image.len() - 3];
        assert_eq!(
            SnapshotReader::decode(truncated).unwrap_err(),
            SnapshotError::CrcMismatch { section: 0 }
        );

        let missing = SnapshotReader::decode(&image).unwrap();
        assert!(matches!(
            missing.checkpoint().unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn nan_distance_is_malformed_not_a_panic() {
        // Hand-assemble a valid container whose distance-map payload
        // carries a NaN — the CRCs are right, so only the structural
        // validator stands between this and `Dist::new`'s panic.
        let mut payload = Vec::new();
        wire::put_u64(&mut payload, 1); // one map
        wire::put_u64(&mut payload, 1); // one entry
        wire::put_u32(&mut payload, 0);
        wire::put_f64(&mut payload, f64::NAN);
        let mut body = Vec::new();
        wire::put_u32(&mut body, SectionTag::DistanceMaps as u32);
        wire::put_u64(&mut body, payload.len() as u64);
        wire::put_u32(&mut body, crc32(&payload));
        body.extend_from_slice(&payload);
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC);
        wire::put_u32(&mut image, VERSION);
        wire::put_u32(&mut image, 1);
        wire::put_u32(&mut image, crc32(&body));
        image.extend_from_slice(&body);
        let err = SnapshotReader::decode(&image)
            .unwrap()
            .distance_maps()
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
    }
}
