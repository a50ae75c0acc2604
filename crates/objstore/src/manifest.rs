//! The store manifest: the single source of truth for what is
//! committed.
//!
//! The manifest is an `ORMAN` frame (shared [`objectrunner_store::frame`]
//! codec) listing every segment with its committed byte length and a
//! whole-prefix FNV-64 checksum, plus the store's cumulative counters.
//! Commit is atomic: render to `MANIFEST.tmp`, fsync, rename over
//! `MANIFEST`. A crash before the rename leaves the previous manifest
//! in force — appended-but-uncommitted segment bytes are truncated
//! away at the next open, so readers never see a half-committed batch.
//!
//! Deliberately absent: wall-clock timestamps. Manifest bytes are a
//! pure function of the committed history, which is what lets tests
//! assert byte-identical stores across thread counts and restarts.

use crate::ObjStoreError;
use objectrunner_store::{frame, FrameError, Json};
use std::fs;
use std::path::Path;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Magic of the manifest frame.
pub const MANIFEST_MAGIC: &str = "ORMAN";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Oldest version this build still reads.
pub const MIN_MANIFEST_VERSION: u32 = 1;

/// One committed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name relative to the store directory.
    pub file: String,
    /// Committed record count.
    pub records: u64,
    /// Committed byte length (header + whole frames). Bytes past this
    /// are a torn append and are discarded on open.
    pub committed_bytes: u64,
    /// FNV-1a/64 over the committed prefix.
    pub checksum: u64,
}

/// The committed state of a store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Compaction generation current segments belong to (starts at 1).
    pub generation: u64,
    /// Next store-wide record sequence number.
    pub next_seq: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Cumulative: objects presented to ingest.
    pub ingested: u64,
    /// Cumulative: objects first seen (version-1 records).
    pub new_objects: u64,
    /// Cumulative: ingests fused into an existing object.
    pub fused: u64,
    /// Cumulative: ingests that collided with an existing identity key.
    pub duplicates: u64,
    /// Cumulative: objects skipped for missing key attributes.
    pub skipped: u64,
    /// Committed segments, append order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh, empty store.
    pub fn fresh() -> Manifest {
        Manifest {
            generation: 1,
            next_seq: 1,
            ..Manifest::default()
        }
    }

    /// Render the framed manifest bytes.
    pub fn render(&self) -> String {
        let segments = self
            .segments
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("file".into(), Json::str(&s.file)),
                    ("records".into(), Json::int(s.records as i64)),
                    (
                        "committed_bytes".into(),
                        Json::int(s.committed_bytes as i64),
                    ),
                    ("checksum".into(), Json::str(format!("{:016x}", s.checksum))),
                ])
            })
            .collect();
        let payload = Json::Obj(vec![
            ("generation".into(), Json::int(self.generation as i64)),
            ("next_seq".into(), Json::int(self.next_seq as i64)),
            ("compactions".into(), Json::int(self.compactions as i64)),
            ("ingested".into(), Json::int(self.ingested as i64)),
            ("new_objects".into(), Json::int(self.new_objects as i64)),
            ("fused".into(), Json::int(self.fused as i64)),
            ("duplicates".into(), Json::int(self.duplicates as i64)),
            ("skipped".into(), Json::int(self.skipped as i64)),
            ("segments".into(), Json::Arr(segments)),
        ]);
        frame::encode(MANIFEST_MAGIC, MANIFEST_VERSION, &payload.render())
    }

    /// Parse framed manifest bytes.
    pub fn parse(data: &str) -> Result<Manifest, ObjStoreError> {
        let (_, payload) =
            frame::decode(data, MANIFEST_MAGIC, MIN_MANIFEST_VERSION, MANIFEST_VERSION).map_err(
                |e| match e {
                    FrameError::BadHeader => ObjStoreError::BadHeader {
                        file: MANIFEST_FILE.into(),
                        detail: "not an ORMAN frame".into(),
                    },
                    FrameError::UnsupportedVersion(v) => ObjStoreError::UnsupportedVersion(v),
                    FrameError::Corrupt { expected, found } => ObjStoreError::Corrupt {
                        file: MANIFEST_FILE.into(),
                        detail: format!("expected {expected}, found {found}"),
                    },
                },
            )?;
        let j = Json::parse(payload).map_err(|e| ObjStoreError::Malformed {
            file: MANIFEST_FILE.into(),
            detail: format!("payload is not JSON: {e}"),
        })?;
        let malformed = |detail: String| ObjStoreError::Malformed {
            file: MANIFEST_FILE.into(),
            detail,
        };
        let u64_field = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| malformed(format!("missing or invalid '{k}'")))
        };
        let segments = j
            .get("segments")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing 'segments' array".into()))?
            .iter()
            .map(|s| {
                let file = s
                    .get("file")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("segment missing 'file'".into()))?
                    .to_owned();
                let checksum = s
                    .get("checksum")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| malformed("segment missing hex 'checksum'".into()))?;
                Ok(SegmentMeta {
                    file,
                    records: u64_field(s, "records")?,
                    committed_bytes: u64_field(s, "committed_bytes")?,
                    checksum,
                })
            })
            .collect::<Result<Vec<_>, ObjStoreError>>()?;
        Ok(Manifest {
            generation: u64_field(&j, "generation")?,
            next_seq: u64_field(&j, "next_seq")?,
            compactions: u64_field(&j, "compactions")?,
            ingested: u64_field(&j, "ingested")?,
            new_objects: u64_field(&j, "new_objects")?,
            fused: u64_field(&j, "fused")?,
            duplicates: u64_field(&j, "duplicates")?,
            skipped: u64_field(&j, "skipped")?,
            segments,
        })
    }

    /// Load the manifest from a store directory; `Ok(None)` when the
    /// store has never committed (fresh directory).
    pub fn load(dir: &Path) -> Result<Option<Manifest>, ObjStoreError> {
        let path = dir.join(MANIFEST_FILE);
        match fs::read_to_string(&path) {
            Ok(data) => Manifest::parse(&data).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ObjStoreError::Io(e)),
        }
    }

    /// Atomically commit through the one durable write path: write
    /// `MANIFEST.tmp`, fsync, rename over `MANIFEST`, fsync the
    /// directory. Readers either see the old manifest or this one.
    pub fn commit(&self, dir: &Path) -> Result<(), ObjStoreError> {
        objectrunner_store::replace_file(&dir.join(MANIFEST_FILE), self.render().as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            generation: 2,
            next_seq: 42,
            compactions: 1,
            ingested: 100,
            new_objects: 60,
            fused: 10,
            duplicates: 40,
            skipped: 3,
            segments: vec![
                SegmentMeta {
                    file: "seg-g00002-00000.seg".into(),
                    records: 60,
                    committed_bytes: 4096,
                    checksum: 0xdead_beef_cafe_f00d,
                },
                SegmentMeta {
                    file: "seg-g00002-00001.seg".into(),
                    records: 2,
                    committed_bytes: 128,
                    checksum: 7,
                },
            ],
        }
    }

    #[test]
    fn codec_is_a_fixed_point() {
        let m = manifest();
        let bytes = m.render();
        let back = Manifest::parse(&bytes).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.render(), bytes);
    }

    #[test]
    fn corruption_and_bad_headers_are_typed() {
        let bytes = manifest().render();
        assert!(matches!(
            Manifest::parse(&bytes[..bytes.len() - 3]),
            Err(ObjStoreError::Corrupt { .. })
        ));
        assert!(matches!(
            Manifest::parse("ORWRAP v2 1 0000000000000000\nx"),
            Err(ObjStoreError::BadHeader { .. })
        ));
        let future = bytes.replacen("ORMAN v1", "ORMAN v9", 1);
        // Re-framing keeps the checksum valid only if we re-encode; a
        // version bump alone must be caught before the checksum.
        assert!(matches!(
            Manifest::parse(&future),
            Err(ObjStoreError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn commit_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("objstore-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None, "fresh dir");
        let m = manifest();
        m.commit(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m));
        fs::remove_dir_all(&dir).unwrap();
    }
}
