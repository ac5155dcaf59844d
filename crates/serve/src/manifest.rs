//! The coordinated-checkpoint manifest: one atomically written
//! `manifest.json` naming every shard's checkpoint file and the sequence /
//! epoch it covers.
//!
//! The durability contract mirrors the single-process checkpoint (PR 4)
//! but adds coordination: a sharded checkpoint is only usable if **every**
//! shard's file belongs to the same barrier, so the manifest — not the
//! individual files — is the commit point. Files are written first (each
//! via temp-file + rename, so a crash never leaves a torn file under a
//! live name), the manifest last; a restart that finds a manifest may
//! trust every file it names, and a crash between file writes and the
//! manifest rename simply leaves the previous manifest in force.

use ricd_core::incremental::Checkpoint;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Current manifest format version. Version 1 manifests named the
/// user-hash partitioned slices of a sharded router; seeding replicas with
/// them would make the replicas disagree, so they are refused.
pub const MANIFEST_VERSION: u32 = 2;

/// The manifest file's name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One shard's entry in the manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Shard index.
    pub shard: u32,
    /// Checkpoint file name, relative to the manifest's directory.
    pub file: String,
    /// The shard's next expected local batch sequence after this
    /// checkpoint (everything below is durably covered).
    pub next_seq: u64,
    /// The shard's view epoch at the checkpoint barrier.
    pub epoch: u64,
}

/// A coordinated checkpoint across every shard of one serving topology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Replica count the topology was running with. A manifest only
    /// resumes a topology of the same width: each entry seeds one replica.
    pub shards: u32,
    /// The quorum epoch watermark at the barrier.
    pub epoch: u64,
    /// The router's next expected **global** batch sequence at the
    /// barrier — restored so at-least-once redeliveries of pre-barrier
    /// batches stay idempotent across a full process restart.
    pub next_global_seq: u64,
    /// Per-shard entries, in shard order, one per shard.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The conventional checkpoint file name for `shard`.
    pub fn shard_file(shard: u32) -> String {
        format!("shard-{shard}.ckpt.json")
    }

    /// Writes `who`'s checkpoint file atomically (temp + rename) into
    /// `dir`, returning the relative file name recorded in the manifest.
    pub fn write_shard_checkpoint(dir: &Path, shard: u32, ckpt: &Checkpoint) -> io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let name = Self::shard_file(shard);
        let json = serde_json::to_string(ckpt)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&dir.join(&name), json.as_bytes())?;
        Ok(name)
    }

    /// Writes the manifest atomically into `dir`, committing the barrier.
    /// Returns the manifest's path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = dir.join(MANIFEST_FILE);
        write_atomic(&path, json.as_bytes())?;
        Ok(path)
    }

    /// Loads and validates a manifest from `path` (a `manifest.json` or a
    /// directory containing one).
    pub fn load(path: &Path) -> io::Result<Self> {
        let path = if path.is_dir() {
            path.join(MANIFEST_FILE)
        } else {
            path.to_path_buf()
        };
        let text = std::fs::read_to_string(&path)?;
        let m: Manifest = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        m.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(m)
    }

    /// Loads the checkpoint a manifest entry names, resolved against the
    /// manifest's directory `dir`. The entry's file name is checked before
    /// anything is opened, and the checkpoint is validated after parsing.
    pub fn load_shard_checkpoint(dir: &Path, entry: &ManifestEntry) -> io::Result<Checkpoint> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        check_file_name(entry).map_err(invalid)?;
        let text = std::fs::read_to_string(dir.join(&entry.file))?;
        let ckpt: Checkpoint = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
        ckpt.validate().map_err(invalid)?;
        Ok(ckpt)
    }

    /// Structural validity: version, one entry per shard, in shard order,
    /// each naming a plain file in the manifest's directory.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {} (this build reads {MANIFEST_VERSION})",
                self.version
            ));
        }
        if self.entries.len() != self.shards as usize {
            return Err(format!(
                "manifest names {} entries for {} shards",
                self.entries.len(),
                self.shards
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.shard != i as u32 {
                return Err(format!("entry {i} claims shard {}", e.shard));
            }
            check_file_name(e)?;
        }
        Ok(())
    }
}

/// An entry's `file` must name a file inside the manifest's directory: no
/// separator (so no absolute path either), and not empty, `.` or `..`.
fn check_file_name(e: &ManifestEntry) -> Result<(), String> {
    if matches!(e.file.as_str(), "" | "." | "..") || e.file.contains(['/', '\\']) {
        return Err(format!(
            "entry {} names file {:?}, which is not a file name in the manifest's directory",
            e.shard, e.file
        ));
    }
    Ok(())
}

/// Write-then-rename so a crash mid-write never corrupts the live file.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ricd-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            records: vec![],
            heavy_pairs: vec![],
            groups: vec![],
            next_seq: 5,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let f0 = Manifest::write_shard_checkpoint(&dir, 0, &checkpoint()).unwrap();
        let f1 = Manifest::write_shard_checkpoint(&dir, 1, &checkpoint()).unwrap();
        let m = Manifest {
            version: MANIFEST_VERSION,
            shards: 2,
            epoch: 7,
            next_global_seq: 11,
            entries: vec![
                ManifestEntry {
                    shard: 0,
                    file: f0,
                    next_seq: 5,
                    epoch: 7,
                },
                ManifestEntry {
                    shard: 1,
                    file: f1,
                    next_seq: 5,
                    epoch: 8,
                },
            ],
        };
        let path = m.save(&dir).unwrap();
        assert!(path.ends_with(MANIFEST_FILE));
        // Load via the file and via the directory.
        assert_eq!(Manifest::load(&path).unwrap(), m);
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        let ckpt = Manifest::load_shard_checkpoint(&dir, &back.entries[1]).unwrap();
        assert_eq!(ckpt.next_seq, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_residue_after_save() {
        let dir = temp_dir("tmp-residue");
        let m = Manifest {
            version: MANIFEST_VERSION,
            shards: 0,
            epoch: 0,
            next_global_seq: 0,
            entries: vec![],
        };
        m.save(&dir).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_inconsistent_manifests() {
        let mut m = Manifest {
            version: MANIFEST_VERSION,
            shards: 2,
            epoch: 0,
            next_global_seq: 0,
            entries: vec![ManifestEntry {
                shard: 0,
                file: "shard-0.ckpt.json".into(),
                next_seq: 0,
                epoch: 0,
            }],
        };
        assert!(m.validate().is_err(), "entry count mismatch");
        m.entries.push(ManifestEntry {
            shard: 7,
            file: "x".into(),
            next_seq: 0,
            epoch: 0,
        });
        assert!(m.validate().is_err(), "out-of-order shard index");
        m.entries[1].shard = 1;
        assert!(m.validate().is_ok());
        for file in ["/etc/x", "../x", "..", ".", "", "a/b", "a/", "./a", "a\\b"] {
            let mut bad = m.clone();
            bad.entries[1].file = file.into();
            let err = bad.validate().unwrap_err();
            assert!(err.contains("entry 1 names file"), "{file:?}: {err}");
        }
        m.version = 99;
        assert!(m.validate().is_err(), "unknown version");
    }

    #[test]
    fn version_one_manifest_is_refused() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        std::fs::write(
            &path,
            r#"{"version":1,"shards":1,"hash_seed":1592613453,"epoch":0,"next_global_seq":0,
            "entries":[{"shard":0,"file":"shard-0.ckpt.json","next_seq":0,"epoch":0}]}"#,
        )
        .unwrap();
        let err = Manifest::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
