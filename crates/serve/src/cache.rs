//! The crash-safe, content-addressed artifact cache.
//!
//! One entry per completed job, keyed by the SHA-256 of the job's
//! [`cache_key_material`](wm_stream::JobSpec::cache_key_material). The
//! stored payload is the rendered result document — the exact bytes the
//! daemon splices into an `ok` response — so a cache hit is bit-identical
//! to the fresh run that produced it by construction.
//!
//! # On-disk format
//!
//! `<dir>/<key>.wmd`, where `<key>` is 64 hex chars:
//!
//! ```text
//! wmd-cache-v2 <key> <sha256(payload)> <payload-byte-length>\n
//! <payload bytes>
//! ```
//!
//! The schema tag changes whenever the payload's rendering does (v2
//! writes `stats` inline), so an entry of an older schema is a miss and
//! is scrubbed, never served beside a fresh rendering.
//!
//! # Crash safety and integrity
//!
//! Writes go to a `*.tmp-<pid>-<seq>` file in the same directory, are
//! flushed with `sync_all`, and land via [`std::fs::rename`] — atomic on
//! POSIX, so a reader (or a crash) sees either the old state or the
//! complete new entry, never a torn one. Every read re-verifies the
//! header: schema tag, key-vs-filename agreement, payload length and
//! checksum. Anything that fails verification is treated as a miss and
//! deleted. [`ArtifactCache::open`] scrubs the directory: leftover temp
//! files (a crash mid-write) and corrupt entries (torn by an unclean
//! shutdown, or tampered with) are removed and counted in the
//! [`ScrubReport`].

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::sha256_hex;

const SCHEMA: &str = "wmd-cache-v2";
const ENTRY_EXT: &str = "wmd";

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What [`ArtifactCache::open`] found and fixed in the cache directory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries that verified clean and were kept.
    pub kept: usize,
    /// Entries removed because header/length/checksum verification failed.
    pub removed_corrupt: usize,
    /// Temp files removed (interrupted writes from a previous process).
    pub removed_temp: usize,
}

/// A directory of verified, atomically-written result payloads.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Open (creating if needed) and scrub the cache directory.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from directory creation or listing; per-entry
    /// errors during the scrub are handled by deleting the entry, not by
    /// failing the open.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(ArtifactCache, ScrubReport)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = ArtifactCache { dir };
        let report = cache.scrub()?;
        Ok((cache, report))
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The hex key for a job's canonical key material.
    pub fn key_of(material: &str) -> String {
        sha256_hex(material.as_bytes())
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ENTRY_EXT}"))
    }

    /// Look up a payload by key, verifying integrity. Corrupt entries are
    /// deleted and reported as a miss — the daemon then recomputes and
    /// rewrites them, which is the recovery path the soak test exercises.
    pub fn lookup(&self, key: &str) -> Option<String> {
        let path = self.entry_path(key);
        match read_verified(&path, Some(key)) {
            Ok(payload) => Some(payload),
            Err(VerifyError::Missing) => None,
            Err(e) => {
                // Corrupt: scrub it now so the directory converges back to
                // a verified state without waiting for a restart.
                let reason = match &e {
                    VerifyError::Corrupt(r) => (*r).to_string(),
                    VerifyError::Io(io) => io.to_string(),
                    VerifyError::Missing => unreachable!(),
                };
                eprintln!("wmd: cache entry {key} failed verification ({reason}); removed");
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Store a payload under a key: temp file, checksum header, fsync,
    /// atomic rename.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; the daemon treats a failed store as a
    /// non-fatal event (the job result is still returned to the client).
    pub fn store(&self, key: &str, payload: &str) -> io::Result<()> {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key}.tmp-{}-{seq}", std::process::id()));
        let header = format!(
            "{SCHEMA} {key} {} {}\n",
            sha256_hex(payload.as_bytes()),
            payload.len()
        );
        let result = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(payload.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Remove temp litter and corrupt entries; count survivors.
    fn scrub(&self) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp-") {
                if fs::remove_file(&path).is_ok() {
                    report.removed_temp += 1;
                }
                continue;
            }
            if !name.ends_with(&format!(".{ENTRY_EXT}")) {
                continue; // not ours; leave it alone
            }
            let key = name.trim_end_matches(&format!(".{ENTRY_EXT}"));
            match read_verified(&path, Some(key)) {
                Ok(_) => report.kept += 1,
                Err(_) => {
                    if fs::remove_file(&path).is_ok() {
                        report.removed_corrupt += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

#[derive(Debug)]
enum VerifyError {
    Missing,
    Io(io::Error),
    Corrupt(&'static str),
}

/// Read and verify one entry. `expect_key` additionally pins the header
/// key to the filename, so a renamed entry cannot answer for the wrong
/// job.
fn read_verified(path: &Path, expect_key: Option<&str>) -> Result<String, VerifyError> {
    let mut f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(VerifyError::Missing),
        Err(e) => return Err(VerifyError::Io(e)),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).map_err(VerifyError::Io)?;
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(VerifyError::Corrupt("no header line"))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| VerifyError::Corrupt("non-UTF-8 header"))?;
    let fields: Vec<&str> = header.split(' ').collect();
    let [schema, key, checksum, len] = fields.as_slice() else {
        return Err(VerifyError::Corrupt("bad header field count"));
    };
    if *schema != SCHEMA {
        return Err(VerifyError::Corrupt("unknown schema"));
    }
    if let Some(expect) = expect_key {
        if *key != expect {
            return Err(VerifyError::Corrupt("key does not match filename"));
        }
    }
    let payload = &bytes[newline + 1..];
    let expected_len: usize = len
        .parse()
        .map_err(|_| VerifyError::Corrupt("bad length field"))?;
    if payload.len() != expected_len {
        return Err(VerifyError::Corrupt("length mismatch"));
    }
    if sha256_hex(payload) != *checksum {
        return Err(VerifyError::Corrupt("checksum mismatch"));
    }
    String::from_utf8(payload.to_vec()).map_err(|_| VerifyError::Corrupt("non-UTF-8 payload"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wmd-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_a_payload() {
        let (cache, report) = ArtifactCache::open(tmpdir("roundtrip")).unwrap();
        assert_eq!(report, ScrubReport::default());
        let key = ArtifactCache::key_of("job material");
        assert_eq!(cache.lookup(&key), None);
        cache.store(&key, "{\"cycles\": 7}").unwrap();
        assert_eq!(cache.lookup(&key).as_deref(), Some("{\"cycles\": 7}"));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corruption_is_detected_and_healed() {
        let (cache, _) = ArtifactCache::open(tmpdir("corrupt")).unwrap();
        let key = ArtifactCache::key_of("x");
        cache.store(&key, "payload-bytes").unwrap();
        let path = cache.dir().join(format!("{key}.{ENTRY_EXT}"));
        // Flip a payload byte without changing the length.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(&key), None, "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry must be deleted");
        // Store again: heals.
        cache.store(&key, "payload-bytes").unwrap();
        assert_eq!(cache.lookup(&key).as_deref(), Some("payload-bytes"));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn an_older_schema_is_never_served() {
        let (cache, _) = ArtifactCache::open(tmpdir("schema")).unwrap();
        let key = ArtifactCache::key_of("z");
        cache.store(&key, "{\"stats\": {}}").unwrap();
        let path = cache.dir().join(format!("{key}.{ENTRY_EXT}"));
        let entry = fs::read_to_string(&path).unwrap();
        fs::write(&path, entry.replacen(SCHEMA, "wmd-cache-v1", 1)).unwrap();
        assert_eq!(cache.lookup(&key), None);
        assert!(!path.exists(), "the old entry is removed");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let (cache, _) = ArtifactCache::open(tmpdir("truncate")).unwrap();
        let key = ArtifactCache::key_of("y");
        cache.store(&key, "0123456789").unwrap();
        let path = cache.dir().join(format!("{key}.{ENTRY_EXT}"));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(cache.lookup(&key), None);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn scrub_removes_temp_litter_and_corrupt_entries() {
        let dir = tmpdir("scrub");
        {
            let (cache, _) = ArtifactCache::open(&dir).unwrap();
            cache.store(&ArtifactCache::key_of("good"), "good").unwrap();
            cache.store(&ArtifactCache::key_of("bad"), "bad").unwrap();
        }
        // Simulate a crash: a stray temp file and a torn entry.
        fs::write(dir.join("deadbeef.tmp-1-0"), b"partial").unwrap();
        let bad = dir.join(format!("{}.{ENTRY_EXT}", ArtifactCache::key_of("bad")));
        fs::write(&bad, b"wmd-cache-v2 torn\n").unwrap();
        let (cache, report) = ArtifactCache::open(&dir).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed_corrupt, 1);
        assert_eq!(report.removed_temp, 1);
        assert_eq!(
            cache.lookup(&ArtifactCache::key_of("good")).as_deref(),
            Some("good")
        );
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn wrong_key_under_a_filename_is_rejected() {
        let (cache, _) = ArtifactCache::open(tmpdir("renamed")).unwrap();
        let a = ArtifactCache::key_of("a");
        let b = ArtifactCache::key_of("b");
        cache.store(&a, "payload-for-a").unwrap();
        fs::rename(
            cache.dir().join(format!("{a}.{ENTRY_EXT}")),
            cache.dir().join(format!("{b}.{ENTRY_EXT}")),
        )
        .unwrap();
        assert_eq!(cache.lookup(&b), None, "renamed entry must not answer");
        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
