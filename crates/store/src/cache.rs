//! A persistent, content-addressed **result cache**.
//!
//! The service plane's in-memory dedup index collapses *live* duplicate
//! submissions; this module makes the same content address durable. Once a
//! run completes, its submission digest maps to the finished result forever
//! (until an operator runs `ayb cache gc`): a byte-identical resubmission —
//! after a restart, after the dedup entry dropped, even after the run
//! directory itself was pruned — is answered from here without executing
//! anything.
//!
//! ## Layout
//!
//! ```text
//! <root>/cache/
//!     digest_index.json        # the index: digest → run id, insert time, hits
//!     digest_index.lock        # writer mutual exclusion (create_new + retry)
//!     results/<digest>.json    # content-addressed copy of the run's result
//! ```
//!
//! The index entry *points at* the completed run (`runs/<id>/result.json`),
//! and insertion also copies the result into `results/<digest>.json` — the
//! content-addressed blob is what lets a cache hit outlive store GC of the
//! run directory. [`ResultCache::load_result`] prefers the blob and falls
//! back to the run's own `result.json` when the blob is missing (e.g. an
//! operator deleted it to force re-execution).
//!
//! ## Atomicity
//!
//! Readers never take a lock: `digest_index.json` is always replaced by an
//! atomic rename, so any read observes a complete, consistent snapshot.
//! Writers serialise through `digest_index.lock` (created with
//! `create_new`, retried briefly, and broken when older than
//! `LOCK_STALE_AFTER` so a crashed writer cannot wedge the cache). The
//! result blob is fully written *before* the index entry appears, so an
//! indexed digest always has a readable result.

use crate::{io_error, now_unix, read_json, write_json, Store, StoreError};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// Index file name under `<root>/cache/`.
const INDEX_FILE: &str = "digest_index.json";
/// Writer lock file name under `<root>/cache/`.
const LOCK_FILE: &str = "digest_index.lock";
/// Directory of content-addressed result blobs under `<root>/cache/`.
const RESULTS_DIR: &str = "results";
/// Attempts to acquire the writer lock before giving up.
const LOCK_ATTEMPTS: usize = 150;
/// Delay between lock attempts.
const LOCK_RETRY: Duration = Duration::from_millis(10);
/// A lock file older than this belongs to a crashed writer and is broken.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);
/// On-disk index schema version (bumped on incompatible layout changes).
const SCHEMA_VERSION: u64 = 1;

/// One index entry: a completed submission digest and where its result is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The submission digest, as the fixed-width hex the manifests use.
    pub digest: String,
    /// The completed run whose result this entry points at.
    pub run_id: String,
    /// Insertion time, seconds since the Unix epoch.
    pub inserted_unix: u64,
    /// Times this entry answered a resubmission.
    pub hits: u64,
}

/// The serialized form of `digest_index.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheIndex {
    /// Layout version of this file.
    schema_version: u64,
    /// All entries, in insertion order.
    entries: Vec<CacheEntry>,
}

impl CacheIndex {
    fn empty() -> CacheIndex {
        CacheIndex {
            schema_version: SCHEMA_VERSION,
            entries: Vec::new(),
        }
    }
}

/// What [`ResultCache::gc`] removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGcReport {
    /// Index entries dropped (aged out or pointing at nothing readable).
    pub entries_removed: usize,
    /// Index entries still live after the sweep.
    pub entries_kept: usize,
    /// Result blobs deleted (orphaned or belonging to removed entries).
    pub blobs_removed: usize,
}

/// A handle on a store's persistent digest → result cache.
///
/// Cloneable and cheap; all state lives on disk under `<root>/cache/`.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    runs_dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if necessary) the cache of `store`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the cache directories cannot be
    /// created.
    pub fn open(store: &Store) -> Result<ResultCache, StoreError> {
        let dir = store.root().join("cache");
        let results = dir.join(RESULTS_DIR);
        fs::create_dir_all(&results).map_err(|e| io_error(&results, e))?;
        Ok(ResultCache {
            dir,
            runs_dir: store.root().join("runs"),
        })
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    fn blob_path(&self, digest: &str) -> PathBuf {
        self.dir.join(RESULTS_DIR).join(format!("{digest}.json"))
    }

    /// Reads the current index snapshot (no lock — the index is only ever
    /// replaced atomically). A missing file is an empty cache.
    fn read_index(&self) -> Result<CacheIndex, StoreError> {
        let path = self.index_path();
        if !path.exists() {
            return Ok(CacheIndex::empty());
        }
        read_json(&path)
    }

    /// Runs `mutate` on the index under the writer lock and publishes the
    /// result atomically.
    fn update_index<R>(&self, mutate: impl FnOnce(&mut CacheIndex) -> R) -> Result<R, StoreError> {
        let _lock = IndexLock::acquire(self.dir.join(LOCK_FILE))?;
        let mut index = self.read_index()?;
        let outcome = mutate(&mut index);
        write_json(&self.index_path(), &index)?;
        Ok(outcome)
    }

    /// Whether `digest` looks like a manifest digest (16 hex chars) — the
    /// guard that keeps blob paths inside `results/`.
    fn valid_digest(digest: &str) -> bool {
        digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit())
    }

    /// Records `digest` → the completed run `run_id`, copying `result` into
    /// the content-addressed blob. Re-inserting an existing digest updates
    /// the pointer but keeps the hit count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Json`] for an invalid digest and IO/lock
    /// failures otherwise.
    pub fn insert<T: Serialize + ?Sized>(
        &self,
        digest: &str,
        run_id: &str,
        result: &T,
    ) -> Result<(), StoreError> {
        if !Self::valid_digest(digest) {
            return Err(StoreError::Json {
                path: self.index_path(),
                message: format!("invalid cache digest `{digest}`"),
            });
        }
        // Blob first, index second: an indexed digest always has a result.
        write_json(&self.blob_path(digest), result)?;
        let digest = digest.to_string();
        let run_id = run_id.to_string();
        self.update_index(move |index| {
            if let Some(entry) = index.entries.iter_mut().find(|e| e.digest == digest) {
                entry.run_id = run_id;
                entry.inserted_unix = now_unix();
            } else {
                index.entries.push(CacheEntry {
                    digest,
                    run_id,
                    inserted_unix: now_unix(),
                    hits: 0,
                });
            }
        })
    }

    /// Looks up `digest`, returning its entry when present.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the index
    /// cannot be read.
    pub fn lookup(&self, digest: &str) -> Result<Option<CacheEntry>, StoreError> {
        Ok(self
            .read_index()?
            .entries
            .into_iter()
            .find(|e| e.digest == digest))
    }

    /// All entries, in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the index
    /// cannot be read.
    pub fn entries(&self) -> Result<Vec<CacheEntry>, StoreError> {
        Ok(self.read_index()?.entries)
    }

    /// The entry (if any) whose result came from `run_id`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the index
    /// cannot be read.
    pub fn find_by_run(&self, run_id: &str) -> Result<Option<CacheEntry>, StoreError> {
        Ok(self
            .read_index()?
            .entries
            .into_iter()
            .find(|e| e.run_id == run_id))
    }

    /// Bumps the hit counter of `digest` (a no-op for unknown digests).
    ///
    /// # Errors
    ///
    /// Returns lock/IO errors from the index update.
    pub fn record_hit(&self, digest: &str) -> Result<(), StoreError> {
        let digest = digest.to_string();
        self.update_index(move |index| {
            if let Some(entry) = index.entries.iter_mut().find(|e| e.digest == digest) {
                entry.hits += 1;
            }
        })
    }

    /// Loads the cached result of `digest`: the content-addressed blob when
    /// present, else the pointed-at run's own `result.json`. `None` when the
    /// digest is not in the index or neither file is readable (a stale
    /// entry — `gc` removes those).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the index
    /// cannot be read.
    pub fn load_result(&self, digest: &str) -> Result<Option<Value>, StoreError> {
        let Some(entry) = self.lookup(digest)? else {
            return Ok(None);
        };
        let blob = self.blob_path(&entry.digest);
        if let Ok(value) = read_json::<Value>(&blob) {
            return Ok(Some(value));
        }
        let run_result = self.runs_dir.join(&entry.run_id).join(crate::RESULT_FILE);
        Ok(read_json::<Value>(&run_result).ok())
    }

    /// Removes `digest` from the index and deletes its blob. Returns whether
    /// an entry existed.
    ///
    /// # Errors
    ///
    /// Returns lock/IO errors from the index update.
    pub fn remove(&self, digest: &str) -> Result<bool, StoreError> {
        let owned = digest.to_string();
        let removed = self.update_index(move |index| {
            let before = index.entries.len();
            index.entries.retain(|e| e.digest != owned);
            index.entries.len() != before
        })?;
        if removed {
            let _ = fs::remove_file(self.blob_path(digest));
        }
        Ok(removed)
    }

    /// Sweeps the cache: drops entries older than `max_age` (when given),
    /// drops entries whose result is readable from *neither* the blob nor
    /// the run directory, and deletes orphaned blobs no entry points at.
    ///
    /// # Errors
    ///
    /// Returns lock/IO errors from the index update; blob deletions are
    /// best-effort.
    pub fn gc(&self, max_age: Option<Duration>) -> Result<CacheGcReport, StoreError> {
        let now = now_unix();
        let dir = self.clone();
        let mut report = CacheGcReport::default();
        let removed_digests = self.update_index(|index| {
            let mut removed = Vec::new();
            index.entries.retain(|entry| {
                let aged_out = max_age
                    .is_some_and(|age| now.saturating_sub(entry.inserted_unix) > age.as_secs());
                let readable = dir.blob_path(&entry.digest).exists()
                    || dir
                        .runs_dir
                        .join(&entry.run_id)
                        .join(crate::RESULT_FILE)
                        .exists();
                let keep = !aged_out && readable;
                if !keep {
                    removed.push(entry.digest.clone());
                }
                keep
            });
            report.entries_kept = index.entries.len();
            removed
        })?;
        report.entries_removed = removed_digests.len();
        for digest in &removed_digests {
            if fs::remove_file(self.blob_path(digest)).is_ok() {
                report.blobs_removed += 1;
            }
        }
        // Orphan blobs: results/<digest>.json with no index entry.
        let live: Vec<String> = self
            .read_index()?
            .entries
            .iter()
            .map(|e| format!("{}.json", e.digest))
            .collect();
        let results = self.dir.join(RESULTS_DIR);
        if let Ok(dir_entries) = fs::read_dir(&results) {
            for entry in dir_entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".json")
                    && !live.iter().any(|l| l == name)
                    && fs::remove_file(entry.path()).is_ok()
                {
                    report.blobs_removed += 1;
                }
            }
        }
        Ok(report)
    }
}

/// The held writer lock: a `create_new` file removed on drop.
struct IndexLock {
    path: PathBuf,
}

impl IndexLock {
    fn acquire(path: PathBuf) -> Result<IndexLock, StoreError> {
        for _ in 0..LOCK_ATTEMPTS {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(IndexLock { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Break locks abandoned by a crashed writer.
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE_AFTER);
                    if stale {
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    std::thread::sleep(LOCK_RETRY);
                }
                Err(e) => return Err(io_error(&path, e)),
            }
        }
        Err(StoreError::Io {
            path,
            message: "cache index lock held too long".to_string(),
        })
    }
}

impl Drop for IndexLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_store(label: &str) -> (PathBuf, Store) {
        let root = std::env::temp_dir().join(format!(
            "ayb-cache-{label}-{}-{}",
            std::process::id(),
            now_unix()
        ));
        let store = Store::open(&root).expect("store opens");
        (root, store)
    }

    fn cleanup(root: &Path) {
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn insert_lookup_and_hits_round_trip() {
        let (root, store) = temp_store("roundtrip");
        let cache = ResultCache::open(&store).unwrap();
        let digest = "00deadbeef001234";
        assert!(cache.lookup(digest).unwrap().is_none());

        cache
            .insert(digest, "run-0001", &Value::Str("payload".to_string()))
            .unwrap();
        let entry = cache.lookup(digest).unwrap().expect("entry present");
        assert_eq!(entry.run_id, "run-0001");
        assert_eq!(entry.hits, 0);

        cache.record_hit(digest).unwrap();
        cache.record_hit(digest).unwrap();
        assert_eq!(cache.lookup(digest).unwrap().unwrap().hits, 2);
        assert_eq!(
            cache.load_result(digest).unwrap(),
            Some(Value::Str("payload".to_string()))
        );
        assert_eq!(
            cache.find_by_run("run-0001").unwrap().unwrap().digest,
            digest
        );
        cleanup(&root);
    }

    #[test]
    fn results_survive_reopen_and_run_dir_removal() {
        let (root, store) = temp_store("survive");
        let digest = "aaaabbbbccccdddd";
        {
            let cache = ResultCache::open(&store).unwrap();
            cache.insert(digest, "run-gone", &42u64.to_value()).unwrap();
        }
        // A fresh handle (fresh process, conceptually) still sees the entry,
        // and the result loads even though `runs/run-gone` never existed.
        let cache = ResultCache::open(&store).unwrap();
        assert!(cache.lookup(digest).unwrap().is_some());
        let expected: Value = serde_json::from_str("42").unwrap();
        assert_eq!(cache.load_result(digest).unwrap(), Some(expected));
        cleanup(&root);
    }

    #[test]
    fn invalid_digests_are_rejected() {
        let (root, store) = temp_store("invalid");
        let cache = ResultCache::open(&store).unwrap();
        for bad in ["", "short", "../../etc/passwd", "zzzzzzzzzzzzzzzz"] {
            assert!(cache.insert(bad, "run-0001", &1u64.to_value()).is_err());
        }
        cleanup(&root);
    }

    #[test]
    fn gc_drops_aged_and_unreadable_entries_and_orphan_blobs() {
        let (root, store) = temp_store("gc");
        let cache = ResultCache::open(&store).unwrap();
        cache
            .insert("1111111111111111", "run-0001", &1u64.to_value())
            .unwrap();
        cache
            .insert("2222222222222222", "run-0002", &2u64.to_value())
            .unwrap();
        // Entry 2's blob vanishes and its run never existed → unreadable.
        fs::remove_file(cache.blob_path("2222222222222222")).unwrap();
        // An orphan blob no entry points at.
        fs::write(root.join("cache/results/3333333333333333.json"), "3").unwrap();

        let report = cache.gc(None).unwrap();
        assert_eq!(report.entries_kept, 1);
        assert_eq!(report.entries_removed, 1);
        assert_eq!(report.blobs_removed, 1); // the orphan
        assert!(cache.lookup("1111111111111111").unwrap().is_some());
        assert!(cache.lookup("2222222222222222").unwrap().is_none());

        // Age-based sweep: everything is "older" than a zero max-age once
        // a second has passed; force it by back-dating the entry.
        cache
            .update_index(|index| {
                for e in &mut index.entries {
                    e.inserted_unix = e.inserted_unix.saturating_sub(3600);
                }
            })
            .unwrap();
        let report = cache.gc(Some(Duration::from_secs(60))).unwrap();
        assert_eq!(report.entries_removed, 1);
        assert_eq!(report.entries_kept, 0);
        cleanup(&root);
    }

    #[test]
    fn a_stale_lock_is_broken_instead_of_wedging_writers() {
        let (root, store) = temp_store("stalelock");
        let cache = ResultCache::open(&store).unwrap();
        let lock = root.join("cache").join(LOCK_FILE);
        fs::write(&lock, "crashed writer").unwrap();
        // Back-date the lock so it reads as stale immediately.
        let old = std::time::SystemTime::now() - Duration::from_secs(120);
        let file = fs::OpenOptions::new().write(true).open(&lock).unwrap();
        file.set_modified(old).unwrap();
        drop(file);
        cache
            .insert("4444444444444444", "run-0004", &4u64.to_value())
            .unwrap();
        assert!(cache.lookup("4444444444444444").unwrap().is_some());
        cleanup(&root);
    }
}
