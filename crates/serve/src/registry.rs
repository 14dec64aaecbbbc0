//! The on-disk artifact registry: one directory per trained model set.
//!
//! Layout:
//!
//! ```text
//! <dir>/manifest.txt        epoch + Closest Items summary fields
//! <dir>/bpr.rmodel          BprModel        (tag 0x01)
//! <dir>/most_read.rmodel    MostReadItems   (tag 0x02)
//! <dir>/embeddings.rmodel   EmbeddingStore  (tag 0x03)
//! <dir>/ann.rmodel          AnnArtifact     (tag 0x04, optional)
//! ```
//!
//! Loading is *slot-tolerant*: the manifest is mandatory, but each model
//! slot resolves to its own `Result` so a missing, truncated, or
//! checksum-corrupted artifact degrades exactly one link of the serving
//! fallback chain instead of failing the whole load.
//!
//! Publication is *crash-safe*: every file is written through
//! [`rm_core::persist::write_atomic`] (`.tmp` sibling, fsync, rename) so
//! no artifact is ever torn, and the fsync'd manifest goes last so the
//! epoch bump is the commit point. `save` and `load` additionally take a
//! cooperative `registry.lock` file, so a trainer publishing into a
//! directory and a server reloading from it can never interleave.

use rm_core::bpr::BprModel;
use rm_core::most_read::MostReadItems;
use rm_core::persist::{write_atomic, DecodeError, PersistModel};
use rm_core::quant::QuantArtifact;
use rm_dataset::summary::SummaryFields;
use rm_embed::{AnnArtifact, EmbeddingStore};
use rm_util::clock::{Clock, MonotonicClock};
use rm_util::RecError;
use std::fmt;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Manifest file name inside a registry directory.
pub const MANIFEST_FILE: &str = "manifest.txt";
/// Cooperative lock file guarding saves and loads of one directory.
pub const LOCK_FILE: &str = "registry.lock";
/// BPR model artifact file name.
pub const BPR_FILE: &str = "bpr.rmodel";
/// Most Read Items artifact file name.
pub const MOST_READ_FILE: &str = "most_read.rmodel";
/// Embedding store artifact file name.
pub const EMBEDDINGS_FILE: &str = "embeddings.rmodel";
/// ANN (IVF) index artifact file name. Optional: a registry trained
/// before the ANN subsystem existed simply has no such file and the
/// serve pipeline keeps its exact scans.
pub const ANN_FILE: &str = "ann.rmodel";
/// Quantized factor/embedding artifact file name. Optional: when
/// present and dimension-consistent the engine scores its rank stage
/// from quantized rows; any failure here degrades only the memory
/// optimisation — exact f32 scoring keeps serving.
pub const QUANT_FILE: &str = "quant.rmodel";

const MANIFEST_HEADER: &str = "rm-serve-manifest 1";

/// The registry metadata persisted alongside the model artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Training epoch: bumped on every retrain, part of the serving-cache
    /// key so stale entries can never survive a reload.
    pub epoch: u64,
    /// The metadata summary the embeddings were built from.
    pub fields: SummaryFields,
}

impl Manifest {
    /// Renders the manifest as `key value` lines.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{MANIFEST_HEADER}\nepoch {}\nfields {}\n",
            self.epoch,
            self.fields.bits()
        )
    }

    /// Parses [`Manifest::render`] output.
    ///
    /// # Errors
    ///
    /// [`RecError::Corrupt`] when the header, a line, or a required key
    /// fails to parse.
    pub fn parse(text: &str) -> Result<Self, RecError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(MANIFEST_HEADER) {
            return Err(RecError::Corrupt("manifest: missing header".into()));
        }
        let mut epoch = None;
        let mut fields = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| RecError::Corrupt(format!("manifest: bad line: {line}")))?;
            match key {
                "epoch" => {
                    epoch =
                        Some(value.parse::<u64>().map_err(|_| {
                            RecError::Corrupt(format!("manifest: bad epoch: {value}"))
                        })?);
                }
                "fields" => {
                    fields = Some(SummaryFields::from_bits(value.parse::<u8>().map_err(
                        |_| RecError::Corrupt(format!("manifest: bad fields: {value}")),
                    )?));
                }
                // Unknown keys are ignored for forward compatibility.
                _ => {}
            }
        }
        Ok(Self {
            epoch: epoch.ok_or_else(|| RecError::Corrupt("manifest: missing epoch".into()))?,
            fields: fields.ok_or_else(|| RecError::Corrupt("manifest: missing fields".into()))?,
        })
    }
}

/// Why one model slot failed to load (the registry itself is fine).
#[derive(Debug)]
pub enum SlotError {
    /// The artifact file does not exist.
    Missing,
    /// The file exists but could not be read.
    Io(String),
    /// The bytes were read but failed the codec (truncation, checksum,
    /// wrong model tag, …).
    Decode(DecodeError),
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing => write!(f, "artifact missing"),
            Self::Io(msg) => write!(f, "artifact unreadable: {msg}"),
            Self::Decode(e) => write!(f, "artifact corrupt: {e}"),
        }
    }
}

/// Per-slot load outcome.
pub type SlotResult<T> = Result<T, SlotError>;

/// Everything a [`crate::engine::ServingEngine`] needs from disk, with
/// per-slot success or failure.
#[derive(Debug)]
pub struct LoadedArtifacts {
    /// The parsed manifest.
    pub manifest: Manifest,
    /// The collaborative-filtering model.
    pub bpr: SlotResult<BprModel>,
    /// The popularity baseline's read counts.
    pub most_read: SlotResult<MostReadItems>,
    /// The catalogue embeddings for Closest Items.
    pub embeddings: SlotResult<EmbeddingStore>,
    /// The IVF indexes accelerating the content-similar and
    /// CF-neighbour candidate sources. `Missing` is the normal state
    /// for registries trained without ANN; any failure here degrades
    /// only the acceleration — the exact scans keep serving.
    pub ann: SlotResult<AnnArtifact>,
    /// The quantized factor/embedding rows for the low-memory scoring
    /// path. `Missing` is the normal state for registries trained with
    /// `--quant off`; any failure here degrades only the quantized
    /// path — exact f32 scoring keeps serving.
    pub quant: SlotResult<QuantArtifact>,
}

/// A held `registry.lock`: created with `O_EXCL`, removed on drop.
///
/// The lock is *cooperative* — it only excludes other
/// [`ArtifactRegistry`] users, which is exactly the save-vs-reload race
/// it exists to prevent. The holder writes `PID owner-token` into the
/// file: the PID makes a stale lock diagnosable by hand, and the token
/// lets waiters recover from one automatically — a waiter that has
/// watched the *same* token sit unchanged for the registry's stale-after
/// window concludes the holder crashed between create and drop, removes
/// the file, and races for a fresh `O_EXCL` acquisition (losing that
/// race is fine; the winner holds a valid lock).
#[derive(Debug)]
pub struct RegistryLock {
    path: PathBuf,
}

/// Process-wide acquisition counter: makes every owner token unique even
/// when one process re-acquires the same lock in a tight loop.
static LOCK_SEQ: AtomicU64 = AtomicU64::new(0);

impl RegistryLock {
    /// Polling interval while waiting for a held lock.
    const POLL: Duration = Duration::from_millis(2);

    fn acquire(
        dir: &Path,
        wait: Duration,
        stale_after: Duration,
        clock: &dyn Clock,
    ) -> io::Result<Self> {
        let path = dir.join(LOCK_FILE);
        let deadline = clock.now() + wait;
        // The token last read out of the lock file and when we first saw
        // it. A change resets the staleness window: the lock is moving.
        let mut observed: Option<(String, Duration)> = None;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let token = LOCK_SEQ.fetch_add(1, Ordering::Relaxed);
                    let _ = write!(f, "{} {token}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let now = clock.now();
                    // Holder bookkeeping: an unreadable file (mid-write
                    // or just-deleted) simply doesn't advance the window.
                    if let Ok(contents) = std::fs::read_to_string(&path) {
                        match &observed {
                            Some((token, first_seen)) if *token == contents => {
                                if now.saturating_sub(*first_seen) >= stale_after {
                                    // Same owner for the whole window:
                                    // its process died holding the lock.
                                    let _ = std::fs::remove_file(&path);
                                    observed = None;
                                    continue;
                                }
                            }
                            _ => observed = Some((contents, now)),
                        }
                    }
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            format!(
                                "registry.lock held by another process (waited {wait:?}, \
                                 stale takeover after {stale_after:?}); remove {} if its \
                                 holder crashed",
                                path.display()
                            ),
                        ));
                    }
                    clock.sleep(Self::POLL);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for RegistryLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Handle to an artifact directory.
#[derive(Debug, Clone)]
pub struct ArtifactRegistry {
    dir: PathBuf,
    lock_wait: Duration,
    stale_after: Duration,
    clock: Arc<dyn Clock>,
}

impl ArtifactRegistry {
    /// How long `save`/`load` wait for the cooperative lock by default.
    pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_secs(5);

    /// How long an unchanged owner token must sit in `registry.lock`
    /// before waiters treat the holder as crashed and take the lock
    /// over. A healthy save or load holds the lock for milliseconds, so
    /// two seconds of a frozen token means a dead holder — and keeping
    /// this below [`Self::DEFAULT_LOCK_WAIT`] lets recovery happen
    /// within a default wait instead of timing out behind a corpse.
    pub const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(2);

    /// Points at (but does not create) an artifact directory.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            lock_wait: Self::DEFAULT_LOCK_WAIT,
            stale_after: Self::DEFAULT_STALE_AFTER,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// The same registry with a different lock-acquisition timeout.
    #[must_use]
    pub fn with_lock_wait(mut self, wait: Duration) -> Self {
        self.lock_wait = wait;
        self
    }

    /// The same registry with a different stale-lock takeover window.
    #[must_use]
    pub fn with_stale_after(mut self, stale_after: Duration) -> Self {
        self.stale_after = stale_after;
        self
    }

    /// The same registry timed by `clock` (tests pass a fake so lock
    /// waits and stale takeovers run on simulated time).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Takes the cooperative `registry.lock` explicitly (for callers
    /// doing multi-step maintenance). `save` and `load` take it
    /// internally; while a caller holds it they will block, then fail.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another holder keeps the lock past the
    /// registry's lock-wait timeout; any other I/O error from creating
    /// the lock file.
    pub fn lock(&self) -> io::Result<RegistryLock> {
        std::fs::create_dir_all(&self.dir)?;
        RegistryLock::acquire(&self.dir, self.lock_wait, self.stale_after, &*self.clock)
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of a file inside the registry.
    #[must_use]
    pub fn path_of(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Writes the full artifact set (creating the directory if needed)
    /// under the cooperative lock. Every file goes through an atomic
    /// `.tmp`-then-rename publication so a crash mid-save can tear
    /// nothing; the fsync'd manifest is written last, making the epoch
    /// bump the commit point — a crash before it leaves the previous
    /// manifest (and epoch) in force.
    /// `ann` and `quant` are optional: `Some` publishes the artifact
    /// alongside the models, `None` *removes* any previous file so a
    /// retrain that skips the optional artifact can never leave a stale
    /// one whose dimensions happen to match the new models.
    pub fn save(
        &self,
        manifest: &Manifest,
        bpr: &BprModel,
        most_read: &MostReadItems,
        embeddings: &EmbeddingStore,
        ann: Option<&AnnArtifact>,
        quant: Option<&QuantArtifact>,
    ) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let _lock =
            RegistryLock::acquire(&self.dir, self.lock_wait, self.stale_after, &*self.clock)?;
        write_atomic(&self.path_of(BPR_FILE), &bpr.to_bytes())?;
        write_atomic(&self.path_of(MOST_READ_FILE), &most_read.to_bytes())?;
        write_atomic(&self.path_of(EMBEDDINGS_FILE), &embeddings.to_bytes())?;
        for (file, bytes) in [
            (ANN_FILE, ann.map(PersistModel::to_bytes)),
            (QUANT_FILE, quant.map(PersistModel::to_bytes)),
        ] {
            match bytes {
                Some(bytes) => write_atomic(&self.path_of(file), &bytes)?,
                None => match std::fs::remove_file(self.path_of(file)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
        }
        write_atomic(&self.path_of(MANIFEST_FILE), manifest.render().as_bytes())?;
        Ok(())
    }

    /// Corrupts the saved artifacts of the slots a
    /// [`FaultPlan`](crate::fault::FaultPlan) marks `corrupt_on_save` —
    /// each such artifact is truncated to half its length, simulating a
    /// publisher that died mid-write *without* the atomic-rename
    /// protocol. Chaos tests run it after [`ArtifactRegistry::save`] to
    /// prove a reload degrades exactly the corrupted slots.
    #[cfg(feature = "testing")]
    pub fn corrupt_on_save(&self, plan: &crate::fault::FaultPlan) -> io::Result<()> {
        use crate::engine::ModelSlot;
        let files = [
            (ModelSlot::Bpr, BPR_FILE),
            (ModelSlot::MostRead, MOST_READ_FILE),
            (ModelSlot::ClosestItems, EMBEDDINGS_FILE),
        ];
        for (slot, file) in files {
            if plan.slot(slot).corrupt_on_save {
                let path = self.path_of(file);
                let bytes = std::fs::read(&path)?;
                std::fs::write(&path, &bytes[..bytes.len() / 2])?;
            }
        }
        Ok(())
    }

    fn load_slot<M: PersistModel>(&self, file: &str) -> SlotResult<M> {
        let bytes = match std::fs::read(self.path_of(file)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SlotError::Missing),
            Err(e) => return Err(SlotError::Io(e.to_string())),
        };
        M::from_bytes(&bytes).map_err(SlotError::Decode)
    }

    /// Opens the registry: the manifest must parse, each model slot loads
    /// independently. The cooperative lock is held across the reads so a
    /// concurrent `save` cannot interleave; a registry directory that
    /// does not exist yet skips the lock and reports the manifest's
    /// `NotFound` as usual.
    ///
    /// # Errors
    ///
    /// [`RecError::Io`] when the lock or manifest cannot be read,
    /// [`RecError::Corrupt`] when the manifest does not parse.
    pub fn load(&self) -> Result<LoadedArtifacts, RecError> {
        let _lock = match RegistryLock::acquire(
            &self.dir,
            self.lock_wait,
            self.stale_after,
            &*self.clock,
        ) {
            Ok(lock) => Some(lock),
            // Missing directory: fall through to the manifest read, which
            // produces the canonical "registry absent" error.
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(RecError::Io(e)),
        };
        let manifest_text = std::fs::read_to_string(self.path_of(MANIFEST_FILE))?;
        let manifest = Manifest::parse(&manifest_text)?;
        Ok(LoadedArtifacts {
            manifest,
            bpr: self.load_slot(BPR_FILE),
            most_read: self.load_slot(MOST_READ_FILE),
            embeddings: self.load_slot(EMBEDDINGS_FILE),
            ann: self.load_slot(ANN_FILE),
            quant: self.load_slot(QUANT_FILE),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_sparse::DenseMatrix;

    fn temp_registry(tag: &str) -> ArtifactRegistry {
        let dir =
            std::env::temp_dir().join(format!("rm-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactRegistry::new(dir)
    }

    fn tiny_artifacts() -> (BprModel, MostReadItems, EmbeddingStore) {
        let bpr = BprModel {
            user_factors: DenseMatrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
            item_factors: DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]),
        };
        let most_read = MostReadItems::from_counts(vec![5, 0, 2]);
        let embeddings = EmbeddingStore::from_matrix(DenseMatrix::from_vec(
            3,
            2,
            vec![3.0, 4.0, 1.0, 0.0, 0.0, 2.0],
        ));
        (bpr, most_read, embeddings)
    }

    #[test]
    fn manifest_round_trip() {
        let m = Manifest {
            epoch: 42,
            fields: SummaryFields::BEST,
        };
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_garbage() {
        assert!(matches!(
            Manifest::parse("not a manifest"),
            Err(RecError::Corrupt(_))
        ));
        assert!(matches!(
            Manifest::parse(MANIFEST_HEADER),
            Err(RecError::Corrupt(_))
        ));
        assert!(matches!(
            Manifest::parse(&format!("{MANIFEST_HEADER}\nepoch x\nfields 2")),
            Err(RecError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_ignores_unknown_keys() {
        let text = format!("{MANIFEST_HEADER}\nepoch 7\nfields 10\nfuture stuff\n");
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.epoch, 7);
        assert_eq!(m.fields, SummaryFields::BEST);
    }

    #[test]
    fn save_then_load_round_trips_every_slot() {
        let reg = temp_registry("roundtrip");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let manifest = Manifest {
            epoch: 3,
            fields: SummaryFields::ALL,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .unwrap();

        let loaded = reg.load().unwrap();
        assert_eq!(loaded.manifest, manifest);
        // No ANN was published: that slot is Missing, not an error.
        assert!(matches!(loaded.ann, Err(SlotError::Missing)));
        assert_eq!(loaded.bpr.unwrap(), bpr);
        assert_eq!(loaded.most_read.unwrap().counts(), most_read.counts());
        let store = loaded.embeddings.unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.embedding(0), embeddings.embedding(0));
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    fn tiny_ann(bpr: &BprModel, embeddings: &EmbeddingStore) -> AnnArtifact {
        let cfg = rm_embed::IvfConfig {
            nlist: 2,
            iters: 2,
            seed: 1,
            train_sample: 0,
        };
        AnnArtifact {
            content: Some(rm_embed::IvfIndex::build(embeddings, &cfg)),
            cf: Some(rm_embed::IvfIndex::build_mips(&bpr.item_factors, &cfg)),
        }
    }

    #[test]
    fn ann_slot_round_trips_and_none_scrubs_stale_index() {
        let reg = temp_registry("ann-slot");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let ann = tiny_ann(&bpr, &embeddings);
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, Some(&ann), None)
            .unwrap();
        assert_eq!(reg.load().unwrap().ann.unwrap(), ann);

        // A retrain without ANN must remove the stale index: its
        // dimensions could accidentally match the new models.
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .unwrap();
        assert!(!reg.path_of(ANN_FILE).exists());
        assert!(matches!(reg.load().unwrap().ann, Err(SlotError::Missing)));
    }

    #[test]
    fn corrupt_ann_slot_degrades_not_fails() {
        let reg = temp_registry("ann-corrupt");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let ann = tiny_ann(&bpr, &embeddings);
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, Some(&ann), None)
            .unwrap();
        let path = reg.path_of(ANN_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = reg.load().unwrap();
        assert!(matches!(loaded.ann, Err(SlotError::Decode(_))));
        assert!(loaded.bpr.is_ok());
        assert!(loaded.embeddings.is_ok());
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn save_leaves_no_temp_or_lock_files() {
        let reg = temp_registry("atomic");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(reg.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp") || n == LOCK_FILE)
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn save_while_locked_times_out_and_succeeds_after_release() {
        let reg = temp_registry("locked").with_lock_wait(Duration::from_millis(50));
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };

        let held = reg.lock().expect("explicit lock");
        let err = reg
            .save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .expect_err("save under a held lock must fail");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        assert!(err.to_string().contains("registry.lock"), "{err}");

        // Loads respect the same lock.
        assert!(matches!(reg.load(), Err(RecError::Io(_))));

        drop(held);
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .expect("save after release");
        assert!(reg.load().is_ok());
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn lock_is_released_on_drop_even_after_timeout() {
        let reg = temp_registry("lock-drop").with_lock_wait(Duration::from_millis(10));
        let first = reg.lock().unwrap();
        assert!(reg.lock().is_err(), "second lock while held");
        drop(first);
        let second = reg.lock().expect("lock after drop");
        drop(second);
        assert!(
            !reg.path_of(LOCK_FILE).exists(),
            "lock file must be removed on drop"
        );
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn stale_lock_from_a_dead_holder_is_taken_over() {
        use rm_util::clock::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let reg = temp_registry("stale-takeover")
            .with_lock_wait(Duration::from_secs(5))
            .with_stale_after(Duration::from_millis(100))
            .with_clock(clock.clone());
        std::fs::create_dir_all(reg.dir()).unwrap();
        // A holder that crashed between create and drop: the file stays,
        // its owner token never changes again.
        std::fs::write(reg.path_of(LOCK_FILE), "999999 dead-token").unwrap();
        let lock = reg.lock().expect("waiter takes over the stale lock");
        // Takeover waited out the staleness window on simulated time,
        // well inside the acquisition deadline.
        assert!(clock.now() >= Duration::from_millis(100));
        assert!(clock.now() < Duration::from_secs(5));
        let contents = std::fs::read_to_string(reg.path_of(LOCK_FILE)).unwrap();
        assert_ne!(contents, "999999 dead-token", "new owner wrote its token");
        assert!(
            contents.starts_with(&std::process::id().to_string()),
            "{contents}"
        );
        drop(lock);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn held_lock_inside_the_stale_window_is_not_stolen() {
        use rm_util::clock::FakeClock;
        let clock = Arc::new(FakeClock::new());
        let reg = temp_registry("no-steal")
            .with_lock_wait(Duration::from_millis(50))
            .with_stale_after(Duration::from_secs(10))
            .with_clock(clock);
        let held = reg.lock().expect("first lock");
        let err = reg.lock().expect_err("waiter must time out, not steal");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            reg.path_of(LOCK_FILE).exists(),
            "the live holder keeps its lock"
        );
        drop(held);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn missing_registry_is_an_io_error() {
        let reg = ArtifactRegistry::new("/nonexistent/rm-serve-nowhere");
        assert!(matches!(reg.load(), Err(RecError::Io(_))));
    }

    #[test]
    fn missing_slot_degrades_not_fails() {
        let reg = temp_registry("missing-slot");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .unwrap();
        std::fs::remove_file(reg.path_of(BPR_FILE)).unwrap();

        let loaded = reg.load().unwrap();
        assert!(matches!(loaded.bpr, Err(SlotError::Missing)));
        assert!(loaded.most_read.is_ok());
        assert!(loaded.embeddings.is_ok());
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn swapped_artifacts_fail_with_wrong_model() {
        // A valid most-read file parked under the BPR name passes the
        // checksum but trips the tag check.
        let reg = temp_registry("swapped");
        let (bpr, most_read, embeddings) = tiny_artifacts();
        let manifest = Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        };
        reg.save(&manifest, &bpr, &most_read, &embeddings, None, None)
            .unwrap();
        std::fs::copy(reg.path_of(MOST_READ_FILE), reg.path_of(BPR_FILE)).unwrap();

        let loaded = reg.load().unwrap();
        assert!(matches!(
            loaded.bpr,
            Err(SlotError::Decode(DecodeError::WrongModel { .. }))
        ));
        let _ = std::fs::remove_dir_all(reg.dir());
    }
}
