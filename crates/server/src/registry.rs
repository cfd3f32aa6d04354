//! Model registry: named snapshots served lazily from a directory under
//! a resident-memory budget, swapped atomically, hot-reloadable.
//!
//! A registry watches one directory of `*.snapshot` files (the buffers
//! written by `SynthesisSnapshot::to_bytes`). Each file's stem is the
//! model's name — restricted to `[A-Za-z0-9._-]` so names embed directly
//! in request paths with no escaping.
//!
//! ## Cheap metadata, lazy weights
//!
//! Scanning (open and every [`Registry::reload`]) never decodes weight
//! payloads: each file is *peeked* through
//! [`SnapshotHeader::peek_file`], which reads only the leading frames —
//! geometry, the recomputed (ε, δ) stamp, the synthesizer's class count
//! — plus the `(length, mtime)` fingerprint. A directory of a thousand
//! tenants registers in a thousand small reads; listings
//! ([`Registry::list_headers`]) are served entirely from these headers.
//!
//! Weights decode on first [`Registry::get`] — **single-flight**: N
//! concurrent first requests block on one decode (bounded by the
//! configured [`RegistryConfig::load_wait`]), never duplicate it. The
//! decode runs the full checksummed `p3gm-store` path, so corruption the
//! header peek cannot see (the CRC trails the weights) still fails
//! typed on first touch, is cached as [`RegistryError::DecodeFailed`]
//! until the file changes, and un-poisons itself when a repaired file
//! (new fingerprint) is reloaded.
//!
//! ## Residency budget
//!
//! An optional [`RegistryConfig::max_resident_bytes`] bounds decoded
//! weights: when a load pushes estimated residency (from header
//! geometry, see [`ModelHeader::approx_resident_bytes`]) past the
//! budget, least-recently-used models are evicted back to `Unloaded`.
//! Eviction only drops the registry's own `Arc<SynthesisSnapshot>`;
//! requests already holding a handle — including **streamed** sampling
//! responses, whose chunked body generator owns its `Arc` for the whole
//! response — keep sampling the evicted model until the last handle
//! drops, so eviction (like reload) can never yank a model mid-chunk. A
//! later `get` simply decodes the file again.
//!
//! Reload is incremental: files whose `(length, mtime)` fingerprint is
//! unchanged keep their existing entry (loaded weights stay resident),
//! new and changed files are re-peeked, entries whose file disappeared
//! are dropped, and a file that fails the header peek **keeps the
//! previous entry serving** (a half-written upload must not take down a
//! live model) while the failure is reported in the [`ReloadReport`].

use p3gm_core::snapshot::{SnapshotHeader, SynthesisSnapshot};
use p3gm_privacy::rdp::PrivacySpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// File extension a registry directory entry must carry to be considered
/// a model snapshot.
pub const SNAPSHOT_EXTENSION: &str = "snapshot";

/// Tuning knobs for a [`Registry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Soft ceiling on the estimated bytes of decoded model weights kept
    /// resident. `None` disables eviction (every model loaded stays
    /// until its file changes or disappears). The estimate comes from
    /// header geometry, so actual RSS tracks but does not equal it; the
    /// ceiling is enforced after each load by evicting least-recently-
    /// used models — except the one just loaded, which always serves.
    pub max_resident_bytes: Option<u64>,
    /// How long a [`Registry::get`] waits for another request's
    /// in-flight decode of the same model before giving up with
    /// [`RegistryError::LoadTimeout`].
    pub load_wait: Duration,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_resident_bytes: None,
            load_wait: Duration::from_secs(30),
        }
    }
}

/// Why [`Registry::get`] could not produce a serving model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No snapshot by that name is registered.
    NotFound,
    /// The snapshot file failed its full checksummed decode on first
    /// touch. Cached until the file's fingerprint changes (repair +
    /// reload un-poisons the entry).
    DecodeFailed(String),
    /// Another request's decode of this model did not finish within
    /// [`RegistryConfig::load_wait`].
    LoadTimeout,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound => write!(f, "no such model"),
            RegistryError::DecodeFailed(reason) => {
                write!(f, "model snapshot failed to decode: {reason}")
            }
            RegistryError::LoadTimeout => {
                write!(f, "timed out waiting for the model to finish loading")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The change-detection fingerprint of a snapshot file: byte length and
/// modification time (nanoseconds since the epoch; 0 when the filesystem
/// does not report one).
type Fingerprint = (u64, u128);

/// Everything the registry knows about a model without decoding its
/// weights: identity, file fingerprint, and the peeked snapshot header.
#[derive(Debug)]
pub struct ModelHeader {
    name: String,
    path: PathBuf,
    fingerprint: Fingerprint,
    header: SnapshotHeader,
}

impl ModelHeader {
    /// The model's name (the snapshot file's stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensionality of the generated rows.
    pub fn data_dim(&self) -> usize {
        self.header.data_dim
    }

    /// The model's latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.header.config.latent_dim
    }

    /// Classes of the attached labelled synthesizer, `None` when the
    /// snapshot carries none.
    pub fn n_classes(&self) -> Option<usize> {
        self.header.n_classes
    }

    /// The (ε, δ)-DP stamp recomputed from the persisted configuration —
    /// identical to what the full decode reports.
    pub fn stamp(&self) -> Option<&PrivacySpec> {
        self.header.stamp.as_ref()
    }

    /// Estimated bytes this model occupies once decoded, from header
    /// geometry — the cost the residency budget charges for it.
    pub fn approx_resident_bytes(&self) -> u64 {
        self.header.approx_resident_bytes()
    }
}

/// Residency state of one registered model.
#[derive(Debug)]
enum LoadState {
    /// Header known, weights not resident.
    Unloaded,
    /// A request is decoding the file right now; others wait on the
    /// entry's condvar.
    Loading,
    /// Weights resident; `cost` is what the budget was charged.
    Loaded {
        model: Arc<SynthesisSnapshot>,
        cost: u64,
    },
    /// The full decode failed; cached until the file changes.
    Failed { reason: String },
}

/// One registered model: immutable header plus mutable residency state.
#[derive(Debug)]
struct ModelEntry {
    header: Arc<ModelHeader>,
    state: Mutex<LoadState>,
    loaded_cond: Condvar,
    /// Logical timestamp of the last `get`, from the registry clock —
    /// the LRU ordering key.
    last_used: AtomicU64,
}

impl ModelEntry {
    /// Whether the entry's weights are resident (decoded and held by the
    /// registry): the one residency check eviction, `is_resident` and
    /// `stats` share.
    fn is_resident(&self) -> bool {
        matches!(*unpoisoned(self.state.lock()), LoadState::Loaded { .. })
    }
}

/// The registry's one rule for a poisoned lock: take the guard and carry
/// on. A panic on one request thread must not fail every later request
/// for the rest of the process. Recovering is sound because no critical
/// section here can leave its data half updated: each changes it in
/// whole-value steps (a `LoadState` swap, a map insert or remove). The
/// decode and the header peeks, the steps that run on untrusted bytes,
/// hold no lock that guards data (reload's serializing lock guards `()`).
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// What one [`Registry::reload`] (or the initial scan) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Models registered from new or changed files (header peeked;
    /// weights decode lazily on first request).
    pub loaded: Vec<String>,
    /// Models whose files were unchanged (entry kept; resident weights
    /// stay resident).
    pub unchanged: Vec<String>,
    /// Models dropped because their file disappeared.
    pub removed: Vec<String>,
    /// Files that could not be registered, with the reason. The previous
    /// entry (if any) keeps serving.
    pub failed: Vec<(String, String)>,
}

/// A point-in-time snapshot of the registry's residency counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registered models (headers).
    pub models: u64,
    /// Models whose weights are currently resident.
    pub resident_models: u64,
    /// Estimated bytes of resident weights (sum of per-model costs).
    pub resident_bytes: u64,
    /// The configured ceiling, 0 when eviction is disabled.
    pub max_resident_bytes: u64,
    /// Full weight decodes performed (initial loads and re-loads after
    /// eviction).
    pub loads: u64,
    /// Wall time spent in cold loads (file read plus checksummed decode,
    /// failed loads included), in nanoseconds. Divided by
    /// `loads + load_failures` it is the mean cost of a registry miss.
    pub load_nanos: u64,
    /// Models evicted back to `Unloaded` by the budget.
    pub evictions: u64,
    /// `get` calls served from already-resident weights.
    pub hits: u64,
    /// `get` calls that had to decode (or wait on a decode).
    pub misses: u64,
    /// Full decodes that failed.
    pub load_failures: u64,
    /// Snapshot files whose header frames were read from disk (initial
    /// scan + reloads). Reload is incremental: files whose `(len,
    /// mtime)` fingerprint is unchanged are **not** re-peeked, so this
    /// counter grows only by the number of new or changed files — a
    /// no-change `POST /reload` over a thousand tenants leaves it flat.
    pub header_peeks: u64,
}

/// A directory of named snapshots: headers eagerly peeked, weights
/// lazily decoded behind atomically-swappable `Arc` handles.
#[derive(Debug)]
pub struct Registry {
    dir: PathBuf,
    config: RegistryConfig,
    entries: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
    /// Serializes [`Registry::reload`] runs: peeking happens outside the
    /// `entries` lock, so without this two concurrent reloads could
    /// interleave scan/peek/swap and re-insert a model whose file a
    /// faster reload already saw deleted.
    reload_lock: Mutex<()>,
    /// Monotonic logical clock stamping `last_used` on every `get`.
    clock: AtomicU64,
    resident_bytes: AtomicU64,
    loads: AtomicU64,
    load_nanos: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    load_failures: AtomicU64,
    header_peeks: AtomicU64,
}

impl Registry {
    /// Opens a registry over `dir` with default tuning and performs the
    /// initial header scan (no weight payload is decoded).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<(Registry, ReloadReport)> {
        Registry::open_with(dir, RegistryConfig::default())
    }

    /// Opens a registry over `dir` with explicit tuning and performs the
    /// initial header scan (no weight payload is decoded).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        config: RegistryConfig,
    ) -> std::io::Result<(Registry, ReloadReport)> {
        let registry = Registry {
            dir: dir.into(),
            config,
            entries: RwLock::new(BTreeMap::new()),
            reload_lock: Mutex::new(()),
            clock: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            load_nanos: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            header_peeks: AtomicU64::new(0),
        };
        let report = registry.reload()?;
        Ok((registry, report))
    }

    /// The directory being served.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A serving handle for a named model's decoded snapshot, decoding
    /// it on first touch (single-flight: concurrent first requests share
    /// one decode). The returned `Arc` keeps the model alive across
    /// concurrent reloads **and evictions** — the registry dropping its
    /// reference never invalidates a handle already serving a request.
    pub fn get(&self, name: &str) -> Result<Arc<SynthesisSnapshot>, RegistryError> {
        let entry = unpoisoned(self.entries.read())
            .get(name)
            .cloned()
            .ok_or(RegistryError::NotFound)?;
        entry.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );

        let mut state = unpoisoned(entry.state.lock());
        loop {
            match &*state {
                LoadState::Loaded { model, .. } => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(model));
                }
                LoadState::Failed { reason } => {
                    return Err(RegistryError::DecodeFailed(reason.clone()));
                }
                LoadState::Loading => {
                    let (next, wait) =
                        unpoisoned(entry.loaded_cond.wait_timeout(state, self.config.load_wait));
                    state = next;
                    if wait.timed_out() && matches!(&*state, LoadState::Loading) {
                        return Err(RegistryError::LoadTimeout);
                    }
                }
                LoadState::Unloaded => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    *state = LoadState::Loading;
                    drop(state);
                    // Decode outside the entry lock so waiters can block
                    // on the condvar and the registry stays responsive.
                    let started = Instant::now();
                    let decoded = load_model(&entry.header);
                    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.load_nanos.fetch_add(nanos, Ordering::Relaxed);
                    let mut state = unpoisoned(entry.state.lock());
                    let result = match decoded {
                        Ok(model) => {
                            let model = Arc::new(model);
                            let cost = entry.header.approx_resident_bytes();
                            self.loads.fetch_add(1, Ordering::Relaxed);
                            self.resident_bytes.fetch_add(cost, Ordering::Relaxed);
                            *state = LoadState::Loaded {
                                model: Arc::clone(&model),
                                cost,
                            };
                            Ok(model)
                        }
                        Err(reason) => {
                            self.load_failures.fetch_add(1, Ordering::Relaxed);
                            *state = LoadState::Failed {
                                reason: reason.clone(),
                            };
                            Err(RegistryError::DecodeFailed(reason))
                        }
                    };
                    entry.loaded_cond.notify_all();
                    drop(state);
                    if result.is_ok() {
                        self.enforce_budget(name);
                    }
                    return result;
                }
            }
        }
    }

    /// Evicts least-recently-used resident models until estimated
    /// residency fits the budget. `protect` (the model just loaded) is
    /// never evicted — the budget is soft by exactly one model, so a
    /// `get` can always serve.
    fn enforce_budget(&self, protect: &str) {
        let Some(budget) = self.config.max_resident_bytes else {
            return;
        };
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let victim = unpoisoned(self.entries.read())
                .iter()
                .filter(|(name, e)| name.as_str() != protect && e.is_resident())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(_, e)| Arc::clone(e));
            let Some(victim) = victim else {
                // Nothing evictable (only the protected model is
                // resident): the budget over-run rides until handles
                // drop naturally.
                return;
            };
            let mut state = unpoisoned(victim.state.lock());
            // Re-check under the lock: a racing `get` may have touched
            // the entry, but evicting it is still safe — its handle
            // keeps the model alive; only the registry's copy drops.
            if let LoadState::Loaded { cost, .. } = &*state {
                let cost = *cost;
                *state = LoadState::Unloaded;
                drop(state);
                self.resident_bytes.fetch_sub(cost, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The peeked header for a named model, if registered. Never decodes
    /// or touches weight payloads.
    pub fn header(&self, name: &str) -> Option<Arc<ModelHeader>> {
        unpoisoned(self.entries.read())
            .get(name)
            .map(|e| Arc::clone(&e.header))
    }

    /// Headers for every registered model, sorted by name. Listing is
    /// metadata-only: no weight payload is decoded or cloned.
    pub fn list_headers(&self) -> Vec<Arc<ModelHeader>> {
        unpoisoned(self.entries.read())
            .values()
            .map(|e| Arc::clone(&e.header))
            .collect()
    }

    /// Whether a model's weights are currently resident (decoded and
    /// held by the registry).
    pub fn is_resident(&self, name: &str) -> bool {
        let entry = unpoisoned(self.entries.read()).get(name).cloned();
        entry.is_some_and(|e| e.is_resident())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        unpoisoned(self.entries.read()).len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of the residency counters.
    ///
    /// This is the **single** read path every stats surface
    /// (`GET /stats`, `GET /metrics`, `ServerHandle::registry_stats`)
    /// flows through. The counters are independent relaxed atomics read
    /// one after another, so a snapshot taken during concurrent loads or
    /// evictions may *tear across fields* — e.g. a `loads` increment
    /// visible while the matching `resident_bytes` update is not. Each
    /// field is individually exact and monotone counters never go
    /// backwards; the tear is accepted because stats are diagnostics,
    /// not invariants, and a consistent cut would put a lock on the
    /// request hot path.
    pub fn stats(&self) -> RegistryStats {
        let (models, resident_models) = {
            let entries = unpoisoned(self.entries.read());
            let resident = entries.values().filter(|e| e.is_resident()).count() as u64;
            (entries.len() as u64, resident)
        };
        RegistryStats {
            models,
            resident_models,
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            max_resident_bytes: self.config.max_resident_bytes.unwrap_or(0),
            loads: self.loads.load(Ordering::Relaxed),
            load_nanos: self.load_nanos.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            header_peeks: self.header_peeks.load(Ordering::Relaxed),
        }
    }

    /// Rescans the directory and atomically applies the changes —
    /// **header-only**: validation peeks the leading frames of new and
    /// changed files, decoding no weight payload.
    ///
    /// Peeking happens **outside** the write lock: requests keep being
    /// served from the current map while new headers validate, and the
    /// final swap is a brief lock that moves `Arc`s. Unchanged files
    /// keep their entry (resident weights stay resident); a changed
    /// file's entry resets to `Unloaded` — including one parked in
    /// `Failed`, so repairing a corrupt file and reloading un-poisons
    /// it. Returns what changed; `Err` only when the directory itself
    /// cannot be listed.
    pub fn reload(&self) -> std::io::Result<ReloadReport> {
        let _serialized = unpoisoned(self.reload_lock.lock());
        let mut report = ReloadReport::default();
        let mut seen: Vec<(String, Fingerprint, PathBuf)> = Vec::new();

        for entry in std::fs::read_dir(&self.dir)? {
            let entry = match entry {
                Ok(entry) => entry,
                Err(e) => {
                    report
                        .failed
                        .push(("<dir entry>".to_string(), e.to_string()));
                    continue;
                }
            };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXTENSION) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                report.failed.push((
                    path.display().to_string(),
                    "non-UTF-8 file name".to_string(),
                ));
                continue;
            };
            if !is_valid_model_name(stem) {
                report.failed.push((
                    stem.to_string(),
                    "model names may only contain [A-Za-z0-9._-]".to_string(),
                ));
                continue;
            }
            match fingerprint(&path) {
                Ok(fp) => seen.push((stem.to_string(), fp, path)),
                Err(e) => report.failed.push((stem.to_string(), e.to_string())),
            }
        }

        // Peek new/changed files without holding any lock.
        let current: BTreeMap<String, Fingerprint> = unpoisoned(self.entries.read())
            .iter()
            .map(|(name, e)| (name.clone(), e.header.fingerprint))
            .collect();
        let mut fresh: Vec<Arc<ModelEntry>> = Vec::new();
        for (name, fp, path) in &seen {
            if current.get(name) == Some(fp) {
                report.unchanged.push(name.clone());
                continue;
            }
            self.header_peeks.fetch_add(1, Ordering::Relaxed);
            match SnapshotHeader::peek_file(path) {
                Ok(header) => {
                    fresh.push(Arc::new(ModelEntry {
                        header: Arc::new(ModelHeader {
                            name: name.clone(),
                            path: path.clone(),
                            fingerprint: *fp,
                            header,
                        }),
                        state: Mutex::new(LoadState::Unloaded),
                        loaded_cond: Condvar::new(),
                        last_used: AtomicU64::new(0),
                    }));
                    report.loaded.push(name.clone());
                }
                Err(e) => report.failed.push((name.clone(), e.to_string())),
            }
        }

        // Atomic swap: drop vanished entries, insert fresh ones. Entries
        // whose file failed to peek are intentionally left as-is.
        let keep: std::collections::BTreeSet<&str> = seen
            .iter()
            .map(|(name, _, _)| name.as_str())
            .chain(report.failed.iter().map(|(name, _)| name.as_str()))
            .collect();
        let mut replaced: Vec<Arc<ModelEntry>> = Vec::new();
        {
            let mut entries = unpoisoned(self.entries.write());
            let vanished: Vec<String> = entries
                .keys()
                .filter(|name| !keep.contains(name.as_str()))
                .cloned()
                .collect();
            for name in vanished {
                if let Some(old) = entries.remove(&name) {
                    replaced.push(old);
                }
                report.removed.push(name);
            }
            for entry in fresh {
                if let Some(old) = entries.insert(entry.header.name.clone(), entry) {
                    replaced.push(old);
                }
            }
        }
        // Release the budget charge of entries this reload dropped or
        // superseded while they were resident; in-flight handles still
        // keep the models themselves alive.
        for old in replaced {
            if let LoadState::Loaded { cost, .. } = &*unpoisoned(old.state.lock()) {
                self.resident_bytes.fetch_sub(*cost, Ordering::Relaxed);
            }
        }
        Ok(report)
    }
}

/// Whether `name` is a servable model name (safe to embed in a request
/// path verbatim).
pub fn is_valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

fn fingerprint(path: &Path) -> std::io::Result<Fingerprint> {
    let meta = std::fs::metadata(path)?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    Ok((meta.len(), mtime))
}

/// The full checksummed decode a lazy `get` performs on first touch.
fn load_model(header: &ModelHeader) -> Result<SynthesisSnapshot, String> {
    let bytes = std::fs::read(&header.path).map_err(|e| format!("read failed: {e}"))?;
    SynthesisSnapshot::from_bytes(&bytes).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_name_validation() {
        assert!(is_valid_model_name("adult-v3"));
        assert!(is_valid_model_name("m_1.2"));
        assert!(!is_valid_model_name(""));
        assert!(!is_valid_model_name("has space"));
        assert!(!is_valid_model_name("path/traversal"));
        assert!(!is_valid_model_name("q?uery"));
        assert!(!is_valid_model_name(&"x".repeat(129)));
    }

    #[test]
    fn empty_directory_is_an_empty_registry() {
        let dir = std::env::temp_dir().join(format!("p3gm_registry_empty_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let (registry, report) = Registry::open(&dir).unwrap();
        assert!(registry.is_empty());
        assert!(matches!(
            registry.get("anything"),
            Err(RegistryError::NotFound)
        ));
        assert!(registry.header("anything").is_none());
        assert_eq!(report, ReloadReport::default());
        assert_eq!(registry.stats(), RegistryStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let dir = std::env::temp_dir().join("p3gm_registry_does_not_exist_xyz");
        assert!(Registry::open(&dir).is_err());
    }

    #[test]
    fn corrupt_snapshot_files_are_reported_not_served() {
        let dir =
            std::env::temp_dir().join(format!("p3gm_registry_corrupt_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        std::fs::write(
            dir.join("broken.snapshot"),
            b"this is long enough to frame-check but is not a p3gm snapshot",
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not even the extension").unwrap();
        std::fs::write(dir.join("bad name.snapshot"), b"x").unwrap();
        let (registry, report) = Registry::open(&dir).unwrap();
        assert!(registry.is_empty());
        assert_eq!(report.failed.len(), 2, "{report:?}");
        assert!(report
            .failed
            .iter()
            .any(|(name, reason)| name == "broken" && reason.contains("magic")));
        assert!(report.failed.iter().any(|(name, _)| name == "bad name"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
