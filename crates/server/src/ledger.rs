//! Per-model privacy budget ledger with durable state.
//!
//! The paper's accounting certifies one (ε, δ) guarantee per *release* of
//! a trained model. A serving deployment that hands synthetic data to
//! many downstream consumers may want to bound its total exposure the
//! same way: this ledger treats every synthesis response as a release
//! charged at the model's stamped ε (sequential composition's worst-case
//! bound — an operational ceiling, deliberately more conservative than
//! the post-processing argument under which sampling an already-released
//! model is free), and refuses further requests once a configurable
//! per-model budget is exhausted.
//!
//! The ledger's state is the part an attacker (or an accidental restart)
//! must not be able to reset, so it persists through the `p3gm-store`
//! codec: a charge only reports success after it is durably on disk
//! (fsynced temp file, atomic rename, fsynced directory; a failed
//! persist rolls the in-memory balance back), so a crash mid-write
//! leaves the previous state intact and can lose an unserved charge but
//! never a served one. Restarting the server on the same ledger file
//! resumes from the spent budget, not from zero.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The durable per-model balance: cumulative ε charged so far at the
/// model's fixed δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Total ε charged against this model.
    pub spent_epsilon: f64,
    /// The δ the charges were accounted at (the model's stamp δ).
    pub delta: f64,
}

/// Why a charge (or a ledger open) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The per-model budget cannot cover this charge. Carries the state
    /// the 429 response reports.
    Exhausted {
        /// ε already spent on the model.
        spent: f64,
        /// The configured per-model ε budget.
        budget: f64,
        /// Budget remaining (never negative).
        remaining: f64,
    },
    /// The persisted ledger file failed to decode.
    Store(p3gm_store::StoreError),
    /// Reading or durably writing the ledger file failed.
    Io(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Exhausted {
                spent,
                budget,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: spent ε = {spent}, budget ε = {budget}, \
                 remaining ε = {remaining}"
            ),
            LedgerError::Store(e) => write!(f, "ledger file corrupt: {e}"),
            LedgerError::Io(msg) => write!(f, "ledger i/o failure: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<p3gm_store::StoreError> for LedgerError {
    fn from(e: p3gm_store::StoreError) -> Self {
        LedgerError::Store(e)
    }
}

/// Tracks cumulative ε per model against a configurable budget, with
/// durable persistence through the `p3gm-store` codec.
#[derive(Debug)]
pub struct BudgetLedger {
    /// Durable state, keyed by model name (sorted, so the encoded bytes
    /// are deterministic for a given state).
    entries: BTreeMap<String, LedgerEntry>,
    /// Per-model ε ceiling; `None` disables enforcement (the ledger still
    /// records spending).
    budget_epsilon: Option<f64>,
    /// Where charges are committed; `None` keeps the ledger in memory
    /// (tests, ephemeral servers).
    path: Option<PathBuf>,
}

impl BudgetLedger {
    /// An in-memory ledger (no persistence).
    pub fn in_memory(budget_epsilon: Option<f64>) -> Self {
        BudgetLedger {
            entries: BTreeMap::new(),
            budget_epsilon,
            path: None,
        }
    }

    /// Opens (or creates) a durable ledger at `path`. An existing file is
    /// decoded through the store codec — a corrupt or truncated file is a
    /// typed error, never a silent reset to zero spending.
    pub fn open(
        path: impl Into<PathBuf>,
        budget_epsilon: Option<f64>,
    ) -> Result<Self, LedgerError> {
        let path = path.into();
        let entries = match std::fs::read(&path) {
            Ok(bytes) => decode_entries(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(LedgerError::Io(format!("{}: {e}", path.display()))),
        };
        Ok(BudgetLedger {
            entries,
            budget_epsilon,
            path: Some(path),
        })
    }

    /// The configured per-model ε budget, if enforcement is on.
    pub fn budget_epsilon(&self) -> Option<f64> {
        self.budget_epsilon
    }

    /// The balance for a model (zero-spend if it was never charged).
    pub fn entry(&self, model: &str) -> LedgerEntry {
        self.entries.get(model).copied().unwrap_or(LedgerEntry {
            spent_epsilon: 0.0,
            delta: 0.0,
        })
    }

    /// Budget remaining for a model; `None` when enforcement is off.
    pub fn remaining(&self, model: &str) -> Option<f64> {
        self.budget_epsilon
            .map(|budget| (budget - self.entry(model).spent_epsilon).max(0.0))
    }

    /// Charges `epsilon` (at `delta`) against `model`.
    ///
    /// The charge is refused with [`LedgerError::Exhausted`] if it would
    /// push cumulative spend above the budget, and is durably persisted
    /// before it is reported as successful (a failed persist rolls the
    /// balance back and returns the error), so a crash can lose an
    /// unserved charge but never a served one. Returns the post-charge
    /// balance.
    pub fn charge(
        &mut self,
        model: &str,
        epsilon: f64,
        delta: f64,
    ) -> Result<LedgerEntry, LedgerError> {
        let epsilon = epsilon.max(0.0);
        let current = self.entry(model);
        if let Some(budget) = self.budget_epsilon {
            if current.spent_epsilon + epsilon > budget {
                return Err(LedgerError::Exhausted {
                    spent: current.spent_epsilon,
                    budget,
                    remaining: (budget - current.spent_epsilon).max(0.0),
                });
            }
        }
        let updated = LedgerEntry {
            spent_epsilon: current.spent_epsilon + epsilon,
            // δ is fixed per model (its stamp's δ); a hot-reloaded model
            // with a different stamp updates the recorded value.
            delta: if delta > 0.0 { delta } else { current.delta },
        };
        let previous = self.entries.insert(model.to_string(), updated);
        if let Some(path) = &self.path {
            if let Err(e) = persist(path, &self.entries) {
                // Roll the balance back: an uncommitted charge must not
                // be observable.
                match previous {
                    Some(entry) => self.entries.insert(model.to_string(), entry),
                    None => self.entries.remove(model),
                };
                return Err(e);
            }
        }
        Ok(updated)
    }

    /// Serializes the ledger state into one framed `p3gm-store` buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_entries(&self.entries)
    }
}

fn encode_entries(entries: &BTreeMap<String, LedgerEntry>) -> Vec<u8> {
    let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::BUDGET_LEDGER);
    enc.usize(entries.len());
    for (name, entry) in entries {
        enc.str(name).f64(entry.spent_epsilon).f64(entry.delta);
    }
    enc.finish()
}

fn decode_entries(bytes: &[u8]) -> Result<BTreeMap<String, LedgerEntry>, LedgerError> {
    let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::BUDGET_LEDGER)?;
    let count = dec.usize()?;
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let name = dec.string()?;
        let spent_epsilon = dec.f64()?;
        let delta = dec.f64()?;
        if !(spent_epsilon.is_finite() && spent_epsilon >= 0.0) {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("spent ε must be finite and non-negative, got {spent_epsilon}"),
            }
            .into());
        }
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("ledger δ must be in [0, 1), got {delta}"),
            }
            .into());
        }
        if entries
            .insert(
                name.clone(),
                LedgerEntry {
                    spent_epsilon,
                    delta,
                },
            )
            .is_some()
        {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("duplicate ledger entry for model {name:?}"),
            }
            .into());
        }
    }
    dec.finish()?;
    Ok(entries)
}

/// Writes the encoded state to `path` atomically: temp file in the same
/// directory (fsynced before the rename so the swap never installs
/// unwritten data after a power loss), then rename over the target, then
/// fsync of the directory to make the rename itself durable. Until that
/// last fsync succeeds a crash can bring the old file back, so its failure
/// fails the persist too.
fn persist(path: &Path, entries: &BTreeMap<String, LedgerEntry>) -> Result<(), LedgerError> {
    use std::io::Write as _;
    let bytes = encode_entries(entries);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io_err = |e: std::io::Error| LedgerError::Io(format!("{}: {e}", tmp.display()));
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(&bytes).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| LedgerError::Io(format!("{} -> {}: {e}", tmp.display(), path.display())))?;
    sync_dir(parent_dir(path))
}

/// The directory holding `path`: its parent, or `.` for a bare file name
/// (whose parent is the empty path).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// Fsyncs the directory `dir`, which makes a rename within it durable.
fn sync_dir(dir: &Path) -> Result<(), LedgerError> {
    let io_err = |e: std::io::Error| LedgerError::Io(format!("{}: {e}", dir.display()));
    std::fs::File::open(dir)
        .map_err(io_err)?
        .sync_all()
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("p3gm_ledger_test_{name}_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join("ledger.p3gm")
    }

    #[test]
    fn directory_sync_fails_on_a_missing_directory_and_syncs_dot_for_a_bare_name() {
        let missing = temp_path("dir_sync").with_file_name("missing");
        let ledger = missing.join("ledger.p3gm");
        assert_eq!(parent_dir(&ledger), missing.as_path());
        assert!(matches!(sync_dir(&missing), Err(LedgerError::Io(_))));
        assert_eq!(parent_dir(Path::new("ledger.p3gm")), Path::new("."));
        assert_eq!(sync_dir(Path::new(".")), Ok(()));
    }

    #[test]
    fn charges_accumulate_and_exhaust() {
        let mut ledger = BudgetLedger::in_memory(Some(1.0));
        assert_eq!(ledger.remaining("m"), Some(1.0));
        ledger.charge("m", 0.4, 1e-5).unwrap();
        let entry = ledger.charge("m", 0.4, 1e-5).unwrap();
        assert_eq!(entry.spent_epsilon, 0.8);
        assert_eq!(entry.delta, 1e-5);
        let err = ledger.charge("m", 0.4, 1e-5).unwrap_err();
        match err {
            LedgerError::Exhausted {
                spent,
                budget,
                remaining,
            } => {
                assert_eq!(spent, 0.8);
                assert_eq!(budget, 1.0);
                assert!((remaining - 0.2).abs() < 1e-12);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // A refused charge does not move the balance.
        assert_eq!(ledger.entry("m").spent_epsilon, 0.8);
        // Other models have their own budgets.
        assert!(ledger.charge("other", 0.9, 1e-5).is_ok());
    }

    #[test]
    fn zero_cost_charges_never_exhaust() {
        let mut ledger = BudgetLedger::in_memory(Some(0.5));
        for _ in 0..100 {
            ledger.charge("nonprivate", 0.0, 0.0).unwrap();
        }
        assert_eq!(ledger.entry("nonprivate").spent_epsilon, 0.0);
    }

    #[test]
    fn unlimited_ledger_records_but_never_refuses() {
        let mut ledger = BudgetLedger::in_memory(None);
        for _ in 0..10 {
            ledger.charge("m", 5.0, 1e-5).unwrap();
        }
        assert_eq!(ledger.entry("m").spent_epsilon, 50.0);
        assert_eq!(ledger.remaining("m"), None);
    }

    #[test]
    fn state_survives_reopen() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = BudgetLedger::open(&path, Some(2.0)).unwrap();
            ledger.charge("a", 0.7, 1e-5).unwrap();
            ledger.charge("b", 1.1, 1e-6).unwrap();
        }
        let reopened = BudgetLedger::open(&path, Some(2.0)).unwrap();
        assert_eq!(reopened.entry("a").spent_epsilon, 0.7);
        assert_eq!(reopened.entry("b").spent_epsilon, 1.1);
        assert_eq!(reopened.entry("b").delta, 1e-6);
        assert_eq!(reopened.entry("never-charged").spent_epsilon, 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_ledger_files_are_typed_errors_not_resets() {
        let path = temp_path("corrupt");
        {
            let mut ledger = BudgetLedger::open(&path, Some(1.0)).unwrap();
            ledger.charge("m", 0.5, 1e-5).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BudgetLedger::open(&path, Some(1.0)),
            Err(LedgerError::Store(_))
        ));
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(
            BudgetLedger::open(&path, Some(1.0)),
            Err(LedgerError::Store(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn codec_rejects_invalid_balances() {
        for (spent, delta) in [
            (f64::NAN, 1e-5),
            (-1.0, 1e-5),
            (0.5, f64::NAN),
            (0.5, 1.5),
            (0.5, -0.1),
        ] {
            let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::BUDGET_LEDGER);
            enc.usize(1).str("m").f64(spent).f64(delta);
            assert!(
                decode_entries(&enc.finish()).is_err(),
                "accepted spent={spent} delta={delta}"
            );
        }
        // Duplicate names are rejected.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::BUDGET_LEDGER);
        enc.usize(2)
            .str("m")
            .f64(0.1)
            .f64(1e-5)
            .str("m")
            .f64(0.2)
            .f64(1e-5);
        assert!(decode_entries(&enc.finish()).is_err());
    }

    #[test]
    fn round_trip_is_exact() {
        let mut ledger = BudgetLedger::in_memory(None);
        ledger.charge("z", 0.123456789, 1e-5).unwrap();
        ledger.charge("a", 1.0 / 3.0, 1e-6).unwrap();
        let bytes = ledger.to_bytes();
        let decoded = decode_entries(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(
            decoded["a"].spent_epsilon.to_bits(),
            (1.0f64 / 3.0).to_bits()
        );
        // Deterministic encoding: same state, same bytes.
        assert_eq!(bytes, ledger.to_bytes());
    }
}
