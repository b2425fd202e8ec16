//! Versioned, digest-guarded study checkpoints.
//!
//! A checkpoint captures everything the streaming engine needs to
//! continue a study from its merged-prefix **frontier**: the study-config
//! fingerprint, the in-order-merged summary, any reorder-buffer batches
//! that finished ahead of the frontier, and the engine stats accumulated
//! so far. Because every trial is a pure function of `(study config,
//! trial index)` and merges happen strictly in batch order, "resume" is
//! literally "keep merging from the frontier" — the resumed summary is
//! bit-identical to an uninterrupted run.
//!
//! # On-disk format
//!
//! A single JSON object:
//!
//! ```json
//! { "version": 1, "digest": "<fnv1a-64 hex of payload text>", "payload": { … } }
//! ```
//!
//! The payload is one [`Snapshot`] for every study, with its keys in
//! field order: `fingerprint`, `frontier`, `summary`, `pending`, `stats`.
//! The digest is computed over the compact serialization of `payload`.
//! The vendored serde_json writer is byte-stable under parse → re-emit
//! (floats always carry a float marker and round-trip bit-for-bit), so
//! the digest check re-serializes the parsed payload and compares.
//!
//! Writes are atomic **and durable**: the full envelope is written to a
//! `.tmp` sibling, flushed, renamed over the target, and then the parent
//! directory is fsynced — POSIX only guarantees the renamed entry
//! survives a crash once the directory itself has been synced. A failure
//! mid-write removes the temporary and leaves any previous checkpoint
//! untouched — there is no observable torn state. The same
//! [`write_durable_atomic`] helper backs the attribution service's epoch
//! persistence in `fairco2-serve`.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::engine::EngineStats;

/// Current checkpoint format version. Bump on any payload shape change.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Where and how often to checkpoint a streaming study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file path (a `.tmp` sibling is used during writes).
    pub path: PathBuf,
    /// Write a snapshot every this many merged batches (clamped to ≥ 1).
    pub every_batches: usize,
}

impl CheckpointSpec {
    /// A spec writing to `path` every `every_batches` merged batches.
    pub fn new(path: impl Into<PathBuf>, every_batches: usize) -> Self {
        Self {
            path: path.into(),
            every_batches,
        }
    }
}

/// Why a checkpoint could not be written or restored.
///
/// Load failures are all-or-nothing: a rejected checkpoint applies no
/// state whatsoever to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint.
    Io(String),
    /// The file is not a well-formed checkpoint envelope.
    Malformed(String),
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The payload digest does not match — the file is corrupt.
    DigestMismatch {
        /// Digest recorded in the envelope.
        recorded: String,
        /// Digest recomputed from the payload.
        computed: String,
    },
    /// The checkpoint belongs to a different study configuration.
    ConfigMismatch {
        /// Fingerprint of the study being resumed.
        expected: String,
        /// Fingerprint recorded in the checkpoint.
        found: String,
    },
    /// A write attempt failed; the previous checkpoint (if any) is
    /// intact and no temporary file remains.
    WriteFailed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) => write!(f, "checkpoint i/o error: {m}"),
            Self::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            Self::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not the supported version {expected}"
            ),
            Self::DigestMismatch { recorded, computed } => write!(
                f,
                "checkpoint digest mismatch: envelope says {recorded}, payload hashes to {computed}"
            ),
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken for a different study: fingerprint {found}, expected {expected}"
            ),
            Self::WriteFailed(m) => write!(f, "checkpoint write failed: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Scripted failure points for the durable atomic write path, used by
/// the injected-failure tests to cover every step of the
/// write-tmp → fsync → rename → fsync-directory sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteFault {
    /// No injected failure: the real production path.
    #[default]
    None,
    /// Crash mid-write of the temporary file: only a prefix is flushed,
    /// then the write fails. The target file is never touched and no
    /// temporary is left behind.
    TornTmp,
    /// Fail the parent-directory fsync *after* the rename. The target
    /// file already holds the new contents, but their survival across a
    /// crash is not guaranteed, so the write is reported as failed.
    DirSync,
}

/// FNV-1a 64-bit over `bytes`, as a fixed-width lowercase hex string.
fn fnv1a_hex(bytes: &[u8]) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    format!("{h:016x}")
}

/// Fingerprint of a `kind` study (`"demand"`, `"colocation"`,
/// `"azure_scale"`) with configuration `config` at a given batch size.
/// It covers every serialized field of the config, so any change to the
/// study parameters or batch boundaries produces a different
/// fingerprint, and checkpoints refuse to resume across it.
pub fn fingerprint(kind: &str, config: &impl Serialize, batch_trials: usize) -> String {
    let cfg = serde_json::to_string(config).expect("study configs serialize");
    let batch = batch_trials.max(1);
    fnv1a_hex(format!("{kind}|v{CHECKPOINT_VERSION}|{cfg}|batch={batch}").as_bytes())
}

/// A batch accumulator that finished ahead of the merge frontier
/// (reorder-buffer contents).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingBatch {
    /// Batch index (at least the frontier).
    pub batch: u64,
    /// The batch's serialized accumulator, ready to merge in order.
    pub summary: Value,
}

/// Resumable state of a study run.
///
/// The accumulators are held as serialized [`Value`]s, so one snapshot
/// type serves every study, and the payload bytes are exactly those of
/// the accumulator's own serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// [`fingerprint`] of the study this snapshot belongs to.
    pub fingerprint: String,
    /// Batches merged so far; resume continues from this batch index.
    pub frontier: u64,
    /// The in-order-merged accumulator over batches `0..frontier`.
    pub summary: Value,
    /// Completed batches still waiting in the reorder buffer.
    pub pending: Vec<PendingBatch>,
    /// Engine stats accumulated through the frontier. Scratch counters
    /// cover fully completed runs only (worker-local counters are not
    /// observable mid-run).
    pub stats: EngineStats,
}

impl Snapshot {
    /// Atomically and durably writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures;
    /// [`CheckpointError::WriteFailed`] when `fault` injects a failure
    /// (see [`WriteFault`] for which on-disk state each variant leaves).
    pub fn save(&self, path: &Path, fault: WriteFault) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(self).expect("snapshots serialize");
        write_envelope_atomic(path, &payload, fault)
    }

    /// Loads and fully validates a snapshot.
    ///
    /// # Errors
    ///
    /// Every [`CheckpointError`] variant except `WriteFailed`; on any
    /// error no state has been applied.
    pub fn load(path: &Path, expected_fingerprint: &str) -> Result<Self, CheckpointError> {
        let payload = read_envelope(path)?;
        let snap = Self::deserialize(&payload)
            .map_err(|e| CheckpointError::Malformed(format!("payload: {}", e.0)))?;
        if snap.fingerprint != expected_fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: expected_fingerprint.to_owned(),
                found: snap.fingerprint,
            });
        }
        Ok(snap)
    }
}

/// Wraps `payload` (compact JSON text) in the versioned envelope and
/// writes it via [`write_durable_atomic`].
fn write_envelope_atomic(
    path: &Path,
    payload: &str,
    fault: WriteFault,
) -> Result<(), CheckpointError> {
    let digest = fnv1a_hex(payload.as_bytes());
    let text = format!(
        "{{\"version\":{CHECKPOINT_VERSION},\"digest\":\"{digest}\",\"payload\":{payload}}}"
    );
    write_durable_atomic(path, &text, fault)
}

/// Atomically and durably replaces the file at `path` with `text`: full
/// write to a `.tmp` sibling, fsync, rename over the target, then fsync
/// of the parent directory (without which the renamed entry itself may
/// not survive a crash). Shared by study checkpoints and the
/// `fairco2-serve` epoch persistence.
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem failures;
/// [`CheckpointError::WriteFailed`] when `fault` injects a failure. On a
/// pre-rename failure the target is untouched and no temporary remains;
/// on a directory-fsync failure the target already holds `text` but its
/// durability is not guaranteed, so callers must treat the write as
/// failed (e.g. retry it) rather than record it as persisted.
pub fn write_durable_atomic(
    path: &Path,
    text: &str,
    fault: WriteFault,
) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    let result = write_tmp(&tmp, text, fault == WriteFault::TornTmp);
    if result.is_err() {
        // Leave no torn file behind: the target was never touched and
        // the partial temporary is removed.
        let _ = fs::remove_file(&tmp);
        return result;
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        CheckpointError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    sync_parent_dir(path, fault == WriteFault::DirSync)
}

/// Fsyncs the directory containing `path`, making a just-renamed entry
/// durable; a relative bare filename syncs the current directory.
fn sync_parent_dir(path: &Path, inject_failure: bool) -> Result<(), CheckpointError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = fs::File::open(parent)
        .map_err(|e| CheckpointError::Io(format!("open dir {}: {e}", parent.display())))?;
    if inject_failure {
        return Err(CheckpointError::WriteFailed(
            "injected directory fsync failure after rename".to_owned(),
        ));
    }
    dir.sync_all()
        .map_err(|e| CheckpointError::Io(format!("fsync dir {}: {e}", parent.display())))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_tmp(tmp: &Path, text: &str, inject_failure: bool) -> Result<(), CheckpointError> {
    let mut file = fs::File::create(tmp)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    if inject_failure {
        // Simulate a crash mid-write: flush only a prefix, then fail.
        let half = text.len() / 2;
        let _ = file.write_all(&text.as_bytes()[..half]);
        let _ = file.sync_all();
        return Err(CheckpointError::WriteFailed(
            "injected checkpoint write failure".to_owned(),
        ));
    }
    file.write_all(text.as_bytes())
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    file.sync_all()
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    Ok(())
}

/// Reads the envelope at `path`, validating version and digest, and
/// returns the payload value.
fn read_envelope(path: &Path) -> Result<Value, CheckpointError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    let envelope: Value =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Malformed(e.0))?;
    let version = envelope
        .get("version")
        .and_then(|v| match v {
            Value::Number(n) => n.as_u64(),
            _ => None,
        })
        .ok_or_else(|| CheckpointError::Malformed("missing `version`".to_owned()))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let recorded = envelope
        .get("digest")
        .and_then(Value::as_str)
        .ok_or_else(|| CheckpointError::Malformed("missing `digest`".to_owned()))?
        .to_owned();
    let payload = envelope
        .get("payload")
        .ok_or_else(|| CheckpointError::Malformed("missing `payload`".to_owned()))?;
    // The writer is byte-stable under parse → re-emit, so recomputing
    // the digest from the re-serialized payload detects any corruption.
    let payload_text = serde_json::to_string(payload).expect("values serialize");
    let computed = fnv1a_hex(payload_text.as_bytes());
    if computed != recorded {
        return Err(CheckpointError::DigestMismatch { recorded, computed });
    }
    Ok(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::colocations::ColocationStudy;
    use crate::schedules::DemandStudy;

    #[test]
    fn fingerprints_separate_studies_and_batch_sizes() {
        let a = DemandStudy::default();
        let b = DemandStudy {
            trials: 99,
            ..DemandStudy::default()
        };
        let demand = |s: &DemandStudy, batch| fingerprint("demand", s, batch);
        assert_ne!(demand(&a, 64), demand(&b, 64));
        assert_ne!(demand(&a, 64), demand(&a, 32));
        assert_eq!(demand(&a, 64), demand(&a, 64));
        // Demand and colocation fingerprints never collide by prefix.
        let c = ColocationStudy::default();
        assert_ne!(demand(&a, 64), fingerprint("colocation", &c, 64));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
