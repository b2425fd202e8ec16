//! The always-on service: single-writer ingestion, lock-free readers.
//!
//! One writer owns the [`IncrementalCascade`] and pushes 5-minute demand
//! samples as they arrive; each full window is attributed by the same
//! cascade a frozen rebuild runs. Any number of reader threads hold cloned
//! [`ServiceHandle`]s and query concurrently. The two sides meet at a
//! single `AtomicPtr` holding the latest [`EpochSnapshot`]:
//!
//! * **Publish** (writer, once per closed window): build the next
//!   snapshot off to the side, move it into the epoch arena (a `Mutex`
//!   the writer alone locks), then `store(Release)` the pointer. The
//!   heap allocation does not move when the owning `Box` does, so the
//!   pointer stays valid.
//! * **Read** (any thread, every query): `load(Acquire)` and
//!   dereference. No lock, no reference count traffic, no retry loop —
//!   the `Release`/`Acquire` pair makes every write that built the
//!   snapshot visible.
//!
//! Snapshots are retained for the service's lifetime (the arena only
//! grows), so a reader can never observe a freed epoch: that retention
//! is what makes the single unsafe dereference in
//! [`ServiceHandle::epoch`] sound, and it doubles as the audit trail —
//! any recorded `(epoch, query, answer)` triple can be re-checked later
//! against the exact snapshot that produced it. It stays linear in
//! windows closed: a snapshot is a few fixed fields plus a view of the
//! window log every epoch shares (see [`crate::epoch`]), and the logs
//! that older snapshots still view — each half the length of the next —
//! hold fewer than four slots per window in total.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fairco2_montecarlo::{write_durable_atomic, CheckpointError, WriteFault};
use fairco2_shapley::incremental::{IncrementalCascade, WindowAttribution};
use fairco2_trace::series::SeriesError;

use crate::epoch::{extend_epoch, EpochSnapshot, Windows};

/// Static configuration of an attribution service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix timestamp (seconds) of the first sample.
    pub start: i64,
    /// Sampling step in seconds (the paper's grids use 300).
    pub step: u32,
    /// Hierarchy split ratios, coarsest first.
    pub splits: Vec<usize>,
    /// Samples per finest-level period; the window is
    /// `leaf_samples · Π splits` samples.
    pub leaf_samples: usize,
    /// Carbon attributed to each closed window (gCO₂e). A production
    /// deployment would meter this per window; the service treats it as
    /// an input.
    pub carbon_per_window: f64,
    /// When set, every closed window is persisted to
    /// `dir/window-<index>.json` with the checkpoint layer's durable
    /// write helper (tmp + fsync + rename + parent-directory fsync).
    pub persist_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            start: 0,
            step: 300,
            splits: vec![4, 3],
            leaf_samples: 4,
            carbon_per_window: 1000.0,
            persist_dir: None,
        }
    }
}

impl ServiceConfig {
    /// Samples per attribution window.
    pub fn window_samples(&self) -> usize {
        self.splits
            .iter()
            .fold(self.leaf_samples, |acc, &m| acc.saturating_mul(m))
    }
}

/// Everything that can go wrong running the service.
#[derive(Debug)]
pub enum ServeError {
    /// The configured hierarchy or grid is degenerate.
    Config(SeriesError),
    /// Persisting a closed window failed.
    Persist(CheckpointError),
    /// A demand sample was negative or non-finite; it was not ingested.
    BadSample(f64),
    /// The configured carbon per window was negative or non-finite; the
    /// service did not start.
    BadCarbon(f64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid service config: {e}"),
            ServeError::Persist(e) => write!(f, "window persistence failed: {e}"),
            ServeError::BadSample(v) => {
                write!(
                    f,
                    "demand sample {v} rejected: must be finite and non-negative"
                )
            }
            ServeError::BadCarbon(v) => {
                write!(
                    f,
                    "carbon per window {v} rejected: must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Persist(e)
    }
}

/// State shared between the writer and every reader handle.
struct Shared {
    /// The latest published epoch; never null (epoch 0 is published at
    /// construction) and always points into `epochs`.
    latest: AtomicPtr<EpochSnapshot>,
    /// The epoch arena: owns every snapshot ever published, in order.
    /// Only the writer locks it; it only grows, so pointers handed to
    /// `latest` stay valid for the service's lifetime. The boxes are
    /// load-bearing: the vec may reallocate, the snapshots must not move.
    #[allow(clippy::vec_box)]
    epochs: Mutex<Vec<Box<EpochSnapshot>>>,
    /// Total samples ingested (monitoring).
    ingested: AtomicU64,
}

/// The always-on attribution service (the single writer).
pub struct AttributionService {
    config: ServiceConfig,
    engine: IncrementalCascade,
    shared: Arc<Shared>,
    /// A window the engine closed whose durable write failed: it is
    /// published, at its own epoch, only once a retry persists it.
    held: Option<WindowAttribution>,
}

/// A cheaply cloneable reader handle; queries never lock.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl AttributionService {
    /// Starts a service: validates the hierarchy and the carbon per
    /// window, publishes the empty epoch 0, and creates the persistence
    /// directory if configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate hierarchy or step;
    /// [`ServeError::BadCarbon`] for a negative or non-finite
    /// `carbon_per_window` (zero is valid); [`ServeError::Persist`] if
    /// the persistence directory cannot be created. Nothing is created
    /// on disk unless the configuration is valid.
    pub fn start(config: ServiceConfig) -> Result<Self, ServeError> {
        let engine = IncrementalCascade::new(&config.splits, config.leaf_samples, config.step)
            .map_err(ServeError::Config)?;
        if !(0.0..f64::INFINITY).contains(&config.carbon_per_window) {
            return Err(ServeError::BadCarbon(config.carbon_per_window));
        }
        if let Some(dir) = &config.persist_dir {
            fs::create_dir_all(dir)
                .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        }
        let zero = Box::new(EpochSnapshot {
            epoch: 0,
            start: config.start,
            step: config.step,
            window_samples: engine.window_samples(),
            windows: Windows::default(),
        });
        let ptr: *const EpochSnapshot = &*zero;
        let shared = Arc::new(Shared {
            latest: AtomicPtr::new(ptr.cast_mut()),
            epochs: Mutex::new(vec![zero]),
            ingested: AtomicU64::new(0),
        });
        Ok(Self {
            config,
            engine,
            shared,
            held: None,
        })
    }

    /// A reader handle; clone one per tenant thread.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Ingests one demand sample. When the sample fills the current
    /// window, the window is closed, optionally persisted, and a new
    /// epoch is published. Returns the latest epoch number when this
    /// call published one.
    ///
    /// A window whose durable write failed is held, not dropped: the
    /// next call first retries its write and, once it lands, publishes
    /// it at its own epoch before ingesting the new sample. Windows are
    /// therefore never published out of position, and after every call
    /// [`windows_closed`](Self::windows_closed) equals the latest epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSample`] if `value` is negative or non-finite —
    /// the sample is dropped before it reaches the engine, so
    /// [`ServiceHandle::ingested`], [`open_window_fill`](Self::open_window_fill)
    /// and the open window are unchanged and the writer can keep going.
    ///
    /// [`ServeError::Persist`] if the configured durable write fails —
    /// the window is *not* published in that case (nothing is queryable
    /// that is not on disk). When the failed write is this sample's own
    /// window, the sample counts as ingested and the window is held. When
    /// it is the retry of a held window, the sample is not ingested and,
    /// as with `BadSample`, the service is unchanged.
    pub fn ingest(&mut self, value: f64) -> Result<Option<u64>, ServeError> {
        if !(0.0..f64::INFINITY).contains(&value) {
            return Err(ServeError::BadSample(value));
        }
        let mut published = None;
        if let Some(window) = self.held.take() {
            published = Some(self.commit(window)?);
        }
        let closed = self.engine.push(value);
        self.shared.ingested.fetch_add(1, Ordering::Relaxed);
        if closed {
            let window = self.engine.close_window(self.config.carbon_per_window);
            published = Some(self.commit(window)?);
        }
        Ok(published)
    }

    /// Persists `window`, the engine's most recently closed window (when
    /// persistence is configured), then publishes it. If the durable
    /// write fails the window is held for the next call to retry.
    fn commit(&mut self, window: WindowAttribution) -> Result<u64, ServeError> {
        if let Some(dir) = &self.config.persist_dir {
            let text = serde_json::to_string(&window).expect("window attributions serialize");
            let index = self.engine.windows_closed() - 1;
            let path = dir.join(format!("window-{index:08}.json"));
            if let Err(e) = write_durable_atomic(&path, &text, WriteFault::None) {
                self.held = Some(window);
                return Err(e.into());
            }
        }
        Ok(self.publish(window))
    }

    /// Builds the next snapshot from the latest one plus the freshly
    /// closed window, moves it into the arena, and releases the pointer.
    fn publish(&self, window: WindowAttribution) -> u64 {
        let mut epochs = self.shared.epochs.lock().expect("epoch arena poisoned");
        let prev = epochs.last().expect("epoch 0 exists from construction");
        let next = Box::new(extend_epoch(prev, window));
        let epoch = next.epoch;
        let ptr: *const EpochSnapshot = &*next;
        epochs.push(next);
        // Release: pairs with the Acquire load in `ServiceHandle::epoch`
        // so readers see the fully built snapshot.
        self.shared.latest.store(ptr.cast_mut(), Ordering::Release);
        epoch
    }

    /// Samples ingested into the open window so far.
    pub fn open_window_fill(&self) -> usize {
        self.engine.filled()
    }

    /// Windows closed and published (== the latest epoch number); a
    /// held window is not counted until it is published.
    pub fn windows_closed(&self) -> u64 {
        self.engine.windows_closed() - u64::from(self.held.is_some())
    }

    /// The streaming engine's primitive-operation counter (amortized
    /// `O(levels)` per sample; see [`IncrementalCascade::ops`]).
    pub fn engine_ops(&self) -> u64 {
        self.engine.ops()
    }

    /// Service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

impl ServiceHandle {
    /// The latest published epoch. Lock-free: one `Acquire` load and a
    /// dereference.
    #[allow(unsafe_code)]
    pub fn epoch(&self) -> &EpochSnapshot {
        let ptr = self.shared.latest.load(Ordering::Acquire);
        // SAFETY: `ptr` was produced from a `Box<EpochSnapshot>` that
        // was moved into the epoch arena before the `Release` store
        // (heap contents do not move with the box), the arena only ever
        // grows, and it lives inside `Shared`, which outlives this
        // handle's `Arc`. The returned borrow is tied to `&self`, which
        // keeps the `Arc` — and therefore the snapshot — alive. The
        // `Acquire`/`Release` pair orders the snapshot's construction
        // before any read through this reference. Snapshots are never
        // mutated after publication, so shared `&` access is race-free;
        // a later publish only fills a free slot of the window log a
        // snapshot shares, through a `OnceLock` that synchronizes itself,
        // and no snapshot reads past its own filled slots.
        unsafe { &*ptr }
    }

    /// Total samples ingested by the writer (monitoring; `Relaxed` — a
    /// freshness gauge, not a synchronization edge).
    pub fn ingested(&self) -> u64 {
        self.shared.ingested.load(Ordering::Relaxed)
    }
}

/// Reads back one persisted window attribution (the service's durable
/// unit), as written by [`AttributionService::ingest`].
///
/// # Errors
///
/// [`ServeError::Persist`] if the file is unreadable or malformed.
pub fn read_persisted_window(path: &std::path::Path) -> Result<WindowAttribution, ServeError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    let window: WindowAttribution =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Malformed(e.0))?;
    Ok(window)
}
