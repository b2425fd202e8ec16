//! The streaming Monte Carlo study engine.
//!
//! Work is split into fixed-size trial batches (boundaries depend only on
//! the batch size — never on the thread count). Worker threads pull batch
//! indices from an atomic counter, run each batch's trials through their
//! own [`TrialScratch`] arena, and send the batch's summary accumulator
//! down a channel. The caller's thread reorders arrivals by batch index
//! and merges them strictly in order, so the merged summary is
//! bit-identical to the serial
//! [`DemandStudySummary::from_trials`] fold at any thread count.
//!
//! Memory stays `O(threads)`: one scratch arena per worker, plus a
//! reorder buffer that holds only the batch accumulators that arrived
//! ahead of order.
//!
//! # Fault containment and resume
//!
//! A batch that panics or returns an error is caught on the worker,
//! requeued on a **fresh scratch arena** (the old arena may be mid-update
//! and is retired, its counters preserved), and retried up to the
//! configured budget. Retries and requeues are counted in
//! [`EngineStats`]; a batch that exhausts its budget surfaces as
//! [`EngineError::BatchAbandoned`] — never a hang, never a silently
//! short study.
//!
//! Because every trial is a pure function of `(study config, trial
//! index)` and merges happen in strict batch order, the merged prefix is
//! a complete description of progress. [`StudyOptions::checkpoint`]
//! snapshots it every K merges; resuming re-runs nothing before the
//! frontier and is bit-identical to an uninterrupted run.
//!
//! [`stream_study`] is the whole engine: one function schedules,
//! retries, reorders and merges every batch, restores and snapshots,
//! fires failpoints and totals stats. Its callers supply only their
//! per-batch fold: the demand and colocation studies here, the surrogate
//! harvest in [`crate::harvest`], and the Azure-scale co-simulation in
//! `fairco2-bench`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use fairco2_shapley::parallel::panic_message;
use serde::{Deserialize, Serialize, Value};

use crate::checkpoint::{
    fingerprint, CheckpointError, CheckpointSpec, PendingBatch, Snapshot, WriteFault,
};
use crate::colocations::{ColocationStudy, ColocationTrial};
use crate::faults::FaultPlan;
use crate::schedules::{DemandStudy, DemandTrial};
use crate::scratch::{EngineScratch, ScratchStats, TrialScratch};
use crate::streaming::{ColocationStudySummary, DemandStudySummary, DEFAULT_BATCH_TRIALS};

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (0 clamps to 1).
    pub threads: usize,
    /// Trials per batch. Determinism contract: the same batch size always
    /// produces the same summary bits, at any thread count.
    pub batch_trials: usize,
    /// Also return every per-trial record (the `--dump-trials` path).
    /// Costs `O(trials)` memory; summaries are unaffected.
    pub collect_trials: bool,
}

impl EngineConfig {
    /// The default configuration at a given thread count.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            batch_trials: DEFAULT_BATCH_TRIALS,
            collect_trials: false,
        }
    }
}

/// What a study run did, for perf reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Trials merged into the summary (includes checkpointed prefix
    /// trials on resumed runs).
    pub trials: u64,
    /// Batches in the study.
    pub batches: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Aggregated scratch-reuse counters across workers. On resumed
    /// runs, counters from the interrupted run's workers are not
    /// recoverable; this covers completed runs only.
    pub scratch: ScratchStats,
    /// Deepest the reorder buffer got (batch accumulators held while
    /// waiting for an earlier batch).
    pub max_reorder_depth: u64,
    /// Failed batch attempts that were re-executed after a panic or
    /// error (fault containment).
    pub retries: u64,
    /// Distinct batches that failed at least once and were requeued on a
    /// fresh scratch arena.
    pub requeued_batches: u64,
}

/// A batch attempt's typed failure (the non-panic fault path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailure {
    message: String,
}

impl BatchFailure {
    /// A failure carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

/// Why a study run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A batch kept failing after its retry budget was spent. The study
    /// is incomplete; no partial summary is returned.
    BatchAbandoned {
        /// The failing batch index.
        batch: usize,
        /// Attempts made (retry budget + 1).
        attempts: u32,
        /// Message of the final failure (panic text or batch error).
        last_error: String,
    },
    /// Writing or restoring a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A [`FaultPlan::kill_after_writes`] failpoint stopped the run —
    /// the test harness's stand-in for SIGKILL.
    Killed {
        /// Checkpoint writes that had landed when the run stopped.
        writes: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BatchAbandoned {
                batch,
                attempts,
                last_error,
            } => write!(
                f,
                "batch {batch} abandoned after {attempts} attempts: {last_error}"
            ),
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Killed { writes } => {
                write!(
                    f,
                    "run killed by fault plan after {writes} checkpoint writes"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Fault-tolerance and checkpointing knobs for a study run.
#[derive(Debug, Clone, Default)]
pub struct StudyOptions {
    /// Snapshot the merged prefix to this path every K merged batches.
    pub checkpoint: Option<CheckpointSpec>,
    /// Restore from [`Self::checkpoint`]'s path before running (a
    /// missing file starts fresh; an invalid one is an error).
    pub resume: bool,
    /// Re-run a failing batch up to this many extra times on a fresh
    /// scratch arena before abandoning the study.
    pub retry_budget: u32,
    /// Deterministic failpoints (tests only; default injects nothing).
    pub faults: FaultPlan,
}

impl StudyOptions {
    /// Options with a retry budget and no checkpointing.
    pub fn retrying(retry_budget: u32) -> Self {
        Self {
            retry_budget,
            ..Self::default()
        }
    }
}

/// Runs a resumable study of `items` work items: the one batch engine
/// behind the demand, colocation and Azure-scale studies and the
/// surrogate harvest.
///
/// Items are cut into batches of [`EngineConfig::batch_trials`] (the
/// last may be short), and worker threads pull batch indices from a
/// shared counter. `make_scratch` is called once per worker plus once
/// per requeue. `run_batch` folds one batch of item indices through the
/// worker's scratch into a fresh accumulator `A`, plus per-batch output
/// `X` that is never checkpointed (such as the trials a sink observes).
/// It receives the 0-based attempt number so per-item failpoints can key
/// off it, and may fail by panicking or returning a [`BatchFailure`]; a
/// failed batch is retried on a fresh scratch up to
/// [`StudyOptions::retry_budget`] times. `on_merge(master, acc, x)`
/// folds each batch into `master` on the calling thread, strictly in
/// batch order; batches restored from a snapshot's reorder buffer
/// arrive with `x = None`.
///
/// Everything around that fold happens here: restoring from
/// [`StudyOptions::checkpoint`] when [`StudyOptions::resume`] is set and
/// the file exists (a missing file starts fresh), firing
/// [`FaultPlan::batch_fault`] failpoints, writing a [`Snapshot`] every
/// [`CheckpointSpec::every_batches`] merges (under the write and kill
/// failpoints), and folding the restored and live stats into
/// whole-study totals. The merged accumulator is bit-identical at any
/// thread count and across any checkpoint/resume boundary, because
/// batch boundaries depend only on [`EngineConfig::batch_trials`].
///
/// # Errors
///
/// [`EngineError::Checkpoint`] for invalid checkpoints or failed writes,
/// [`EngineError::BatchAbandoned`] when faults exceed the retry budget
/// (the lowest failing batch index when several fail around the abort),
/// and [`EngineError::Killed`] from a kill failpoint.
///
/// # Panics
///
/// Panics if a restored snapshot's frontier or reorder buffer lies
/// outside the study's batches (a snapshot of another study passed
/// fingerprint validation — a caller bug).
#[allow(clippy::too_many_arguments)]
pub fn stream_study<A, X, C>(
    items: usize,
    fingerprint: &str,
    cfg: EngineConfig,
    opts: &StudyOptions,
    empty: A,
    make_scratch: impl Fn() -> C + Sync,
    run_batch: impl Fn(Range<usize>, &mut C, u32) -> Result<(A, X), BatchFailure> + Sync,
    mut on_merge: impl FnMut(&mut A, A, Option<X>),
) -> Result<(A, EngineStats), EngineError>
where
    A: Send + Serialize + Deserialize,
    X: Send,
    C: EngineScratch,
{
    let threads = cfg.threads.max(1);
    let batch_trials = cfg.batch_trials.max(1);
    let n_batches = items.div_ceil(batch_trials);
    let faults = &opts.faults;
    let mut master = empty;
    let mut carried = EngineStats::default();
    let mut frontier = 0;
    // The reorder buffer: completed batches waiting on an earlier one. A
    // restore preloads it with the snapshot's parked batches, which can
    // include the frontier batch itself (a snapshot cut mid-drain).
    let mut pending: BTreeMap<usize, (A, Option<X>)> = BTreeMap::new();
    let restorable = opts
        .checkpoint
        .as_ref()
        .filter(|s| opts.resume && s.path.exists());
    if let Some(spec) = restorable {
        let snap = Snapshot::load(&spec.path, fingerprint)?;
        master = restore(&snap.summary)?;
        for p in &snap.pending {
            pending.insert(p.batch as usize, (restore(&p.summary)?, None));
        }
        carried = snap.stats;
        frontier = snap.frontier as usize;
    }
    assert!(frontier <= n_batches, "resume frontier beyond the study");
    // Workers skip the parked batches: they finished before the
    // interruption.
    let done: Vec<usize> = pending.keys().copied().collect();
    for &b in &done {
        assert!(
            b >= frontier && b < n_batches,
            "resume pending batch {b} outside [{frontier}, {n_batches})"
        );
    }

    let next = AtomicUsize::new(frontier);
    let abort = AtomicBool::new(false);
    let retries = AtomicU64::new(0);
    let requeued = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<(A, X), EngineError>)>();

    let (scratch, max_reorder_depth, error) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (next, abort, retries, requeued, done) =
                    (&next, &abort, &retries, &requeued, &done);
                let (make_scratch, run_batch) = (&make_scratch, &run_batch);
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut retired = ScratchStats::default();
                    'batches: while !abort.load(Ordering::Relaxed) {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n_batches {
                            break;
                        }
                        if done.binary_search(&b).is_ok() {
                            continue;
                        }
                        let start = b * batch_trials;
                        let end = (start + batch_trials).min(items);
                        let mut attempt = 0u32;
                        let outcome = loop {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if let Some(kind) = faults.batch_fault(b, attempt) {
                                        FaultPlan::fire(kind, &format!("batch {b}"))?;
                                    }
                                    run_batch(start..end, &mut scratch, attempt)
                                }));
                            let failure = match result {
                                Ok(Ok(out)) => break Ok(out),
                                Ok(Err(f)) => f,
                                Err(payload) => BatchFailure::new(panic_message(payload.as_ref())),
                            };
                            // The arena may be mid-update from the failed
                            // attempt; retire it (keeping its counters)
                            // and requeue the batch on a fresh one.
                            retired.merge(&scratch.stats());
                            scratch = make_scratch();
                            if attempt == 0 {
                                requeued.fetch_add(1, Ordering::Relaxed);
                            }
                            if attempt >= opts.retry_budget {
                                break Err(EngineError::BatchAbandoned {
                                    batch: b,
                                    attempts: attempt + 1,
                                    last_error: failure.message,
                                });
                            }
                            retries.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                            if abort.load(Ordering::Relaxed) {
                                break 'batches;
                            }
                        };
                        let failed = outcome.is_err();
                        if failed {
                            abort.store(true, Ordering::Relaxed);
                        }
                        if tx.send((b, outcome)).is_err() || failed {
                            break;
                        }
                    }
                    retired.merge(&scratch.stats());
                    retired
                })
            })
            .collect();
        drop(tx);

        // Merge strictly in batch order — this is what makes the
        // accumulator thread-count invariant. Each pass drains every
        // eligible batch before awaiting the next arrival, so restored
        // batches (which no worker re-sends) merge first.
        let mut next_merge = frontier;
        // Restored batches above the frontier wait for an earlier one.
        let mut max_depth = pending.range(frontier + 1..).count();
        let mut writes = 0usize;
        let mut since_write = 0usize;
        let mut error: Option<EngineError> = None;
        loop {
            while error.is_none() {
                let Some((acc, x)) = pending.remove(&next_merge) else {
                    break;
                };
                on_merge(&mut master, acc, x);
                next_merge += 1;
                let Some(spec) = &opts.checkpoint else {
                    continue;
                };
                since_write += 1;
                if since_write < spec.every_batches.max(1) {
                    continue;
                }
                since_write = 0;
                // Cumulative through the frontier; scratch counters are
                // carried from completed runs only (live worker counters
                // are not observable mid-run).
                let snap = Snapshot {
                    fingerprint: fingerprint.to_owned(),
                    frontier: next_merge as u64,
                    summary: master.serialize(),
                    pending: pending
                        .iter()
                        .map(|(b, (acc, _))| PendingBatch {
                            batch: *b as u64,
                            summary: acc.serialize(),
                        })
                        .collect(),
                    stats: EngineStats {
                        trials: (next_merge * batch_trials).min(items) as u64,
                        batches: next_merge as u64,
                        threads: threads as u64,
                        scratch: carried.scratch,
                        max_reorder_depth: carried.max_reorder_depth,
                        retries: carried.retries + retries.load(Ordering::Relaxed),
                        requeued_batches: carried.requeued_batches
                            + requeued.load(Ordering::Relaxed),
                    },
                };
                // A failed write ends the run, so `writes` also counts
                // the attempts made before this one.
                let fault = if faults.fail_checkpoint_write(writes) {
                    WriteFault::TornTmp
                } else {
                    WriteFault::None
                };
                error = match snap.save(&spec.path, fault) {
                    Err(e) => Some(e.into()),
                    Ok(()) => {
                        writes += 1;
                        faults
                            .should_kill(writes)
                            .then_some(EngineError::Killed { writes })
                    }
                };
                if error.is_some() {
                    abort.store(true, Ordering::Relaxed);
                }
            }
            let Ok((b, outcome)) = rx.recv() else {
                break;
            };
            match outcome {
                Err(e) => {
                    // Deterministic report when several batches fail
                    // around the abort: the lowest batch index wins.
                    error = Some(match error.take() {
                        Some(cur) => prefer_error(cur, e),
                        None => e,
                    });
                    abort.store(true, Ordering::Relaxed);
                }
                Ok(_) if error.is_some() => {}
                Ok((acc, x)) => {
                    pending.insert(b, (acc, Some(x)));
                    // Only an arrival ahead of order waits in the buffer;
                    // the next batch in order merges at once.
                    if b != next_merge {
                        max_depth = max_depth.max(pending.len());
                    }
                }
            }
        }

        let mut total = carried.scratch;
        for w in workers {
            total.merge(&w.join().expect("study worker panicked"));
        }
        if error.is_none() {
            assert!(
                pending.is_empty() && next_merge == n_batches,
                "batch stream ended with unmerged batches"
            );
        }
        (total, max_depth, error)
    });

    if let Some(e) = error {
        return Err(e);
    }
    // Whole-study totals: every item is merged by now, including the
    // restored prefix and reorder-buffer batches this run never executed.
    let stats = EngineStats {
        trials: items as u64,
        batches: n_batches as u64,
        threads: threads as u64,
        scratch,
        max_reorder_depth: carried.max_reorder_depth.max(max_reorder_depth as u64),
        retries: carried.retries + retries.into_inner(),
        requeued_batches: carried.requeued_batches + requeued.into_inner(),
    };
    Ok((master, stats))
}

fn prefer_error(cur: EngineError, new: EngineError) -> EngineError {
    match (&cur, &new) {
        (
            EngineError::BatchAbandoned { batch: a, .. },
            EngineError::BatchAbandoned { batch: b, .. },
        ) if b < a => new,
        _ => cur,
    }
}

/// Rebuilds a checkpointed accumulator.
fn restore<A: Deserialize>(value: &Value) -> Result<A, CheckpointError> {
    A::deserialize(value).map_err(|e| CheckpointError::Malformed(format!("summary: {}", e.0)))
}

/// Streams the demand study with fault containment, checkpointing, and
/// resume; `on_progress(trials_so_far, &summary)` fires after every
/// in-order merge.
///
/// The summary is bit-identical to
/// [`DemandStudySummary::from_trials`] over the serially collected
/// trials at the same batch size — at any thread count, across any
/// checkpoint/resume boundary, and under any fault plan whose failures
/// stay within the retry budget. On resumed runs the per-trial dump
/// (when [`EngineConfig::collect_trials`] is set) contains only trials
/// executed after the restore point.
///
/// # Errors
///
/// Same contract as [`stream_study`].
pub fn stream_demand_study_resumable(
    study: &DemandStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    on_progress: impl FnMut(u64, &DemandStudySummary),
) -> Result<(DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats), EngineError> {
    demand_study_impl(study, cfg, opts, on_progress, None)
}

/// [`stream_demand_study_resumable`] with a **streaming per-trial sink**:
/// `on_trial` observes every trial exactly once, in ascending trial
/// order, on the merge thread — at any thread count the observed stream
/// is identical, because batches are merged strictly in batch-index order
/// and trials are generated in index order within each batch. Memory
/// stays `O(threads · batch)`: trials are dropped after the sink sees
/// them instead of being collected (this is what backs `--dump-trials`
/// JSONL harvests of full 10,000-trial studies).
///
/// On resumed runs the sink observes only trials executed after the
/// restore point, mirroring the collect path's contract.
///
/// # Errors
///
/// Same contract as [`stream_demand_study_resumable`].
pub fn stream_demand_study_with_sink(
    study: &DemandStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    on_progress: impl FnMut(u64, &DemandStudySummary),
    mut on_trial: impl FnMut(&DemandTrial),
) -> Result<(DemandStudySummary, EngineStats), EngineError> {
    let (summary, _, stats) =
        demand_study_impl(study, cfg, opts, on_progress, Some(&mut on_trial))?;
    Ok((summary, stats))
}

fn demand_study_impl(
    study: &DemandStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    mut on_progress: impl FnMut(u64, &DemandStudySummary),
    mut sink: Option<&mut dyn FnMut(&DemandTrial)>,
) -> Result<(DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats), EngineError> {
    let keep_trials = cfg.collect_trials || sink.is_some();
    let mut dump: Option<Vec<DemandTrial>> = cfg.collect_trials.then(Vec::new);
    let (summary, stats) = stream_study(
        study.trials,
        &fingerprint("demand", study, cfg.batch_trials),
        cfg,
        opts,
        DemandStudySummary::empty(study),
        || TrialScratch::for_demand(study),
        |range, scratch, attempt| {
            let mut acc = DemandStudySummary::empty(study);
            let mut kept = Vec::with_capacity(if keep_trials { range.len() } else { 0 });
            for t in range {
                if let Some(kind) = opts.faults.trial_fault(t, attempt) {
                    FaultPlan::fire(kind, &format!("trial {t}"))?;
                }
                let trial = study.run_trial_with_scratch(t, scratch);
                acc.record(&trial);
                if keep_trials {
                    kept.push(trial);
                }
            }
            Ok((acc, kept))
        },
        |master, acc, kept| {
            master.merge(&acc);
            for trial in kept.into_iter().flatten() {
                if let Some(observe) = sink.as_deref_mut() {
                    observe(&trial);
                }
                if let Some(d) = &mut dump {
                    d.push(trial);
                }
            }
            on_progress(master.trials, master);
        },
    )?;
    Ok((summary, dump, stats))
}

/// Streams the colocation study with fault containment, checkpointing,
/// and resume; the colocation counterpart of
/// [`stream_demand_study_resumable`].
///
/// # Errors
///
/// Same contract as [`stream_demand_study_resumable`].
pub fn stream_colocation_study_resumable(
    study: &ColocationStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    on_progress: impl FnMut(u64, &ColocationStudySummary),
) -> Result<
    (
        ColocationStudySummary,
        Option<Vec<ColocationTrial>>,
        EngineStats,
    ),
    EngineError,
> {
    colocation_study_impl(study, cfg, opts, on_progress, None)
}

/// [`stream_colocation_study_resumable`] with a streaming per-trial sink;
/// the colocation counterpart of [`stream_demand_study_with_sink`], with
/// the same in-trial-order, thread-invariant observation contract.
///
/// # Errors
///
/// Same contract as [`stream_colocation_study_resumable`].
pub fn stream_colocation_study_with_sink(
    study: &ColocationStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    on_progress: impl FnMut(u64, &ColocationStudySummary),
    mut on_trial: impl FnMut(&ColocationTrial),
) -> Result<(ColocationStudySummary, EngineStats), EngineError> {
    let (summary, _, stats) =
        colocation_study_impl(study, cfg, opts, on_progress, Some(&mut on_trial))?;
    Ok((summary, stats))
}

fn colocation_study_impl(
    study: &ColocationStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    mut on_progress: impl FnMut(u64, &ColocationStudySummary),
    mut sink: Option<&mut dyn FnMut(&ColocationTrial)>,
) -> Result<
    (
        ColocationStudySummary,
        Option<Vec<ColocationTrial>>,
        EngineStats,
    ),
    EngineError,
> {
    let keep_trials = cfg.collect_trials || sink.is_some();
    let mut dump: Option<Vec<ColocationTrial>> = cfg.collect_trials.then(Vec::new);
    let (summary, stats) = stream_study(
        study.trials,
        &fingerprint("colocation", study, cfg.batch_trials),
        cfg,
        opts,
        ColocationStudySummary::empty(study),
        TrialScratch::new,
        |range, scratch, attempt| {
            let mut acc = ColocationStudySummary::empty(study);
            let mut kept = Vec::with_capacity(if keep_trials { range.len() } else { 0 });
            for t in range {
                if let Some(kind) = opts.faults.trial_fault(t, attempt) {
                    FaultPlan::fire(kind, &format!("trial {t}"))?;
                }
                let trial = study.run_trial_with_scratch(t, scratch);
                acc.record(&trial);
                if keep_trials {
                    kept.push(trial);
                }
            }
            Ok((acc, kept))
        },
        |master, acc, kept| {
            master.merge(&acc);
            for trial in kept.into_iter().flatten() {
                if let Some(observe) = sink.as_deref_mut() {
                    observe(&trial);
                }
                if let Some(d) = &mut dump {
                    d.push(trial);
                }
            }
            on_progress(master.trials, master);
        },
    )?;
    Ok((summary, dump, stats))
}

/// Streams the demand study with no retry budget and no checkpointing:
/// [`stream_demand_study_resumable`] under default [`StudyOptions`].
///
/// Returns the summary, the per-trial dump when
/// [`EngineConfig::collect_trials`] is set, and the engine stats.
///
/// # Panics
///
/// Propagates a failed batch as a panic whose message contains
/// `"study worker panicked"`.
pub fn stream_demand_study(
    study: &DemandStudy,
    cfg: EngineConfig,
) -> (DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats) {
    stream_demand_study_resumable(study, cfg, &StudyOptions::default(), |_, _| {})
        .unwrap_or_else(|e| panic!("study worker panicked: {e}"))
}

/// Streams the colocation study; the colocation counterpart of
/// [`stream_demand_study`].
///
/// # Panics
///
/// Propagates a failed batch as a panic whose message contains
/// `"study worker panicked"`.
pub fn stream_colocation_study(
    study: &ColocationStudy,
    cfg: EngineConfig,
) -> (
    ColocationStudySummary,
    Option<Vec<ColocationTrial>>,
    EngineStats,
) {
    stream_colocation_study_resumable(study, cfg, &StudyOptions::default(), |_, _| {})
        .unwrap_or_else(|e| panic!("study worker panicked: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BatchFault, FaultKind};
    use crate::scratch::NoScratch;

    fn small_demand() -> DemandStudy {
        DemandStudy {
            trials: 37,
            max_workloads: 8,
            ..DemandStudy::default()
        }
    }

    #[test]
    fn demand_stream_matches_serial_fold_bitwise() {
        let study = small_demand();
        let trials: Vec<DemandTrial> = (0..study.trials).map(|t| study.run_trial(t)).collect();
        let serial = DemandStudySummary::from_trials(&study, &trials, 8);
        let cfg = EngineConfig {
            threads: 3,
            batch_trials: 8,
            collect_trials: true,
        };
        let (streamed, dump, stats) = stream_demand_study(&study, cfg);
        assert_eq!(streamed, serial);
        assert_eq!(stats.trials, 37);
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.scratch.trials, 37);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.requeued_batches, 0);
        // The dump is the full trial stream, in trial order.
        let dump = dump.unwrap();
        assert_eq!(dump.len(), trials.len());
        for (a, b) in dump.iter().zip(&trials) {
            assert_eq!(a.trial, b.trial);
            assert_eq!(a.rup.average_pct.to_bits(), b.rup.average_pct.to_bits());
        }
    }

    #[test]
    fn progress_fires_after_every_in_order_merge() {
        let study = small_demand();
        let mut seen = Vec::new();
        let cfg = EngineConfig {
            threads: 2,
            batch_trials: 10,
            collect_trials: false,
        };
        let (summary, dump, _) =
            stream_demand_study_resumable(&study, cfg, &StudyOptions::default(), |n, s| {
                seen.push((n, s.trials))
            })
            .expect("fault-free run");
        assert!(dump.is_none());
        assert_eq!(seen, vec![(10, 10), (20, 20), (30, 30), (37, 37)]);
        assert_eq!(summary.trials, 37);
    }

    #[test]
    fn scratch_arena_is_reused_across_a_worker_run() {
        let study = small_demand();
        let cfg = EngineConfig {
            threads: 1,
            batch_trials: 64,
            collect_trials: false,
        };
        let (_, _, stats) = stream_demand_study(&study, cfg);
        // One pre-grown table, every solve served from it.
        assert_eq!(stats.scratch.table_grows, 1);
        assert_eq!(stats.scratch.table_reuses, 37);
    }

    #[test]
    fn zero_trials_produce_an_empty_summary() {
        let study = DemandStudy {
            trials: 0,
            ..small_demand()
        };
        let (summary, _, stats) = stream_demand_study(&study, EngineConfig::new(4));
        assert_eq!(summary.trials, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn colocation_stream_matches_serial_fold_bitwise() {
        let study = ColocationStudy {
            trials: 21,
            max_workloads: 16,
            ..ColocationStudy::default()
        };
        let trials: Vec<ColocationTrial> = (0..study.trials).map(|t| study.run_trial(t)).collect();
        let serial = ColocationStudySummary::from_trials(&study, &trials, 5);
        let cfg = EngineConfig {
            threads: 4,
            batch_trials: 5,
            collect_trials: false,
        };
        let (streamed, _, stats) = stream_colocation_study(&study, cfg);
        assert_eq!(streamed, serial);
        assert_eq!(stats.scratch.trials, 21);
    }

    #[test]
    fn requeued_batches_get_a_fresh_scratch_arena() {
        let study = small_demand();
        let cfg = EngineConfig {
            threads: 1,
            batch_trials: 8,
            collect_trials: false,
        };
        let opts = StudyOptions {
            retry_budget: 1,
            faults: FaultPlan {
                batches: vec![BatchFault {
                    batch: 2,
                    kind: FaultKind::Error,
                    times: 1,
                }],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        };
        let (summary, _, stats) =
            stream_demand_study_resumable(&study, cfg, &opts, |_, _| {}).expect("within budget");
        assert_eq!(summary.trials, 37);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.requeued_batches, 1);
        // The failed attempt's arena was retired and a fresh one grown:
        // two table grows on a single worker instead of one.
        assert_eq!(stats.scratch.table_grows, 2);
    }

    /// Runs `batches` one-item batches through [`stream_study`]; batch 0
    /// does not finish until the last batch has started.
    fn reorder_depth(threads: usize, batches: usize) -> u64 {
        let last_started = AtomicBool::new(false);
        let cfg = EngineConfig {
            threads,
            batch_trials: 1,
            collect_trials: false,
        };
        let (merged, stats) = stream_study(
            batches,
            "reorder-depth",
            cfg,
            &StudyOptions::default(),
            Vec::new(),
            || NoScratch,
            |items, _, _| {
                if items.start + 1 == batches {
                    last_started.store(true, Ordering::Release);
                } else if items.start == 0 && threads > 1 {
                    while !last_started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                Ok((vec![items.start], ()))
            },
            |merged: &mut Vec<usize>, batch, _| merged.extend(batch),
        )
        .expect("fault-free run");
        assert_eq!(merged, (0..batches).collect::<Vec<_>>());
        stats.max_reorder_depth
    }

    #[test]
    fn reorder_depth_counts_only_batches_that_waited() {
        // One worker delivers every batch in order: none ever waits.
        assert_eq!(reorder_depth(1, 3), 0);
        // Batch 1 is sent before batch 0 finishes, so it waits; batch 2
        // may wait too. Batch 0 never does.
        let depth = reorder_depth(2, 3);
        assert!((1..=2).contains(&depth), "depth {depth}");
    }
}
