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

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use fairco2_shapley::parallel::panic_message;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    colocation_fingerprint, demand_fingerprint, CheckpointError, CheckpointSpec,
    ColocationSnapshot, DemandSnapshot, PendingColocationBatch, PendingDemandBatch, WriteFault,
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

/// Where to pick a study back up: the merged-prefix frontier plus any
/// batches that had already finished ahead of it (the reorder buffer).
///
/// Invariant: every pending batch index is at least `frontier` (a
/// checkpoint cut mid-drain can park the frontier batch itself here;
/// anything below it has already been merged).
#[derive(Debug, Clone)]
pub struct ResumeState<A> {
    /// Batches `0..frontier` are merged; execution restarts here.
    pub frontier: usize,
    /// Completed `(batch, accumulator)` pairs beyond the frontier; they
    /// are merged in order without re-execution.
    pub pending: Vec<(usize, A)>,
}

/// What the in-order merge callback can observe at each merge point —
/// enough to cut a complete checkpoint.
pub struct MergeCtx<'a, A> {
    /// The batch being merged; after this call the frontier is
    /// `batch + 1`.
    pub batch: usize,
    /// Completed batches still waiting in the reorder buffer (all
    /// indices are `> batch`).
    pub pending: &'a BTreeMap<usize, A>,
    /// Failed attempts re-executed so far (point-in-time).
    pub retries: u64,
    /// Distinct batches requeued so far (point-in-time).
    pub requeued_batches: u64,
}

/// Runs `trials` trials through per-worker scratch arenas, streaming
/// batch accumulators to `merge` strictly in batch-index order, with
/// fault containment and frontier resume.
///
/// `make_scratch` is called once per worker plus once per requeue;
/// `run_batch` folds one batch of trial indices through the worker's
/// scratch and may fail (panic or [`BatchFailure`]) — it receives the
/// 0-based attempt number so deterministic failpoints can key off it.
/// `merge` receives each accumulator exactly once, in ascending batch
/// order, on the calling thread; returning an error stops the run.
///
/// With `resume`, batches before the frontier are skipped entirely and
/// preloaded pending batches are merged without re-execution; the merged
/// stream is bit-identical to an uninterrupted run because batch
/// boundaries and trial seeds depend only on the study config.
///
/// # Errors
///
/// [`EngineError::BatchAbandoned`] when a batch fails more than
/// `retry_budget` times; whatever error `merge` returns, verbatim.
///
/// # Panics
///
/// Panics if a resume state is inconsistent with the batch count (a
/// checkpoint for a different study passed validation — a caller bug).
#[allow(clippy::too_many_arguments)]
pub fn stream_batches_resumable<A, C, S, F, M>(
    trials: usize,
    threads: usize,
    batch_trials: usize,
    retry_budget: u32,
    resume: Option<ResumeState<A>>,
    make_scratch: S,
    run_batch: F,
    mut merge: M,
) -> Result<EngineStats, EngineError>
where
    A: Send,
    C: EngineScratch,
    S: Fn() -> C + Sync,
    F: Fn(Range<usize>, &mut C, u32) -> Result<A, BatchFailure> + Sync,
    M: FnMut(MergeCtx<'_, A>, A) -> Result<(), EngineError>,
{
    let threads = threads.max(1);
    let batch_trials = batch_trials.max(1);
    let n_batches = trials.div_ceil(batch_trials);
    let resume = resume.unwrap_or(ResumeState {
        frontier: 0,
        pending: Vec::new(),
    });
    let frontier = resume.frontier;
    assert!(frontier <= n_batches, "resume frontier beyond the study");
    // Indices the workers must not re-execute (already completed, parked
    // in the reorder buffer at checkpoint time).
    let mut done: Vec<usize> = resume.pending.iter().map(|(b, _)| *b).collect();
    done.sort_unstable();
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
    let executed_trials = AtomicU64::new(0);
    let executed_batches = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<A, EngineError>)>();

    let (scratch, max_reorder_depth, error) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let abort = &abort;
                let retries = &retries;
                let requeued = &requeued;
                let executed_trials = &executed_trials;
                let executed_batches = &executed_batches;
                let done = &done;
                let make_scratch = &make_scratch;
                let run_batch = &run_batch;
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut retired = ScratchStats::default();
                    'batches: while !abort.load(Ordering::Relaxed) {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n_batches {
                            break;
                        }
                        if done.binary_search(&b).is_ok() {
                            continue; // completed before the interruption
                        }
                        let start = b * batch_trials;
                        let end = (start + batch_trials).min(trials);
                        let mut attempt = 0u32;
                        let outcome = loop {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_batch(start..end, &mut scratch, attempt)
                                }));
                            let failure = match result {
                                Ok(Ok(acc)) => break Ok(acc),
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
                            if attempt >= retry_budget {
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
                        match outcome {
                            Ok(acc) => {
                                executed_trials.fetch_add((end - start) as u64, Ordering::Relaxed);
                                executed_batches.fetch_add(1, Ordering::Relaxed);
                                if tx.send((b, Ok(acc))).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                let _ = tx.send((b, Err(e)));
                                break;
                            }
                        }
                    }
                    retired.merge(&scratch.stats());
                    retired
                })
            })
            .collect();
        drop(tx);

        // Reorder arrivals so merges happen strictly in batch order —
        // this is what makes the summary thread-count invariant. Batches
        // restored from a checkpoint's reorder buffer start out parked
        // here and are consumed by the same in-order drain.
        let mut pending: BTreeMap<usize, A> = resume.pending.into_iter().collect();
        let mut next_merge = frontier;
        let mut max_depth = pending.len();
        let mut error: Option<EngineError> = None;
        // A checkpoint cut mid-drain can park the frontier batch itself
        // in the reorder buffer; workers never re-send it, so anything
        // already eligible must merge before waiting on arrivals.
        while let Some(acc) = pending.remove(&next_merge) {
            let ctx = MergeCtx {
                batch: next_merge,
                pending: &pending,
                retries: retries.load(Ordering::Relaxed),
                requeued_batches: requeued.load(Ordering::Relaxed),
            };
            if let Err(e) = merge(ctx, acc) {
                error = Some(e);
                abort.store(true, Ordering::Relaxed);
                break;
            }
            next_merge += 1;
        }
        for (idx, outcome) in rx {
            match outcome {
                Err(e) => {
                    error = Some(match error.take() {
                        // Deterministic report when several batches fail
                        // around the abort: the lowest batch index wins.
                        Some(cur) => prefer_error(cur, e),
                        None => e,
                    });
                    abort.store(true, Ordering::Relaxed);
                }
                Ok(_) if error.is_some() => {}
                Ok(acc) => {
                    pending.insert(idx, acc);
                    max_depth = max_depth.max(pending.len());
                    while let Some(acc) = pending.remove(&next_merge) {
                        let ctx = MergeCtx {
                            batch: next_merge,
                            pending: &pending,
                            retries: retries.load(Ordering::Relaxed),
                            requeued_batches: requeued.load(Ordering::Relaxed),
                        };
                        if let Err(e) = merge(ctx, acc) {
                            error = Some(e);
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                        next_merge += 1;
                    }
                }
            }
        }

        let mut total = ScratchStats::default();
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
    Ok(EngineStats {
        trials: executed_trials.load(Ordering::Relaxed),
        batches: executed_batches.load(Ordering::Relaxed),
        threads: threads as u64,
        scratch,
        max_reorder_depth: max_reorder_depth as u64,
        retries: retries.load(Ordering::Relaxed),
        requeued_batches: requeued.load(Ordering::Relaxed),
    })
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

/// [`stream_batches_resumable`] with the pre-fault-tolerance contract:
/// no retries, no resume, and worker failures surface as panics.
///
/// # Panics
///
/// Propagates panics from worker threads (message contains
/// `"study worker panicked"`).
pub fn stream_batches<A, C, S, F, M>(
    trials: usize,
    threads: usize,
    batch_trials: usize,
    make_scratch: S,
    run_batch: F,
    mut merge: M,
) -> EngineStats
where
    A: Send,
    C: EngineScratch,
    S: Fn() -> C + Sync,
    F: Fn(Range<usize>, &mut C) -> A + Sync,
    M: FnMut(usize, A),
{
    let result = stream_batches_resumable(
        trials,
        threads,
        batch_trials,
        0,
        None,
        make_scratch,
        |range, scratch, _attempt| Ok(run_batch(range, scratch)),
        |ctx, acc| {
            merge(ctx.batch, acc);
            Ok(())
        },
    );
    match result {
        Ok(stats) => stats,
        Err(e) => panic!("study worker panicked: {e}"),
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

type DemandAcc = (DemandStudySummary, Option<Vec<DemandTrial>>);
type ColocationAcc = (ColocationStudySummary, Option<Vec<ColocationTrial>>);

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
/// [`EngineError::Checkpoint`] for invalid checkpoints or failed writes,
/// [`EngineError::BatchAbandoned`] when faults exceed the retry budget,
/// and [`EngineError::Killed`] from a kill failpoint.
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
    let batch_trials = cfg.batch_trials.max(1);
    let n_batches = study.trials.div_ceil(batch_trials);
    let fingerprint = demand_fingerprint(study, batch_trials);
    let mut master = DemandStudySummary::empty(study);
    let mut dump: Option<Vec<DemandTrial>> = cfg.collect_trials.then(Vec::new);
    let mut carried = EngineStats::default();
    let mut resume_state: Option<ResumeState<DemandAcc>> = None;
    if opts.resume {
        if let Some(spec) = &opts.checkpoint {
            if spec.path.exists() {
                let snap = DemandSnapshot::load(&spec.path, &fingerprint)?;
                master = snap.summary;
                carried = snap.stats;
                resume_state = Some(ResumeState {
                    frontier: snap.frontier as usize,
                    pending: snap
                        .pending
                        .into_iter()
                        .map(|p| (p.batch as usize, (p.summary, None)))
                        .collect(),
                });
            }
        }
    }

    let faults = &opts.faults;
    let mut since_write = 0usize;
    let mut write_attempts = 0usize;
    let mut writes = 0usize;
    let stats = stream_batches_resumable(
        study.trials,
        cfg.threads,
        batch_trials,
        opts.retry_budget,
        resume_state,
        || TrialScratch::for_demand(study),
        |range, scratch, attempt| {
            let batch = range.start / batch_trials;
            if let Some(kind) = faults.batch_fault(batch, attempt) {
                FaultPlan::fire(kind, &format!("batch {batch}"))?;
            }
            let mut acc = DemandStudySummary::empty(study);
            let mut kept = keep_trials.then(|| Vec::with_capacity(range.len()));
            for t in range {
                if let Some(kind) = faults.trial_fault(t, attempt) {
                    FaultPlan::fire(kind, &format!("trial {t}"))?;
                }
                let trial = study.run_trial_with_scratch(t, scratch);
                acc.record(&trial);
                if let Some(k) = &mut kept {
                    k.push(trial);
                }
            }
            Ok((acc, kept))
        },
        |ctx, (acc, kept): DemandAcc| {
            master.merge(&acc);
            if let Some(k) = kept {
                if let Some(observe) = sink.as_deref_mut() {
                    for trial in &k {
                        observe(trial);
                    }
                }
                if let Some(d) = &mut dump {
                    d.extend(k);
                }
            }
            on_progress(master.trials, &master);
            if let Some(spec) = &opts.checkpoint {
                since_write += 1;
                if since_write >= spec.every_batches.max(1) {
                    since_write = 0;
                    let snap = DemandSnapshot {
                        fingerprint: fingerprint.clone(),
                        frontier: ctx.batch as u64 + 1,
                        summary: master.clone(),
                        pending: ctx
                            .pending
                            .iter()
                            .map(|(b, (s, _))| PendingDemandBatch {
                                batch: *b as u64,
                                summary: s.clone(),
                            })
                            .collect(),
                        stats: checkpoint_stats(&carried, &ctx, master.trials, cfg.threads),
                    };
                    let fault = if faults.fail_checkpoint_write(write_attempts) {
                        WriteFault::TornTmp
                    } else {
                        WriteFault::None
                    };
                    write_attempts += 1;
                    snap.save(&spec.path, fault)?;
                    writes += 1;
                    if faults.should_kill(writes) {
                        return Err(EngineError::Killed { writes });
                    }
                }
            }
            Ok(())
        },
    )?;
    let stats = total_stats(stats, &carried, n_batches, master.trials);
    Ok((master, dump, stats))
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
    let batch_trials = cfg.batch_trials.max(1);
    let n_batches = study.trials.div_ceil(batch_trials);
    let fingerprint = colocation_fingerprint(study, batch_trials);
    let mut master = ColocationStudySummary::empty(study);
    let mut dump: Option<Vec<ColocationTrial>> = cfg.collect_trials.then(Vec::new);
    let mut carried = EngineStats::default();
    let mut resume_state: Option<ResumeState<ColocationAcc>> = None;
    if opts.resume {
        if let Some(spec) = &opts.checkpoint {
            if spec.path.exists() {
                let snap = ColocationSnapshot::load(&spec.path, &fingerprint)?;
                master = snap.summary;
                carried = snap.stats;
                resume_state = Some(ResumeState {
                    frontier: snap.frontier as usize,
                    pending: snap
                        .pending
                        .into_iter()
                        .map(|p| (p.batch as usize, (p.summary, None)))
                        .collect(),
                });
            }
        }
    }

    let faults = &opts.faults;
    let mut since_write = 0usize;
    let mut write_attempts = 0usize;
    let mut writes = 0usize;
    let stats = stream_batches_resumable(
        study.trials,
        cfg.threads,
        batch_trials,
        opts.retry_budget,
        resume_state,
        TrialScratch::new,
        |range, scratch, attempt| {
            let batch = range.start / batch_trials;
            if let Some(kind) = faults.batch_fault(batch, attempt) {
                FaultPlan::fire(kind, &format!("batch {batch}"))?;
            }
            let mut acc = ColocationStudySummary::empty(study);
            let mut kept = keep_trials.then(|| Vec::with_capacity(range.len()));
            for t in range {
                if let Some(kind) = faults.trial_fault(t, attempt) {
                    FaultPlan::fire(kind, &format!("trial {t}"))?;
                }
                let trial = study.run_trial_with_scratch(t, scratch);
                acc.record(&trial);
                if let Some(k) = &mut kept {
                    k.push(trial);
                }
            }
            Ok((acc, kept))
        },
        |ctx, (acc, kept): ColocationAcc| {
            master.merge(&acc);
            if let Some(k) = kept {
                if let Some(observe) = sink.as_deref_mut() {
                    for trial in &k {
                        observe(trial);
                    }
                }
                if let Some(d) = &mut dump {
                    d.extend(k);
                }
            }
            on_progress(master.trials, &master);
            if let Some(spec) = &opts.checkpoint {
                since_write += 1;
                if since_write >= spec.every_batches.max(1) {
                    since_write = 0;
                    let snap = ColocationSnapshot {
                        fingerprint: fingerprint.clone(),
                        frontier: ctx.batch as u64 + 1,
                        summary: master.clone(),
                        pending: ctx
                            .pending
                            .iter()
                            .map(|(b, (s, _))| PendingColocationBatch {
                                batch: *b as u64,
                                summary: s.clone(),
                            })
                            .collect(),
                        stats: checkpoint_stats(&carried, &ctx, master.trials, cfg.threads),
                    };
                    let fault = if faults.fail_checkpoint_write(write_attempts) {
                        WriteFault::TornTmp
                    } else {
                        WriteFault::None
                    };
                    write_attempts += 1;
                    snap.save(&spec.path, fault)?;
                    writes += 1;
                    if faults.should_kill(writes) {
                        return Err(EngineError::Killed { writes });
                    }
                }
            }
            Ok(())
        },
    )?;
    let stats = total_stats(stats, &carried, n_batches, master.trials);
    Ok((master, dump, stats))
}

/// The stats to embed in a checkpoint cut at `ctx`: cumulative through
/// the frontier, with scratch counters carried from completed runs only
/// (live worker counters are not observable mid-run).
fn checkpoint_stats<A>(
    carried: &EngineStats,
    ctx: &MergeCtx<'_, A>,
    merged_trials: u64,
    threads: usize,
) -> EngineStats {
    EngineStats {
        trials: merged_trials,
        batches: ctx.batch as u64 + 1,
        threads: threads.max(1) as u64,
        scratch: carried.scratch,
        max_reorder_depth: carried.max_reorder_depth,
        retries: carried.retries + ctx.retries,
        requeued_batches: carried.requeued_batches + ctx.requeued_batches,
    }
}

/// Folds a run's stats with the checkpointed stats it resumed from into
/// whole-study totals. `merged_trials` (the master summary's count) is
/// authoritative for `trials`: it covers executed, carried, *and*
/// reorder-buffer batches merged straight from the checkpoint.
fn total_stats(
    mut stats: EngineStats,
    carried: &EngineStats,
    n_batches: usize,
    merged_trials: u64,
) -> EngineStats {
    stats.trials = merged_trials;
    stats.batches = n_batches as u64;
    stats.retries += carried.retries;
    stats.requeued_batches += carried.requeued_batches;
    stats.scratch.merge(&carried.scratch);
    stats.max_reorder_depth = stats.max_reorder_depth.max(carried.max_reorder_depth);
    stats
}

/// Streams the demand study: per-worker arenas, in-order batch merges,
/// `on_progress(trials_so_far, &summary)` after every merge (for
/// convergence checkpoints and progress display).
///
/// Returns the summary, the per-trial dump when
/// [`EngineConfig::collect_trials`] is set, and the engine stats. The
/// summary is bit-identical to
/// [`DemandStudySummary::from_trials`] over the serially collected trials
/// at the same batch size, at any thread count.
///
/// # Panics
///
/// Propagates panics from worker threads (no retry budget on this
/// legacy path; see [`stream_demand_study_resumable`]).
pub fn stream_demand_study_observed(
    study: &DemandStudy,
    cfg: EngineConfig,
    on_progress: impl FnMut(u64, &DemandStudySummary),
) -> (DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats) {
    match stream_demand_study_resumable(study, cfg, &StudyOptions::default(), on_progress) {
        Ok(out) => out,
        Err(e) => panic!("study worker panicked: {e}"),
    }
}

/// [`stream_demand_study_observed`] without a progress callback.
pub fn stream_demand_study(
    study: &DemandStudy,
    cfg: EngineConfig,
) -> (DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats) {
    stream_demand_study_observed(study, cfg, |_, _| {})
}

/// Streams the colocation study; the colocation counterpart of
/// [`stream_demand_study_observed`].
///
/// # Panics
///
/// Propagates panics from worker threads (no retry budget on this
/// legacy path; see [`stream_colocation_study_resumable`]).
pub fn stream_colocation_study_observed(
    study: &ColocationStudy,
    cfg: EngineConfig,
    on_progress: impl FnMut(u64, &ColocationStudySummary),
) -> (
    ColocationStudySummary,
    Option<Vec<ColocationTrial>>,
    EngineStats,
) {
    match stream_colocation_study_resumable(study, cfg, &StudyOptions::default(), on_progress) {
        Ok(out) => out,
        Err(e) => panic!("study worker panicked: {e}"),
    }
}

/// [`stream_colocation_study_observed`] without a progress callback.
pub fn stream_colocation_study(
    study: &ColocationStudy,
    cfg: EngineConfig,
) -> (
    ColocationStudySummary,
    Option<Vec<ColocationTrial>>,
    EngineStats,
) {
    stream_colocation_study_observed(study, cfg, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BatchFault, FaultKind};

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
            stream_demand_study_observed(&study, cfg, |n, s| seen.push((n, s.trials)));
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
}
