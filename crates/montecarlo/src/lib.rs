//! Monte Carlo evaluation harness (paper Section 6.3).
//!
//! Two studies, mirroring the paper's:
//!
//! * [`schedules`] — 10,000 random workload schedules with dynamic demand
//!   (≤ 22 workloads, 4–9 time slices, 1–5 concurrent workloads,
//!   allocations from {8, 16, 32, 48, 64, 80, 96} cores, durations of 1–3
//!   slices). Embodied carbon is attributed by the RUP-Baseline, the
//!   demand-proportional baseline, and Fair-CO₂'s Temporal Shapley, each
//!   compared against the exact workload-level Shapley ground truth
//!   (Figure 7).
//! * [`colocations`] — 10,000 random colocation scenarios (4–100
//!   workloads drawn from the 15-workload suite, random pairing, grid CI
//!   swept 0–1000 gCO₂e/kWh, historical sampling rate 1–15 of 15).
//!   Attributions by the RUP-Baseline and Fair-CO₂'s interference-aware
//!   method are compared against the exact matching-game Shapley
//!   (Figures 8 and 9).
//!
//! Trial `k` always uses seed `base_seed + k`, so results are
//! reproducible at any parallelism. Full-scale runs go through the
//! streaming study engine instead of collecting trials:
//!
//! * [`scratch`] — per-worker [`TrialScratch`] arenas (exact-solver φ
//!   buffer, share vectors, generation buffers), so a 10,000-trial run
//!   allocates `O(threads)` times rather than `O(trials)`;
//! * [`streaming`] — constant-memory summary accumulators (Welford
//!   moments, worst-case maxima, deviation histograms for the CDF
//!   figures) merged batch-by-batch in a fixed order;
//! * [`engine`] — drives both: batches fan out across workers, are merged
//!   in batch order, and the resulting summaries are bit-identical to the
//!   collect-then-summarize path at any thread count. Studies can also
//!   attach a streaming per-trial sink (the `--dump-trials` JSONL path)
//!   that observes every trial in trial order without `O(trials)` memory.
//!   [`stream_study`] is the one resumable entry point: every study, including
//!   the Azure-scale co-simulation in `fairco2-bench`, checkpoints and
//!   resumes through it with one [`Snapshot`] type;
//! * [`harvest`] — the surrogate training-set pipeline: replays each
//!   trial's schedule into `(workload features, exact Shapley share)`
//!   rows and streams them to JSONL, byte-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod colocations;
pub mod engine;
pub mod faults;
pub mod harvest;
pub mod schedules;
pub mod scratch;
pub mod streaming;

pub use checkpoint::{
    write_durable_atomic, CheckpointError, CheckpointSpec, Snapshot, WriteFault, CHECKPOINT_VERSION,
};
pub use colocations::{ColocationStudy, ColocationTrial};
pub use engine::{
    stream_colocation_study, stream_colocation_study_resumable, stream_colocation_study_with_sink,
    stream_demand_study, stream_demand_study_resumable, stream_demand_study_with_sink,
    stream_study, BatchFailure, EngineConfig, EngineError, EngineStats, StudyOptions,
};
pub use faults::{BatchFault, FaultKind, FaultPlan, TrialFault};
pub use harvest::{
    fit_surrogate, harvest_demand_study_jsonl, harvest_demand_study_with, harvest_demand_trial,
    read_harvest_jsonl, HarvestRecord, HarvestScratch, HarvestStats,
};
pub use schedules::{DemandStudy, DemandTrial};
pub use scratch::{EngineScratch, NoScratch, ScratchStats, TrialScratch};
pub use streaming::{ColocationStudySummary, DemandStudySummary, Histogram, StatStream, Welford};
