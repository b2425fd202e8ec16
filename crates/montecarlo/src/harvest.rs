//! Training-set harvesting: turns Monte Carlo demand trials into
//! surrogate training rows.
//!
//! Each demand-study trial is a pure function of `(study, trial index)`,
//! so the harvest re-derives the trial's schedule, builds the
//! ground-truth [`PeakDemandGame`], featurizes every workload with
//! [`player_features_into`], and pairs the feature rows with the exact
//! solver's normalized Shapley shares. The result is one
//! [`HarvestRecord`] per trial — the `(workload features, schedule
//! features) → Shapley share` rows the surrogate ridge model trains on.
//!
//! Harvests stream through the same batched engine as the studies, with
//! no checkpoint and no retry budget: workers fan out over batches with
//! per-worker scratch arenas, and records are observed strictly in trial
//! order on the merge thread. The emitted JSONL is therefore
//! **byte-identical at any thread count** — the property the
//! `--dump-trials` harness and its 1/2/8-thread invariance test pin.

use std::io::{self, BufRead, Write};

use serde::{Deserialize, Serialize};

use fairco2_forecast::linalg::LinalgError;
use fairco2_shapley::exact::exact_shapley_fast_with_scratch;
use fairco2_shapley::game::{Game, PeakDemandGame};
use fairco2_shapley::surrogate::{
    player_features_into, SurrogateModel, SurrogateScratch, SurrogateTrainer, SURROGATE_FEATURES,
};

use crate::engine::{stream_batches_resumable, EngineStats};
use crate::schedules::DemandStudy;
use crate::scratch::{EngineScratch, ScratchStats, TrialScratch};

/// One trial's surrogate training rows: the schedule shape, the
/// grand-coalition value, and per-workload feature rows paired with the
/// exact solver's normalized shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarvestRecord {
    /// Trial index (== seed offset into the study).
    pub trial: usize,
    /// Time slices in the generated schedule.
    pub time_slices: usize,
    /// Workloads (players) in the generated schedule.
    pub workloads: usize,
    /// Grand-coalition value `v(N)` (the schedule's peak demand),
    /// bit-identical to evaluating the game on the grand coalition.
    pub grand_value: f64,
    /// `workloads × SURROGATE_FEATURES` row-major feature matrix from
    /// [`player_features_into`].
    pub features: Vec<f64>,
    /// Normalized ground-truth shares `φ_p / v(N)` from the exact
    /// solver, one per workload.
    pub shares: Vec<f64>,
}

impl HarvestRecord {
    /// The feature row of workload `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn feature_row(&self, p: usize) -> &[f64] {
        &self.features[p * SURROGATE_FEATURES..(p + 1) * SURROGATE_FEATURES]
    }

    /// Feeds this record's rows into a [`SurrogateTrainer`] (the replay
    /// path: harvest once, fit many models).
    pub fn record_into(&self, trainer: &mut SurrogateTrainer) {
        for p in 0..self.workloads {
            trainer.record_row(self.feature_row(p), self.shares[p]);
        }
    }
}

/// Per-worker arena for harvesting: the trial scratch (schedule
/// generation buffers + exact-solver table) plus the surrogate
/// featurization scratch.
#[derive(Debug, Default)]
pub struct HarvestScratch {
    trial: TrialScratch,
    surrogate: SurrogateScratch,
}

impl HarvestScratch {
    /// Scratch pre-grown for `study` (the exact table is sized for the
    /// study's maximum workload count up front).
    pub fn for_study(study: &DemandStudy) -> Self {
        Self {
            trial: TrialScratch::for_demand(study),
            surrogate: SurrogateScratch::new(),
        }
    }
}

impl EngineScratch for HarvestScratch {
    fn stats(&self) -> ScratchStats {
        self.trial.stats()
    }
}

/// Harvests a single trial: regenerates its schedule, featurizes every
/// workload, and solves the exact ground truth.
///
/// # Panics
///
/// Panics if the exact solver fails on a generated schedule — the
/// generator guarantees non-zero demand within the solver's player cap,
/// so a failure indicates a bug.
pub fn harvest_demand_trial(
    study: &DemandStudy,
    trial: usize,
    scratch: &mut HarvestScratch,
) -> HarvestRecord {
    let schedule = study.generate_schedule_with(trial, &mut scratch.trial);
    let game = PeakDemandGame::new(schedule.demand_matrix());
    let n = game.player_count();
    let v_n = player_features_into(&game, &mut scratch.surrogate);
    let phi = exact_shapley_fast_with_scratch(&game, &mut scratch.trial.exact)
        .expect("generated schedules are solvable");
    debug_assert!(v_n > 0.0, "generator guarantees non-zero demand");
    let shares = phi.iter().map(|&p| p / v_n).collect();
    scratch.trial.trials += 1;
    HarvestRecord {
        trial,
        time_slices: schedule.steps(),
        workloads: n,
        grand_value: v_n,
        features: scratch.surrogate.features().to_vec(),
        shares,
    }
}

/// Streams every trial of `study` through [`harvest_demand_trial`] across
/// `threads` workers and hands each record to `on_record` **in ascending
/// trial order** (the engine's in-order merge makes the observed stream
/// thread-count invariant). Returns the engine stats.
///
/// # Panics
///
/// Propagates a panicking trial as a panic whose message contains
/// `"study worker panicked"`.
pub fn harvest_demand_study_with(
    study: &DemandStudy,
    threads: usize,
    batch_trials: usize,
    mut on_record: impl FnMut(&HarvestRecord),
) -> EngineStats {
    stream_batches_resumable(
        study.trials,
        threads,
        batch_trials,
        0,
        None,
        || HarvestScratch::for_study(study),
        |range, scratch: &mut HarvestScratch, _attempt| {
            Ok(range
                .map(|t| harvest_demand_trial(study, t, scratch))
                .collect::<Vec<_>>())
        },
        |_ctx, records: Vec<HarvestRecord>| {
            records.iter().for_each(&mut on_record);
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("study worker panicked: {e}"))
}

/// What a JSONL harvest did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarvestStats {
    /// Records (trials) written.
    pub records: u64,
    /// Training rows (Σ workloads over all records) written.
    pub rows: u64,
    /// Engine stats of the underlying batched run.
    pub engine: EngineStats,
}

/// Harvests `study` to JSONL — one [`HarvestRecord`] per line, in trial
/// order. Because records are serialized and written on the merge thread
/// in merge order, the output bytes are identical at any thread count.
///
/// # Errors
///
/// Propagates the first write error; the harvest stops at that point.
pub fn harvest_demand_study_jsonl(
    study: &DemandStudy,
    threads: usize,
    batch_trials: usize,
    out: &mut dyn Write,
) -> io::Result<HarvestStats> {
    let mut records = 0u64;
    let mut rows = 0u64;
    let mut write_error: Option<io::Error> = None;
    let engine = harvest_demand_study_with(study, threads, batch_trials, |record| {
        if write_error.is_some() {
            return;
        }
        let line = serde_json::to_string(record).expect("harvest records serialize");
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            write_error = Some(e);
            return;
        }
        records += 1;
        rows += record.workloads as u64;
    });
    match write_error {
        Some(e) => Err(e),
        None => Ok(HarvestStats {
            records,
            rows,
            engine,
        }),
    }
}

/// Reads a JSONL harvest back (the replay path: harvest once on many
/// cores, fit models offline).
///
/// # Errors
///
/// Propagates read errors; malformed lines surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_harvest_jsonl(input: &mut dyn BufRead) -> io::Result<Vec<HarvestRecord>> {
    let mut records = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: HarvestRecord = serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        records.push(record);
    }
    Ok(records)
}

/// Fits a surrogate model from harvested records (feeds every record's
/// rows into one shared-Gram trainer, then solves).
///
/// # Errors
///
/// Returns the underlying [`LinalgError`] when the Gram matrix stays
/// singular through jitter escalation (e.g. too few records).
pub fn fit_surrogate<'a>(
    records: impl IntoIterator<Item = &'a HarvestRecord>,
    lambda: f64,
) -> Result<SurrogateModel, LinalgError> {
    let mut trainer = SurrogateTrainer::new();
    for r in records {
        r.record_into(&mut trainer);
    }
    trainer.fit(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> DemandStudy {
        DemandStudy {
            trials: 23,
            max_workloads: 8,
            ..DemandStudy::default()
        }
    }

    #[test]
    fn records_arrive_in_trial_order_with_consistent_shapes() {
        let study = small_study();
        let mut seen = Vec::new();
        let stats = harvest_demand_study_with(&study, 3, 4, |r| seen.push(r.clone()));
        assert_eq!(stats.trials, study.trials as u64);
        assert_eq!(seen.len(), study.trials);
        for (k, r) in seen.iter().enumerate() {
            assert_eq!(r.trial, k);
            assert_eq!(r.features.len(), r.workloads * SURROGATE_FEATURES);
            assert_eq!(r.shares.len(), r.workloads);
            assert!(r.grand_value > 0.0);
            // Normalized shares satisfy efficiency: Σ φ_p/v(N) ≈ 1.
            let total: f64 = r.shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "share sum {total}");
        }
    }

    #[test]
    fn harvest_matches_ground_truth_attribution() {
        use fairco2::demand::{DemandAttributor, GroundTruthShapley};
        let study = small_study();
        let mut scratch = HarvestScratch::for_study(&study);
        let record = harvest_demand_trial(&study, 5, &mut scratch);
        // The study's own ground-truth path normalizes φ by Σφ instead of
        // v(N); the two agree to solver precision.
        let schedule = study.generate_schedule(5);
        let truth = GroundTruthShapley
            .attribute(&schedule, 1.0)
            .expect("solvable");
        for (a, b) in record.shares.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let study = small_study();
        let mut buf = Vec::new();
        let stats = harvest_demand_study_jsonl(&study, 2, 8, &mut buf).expect("in-memory write");
        assert_eq!(stats.records, study.trials as u64);
        assert!(stats.rows >= stats.records);
        let records = read_harvest_jsonl(&mut buf.as_slice()).expect("parse back");
        assert_eq!(records.len(), study.trials);
        let mut direct = Vec::new();
        harvest_demand_study_with(&study, 1, 8, |r| direct.push(r.clone()));
        assert_eq!(records, direct);
    }

    #[test]
    fn harvested_model_fits_and_predicts_finite_shares() {
        let study = DemandStudy {
            trials: 60,
            max_workloads: 6,
            ..DemandStudy::default()
        };
        let mut records = Vec::new();
        harvest_demand_study_with(&study, 2, 16, |r| records.push(r.clone()));
        let model = fit_surrogate(&records, 1e-6).expect("enough rows to fit");
        let mut pred = vec![0.0; 2];
        for r in &records {
            for p in 0..r.workloads {
                model.ridge().predict_into(r.feature_row(p), &mut pred);
                assert!(pred.iter().all(|v| v.is_finite()));
            }
        }
    }
}
