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
//! Harvests stream through [`stream_study`], the engine every study
//! runs through, with no checkpoint and no retry budget: workers share
//! the trials of open batches, each through its own scratch arena, and
//! records are observed strictly in trial order on the merge thread. The
//! observed records are therefore **bit-identical at any thread count**
//! (pinned at 1, 2 and 8 threads by `tests/harvest_invariance.rs`).

use fairco2_forecast::linalg::LinalgError;
use fairco2_shapley::exact::exact_shapley_fast_with_scratch;
use fairco2_shapley::game::{Game, PeakDemandGame};
use fairco2_shapley::surrogate::{
    player_features_into, SurrogateModel, SurrogateScratch, SurrogateTrainer, SURROGATE_FEATURES,
};

use crate::checkpoint::fingerprint;
use crate::engine::{stream_study, EngineConfig, EngineStats, StudyOptions};
use crate::schedules::DemandStudy;
use crate::scratch::{EngineScratch, ScratchStats, TrialScratch};

/// One trial's surrogate training rows: the schedule shape, the
/// grand-coalition value, and per-workload feature rows paired with the
/// exact solver's normalized shares.
#[derive(Debug, Clone, PartialEq)]
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
/// generation buffers + the exact solver's φ buffer) plus the surrogate
/// featurization scratch.
#[derive(Debug, Default)]
pub struct HarvestScratch {
    trial: TrialScratch,
    surrogate: SurrogateScratch,
}

impl HarvestScratch {
    /// Scratch pre-grown for `study` (the exact solver's φ buffer is
    /// sized for the study's maximum workload count up front).
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
/// The harvest runs through [`stream_study`] with no checkpoint and no
/// retry budget: each trial is one engine item, a batch's record count
/// is its accumulator, and the records themselves ride beside it as
/// per-batch output.
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
    let cfg = EngineConfig {
        threads,
        batch_trials,
        collect_trials: false,
    };
    let (_, stats) = stream_study(
        study.trials,
        &fingerprint("harvest", study, batch_trials),
        cfg,
        &StudyOptions::default(),
        0u64,
        || HarvestScratch::for_study(study),
        |t, scratch: &mut HarvestScratch, _attempt| Ok(harvest_demand_trial(study, t, scratch)),
        |_, records| (records.len() as u64, records),
        |count, n, records| {
            *count += n;
            records.iter().flatten().for_each(&mut on_record);
        },
    )
    .unwrap_or_else(|e| panic!("study worker panicked: {e}"));
    stats
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
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.scratch.trials, 23);
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
    #[should_panic(expected = "study worker panicked")]
    fn panicking_trials_surface_as_a_worker_panic() {
        // Inverted time-slice bounds fail every trial's generator assert.
        let study = DemandStudy {
            min_time_slices: 5,
            max_time_slices: 4,
            ..small_study()
        };
        harvest_demand_study_with(&study, 2, 4, |_| {});
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
