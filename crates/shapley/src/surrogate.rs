//! Surrogate-accelerated Shapley attribution with an error-bounded sampled
//! fallback.
//!
//! Exact and sampled Shapley solvers pay per-coalition evaluation costs
//! that dominate Monte Carlo studies. Following the learned-predictor
//! approach of "Deep Learning-Accelerated Shapley Value for Fair
//! Allocation in Power Systems" (see PAPERS.md) — but with the repo's own
//! ridge machinery instead of a neural network — this module serves
//! peak-demand-game attributions in `O(features)` per workload:
//!
//! 1. **Featurization** ([`player_features_into`]): each player is
//!    described by dimensionless schedule features (its temporal-Shapley
//!    proxy share, RUP share, demand-proportional share, peak fraction,
//!    demand at the aggregate peak, mean-demand fraction, and duration
//!    fraction), all normalized by the grand-coalition peak `v(N)` so the
//!    model transfers across schedule scales.
//! 2. **Prediction** ([`SurrogateModel`]): a multi-target ridge model
//!    (shared-Gram Cholesky fit from [`fairco2_forecast::ridge`]) maps
//!    features to the normalized Shapley share *and* to the surrogate's
//!    own expected absolute error. The error channel is **cross-fitted**:
//!    the trainer splits its rows into two deterministic folds, fits a
//!    share-only model on each fold, measures that model's held-out
//!    error on the other fold, and regresses those out-of-fold errors —
//!    so the channel estimates the error of a model that never saw the
//!    row, not an optimistic in-sample residual.
//! 3. **Residual bound + fallback** ([`SurrogateAttributor`]): the served
//!    prediction's efficiency-axiom gap (`|Σφ̂ − v(N)|`, relative — the
//!    same quantity [`crate::axioms::check_efficiency`] tests) is combined
//!    with the predicted error channel into a cheap residual bound. If
//!    the bound exceeds the tolerance, the trial falls back to
//!    [`parallel_sampled_shapley`] at one thread (2,000 permutations by
//!    default) with a per-trial deterministic seed; otherwise the
//!    prediction is conservation-renormalized so it satisfies efficiency
//!    *exactly*. A tolerance of zero disables the surrogate entirely,
//!    collapsing to that sampled estimate bit-for-bit.
//!
//! Every decision is a pure function of `(model, game, trial)` — no
//! shared state, no RNG outside the fallback's per-trial seed — so
//! attribution is deterministic and bit-identical at any thread count,
//! like every other parallel path in this repo.

use serde::{Deserialize, Serialize};

use fairco2_forecast::linalg::LinalgError;
use fairco2_forecast::ridge::{MultiRidge, RidgeTrainer};

use crate::game::{Game, PeakDemandGame};
use crate::parallel::{parallel_sampled_shapley, ParallelConfig};
use crate::sampled::{SampleConfig, ShapleyEstimate};
use crate::temporal::peak_shapley_into;

/// Number of per-player features fed to the surrogate.
pub const SURROGATE_FEATURES: usize = 16;

/// Number of regression targets: the normalized Shapley share and the
/// cross-fitted absolute prediction error (the learned error channel).
pub const SURROGATE_TARGETS: usize = 2;

/// Reusable buffers for featurization and serving: one warm scratch
/// serves any number of games without heap allocation.
#[derive(Debug, Default, Clone)]
pub struct SurrogateScratch {
    /// Aggregate demand per time step.
    agg: Vec<f64>,
    /// Per-step Shapley share of the step-peak game over `agg`.
    step_phi: Vec<f64>,
    /// Sort buffer for [`peak_shapley_into`].
    order: Vec<usize>,
    /// `n × SURROGATE_FEATURES` row-major feature matrix.
    features: Vec<f64>,
    /// Per-target prediction buffer.
    pred: Vec<f64>,
}

impl SurrogateScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The feature matrix left by the last [`player_features_into`] call
    /// (`n × SURROGATE_FEATURES`, row-major) — the rows a harvest
    /// serializes.
    pub fn features(&self) -> &[f64] {
        &self.features
    }
}

/// Computes the per-player feature matrix for `game` into
/// `scratch.features` (`n × SURROGATE_FEATURES`, row-major) and returns
/// the grand-coalition value `v(N)`.
///
/// The aggregate-demand accumulation performs, per time step, exactly the
/// player-ordered additions of `game.value(&Coalition::grand(n))`, so the
/// returned `v(N)` is bit-identical to evaluating the game — the
/// efficiency gap computed against it matches
/// [`crate::axioms::check_efficiency`] exactly.
pub fn player_features_into(game: &PeakDemandGame, scratch: &mut SurrogateScratch) -> f64 {
    let n = game.player_count();
    let steps = game.steps();
    let demand = game.demand();

    scratch.agg.clear();
    scratch.agg.resize(steps, 0.0);
    // Sum players in index order per step (matches `Game::value` on the
    // grand coalition bit-for-bit).
    for row in demand {
        for (a, d) in scratch.agg.iter_mut().zip(row) {
            *a += d;
        }
    }
    let mut v_n = 0.0f64;
    let mut peak_step = 0usize;
    for (t, &a) in scratch.agg.iter().enumerate() {
        if a > v_n {
            v_n = a;
            peak_step = t;
        }
    }

    scratch.features.clear();
    scratch.features.resize(n * SURROGATE_FEATURES, 0.0);
    if v_n <= 0.0 {
        // Degenerate all-zero schedule: all features stay zero.
        return v_n;
    }

    // Per-step capacity pricing: Shapley of the step-peak game over the
    // aggregate series (the temporal-Shapley signal at step granularity).
    peak_shapley_into(&scratch.agg, &mut scratch.order, &mut scratch.step_phi);

    let total_all: f64 = scratch.agg.iter().sum();
    let sum_sq: f64 = scratch.agg.iter().map(|a| a * a).sum();

    let inv_n = 1.0 / n as f64;
    for (p, row) in demand.iter().enumerate() {
        let mut own_total = 0.0f64;
        let mut own_peak = 0.0f64;
        let mut active = 0usize;
        let mut temporal = 0.0f64;
        let mut dp_weighted = 0.0f64;
        // Peak of everyone else's aggregate: `v(N ∖ {p})`, the O(T)
        // complement that turns the last-position marginal into a
        // feature.
        let mut others_peak = 0.0f64;
        for (t, &d) in row.iter().enumerate() {
            others_peak = others_peak.max(scratch.agg[t] - d);
            if d != 0.0 {
                own_total += d;
                active += 1;
                if d > own_peak {
                    own_peak = d;
                }
                // Price each step's capacity share by the player's
                // fraction of that step's aggregate demand.
                temporal += d / scratch.agg[t] * scratch.step_phi[t];
                dp_weighted += d * scratch.agg[t];
            }
        }
        let f = &mut scratch.features[p * SURROGATE_FEATURES..(p + 1) * SURROGATE_FEATURES];
        let temporal_share = temporal / v_n;
        let peak_frac = own_peak / v_n;
        // Shapley averages positional marginals; for this (near-
        // submodular) peak game the last-position marginal and the
        // standalone peak bracket the share, so both enter as features.
        let marginal_last = (v_n - others_peak) / v_n;
        f[0] = 1.0; // intercept
        f[1] = temporal_share; // temporal-Shapley proxy share
        f[2] = if total_all > 0.0 {
            own_total / total_all // RUP (resource-usage-proportional) share
        } else {
            0.0
        };
        f[3] = if sum_sq > 0.0 {
            dp_weighted / sum_sq // demand-proportional share
        } else {
            0.0
        };
        f[4] = peak_frac; // standalone peak (first-position marginal)
        f[5] = row[peak_step] / v_n; // demand at the aggregate peak
        f[6] = own_total / (v_n * steps as f64); // mean-demand fraction
        f[7] = active as f64 / steps as f64; // duration fraction
        f[8] = marginal_last; // last-position marginal share
        f[9] = temporal_share * temporal_share; // proxy curvature
        f[10] = temporal_share * inv_n; // proxy × crowding interaction
        f[11] = inv_n; // equal-split share
                       // Bracket geometry: where the first/last-marginal bracket is
                       // wide the linear proxies disagree most, so curvature and
                       // width interactions carry the correction.
        let width = peak_frac - marginal_last;
        f[12] = peak_frac * marginal_last; // bracket product
        f[13] = width * width; // bracket width curvature
        f[14] = temporal_share * width; // proxy × bracket width
        f[15] = marginal_last * marginal_last; // marginal curvature
    }
    v_n
}

/// Trainer: records `(features, share)` rows per player from games with
/// known ground-truth attributions, then fits the shared-Gram
/// multi-target ridge model with a cross-fitted error channel.
///
/// Rows are retained (`O(rows × features)` memory) because the error
/// channel needs a second pass: out-of-fold errors only exist once the
/// fold models are fitted.
#[derive(Debug, Default)]
pub struct SurrogateTrainer {
    /// Retained feature rows, `rows × SURROGATE_FEATURES` row-major.
    features: Vec<f64>,
    /// Ground-truth normalized share per retained row.
    shares: Vec<f64>,
    scratch: SurrogateScratch,
    games: usize,
}

impl SurrogateTrainer {
    /// Empty trainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one training game with its ground-truth Shapley values
    /// (raw shares, e.g. from the exact solver). Zero-demand games are
    /// skipped — they carry no signal.
    ///
    /// # Panics
    ///
    /// Panics if `truth` does not have one value per player.
    pub fn record(&mut self, game: &PeakDemandGame, truth: &[f64]) {
        let n = game.player_count();
        assert_eq!(truth.len(), n, "one ground-truth share per player");
        let v_n = player_features_into(game, &mut self.scratch);
        if v_n <= 0.0 {
            return;
        }
        for (f, &phi) in self
            .scratch
            .features
            .chunks_exact(SURROGATE_FEATURES)
            .zip(truth)
        {
            self.features.extend_from_slice(f);
            self.shares.push(phi / v_n);
        }
        self.games += 1;
    }

    /// Records one pre-featurized row (e.g. replayed from a JSONL
    /// harvest): `features` must be a [`SURROGATE_FEATURES`]-length row
    /// and `share` the *normalized* ground-truth share `φ_p / v(N)`.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong length.
    pub fn record_row(&mut self, features: &[f64], share: f64) {
        assert_eq!(features.len(), SURROGATE_FEATURES, "feature row length");
        self.features.extend_from_slice(features);
        self.shares.push(share);
    }

    /// Player rows recorded so far.
    pub fn rows(&self) -> usize {
        self.shares.len()
    }

    /// Games recorded via [`SurrogateTrainer::record`].
    pub fn games(&self) -> usize {
        self.games
    }

    /// Fits the surrogate: the share channel on every row, the error
    /// channel on cross-fitted out-of-fold absolute errors.
    ///
    /// Rows are split into two folds by row parity (deterministic: no
    /// RNG, so the fitted model is a pure function of the recorded
    /// rows). A share-only model fitted on each fold is evaluated on the
    /// *other* fold; those held-out errors become the second target of
    /// the final fit over all rows.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`LinalgError`] when a Gram matrix stays
    /// singular through jitter escalation (e.g. too few training rows —
    /// cross-fitting needs a fittable model on each half).
    pub fn fit(&self, lambda: f64) -> Result<SurrogateModel, LinalgError> {
        let rows = self.shares.len();
        let row = |i: usize| &self.features[i * SURROGATE_FEATURES..(i + 1) * SURROGATE_FEATURES];

        // Fold models: each sees only rows of the *other* parity.
        let mut fold_models = Vec::with_capacity(2);
        for fold in 0..2 {
            let mut t = RidgeTrainer::new(SURROGATE_FEATURES, 1);
            for i in (0..rows).filter(|i| i % 2 != fold) {
                t.record(row(i), &self.shares[i..=i]);
            }
            fold_models.push(t.fit(lambda, false)?);
        }

        // Final fit: shares from the ground truth, errors from the
        // out-of-fold predictions.
        let mut pred = [0.0f64];
        let mut t = RidgeTrainer::new(SURROGATE_FEATURES, SURROGATE_TARGETS);
        for i in 0..rows {
            fold_models[i % 2].predict_into(row(i), &mut pred);
            let err = (self.shares[i] - pred[0]).abs();
            t.record(row(i), &[self.shares[i], err]);
        }
        Ok(SurrogateModel {
            ridge: t.fit(lambda, false)?,
        })
    }
}

/// A fitted surrogate: predicts `[normalized share, expected absolute
/// prediction error]` per player from schedule features. The error
/// channel is cross-fitted (see [`SurrogateTrainer::fit`]), so it
/// estimates out-of-sample error, not in-sample residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateModel {
    ridge: MultiRidge,
}

impl SurrogateModel {
    /// The underlying ridge model.
    pub fn ridge(&self) -> &MultiRidge {
        &self.ridge
    }
}

/// Result of one surrogate attribution.
#[derive(Debug, Clone)]
pub struct SurrogateOutcome {
    /// Attributed value per player. Surrogate-served outcomes are
    /// conservation-renormalized to sum to `v(N)` exactly; fallback
    /// outcomes are the raw sampled estimates, bit-identical to
    /// [`SurrogateAttributor::fallback_estimate`].
    pub values: Vec<f64>,
    /// Grand-coalition value `v(N)`.
    pub grand_value: f64,
    /// Pre-renormalization efficiency-axiom gap of the raw prediction,
    /// relative to `max(|v(N)|, 1)` — the first half of the residual
    /// bound.
    pub efficiency_gap: f64,
    /// Largest predicted per-player error (the learned error channel) —
    /// the second half of the residual bound.
    pub predicted_error: f64,
    /// Whether the trial fell back to the sampled estimate.
    pub fell_back: bool,
}

impl SurrogateOutcome {
    /// The residual bound the fallback decision used.
    pub fn residual_bound(&self) -> f64 {
        self.efficiency_gap.max(self.predicted_error)
    }
}

/// Serves Shapley attributions from a [`SurrogateModel`] with an
/// error-bounded fallback to [`parallel_sampled_shapley`].
///
/// Attribution is a pure function of `(attributor, game, trial)`:
/// fallback decisions and outputs are deterministic and bit-identical at
/// any thread count or trial-partitioning.
#[derive(Debug, Clone)]
pub struct SurrogateAttributor {
    model: SurrogateModel,
    /// Residual-bound tolerance: serve the surrogate only when
    /// `max(efficiency gap, predicted error) ≤ tolerance`. Zero disables
    /// the surrogate (every trial falls back).
    pub tolerance: f64,
    /// The fallback's sampler: default sampling at one thread, no
    /// coalition cache.
    fallback: ParallelConfig,
    /// Base seed; trial `k` falls back with seed `base_seed + k`,
    /// mirroring the Monte Carlo engine's per-trial seeding.
    pub base_seed: u64,
}

impl SurrogateAttributor {
    /// Default base seed for fallback sampling.
    pub const DEFAULT_SEED: u64 = 0x5A_C0DE;

    /// Attributor with the default fallback configuration.
    pub fn new(model: SurrogateModel, tolerance: f64) -> Self {
        Self {
            model,
            tolerance,
            fallback: ParallelConfig::serial(SampleConfig::default()),
            base_seed: Self::DEFAULT_SEED,
        }
    }

    /// The model being served.
    pub fn model(&self) -> &SurrogateModel {
        &self.model
    }

    /// Attributes one game, allocating fresh buffers.
    pub fn attribute(&self, game: &PeakDemandGame, trial: u64) -> SurrogateOutcome {
        let mut scratch = SurrogateScratch::new();
        self.attribute_with(game, trial, &mut scratch)
    }

    /// Attributes one game using caller-owned scratch buffers.
    pub fn attribute_with(
        &self,
        game: &PeakDemandGame,
        trial: u64,
        scratch: &mut SurrogateScratch,
    ) -> SurrogateOutcome {
        let n = game.player_count();
        let v_n = player_features_into(game, scratch);
        if v_n <= 0.0 {
            // Nothing to attribute; trivially efficient.
            return SurrogateOutcome {
                values: vec![0.0; n],
                grand_value: v_n,
                efficiency_gap: 0.0,
                predicted_error: 0.0,
                fell_back: false,
            };
        }

        scratch.pred.clear();
        scratch.pred.resize(SURROGATE_TARGETS, 0.0);
        let mut values = Vec::with_capacity(n);
        let mut sum = 0.0f64;
        let mut predicted_error = 0.0f64;
        for p in 0..n {
            let f = &scratch.features[p * SURROGATE_FEATURES..(p + 1) * SURROGATE_FEATURES];
            self.model.ridge.predict_into(f, &mut scratch.pred);
            // Shares are physically non-negative; clamp stray negative
            // predictions before the conservation step.
            let share = scratch.pred[0].max(0.0);
            predicted_error = predicted_error.max(scratch.pred[1].max(0.0));
            let value = share * v_n;
            sum += value;
            values.push(value);
        }

        // Residual bound, half 1: the efficiency-axiom gap of the raw
        // prediction (same normalization as `check_efficiency`).
        let efficiency_gap = (sum - v_n).abs() / v_n.abs().max(1.0);
        let bound = efficiency_gap.max(predicted_error);
        let serve = self.tolerance > 0.0 && bound <= self.tolerance && sum > 0.0;
        if serve {
            // Conservation renormalization: scale shares so the served
            // attribution satisfies efficiency exactly.
            let scale = v_n / sum;
            for v in &mut values {
                *v *= scale;
            }
            return SurrogateOutcome {
                values,
                grand_value: v_n,
                efficiency_gap,
                predicted_error,
                fell_back: false,
            };
        }

        let estimate = self.fallback_estimate(game, trial);
        SurrogateOutcome {
            values: estimate.values,
            grand_value: v_n,
            efficiency_gap,
            predicted_error,
            fell_back: true,
        }
    }

    /// The sampled fallback on its own: [`parallel_sampled_shapley`]
    /// under [`ParallelConfig::serial`] with the default
    /// [`SampleConfig`], seeded `base_seed + trial`.
    pub fn fallback_estimate(&self, game: &PeakDemandGame, trial: u64) -> ShapleyEstimate {
        parallel_sampled_shapley(game, &self.fallback, self.base_seed.wrapping_add(trial)).estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::check_efficiency;
    use crate::exact::exact_shapley;

    fn demo_game(shift: usize) -> PeakDemandGame {
        let mut demand = vec![vec![0.0; 6]; 4];
        for (p, row) in demand.iter_mut().enumerate() {
            for (t, d) in row.iter_mut().enumerate() {
                *d = ((p * 5 + t * 3 + shift) % 7) as f64;
            }
        }
        PeakDemandGame::new(demand)
    }

    fn trained_model() -> SurrogateModel {
        let mut trainer = SurrogateTrainer::new();
        for shift in 0..40 {
            let game = demo_game(shift);
            let truth = exact_shapley(&game).expect("small game");
            trainer.record(&game, &truth);
        }
        trainer.fit(1e-6).expect("fit")
    }

    #[test]
    fn features_normalize_and_grand_value_matches_game() {
        use crate::coalition::Coalition;
        let game = demo_game(1);
        let mut scratch = SurrogateScratch::new();
        let v_n = player_features_into(&game, &mut scratch);
        let direct = game.value(&Coalition::grand(game.player_count()));
        assert_eq!(v_n.to_bits(), direct.to_bits(), "v(N) bit-identity");
        // The temporal-proxy shares (feature 1) sum to 1: the step game
        // distributes each step's capacity among its occupants.
        let proxy_sum: f64 = (0..game.player_count())
            .map(|p| scratch.features[p * SURROGATE_FEATURES + 1])
            .sum();
        assert!((proxy_sum - 1.0).abs() < 1e-9, "proxy sum {proxy_sum}");
    }

    #[test]
    fn served_outcomes_satisfy_efficiency_exactly() {
        let attributor = SurrogateAttributor::new(trained_model(), 0.5);
        let mut scratch = SurrogateScratch::new();
        let mut served = 0;
        for shift in 100..130 {
            let game = demo_game(shift);
            let outcome = attributor.attribute_with(&game, shift as u64, &mut scratch);
            if !outcome.fell_back {
                served += 1;
                assert!(check_efficiency(&game, &outcome.values, 1e-9).holds());
            }
        }
        assert!(served > 0, "a 0.5 tolerance should serve some trials");
    }

    #[test]
    fn zero_tolerance_collapses_to_sampled_fallback() {
        let attributor = SurrogateAttributor::new(trained_model(), 0.0);
        let game = demo_game(7);
        let outcome = attributor.attribute(&game, 7);
        assert!(outcome.fell_back);
        let direct = attributor.fallback_estimate(&game, 7);
        for (a, b) in outcome.values.iter().zip(&direct.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "fallback bit-identity");
        }
    }
}
