//! Embodied-carbon attribution methods for demand schedules.
//!
//! All methods fully attribute the same carbon pool (efficiency), so their
//! fairness can be compared purely on how they *split* it:
//!
//! * [`RupBaseline`] — the Resource Utilization Proportional baseline of
//!   Section 3 (Google operational accounting + GSF SCI): a workload's
//!   share is its allocation × time, blind to *when* it ran.
//! * [`DemandProportional`] — the demand-aware strawman of Section 7.1:
//!   carbon intensity at each instant is proportional to aggregate demand.
//! * [`TemporalFairCo2`] — Fair-CO₂'s Temporal Shapley (Section 5.1):
//!   periods are players in the peak game; intensity follows Eq. 5.
//! * [`GroundTruthShapley`] — workloads are players in the peak-demand
//!   game, solved exactly (Section 4); exponential cost, ≤ 24 workloads.

use std::fmt;

use fairco2_shapley::exact::{exact_shapley_fast_with_scratch, ExactError, ExactScratch};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::{SampleConfig, ShapleyEstimate};
use fairco2_shapley::temporal::TemporalShapley;

use crate::schedule::Schedule;

/// Error from a demand attribution method.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandError {
    /// The exact ground-truth solver refused the game.
    Exact(ExactError),
    /// The schedule cannot be split into the configured hierarchy.
    Hierarchy(String),
    /// The schedule has zero total demand, so proportional methods are
    /// undefined.
    ZeroDemand,
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::Exact(e) => write!(f, "ground-truth solver: {e}"),
            DemandError::Hierarchy(m) => write!(f, "temporal hierarchy: {m}"),
            DemandError::ZeroDemand => write!(f, "schedule has zero demand"),
        }
    }
}

impl std::error::Error for DemandError {}

impl From<ExactError> for DemandError {
    fn from(e: ExactError) -> Self {
        DemandError::Exact(e)
    }
}

/// An embodied-carbon attribution method over demand schedules.
///
/// Implementations return one gCO₂e share per workload, in schedule
/// order, summing to `total_carbon` (up to floating-point error).
pub trait DemandAttributor {
    /// Human-readable method name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Attributes `total_carbon` among the schedule's workloads.
    ///
    /// # Errors
    ///
    /// Returns a [`DemandError`] if the method cannot handle the schedule
    /// (see each implementation).
    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError>;

    /// [`attribute`](Self::attribute) writing into a caller-owned,
    /// reusable share vector (cleared first), so trial loops can amortize
    /// the output allocation. Implementations override this to skip the
    /// intermediate `Vec` entirely; results are bit-identical to
    /// [`attribute`](Self::attribute) either way.
    ///
    /// On error `out` is left cleared or partially written — callers must
    /// not read it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`attribute`](Self::attribute).
    fn attribute_into(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        out.clear();
        out.extend(self.attribute(schedule, total_carbon)?);
        Ok(())
    }
}

/// Scales the weights accumulated in `out` so they sum to `total_carbon`,
/// rejecting non-positive weight totals — the shared tail of every
/// proportional method, kept in one place so `attribute` and
/// `attribute_into` stay bit-identical.
fn normalize_shares(out: &mut [f64], total_carbon: f64) -> Result<(), DemandError> {
    let total: f64 = out.iter().sum();
    if total <= 0.0 {
        return Err(DemandError::ZeroDemand);
    }
    for w in out {
        *w = total_carbon * *w / total;
    }
    Ok(())
}

/// Ground truth: each workload is a player in the peak-demand game
/// (Section 4); shares are exact Shapley values of the peak, scaled to the
/// carbon pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruthShapley;

impl GroundTruthShapley {
    /// [`attribute`](DemandAttributor::attribute) through a reusable
    /// [`ExactScratch`] and share vector — the per-worker arena path of
    /// the Monte Carlo engine. Bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`attribute`](DemandAttributor::attribute).
    pub fn attribute_with_scratch(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        scratch: &mut ExactScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let phi = exact_shapley_fast_with_scratch(&game, scratch)?;
        out.clear();
        out.extend_from_slice(phi);
        normalize_shares(out, total_carbon)
    }
}

impl DemandAttributor for GroundTruthShapley {
    fn name(&self) -> &'static str {
        "ground-truth-shapley"
    }

    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError> {
        let mut out = Vec::new();
        self.attribute_into(schedule, total_carbon, &mut out)?;
        Ok(out)
    }

    fn attribute_into(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        self.attribute_with_scratch(schedule, total_carbon, &mut ExactScratch::new(), out)
    }
}

/// Monte Carlo ground truth: the same workload-level peak game as
/// [`GroundTruthShapley`], estimated by permutation sampling — usable
/// beyond the exact solver's 24-player cap (e.g. to audit Fair-CO₂ on
/// thousand-workload schedules). Runs
/// [`parallel_sampled_shapley`] at one thread, without a coalition cache;
/// deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SampledGroundTruth {
    config: ParallelConfig,
    seed: u64,
}

impl SampledGroundTruth {
    /// Creates the estimator with an explicit sampling configuration.
    pub fn new(config: SampleConfig, seed: u64) -> Self {
        Self {
            config: ParallelConfig::serial(config),
            seed,
        }
    }

    /// A sensible default: 4000 antithetic permutations, no early
    /// stopping.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(
            SampleConfig {
                max_permutations: 4000,
                target_stderr: 0.0,
                min_permutations: 128,
                antithetic: true,
            },
            seed,
        )
    }

    /// Runs the estimator on `schedule`'s peak game and returns the full
    /// instrumented estimate: values, pair-aware standard errors, and
    /// work counters — the raw material for
    /// [`SamplingMetrics`](crate::report::SamplingMetrics) provenance on
    /// carbon statements.
    pub fn estimate(&self, schedule: &Schedule) -> ShapleyEstimate {
        let game = PeakDemandGame::new(schedule.demand_matrix());
        parallel_sampled_shapley(&game, &self.config, self.seed).estimate
    }
}

impl DemandAttributor for SampledGroundTruth {
    fn name(&self) -> &'static str {
        "sampled-ground-truth"
    }

    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError> {
        let estimate = self.estimate(schedule);
        let total: f64 = estimate.values.iter().sum();
        if total <= 0.0 {
            return Err(DemandError::ZeroDemand);
        }
        Ok(estimate
            .values
            .iter()
            .map(|p| total_carbon * p / total)
            .collect())
    }
}

/// The RUP-Baseline: share ∝ allocation × time (SCI-style embodied
/// attribution), independent of demand dynamics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RupBaseline;

impl DemandAttributor for RupBaseline {
    fn name(&self) -> &'static str {
        "rup-baseline"
    }

    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError> {
        let mut out = Vec::new();
        self.attribute_into(schedule, total_carbon, &mut out)?;
        Ok(out)
    }

    fn attribute_into(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        out.clear();
        out.extend(
            schedule
                .workloads()
                .iter()
                .map(|w| w.cores() * w.duration_steps() as f64),
        );
        normalize_shares(out, total_carbon)
    }
}

/// Demand-proportional baseline: instantaneous carbon intensity is
/// proportional to aggregate demand, so a workload's share is
/// `Σ_t cores·D(t)` normalized by `Σ_t D(t)²`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandProportional;

impl DemandAttributor for DemandProportional {
    fn name(&self) -> &'static str {
        "demand-proportional"
    }

    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError> {
        let mut out = Vec::new();
        self.attribute_into(schedule, total_carbon, &mut out)?;
        Ok(out)
    }

    fn attribute_into(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        let demand: Vec<f64> = (0..schedule.steps())
            .map(|t| schedule.demand_at(t))
            .collect();
        out.clear();
        out.extend(schedule.workloads().iter().map(|w| {
            (w.start()..w.end())
                .map(|t| w.cores() * demand[t])
                .sum::<f64>()
        }));
        normalize_shares(out, total_carbon)
    }
}

/// Fair-CO₂'s Temporal Shapley attribution: time periods are players in
/// the peak game; the per-period carbon intensity of Eq. 5 prices each
/// workload's resource-time.
#[derive(Debug, Clone)]
pub struct TemporalFairCo2 {
    hierarchy: Hierarchy,
}

#[derive(Debug, Clone)]
enum Hierarchy {
    /// One Temporal Shapley level with one player per schedule step.
    PerStep,
    /// Explicit split ratios (for hierarchical experiments).
    Splits(Vec<usize>),
}

impl TemporalFairCo2 {
    /// One player per schedule time step — the configuration used against
    /// the paper's Monte Carlo schedules (4–9 steps).
    pub fn per_step() -> Self {
        Self {
            hierarchy: Hierarchy::PerStep,
        }
    }

    /// A custom hierarchical split (e.g. the paper's `[10, 9, 8, 12]`).
    pub fn with_splits(splits: Vec<usize>) -> Self {
        Self {
            hierarchy: Hierarchy::Splits(splits),
        }
    }
}

impl DemandAttributor for TemporalFairCo2 {
    fn name(&self) -> &'static str {
        "fair-co2-temporal"
    }

    fn attribute(&self, schedule: &Schedule, total_carbon: f64) -> Result<Vec<f64>, DemandError> {
        let mut out = Vec::new();
        self.attribute_into(schedule, total_carbon, &mut out)?;
        Ok(out)
    }

    fn attribute_into(
        &self,
        schedule: &Schedule,
        total_carbon: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), DemandError> {
        let series = schedule.demand_series();
        if series.integral() <= 0.0 {
            return Err(DemandError::ZeroDemand);
        }
        let splits = match &self.hierarchy {
            Hierarchy::PerStep => {
                if schedule.steps() < 2 {
                    // One period: intensity is flat, equal to RUP.
                    return RupBaseline.attribute_into(schedule, total_carbon, out);
                }
                vec![schedule.steps()]
            }
            Hierarchy::Splits(s) => s.clone(),
        };
        let attribution = TemporalShapley::new(splits)
            .attribute(&series, total_carbon)
            .map_err(|e| DemandError::Hierarchy(e.to_string()))?;
        let step = i64::from(schedule.step_seconds());
        out.clear();
        out.extend(schedule.workloads().iter().map(|w| {
            attribution.workload_carbon(w.start() as i64 * step, w.end() as i64 * step, w.cores())
        }));
        // Stranded carbon (zero-demand leaf periods) cannot occur here
        // because every workload window has positive demand, but guard by
        // renormalizing to keep efficiency exact.
        normalize_shares(out, total_carbon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduledWorkload;

    fn demo() -> Schedule {
        Schedule::new(
            3600,
            4,
            vec![
                ScheduledWorkload::new(32.0, 0, 4).unwrap(),
                ScheduledWorkload::new(64.0, 1, 3).unwrap(),
                ScheduledWorkload::new(16.0, 3, 4).unwrap(),
            ],
        )
        .unwrap()
    }

    fn assert_efficient(shares: &[f64], pool: f64) {
        let total: f64 = shares.iter().sum();
        assert!((total - pool).abs() < 1e-6, "Σ = {total}");
    }

    #[test]
    fn all_methods_fully_attribute_the_pool() {
        let s = demo();
        for method in methods() {
            let shares = method.attribute(&s, 500.0).unwrap();
            assert_eq!(shares.len(), 3);
            assert_efficient(&shares, 500.0);
            assert!(shares.iter().all(|&v| v >= 0.0), "{}", method.name());
        }
    }

    fn methods() -> Vec<Box<dyn DemandAttributor>> {
        vec![
            Box::new(GroundTruthShapley),
            Box::new(RupBaseline),
            Box::new(DemandProportional),
            Box::new(TemporalFairCo2::per_step()),
        ]
    }

    #[test]
    fn peak_maker_pays_more_under_fair_methods() {
        let s = demo();
        let truth = GroundTruthShapley.attribute(&s, 1000.0).unwrap();
        let rup = RupBaseline.attribute(&s, 1000.0).unwrap();
        let fair = TemporalFairCo2::per_step().attribute(&s, 1000.0).unwrap();
        // Workload 1 (64 cores at the peak) is undercharged by RUP.
        assert!(truth[1] > rup[1]);
        assert!(fair[1] > rup[1]);
    }

    #[test]
    fn temporal_tracks_ground_truth_better_than_rup() {
        let s = demo();
        let truth = GroundTruthShapley.attribute(&s, 1000.0).unwrap();
        let rup = RupBaseline.attribute(&s, 1000.0).unwrap();
        let fair = TemporalFairCo2::per_step().attribute(&s, 1000.0).unwrap();
        let dev = |m: &[f64]| -> f64 {
            m.iter()
                .zip(&truth)
                .map(|(a, b)| ((a - b) / b).abs())
                .sum::<f64>()
        };
        assert!(
            dev(&fair) < dev(&rup),
            "fair {} rup {}",
            dev(&fair),
            dev(&rup)
        );
    }

    #[test]
    fn flat_demand_makes_all_methods_agree() {
        // Two identical always-on workloads: everything splits 50/50.
        let s = Schedule::new(
            3600,
            4,
            vec![
                ScheduledWorkload::new(48.0, 0, 4).unwrap(),
                ScheduledWorkload::new(48.0, 0, 4).unwrap(),
            ],
        )
        .unwrap();
        for method in methods() {
            let shares = method.attribute(&s, 100.0).unwrap();
            assert!(
                (shares[0] - 50.0).abs() < 1e-9,
                "{}: {shares:?}",
                method.name()
            );
        }
    }

    #[test]
    fn single_step_schedule_degrades_gracefully() {
        let s = Schedule::new(
            3600,
            1,
            vec![
                ScheduledWorkload::new(10.0, 0, 1).unwrap(),
                ScheduledWorkload::new(30.0, 0, 1).unwrap(),
            ],
        )
        .unwrap();
        let fair = TemporalFairCo2::per_step().attribute(&s, 100.0).unwrap();
        assert!((fair[0] - 25.0).abs() < 1e-9);
        assert!((fair[1] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_ground_truth_converges_to_exact() {
        let s = demo();
        let exact = GroundTruthShapley.attribute(&s, 1000.0).unwrap();
        let sampled = SampledGroundTruth::with_seed(9)
            .attribute(&s, 1000.0)
            .unwrap();
        for (e, g) in exact.iter().zip(&sampled) {
            assert!((e - g).abs() < 0.02 * 1000.0, "exact {e} sampled {g}");
        }
        let total: f64 = sampled.iter().sum();
        assert!((total - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn sampled_ground_truth_handles_large_schedules() {
        // 60 workloads: far beyond the exact solver's 24-player cap.
        let workloads: Vec<ScheduledWorkload> = (0..60)
            .map(|i| {
                ScheduledWorkload::new(8.0 + (i % 7) as f64 * 8.0, i % 6, i % 6 + 1 + i % 3)
                    .unwrap()
            })
            .collect();
        let s = Schedule::new(3600, 9, workloads).unwrap();
        assert!(GroundTruthShapley.attribute(&s, 100.0).is_err());
        let shares = SampledGroundTruth::with_seed(4)
            .attribute(&s, 100.0)
            .unwrap();
        assert_eq!(shares.len(), 60);
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn sampled_estimate_exposes_work_counters() {
        let s = demo();
        let sgt = SampledGroundTruth::with_seed(9);
        let estimate = sgt.estimate(&s);
        // Every permutation replays all three players.
        assert_eq!(
            estimate.counters.coalition_evals,
            estimate.permutations as u64 * 3
        );
        assert!(estimate.counters.wall_time_secs >= 0.0);
        assert!(estimate.max_std_error().is_finite());
        // attribute() is the same run: shares are the normalized values.
        let shares = sgt.attribute(&s, 1000.0).unwrap();
        let total: f64 = estimate.values.iter().sum();
        for (share, v) in shares.iter().zip(&estimate.values) {
            assert!((share - 1000.0 * v / total).abs() < 1e-9);
        }
    }

    #[test]
    fn attribute_into_is_bit_identical_to_attribute() {
        let s = demo();
        let mut out = vec![999.0; 7]; // stale contents must be cleared
        for method in methods() {
            let fresh = method.attribute(&s, 500.0).unwrap();
            method.attribute_into(&s, 500.0, &mut out).unwrap();
            assert_eq!(out.len(), fresh.len(), "{}", method.name());
            for (a, b) in fresh.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", method.name());
            }
        }
    }

    #[test]
    fn ground_truth_scratch_path_is_bit_identical() {
        let s = demo();
        let fresh = GroundTruthShapley.attribute(&s, 1000.0).unwrap();
        let mut scratch = ExactScratch::new();
        scratch.reserve_players(8);
        let mut out = Vec::new();
        for _ in 0..3 {
            GroundTruthShapley
                .attribute_with_scratch(&s, 1000.0, &mut scratch, &mut out)
                .unwrap();
            for (a, b) in fresh.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(scratch.reuses(), 3);
    }

    #[test]
    fn zero_demand_is_rejected() {
        let s = Schedule::new(3600, 2, vec![ScheduledWorkload::new(0.0, 0, 2).unwrap()]).unwrap();
        for method in methods() {
            assert!(
                method.attribute(&s, 100.0).is_err(),
                "{} accepted zero demand",
                method.name()
            );
        }
    }

    #[test]
    fn ground_truth_matches_hand_computed_shapley() {
        // Demand per step: [32, 96, 96, 48]; peak 96. Averaging marginal
        // contributions over all 6 orderings gives φ = (32, 56, 8).
        let s = demo();
        let truth = GroundTruthShapley.attribute(&s, 96.0).unwrap();
        assert!((truth[0] - 32.0).abs() < 1e-9, "{truth:?}");
        assert!((truth[1] - 56.0).abs() < 1e-9, "{truth:?}");
        assert!((truth[2] - 8.0).abs() < 1e-9, "{truth:?}");
    }

    #[test]
    fn temporal_prices_peak_core_seconds_above_off_peak() {
        // Under Temporal Shapley the intensity signal is higher in the
        // peak steps, so the peak-riding workload pays a higher price per
        // core-step than the off-peak straggler; RUP prices them equally.
        let s = demo();
        let fair = TemporalFairCo2::per_step().attribute(&s, 1000.0).unwrap();
        let rup = RupBaseline.attribute(&s, 1000.0).unwrap();
        let price = |shares: &[f64], i: usize| {
            let w = s.workloads()[i];
            shares[i] / (w.cores() * w.duration_steps() as f64)
        };
        assert!(price(&fair, 1) > price(&fair, 2));
        assert!((price(&rup, 1) - price(&rup, 2)).abs() < 1e-12);
    }
}
