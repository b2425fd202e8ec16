//! Random demand schedules and the dynamic-demand fairness study.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fairco2::demand::{
    DemandAttributor, DemandProportional, GroundTruthShapley, RupBaseline, TemporalFairCo2,
};
use fairco2::metrics::{summarize, DeviationSummary};
use fairco2::schedule::{Schedule, ScheduledWorkload};

use crate::scratch::TrialScratch;

/// Core allocations the paper's generator draws from.
pub const CORE_CHOICES: [f64; 7] = [8.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0];

/// Configuration of the dynamic-demand Monte Carlo study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandStudy {
    /// Number of random schedules to evaluate.
    pub trials: usize,
    /// Maximum workloads per schedule (paper: 22, capped by the exact
    /// solver).
    pub max_workloads: usize,
    /// Minimum time slices per schedule (paper: 4).
    pub min_time_slices: usize,
    /// Maximum time slices per schedule (paper: 9).
    pub max_time_slices: usize,
    /// Base RNG seed; trial `k` uses `base_seed + k`.
    pub base_seed: u64,
}

impl Default for DemandStudy {
    fn default() -> Self {
        Self {
            trials: 10_000,
            max_workloads: 22,
            min_time_slices: 4,
            max_time_slices: 9,
            base_seed: 0xC0_2FA1,
        }
    }
}

/// Outcome of one schedule trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandTrial {
    /// Trial index (== seed offset).
    pub trial: usize,
    /// Time slices in the generated schedule.
    pub time_slices: usize,
    /// Workloads in the generated schedule.
    pub workloads: usize,
    /// Deviation of the RUP-Baseline from ground truth.
    pub rup: DeviationSummary,
    /// Deviation of the demand-proportional baseline.
    pub demand_proportional: DeviationSummary,
    /// Deviation of Fair-CO₂'s Temporal Shapley.
    pub fair_co2: DeviationSummary,
}

impl DemandStudy {
    /// Generates the trial's random schedule (deterministic per trial).
    pub fn generate_schedule(&self, trial: usize) -> Schedule {
        self.generate_schedule_with(trial, &mut TrialScratch::new())
    }

    /// [`generate_schedule`](Self::generate_schedule) using the scratch's
    /// generation buffers. Draw-for-draw identical RNG stream, so the
    /// generated schedule is exactly the same.
    pub fn generate_schedule_with(&self, trial: usize, scratch: &mut TrialScratch) -> Schedule {
        let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(trial as u64));
        random_schedule_with(
            &mut rng,
            self.min_time_slices,
            self.max_time_slices,
            self.max_workloads,
            scratch,
        )
    }

    /// Runs a single trial: generates the schedule, computes ground truth
    /// and all method attributions, and summarizes deviations.
    ///
    /// # Panics
    ///
    /// Panics if any attribution method fails on a generated schedule —
    /// the generator guarantees non-zero demand, so a failure indicates a
    /// bug rather than a recoverable input condition.
    pub fn run_trial(&self, trial: usize) -> DemandTrial {
        self.run_trial_with_scratch(trial, &mut TrialScratch::new())
    }

    /// [`run_trial`](Self::run_trial) through a per-worker arena: the
    /// exact-solver φ buffer, the share vectors, and the generation
    /// buffers all live in `scratch` and are reused across calls.
    /// Bit-identical to [`run_trial`](Self::run_trial).
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_trial`](Self::run_trial).
    pub fn run_trial_with_scratch(&self, trial: usize, scratch: &mut TrialScratch) -> DemandTrial {
        let schedule = self.generate_schedule_with(trial, scratch);
        // The pool size cancels in percentage deviations; use 1 kg.
        let pool = 1000.0;
        GroundTruthShapley
            .attribute_with_scratch(&schedule, pool, &mut scratch.exact, &mut scratch.truth)
            .expect("generated schedules are solvable");
        let mut summary = |method: &dyn DemandAttributor| {
            method
                .attribute_into(&schedule, pool, &mut scratch.shares)
                .expect("generated schedules are attributable");
            summarize(&scratch.shares, &scratch.truth).expect("ground truth has non-zero shares")
        };
        let rup = summary(&RupBaseline);
        let demand_proportional = summary(&DemandProportional);
        let fair_co2 = summary(&TemporalFairCo2::per_step());
        scratch.trials += 1;
        DemandTrial {
            trial,
            time_slices: schedule.steps(),
            workloads: schedule.workloads().len(),
            rup,
            demand_proportional,
            fair_co2,
        }
    }
}

/// Generates one random schedule with the paper's parameters.
///
/// Steps are one hour; each slice targets 1–5 concurrent workloads; each
/// workload draws its allocation from [`CORE_CHOICES`] and runs 1–3
/// slices. Generation stops at `max_workloads`.
pub fn random_schedule(
    rng: &mut impl Rng,
    min_slices: usize,
    max_slices: usize,
    max_workloads: usize,
) -> Schedule {
    random_schedule_with(
        rng,
        min_slices,
        max_slices,
        max_workloads,
        &mut TrialScratch::new(),
    )
}

/// [`random_schedule`] with the per-slice target and concurrency buffers
/// hoisted into the caller's [`TrialScratch`], so a trial loop allocates
/// them once instead of per call. The RNG draw order is unchanged, so the
/// schedule is identical to [`random_schedule`]'s.
pub fn random_schedule_with(
    rng: &mut impl Rng,
    min_slices: usize,
    max_slices: usize,
    max_workloads: usize,
    scratch: &mut TrialScratch,
) -> Schedule {
    assert!(min_slices >= 1 && min_slices <= max_slices);
    assert!(max_workloads >= 1);
    let slices = rng.gen_range(min_slices..=max_slices);
    scratch.targets.clear();
    scratch
        .targets
        .extend((0..slices).map(|_| rng.gen_range(1..=5)));
    let targets = &scratch.targets;
    scratch.concurrency.clear();
    scratch.concurrency.resize(slices, 0);
    let concurrency = &mut scratch.concurrency;
    let mut workloads: Vec<ScheduledWorkload> = Vec::new();
    for t in 0..slices {
        while concurrency[t] < targets[t] && workloads.len() < max_workloads {
            let duration = rng.gen_range(1..=3).min(slices - t);
            let cores = CORE_CHOICES[rng.gen_range(0..CORE_CHOICES.len())];
            let w = ScheduledWorkload::new(cores, t, t + duration)
                .expect("duration ≥ 1 by construction");
            for c in concurrency.iter_mut().skip(t).take(duration) {
                *c += 1;
            }
            workloads.push(w);
        }
        if workloads.len() >= max_workloads {
            break;
        }
    }
    if workloads.is_empty() {
        // Degenerate corner (max_workloads reached immediately): keep the
        // schedule valid with a single workload.
        workloads.push(ScheduledWorkload::new(CORE_CHOICES[0], 0, 1).expect("valid window"));
    }
    Schedule::new(3600, slices, workloads).expect("generator respects the horizon")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schedules_respect_the_paper_parameters() {
        let study = DemandStudy::default();
        for trial in 0..50 {
            let s = study.generate_schedule(trial);
            assert!((4..=9).contains(&s.steps()), "slices {}", s.steps());
            assert!(s.workloads().len() <= 22);
            assert!(!s.workloads().is_empty());
            for w in s.workloads() {
                assert!(CORE_CHOICES.contains(&w.cores()));
                assert!((1..=3).contains(&w.duration_steps()));
            }
            // Concurrency never exceeds 5 at workload start times by
            // construction; demand is always positive somewhere.
            assert!(s.peak_demand() > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_trial() {
        let study = DemandStudy::default();
        assert_eq!(study.generate_schedule(7), study.generate_schedule(7));
        assert_ne!(study.generate_schedule(7), study.generate_schedule(8));
    }

    #[test]
    fn trial_summaries_rank_methods_as_the_paper_reports() {
        // Aggregate over a small batch: Fair-CO₂ < demand-proportional <
        // RUP in average deviation (the Figure 7(a) ordering).
        let study = DemandStudy {
            trials: 60,
            ..DemandStudy::default()
        };
        let mut rup = 0.0;
        let mut dp = 0.0;
        let mut fair = 0.0;
        for t in 0..study.trials {
            let r = study.run_trial(t);
            rup += r.rup.average_pct;
            dp += r.demand_proportional.average_pct;
            fair += r.fair_co2.average_pct;
        }
        let n = study.trials as f64;
        let (rup, dp, fair) = (rup / n, dp / n, fair / n);
        assert!(fair < dp, "fair {fair:.1}% dp {dp:.1}%");
        assert!(dp < rup, "dp {dp:.1}% rup {rup:.1}%");
    }

    #[test]
    fn worst_case_exceeds_average_in_every_trial() {
        let study = DemandStudy::default();
        for t in 0..20 {
            let r = study.run_trial(t);
            assert!(r.rup.worst_case_pct >= r.rup.average_pct);
            assert!(r.fair_co2.worst_case_pct >= r.fair_co2.average_pct);
        }
    }
}
