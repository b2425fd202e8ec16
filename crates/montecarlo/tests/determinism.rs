//! Reproducibility guarantees of the Monte Carlo harness: results must be
//! bit-identical across thread counts and runs, and different seeds must
//! actually change the scenarios.

use fairco2_montecarlo::colocations::ColocationStudy;
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_shapley::parallel::run_parallel;

#[test]
fn demand_study_is_bit_identical_across_thread_counts() {
    let study = DemandStudy {
        trials: 24,
        ..DemandStudy::default()
    };
    let single: Vec<f64> = run_parallel(study.trials, 1, |t| study.run_trial(t))
        .iter()
        .map(|r| r.rup.average_pct)
        .collect();
    for threads in [2usize, 5, 16] {
        let multi: Vec<f64> = run_parallel(study.trials, threads, |t| study.run_trial(t))
            .iter()
            .map(|r| r.rup.average_pct)
            .collect();
        assert_eq!(single, multi, "threads = {threads}");
    }
}

#[test]
fn colocation_study_is_bit_identical_across_runs() {
    let study = ColocationStudy {
        trials: 12,
        max_workloads: 30,
        ..ColocationStudy::default()
    };
    let a: Vec<f64> = (0..study.trials)
        .map(|t| study.run_trial(t).fair_co2.average_pct)
        .collect();
    let b: Vec<f64> = (0..study.trials)
        .map(|t| study.run_trial(t).fair_co2.average_pct)
        .collect();
    assert_eq!(a, b);
}

#[test]
fn different_base_seeds_change_the_scenarios() {
    let a = DemandStudy {
        trials: 5,
        base_seed: 1,
        ..DemandStudy::default()
    };
    let b = DemandStudy {
        trials: 5,
        base_seed: 2,
        ..DemandStudy::default()
    };
    let differing = (0..5)
        .filter(|&t| a.generate_schedule(t) != b.generate_schedule(t))
        .count();
    assert!(differing >= 4, "only {differing} of 5 schedules differ");
}

#[test]
fn trial_indices_are_independent_of_execution_order() {
    // Trial 7 run alone equals trial 7 run within a batch.
    let study = ColocationStudy {
        trials: 10,
        max_workloads: 20,
        ..ColocationStudy::default()
    };
    let alone = study.run_trial(7);
    let batch = run_parallel(10, 3, |t| study.run_trial(t));
    assert_eq!(alone.rup.average_pct, batch[7].rup.average_pct);
    assert_eq!(alone.workloads, batch[7].workloads);
}
