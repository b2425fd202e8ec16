//! Thread-invariance pins for the streaming harvest and trial-sink paths:
//! the harvested records' JSON and the observed trial order must be
//! identical at 1, 2, and 8 worker threads.

use fairco2_montecarlo::engine::{EngineConfig, StudyOptions};
use fairco2_montecarlo::harvest::harvest_demand_study_with;
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::ColocationStudy;
use fairco2_montecarlo::{stream_colocation_study_with_sink, stream_demand_study_with_sink};

fn small_demand() -> DemandStudy {
    DemandStudy {
        trials: 41,
        max_workloads: 8,
        ..DemandStudy::default()
    }
}

#[test]
fn harvest_jsonl_bytes_are_thread_invariant() {
    let study = small_demand();
    let harvest = |threads: usize| {
        let mut lines = Vec::new();
        harvest_demand_study_with(&study, threads, 8, |record| {
            lines.push(serde_json::to_string(record).expect("harvest records serialize"));
        });
        lines
    };
    let baseline = harvest(1);
    assert_eq!(baseline.len(), study.trials, "one record per trial");
    for threads in [2usize, 8] {
        assert_eq!(
            harvest(threads),
            baseline,
            "harvest records differ at {threads} threads"
        );
    }
}

#[test]
fn demand_sink_observes_trials_in_order_at_any_thread_count() {
    let study = small_demand();
    let observe = |threads: usize| {
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let cfg = EngineConfig {
            threads,
            batch_trials: 8,
            collect_trials: false,
        };
        let (summary, _) = stream_demand_study_with_sink(
            &study,
            cfg,
            &StudyOptions::default(),
            |_, _| {},
            |trial| seen.push((trial.trial, trial.rup.average_pct.to_bits())),
        )
        .expect("clean run");
        (summary, seen)
    };
    let (base_summary, base_seen) = observe(1);
    assert_eq!(base_seen.len(), study.trials);
    assert!(base_seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    for threads in [2usize, 8] {
        let (summary, seen) = observe(threads);
        assert_eq!(
            summary, base_summary,
            "summary differs at {threads} threads"
        );
        assert_eq!(seen, base_seen, "trial stream differs at {threads} threads");
    }
}

#[test]
fn colocation_sink_observes_trials_in_order_at_any_thread_count() {
    let study = ColocationStudy {
        trials: 17,
        max_workloads: 12,
        ..ColocationStudy::default()
    };
    let observe = |threads: usize| {
        let mut seen: Vec<usize> = Vec::new();
        let cfg = EngineConfig {
            threads,
            batch_trials: 4,
            collect_trials: false,
        };
        stream_colocation_study_with_sink(
            &study,
            cfg,
            &StudyOptions::default(),
            |_, _| {},
            |trial| seen.push(trial.trial),
        )
        .expect("clean run");
        seen
    };
    let base = observe(1);
    assert_eq!(base, (0..study.trials).collect::<Vec<_>>());
    for threads in [2usize, 8] {
        assert_eq!(observe(threads), base, "order differs at {threads} threads");
    }
}
