//! Integration tests for the streaming study engine: the deterministic
//! trial stream is pinned by digest, summaries match the collect-then-
//! summarize path, and results are bit-identical at 1/2/8 threads.

use proptest::prelude::*;

use fairco2::metrics::DeviationSummary;
use fairco2_montecarlo::engine::{stream_colocation_study, stream_demand_study, EngineConfig};
use fairco2_montecarlo::streaming::DemandStudySummary;
use fairco2_montecarlo::{ColocationStudy, DemandStudy, DemandTrial};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// FNV-1a digest of the first `count` generated demand schedules.
fn demand_stream_digest(study: &DemandStudy, count: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for trial in 0..count {
        let s = study.generate_schedule(trial);
        mix(&mut h, s.steps() as u64);
        mix(&mut h, s.workloads().len() as u64);
        for w in s.workloads() {
            mix(&mut h, w.cores().to_bits());
            mix(&mut h, w.start() as u64);
            mix(&mut h, w.end() as u64);
        }
    }
    h
}

/// FNV-1a digest of the first `count` generated colocation scenarios.
fn colocation_stream_digest(study: &ColocationStudy, count: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for trial in 0..count {
        let (scenario, grid_ci, samples) = study.generate(trial);
        let workloads = scenario.workloads();
        mix(&mut h, workloads.len() as u64);
        for w in &workloads {
            mix(&mut h, w.kind.index() as u64);
        }
        mix(&mut h, grid_ci.to_bits());
        mix(&mut h, samples as u64);
    }
    h
}

/// Pin the deterministic trial streams: a scratch-reuse refactor that
/// perturbs any RNG draw (order or count) changes these digests. The
/// constants were recorded from the seed implementation; regenerate them
/// deliberately (printing the new digest) only when the generator itself
/// is intentionally changed.
#[test]
fn first_32_demand_schedules_are_pinned() {
    let digest = demand_stream_digest(&DemandStudy::default(), 32);
    assert_eq!(
        digest, 0x32af_0728_c290_652b,
        "demand trial stream changed: digest {digest:#018x}"
    );
}

#[test]
fn first_32_colocation_scenarios_are_pinned() {
    let digest = colocation_stream_digest(&ColocationStudy::default(), 32);
    assert_eq!(
        digest, 0x2107_4407_f012_b1b1,
        "colocation trial stream changed: digest {digest:#018x}"
    );
}

/// The scratch path must reproduce the allocating path bit-for-bit.
#[test]
fn scratch_trials_are_bit_identical_to_allocating_trials() {
    let study = DemandStudy {
        trials: 12,
        max_workloads: 10,
        ..DemandStudy::default()
    };
    let mut scratch = fairco2_montecarlo::TrialScratch::for_demand(&study);
    for t in 0..study.trials {
        let a = study.run_trial(t);
        let b = study.run_trial_with_scratch(t, &mut scratch);
        assert_eq!(a.rup.average_pct.to_bits(), b.rup.average_pct.to_bits());
        assert_eq!(
            a.fair_co2.worst_case_pct.to_bits(),
            b.fair_co2.worst_case_pct.to_bits()
        );
        assert_eq!(a.time_slices, b.time_slices);
        assert_eq!(a.workloads, b.workloads);
    }

    let coloc = ColocationStudy {
        trials: 6,
        max_workloads: 14,
        ..ColocationStudy::default()
    };
    let mut scratch = fairco2_montecarlo::TrialScratch::new();
    for t in 0..coloc.trials {
        let a = coloc.run_trial(t);
        let b = coloc.run_trial_with_scratch(t, &mut scratch);
        assert_eq!(a.rup.average_pct.to_bits(), b.rup.average_pct.to_bits());
        assert_eq!(
            a.fair_co2.average_pct.to_bits(),
            b.fair_co2.average_pct.to_bits()
        );
        assert_eq!(a.per_workload.len(), b.per_workload.len());
        for (x, y) in a.per_workload.iter().zip(&b.per_workload) {
            assert_eq!(x.rup_pct.to_bits(), y.rup_pct.to_bits());
            assert_eq!(x.fair_pct.to_bits(), y.fair_pct.to_bits());
        }
    }
}

/// Streaming summaries are bit-identical across thread counts, with
/// several batches and with one batch that every worker shares.
#[test]
fn demand_summary_is_thread_count_invariant() {
    let study = DemandStudy {
        trials: 40,
        max_workloads: 10,
        ..DemandStudy::default()
    };
    for batch_trials in [8, 40] {
        let cfg = |threads| EngineConfig {
            threads,
            batch_trials,
            collect_trials: false,
        };
        let (one, _, _) = stream_demand_study(&study, cfg(1));
        for threads in [2, 8] {
            let (many, _, _) = stream_demand_study(&study, cfg(threads));
            assert_eq!(one, many, "batch = {batch_trials}, threads = {threads}");
        }
    }
}

#[test]
fn colocation_summary_is_thread_count_invariant() {
    let study = ColocationStudy {
        trials: 24,
        max_workloads: 20,
        ..ColocationStudy::default()
    };
    for batch_trials in [5, 24] {
        let cfg = |threads| EngineConfig {
            threads,
            batch_trials,
            collect_trials: false,
        };
        let (one, _, _) = stream_colocation_study(&study, cfg(1));
        for threads in [2, 8] {
            let (many, _, _) = stream_colocation_study(&study, cfg(threads));
            assert_eq!(one, many, "batch = {batch_trials}, threads = {threads}");
        }
    }
}

fn deviation_strategy() -> impl Strategy<Value = DeviationSummary> {
    (0.0f64..300.0, 1.0f64..2.5).prop_map(|(avg, stretch)| DeviationSummary {
        average_pct: avg,
        worst_case_pct: avg * stretch,
    })
}

fn trial_strategy() -> impl Strategy<Value = DemandTrial> {
    (
        4usize..=9,
        1usize..=22,
        deviation_strategy(),
        deviation_strategy(),
        deviation_strategy(),
    )
        .prop_map(
            |(time_slices, workloads, rup, demand_proportional, fair_co2)| DemandTrial {
                trial: 0,
                time_slices,
                workloads,
                rup,
                demand_proportional,
                fair_co2,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming summary reproduces the collect-then-summarize
    /// statistics on arbitrary trial batches: counts and maxima exactly,
    /// means to floating-point accumulation accuracy, and bucket
    /// memberships exactly.
    #[test]
    fn summary_matches_collected_statistics(
        trials in prop::collection::vec(trial_strategy(), 1..200),
        batch in 1usize..64,
    ) {
        let study = DemandStudy::default();
        let summary = DemandStudySummary::from_trials(&study, &trials, batch);

        prop_assert_eq!(summary.trials, trials.len() as u64);
        prop_assert_eq!(summary.all.rup.average.count(), trials.len() as u64);

        let naive_mean =
            trials.iter().map(|t| t.rup.average_pct).sum::<f64>() / trials.len() as f64;
        let tolerance = 1e-9 * naive_mean.abs().max(1.0);
        prop_assert!((summary.all.rup.average.mean() - naive_mean).abs() < tolerance);

        let naive_max = trials
            .iter()
            .map(|t| t.fair_co2.worst_case_pct)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(summary.all.fair_co2.worst_case.max.to_bits(), naive_max.to_bits());

        for b in &summary.by_workloads {
            let naive = trials
                .iter()
                .filter(|t| (b.lo..=b.hi).contains(&t.workloads))
                .count() as u64;
            prop_assert_eq!(b.methods.rup.average.count(), naive);
        }
        for b in &summary.by_time_slices {
            let naive = trials
                .iter()
                .filter(|t| (b.lo..=b.hi).contains(&t.time_slices))
                .count() as u64;
            prop_assert_eq!(b.methods.fair_co2.worst_case.count(), naive);
        }

        // Histograms are integer-count and therefore invariant to the
        // batch grouping entirely.
        let other = DemandStudySummary::from_trials(&study, &trials, batch + 7);
        prop_assert_eq!(&summary.all.rup.average.hist, &other.all.rup.average.hist);
        prop_assert_eq!(summary.all.rup.average.hist.total(), trials.len() as u64);
    }

    /// The same trials at the same batch size always produce the same
    /// bits, regardless of how many summaries were merged on the way.
    #[test]
    fn same_batching_is_bit_stable(
        trials in prop::collection::vec(trial_strategy(), 1..100),
        batch in 1usize..32,
    ) {
        let study = DemandStudy::default();
        let a = DemandStudySummary::from_trials(&study, &trials, batch);
        let b = DemandStudySummary::from_trials(&study, &trials, batch);
        prop_assert_eq!(a, b);
    }
}
