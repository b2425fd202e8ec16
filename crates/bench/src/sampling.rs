//! Shared sampled-Shapley instrumentation for the experiment binaries.
//!
//! The Monte Carlo figure bins (`convergence`, `fig7`, `fig8`) each attach
//! an instrumented [`parallel_sampled_shapley`] run to their JSON output:
//! the convergence trace (standard error versus permutation count), the
//! work counters, and the final estimate quality on a representative
//! peak-demand game. This module builds that report and renders it for
//! the terminal.

use fairco2::schedule::Schedule;
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::{
    parallel_sampled_shapley, ConvergenceTrace, EvalCounters, ParallelConfig, SampleConfig,
};
use serde::Serialize;

use crate::args::Args;

/// JSON-serializable record of one instrumented sampling run.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingReport {
    /// Players in the sampled game (workloads in the schedule).
    pub players: usize,
    /// Worker threads used (results are thread-count invariant).
    pub threads: usize,
    /// Permutations actually drawn before the stopping rule fired.
    pub permutations: usize,
    /// Largest per-player pair-aware standard error at the end.
    pub max_std_error: f64,
    /// Work performed: coalition evaluations, marginal updates, batches,
    /// and summed per-batch busy time.
    pub counters: EvalCounters,
    /// Fraction of coalition lookups served by the per-batch
    /// [`CoalitionCache`](fairco2_shapley::CoalitionCache) (0 when the
    /// cache saw no lookups).
    pub cache_hit_rate: f64,
    /// Standard error versus permutation count, one point per round.
    pub trace: ConvergenceTrace,
}

/// Reads the sampling block's `--permutations` budget (default 4,096).
/// The figure bins read it before their study, so a zero budget aborts
/// at once rather than after the whole study has run.
///
/// # Panics
///
/// Panics if `--permutations` is 0 or not a valid count.
pub fn sampling_permutations(args: &Args) -> usize {
    let permutations = args.usize("permutations", 4096);
    assert!(permutations > 0, "--permutations must be at least 1");
    permutations
}

/// Runs the parallel sampling engine on `schedule`'s peak-demand game and
/// packages the instrumentation.
pub fn sample_schedule(
    schedule: &Schedule,
    max_permutations: usize,
    threads: usize,
    seed: u64,
) -> SamplingReport {
    let game = PeakDemandGame::new(schedule.demand_matrix());
    let config = ParallelConfig {
        sample: SampleConfig {
            max_permutations,
            ..SampleConfig::default()
        },
        threads,
        // Schedules cap at 64 workloads well before sampling becomes
        // attractive, so every figure bin can afford the memo table.
        coalition_cache: true,
        ..ParallelConfig::default()
    };
    let run = parallel_sampled_shapley(&game, &config, seed);
    SamplingReport {
        players: schedule.workloads().len(),
        threads,
        permutations: run.estimate.permutations,
        max_std_error: run.estimate.max_std_error(),
        cache_hit_rate: run.estimate.counters.cache_hit_rate(),
        counters: run.estimate.counters,
        trace: run.trace,
    }
}

/// Prints the report as a small convergence table.
pub fn print_report(report: &SamplingReport) {
    println!(
        "\nsampled Shapley convergence ({} players, {} threads):",
        report.players, report.threads
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "perms", "samples", "max stderr", "evals", "elapsed"
    );
    for p in &report.trace.points {
        println!(
            "{:>8} {:>8} {:>12.6} {:>12} {:>9.3}s",
            p.permutations, p.samples, p.max_std_error, p.coalition_evals, p.elapsed_secs
        );
    }
    println!(
        "final: {} permutations, max stderr {:.6}, {} coalition evals in {} batches ({:.3}s busy)",
        report.permutations,
        report.max_std_error,
        report.counters.coalition_evals,
        report.counters.batches,
        report.counters.wall_time_secs
    );
    if report.counters.cache_hits + report.counters.cache_misses > 0 {
        println!(
            "coalition cache: {} hits / {} misses ({:.1}% hit rate)",
            report.counters.cache_hits,
            report.counters.cache_misses,
            100.0 * report.cache_hit_rate
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairco2::schedule::ScheduledWorkload;
    use fairco2_montecarlo::schedules::DemandStudy;

    fn demo_schedule() -> Schedule {
        let workloads = vec![
            ScheduledWorkload::new(8.0, 0, 2).unwrap(),
            ScheduledWorkload::new(16.0, 1, 3).unwrap(),
            ScheduledWorkload::new(32.0, 0, 3).unwrap(),
            ScheduledWorkload::new(8.0, 2, 3).unwrap(),
        ];
        Schedule::new(3600, 3, workloads).unwrap()
    }

    #[test]
    fn report_is_thread_invariant_and_serializable() {
        let s = demo_schedule();
        let one = sample_schedule(&s, 256, 1, 11);
        let four = sample_schedule(&s, 256, 4, 11);
        assert_eq!(one.permutations, four.permutations);
        assert_eq!(
            one.max_std_error.to_bits(),
            four.max_std_error.to_bits(),
            "estimate must not depend on the thread count"
        );
        assert!(!one.trace.points.is_empty());
        // Four workloads → 16 coalitions; 256 permutations must hit the
        // per-batch memo table heavily, and the hit pattern is part of
        // the schedule, so it matches across thread counts.
        assert!(one.cache_hit_rate > 0.5, "{}", one.cache_hit_rate);
        assert_eq!(one.counters.cache_hits, four.counters.cache_hits);
        let json = serde_json::to_string(&one).unwrap();
        assert!(json.contains("\"trace\""));
        assert!(json.contains("\"coalition_evals\""));
        assert!(json.contains("\"cache_hit_rate\""));
    }

    #[test]
    fn fig7_sampling_block_work_is_pinned() {
        // The work counts of fig7's default sampling block: 4,096
        // permutations of the study's first schedule through per-batch
        // coalition caches, at one worker and at two.
        let study = DemandStudy::default();
        let schedule = study.generate_schedule(0);
        for threads in [1, 2] {
            let c = sample_schedule(&schedule, 4096, threads, study.base_seed).counters;
            assert_eq!(
                (
                    c.coalition_evals,
                    c.marginal_updates,
                    c.batches,
                    c.cache_hits,
                    c.cache_misses
                ),
                (12_867, 28_672, 64, 21_294, 7_378),
                "threads = {threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "--permutations must be at least 1")]
    fn zero_permutations_are_rejected() {
        let args = Args::parse_from(&["permutations"], ["--permutations", "0"].map(String::from));
        let _ = sampling_permutations(&args);
    }
}
