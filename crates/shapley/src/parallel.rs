//! Deterministic parallel permutation sampling.
//!
//! Two layers live here:
//!
//! * [`run_parallel`] — the generic deterministic partitioner: indexed,
//!   independent work items fanned out across scoped worker threads with
//!   results reassembled in index order, so output is bit-identical at
//!   any thread count. One worker runs on the calling thread.
//! * [`parallel_sampled_shapley`] — the crate's one permutation sampler,
//!   built on it. Permutations are grouped into fixed-size *batches*;
//!   batch `b` seeds its own [`StdRng`] from `(base_seed, b)`, so the
//!   permutation stream is a pure function of the schedule, never of
//!   thread timing. Batches run in fixed-size *rounds*; after each round
//!   the per-batch moments are merged **in batch order** and the stopping
//!   rule is evaluated on the merged prefix. Round boundaries and merge
//!   order are independent of the worker count, so the estimate —
//!   including its early-stopping point — is bit-identical at 1, 2, or 64
//!   threads. Serial callers run it at one thread.
//!
//! Each batch also reports an [`EvalCounters`] (coalition evaluations,
//! marginal updates, busy time), and the engine records a JSON-ready
//! [`ConvergenceTrace`] of standard error versus permutation count for
//! the bench bins.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::cache::CachedGame;
use crate::game::{replay_marginals_into, EvalCounters, IncrementalGame};
use crate::sampled::{Moments, SampleConfig, ShapleyEstimate};

/// Runs `trials` independent work items across `threads` worker threads,
/// returning results in item order.
///
/// `run` must be pure with respect to the item index (each item seeds its
/// own RNG), which every caller in this workspace guarantees.
///
/// `threads = 0` is clamped to one worker: a zero thread count always
/// means "no parallelism", never "no progress", so callers can wire
/// user-supplied knobs straight through. One worker (`threads ≤ 1`, or a
/// single item) spawns no thread: the items run in order on the calling
/// thread.
///
/// # Panics
///
/// With several workers, panics — with a `"worker thread panicked"`
/// message once every worker has been joined — if any `run` call panics;
/// a failed worker can never hang or silently truncate the results. With
/// one worker, the first panicking `run` call's own panic propagates
/// unchanged.
pub fn run_parallel<T, F>(trials: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, trials.max(1));
    if threads == 1 {
        return (0..trials).map(run).collect();
    }
    let chunk_len = trials.div_ceil(threads);
    let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    let panicked = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (worker, chunk) in slots.chunks_mut(chunk_len).enumerate() {
            let run = &run;
            let base = worker * chunk_len;
            handles.push(scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(run(base + offset));
                }
            }));
        }
        // Join every worker before reporting (the eager collect(), unlike
        // a bare `.any()`, never short-circuits), so no thread outlives
        // the failure and partial results are never observable.
        let joins: Vec<bool> = handles.into_iter().map(|h| h.join().is_err()).collect();
        joins.contains(&true)
    });
    assert!(!panicked, "worker thread panicked");
    slots
        .into_iter()
        .map(|s| s.expect("every trial slot is filled"))
        .collect()
}

/// Extracts the human-readable message from a caught panic payload.
///
/// `&str` and `String` payloads (everything `panic!` produces in this
/// workspace) come back verbatim; anything else is labelled opaquely.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A sensible default worker count: the available parallelism, capped so
/// laptop-scale machines stay responsive.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 32)
}

/// Configuration for [`parallel_sampled_shapley`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// The sampling budget, stopping rule, and antithetic switch.
    pub sample: SampleConfig,
    /// Permutations per batch. Batches are the unit of work distribution
    /// *and* of RNG seeding; the value changes scheduling granularity but
    /// never correctness.
    pub batch_permutations: usize,
    /// Batches per stopping round. The stopping rule is evaluated on the
    /// merged prefix after each round, so a smaller value stops closer to
    /// the target at the cost of more frequent synchronization. Must keep
    /// `round_batches ≥ threads` to saturate the pool.
    pub round_batches: usize,
    /// Worker threads.
    pub threads: usize,
    /// When `true`, each batch replays through its own
    /// [`CachedGame`], whose table is sized for that batch's permutations,
    /// so repeated permutation prefixes within the batch skip the game.
    /// Caches are per-batch — never shared across threads — so the
    /// estimate stays a pure function of the schedule and remains
    /// bit-identical at any thread count. Requires ≤ 64 players.
    pub coalition_cache: bool,
}

impl ParallelConfig {
    /// One worker on the caller's thread, no coalition cache, default
    /// batching — how a serial caller runs the sampler.
    pub fn serial(sample: SampleConfig) -> Self {
        Self {
            sample,
            batch_permutations: 64,
            round_batches: 16,
            threads: 1,
            coalition_cache: false,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            ..Self::serial(SampleConfig::default())
        }
    }
}

/// One point of a convergence trace: the estimator state after a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Permutations merged so far.
    pub permutations: u64,
    /// Independent samples merged so far (antithetic pairs count once).
    pub samples: u64,
    /// Largest per-player pair-aware standard error at this point.
    pub max_std_error: f64,
    /// Coalition evaluations performed so far.
    pub coalition_evals: u64,
    /// Wall-clock seconds elapsed since the run started.
    pub elapsed_secs: f64,
}

/// JSON-serializable record of standard error versus permutation count,
/// appended once per stopping round by [`parallel_sampled_shapley`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Per-round snapshots, in round order.
    pub points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// The final standard error, if any round completed.
    pub fn final_std_error(&self) -> Option<f64> {
        self.points.last().map(|p| p.max_std_error)
    }
}

/// A parallel Shapley estimation together with its convergence trace.
#[derive(Debug, Clone)]
pub struct ParallelEstimate {
    /// The estimate, bit-identical at any thread count.
    pub estimate: ShapleyEstimate,
    /// Standard error after each stopping round.
    pub trace: ConvergenceTrace,
}

/// Derives the RNG seed for batch `b` of a run seeded with `base_seed`.
/// SplitMix64-style mixing keeps neighbouring batch streams decorrelated.
fn batch_seed(base_seed: u64, batch: u64) -> u64 {
    base_seed ^ (batch.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one batch: `count` permutations drawn from the batch's own RNG,
/// each replayed (and, with antithetic sampling, replayed reversed) into
/// buffers allocated once per batch, so the loop never allocates after
/// its first permutation. The only permutation loop in the crate.
fn run_batch<G: IncrementalGame>(
    game: &G,
    config: &SampleConfig,
    seed: u64,
    count: usize,
) -> (Moments, EvalCounters) {
    let n = game.player_count();
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut moments = Moments::zero(n);
    let mut counters = EvalCounters::default();
    let mut order: Vec<usize> = (0..n).collect();
    let mut forward = vec![0.0; n];
    let mut reverse = vec![0.0; n];
    let mut state = game.initial_state();
    while moments.permutations() < count {
        order.shuffle(&mut rng);
        replay_marginals_into(game, &order, &mut state, &mut forward, &mut counters);
        if config.antithetic && moments.permutations() + 1 < count {
            // The buffer stays reversed, so the next shuffle starts from
            // the reversed arrangement.
            order.reverse();
            replay_marginals_into(game, &order, &mut state, &mut reverse, &mut counters);
            moments.record_pair(&forward, &reverse);
        } else {
            moments.record_single(&forward);
        }
    }
    counters.batches = 1;
    counters.wall_time_secs = start.elapsed().as_secs_f64();
    (moments, counters)
}

/// Estimates Shapley values by batched parallel permutation sampling.
///
/// The permutation schedule — batch sizes, per-batch seeds, round
/// boundaries, and the merge order — depends only on `config.sample`,
/// `config.batch_permutations`, `config.round_batches`, and `base_seed`.
/// `config.threads` affects wall-clock time only: the returned estimate
/// and trace are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if the game has no players, the permutation budget is zero,
/// `batch_permutations` or `round_batches` is zero, or `coalition_cache`
/// is set for a game with more than 64 players. `threads = 0` is clamped
/// to one worker by [`run_parallel`].
pub fn parallel_sampled_shapley<G>(
    game: &G,
    config: &ParallelConfig,
    base_seed: u64,
) -> ParallelEstimate
where
    G: IncrementalGame + Sync,
{
    let n = game.player_count();
    assert!(n > 0, "game must have at least one player");
    assert!(
        config.sample.max_permutations > 0,
        "at least one permutation is required"
    );
    assert!(config.batch_permutations > 0, "batches must be non-empty");
    assert!(config.round_batches > 0, "rounds must contain batches");

    let start = Instant::now();
    let max = config.sample.max_permutations;
    let total_batches = max.div_ceil(config.batch_permutations);
    let mut merged = Moments::zero(n);
    let mut counters = EvalCounters::default();
    let mut trace = ConvergenceTrace::default();
    let mut next_batch = 0usize;

    while next_batch < total_batches {
        let round = config.round_batches.min(total_batches - next_batch);
        let results = run_parallel(round, config.threads, |i| {
            let b = next_batch + i;
            // The final batch absorbs the budget remainder.
            let count = config
                .batch_permutations
                .min(max - b * config.batch_permutations);
            let seed = batch_seed(base_seed, b as u64);
            if config.coalition_cache {
                let cached = CachedGame::new(game, count);
                let (moments, mut counters) = run_batch(&cached, &config.sample, seed, count);
                cached.record_into(&mut counters);
                (moments, counters)
            } else {
                run_batch(game, &config.sample, seed, count)
            }
        });
        for (moments, batch_counters) in &results {
            merged.merge(moments);
            counters.merge(batch_counters);
        }
        next_batch += round;
        trace.points.push(TracePoint {
            permutations: merged.permutations() as u64,
            samples: merged.samples() as u64,
            max_std_error: merged.max_std_error(),
            coalition_evals: counters.coalition_evals,
            elapsed_secs: start.elapsed().as_secs_f64(),
        });
        if config.sample.target_stderr > 0.0
            && merged.permutations() >= config.sample.min_permutations
            && merged.max_std_error() <= config.sample.target_stderr
        {
            break;
        }
    }

    ParallelEstimate {
        estimate: merged.into_estimate(counters),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::PeakDemandGame;
    use proptest::prelude::*;

    fn demo_game() -> PeakDemandGame {
        PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.5, 0.5, 3.5],
        ])
    }

    #[test]
    fn results_are_in_trial_order_at_any_parallelism() {
        let serial = run_parallel(37, 1, |t| t * t);
        for threads in [2, 3, 8, 64] {
            let parallel = run_parallel(37, threads, |t| t * t);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn zero_trials_yield_empty_results() {
        let out: Vec<usize> = run_parallel(0, 4, |t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn zero_threads_clamps_to_one_worker() {
        // Satellite regression: `threads = 0` must mean "serial", not a
        // panic or an empty result, so CLI knobs can pass through as-is.
        let zero = run_parallel(5, 0, |t| t * 3);
        let one = run_parallel(5, 1, |t| t * 3);
        assert_eq!(zero, one);
        assert_eq!(zero, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn one_thread_handles_every_trial() {
        let out = run_parallel(9, 1, |t| t + 1);
        assert_eq!(out, (1..=9).collect::<Vec<usize>>());
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let ids = run_parallel(6, threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "threads = {threads}");
        }
        // A single item needs one worker whatever the thread count.
        assert_eq!(
            run_parallel(1, 8, |_| std::thread::current().id()),
            vec![caller]
        );
    }

    #[test]
    #[should_panic(expected = "injected failure in item 3")]
    fn one_worker_propagates_the_items_own_panic() {
        let _ = run_parallel(5, 1, |t| {
            assert!(t != 3, "injected failure in item {t}");
            t
        });
    }

    #[test]
    fn zero_threads_estimate_matches_one_thread() {
        let g = demo_game();
        let base = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 256,
                target_stderr: 0.0,
                min_permutations: 1,
                antithetic: true,
            },
            batch_permutations: 32,
            round_batches: 4,
            threads: 0,
            coalition_cache: false,
        };
        let zero = parallel_sampled_shapley(&g, &base, 7);
        let one = parallel_sampled_shapley(&g, &ParallelConfig { threads: 1, ..base }, 7);
        for (a, b) in zero.estimate.values.iter().zip(&one.estimate.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_is_surfaced_not_hung() {
        let _ = run_parallel(16, 4, |t| {
            assert!(t != 11, "injected failure");
            t
        });
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn panics_in_every_worker_are_still_one_panic() {
        let _: Vec<usize> = run_parallel(8, 8, |_| panic!("all workers fail"));
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = demo_game();
        let base = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 2000,
                target_stderr: 0.02,
                min_permutations: 128,
                antithetic: true,
            },
            batch_permutations: 32,
            round_batches: 8,
            threads: 1,
            coalition_cache: false,
        };
        let reference = parallel_sampled_shapley(&g, &base, 0xFA1C0);
        for threads in [2usize, 8] {
            let config = ParallelConfig { threads, ..base };
            let run = parallel_sampled_shapley(&g, &config, 0xFA1C0);
            assert_eq!(
                run.estimate.permutations, reference.estimate.permutations,
                "threads = {threads}"
            );
            for (a, b) in run.estimate.values.iter().zip(&reference.estimate.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
            for (a, b) in run
                .estimate
                .std_errors
                .iter()
                .zip(&reference.estimate.std_errors)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
            assert_eq!(run.trace.points.len(), reference.trace.points.len());
            for (a, b) in run.trace.points.iter().zip(&reference.trace.points) {
                assert_eq!(a.max_std_error.to_bits(), b.max_std_error.to_bits());
                assert_eq!(a.permutations, b.permutations);
            }
        }
    }

    /// Integer-valued demands keep every coalition value exact in f64, so
    /// cached replay is bit-identical to uncached replay (a cache hit
    /// returns the first-computed value for a mask, which could otherwise
    /// differ in the last ulp from a different summation order).
    fn integer_demo_game() -> PeakDemandGame {
        PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.0, 1.0, 3.0],
        ])
    }

    #[test]
    fn coalition_cache_preserves_bit_identity_and_counts_hits() {
        let g = integer_demo_game();
        let base = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 1024,
                target_stderr: 0.0,
                min_permutations: 1,
                antithetic: true,
            },
            batch_permutations: 64,
            round_batches: 4,
            threads: 1,
            coalition_cache: false,
        };
        let uncached = parallel_sampled_shapley(&g, &base, 0xCAFE);
        let cached_cfg = ParallelConfig {
            coalition_cache: true,
            ..base
        };
        let cached = parallel_sampled_shapley(&g, &cached_cfg, 0xCAFE);
        for (a, b) in cached.estimate.values.iter().zip(&uncached.estimate.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // With 5 players only 32 coalitions exist, so a 64-permutation
        // batch overwhelmingly hits the cache.
        let c = &cached.estimate.counters;
        assert!(c.cache_hits > 0, "expected cache hits, got {c:?}");
        assert!(
            c.coalition_evals < uncached.estimate.counters.coalition_evals / 2,
            "cache should cut evals ≥ 50%: {} vs {}",
            c.coalition_evals,
            uncached.estimate.counters.coalition_evals
        );
        // The cached schedule is still thread-invariant.
        for threads in [2usize, 8] {
            let run = parallel_sampled_shapley(
                &g,
                &ParallelConfig {
                    threads,
                    ..cached_cfg
                },
                0xCAFE,
            );
            for (a, b) in run.estimate.values.iter().zip(&cached.estimate.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
            assert_eq!(
                run.estimate.counters.cache_hits, cached.estimate.counters.cache_hits,
                "hit counts are part of the schedule, threads = {threads}"
            );
        }
    }

    #[test]
    fn converges_to_exact_values() {
        let g = demo_game();
        let exact = exact_shapley(&g).unwrap();
        let run = parallel_sampled_shapley(
            &g,
            &ParallelConfig {
                sample: SampleConfig {
                    max_permutations: 20_000,
                    ..SampleConfig::default()
                },
                ..ParallelConfig::default()
            },
            99,
        );
        for (e, s) in exact.iter().zip(&run.estimate.values) {
            assert!((e - s).abs() < 0.05, "exact {e} sampled {s}");
        }
    }

    #[test]
    fn stopping_rule_halts_on_round_boundary_before_budget() {
        let g = demo_game();
        let config = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 100_000,
                target_stderr: 0.05,
                min_permutations: 100,
                antithetic: true,
            },
            batch_permutations: 64,
            round_batches: 4,
            threads: 2,
            coalition_cache: false,
        };
        let run = parallel_sampled_shapley(&g, &config, 1);
        assert!(run.estimate.permutations < 100_000);
        assert!(run.estimate.max_std_error() <= 0.05);
        // Work stops on a round boundary: a whole number of batches ran.
        assert_eq!(run.estimate.permutations % 64, 0);
        assert_eq!(
            run.estimate.counters.batches as usize * 64,
            run.estimate.permutations
        );
    }

    #[test]
    fn trace_standard_errors_shrink_with_permutations() {
        let g = demo_game();
        let run = parallel_sampled_shapley(
            &g,
            &ParallelConfig {
                sample: SampleConfig {
                    max_permutations: 4096,
                    target_stderr: 0.0,
                    min_permutations: 64,
                    antithetic: true,
                },
                batch_permutations: 64,
                round_batches: 8,
                threads: 4,
                coalition_cache: false,
            },
            5,
        );
        let points = &run.trace.points;
        assert!(points.len() >= 2);
        assert!(points
            .windows(2)
            .all(|w| w[0].permutations < w[1].permutations));
        let first = points.first().unwrap().max_std_error;
        let last = points.last().unwrap().max_std_error;
        assert!(last < first, "stderr should shrink: {first} → {last}");
        assert_eq!(run.trace.final_std_error(), Some(last));
    }

    #[test]
    fn budget_remainder_lands_in_the_final_batch() {
        let g = demo_game();
        let run = parallel_sampled_shapley(
            &g,
            &ParallelConfig {
                sample: SampleConfig {
                    max_permutations: 100, // 1 full batch of 64 + 36
                    target_stderr: 0.0,
                    min_permutations: 1,
                    antithetic: true,
                },
                batch_permutations: 64,
                round_batches: 4,
                threads: 3,
                coalition_cache: false,
            },
            12,
        );
        assert_eq!(run.estimate.permutations, 100);
        assert_eq!(run.estimate.counters.batches, 2);
        assert_eq!(run.estimate.counters.coalition_evals, 100 * 5);
    }

    #[test]
    fn trace_serializes_to_json() {
        let g = demo_game();
        let run = parallel_sampled_shapley(
            &g,
            &ParallelConfig {
                sample: SampleConfig {
                    max_permutations: 128,
                    ..SampleConfig::default()
                },
                ..ParallelConfig::default()
            },
            3,
        );
        let value = serde::Serialize::serialize(&run.trace);
        let points = value.get("points").expect("points field");
        assert_eq!(points.as_array().unwrap().len(), run.trace.points.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Satellite invariant: merging per-batch moments reproduces the
        // single-batch statistics for ANY partition of the permutation
        // stream (here: any batch size against a one-batch reference).
        #[test]
        fn any_batch_partition_merges_to_the_single_batch_moments(
            batch in 1usize..96,
            seed in 0u64..1000,
        ) {
            let g = demo_game();
            let total = 96usize;
            let sample = SampleConfig {
                max_permutations: total,
                target_stderr: 0.0,
                min_permutations: 1,
                antithetic: false,
            };
            let whole = parallel_sampled_shapley(
                &g,
                &ParallelConfig {
                    sample,
                    batch_permutations: total,
                    round_batches: 1,
                    threads: 1,
                    coalition_cache: false,
                },
                seed,
            );
            let split = parallel_sampled_shapley(
                &g,
                &ParallelConfig {
                    sample,
                    batch_permutations: batch,
                    round_batches: 7,
                    threads: 3,
                    coalition_cache: false,
                },
                seed,
            );
            prop_assert_eq!(split.estimate.permutations, whole.estimate.permutations);
            // Different batch sizes draw different permutations per batch
            // seed, so values only agree when the partition matches; what
            // must ALWAYS hold is internal consistency: re-merging the
            // split run's batches serially equals the parallel merge.
            let serial = parallel_sampled_shapley(
                &g,
                &ParallelConfig {
                    sample,
                    batch_permutations: batch,
                    round_batches: 7,
                    threads: 1,
                    coalition_cache: false,
                },
                seed,
            );
            for (a, b) in split.estimate.values.iter().zip(&serial.estimate.values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in split
                .estimate
                .std_errors
                .iter()
                .zip(&serial.estimate.std_errors)
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // The same marginal stream grouped into arbitrary batch sizes
        // merges to the one-batch statistics (up to FP associativity).
        #[test]
        fn merged_moments_equal_single_batch_for_any_partition(
            cuts in prop::collection::vec(1usize..8, 1..6),
            seed in 0u64..1000,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let g = demo_game();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..5).collect();
            let mut forward = vec![0.0; 5];
            let mut state = g.initial_state();
            let mut counters = EvalCounters::default();
            let mut single = Moments::zero(5);
            let mut merged = Moments::zero(5);
            for &cut in &cuts {
                let mut batch = Moments::zero(5);
                for _ in 0..cut {
                    order.shuffle(&mut rng);
                    replay_marginals_into(&g, &order, &mut state, &mut forward, &mut counters);
                    batch.record_single(&forward);
                    single.record_single(&forward);
                }
                merged.merge(&batch);
            }
            prop_assert_eq!(merged.permutations(), single.permutations());
            prop_assert_eq!(merged.samples(), single.samples());
            for (m, s) in merged.values().iter().zip(single.values()) {
                prop_assert!((m - s).abs() <= 1e-12 * s.abs().max(1.0));
            }
            for (m, s) in merged.std_errors().iter().zip(single.std_errors()) {
                if s.is_finite() {
                    prop_assert!((m - s).abs() <= 1e-12 * s.abs().max(1.0));
                } else {
                    // A one-permutation stream has no variance estimate on
                    // either path (both report INFINITY).
                    prop_assert!(!m.is_finite());
                }
            }
        }
    }
}
