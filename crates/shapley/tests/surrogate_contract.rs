//! Property tests for the surrogate attributor's serving contract: every
//! outcome (served or fallen back) satisfies the efficiency axiom, a zero
//! tolerance collapses bit-for-bit to [`parallel_sampled_shapley`] at one
//! thread without a coalition cache, and fallback decisions are invariant
//! to how trials are partitioned across threads.

use std::sync::OnceLock;

use proptest::prelude::*;

use fairco2_shapley::axioms::check_efficiency;
use fairco2_shapley::exact::exact_shapley;
use fairco2_shapley::game::{Game, PeakDemandGame};
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::SampleConfig;
use fairco2_shapley::surrogate::{
    SurrogateAttributor, SurrogateModel, SurrogateScratch, SurrogateTrainer,
};

const MAX_PLAYERS: usize = 6;
const MAX_STEPS: usize = 5;

/// Deterministic training corpus: enough varied small games to fit the
/// cross-fitted model once for the whole test binary.
fn trained_model() -> &'static SurrogateModel {
    static MODEL: OnceLock<SurrogateModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut trainer = SurrogateTrainer::new();
        for shift in 0..80usize {
            let n = 2 + shift % 5;
            let steps = 2 + shift % 4;
            let mut demand = vec![vec![0.0; steps]; n];
            for (p, row) in demand.iter_mut().enumerate() {
                for (t, d) in row.iter_mut().enumerate() {
                    *d = ((p * 7 + t * 5 + shift * 3) % 11) as f64;
                }
            }
            let game = PeakDemandGame::new(demand);
            if let Ok(truth) = exact_shapley(&game) {
                trainer.record(&game, &truth);
            }
        }
        trainer.fit(1e-6).expect("training corpus fits")
    })
}

/// Builds a game from a flat demand pool; the first entry is forced
/// positive so `v(N) > 0`.
fn pool_game(pool: &[f64], n: usize, steps: usize) -> PeakDemandGame {
    let mut demand = vec![vec![0.0; steps]; n];
    for (p, row) in demand.iter_mut().enumerate() {
        for (t, d) in row.iter_mut().enumerate() {
            *d = pool[p * steps + t];
        }
    }
    demand[0][0] += 1.0;
    PeakDemandGame::new(demand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Served or fallen back, every outcome satisfies the efficiency
    /// axiom: served values are conservation-renormalized (exact to
    /// 1e-9), and the sampled fallback's per-permutation marginals
    /// telescope to `v(N)`, so its estimates are efficient to FP error.
    #[test]
    fn every_outcome_satisfies_efficiency(
        pool in prop::collection::vec(0.0f64..10.0, MAX_PLAYERS * MAX_STEPS),
        n in 2usize..=MAX_PLAYERS,
        steps in 2usize..=MAX_STEPS,
        tol in (0usize..4).prop_map(|i| [0.005, 0.02, 0.1, 0.5][i]),
        trial in 0u64..1000,
    ) {
        let game = pool_game(&pool, n, steps);
        let attributor = SurrogateAttributor::new(trained_model().clone(), tol);
        let mut scratch = SurrogateScratch::new();
        let outcome = attributor.attribute_with(&game, trial, &mut scratch);
        prop_assert!(outcome.values.iter().all(|v| v.is_finite()));
        if outcome.fell_back {
            prop_assert!(check_efficiency(&game, &outcome.values, 1e-6).holds());
        } else {
            prop_assert!(outcome.residual_bound() <= tol, "served above tolerance");
            prop_assert!(check_efficiency(&game, &outcome.values, 1e-9).holds());
        }
    }

    /// A zero tolerance disables the surrogate entirely: every trial
    /// falls back, bit-identical to calling [`parallel_sampled_shapley`]
    /// directly with the fallback's configuration (default sampling, one
    /// thread, no coalition cache) and the attributor's per-trial seed.
    #[test]
    fn zero_tolerance_collapses_to_sampled(
        pool in prop::collection::vec(0.0f64..10.0, MAX_PLAYERS * MAX_STEPS),
        n in 2usize..=MAX_PLAYERS,
        steps in 2usize..=MAX_STEPS,
        trial in 0u64..1000,
    ) {
        let game = pool_game(&pool, n, steps);
        let attributor = SurrogateAttributor::new(trained_model().clone(), 0.0);
        let mut scratch = SurrogateScratch::new();
        let outcome = attributor.attribute_with(&game, trial, &mut scratch);
        prop_assert!(outcome.fell_back);
        let fallback = ParallelConfig::serial(SampleConfig::default());
        prop_assert_eq!(fallback.threads, 1);
        prop_assert!(!fallback.coalition_cache);
        let seed = SurrogateAttributor::DEFAULT_SEED.wrapping_add(trial);
        let direct = parallel_sampled_shapley(&game, &fallback, seed).estimate;
        prop_assert_eq!(outcome.values.len(), direct.values.len());
        for (a, b) in outcome.values.iter().zip(&direct.values) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "fallback bit-identity");
        }
    }

    /// Attribution is a pure function of `(model, game, trial)`: chunking
    /// a batch of trials across worker threads changes neither the
    /// fallback decisions (count included) nor a single served bit.
    #[test]
    fn fallback_decisions_are_thread_invariant(
        pools in prop::collection::vec(
            prop::collection::vec(0.0f64..10.0, MAX_PLAYERS * MAX_STEPS),
            4..10,
        ),
        n in 2usize..=MAX_PLAYERS,
        steps in 2usize..=MAX_STEPS,
        tol in (0usize..3).prop_map(|i| [0.02, 0.1, 0.5][i]),
    ) {
        let games: Vec<PeakDemandGame> =
            pools.iter().map(|pool| pool_game(pool, n, steps)).collect();
        let attributor = SurrogateAttributor::new(trained_model().clone(), tol);

        let run = |threads: usize| -> Vec<(bool, Vec<u64>)> {
            let mut out: Vec<Option<(bool, Vec<u64>)>> = vec![None; games.len()];
            std::thread::scope(|scope| {
                let chunk = games.len().div_ceil(threads);
                for (w, (games_chunk, out_chunk)) in games
                    .chunks(chunk)
                    .zip(out.chunks_mut(chunk))
                    .enumerate()
                {
                    let attributor = &attributor;
                    scope.spawn(move || {
                        let mut scratch = SurrogateScratch::new();
                        for (i, (game, slot)) in
                            games_chunk.iter().zip(out_chunk.iter_mut()).enumerate()
                        {
                            let trial = (w * chunk + i) as u64;
                            let o = attributor.attribute_with(game, trial, &mut scratch);
                            *slot = Some((
                                o.fell_back,
                                o.values.iter().map(|v| v.to_bits()).collect(),
                            ));
                        }
                    });
                }
            });
            out.into_iter().map(|o| o.expect("all trials ran")).collect()
        };

        let serial = run(1);
        for threads in [2usize, 4] {
            let parallel = run(threads);
            let serial_fallbacks = serial.iter().filter(|(f, _)| *f).count();
            let parallel_fallbacks = parallel.iter().filter(|(f, _)| *f).count();
            prop_assert_eq!(serial_fallbacks, parallel_fallbacks, "fallback count");
            prop_assert_eq!(&serial, &parallel, "per-trial decisions and bits");
        }
    }
}

/// The grand value reported by every outcome is the game's own `v(N)`
/// bit for bit — the anchor both the efficiency gap and the harvest
/// normalization rely on.
#[test]
fn outcome_grand_value_matches_game() {
    let mut demand = vec![vec![0.0; 4]; 3];
    for (p, row) in demand.iter_mut().enumerate() {
        for (t, d) in row.iter_mut().enumerate() {
            *d = ((p * 3 + t * 2) % 5) as f64 + 0.5;
        }
    }
    let game = PeakDemandGame::new(demand);
    let attributor = SurrogateAttributor::new(trained_model().clone(), 0.1);
    let outcome = attributor.attribute(&game, 0);
    let direct = game.value(&fairco2_shapley::coalition::Coalition::grand(3));
    assert_eq!(outcome.grand_value.to_bits(), direct.to_bits());
}
