//! Property tests pinning the exact solvers against each other:
//!
//! * the peak-demand game's subset-sum table [`Game::fill_values`] agrees
//!   with per-mask evaluation through the [`Replay`] adapter within
//!   1e-12·v(N), on random table games and on random integer and
//!   real-valued peak-demand games (n ≤ 10);
//! * the parallel solver ([`parallel_exact_shapley`]) is **bit-identical**
//!   to the serial one at 1, 2, 3, and 8 threads;
//! * every [`Game::fill_values`] equals per-mask [`Game::value`] over
//!   arbitrary mask ranges — bitwise on integer values, signed ones
//!   included, within 1e-12·v(N) on real-valued demands — on random
//!   games and on schedule-shaped peak-demand games of up to 12 players
//!   and 48 steps, whose steps share low-player columns; a sub-range fill
//!   equals the same entries of the whole-block fills, and both solvers
//!   call the hook on the same aligned [`FILL_BLOCK_MASKS`] blocks at any
//!   thread count;
//! * permutation replay ([`replay_marginals_into`]) through one reused
//!   state reaches every prefix's [`Game::value`] — bitwise on integer
//!   demands, within 1e-12·v(N) on real-valued ones — on random
//!   schedule-shaped peak-demand games.

use std::sync::Mutex;

use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley, FILL_BLOCK_MASKS};
use fairco2_shapley::game::{
    replay_marginals_into, EvalCounters, Game, IncrementalGame, PeakDemandGame, Replay, TableGame,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Builds a table game over `n` players from a pool of integer values
/// (`values[0]` is forced to 0 to satisfy the `v(∅) = 0` contract).
fn table_game(n: usize, pool: &[i32]) -> TableGame {
    let size = 1usize << n;
    let values: Vec<f64> = (0..size)
        .map(|mask| {
            if mask == 0 {
                0.0
            } else {
                pool[mask % pool.len()] as f64
            }
        })
        .collect();
    TableGame::new(n, values)
}

/// Builds an `n`-player, `steps`-step peak-demand game from a pool of
/// non-negative demands (small integers or reals).
fn peak_game<T: Copy + Into<f64>>(n: usize, steps: usize, pool: &[T]) -> PeakDemandGame {
    let demand: Vec<Vec<f64>> = (0..n)
        .map(|p| {
            (0..steps)
                .map(|t| pool[(p * steps + t) % pool.len()].into())
                .collect()
        })
        .collect();
    PeakDemandGame::new(demand)
}

/// `v(N)`, the scale of the closeness pins.
fn grand_value<G: Game>(game: &G) -> f64 {
    game.value(&Coalition::grand(game.player_count())).abs()
}

/// The first mask in `first_mask..first_mask + len` whose
/// [`Game::fill_values`] entry differs from [`Game::value`] by more than
/// `tol · v(N)` (`tol = 0` asks for the same bits), or whose entry
/// differs in any bit from the same entry of the whole-block fills.
fn fill_mismatch<G: Game>(game: &G, first_mask: u64, len: usize, tol: f64) -> Option<u64> {
    let n = game.player_count();
    let mut out = vec![f64::NAN; len];
    game.fill_values(first_mask, &mut out);
    let block = FILL_BLOCK_MASKS.min(1 << n);
    let lo = first_mask - first_mask % block;
    let hi = (first_mask + len as u64).div_ceil(block) * block;
    let mut whole = vec![f64::NAN; (hi - lo) as usize];
    for (b, chunk) in whole.chunks_mut(block as usize).enumerate() {
        game.fill_values(lo + b as u64 * block, chunk);
    }
    let scale = tol * grand_value(game);
    (first_mask..)
        .zip(out.iter().zip(&whole[(first_mask - lo) as usize..]))
        .find(|&(mask, (v, w))| {
            let want = game.value(&Coalition::from_mask(n, mask));
            let off = if tol == 0.0 {
                v.to_bits() != want.to_bits()
            } else {
                (v - want).abs() > scale
            };
            off || v.to_bits() != w.to_bits()
        })
        .map(|(mask, _)| mask)
}

/// `exact_shapley` through the game's own fill against per-mask
/// `value()` through [`Replay`], within `1e-12 · v(N)`.
fn replay_gap<G: Game + Clone>(game: &G) -> Result<(), TestCaseError> {
    let fast = exact_shapley(game).unwrap();
    let plain = exact_shapley(&Replay(game.clone())).unwrap();
    let tol = 1e-12 * grand_value(game);
    for (a, b) in plain.iter().zip(&fast) {
        prop_assert!((a - b).abs() <= tol, "per-mask {a} vs fill {b}");
    }
    Ok(())
}

/// A schedule-shaped peak-demand game over `steps` time steps: job
/// `(start, len, d)` demands `d` on the contiguous window of at least
/// one step that starts at `start % steps`, and nothing elsewhere — the
/// shape every generated Monte Carlo schedule has.
fn schedule_game(steps: usize, jobs: impl Iterator<Item = (usize, usize, f64)>) -> PeakDemandGame {
    let rows = jobs
        .map(|(start, len, d)| {
            let start = start % steps;
            let window = start..start + 1 + len % (steps - start);
            (0..steps)
                .map(|t| if window.contains(&t) { d } else { 0.0 })
                .collect()
        })
        .collect();
    PeakDemandGame::new(rows)
}

/// Replays `permutations` seeded random orders of `game` through
/// [`replay_marginals_into`] with one reused state, and checks that the
/// running sum of each order's marginals reaches `value()` of every
/// prefix within `tol · v(N)` (`tol = 0` asks for the same bits) and
/// that replay charges one evaluation per step.
fn replay_prefix_gap(
    game: &PeakDemandGame,
    seed: u64,
    permutations: usize,
    tol: f64,
) -> Result<(), TestCaseError> {
    let n = game.player_count();
    let scale = tol * grand_value(game);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = game.initial_state();
    let mut marginals = vec![0.0; n];
    let mut counters = EvalCounters::default();
    for _ in 0..permutations {
        order.shuffle(&mut rng);
        replay_marginals_into(game, &order, &mut state, &mut marginals, &mut counters);
        let mut prefix = Coalition::empty(n);
        let mut value = 0.0;
        for &p in &order {
            prefix.insert(p);
            value += marginals[p];
            let want = game.value(&prefix);
            if tol == 0.0 {
                prop_assert_eq!(value.to_bits(), want.to_bits(), "{:?} at {}", order, p);
            } else {
                prop_assert!((value - want).abs() <= scale, "{:?} at {}", order, p);
            }
        }
    }
    let steps = (permutations * n) as u64;
    prop_assert_eq!(counters.coalition_evals, steps);
    prop_assert_eq!(counters.marginal_updates, steps);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_reaches_every_prefix_value_on_schedule_games(
        steps in 1usize..=12,
        jobs in prop::collection::vec((0usize..12, 0usize..12, 1u8..=64, 0.01f64..50.0), 1..=12),
        seed in 0u64..u64::MAX,
    ) {
        let integer = schedule_game(steps, jobs.iter().map(|&(s, l, d, _)| (s, l, d as f64)));
        let real = schedule_game(steps, jobs.iter().map(|&(s, l, _, r)| (s, l, r)));
        replay_prefix_gap(&integer, seed, 8, 0.0)?;
        replay_prefix_gap(&real, seed, 8, 1e-12)?;
    }

    #[test]
    fn fill_values_matches_value_per_mask(
        n in 1usize..=10,
        steps in 1usize..=5,
        peak_pool in prop::collection::vec(0u8..20, 4..32),
        real_pool in prop::collection::vec(0.0f64..50.0, 4..32),
        table_pool in prop::collection::vec(-1000i32..1000, 8..64),
        schedule_steps in 1usize..=48,
        jobs in prop::collection::vec((0usize..48, 0usize..48, -64i8..=64, 0.01f64..50.0), 1..=12),
        start in 0u64..4096,
        len in 0usize..=1024,
    ) {
        let range = |n: usize| {
            let size = 1u64 << n;
            let first = start % size;
            (first, len.min((size - first) as usize))
        };
        let (first, len) = range(n);
        prop_assert_eq!(fill_mismatch(&peak_game(n, steps, &peak_pool), first, len, 0.0), None);
        prop_assert_eq!(fill_mismatch(&peak_game(n, steps, &real_pool), first, len, 1e-12), None);
        prop_assert_eq!(fill_mismatch(&table_game(n, &table_pool), first, len, 0.0), None);
        // Contiguous job windows over up to 48 steps: many steps share
        // one column of the low players' demands, and signed integer
        // demands make some coalitions' peak the zero floor.
        let signed = schedule_game(schedule_steps, jobs.iter().map(|&(s, l, d, _)| (s, l, d as f64)));
        let real = schedule_game(schedule_steps, jobs.iter().map(|&(s, l, _, r)| (s, l, r)));
        let (first, len) = range(jobs.len());
        prop_assert_eq!(fill_mismatch(&signed, first, len, 0.0), None);
        prop_assert_eq!(fill_mismatch(&real, first, len, 1e-12), None);
    }

    #[test]
    fn table_fill_matches_plain_on_random_table_games(
        n in 1usize..=10,
        pool in prop::collection::vec(-1000i32..1000, 8..64),
    ) {
        replay_gap(&table_game(n, &pool))?;
    }

    #[test]
    fn table_fill_matches_plain_on_random_peak_games(
        n in 1usize..=10,
        steps in 1usize..=6,
        pool in prop::collection::vec(0u8..20, 4..32),
        real_pool in prop::collection::vec(0.0f64..50.0, 4..32),
    ) {
        replay_gap(&peak_game(n, steps, &pool))?;
        replay_gap(&peak_game(n, steps, &real_pool))?;
    }

    #[test]
    fn parallel_exact_is_bit_identical_to_serial(
        n in 1usize..=10,
        steps in 1usize..=5,
        pool in prop::collection::vec(0u8..20, 4..32),
    ) {
        let g = peak_game(n, steps, &pool);
        let serial = exact_shapley(&g).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let parallel = parallel_exact_shapley(&g, threads).unwrap();
            prop_assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.iter().zip(&serial) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads = {}", threads);
            }
        }
    }

    #[test]
    fn parallel_exact_is_bit_identical_on_table_games(
        n in 1usize..=10,
        pool in prop::collection::vec(-1000i32..1000, 8..64),
    ) {
        let g = table_game(n, &pool);
        let serial = exact_shapley(&g).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let parallel = parallel_exact_shapley(&g, threads).unwrap();
            for (a, b) in parallel.iter().zip(&serial) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads = {}", threads);
            }
        }
    }
}

/// A single larger case where the blocks span several per-worker runs,
/// exercising the seams that the small proptest cases cannot reach
/// (2¹⁷ masks = 512 blocks, split unevenly across 3 workers).
#[test]
fn parallel_exact_crosses_chunk_boundaries() {
    let n = 17;
    let demand: Vec<Vec<f64>> = (0..n)
        .map(|p: usize| {
            (0..4)
                .map(|t: usize| ((p * 5 + t * 3) % 7) as f64)
                .collect()
        })
        .collect();
    let g = PeakDemandGame::new(demand);
    let serial = exact_shapley(&g).unwrap();
    for threads in [1usize, 2, 3, 8] {
        let parallel = parallel_exact_shapley(&g, threads).unwrap();
        for (a, b) in parallel.iter().zip(&serial) {
            assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
        }
    }
}

/// A table game that logs the range of every [`Game::fill_values`] call.
struct FillLog {
    game: TableGame,
    calls: Mutex<Vec<(u64, usize)>>,
}

impl Game for FillLog {
    fn player_count(&self) -> usize {
        self.game.player_count()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        self.game.value(coalition)
    }

    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        self.calls.lock().unwrap().push((first_mask, out.len()));
        self.game.fill_values(first_mask, out);
    }
}

impl FillLog {
    fn take_sorted(&self) -> Vec<(u64, usize)> {
        let mut calls = std::mem::take(&mut *self.calls.lock().unwrap());
        calls.sort_unstable();
        calls
    }
}

/// Fill blocks are fixed and aligned: serial and parallel solvers make
/// exactly the same `fill_values` calls at every thread count, below one
/// block, at one, and across several.
#[test]
fn fill_blocks_are_aligned_and_independent_of_thread_count() {
    for n in [3usize, 8, 10, 11] {
        let log = FillLog {
            game: table_game(n, &[3, -1, 4, 1, -5, 9, 2, -6]),
            calls: Mutex::new(Vec::new()),
        };
        let size = 1u64 << n;
        let block = FILL_BLOCK_MASKS.min(size);
        let want: Vec<(u64, usize)> = (0..size / block)
            .map(|b| (b * block, block as usize))
            .collect();
        exact_shapley(&log).unwrap();
        assert_eq!(log.take_sorted(), want, "n={n} serial");
        for threads in [1usize, 2, 3, 8] {
            parallel_exact_shapley(&log, threads).unwrap();
            assert_eq!(log.take_sorted(), want, "n={n} threads={threads}");
        }
    }
}
