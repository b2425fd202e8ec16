//! Property tests pinning the exact solvers against each other:
//!
//! * the peak-demand game's Gray-walk [`Game::fill_values`] agrees with
//!   per-mask evaluation through the [`Replay`] adapter within
//!   1e-12·v(N), on random table games and on random integer and
//!   real-valued peak-demand games (n ≤ 10);
//! * the parallel solver ([`parallel_exact_shapley`]) is **bit-identical**
//!   to the serial one at 1, 2, 3, and 8 threads;
//! * every [`Game::fill_values`] equals per-mask [`Game::value`] over
//!   arbitrary mask ranges — bitwise on integer values, within 1e-12·v(N)
//!   on real-valued demands — a sub-range fill equals the same entries of
//!   the whole-block fills, and both solvers call the hook on the same
//!   aligned [`FILL_BLOCK_MASKS`] blocks at any thread count.

use std::sync::Mutex;

use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley, FILL_BLOCK_MASKS};
use fairco2_shapley::game::{Game, PeakDemandGame, Replay, TableGame};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fill_values_matches_value_per_mask(
        n in 1usize..=10,
        steps in 1usize..=5,
        peak_pool in prop::collection::vec(0u8..20, 4..32),
        real_pool in prop::collection::vec(0.0f64..50.0, 4..32),
        table_pool in prop::collection::vec(-1000i32..1000, 8..64),
        start in 0u64..1024,
        len in 0usize..=1024,
    ) {
        let size = 1u64 << n;
        let first = start % size;
        let len = len.min((size - first) as usize);
        prop_assert_eq!(fill_mismatch(&peak_game(n, steps, &peak_pool), first, len, 0.0), None);
        prop_assert_eq!(fill_mismatch(&peak_game(n, steps, &real_pool), first, len, 1e-12), None);
        prop_assert_eq!(fill_mismatch(&table_game(n, &table_pool), first, len, 0.0), None);
    }

    #[test]
    fn gray_code_matches_plain_on_random_table_games(
        n in 1usize..=10,
        pool in prop::collection::vec(-1000i32..1000, 8..64),
    ) {
        replay_gap(&table_game(n, &pool))?;
    }

    #[test]
    fn gray_code_matches_plain_on_random_peak_games(
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
