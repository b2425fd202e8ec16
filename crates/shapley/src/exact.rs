//! Ground-truth Shapley values by exhaustive subset enumeration.
//!
//! This is the paper's "ground truth Shapley value method" (Eq. 1):
//! every coalition is evaluated and every player's marginal contribution
//! is averaged with the exact combinatorial weights. The cost is
//! `Θ(2ⁿ)` coalition evaluations plus `Θ(n·2ⁿ)` accumulation steps, which
//! is why the paper caps its demand scenarios at 22 workloads — and why
//! Fair-CO₂ exists.
//!
//! Every solver here runs one block routine. The `2ⁿ` coalitions are cut
//! into fixed, aligned [`FILL_BLOCK_MASKS`] blocks; each block is filled
//! through [`Game::fill_values`] into a 256-value stack buffer and at
//! once scattered into its own φ partial and correction term; the
//! partials are folded in ascending block order. No solver holds a `2ⁿ`
//! value table, and since neither the blocks nor the fold order depend on
//! the thread count, the serial and parallel solvers agree bit for bit.

use std::fmt;

use crate::game::Game;
use crate::parallel::run_parallel;

/// Hard cap on exact enumeration. The cap is on time, not memory: a solve
/// holds one block buffer and, on the parallel path, one small φ partial
/// per block, while serial time doubles with every player. Study
/// schedules of 8–9 slices took 23–37 ms serially at 22 players and
/// 0.08–0.14 s at 24 on a 2-core shared host.
pub const MAX_EXACT_PLAYERS: usize = 24;

/// Masks per [`Game::fill_values`] call, and per φ partial. Blocks are
/// aligned and fixed, so their boundaries never depend on the thread
/// count: serial and parallel solvers make the same calls and fold the
/// same partials, and a game whose fill shares work within a block (the
/// peak-demand game's subset-sum table, the LP game's warm starts) gives
/// both the same values. Small enough that an 11-player game splits into
/// 8 blocks for the workers and a block's values fit on the stack; large
/// enough that a block's setup (the LP game's one cold solve, the
/// peak-demand game's per-step sums of the fixed high players) is a
/// small share of its work.
pub const FILL_BLOCK_MASKS: u64 = 1 << 8;

/// Error from the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The game has more players than enumeration can handle.
    TooManyPlayers {
        /// Player count of the offending game.
        n: usize,
        /// The enumeration cap ([`MAX_EXACT_PLAYERS`]).
        max: usize,
    },
    /// The game has no players.
    NoPlayers,
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooManyPlayers { n, max } => {
                write!(f, "{n} players exceed the exact-enumeration cap of {max}")
            }
            ExactError::NoPlayers => write!(f, "game has no players"),
        }
    }
}

impl std::error::Error for ExactError {}

/// Computes exact Shapley values by evaluating the characteristic
/// function on all `2ⁿ` coalitions, one [`FILL_BLOCK_MASKS`] block of
/// [`Game::fill_values`] at a time.
///
/// # Example
///
/// ```
/// use fairco2_shapley::exact_shapley;
/// use fairco2_shapley::game::PeakDemandGame;
///
/// // Two workloads with anti-correlated demand: each is sole author of
/// // its own peak, so each pays exactly its own peak's increment.
/// let game = PeakDemandGame::new(vec![vec![4.0, 0.0], vec![0.0, 3.0]]);
/// let phi = exact_shapley(&game)?;
/// assert!((phi[0] - 2.5).abs() < 1e-12); // ½·4 + ½·(4−3)… averaged orders
/// assert!((phi[0] + phi[1] - 4.0).abs() < 1e-12); // efficiency
/// # Ok::<(), fairco2_shapley::exact::ExactError>(())
/// ```
///
/// # Errors
///
/// Returns [`ExactError::TooManyPlayers`] beyond [`MAX_EXACT_PLAYERS`]
/// players and [`ExactError::NoPlayers`] for an empty game.
pub fn exact_shapley<G: Game>(game: &G) -> Result<Vec<f64>, ExactError> {
    exact_shapley_fast_with_scratch(game, &mut ExactScratch::new()).map(<[f64]>::to_vec)
}

/// [`exact_shapley`] with the blocks fanned out across worker threads
/// through [`run_parallel`]: each worker fills and scatters a contiguous
/// run of blocks, and the returned partials are folded in ascending block
/// order exactly as the serial solver folds them. The result is therefore
/// **bit-identical** to [`exact_shapley`] at any thread count, for every
/// game whose [`Game::fill_values`] is a pure function of its range.
///
/// `threads = 0` is clamped to one worker.
///
/// # Errors
///
/// Same conditions as [`exact_shapley`].
pub fn parallel_exact_shapley<G>(game: &G, threads: usize) -> Result<Vec<f64>, ExactError>
where
    G: Game + Sync,
{
    let n = check_size(game)?;
    let scatter = Scatter::new(n);
    let partials = run_parallel(scatter.blocks as usize, threads, |b| {
        scatter.block(b as u64, |first, out| game.fill_values(first, out))
    });
    let mut phi = vec![0.0f64; n];
    fold_partials(&mut phi, partials);
    Ok(phi)
}

/// Reusable φ buffer for the exact solver.
///
/// A Monte Carlo study calling the exact solver once per trial keeps one
/// scratch per worker, grown once to the study's player cap
/// ([`reserve_players`](Self::reserve_players)), so the solve allocates
/// nothing; the counters report how often a call had to grow it.
#[derive(Debug, Default)]
pub struct ExactScratch {
    phi: Vec<f64>,
    grows: u64,
    reuses: u64,
}

impl ExactScratch {
    /// An empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffer to hold a `players`-player solve, counting one
    /// growth if it actually grew. Never shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `players` exceeds [`MAX_EXACT_PLAYERS`].
    pub fn reserve_players(&mut self, players: usize) {
        assert!(
            players <= MAX_EXACT_PLAYERS,
            "{players} players exceed the exact-enumeration cap of {MAX_EXACT_PLAYERS}"
        );
        if self.phi.len() < players {
            self.grows += 1;
            self.phi.resize(players, 0.0);
        }
    }

    /// Largest player count the scratch can solve without growing.
    pub fn reserved_players(&self) -> usize {
        self.phi.len()
    }

    /// Number of solver calls (or explicit reservations) that had to grow
    /// the buffer.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Number of solver calls served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// [`exact_shapley`] writing through a reusable [`ExactScratch`]:
/// bit-identical results, but the φ buffer is reused across calls instead
/// of reallocated. Returns the φ values as a slice into the scratch
/// (valid until the next call).
///
/// # Errors
///
/// Same conditions as [`exact_shapley`].
pub fn exact_shapley_fast_with_scratch<'a, G: Game>(
    game: &G,
    scratch: &'a mut ExactScratch,
) -> Result<&'a [f64], ExactError> {
    let n = check_size(game)?;
    if scratch.phi.len() >= n {
        scratch.reuses += 1;
    } else {
        scratch.reserve_players(n);
    }
    let phi = &mut scratch.phi[..n];
    serial_blocks(phi, |first, out| game.fill_values(first, out));
    Ok(phi)
}

fn check_size<G: Game>(game: &G) -> Result<usize, ExactError> {
    let n = game.player_count();
    if n == 0 {
        return Err(ExactError::NoPlayers);
    }
    if n > MAX_EXACT_PLAYERS {
        return Err(ExactError::TooManyPlayers {
            n,
            max: MAX_EXACT_PLAYERS,
        });
    }
    Ok(n)
}

/// Shapley accumulation over a complete value table (`table[mask]` =
/// value of coalition `mask`), running the solvers' block routine over
/// the caller's table: [`exact_shapley`] of a game whose
/// [`Game::fill_values`] returns the same values gives the same bits.
///
/// Rather than the textbook per-player marginal loop (`n·2ⁿ` iterations,
/// each loading two table entries — one of them a `2ⁱ`-stride partner),
/// the accumulation uses the regrouped identity
///
/// ```text
/// φᵢ = Σ_{T∋i} (w[|T|−1] + w[|T|])·v(T)  −  Σ_T w[|T|]·v(T)
/// ```
///
/// with `w[n] ≔ 0`: each value is loaded once, weighted, and added to
/// the φ chains of the coalition's members (at most `n·2ⁿ⁻¹` adds — half
/// the marginal loop's work — since a block's fixed high players share
/// one chain), and the player-independent correction `Σ w[|T|]·v(T)` is
/// subtracted once at the end.
///
/// # Panics
///
/// Panics if `table` holds fewer than `2ⁿ` values or `n` exceeds
/// [`MAX_EXACT_PLAYERS`].
pub fn shapley_from_table(n: usize, table: &[f64]) -> Vec<f64> {
    let mut phi = vec![0.0f64; n];
    serial_blocks(&mut phi, |first, out| {
        out.copy_from_slice(&table[first as usize..][..out.len()]);
    });
    phi
}

/// The serial block routine for a `phi.len()`-player game: fills each
/// block through `fill`, scatters it, and folds each partial into `phi`
/// as it is made.
fn serial_blocks(phi: &mut [f64], fill: impl Fn(u64, &mut [f64])) {
    let scatter = Scatter::new(phi.len());
    fold_partials(phi, (0..scatter.blocks).map(|b| scatter.block(b, &fill)));
}

/// One block's scatter: its φ partial (the first `n` slots) and its
/// correction-term contribution.
type Partial = ([f64; MAX_EXACT_PLAYERS], f64);

/// Folds the block partials in the order given into `phi` and subtracts
/// the summed correction. Every solver passes the partials in ascending
/// block order, which is what makes their results bit-identical.
fn fold_partials(phi: &mut [f64], partials: impl IntoIterator<Item = Partial>) {
    phi.fill(0.0);
    let mut correction = 0.0;
    for (block_phi, c) in partials {
        for (p, b) in phi.iter_mut().zip(&block_phi) {
            *p += *b;
        }
        correction += c;
    }
    for p in phi.iter_mut() {
        *p -= correction;
    }
}

/// The per-size scatter coefficients of an `n`-player game and its block
/// layout. Fixed-size stack arrays keep the block routine allocation-free.
struct Scatter {
    /// `wc[k]` weights a size-`k` coalition in the player-independent
    /// correction: `w[k] = k!·(n−1−k)!/n!` for proper coalitions, 0 for
    /// the grand coalition, where `w[n]` does not exist.
    wc: [f64; MAX_EXACT_PLAYERS + 1],
    /// `coeff[k] = w[k−1] + wc[k]`, the factor applied to `v(T)` for
    /// every member of a size-`k` coalition.
    coeff: [f64; MAX_EXACT_PLAYERS + 1],
    /// Masks per block: [`FILL_BLOCK_MASKS`], or `2ⁿ` below it.
    block_len: usize,
    /// Number of blocks covering `0..2ⁿ`.
    blocks: u64,
}

impl Scatter {
    fn new(n: usize) -> Self {
        let size = 1u64 << n;
        let mut wc = [0.0f64; MAX_EXACT_PLAYERS + 1];
        let mut coeff = [0.0f64; MAX_EXACT_PLAYERS + 1];
        // `w[s] = w[s−1]·s/(n−s)` stays in floating range for any `n` we
        // support.
        wc[0] = 1.0 / n as f64;
        for s in 1..n {
            wc[s] = wc[s - 1] * s as f64 / (n - s) as f64;
        }
        for k in 1..=n {
            coeff[k] = wc[k - 1] + wc[k];
        }
        Self {
            wc,
            coeff,
            block_len: FILL_BLOCK_MASKS.min(size) as usize,
            blocks: size.div_ceil(FILL_BLOCK_MASKS),
        }
    }

    /// Fills block `b` through `fill` into a stack buffer and scatters it
    /// into a fresh partial: one serial chain per φ slot, each adding
    /// `coeff[|T|]·v(T)` over the block's masks `T` that hold the slot's
    /// player, in ascending mask order.
    ///
    /// Every mask of the block holds its high players, so their slots
    /// share one chain over all the block's terms. Each low player's
    /// chain runs over the half of the masks that hold its bit, and the
    /// [`MEMBER_MASKS`] table interleaves the low chains so they overlap.
    fn block(&self, b: u64, fill: impl FnOnce(u64, &mut [f64])) -> Partial {
        let first = b * FILL_BLOCK_MASKS;
        let mut terms = [0.0f64; FILL_BLOCK_MASKS as usize];
        fill(first, &mut terms[..self.block_len]);
        let high = first.count_ones() as usize;
        let mut correction = 0.0;
        let mut shared = 0.0;
        for (&members, t) in POPCOUNT.iter().zip(&mut terms[..self.block_len]) {
            let k = high + members as usize;
            correction += self.wc[k] * *t;
            *t *= self.coeff[k];
            shared += *t;
        }
        // Masks past a short block hold zeros, so the lanes of players
        // the game does not have add zeros and are dropped below.
        let mut lanes = [0.0f64; BLOCK_PLAYERS];
        for masks in &MEMBER_MASKS[..self.block_len / 2] {
            for (lane, &m) in lanes.iter_mut().zip(masks) {
                *lane += terms[m as usize];
            }
        }
        let low = self.block_len.trailing_zeros() as usize;
        let mut phi = [0.0f64; MAX_EXACT_PLAYERS];
        phi[..low].copy_from_slice(&lanes[..low]);
        let mut members = first;
        while members != 0 {
            phi[members.trailing_zeros() as usize] = shared;
            members &= members - 1;
        }
        (phi, correction)
    }
}

/// Players a [`FILL_BLOCK_MASKS`] block enumerates: the low bits of its
/// masks. The rest of a block's mask bits are fixed.
pub(crate) const BLOCK_PLAYERS: usize = FILL_BLOCK_MASKS.trailing_zeros() as usize;

/// `POPCOUNT[m]`: the members of block mask `m`. A table, because the
/// baseline x86-64 target has no `popcnt` instruction.
const POPCOUNT: [u8; FILL_BLOCK_MASKS as usize] = {
    let mut table = [0u8; FILL_BLOCK_MASKS as usize];
    let mut m = 0;
    while m < table.len() {
        table[m] = m.count_ones() as u8;
        m += 1;
    }
    table
};

/// `MEMBER_MASKS[i][j]`: the `i`-th block mask, in ascending order, that
/// holds low player `j`. The first `2ᵏ⁻¹` rows hold, for each `j < k`,
/// exactly the masks below `2ᵏ`.
const MEMBER_MASKS: [[u8; BLOCK_PLAYERS]; FILL_BLOCK_MASKS as usize / 2] = {
    let mut table = [[0u8; BLOCK_PLAYERS]; FILL_BLOCK_MASKS as usize / 2];
    let mut i = 0;
    while i < table.len() {
        let mut j = 0;
        while j < BLOCK_PLAYERS {
            let below = i & ((1 << j) - 1);
            table[i][j] = ((i - below) << 1 | 1 << j | below) as u8;
            j += 1;
        }
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::Coalition;
    use crate::game::{PeakDemandGame, Replay, TableGame};

    #[test]
    fn two_player_split_the_difference() {
        // Classic glove-game style check: v(1)=3, v(2)=2, v(12)=5.
        let g = TableGame::new(2, vec![0.0, 3.0, 2.0, 5.0]);
        let phi = exact_shapley(&g).unwrap();
        assert!((phi[0] - 3.0).abs() < 1e-12);
        assert!((phi[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn superadditive_game_known_values() {
        // v(1)=1, v(2)=1, v(12)=4 → φ = (2, 2).
        let g = TableGame::new(2, vec![0.0, 1.0, 1.0, 4.0]);
        let phi = exact_shapley(&g).unwrap();
        assert!((phi[0] - 2.0).abs() < 1e-12);
        assert!((phi[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_on_peak_demand_game() {
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
        ]);
        let phi = exact_shapley(&g).unwrap();
        let grand = g.value(&Coalition::grand(4));
        let total: f64 = phi.iter().sum();
        assert!((total - grand).abs() < 1e-9, "Σφ={total} v(N)={grand}");
    }

    /// The peak-demand game's table fill against per-mask `value()`
    /// through the [`Replay`] adapter.
    #[test]
    fn table_fill_solver_matches_plain() {
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.5, 0.5, 3.5],
        ]);
        let fill = exact_shapley(&g).unwrap();
        let plain = exact_shapley(&Replay(g.clone())).unwrap();
        let scale = g.value(&Coalition::grand(5));
        for (a, b) in plain.iter().zip(&fill) {
            assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn size_limits_are_enforced() {
        let g = PeakDemandGame::new(vec![vec![1.0]; 25]);
        assert_eq!(
            exact_shapley(&g),
            Err(ExactError::TooManyPlayers { n: 25, max: 24 })
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_even_across_game_sizes() {
        // Solve a 5-player game, then a 3-player game through the SAME
        // scratch: the stale tail of the larger φ buffer must not leak
        // into the smaller solve.
        let big = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.5, 0.5, 3.5],
        ]);
        let small = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
        ]);
        let mut scratch = ExactScratch::new();
        scratch.reserve_players(5);
        for game in [&big, &small, &big, &small] {
            let fresh = exact_shapley(game).unwrap();
            let reused = exact_shapley_fast_with_scratch(game, &mut scratch).unwrap();
            assert_eq!(fresh.len(), reused.len());
            for (a, b) in fresh.iter().zip(reused) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(scratch.grows(), 1, "pre-grown scratch never regrows");
        assert_eq!(scratch.reuses(), 4);
    }

    #[test]
    fn scratch_grows_lazily_and_counts_reuses() {
        let g = PeakDemandGame::new(vec![vec![3.0, 1.0], vec![0.0, 2.0]]);
        let mut scratch = ExactScratch::new();
        assert_eq!(scratch.reserved_players(), 0);
        exact_shapley_fast_with_scratch(&g, &mut scratch).unwrap();
        assert_eq!(scratch.grows(), 1);
        assert_eq!(scratch.reuses(), 0);
        assert_eq!(scratch.reserved_players(), 2);
        exact_shapley_fast_with_scratch(&g, &mut scratch).unwrap();
        assert_eq!(scratch.reuses(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed the exact-enumeration cap")]
    fn scratch_rejects_oversized_reservations() {
        ExactScratch::new().reserve_players(MAX_EXACT_PLAYERS + 1);
    }

    #[test]
    fn null_player_gets_zero() {
        let g = PeakDemandGame::new(vec![vec![3.0, 1.0], vec![0.0, 0.0]]);
        let phi = exact_shapley(&g).unwrap();
        assert!((phi[0] - 3.0).abs() < 1e-12);
        assert_eq!(phi[1], 0.0);
    }

    /// Deterministic signed pseudo-random coalition values, exercising
    /// cancellation in the φ accumulation.
    fn hash_value(mask: u64, seed: u64) -> f64 {
        let mut x = mask.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        ((x >> 16) % 2001) as f64 / 100.0 - 10.0
    }

    /// A hashed table with `v(∅) = 0`, as [`TableGame`] requires.
    fn hash_table(n: usize, seed: u64) -> Vec<f64> {
        (0u64..1 << n)
            .map(|m| if m == 0 { 0.0 } else { hash_value(m, seed) })
            .collect()
    }

    /// The regrouped scatter must agree with the textbook per-player
    /// marginal sum `φᵢ = Σ_{S∌i} w[|S|]·(v(S∪{i}) − v(S))` on cancelling
    /// values — across sizes below, at, and above one
    /// [`FILL_BLOCK_MASKS`] block.
    #[test]
    fn scatter_matches_the_textbook_marginal_sum() {
        for &n in &[1usize, 2, 3, 5, 8, 9, 10, 17] {
            let table: Vec<f64> = (0u64..1 << n).map(|m| hash_value(m, n as u64)).collect();
            let weights = Scatter::new(n).wc;
            let phi = shapley_from_table(n, &table);
            for (i, &got) in phi.iter().enumerate() {
                let bit = 1usize << i;
                let want: f64 = (0..table.len())
                    .filter(|s| s & bit == 0)
                    .map(|s| weights[s.count_ones() as usize] * (table[s | bit] - table[s]))
                    .sum();
                let scale = want.abs().max(got.abs()).max(f64::MIN_POSITIVE);
                assert!(
                    (want - got).abs() <= 1e-11 * scale,
                    "n={n} phi[{i}]: marginal sum {want} vs scatter {got}"
                );
            }
        }
    }

    /// The textbook per-member scatter: each block term added to the
    /// slot of every member of its coalition, mask by mask.
    fn per_member_block(scatter: &Scatter, b: u64, table: &[f64]) -> Partial {
        let first = b * FILL_BLOCK_MASKS;
        let mut phi = [0.0f64; MAX_EXACT_PLAYERS];
        let mut correction = 0.0;
        for (mask, &v) in (first..).zip(&table[first as usize..][..scatter.block_len]) {
            let k = mask.count_ones() as usize;
            correction += scatter.wc[k] * v;
            let cv = scatter.coeff[k] * v;
            let mut members = mask;
            while members != 0 {
                phi[members.trailing_zeros() as usize] += cv;
                members &= members - 1;
            }
        }
        (phi, correction)
    }

    /// The chained block scatter runs the per-member scatter's chains in
    /// the same order, so every partial equals it bit for bit on signed
    /// values — below one block, at one, and across several.
    #[test]
    fn block_scatter_matches_the_per_member_oracle_bitwise() {
        for n in [1usize, 5, 7, 8, 9, 12, 17] {
            let table = hash_table(n, 3 + n as u64);
            let scatter = Scatter::new(n);
            for b in 0..scatter.blocks {
                let (phi, correction) = scatter.block(b, |first, out| {
                    out.copy_from_slice(&table[first as usize..][..out.len()]);
                });
                let (want, want_correction) = per_member_block(&scatter, b, &table);
                assert_eq!(
                    correction.to_bits(),
                    want_correction.to_bits(),
                    "n={n} b={b}"
                );
                for (p, (got, want)) in phi.iter().zip(&want).enumerate().take(n) {
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} b={b} phi[{p}]");
                }
            }
        }
    }

    /// An all-zero table must produce exactly-0.0 φ: every scatter add
    /// and the correction are exact zeros.
    #[test]
    fn scatter_preserves_exact_zeros() {
        let table = vec![0.0f64; 1 << 6];
        for v in shapley_from_table(6, &table) {
            assert_eq!(v.to_bits(), 0.0f64.to_bits());
        }
    }

    /// `shapley_from_table` runs the solvers' block routine over the
    /// caller's table, so it equals the serial and parallel solvers on
    /// the matching [`TableGame`] bit for bit — below one block, at one,
    /// and across the block seams.
    #[test]
    fn parallel_table_accumulation_is_bit_identical_to_serial() {
        for n in [1usize, 7, 8, 9, 17] {
            let table = hash_table(n, 7);
            let from_table = shapley_from_table(n, &table);
            let game = TableGame::new(n, table);
            let mut solves = vec![("serial".to_string(), exact_shapley(&game).unwrap())];
            for threads in [1, 2, 3, 8] {
                let phi = parallel_exact_shapley(&game, threads).unwrap();
                solves.push((format!("threads={threads}"), phi));
            }
            for (label, phi) in &solves {
                for (p, (s, q)) in from_table.iter().zip(phi).enumerate() {
                    assert_eq!(s.to_bits(), q.to_bits(), "n={n} {label} phi[{p}]");
                }
            }
        }
    }
}
