//! Ground-truth Shapley values by exhaustive subset enumeration.
//!
//! This is the paper's "ground truth Shapley value method" (Eq. 1):
//! every coalition is evaluated and every player's marginal contribution
//! is averaged with the exact combinatorial weights. The cost is
//! `Θ(2ⁿ)` coalition evaluations plus `Θ(n·2ⁿ)` accumulation steps, which
//! is why the paper caps its demand scenarios at 22 workloads — and why
//! Fair-CO₂ exists.

use std::fmt;

use crate::game::Game;
use crate::maxtree::MaxTree;
use crate::parallel::run_parallel;

/// Hard cap on exact enumeration: `2²⁴` values ≈ 128 MiB of table.
///
/// Peak memory at the cap is the value table plus allocator slack and
/// nothing else: measured peak RSS (`VmHWM` from `/proc/self/status`) of
/// a 24-player run on the CI container is 130.0 MiB for `exact_shapley`
/// and 134.2 MiB for `parallel_exact_shapley` — [`shapley_from_table`]
/// streams the table in cache-friendly blocks rather than materializing
/// any per-player copy, and the parallel fill writes the single table in
/// place instead of assembling per-chunk buffers. Reproduce with
/// `perf_report --max-n 24`, which records the same counter.
pub const MAX_EXACT_PLAYERS: usize = 24;

/// Masks per block when streaming the value table. Blocks are the unit
/// of both cache blocking (`2¹⁶` masks = 512 KiB of table, so a block's
/// φ scatter stays in L2) and of the parallel accumulation fan-out; the
/// per-block partials are merged in ascending block order, which is what
/// keeps [`parallel_exact_shapley`] bit-identical to the serial solver.
const TABLE_BLOCK_MASKS: u64 = 1 << 16;

/// Masks per [`Game::fill_values`] call when filling the value table.
/// Blocks are aligned and fixed, so their boundaries never depend on the
/// thread count: serial and parallel fills make the same calls, and a
/// game whose fill chains work within a block (the LP game warm-starts
/// each coalition from its parent) gives both solvers the same table.
/// Small enough that an 11-player table splits into 8 blocks for the
/// workers; large enough that the LP game's one cold solve per block is a
/// small share of the block's warm solves.
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

/// A game whose coalition value can be updated as single players are
/// *toggled* in or out, letting the exact solver fill its `2ⁿ` value table
/// in Gray-code order with `O(toggle)` work per coalition instead of a
/// full characteristic-function evaluation.
pub trait DeltaGame: Game {
    /// Mutable evaluation state of the current coalition.
    type State;

    /// State of the empty coalition.
    fn initial_state(&self) -> Self::State;

    /// Adds `player` if absent or removes it if present, returning the
    /// value of the updated coalition.
    fn toggle(&self, state: &mut Self::State, player: usize) -> f64;
}

/// Computes exact Shapley values by evaluating the characteristic
/// function on all `2ⁿ` coalitions, filling the value table through
/// [`Game::fill_values`] one [`FILL_BLOCK_MASKS`] block at a time.
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
    let n = check_size(game)?;
    let mut table = vec![0.0f64; 1 << n];
    fill_blocks(game, 0, &mut table);
    Ok(shapley_from_table(n, &table))
}

/// [`exact_shapley`] with both phases fanned out across worker threads:
/// each worker fills a disjoint run of whole [`FILL_BLOCK_MASKS`] blocks
/// of the final table in place, and the `Θ(n·2ⁿ)` accumulation is
/// chunked per block through [`run_parallel`].
///
/// Each table entry is a pure function of its mask and its fixed fill
/// block — never of the thread count or of which worker filled it — so
/// the result is **bit-identical** to [`exact_shapley`] at any thread
/// count, for every game. For the default [`Game::fill_values`] the entry
/// is `value()` of its mask; for the LP game's warm-chained fill it equals
/// `value()` bitwise on exact-dyadic instances. Filling in place also
/// means the table is allocated exactly once; assembling per-chunk
/// buffers would transiently double peak memory at the
/// [`MAX_EXACT_PLAYERS`] cap.
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
    let size = 1usize << n;
    let threads = threads.max(1);
    let mut table = vec![0.0f64; size];
    let block = FILL_BLOCK_MASKS as usize;
    let chunk_len = size.div_ceil(block).div_ceil(threads) * block;
    std::thread::scope(|scope| {
        for (worker, chunk) in table.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move || fill_blocks(game, (worker * chunk_len) as u64, chunk));
        }
    });
    Ok(parallel_shapley_from_table(n, &table, threads))
}

/// Fills `table[i]` with the value of mask `first_mask + i` through one
/// [`Game::fill_values`] call per [`FILL_BLOCK_MASKS`] block;
/// `first_mask` must be block-aligned.
fn fill_blocks<G: Game>(game: &G, first_mask: u64, table: &mut [f64]) {
    debug_assert!(first_mask.is_multiple_of(FILL_BLOCK_MASKS));
    for (b, block) in table.chunks_mut(FILL_BLOCK_MASKS as usize).enumerate() {
        game.fill_values(first_mask + b as u64 * FILL_BLOCK_MASKS, block);
    }
}

/// Computes exact Shapley values using Gray-code toggling, avoiding a full
/// characteristic-function evaluation per coalition. Produces identical
/// results to [`exact_shapley`] up to floating-point accumulation order.
///
/// # Errors
///
/// Same conditions as [`exact_shapley`].
pub fn exact_shapley_fast<G: DeltaGame>(game: &G) -> Result<Vec<f64>, ExactError> {
    let mut scratch = ExactScratch::new();
    exact_shapley_fast_with_scratch(game, &mut scratch).map(<[f64]>::to_vec)
}

/// Reusable buffers for the Gray-code exact solver: the `2ⁿ` value table
/// plus the φ and weight vectors.
///
/// A Monte Carlo study calling the exact solver once per trial spends a
/// large share of its time allocating, page-faulting, and freeing a fresh
/// table (32 MiB at the paper's 22-workload cap) every trial. A scratch
/// grown once to the study's player cap
/// ([`reserve_players`](Self::reserve_players)) turns that into O(workers)
/// large allocations per study: the Gray-code walk rewrites every entry it
/// reads, so reuse needs no clearing beyond re-seeding the empty-coalition
/// slot.
#[derive(Debug, Default)]
pub struct ExactScratch {
    table: Vec<f64>,
    phi: Vec<f64>,
    weights: Vec<f64>,
    grows: u64,
    reuses: u64,
}

impl ExactScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-grown for games of up to `players` players.
    ///
    /// # Panics
    ///
    /// Panics if `players` exceeds [`MAX_EXACT_PLAYERS`].
    pub fn for_players(players: usize) -> Self {
        let mut scratch = Self::default();
        scratch.reserve_players(players);
        scratch
    }

    /// Grows the buffers to hold a `players`-player solve, counting one
    /// growth if any buffer actually grew. Never shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `players` exceeds [`MAX_EXACT_PLAYERS`].
    pub fn reserve_players(&mut self, players: usize) {
        assert!(
            players <= MAX_EXACT_PLAYERS,
            "{players} players exceed the exact-enumeration cap of {MAX_EXACT_PLAYERS}"
        );
        let size = 1usize << players;
        if self.table.len() < size || self.phi.len() < players {
            self.grows += 1;
        }
        if self.table.len() < size {
            self.table.resize(size, 0.0);
        }
        if self.phi.len() < players {
            self.phi.resize(players, 0.0);
            self.weights.resize(players, 0.0);
        }
    }

    /// Number of solver calls (or explicit reservations) that had to grow
    /// a buffer.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Number of solver calls served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Bytes currently held by the coalition value table.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f64>()
    }
}

/// [`exact_shapley_fast`] writing through a reusable [`ExactScratch`]:
/// bit-identical results, but the value table, φ, and weight buffers are
/// reused across calls instead of reallocated. Returns the φ values as a
/// slice into the scratch (valid until the next call).
///
/// # Errors
///
/// Same conditions as [`exact_shapley`].
pub fn exact_shapley_fast_with_scratch<'a, G: DeltaGame>(
    game: &G,
    scratch: &'a mut ExactScratch,
) -> Result<&'a [f64], ExactError> {
    let n = check_size(game)?;
    let size = 1usize << n;
    if scratch.table.len() >= size && scratch.phi.len() >= n {
        scratch.reuses += 1;
    } else {
        scratch.reserve_players(n);
    }
    let table = &mut scratch.table[..size];
    // Every entry except the empty coalition is rewritten by the Gray
    // walk below; slot 0 must be re-seeded because a previous (larger)
    // solve may have left a stale value there.
    table[0] = 0.0;
    let mut state = game.initial_state();
    // Walk coalitions in Gray-code order: consecutive codes differ in
    // exactly one bit, so one toggle per step fills the whole table.
    let mut prev_gray = 0u64;
    for k in 1..size as u64 {
        let gray = k ^ (k >> 1);
        let flipped = (gray ^ prev_gray).trailing_zeros() as usize;
        let v = game.toggle(&mut state, flipped);
        table[gray as usize] = v;
        prev_gray = gray;
    }
    shapley_from_table_into(n, table, &mut scratch.weights[..n], &mut scratch.phi[..n]);
    Ok(&scratch.phi[..n])
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

/// Step-count threshold below which the peak-demand toggle state keeps a
/// flat per-step sum array re-scanned in full, instead of a [`MaxTree`].
/// At the paper's 4–9 time slices a branch-free scan over ≤ 64 contiguous
/// `f64`s beats the tree's pointer-arithmetic update path by ~4× on the
/// `2ⁿ`-toggle fill; the tree still wins asymptotically, so long horizons
/// keep it.
const SCAN_FILL_MAX_STEPS: usize = 64;

/// Toggle state of [`PeakDemandGame`](crate::game::PeakDemandGame):
/// per-time-step coalition sums, kept flat or in a [`MaxTree`] depending
/// on the horizon (see [`SCAN_FILL_MAX_STEPS`]). Both variants apply the
/// same per-step additions and report the same maximum over the same
/// sums — `max` selects an existing value and never rounds — so the
/// choice never changes a value bit.
#[derive(Debug)]
pub enum PeakFill {
    /// Flat sums plus the running peak, maintained incrementally: a
    /// toggle compares the touched slots against the stored peak and only
    /// re-scans the array when it lowered a slot that held the peak.
    Scan {
        /// Per-time-step coalition sums.
        sums: Vec<f64>,
        /// `max(0, sums)` of the current coalition.
        peak: f64,
    },
    /// Segment-tree sums, peak read off the root.
    Tree(MaxTree),
}

impl DeltaGame for crate::game::PeakDemandGame {
    /// Per-time-step sums (flat or tree, per [`PeakFill`]) plus explicit
    /// membership flags; a toggle applies the player's sparse support and
    /// returns the updated peak.
    type State = (PeakFill, Vec<bool>);

    fn initial_state(&self) -> Self::State {
        let sums = if self.steps() <= SCAN_FILL_MAX_STEPS {
            PeakFill::Scan {
                sums: vec![0.0; self.steps()],
                peak: 0.0,
            }
        } else {
            PeakFill::Tree(MaxTree::new(self.steps()))
        };
        (sums, vec![false; self.player_count()])
    }

    fn toggle(&self, (fill, members): &mut Self::State, player: usize) -> f64 {
        let sign = if members[player] { -1.0 } else { 1.0 };
        members[player] = !members[player];
        match fill {
            PeakFill::Scan { sums, peak } => {
                let mut before = f64::NEG_INFINITY;
                let mut after = f64::NEG_INFINITY;
                for &(t, d) in self.support(player) {
                    let s = &mut sums[t as usize];
                    before = before.max(*s);
                    *s += sign * d;
                    after = after.max(*s);
                }
                // Exact case split on where the old peak lived:
                // * `before < peak` — the peak is at an untouched slot, so
                //   it still caps them and only `after` can beat it;
                // * `after >= peak` — a touched slot now holds (at least)
                //   the old peak, which already capped every other slot;
                // * otherwise a slot holding the peak was lowered below
                //   it, and only a full scan knows the new peak.
                *peak = if before < *peak {
                    peak.max(after)
                } else if after >= *peak {
                    after
                } else {
                    sums.iter().copied().fold(0.0, f64::max)
                };
                *peak
            }
            PeakFill::Tree(sums) => {
                for &(t, d) in self.support(player) {
                    sums.add(t as usize, sign * d);
                }
                sums.max()
            }
        }
    }
}

impl DeltaGame for crate::game::ScanPeak {
    /// The original dense layout: per-time-step sums plus membership
    /// flags, re-scanned in full after every toggle. Reference path for
    /// the equality pins and the `toggle` bench.
    type State = (Vec<f64>, Vec<bool>);

    fn initial_state(&self) -> Self::State {
        (vec![0.0; self.0.steps()], vec![false; self.player_count()])
    }

    fn toggle(&self, (sums, members): &mut Self::State, player: usize) -> f64 {
        let sign = if members[player] { -1.0 } else { 1.0 };
        members[player] = !members[player];
        for (s, d) in sums.iter_mut().zip(&self.0.demand()[player]) {
            *s += sign * d;
        }
        sums.iter().copied().fold(0.0, f64::max)
    }
}

impl DeltaGame for crate::game::TableGame {
    /// The membership bitmask itself — a toggle is one XOR and a table
    /// load.
    type State = u64;

    fn initial_state(&self) -> Self::State {
        0
    }

    fn toggle(&self, mask: &mut Self::State, player: usize) -> f64 {
        *mask ^= 1u64 << player;
        self.lookup(*mask)
    }
}

/// Shapley accumulation over a complete value table (`table[mask]` =
/// value of coalition `mask`).
///
/// Rather than the textbook per-player marginal loop (`n·2ⁿ` iterations,
/// each loading two table entries — one of them a `2ⁱ`-stride partner),
/// the accumulation uses the regrouped identity
///
/// ```text
/// φᵢ = Σ_{T∋i} (w[|T|−1] + w[|T|])·v(T)  −  Σ_T w[|T|]·v(T)
/// ```
///
/// with `w[n] ≔ 0`: one ascending pass over the table, each value loaded
/// exactly once and scattered to the φ slots of the coalition's members
/// (`popcount` adds per mask, `n·2ⁿ⁻¹` total — half the marginal loop's
/// work), and the player-independent correction `Σ w[|T|]·v(T)`
/// subtracted once at the end. The pass is split into
/// [`TABLE_BLOCK_MASKS`]-sized blocks, each one serial chain per φ slot,
/// whose partial φ vectors are merged in ascending block order; the parallel
/// accumulation distributes the same blocks and merges identically, so
/// both are bit-identical at any thread count.
pub fn shapley_from_table(n: usize, table: &[f64]) -> Vec<f64> {
    let mut phi = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    shapley_from_table_into(n, table, &mut weights, &mut phi);
    phi
}

/// [`shapley_from_table`] writing into caller-owned `weights` and `phi`
/// buffers (both of length `n`) — the allocation-free core shared with
/// [`exact_shapley_fast_with_scratch`].
fn shapley_from_table_into(n: usize, table: &[f64], weights: &mut [f64], phi: &mut [f64]) {
    subset_weights_into(n, weights);
    let (wc, coeff) = scatter_coefficients(n, weights);
    phi.fill(0.0);
    let mut correction = 0.0;
    let mut block_phi = [0.0f64; MAX_EXACT_PLAYERS];
    for block in mask_blocks(n) {
        correction += scatter_block(table, &wc, &coeff, &block, &mut block_phi[..n]);
        for (p, b) in phi.iter_mut().zip(&block_phi[..n]) {
            *p += *b;
        }
    }
    for p in phi.iter_mut() {
        *p -= correction;
    }
}

/// [`shapley_from_table`] with the per-block scatters fanned out across
/// worker threads. Each block's partial φ vector and correction term are
/// computed exactly as in the serial pass and merged in ascending block
/// order, so the result is bit-identical to the serial accumulation at
/// any thread count.
fn parallel_shapley_from_table(n: usize, table: &[f64], threads: usize) -> Vec<f64> {
    let weights = subset_weights(n);
    let (wc, coeff) = scatter_coefficients(n, &weights);
    let blocks: Vec<_> = mask_blocks(n).collect();
    let partials = run_parallel(blocks.len(), threads, |b| {
        let mut block_phi = [0.0f64; MAX_EXACT_PLAYERS];
        let c = scatter_block(table, &wc, &coeff, &blocks[b], &mut block_phi[..n]);
        (block_phi, c)
    });
    let mut phi = vec![0.0f64; n];
    let mut correction = 0.0;
    for (block_phi, c) in &partials {
        for (p, b) in phi.iter_mut().zip(&block_phi[..n]) {
            *p += *b;
        }
        correction += *c;
    }
    for p in phi.iter_mut() {
        *p -= correction;
    }
    phi
}

/// `w[s] = s!·(n−1−s)!/n!`, built by the recurrence
/// `w[s] = w[s−1]·s/(n−s)` to stay in floating range for any `n` we
/// support.
fn subset_weights(n: usize) -> Vec<f64> {
    let mut weights = vec![0.0f64; n];
    subset_weights_into(n, &mut weights);
    weights
}

/// [`subset_weights`] into a caller-owned buffer of length `n`.
fn subset_weights_into(n: usize, weights: &mut [f64]) {
    weights[0] = 1.0 / n as f64;
    for s in 1..n {
        weights[s] = weights[s - 1] * s as f64 / (n - s) as f64;
    }
}

/// Ascending, non-overlapping mask ranges covering `0..2ⁿ` in blocks of
/// [`TABLE_BLOCK_MASKS`].
fn mask_blocks(n: usize) -> impl Iterator<Item = std::ops::Range<u64>> {
    let size = 1u64 << n;
    (0..size.div_ceil(TABLE_BLOCK_MASKS)).map(move |b| {
        let start = b * TABLE_BLOCK_MASKS;
        start..(start + TABLE_BLOCK_MASKS).min(size)
    })
}

/// Per-coalition-size coefficients for the scatter accumulation:
/// `wc[k]` weights a size-`k` coalition in the player-independent
/// correction (`w[k]` for proper coalitions, 0 for the grand coalition,
/// where `w[n]` does not exist), and `coeff[k] = w[k−1] + wc[k]` is the
/// factor applied to `v(T)` for every member of a size-`k` coalition.
/// Fixed-size stack arrays keep the scratch solver allocation-free.
fn scatter_coefficients(
    n: usize,
    weights: &[f64],
) -> ([f64; MAX_EXACT_PLAYERS + 1], [f64; MAX_EXACT_PLAYERS + 1]) {
    let mut wc = [0.0f64; MAX_EXACT_PLAYERS + 1];
    let mut coeff = [0.0f64; MAX_EXACT_PLAYERS + 1];
    wc[..n].copy_from_slice(&weights[..n]);
    for k in 1..=n {
        coeff[k] = weights[k - 1] + wc[k];
    }
    (wc, coeff)
}

/// Scatters one mask block's values into a zeroed per-block φ vector and
/// returns the block's correction-term contribution, one serial
/// dependency chain per φ slot. Each table entry is loaded once; its
/// weighted value is added to the φ slot of every member of the
/// coalition (set bit of the mask).
///
/// The chain is plain and serial: a 4-lane variant with the masks
/// quad-unrolled over separate accumulators measured 1.01× on a
/// 2²⁰-mask table on a single-core host, inside run-to-run noise.
fn scatter_block(
    table: &[f64],
    wc: &[f64],
    coeff: &[f64],
    block: &std::ops::Range<u64>,
    block_phi: &mut [f64],
) -> f64 {
    block_phi.fill(0.0);
    let mut correction = 0.0;
    for mask in block.clone() {
        let v = table[mask as usize];
        let k = mask.count_ones() as usize;
        correction += wc[k] * v;
        let cv = coeff[k] * v;
        let mut members = mask;
        while members != 0 {
            block_phi[members.trailing_zeros() as usize] += cv;
            members &= members - 1;
        }
    }
    correction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalition::Coalition;
    use crate::game::{PeakDemandGame, TableGame};

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

    #[test]
    fn fast_gray_code_solver_matches_plain() {
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.5, 0.5, 3.5],
        ]);
        let plain = exact_shapley(&g).unwrap();
        let fast = exact_shapley_fast(&g).unwrap();
        for (a, b) in plain.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
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
        // scratch: the stale tail of the larger table must not leak into
        // the smaller solve.
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
        let mut scratch = ExactScratch::for_players(5);
        for game in [&big, &small, &big, &small] {
            let fresh = exact_shapley_fast(game).unwrap();
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
    fn scratch_grows_lazily_and_reports_table_bytes() {
        let g = PeakDemandGame::new(vec![vec![3.0, 1.0], vec![0.0, 2.0]]);
        let mut scratch = ExactScratch::new();
        assert_eq!(scratch.table_bytes(), 0);
        exact_shapley_fast_with_scratch(&g, &mut scratch).unwrap();
        assert_eq!(scratch.grows(), 1);
        assert_eq!(scratch.reuses(), 0);
        assert_eq!(scratch.table_bytes(), 4 * 8);
        exact_shapley_fast_with_scratch(&g, &mut scratch).unwrap();
        assert_eq!(scratch.reuses(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed the exact-enumeration cap")]
    fn scratch_rejects_oversized_reservations() {
        let _ = ExactScratch::for_players(MAX_EXACT_PLAYERS + 1);
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

    /// The regrouped scatter must agree with the textbook per-player
    /// marginal sum `φᵢ = Σ_{S∌i} w[|S|]·(v(S∪{i}) − v(S))` on cancelling
    /// values — across sizes below, at, and above the
    /// [`TABLE_BLOCK_MASKS`] block boundary (n = 17 → two blocks).
    #[test]
    fn scatter_matches_the_textbook_marginal_sum() {
        for &n in &[1usize, 2, 3, 5, 10, 17] {
            let table: Vec<f64> = (0u64..1 << n).map(|m| hash_value(m, n as u64)).collect();
            let weights = subset_weights(n);
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

    /// An all-zero table must produce exactly-0.0 φ: every scatter add
    /// and the correction are exact zeros.
    #[test]
    fn scatter_preserves_exact_zeros() {
        let table = vec![0.0f64; 1 << 6];
        for v in shapley_from_table(6, &table) {
            assert_eq!(v.to_bits(), 0.0f64.to_bits());
        }
    }

    /// Each block's scatter is a fixed serial chain independent of the
    /// fan-out, so distributing blocks across workers and merging them in
    /// ascending order reproduces the serial accumulation bit for bit at
    /// any thread count.
    #[test]
    fn parallel_table_accumulation_is_bit_identical_to_serial() {
        let n = 17; // two TABLE_BLOCK_MASKS blocks
        let table: Vec<f64> = (0u64..1 << n).map(|m| hash_value(m, 7)).collect();
        let serial = shapley_from_table(n, &table);
        for threads in [1, 2, 3, 8] {
            let parallel = parallel_shapley_from_table(n, &table, threads);
            for (p, (s, q)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    q.to_bits(),
                    "threads={threads} phi[{p}]: {s} vs {q}"
                );
            }
        }
    }
}
