//! Monte Carlo Shapley estimation by permutation sampling.
//!
//! For games too large to enumerate, the Shapley value is estimated as the
//! empirical mean of marginal contributions over uniformly random player
//! permutations — the standard unbiased estimator. Two refinements:
//!
//! * **antithetic pairs** — each sampled permutation is also replayed in
//!   reverse, which cancels much of the positional variance for monotone
//!   cost games;
//! * **standard-error stopping** — sampling stops once the largest
//!   per-player standard error of the mean drops below a target (or the
//!   sample budget is exhausted).
//!
//! Variance accounting is *pair-aware*: an antithetic forward/reverse pair
//! is one correlated draw, not two independent ones, so standard errors
//! are computed over pair means. Treating the two halves as independent
//! (dividing by the raw permutation count) misstates the error whenever
//! the halves correlate — it understates it when reversal leaves the
//! marginal unchanged, exactly the regime where antithetic sampling buys
//! nothing. [`Moments`] keeps both accountings so the bias is testable.

use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;

use crate::cache::CachedGame;
use crate::game::{replay_marginals_into, EvalCounters, IncrementalGame};

/// Reusable per-worker replay buffers: the permutation, the forward and
/// reverse marginal vectors, and the incremental game state. Allocated
/// once per estimator (or per parallel batch) so the inner sampling loop
/// performs **no heap allocation after warm-up** — shuffling mutates the
/// permutation in place and the state is rewound via
/// [`IncrementalGame::reset_state`] instead of rebuilt.
#[derive(Debug)]
pub struct SampleScratch<S> {
    pub(crate) order: Vec<usize>,
    pub(crate) forward: Vec<f64>,
    pub(crate) reverse: Vec<f64>,
    pub(crate) state: S,
}

impl<S> SampleScratch<S> {
    /// Scratch sized for `game`.
    ///
    /// # Panics
    ///
    /// Panics if the game has no players.
    pub fn for_game<G: IncrementalGame<State = S>>(game: &G) -> Self {
        let n = game.player_count();
        assert!(n > 0, "game must have at least one player");
        Self {
            order: (0..n).collect(),
            forward: vec![0.0; n],
            reverse: vec![0.0; n],
            state: game.initial_state(),
        }
    }

    /// Number of players the scratch covers.
    pub fn player_count(&self) -> usize {
        self.order.len()
    }

    /// Replays the current permutation into `forward`.
    pub(crate) fn replay_forward<G: IncrementalGame<State = S>>(
        &mut self,
        game: &G,
        counters: &mut EvalCounters,
    ) {
        replay_marginals_into(
            game,
            &self.order,
            &mut self.state,
            &mut self.forward,
            counters,
        );
    }

    /// Reverses the permutation in place and replays it into `reverse` —
    /// the antithetic half of a pair. The buffer stays reversed, so the
    /// next in-place shuffle starts from the reversed arrangement.
    pub(crate) fn replay_reversed<G: IncrementalGame<State = S>>(
        &mut self,
        game: &G,
        counters: &mut EvalCounters,
    ) {
        self.order.reverse();
        replay_marginals_into(
            game,
            &self.order,
            &mut self.state,
            &mut self.reverse,
            counters,
        );
    }
}

/// Configuration for [`sampled_shapley`].
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Maximum number of permutations to draw (antithetic replays count
    /// separately toward this budget).
    pub max_permutations: usize,
    /// Stop early when every player's standard error of the mean falls
    /// below this absolute value. `0.0` disables early stopping.
    pub target_stderr: f64,
    /// Minimum permutations before the stopping rule may fire.
    pub min_permutations: usize,
    /// Whether to replay each permutation reversed (antithetic sampling).
    pub antithetic: bool,
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self {
            max_permutations: 2000,
            target_stderr: 0.0,
            min_permutations: 64,
            antithetic: true,
        }
    }
}

/// Result of a sampled Shapley estimation.
#[derive(Debug, Clone)]
pub struct ShapleyEstimate {
    /// Estimated Shapley value per player.
    pub values: Vec<f64>,
    /// Standard error of the mean per player, computed over independent
    /// samples (antithetic pairs count once).
    pub std_errors: Vec<f64>,
    /// Number of permutations actually evaluated.
    pub permutations: usize,
    /// Number of *independent* samples behind `std_errors`: antithetic
    /// pairs count once, unpaired permutations once.
    pub samples: usize,
    /// Work performed to produce the estimate.
    pub counters: EvalCounters,
}

impl ShapleyEstimate {
    /// Largest per-player standard error.
    pub fn max_std_error(&self) -> f64 {
        self.std_errors.iter().copied().fold(0.0, f64::max)
    }
}

/// Streaming first and second moments of per-permutation marginals.
///
/// Tracks two parallel accountings per player:
///
/// * **raw** — sums over individual permutations, which give the unbiased
///   mean estimate and the (incorrect under antithetic sampling)
///   independence-assuming standard error;
/// * **sample** — sums over *independent samples*, where an antithetic
///   forward/reverse pair contributes its pair mean once. Standard errors
///   and the stopping rule use this accounting.
///
/// Batches accumulated independently merge by summation
/// ([`Moments::merge`]), so a partitioned permutation stream yields the
/// same statistics as a single pass (up to floating-point associativity).
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    sample_sum: Vec<f64>,
    sample_sum_sq: Vec<f64>,
    permutations: usize,
    samples: usize,
}

impl Moments {
    /// Empty moments for an `n`-player game.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zero(n: usize) -> Self {
        assert!(n > 0, "game must have at least one player");
        Self {
            sum: vec![0.0; n],
            sum_sq: vec![0.0; n],
            sample_sum: vec![0.0; n],
            sample_sum_sq: vec![0.0; n],
            permutations: 0,
            samples: 0,
        }
    }

    /// Number of players tracked.
    pub fn player_count(&self) -> usize {
        self.sum.len()
    }

    /// Permutations recorded so far.
    pub fn permutations(&self) -> usize {
        self.permutations
    }

    /// Independent samples recorded so far (pairs count once).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Records one permutation's marginals as an independent sample.
    ///
    /// # Panics
    ///
    /// Panics if `marginals` has the wrong length.
    pub fn record_single(&mut self, marginals: &[f64]) {
        assert_eq!(marginals.len(), self.sum.len(), "player count mismatch");
        for (p, &m) in marginals.iter().enumerate() {
            self.sum[p] += m;
            self.sum_sq[p] += m * m;
            self.sample_sum[p] += m;
            self.sample_sum_sq[p] += m * m;
        }
        self.permutations += 1;
        self.samples += 1;
    }

    /// Records an antithetic forward/reverse pair: both permutations enter
    /// the raw mean, but the pair contributes a single sample — its pair
    /// mean — to the variance accounting.
    ///
    /// # Panics
    ///
    /// Panics if either slice has the wrong length.
    pub fn record_pair(&mut self, forward: &[f64], reverse: &[f64]) {
        assert_eq!(forward.len(), self.sum.len(), "player count mismatch");
        assert_eq!(reverse.len(), self.sum.len(), "player count mismatch");
        // One tight pass per accumulator array instead of a single loop
        // striding four arrays at once: each pass streams two inputs and
        // one output. Per-slot arithmetic is unchanged, so the split is
        // bit-identical to the fused loop.
        for (s, (&f, &r)) in self.sum.iter_mut().zip(forward.iter().zip(reverse)) {
            *s += f + r;
        }
        for (s, (&f, &r)) in self.sum_sq.iter_mut().zip(forward.iter().zip(reverse)) {
            *s += f * f + r * r;
        }
        for (s, (&f, &r)) in self.sample_sum.iter_mut().zip(forward.iter().zip(reverse)) {
            *s += 0.5 * (f + r);
        }
        for (s, (&f, &r)) in self
            .sample_sum_sq
            .iter_mut()
            .zip(forward.iter().zip(reverse))
        {
            let pair_mean = 0.5 * (f + r);
            *s += pair_mean * pair_mean;
        }
        self.permutations += 2;
        self.samples += 1;
    }

    /// Folds another batch's moments into this one. Merging in batch order
    /// reproduces the single-pass statistics bit-for-bit for the same
    /// grouping; regrouping agrees up to floating-point associativity.
    ///
    /// # Panics
    ///
    /// Panics if the player counts differ.
    pub fn merge(&mut self, other: &Moments) {
        assert_eq!(
            self.sum.len(),
            other.sum.len(),
            "cannot merge moments of different games"
        );
        for p in 0..self.sum.len() {
            self.sum[p] += other.sum[p];
            self.sum_sq[p] += other.sum_sq[p];
            self.sample_sum[p] += other.sample_sum[p];
            self.sample_sum_sq[p] += other.sample_sum_sq[p];
        }
        self.permutations += other.permutations;
        self.samples += other.samples;
    }

    /// Mean marginal per player — the Shapley estimate.
    pub fn values(&self) -> Vec<f64> {
        let k = self.permutations as f64;
        self.sum.iter().map(|s| s / k).collect()
    }

    /// Pair-aware standard error of the mean per player.
    pub fn std_errors(&self) -> Vec<f64> {
        self.sample_sum
            .iter()
            .zip(&self.sample_sum_sq)
            .map(|(&s, &sq)| stderr(s, sq, self.samples))
            .collect()
    }

    /// Standard errors under the (incorrect for antithetic pairs)
    /// assumption that every permutation is an independent sample. Kept
    /// for regression comparison against the pre-fix accounting.
    pub fn naive_std_errors(&self) -> Vec<f64> {
        self.sum
            .iter()
            .zip(&self.sum_sq)
            .map(|(&s, &sq)| stderr(s, sq, self.permutations))
            .collect()
    }

    /// Largest pair-aware per-player standard error.
    pub fn max_std_error(&self) -> f64 {
        self.std_errors().iter().copied().fold(0.0, f64::max)
    }

    /// Finalizes into a [`ShapleyEstimate`] carrying `counters`.
    pub fn into_estimate(self, counters: EvalCounters) -> ShapleyEstimate {
        ShapleyEstimate {
            values: self.values(),
            std_errors: self.std_errors(),
            permutations: self.permutations,
            samples: self.samples,
            counters,
        }
    }
}

/// Estimates Shapley values by permutation sampling.
///
/// # Panics
///
/// Panics if the game has no players or `max_permutations == 0` — an
/// estimate from zero samples is meaningless.
pub fn sampled_shapley<G: IncrementalGame>(
    game: &G,
    config: &SampleConfig,
    rng: &mut impl Rng,
) -> ShapleyEstimate {
    let mut scratch = SampleScratch::for_game(game);
    sampled_shapley_with_scratch(game, config, rng, &mut scratch)
}

/// [`sampled_shapley`] over caller-owned scratch buffers, letting a
/// worker amortize its allocations across many estimations. The returned
/// estimate is identical to [`sampled_shapley`]'s for the same RNG
/// stream.
///
/// # Panics
///
/// Same conditions as [`sampled_shapley`], plus a scratch sized for a
/// different player count.
pub fn sampled_shapley_with_scratch<G: IncrementalGame>(
    game: &G,
    config: &SampleConfig,
    rng: &mut impl Rng,
    scratch: &mut SampleScratch<G::State>,
) -> ShapleyEstimate {
    let n = game.player_count();
    assert!(n > 0, "game must have at least one player");
    assert_eq!(scratch.player_count(), n, "scratch sized for another game");
    assert!(
        config.max_permutations > 0,
        "at least one permutation is required"
    );

    let start = Instant::now();
    let mut moments = Moments::zero(n);
    let mut counters = EvalCounters::default();

    // `shuffle` permutes in place, so the stream depends on the starting
    // order; rewind a reused scratch to the identity so the estimate is a
    // function of the RNG alone.
    for (i, slot) in scratch.order.iter_mut().enumerate() {
        *slot = i;
    }

    while moments.permutations() < config.max_permutations {
        scratch.order.shuffle(rng);
        scratch.replay_forward(game, &mut counters);
        if config.antithetic && moments.permutations() + 1 < config.max_permutations {
            scratch.replay_reversed(game, &mut counters);
            moments.record_pair(&scratch.forward, &scratch.reverse);
        } else {
            moments.record_single(&scratch.forward);
        }
        if config.target_stderr > 0.0
            && moments.permutations() >= config.min_permutations
            && moments.max_std_error() <= config.target_stderr
        {
            break;
        }
    }

    counters.batches = 1;
    counters.wall_time_secs = start.elapsed().as_secs_f64();
    moments.into_estimate(counters)
}

/// [`sampled_shapley`] behind a [`CoalitionCache`](crate::cache::CoalitionCache):
/// every permutation prefix is memoized by its membership bitmask, so
/// repeated prefixes skip the characteristic function entirely. The
/// permutation stream is a function of `rng` alone, so the estimate
/// matches the uncached run exactly for games whose values are exact in
/// floating point (and up to the game's own summation associativity
/// otherwise); `counters.cache_hits` / `cache_misses` report the savings.
///
/// # Panics
///
/// Same conditions as [`sampled_shapley`], plus games with more than 64
/// players (coalition bitmasks are one machine word).
pub fn sampled_shapley_cached<G: IncrementalGame>(
    game: &G,
    config: &SampleConfig,
    rng: &mut impl Rng,
) -> ShapleyEstimate {
    let cached = CachedGame::new(game);
    sampled_shapley(&cached, config, rng)
}

/// Estimates Shapley values by *position-stratified* sampling: each drawn
/// permutation serves every stratum (coalition size) at once — the prefix
/// of length `s` ending at a player is a random `s`-subset *conditioned on
/// the permutation*, and each player lands in exactly one stratum per
/// pass, so across passes every (player, size) pair is visited with equal
/// frequency. This is the permutation-prefix form of Castro-style
/// stratification, **not** independent uniform `s`-subset draws per
/// stratum: within one pass the prefixes are nested, which trades
/// per-stratum independence for `n` strata per game evaluation sweep.
/// Unlike [`sampled_shapley`] it balances the budget across coalition
/// sizes, which helps games whose marginals vary sharply with size (e.g.
/// the matching game's odd/even alternation).
///
/// Cost is `O(n² · samples_per_stratum)` coalition evaluations, so it
/// suits moderate `n` with expensive positional variance rather than
/// very large games.
///
/// # Panics
///
/// Panics if the game has no players or `samples_per_stratum == 0`.
pub fn stratified_shapley<G: IncrementalGame>(
    game: &G,
    samples_per_stratum: usize,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let n = game.player_count();
    assert!(n > 0, "game must have at least one player");
    assert!(
        samples_per_stratum > 0,
        "need at least one sample per stratum"
    );
    let mut moments = Moments::zero(n);
    let mut counters = EvalCounters::default();
    let mut scratch = SampleScratch::for_game(game);
    for _ in 0..samples_per_stratum {
        // One permutation covers every stratum; the reversed pass swaps
        // every player's stratum (position i ↔ n−1−i), halving the
        // positional imbalance per sample.
        scratch.order.shuffle(rng);
        scratch.replay_forward(game, &mut counters);
        scratch.replay_reversed(game, &mut counters);
        moments.record_pair(&scratch.forward, &scratch.reverse);
    }
    moments.values()
}

fn stderr(sum: f64, sum_sq: f64, k: usize) -> f64 {
    if k < 2 {
        return f64::INFINITY;
    }
    let kf = k as f64;
    let mean = sum / kf;
    let var = (sum_sq / kf - mean * mean).max(0.0) * kf / (kf - 1.0);
    (var / kf).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::{replay_marginals, PeakDemandGame, Replay, TableGame};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_game() -> PeakDemandGame {
        PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
            vec![2.5, 0.5, 3.5],
        ])
    }

    /// A 4-player game whose value depends only on coalition *size*, with
    /// size increments symmetric around the middle (1, 5, 5, 1). A
    /// player's marginal is then a function of its position alone, and
    /// reversal maps position i to n−1−i where the increment is
    /// *identical* — antithetic replays duplicate the sample exactly.
    fn symmetric_size_game() -> Replay<TableGame> {
        let increments = [1.0, 5.0, 5.0, 1.0];
        let values: Vec<f64> = (0u64..16)
            .map(|mask| {
                let size = mask.count_ones() as usize;
                increments[..size].iter().sum()
            })
            .collect();
        Replay(TableGame::new(4, values))
    }

    #[test]
    fn converges_to_exact_values() {
        let g = demo_game();
        let exact = exact_shapley(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let est = sampled_shapley(
            &g,
            &SampleConfig {
                max_permutations: 20_000,
                ..SampleConfig::default()
            },
            &mut rng,
        );
        for (e, s) in exact.iter().zip(&est.values) {
            assert!((e - s).abs() < 0.05, "exact {e} sampled {s}");
        }
    }

    #[test]
    fn every_permutation_is_efficient() {
        // Each permutation's marginals telescope to v(N), so the estimate
        // is exactly efficient regardless of sample count.
        let g = demo_game();
        let mut rng = StdRng::seed_from_u64(5);
        let est = sampled_shapley(
            &g,
            &SampleConfig {
                max_permutations: 7,
                antithetic: false,
                ..SampleConfig::default()
            },
            &mut rng,
        );
        let grand = {
            use crate::coalition::Coalition;
            use crate::game::Game;
            g.value(&Coalition::grand(5))
        };
        let total: f64 = est.values.iter().sum();
        assert!((total - grand).abs() < 1e-9);
        assert_eq!(est.permutations, 7);
        assert_eq!(est.samples, 7);
    }

    #[test]
    fn stderr_stopping_rule_halts_early() {
        let g = demo_game();
        let mut rng = StdRng::seed_from_u64(1);
        let est = sampled_shapley(
            &g,
            &SampleConfig {
                max_permutations: 100_000,
                target_stderr: 0.05,
                min_permutations: 100,
                antithetic: true,
            },
            &mut rng,
        );
        assert!(est.permutations < 100_000);
        assert!(est.max_std_error() <= 0.05);
    }

    #[test]
    fn stratified_estimator_converges_and_is_efficient() {
        let g = demo_game();
        let exact = exact_shapley(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let est = stratified_shapley(&g, 5_000, &mut rng);
        for (e, s) in exact.iter().zip(&est) {
            assert!((e - s).abs() < 0.05, "exact {e} stratified {s}");
        }
        // Telescoping marginals make every pass efficient.
        use crate::coalition::Coalition;
        use crate::game::Game;
        let grand = g.value(&Coalition::grand(5));
        let total: f64 = est.iter().sum();
        assert!((total - grand).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn stratified_rejects_zero_samples() {
        let g = demo_game();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = stratified_shapley(&g, 0, &mut rng);
    }

    #[test]
    fn antithetic_reduces_variance() {
        let g = demo_game();
        let budget = 2000;
        let run = |antithetic: bool, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            sampled_shapley(
                &g,
                &SampleConfig {
                    max_permutations: budget,
                    antithetic,
                    ..SampleConfig::default()
                },
                &mut rng,
            )
            .max_std_error()
        };
        // Average over seeds to avoid a fluke comparison. With pair-aware
        // accounting this now compares the *true* estimator errors: the
        // antithetic run has half the independent samples, so winning
        // means the pairing genuinely cancels variance.
        let plain: f64 = (0..5).map(|s| run(false, s)).sum();
        let anti: f64 = (0..5).map(|s| run(true, s)).sum();
        assert!(anti < plain, "antithetic {anti} plain {plain}");
    }

    #[test]
    fn pair_aware_stderr_corrects_the_naive_understatement() {
        // Regression for the antithetic variance accounting. In the
        // symmetric size game a reversed replay reproduces the forward
        // marginals exactly, so the pair carries the information of ONE
        // permutation. The old accounting divided by the raw permutation
        // count (2k), claiming plain-sampling precision from half the
        // information; the pair-aware stderr must be larger — close to
        // √2× both the naive value and a plain run of the same budget.
        let g = symmetric_size_game();
        let mut moments = Moments::zero(4);
        let mut counters = EvalCounters::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut order: Vec<usize> = (0..4).collect();
        let mut forward = vec![0.0; 4];
        let mut reverse = vec![0.0; 4];
        for _ in 0..500 {
            order.shuffle(&mut rng);
            replay_marginals(&g, &order, &mut forward, &mut counters);
            order.reverse();
            replay_marginals(&g, &order, &mut reverse, &mut counters);
            // Reversal lands every player on the mirrored increment.
            for (f, r) in forward.iter().zip(&reverse) {
                assert!((f - r).abs() < 1e-12, "pair should be degenerate");
            }
            moments.record_pair(&forward, &reverse);
        }
        let corrected = moments.max_std_error();
        let naive = moments
            .naive_std_errors()
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(
            corrected >= naive,
            "corrected {corrected} must not understate like naive {naive}"
        );
        // Degenerate pairs: with duplicated samples the naive variance
        // over 2k draws relates to the pair variance over k draws by the
        // Bessel factors, corrected = naive·√((2k−1)/(k−1)) — which tends
        // to the familiar √2 understatement as k grows.
        let k = 500.0f64;
        let factor = ((2.0 * k - 1.0) / (k - 1.0)).sqrt();
        assert!(
            (corrected - naive * factor).abs() < 1e-9,
            "corrected {corrected} vs {}",
            naive * factor
        );

        // And against plain sampling with the same permutation budget:
        // the old accounting claimed parity; in truth the antithetic run
        // resolves √2 *worse* here because its pairs are redundant.
        let mut rng = StdRng::seed_from_u64(7);
        let plain = sampled_shapley(
            &g,
            &SampleConfig {
                max_permutations: 1000,
                antithetic: false,
                ..SampleConfig::default()
            },
            &mut rng,
        );
        assert!(
            corrected > plain.max_std_error(),
            "corrected {corrected} should exceed plain {}",
            plain.max_std_error()
        );
    }

    #[test]
    fn estimate_reports_work_counters() {
        let g = demo_game();
        let mut rng = StdRng::seed_from_u64(3);
        let est = sampled_shapley(
            &g,
            &SampleConfig {
                max_permutations: 10,
                antithetic: true,
                ..SampleConfig::default()
            },
            &mut rng,
        );
        assert_eq!(est.permutations, 10);
        assert_eq!(est.samples, 5);
        // 10 permutations × 5 players, one coalition evaluation each.
        assert_eq!(est.counters.coalition_evals, 50);
        assert_eq!(est.counters.marginal_updates, 50);
        assert_eq!(est.counters.batches, 1);
        assert!(est.counters.wall_time_secs >= 0.0);
    }

    /// Acceptance: on a 12-player integer-demand peak game at 4,096
    /// permutations, the coalition cache must cut `coalition_evals` by at
    /// least 50% while leaving the estimate bit-identical. Integer demands
    /// make every partial sum exact in f64, so a cache hit (the
    /// first-computed value for a mask) cannot differ from a recomputation
    /// in any ulp.
    #[test]
    fn cache_halves_evals_with_bit_identical_estimates() {
        let demands: Vec<Vec<f64>> = (0..12)
            .map(|p: u64| {
                (0..6)
                    .map(|t: u64| ((p * 7 + t * 5 + 3) % 9) as f64)
                    .collect()
            })
            .collect();
        let g = PeakDemandGame::new(demands);
        let config = SampleConfig {
            max_permutations: 4096,
            target_stderr: 0.0,
            min_permutations: 1,
            antithetic: true,
        };
        let uncached = sampled_shapley(&g, &config, &mut StdRng::seed_from_u64(42));
        let cached = sampled_shapley_cached(&g, &config, &mut StdRng::seed_from_u64(42));
        assert_eq!(cached.permutations, uncached.permutations);
        for (c, u) in cached.values.iter().zip(&uncached.values) {
            assert_eq!(c.to_bits(), u.to_bits());
        }
        for (c, u) in cached.std_errors.iter().zip(&uncached.std_errors) {
            assert_eq!(c.to_bits(), u.to_bits());
        }
        assert_eq!(uncached.counters.coalition_evals, 4096 * 12);
        assert!(
            cached.counters.coalition_evals * 2 <= uncached.counters.coalition_evals,
            "cache must cut coalition evals ≥ 50%: {} vs {}",
            cached.counters.coalition_evals,
            uncached.counters.coalition_evals
        );
        assert_eq!(
            cached.counters.cache_hits + cached.counters.cache_misses,
            4096 * 12,
            "every prefix lookup is either a hit or a miss"
        );
        // A miss replays any cache-served pending players into the lazy
        // inner state, so true evaluations exceed misses but stay far
        // below the uncached count.
        assert!(cached.counters.coalition_evals >= cached.counters.cache_misses);
        assert!(cached.counters.cache_hit_rate() >= 0.5);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let g = demo_game();
        let config = SampleConfig {
            max_permutations: 64,
            ..SampleConfig::default()
        };
        let mut scratch = SampleScratch::for_game(&g);
        // First run warms the scratch; the second must be unaffected by
        // the leftover permutation/state from the first.
        let _ =
            sampled_shapley_with_scratch(&g, &config, &mut StdRng::seed_from_u64(9), &mut scratch);
        let reused =
            sampled_shapley_with_scratch(&g, &config, &mut StdRng::seed_from_u64(10), &mut scratch);
        let fresh = sampled_shapley(&g, &config, &mut StdRng::seed_from_u64(10));
        for (a, b) in reused.values.iter().zip(&fresh.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "scratch sized for another game")]
    fn mismatched_scratch_panics() {
        let g = demo_game();
        let small = PeakDemandGame::new(vec![vec![1.0], vec![2.0]]);
        let mut scratch = SampleScratch::for_game(&small);
        let _ = sampled_shapley_with_scratch(
            &g,
            &SampleConfig::default(),
            &mut StdRng::seed_from_u64(0),
            &mut scratch,
        );
    }

    #[test]
    fn moments_merge_matches_single_pass() {
        let g = demo_game();
        let mut rng = StdRng::seed_from_u64(21);
        let mut order: Vec<usize> = (0..5).collect();
        let mut counters = EvalCounters::default();
        let mut forward = vec![0.0; 5];
        let mut single = Moments::zero(5);
        let mut batches: Vec<Moments> = Vec::new();
        for chunk in [3usize, 1, 4, 2] {
            let mut batch = Moments::zero(5);
            for _ in 0..chunk {
                order.shuffle(&mut rng);
                replay_marginals(&g, &order, &mut forward, &mut counters);
                batch.record_single(&forward);
                single.record_single(&forward);
            }
            batches.push(batch);
        }
        let mut merged = Moments::zero(5);
        for b in &batches {
            merged.merge(b);
        }
        assert_eq!(merged.permutations(), single.permutations());
        assert_eq!(merged.samples(), single.samples());
        for (m, s) in merged.values().iter().zip(single.values()) {
            assert!((m - s).abs() < 1e-12);
        }
        for (m, s) in merged.std_errors().iter().zip(single.std_errors()) {
            assert!((m - s).abs() < 1e-12);
        }
    }
}
