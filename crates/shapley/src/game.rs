//! The characteristic-function interface and reference games.

use serde::{Deserialize, Serialize};

use crate::coalition::Coalition;
use crate::exact::FILL_BLOCK_MASKS;
use crate::maxtree::MaxTree;

/// A cooperative game: a set of players and a characteristic function
/// assigning a cost (here: carbon) to every coalition.
///
/// Implementations must satisfy `value(∅) = 0` and should be monotone for
/// cost games (adding a player never lowers the coalition's cost); the
/// solvers do not enforce monotonicity but the fairness axioms in
/// [`crate::axioms`] assume `value(∅) = 0`.
pub trait Game {
    /// Number of players.
    fn player_count(&self) -> usize;

    /// Characteristic function: the cost borne by `coalition` on its own.
    fn value(&self, coalition: &Coalition) -> f64;

    /// Fills `out[i]` with the value of the coalition whose membership
    /// bitmask is `first_mask + i` — the only way the exact solvers read
    /// a game: they call it once per fixed, aligned
    /// [`FILL_BLOCK_MASKS`] block.
    ///
    /// The default evaluates [`value`](Game::value) mask by mask through
    /// one reused [`Coalition`]. Games that can share work between
    /// neighbouring coalitions override it; an override's output must be
    /// a pure function of `(first_mask, out.len())`, so that the exact
    /// solvers' results stay independent of how blocks are scheduled.
    ///
    /// # Panics
    ///
    /// Panics if a mask in the range has bits at or above
    /// [`player_count`](Game::player_count).
    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        let mut coalition = Coalition::empty(self.player_count());
        for (mask, slot) in (first_mask..).zip(out) {
            coalition.set_mask(mask);
            *slot = self.value(&coalition);
        }
    }
}

/// A game that can evaluate coalitions *incrementally* as players are
/// appended, which lets permutation sampling compute each marginal
/// contribution in amortized constant-to-linear time instead of
/// re-evaluating the characteristic function from scratch.
pub trait IncrementalGame: Game {
    /// Evaluation state for a growing coalition.
    type State;

    /// State of the empty coalition.
    fn initial_state(&self) -> Self::State;

    /// Rewinds an existing state to the empty coalition, reusing its
    /// allocations. The default rebuilds from scratch; hot-path games
    /// override it so permutation replay allocates nothing after warm-up.
    fn reset_state(&self, state: &mut Self::State) {
        *state = self.initial_state();
    }

    /// Adds `player` to the growing coalition and returns the value of
    /// the enlarged coalition.
    fn add_player(&self, state: &mut Self::State, player: usize) -> f64;

    /// Work performed by this game since construction, for games that
    /// instrument themselves (memoizing wrappers). `None` — the default —
    /// means "not tracked": callers then charge one evaluation per
    /// [`add_player`](IncrementalGame::add_player) call.
    fn stats(&self) -> Option<GameStats> {
        None
    }
}

/// Cumulative work snapshot reported by a self-instrumenting game (see
/// [`IncrementalGame::stats`]). Deltas between snapshots are folded into
/// [`EvalCounters`] by [`replay_marginals_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GameStats {
    /// Raw characteristic-function evaluations actually performed.
    pub evals: u64,
    /// Lookups answered from a coalition cache.
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
}

/// Work counters for Shapley estimation, accumulated at every
/// [`IncrementalGame`] call site and merged across batches/threads.
///
/// Wall time is the *sum* of per-batch busy time, so on a multi-threaded
/// run it exceeds elapsed time — the ratio is the achieved parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EvalCounters {
    /// Coalition evaluations: one per characteristic-function evaluation
    /// actually performed. Without a coalition cache this is one per
    /// [`IncrementalGame::add_player`] call; with one it counts only the
    /// cache misses' inner evaluations.
    pub coalition_evals: u64,
    /// Per-player marginal-contribution updates applied to accumulators.
    pub marginal_updates: u64,
    /// Sampling batches executed.
    pub batches: u64,
    /// Total busy time across batches, in seconds.
    pub wall_time_secs: f64,
    /// Coalition-cache lookups answered without evaluating the game
    /// (zero when no cache is in play).
    pub cache_hits: u64,
    /// Coalition-cache lookups that fell through to a real evaluation
    /// (zero when no cache is in play).
    pub cache_misses: u64,
}

impl EvalCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &EvalCounters) {
        self.coalition_evals += other.coalition_evals;
        self.marginal_updates += other.marginal_updates;
        self.batches += other.batches;
        self.wall_time_secs += other.wall_time_secs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Fraction of cache lookups answered from the cache (0 when no
    /// cache was used).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Replays one permutation through an [`IncrementalGame`], writing each
/// player's marginal contribution into `marginals` (indexed by player)
/// and charging the work to `counters`. The caller-owned state is rewound
/// via [`IncrementalGame::reset_state`] and reused, so games with
/// allocation-free resets replay without touching the heap.
///
/// Marginals telescope, so `marginals` sums to the grand-coalition value
/// when `order` contains every player exactly once.
///
/// Work accounting: self-instrumenting games ([`IncrementalGame::stats`])
/// are charged their actual evaluation, hit, and miss deltas; all others
/// are charged one coalition evaluation per step.
///
/// # Panics
///
/// Panics if `marginals` is shorter than the largest player index.
pub fn replay_marginals_into<G: IncrementalGame>(
    game: &G,
    order: &[usize],
    state: &mut G::State,
    marginals: &mut [f64],
    counters: &mut EvalCounters,
) {
    game.reset_state(state);
    let before = game.stats();
    let mut prev = 0.0f64;
    for &p in order {
        let value = game.add_player(state, p);
        marginals[p] = value - prev;
        prev = value;
    }
    counters.marginal_updates += order.len() as u64;
    match (before, game.stats()) {
        (Some(b), Some(a)) => {
            counters.coalition_evals += a.evals - b.evals;
            counters.cache_hits += a.hits - b.hits;
            counters.cache_misses += a.misses - b.misses;
        }
        _ => counters.coalition_evals += order.len() as u64,
    }
}

/// Adapter giving any [`Game`] a (slow) incremental interface by replaying
/// the full characteristic function after every insertion. Useful for
/// cross-checking fast incremental implementations.
#[derive(Debug, Clone)]
pub struct Replay<G>(pub G);

impl<G: Game> Game for Replay<G> {
    fn player_count(&self) -> usize {
        self.0.player_count()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        self.0.value(coalition)
    }
}

impl<G: Game> IncrementalGame for Replay<G> {
    type State = Coalition;

    fn initial_state(&self) -> Coalition {
        Coalition::empty(self.0.player_count())
    }

    fn add_player(&self, state: &mut Coalition, player: usize) -> f64 {
        state.insert(player);
        self.0.value(state)
    }
}

/// The *peak-demand game* of Section 4: each player is a workload with a
/// per-time-step resource demand, and a coalition's cost is the **peak**
/// (over time) of its summed demand — the minimum capacity that must be
/// provisioned to run the coalition (paper Figure 1).
#[derive(Debug, Clone)]
pub struct PeakDemandGame {
    /// `demand[p][t]`: demand of player `p` at time step `t`.
    demand: Vec<Vec<f64>>,
    /// `support[p]`: the nonzero entries of player `p`'s row as
    /// `(t, demand)` pairs — schedule-derived rows are zero outside the
    /// workload's slice range, so incremental updates only touch the
    /// steps a player actually occupies.
    support: Vec<Vec<(u32, f64)>>,
    steps: usize,
}

impl PeakDemandGame {
    /// Builds the game from a per-player demand matrix. All players must
    /// cover the same number of time steps.
    ///
    /// # Panics
    ///
    /// Panics if players disagree on the number of time steps, if there
    /// are no players, or if there are no time steps.
    pub fn new(demand: Vec<Vec<f64>>) -> Self {
        assert!(!demand.is_empty(), "game needs at least one player");
        let steps = demand[0].len();
        assert!(steps > 0, "game needs at least one time step");
        assert!(
            demand.iter().all(|d| d.len() == steps),
            "all players must cover the same time steps"
        );
        let support = demand
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != 0.0)
                    .map(|(t, &d)| (t as u32, d))
                    .collect()
            })
            .collect();
        Self {
            demand,
            support,
            steps,
        }
    }

    /// Per-player demand rows.
    pub fn demand(&self) -> &[Vec<f64>] {
        &self.demand
    }

    /// Number of time steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Adds `sign ·` `player`'s row to `sums` and returns the new
    /// `max(0, sums)`, given the old one in `peak`. Only a toggle that
    /// lowers a slot holding the peak re-scans the array:
    ///
    /// * `before < peak` — the peak is at an untouched slot, so it still
    ///   caps them and only `after` can beat it;
    /// * `after >= peak` — a touched slot now holds (at least) the old
    ///   peak, which already capped every other slot;
    /// * otherwise a slot holding the peak was lowered below it, and only
    ///   a full scan knows the new peak.
    ///
    /// `max` selects an operand and never rounds, so the result is the
    /// same bits as a full scan of the same sums.
    fn toggle(&self, sums: &mut [f64], peak: f64, player: usize, sign: f64) -> f64 {
        let mut before = f64::NEG_INFINITY;
        let mut after = f64::NEG_INFINITY;
        for &(t, d) in &self.support[player] {
            let s = &mut sums[t as usize];
            before = before.max(*s);
            *s += sign * d;
            after = after.max(*s);
        }
        if before < peak {
            peak.max(after)
        } else if after >= peak {
            after
        } else {
            sums.iter().copied().fold(0.0, f64::max)
        }
    }
}

impl Game for PeakDemandGame {
    fn player_count(&self) -> usize {
        self.demand.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let mut peak = 0.0f64;
        for t in 0..self.steps {
            let total: f64 = coalition.iter().map(|p| self.demand[p][t]).sum();
            peak = peak.max(total);
        }
        peak
    }

    /// Block-local Gray walk. For each aligned [`FILL_BLOCK_MASKS`] block
    /// the range touches, the block's fixed high players are toggled in
    /// from the empty coalition, then the low players are walked in Gray
    /// order, one toggle per coalition. The state is one flat per-step
    /// sum array plus the running peak, and a toggle only touches the
    /// player's nonzero steps.
    ///
    /// The toggle path to a mask depends on the mask alone, so each entry
    /// is a function of its mask whatever range is asked for. It equals
    /// [`Game::value`] bitwise whenever the sums are exact (integer or
    /// dyadic demands), and to within a few ulps of the largest sum
    /// otherwise.
    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        let end = first_mask + out.len() as u64;
        let block = 1u64 << self.player_count().min(FILL_BLOCK_MASKS.ilog2() as usize);
        let mut sums = vec![0.0f64; self.steps];
        let mut store = |mask: u64, peak: f64| {
            if (first_mask..end).contains(&mask) {
                out[(mask - first_mask) as usize] = peak;
            }
        };
        let mut high = first_mask - first_mask % block;
        while high < end {
            sums.fill(0.0);
            let mut peak = 0.0;
            let mut players = high;
            while players != 0 {
                peak = self.toggle(&mut sums, peak, players.trailing_zeros() as usize, 1.0);
                players &= players - 1;
            }
            let mut mask = high;
            store(mask, peak);
            for k in 1..block {
                let bit = k & k.wrapping_neg();
                let sign = if mask & bit == 0 { 1.0 } else { -1.0 };
                mask ^= bit;
                peak = self.toggle(&mut sums, peak, bit.trailing_zeros() as usize, sign);
                store(mask, peak);
            }
            high += block;
        }
    }
}

impl IncrementalGame for PeakDemandGame {
    /// Per-time-step sums held in a segment tree: inserting a player
    /// costs `O(|support| · log steps)` and the coalition peak is read
    /// off the root, instead of the former `O(steps)` scan per insertion.
    type State = MaxTree;

    fn initial_state(&self) -> Self::State {
        MaxTree::new(self.steps)
    }

    fn reset_state(&self, state: &mut Self::State) {
        state.reset();
    }

    fn add_player(&self, state: &mut Self::State, player: usize) -> f64 {
        for &(t, d) in &self.support[player] {
            state.add(t as usize, d);
        }
        state.max()
    }
}

/// A game given by an explicit table of coalition values, indexed by
/// bitmask. Only usable for ≤ 64 players; primarily a test fixture.
#[derive(Debug, Clone)]
pub struct TableGame {
    n: usize,
    values: Vec<f64>,
}

impl TableGame {
    /// Builds a table game; `values[mask]` is the value of the coalition
    /// with member bitmask `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2ⁿ` or `values[0] != 0`.
    pub fn new(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), 1usize << n, "table must have 2^n entries");
        assert_eq!(values[0], 0.0, "the empty coalition must have value 0");
        Self { n, values }
    }

    /// Direct table lookup by membership bitmask.
    ///
    /// # Panics
    ///
    /// Panics if the mask has bits at or above `n`.
    pub fn lookup(&self, mask: u64) -> f64 {
        self.values[mask as usize]
    }
}

impl Game for TableGame {
    fn player_count(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let mut mask = 0u64;
        for p in coalition.iter() {
            mask |= 1 << p;
        }
        self.values[mask as usize]
    }

    /// Copies the range out of the table.
    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        out.copy_from_slice(&self.values[first_mask as usize..][..out.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_demand_value_is_max_of_sums() {
        // p0: [4, 1], p1: [1, 4], p2: [2, 2]
        let g = PeakDemandGame::new(vec![vec![4.0, 1.0], vec![1.0, 4.0], vec![2.0, 2.0]]);
        assert_eq!(g.value(&Coalition::empty(3)), 0.0);
        assert_eq!(g.value(&Coalition::from_players(3, [0])), 4.0);
        assert_eq!(g.value(&Coalition::from_players(3, [0, 1])), 5.0);
        assert_eq!(g.value(&Coalition::grand(3)), 7.0);
    }

    #[test]
    fn incremental_matches_batch() {
        let g = PeakDemandGame::new(vec![vec![4.0, 1.0], vec![1.0, 4.0], vec![2.0, 2.0]]);
        let mut state = g.initial_state();
        let v1 = g.add_player(&mut state, 2);
        assert_eq!(v1, g.value(&Coalition::from_players(3, [2])));
        let v2 = g.add_player(&mut state, 0);
        assert_eq!(v2, g.value(&Coalition::from_players(3, [0, 2])));
        let v3 = g.add_player(&mut state, 1);
        assert_eq!(v3, g.value(&Coalition::grand(3)));
    }

    #[test]
    fn replay_adapter_agrees_with_direct_evaluation() {
        let g = PeakDemandGame::new(vec![vec![3.0], vec![2.0]]);
        let replay = Replay(g.clone());
        let mut s = replay.initial_state();
        assert_eq!(replay.add_player(&mut s, 1), 2.0);
        assert_eq!(replay.add_player(&mut s, 0), 5.0);
    }

    #[test]
    #[should_panic(expected = "2^n entries")]
    fn table_game_validates_size() {
        let _ = TableGame::new(2, vec![0.0, 1.0]);
    }

    #[test]
    fn replay_marginals_telescopes_and_counts() {
        let g = PeakDemandGame::new(vec![vec![4.0, 1.0], vec![1.0, 4.0], vec![2.0, 2.0]]);
        let mut state = g.initial_state();
        let mut marginals = vec![0.0; 3];
        let mut counters = EvalCounters::default();
        replay_marginals_into(&g, &[2, 0, 1], &mut state, &mut marginals, &mut counters);
        let total: f64 = marginals.iter().sum();
        assert!((total - g.value(&Coalition::grand(3))).abs() < 1e-12);
        assert_eq!(counters.coalition_evals, 3);
        assert_eq!(counters.marginal_updates, 3);
    }

    #[test]
    fn counters_merge_by_summing() {
        let mut a = EvalCounters {
            coalition_evals: 3,
            marginal_updates: 3,
            batches: 1,
            wall_time_secs: 0.5,
            cache_hits: 2,
            cache_misses: 1,
        };
        let b = EvalCounters {
            coalition_evals: 7,
            marginal_updates: 6,
            batches: 2,
            wall_time_secs: 1.5,
            cache_hits: 1,
            cache_misses: 5,
        };
        a.merge(&b);
        assert_eq!(a.coalition_evals, 10);
        assert_eq!(a.marginal_updates, 9);
        assert_eq!(a.batches, 3);
        assert!((a.wall_time_secs - 2.0).abs() < 1e-12);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 6);
        assert!((a.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(EvalCounters::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn tree_backed_incremental_path_matches_the_scan_reference() {
        // Equality pin: the MaxTree-backed add_player must reproduce
        // `value()`'s full scan of every prefix bit-for-bit on dyadic
        // demands, across several permutations and a reused state.
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0, 2.0],
            vec![1.0, 4.0, 2.0, 0.0],
            vec![0.0, 0.0, 5.0, 5.0],
            vec![2.5, 0.5, 3.5, 0.25],
        ]);
        let mut state = g.initial_state();
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            g.reset_state(&mut state);
            for (k, &p) in order.iter().enumerate() {
                let prefix = Coalition::from_players(4, order[..=k].iter().copied());
                let a = g.add_player(&mut state, p);
                assert_eq!(
                    a.to_bits(),
                    g.value(&prefix).to_bits(),
                    "player {p} in {order:?}"
                );
            }
        }
    }

    #[test]
    fn reset_state_reuses_allocations() {
        let g = PeakDemandGame::new(vec![vec![4.0, 1.0], vec![1.0, 4.0]]);
        let mut state = g.initial_state();
        let first = g.add_player(&mut state, 0);
        g.reset_state(&mut state);
        let second = g.add_player(&mut state, 0);
        assert_eq!(first.to_bits(), second.to_bits());
    }
}
