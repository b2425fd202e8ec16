//! The characteristic-function interface and reference games.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::coalition::Coalition;
use crate::exact::BLOCK_PLAYERS;

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
    /// [`FILL_BLOCK_MASKS`](crate::exact::FILL_BLOCK_MASKS) block.
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
/// Work accounting: every step is charged one coalition evaluation. A
/// batch that replays through a [`CachedGame`](crate::cache::CachedGame)
/// overwrites that charge once, after its loop, with the cache's own
/// evaluation, hit, and miss totals
/// ([`CachedGame::record_into`](crate::cache::CachedGame::record_into)).
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
    let mut prev = 0.0f64;
    for &p in order {
        let value = game.add_player(state, p);
        marginals[p] = value - prev;
        prev = value;
    }
    counters.marginal_updates += order.len() as u64;
    counters.coalition_evals += order.len() as u64;
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
///
/// Insertions (permutation replay, and the exact fill's fixed high
/// players) add a player's *window* into per-step sums: its row from its
/// first to its last nonzero step, zero-padded to a multiple of 4 steps,
/// or the whole horizon for a row with a negative entry.
/// Schedule-derived rows are zero outside the workload's slice range, so
/// an insertion costs the row's span, not the horizon, and its branches
/// depend on the player alone, never on the sums.
#[derive(Debug, Clone)]
pub struct PeakDemandGame {
    /// `demand[p][t]`: demand of player `p` at time step `t`.
    demand: Vec<Vec<f64>>,
    /// `windows[p]`: where player `p`'s window sits in the sums and in
    /// `window_demand`.
    windows: Vec<Window>,
    /// Every player's window of demand, back to back.
    window_demand: Vec<f64>,
    steps: usize,
    /// The low players' subset sums, built by the first
    /// [`Game::fill_values`] call, so games that are only sampled or
    /// served never pay for them.
    low_sums: OnceLock<LowSums>,
}

/// Window lengths are multiples of this many steps, so the short rows
/// of generated schedules (1–3 nonzero steps) all run the same trip count
/// and the insertion loop's branches predict. Sums an insertion adds into
/// carry `PAD_STEPS - 1` slots past the horizon, which stay zero.
const PAD_STEPS: usize = 4;

/// One player's window: `window_demand[offset..][..len]` is added into
/// `sums[start..][..len]`.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: usize,
    len: usize,
    offset: usize,
    /// The row has a negative entry, so the window is the whole horizon
    /// and its maximum after the add is the new peak on its own.
    signed: bool,
}

/// Subset sums of a peak-demand game's *low* players — the
/// `low = min(n, 8)` players a fill block enumerates — with one
/// `2^low`-entry column per distinct column of their demands. Steps no
/// low player touches get no column, so the table is bounded by the
/// distinct columns, not by the horizon.
#[derive(Debug, Clone)]
struct LowSums {
    /// Number of low players.
    low: usize,
    /// `column[t]`: the column step `t` reads, or `None` where no low
    /// player has demand.
    column: Vec<Option<u32>>,
    /// Column `g` is `sums[g << low..][..1 << low]`; its entry `m` sums
    /// the demands of the low players in `m` in ascending player order.
    sums: Vec<f64>,
}

impl LowSums {
    fn new(demand: &[Vec<f64>], steps: usize) -> Self {
        let low = demand.len().min(BLOCK_PLAYERS);
        let rows = &demand[..low];
        let mut columns = HashMap::new();
        let mut sums = Vec::new();
        let column = (0..steps)
            .map(|t| {
                if rows.iter().all(|row| row[t] == 0.0) {
                    return None;
                }
                let mut key = [0u64; BLOCK_PLAYERS];
                for (k, row) in key.iter_mut().zip(rows) {
                    *k = row[t].to_bits();
                }
                let next = columns.len() as u32;
                Some(*columns.entry(key).or_insert_with(|| {
                    // Doubling: the entries with top player `p` are the
                    // entries below `2ᵖ` plus `p`'s demand.
                    let start = sums.len();
                    sums.resize(start + (1 << low), 0.0);
                    let col = &mut sums[start..];
                    for (p, row) in rows.iter().enumerate() {
                        let (lower, upper) = col.split_at_mut(1 << p);
                        for (u, &l) in upper.iter_mut().zip(lower.iter()) {
                            *u = l + row[t];
                        }
                    }
                    next
                }))
            })
            .collect();
        Self { low, column, sums }
    }
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
        let mut window_demand = Vec::new();
        let windows = demand
            .iter()
            .map(|row| {
                let signed = row.iter().any(|&d| d < 0.0);
                let (start, end) = if signed {
                    (0, steps)
                } else {
                    let start = row.iter().position(|&d| d != 0.0).unwrap_or(0);
                    let end = row.iter().rposition(|&d| d != 0.0).map_or(start, |t| t + 1);
                    (start, end)
                };
                let offset = window_demand.len();
                let len = (end - start).next_multiple_of(PAD_STEPS);
                window_demand.extend_from_slice(&row[start..end]);
                window_demand.resize(offset + len, 0.0);
                Window {
                    start,
                    len,
                    offset,
                    signed,
                }
            })
            .collect();
        Self {
            demand,
            windows,
            window_demand,
            steps,
            low_sums: OnceLock::new(),
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

    /// Per-step sums for insertions: zero, with the `PAD_STEPS - 1`
    /// slots past the horizon that padded windows reach.
    fn zero_sums(&self) -> Vec<f64> {
        vec![0.0; self.steps + PAD_STEPS - 1]
    }

    /// Adds `player`'s window into `sums` and returns the maximum of 0
    /// and the window's sums after the add. The loop runs step by step
    /// under one running max: over fixed 4-step chunks LLVM packs the
    /// adds into two-lane stores, which the next insertion (at another
    /// offset) cannot forward to its loads, and it ran slower. Always
    /// inlined, so that replay loops in other crates inline the whole
    /// insertion.
    #[inline(always)]
    fn add_window(&self, sums: &mut [f64], player: usize) -> f64 {
        let window = self.windows[player];
        let demand = &self.window_demand[window.offset..][..window.len];
        let mut after = 0.0;
        for (s, &d) in sums[window.start..][..window.len].iter_mut().zip(demand) {
            *s += d;
            after = select_max(*s, after);
        }
        after
    }
}

/// `max(a, b)` as a select, which the table fill's loops vectorize.
fn select_max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
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

    /// Subset-sum table fill. For each aligned
    /// [`FILL_BLOCK_MASKS`](crate::exact::FILL_BLOCK_MASKS) block the range
    /// touches, the block's fixed high players' windows are added into
    /// per-step sums from zero, as replay adds them; those sums (up to
    /// the horizon) fold into `floor`, the peak over 0 and
    /// the steps no low player touches, and one peak per column of the
    /// low players' subset sums. Entry `m` of the block is then
    /// `max(floor, max_g(peak_g + column_g[m]))`: one branch-free pass
    /// over the block per column.
    ///
    /// Steps that share a column can share one peak, because rounding is
    /// monotone: `max_t fl(a_t + x) = fl(max_t a_t + x)`. Each entry is a
    /// function of its mask alone whatever range is asked for. It equals
    /// [`Game::value`] bitwise whenever the sums are exact (integer or
    /// dyadic demands), and to within a few ulps of the largest sum
    /// otherwise.
    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        let table = self
            .low_sums
            .get_or_init(|| LowSums::new(&self.demand, self.steps));
        let block = 1u64 << table.low;
        let end = first_mask + out.len() as u64;
        let mut sums = self.zero_sums();
        let mut peaks = vec![0.0f64; table.sums.len() >> table.low];
        let mut high = first_mask - first_mask % block;
        while high < end {
            sums.fill(0.0);
            let mut players = high;
            while players != 0 {
                self.add_window(&mut sums, players.trailing_zeros() as usize);
                players &= players - 1;
            }
            let mut floor = 0.0;
            peaks.fill(f64::NEG_INFINITY);
            for (&s, column) in sums.iter().zip(&table.column) {
                let peak = match column {
                    Some(g) => &mut peaks[*g as usize],
                    None => &mut floor,
                };
                *peak = select_max(s, *peak);
            }
            let lo = (first_mask.max(high) - high) as usize;
            let hi = (end.min(high + block) - high) as usize;
            let slots = &mut out[(high + lo as u64 - first_mask) as usize..][..hi - lo];
            slots.fill(floor);
            for (&peak, column) in peaks.iter().zip(table.sums.chunks_exact(block as usize)) {
                for (slot, &c) in slots.iter_mut().zip(&column[lo..hi]) {
                    *slot = select_max(peak + c, *slot);
                }
            }
            high += block;
        }
    }
}

impl IncrementalGame for PeakDemandGame {
    /// Flat per-step sums (with the padding slots) and their running
    /// peak `max(0, sums)`. An insertion adds the player's window; every
    /// slot receives the same nonzero demands in the same order as a
    /// sparse add would, and the padded zeros add exactly `+0.0` (sums
    /// start at `+0.0` and never hold `-0.0`). A non-negative row lowers
    /// no slot, so the slots outside its window stay at or below the old
    /// peak and the new one is `max(window max, old peak)`; a signed
    /// row's window is the whole horizon, so its window max is the new
    /// peak. `max` selects an operand, so the result is the bits of a
    /// full scan of the same sums.
    type State = (Vec<f64>, f64);

    fn initial_state(&self) -> Self::State {
        (self.zero_sums(), 0.0)
    }

    fn reset_state(&self, (sums, peak): &mut Self::State) {
        sums.fill(0.0);
        *peak = 0.0;
    }

    #[inline]
    fn add_player(&self, (sums, peak): &mut Self::State, player: usize) -> f64 {
        let after = self.add_window(sums, player);
        *peak = if self.windows[player].signed {
            after
        } else {
            select_max(after, *peak)
        };
        *peak
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

    /// Asserts that `add_player` reproduces `value()`'s full scan of
    /// every prefix of every order bit for bit, through one reused state.
    fn assert_prefixes_match_the_scan(g: &PeakDemandGame, orders: &[Vec<usize>]) {
        let n = g.player_count();
        let mut state = g.initial_state();
        for order in orders {
            g.reset_state(&mut state);
            for (k, &p) in order.iter().enumerate() {
                let prefix = Coalition::from_players(n, order[..=k].iter().copied());
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
    fn flat_incremental_path_matches_the_scan_reference() {
        // Equality pin on dyadic demands: the window add must reproduce
        // `value()` of every prefix bit-for-bit, across several
        // permutations and a reused state.
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0, 2.0],
            vec![1.0, 4.0, 2.0, 0.0],
            vec![0.0, 0.0, 5.0, 5.0],
            vec![2.5, 0.5, 3.5, 0.25],
        ]);
        assert_prefixes_match_the_scan(&g, &[vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]]);

        // Window edge cases on a 6-step horizon (not a multiple of 4):
        // an all-zero row (empty window), a row whose window ends on the
        // last step, a zero gap inside a span, and a negative entry that
        // lowers the peak set by player 0 at step 1.
        let g = PeakDemandGame::new(vec![
            vec![0.0, 6.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0; 6],
            vec![0.0, 0.0, 0.0, 1.5, 2.0, 3.0],
            vec![2.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.5, -4.0, 1.0, 0.0, 0.0, 0.0],
        ]);
        let mut orders: Vec<Vec<usize>> = vec![
            vec![0, 4, 1, 2, 3],
            vec![4, 0, 3, 2, 1],
            vec![1, 2, 3, 0, 4],
            vec![3, 0, 4, 1, 2],
        ];
        orders.extend(orders.clone().into_iter().map(|mut o| {
            o.reverse();
            o
        }));
        assert_prefixes_match_the_scan(&g, &orders);
        let mut state = g.initial_state();
        g.add_player(&mut state, 0);
        assert_eq!(
            g.add_player(&mut state, 4),
            2.0,
            "the signed row lowers the peak"
        );

        // A 1-step horizon, with a zero and a signed player.
        let g = PeakDemandGame::new(vec![vec![3.0], vec![0.0], vec![-1.0], vec![0.25]]);
        assert_prefixes_match_the_scan(&g, &[vec![0, 1, 2, 3], vec![2, 3, 1, 0], vec![1, 0, 3, 2]]);
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
