//! Coalition-value memoization.
//!
//! Permutation sampling at the paper's scale (n ≤ 22 workloads) draws
//! thousands of permutations over at most `2ⁿ` distinct coalitions, so
//! the same characteristic value is recomputed constantly: a 12-player
//! game at 4,096 permutations performs ~49k evaluations of at most 4,096
//! distinct coalitions. [`CoalitionCache`] is an open-addressing,
//! mask-keyed memo table for those values, and [`CachedGame`] wires it
//! into the [`IncrementalGame`] replay path so repeated permutation
//! prefixes stop re-evaluating the game.
//!
//! # Determinism
//!
//! A cache hit returns the value computed by the *first* permutation that
//! reached the coalition, whose inner evaluation order may differ from
//! the current permutation's. For games whose characteristic values are
//! exact in floating point (integer-valued demands, table games) the two
//! are bit-identical, so cached and uncached estimates agree to the last
//! bit; in general they agree up to floating-point associativity of the
//! game's own accumulation. Within one run the cache is deterministic:
//! the same permutation schedule produces the same hit pattern and the
//! same estimate, independent of thread count when each sampling batch
//! owns its cache.

use std::cell::{Cell, RefCell};

use crate::coalition::Coalition;
use crate::game::{EvalCounters, Game, IncrementalGame};

/// Slots probed before the cache gives up and displaces an entry. Bounded
/// probing keeps worst-case lookup cost constant; displacement (rather
/// than rejection) keeps recent coalitions warm when the table saturates.
const PROBE_LIMIT: usize = 16;

/// An open-addressing memo table mapping coalition bitmasks (`u64`) to
/// characteristic values.
///
/// The empty mask doubles as the vacant-slot sentinel: `v(∅) = 0` by the
/// [`Game`] contract, so the empty coalition never needs an entry.
#[derive(Debug, Clone)]
pub struct CoalitionCache {
    keys: Vec<u64>,
    values: Vec<f64>,
    /// Capacity minus one; capacity is a power of two.
    index_mask: usize,
    len: usize,
}

impl CoalitionCache {
    /// A cache with `1 << bits` slots.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 30 (an 8 GiB table is a config
    /// error, not a cache).
    pub fn with_bits(bits: u8) -> Self {
        assert!((1..=30).contains(&bits), "cache bits must be in 1..=30");
        let cap = 1usize << bits;
        Self {
            keys: vec![0; cap],
            values: vec![0.0; cap],
            index_mask: cap - 1,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// SplitMix64-style finalizer; masks are tiny integers, so raw
    /// modular indexing would cluster the low bits badly.
    fn slot(&self, mask: u64) -> usize {
        let mut h = mask;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h ^ (h >> 31)) as usize & self.index_mask
    }

    /// Looks up the value cached for `mask`, if any.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the empty mask — `v(∅) = 0` is the game
    /// contract, not a cache entry.
    pub fn get(&self, mask: u64) -> Option<f64> {
        debug_assert!(mask != 0, "the empty coalition is never cached");
        let mut slot = self.slot(mask);
        for _ in 0..PROBE_LIMIT {
            let key = self.keys[slot];
            if key == mask {
                return Some(self.values[slot]);
            }
            if key == 0 {
                return None;
            }
            slot = (slot + 1) & self.index_mask;
        }
        None
    }

    /// Caches `value` for `mask`. When every probed slot is taken by a
    /// different key, the home slot is displaced.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the empty mask.
    pub fn insert(&mut self, mask: u64, value: f64) {
        debug_assert!(mask != 0, "the empty coalition is never cached");
        let home = self.slot(mask);
        let mut slot = home;
        for _ in 0..PROBE_LIMIT {
            let key = self.keys[slot];
            if key == mask {
                self.values[slot] = value;
                return;
            }
            if key == 0 {
                self.keys[slot] = mask;
                self.values[slot] = value;
                self.len += 1;
                return;
            }
            slot = (slot + 1) & self.index_mask;
        }
        // Saturated neighbourhood: displace the home slot.
        self.keys[home] = mask;
        self.values[home] = value;
    }
}

/// Replay state of a [`CachedGame`]: the inner state lags behind the
/// logical coalition and is only caught up on cache misses.
#[derive(Debug, Clone)]
pub struct CachedState<S> {
    inner: S,
    /// Bitmask of the logical (fully added) coalition.
    mask: u64,
    /// Players added logically but not yet applied to `inner` because
    /// their values came from the cache.
    pending: Vec<usize>,
}

/// An [`IncrementalGame`] adapter that memoizes coalition values in a
/// [`CoalitionCache`].
///
/// On a cache hit the inner game is not touched at all: the pending
/// players are only replayed into the inner state when a miss forces a
/// real evaluation, so a fully warmed cache reduces a permutation replay
/// to `n` hash probes. The wrapper counts its hits, misses, and true
/// inner evaluations; the batch that owns it reads them once, after its
/// loop, through [`record_into`](CachedGame::record_into).
///
/// Not `Sync`: each batch of
/// [`parallel_sampled_shapley`](crate::parallel::parallel_sampled_shapley)
/// owns its wrapper (and cache), which keeps results thread-count
/// invariant.
#[derive(Debug)]
pub struct CachedGame<'g, G> {
    inner: &'g G,
    cache: RefCell<CoalitionCache>,
    evals: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'g, G: Game> CachedGame<'g, G> {
    /// Wraps `game` with a cache sized for one batch of `permutations`
    /// permutations, which inserts at most `permutations · n` coalitions.
    /// The table takes the smaller of two sizes, never below `2⁸` slots:
    ///
    /// * the lattice rule, `2ⁿ⁺¹` capped at `2²⁰` (16 MiB) — below half
    ///   full when the whole coalition lattice is visited;
    /// * the batch rule, the first power of two ≥ `4 · permutations · n` —
    ///   at most a quarter full after the batch.
    ///
    /// # Panics
    ///
    /// Panics if the game has more than 64 players — coalition bitmasks
    /// are one machine word.
    pub fn new(game: &'g G, permutations: usize) -> Self {
        let n = game.player_count();
        assert!(n <= 64, "coalition caching supports at most 64 players");
        let lattice = (n + 1).clamp(8, 20);
        let batch = permutations
            .saturating_mul(4 * n)
            .clamp(1 << 8, 1 << 20)
            .next_power_of_two()
            .trailing_zeros() as usize;
        Self {
            inner: game,
            cache: RefCell::new(CoalitionCache::with_bits(lattice.min(batch) as u8)),
            evals: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Writes this wrapper's totals into `counters`: its hits and misses,
    /// and its inner evaluations in place of the one evaluation per
    /// lookup that [`replay_marginals_into`](crate::game::replay_marginals_into)
    /// charged. Called once by the batch that owns the wrapper, on
    /// counters that saw no other game.
    pub fn record_into(&self, counters: &mut EvalCounters) {
        counters.coalition_evals = self.evals.get();
        counters.cache_hits = self.hits.get();
        counters.cache_misses = self.misses.get();
    }
}

impl<G: Game> Game for CachedGame<'_, G> {
    fn player_count(&self) -> usize {
        self.inner.player_count()
    }

    // `Game` is a supertrait of `IncrementalGame`, which is the only way
    // the cache is read; a direct `value` call goes to the inner game.
    fn value(&self, coalition: &Coalition) -> f64 {
        self.inner.value(coalition)
    }
}

impl<G: IncrementalGame> IncrementalGame for CachedGame<'_, G> {
    type State = CachedState<G::State>;

    fn initial_state(&self) -> Self::State {
        CachedState {
            inner: self.inner.initial_state(),
            mask: 0,
            pending: Vec::with_capacity(self.inner.player_count()),
        }
    }

    fn reset_state(&self, state: &mut Self::State) {
        self.inner.reset_state(&mut state.inner);
        state.mask = 0;
        state.pending.clear();
    }

    fn add_player(&self, state: &mut Self::State, player: usize) -> f64 {
        state.mask |= 1 << player;
        state.pending.push(player);
        if let Some(v) = self.cache.borrow().get(state.mask) {
            self.hits.set(self.hits.get() + 1);
            return v;
        }
        self.misses.set(self.misses.get() + 1);
        // Catch the inner state up: pending players are applied in the
        // permutation's own order, so miss values are exactly what the
        // uncached replay would have produced.
        let mut value = 0.0;
        for &p in &state.pending {
            value = self.inner.add_player(&mut state.inner, p);
            self.evals.set(self.evals.get() + 1);
        }
        state.pending.clear();
        self.cache.borrow_mut().insert(state.mask, value);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{replay_marginals_into, EvalCounters, PeakDemandGame};

    fn demo_game() -> PeakDemandGame {
        PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
        ])
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let mut c = CoalitionCache::with_bits(4);
        assert!(c.is_empty());
        assert_eq!(c.get(0b101), None);
        c.insert(0b101, 7.5);
        c.insert(0b11, 2.0);
        assert_eq!(c.get(0b101), Some(7.5));
        assert_eq!(c.get(0b11), Some(2.0));
        assert_eq!(c.len(), 2);
        c.insert(0b101, 8.0); // overwrite, not a new entry
        assert_eq!(c.get(0b101), Some(8.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn saturation_displaces_instead_of_growing() {
        // 2 slots, many keys: lookups must stay bounded and the most
        // recently displaced key must be retrievable.
        let mut c = CoalitionCache::with_bits(1);
        for mask in 1..=64u64 {
            c.insert(mask, mask as f64);
            assert_eq!(c.get(mask), Some(mask as f64), "freshly inserted key");
        }
        assert!(c.len() <= c.capacity());
    }

    fn capacity<G: Game>(cached: &CachedGame<'_, G>) -> usize {
        cached.cache.borrow().capacity()
    }

    #[test]
    fn batch_cache_is_sized_by_the_batch() {
        let players = |n: usize| PeakDemandGame::new(vec![vec![1.0]; n]);
        // The lattice rule binds for small games: 2⁸ slots at 7 players,
        // 2¹³ at 12 with a 4,096-permutation batch, and the 2²⁰ cap.
        assert_eq!(capacity(&CachedGame::new(&players(7), 64)), 1 << 8);
        assert_eq!(capacity(&CachedGame::new(&players(12), 4096)), 1 << 13);
        assert_eq!(capacity(&CachedGame::new(&players(40), 1 << 20)), 1 << 20);
        // The batch rule binds for large ones: 64 permutations × 24
        // players insert at most 1,536 coalitions, so 2¹³ slots suffice.
        assert_eq!(capacity(&CachedGame::new(&players(24), 64)), 1 << 13);
        // Never below 2⁸ slots.
        assert_eq!(capacity(&CachedGame::new(&players(30), 1)), 1 << 8);
    }

    #[test]
    fn cached_replay_matches_uncached_values() {
        let g = demo_game();
        let cached = CachedGame::new(&g, 4);
        let mut plain_s = g.initial_state();
        let mut cached_s = cached.initial_state();
        let mut plain_m = vec![0.0; 4];
        let mut cached_m = vec![0.0; 4];
        let mut plain_c = EvalCounters::default();
        let mut cached_c = EvalCounters::default();
        let orders: [&[usize]; 4] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[1, 0, 3, 2], &[0, 1, 2, 3]];
        for order in orders {
            replay_marginals_into(&g, order, &mut plain_s, &mut plain_m, &mut plain_c);
            replay_marginals_into(&cached, order, &mut cached_s, &mut cached_m, &mut cached_c);
            for (a, b) in plain_m.iter().zip(&cached_m) {
                // Integer-valued demands: sums are exact, so cached
                // values are bit-identical to uncached.
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Replay charges one evaluation per lookup until the cache's own
        // totals replace it.
        assert_eq!(plain_c.coalition_evals, 16);
        assert_eq!(cached_c.coalition_evals, 16);
        cached.record_into(&mut cached_c);
        // The repeated first order is answered entirely from the cache.
        assert!(cached_c.coalition_evals < plain_c.coalition_evals);
        assert_eq!(cached_c.cache_hits + cached_c.cache_misses, 16);
        assert!(cached_c.cache_hits >= 4);
        assert_eq!(cached_c.marginal_updates, plain_c.marginal_updates);
    }

    #[test]
    fn hits_skip_the_inner_game_entirely() {
        let g = demo_game();
        let cached = CachedGame::new(&g, 2);
        let mut state = cached.initial_state();
        let mut m = vec![0.0; 4];
        let mut counters = EvalCounters::default();
        replay_marginals_into(&cached, &[0, 1, 2, 3], &mut state, &mut m, &mut counters);
        let mut first = EvalCounters::default();
        cached.record_into(&mut first);
        replay_marginals_into(&cached, &[0, 1, 2, 3], &mut state, &mut m, &mut counters);
        cached.record_into(&mut counters);
        assert_eq!(
            counters.coalition_evals, first.coalition_evals,
            "second identical replay must not evaluate the game"
        );
        assert_eq!(counters.cache_hits, 4);
        assert!((counters.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pending_players_are_applied_on_the_next_miss() {
        let g = demo_game();
        let cached = CachedGame::new(&g, 2);
        let mut state = cached.initial_state();
        let mut m = vec![0.0; 4];
        let mut counters = EvalCounters::default();
        // Warm the prefix {0} only.
        replay_marginals_into(&cached, &[0, 1, 2, 3], &mut state, &mut m, &mut counters);
        // New permutation starting with the warmed prefix: first step
        // hits, the next step must evaluate {0,2} correctly even though
        // the inner state never saw player 0 in this replay.
        let mut m2 = vec![0.0; 4];
        replay_marginals_into(&cached, &[0, 2, 1, 3], &mut state, &mut m2, &mut counters);
        use crate::game::Game;
        let expected = g.value(&Coalition::from_players(4, [0, 2]))
            - g.value(&Coalition::from_players(4, [0]));
        assert_eq!(m2[2].to_bits(), expected.to_bits());
    }

    #[test]
    #[should_panic(expected = "at most 64 players")]
    fn too_many_players_panics() {
        let g = PeakDemandGame::new(vec![vec![1.0]; 65]);
        let _ = CachedGame::new(&g, 1);
    }

    #[test]
    #[should_panic(expected = "cache bits")]
    fn zero_bits_panics() {
        let _ = CoalitionCache::with_bits(0);
    }
}
