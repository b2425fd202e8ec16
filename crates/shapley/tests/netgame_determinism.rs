//! Determinism pins for the LP-valued network game:
//!
//! * warm-started coalition solves **bit-identical** to cold solves
//!   across the full coalition lattice up to n = 10 tenants;
//! * [`parallel_exact_shapley`] over the LP game bit-identical to the
//!   serial solver at 1, 2, 3, and 8 threads, below one fill block and
//!   across four, and both equal to the cold lattice's Shapley values;
//! * on a non-dyadic instance the same thread invariance, with values
//!   within 1e-9 (scaled) of the cold lattice's;
//! * the whole-lattice warm fill's [`LatticeStats`] on the ten-tenant
//!   fixture;
//! * [`parallel_sampled_shapley`] with batch-local coalition caches
//!   bit-identical run-to-run at a fixed seed, bit-identical to the same
//!   run without caches (the cache may only skip work, never change a
//!   value — which holds because warm incremental replay reproduces cold
//!   values exactly on dyadic instances), and bit-identical at 1, 2, and
//!   8 threads;
//! * permutation replays, which start warm from the empty coalition's
//!   basis, bit-identical to replays that start each permutation cold on
//!   the dyadic fixture, and within 1e-9 (scaled) of them — and thread
//!   invariant — on the non-dyadic one;
//! * FNV-1a 64 digests of the warm lattice fill, the exact φ and the
//!   sampled φ on the ten-tenant (dyadic and non-dyadic) and nine-tenant
//!   fixtures, recorded before the solver started reusing LU factors, so
//!   any change to the solver or the warm chaining that moves one bit
//!   fails here.
//!
//! All instances except the non-dyadic one use integer capacities/demands
//! and integer link prices, the exact-arithmetic regime documented in
//! `fairco2-solver`.

use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::{
    exact_shapley, parallel_exact_shapley, shapley_from_table, FILL_BLOCK_MASKS,
};
use fairco2_shapley::game::{Game, IncrementalGame};
use fairco2_shapley::netgame::{LatticeStats, Link, Network, NetworkCarbonGame};
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::SampleConfig;
use fairco2_solver::Basis;

/// A 5-node network (egress = 4) with shared bottleneck links, built so
/// larger coalitions actually contend for capacity.
fn bottleneck_network() -> Network {
    Network::new(
        5,
        4,
        vec![
            Link {
                from: 0,
                to: 2,
                capacity: 9.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 1,
                to: 2,
                capacity: 7.0,
                carbon_per_unit: 2.0,
            },
            Link {
                from: 0,
                to: 3,
                capacity: 5.0,
                carbon_per_unit: 3.0,
            },
            Link {
                from: 1,
                to: 3,
                capacity: 6.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 2,
                to: 4,
                capacity: 11.0,
                carbon_per_unit: 2.0,
            },
            Link {
                from: 3,
                to: 4,
                capacity: 8.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 2,
                to: 3,
                capacity: 4.0,
                carbon_per_unit: 1.0,
            },
        ],
    )
}

/// `n` tenants with deterministic small integer demands at nodes 0/1.
fn tenants(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|t| {
            let at0 = ((t * 7 + 3) % 4) as f64;
            let at1 = ((t * 5 + 1) % 3) as f64;
            vec![at0, at1, 0.0, 0.0, 0.0]
        })
        .collect()
}

fn game(n: usize) -> NetworkCarbonGame {
    NetworkCarbonGame::new(bottleneck_network(), tenants(n))
}

#[test]
fn warm_lattice_is_bit_identical_to_cold_up_to_ten_tenants() {
    for n in [2usize, 5, 10] {
        let g = game(n);
        let (cold, _) = g.fill_lattice_cold();
        let (warm, stats) = g.fill_lattice_warm();
        assert_eq!(cold.len(), 1 << n);
        for (mask, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_eq!(
                c.to_bits(),
                w.to_bits(),
                "n={n} mask={mask:#b}: cold {c} vs warm {w}"
            );
        }
        // The warm fill must actually warm-start (not silently cold-solve
        // everything): every non-empty coalition whose parent was routed
        // gets an offer, and most offers must be served.
        assert!(stats.warm_attempts > 0, "n={n}: no warm starts attempted");
        assert!(
            stats.warm_hits * 2 > stats.warm_attempts,
            "n={n}: warm hits {} of {} attempts",
            stats.warm_hits,
            stats.warm_attempts
        );
    }
}

/// Lattice sizes for the exact-solver pins: one below a single fill block
/// and one spanning four blocks.
const EXACT_SIZES: [usize; 2] = [6, 10];

fn assert_bitwise(want: &[f64], got: &[f64], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (p, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: player {p}: {a} vs {b}");
    }
}

/// `network` with non-dyadic prices (tenths and thirds) and capacities
/// (integers plus tenths), so simplex arithmetic rounds and a warm solve
/// may differ from the cold one in the last bits.
fn non_dyadic(network: &Network) -> Network {
    let links = network
        .links()
        .iter()
        .enumerate()
        .map(|(i, l)| Link {
            capacity: l.capacity + 0.1 * (i + 1) as f64,
            carbon_per_unit: if i % 2 == 0 {
                l.carbon_per_unit * 0.1
            } else {
                l.carbon_per_unit / 3.0
            },
            ..*l
        })
        .collect();
    Network::new(network.nodes(), network.egress(), links)
}

/// The bottleneck network made non-dyadic.
fn non_dyadic_game(n: usize) -> NetworkCarbonGame {
    NetworkCarbonGame::new(non_dyadic(&bottleneck_network()), tenants(n))
}

/// A leaf/spine fabric shaped like the benchmark's: five injection
/// leaves (nodes 0–4), two spines (5, 6) and the egress (7). Each leaf
/// reaches both spines and keeps a costly direct backup to the egress,
/// so every coalition routes; the spine downlinks are the bottlenecks.
fn leaf_spine_network() -> Network {
    let (spine_a, spine_b, egress) = (5, 6, 7);
    let link = |from, to, capacity: usize, price: usize| Link {
        from,
        to,
        capacity: capacity as f64,
        carbon_per_unit: price as f64,
    };
    let mut links = Vec::new();
    for leaf in 0..5 {
        links.push(link(leaf, spine_a, 5 + (leaf * 3) % 4, 1 + leaf % 4));
        links.push(link(leaf, spine_b, 4 + (leaf * 5) % 5, 1 + (leaf + 1) % 4));
        links.push(link(leaf, egress, 64, 8 * (1 + (leaf + 2) % 4)));
    }
    links.push(link(spine_a, egress, 13, 1));
    links.push(link(spine_b, egress, 11, 2));
    links.push(link(spine_a, spine_b, 6, 1));
    Network::new(8, egress, links)
}

/// `n` tenants injecting small integer demands at two leaves each.
fn leaf_tenants(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|t| {
            let mut d = vec![0.0; 8];
            d[(t * 3) % 5] += (1 + t % 3) as f64;
            d[(t * 7 + 2) % 5] += (1 + (t / 2) % 2) as f64;
            d
        })
        .collect()
}

#[test]
fn exact_sizes_sit_below_and_across_fill_blocks() {
    assert!(1u64 << EXACT_SIZES[0] < FILL_BLOCK_MASKS);
    assert!(1u64 << EXACT_SIZES[1] >= 4 * FILL_BLOCK_MASKS);
}

#[test]
fn exact_solvers_are_bit_identical_at_1_2_3_8_threads_and_to_the_cold_lattice() {
    for n in EXACT_SIZES {
        let g = game(n);
        let serial = exact_shapley(&g).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let parallel = parallel_exact_shapley(&g, threads).unwrap();
            assert_bitwise(&serial, &parallel, &format!("n={n} threads={threads}"));
        }
        // The warm-chained fill reproduces cold `value()` bit for bit on
        // this dyadic instance, so the Shapley values match the cold
        // lattice's exactly.
        let (cold, _) = g.fill_lattice_cold();
        assert_bitwise(
            &serial,
            &shapley_from_table(n, &cold),
            &format!("n={n} cold"),
        );
    }
}

#[test]
fn non_dyadic_exact_solvers_are_thread_invariant_and_close_to_cold() {
    for n in EXACT_SIZES {
        let g = non_dyadic_game(n);
        let serial = exact_shapley(&g).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let parallel = parallel_exact_shapley(&g, threads).unwrap();
            assert_bitwise(&serial, &parallel, &format!("n={n} threads={threads}"));
        }
        let (cold, _) = g.fill_lattice_cold();
        if n == EXACT_SIZES[1] {
            // The fixture must actually round: some warm-chained entries
            // differ from cold in their last bits, so a fill boundary
            // that moved with the thread count would show.
            let (warm, _) = g.fill_lattice_warm();
            assert!(cold
                .iter()
                .zip(&warm)
                .any(|(c, w)| c.to_bits() != w.to_bits()));
        }
        let cold_phi = shapley_from_table(n, &cold);
        let scale = 1.0 + cold.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (p, (w, c)) in serial.iter().zip(&cold_phi).enumerate() {
            assert!(
                (w - c).abs() <= 1e-9 * scale,
                "n={n} player {p}: warm-chained {w} vs cold {c}"
            );
        }
    }
}

/// The whole-lattice warm fill chains every coalition off its parent, as
/// it always has: its accounting on the ten-tenant fixture is pinned.
#[test]
fn warm_lattice_stats_are_pinned_on_the_ten_tenant_fixture() {
    let (_, stats) = game(10).fill_lattice_warm();
    assert_eq!(
        stats,
        LatticeStats {
            coalitions: 1024,
            warm_attempts: 1001,
            warm_hits: 909,
            iterations: 654,
            unroutable: 114,
            factorizations: 222,
        }
    );
    assert!(stats.factorizations < stats.warm_attempts);
}

#[test]
fn sampled_shapley_cached_is_reproducible_and_cache_transparent() {
    let g = game(9);
    let config = ParallelConfig {
        sample: SampleConfig {
            max_permutations: 200,
            target_stderr: 0.0,
            min_permutations: 200,
            antithetic: true,
        },
        threads: 1,
        coalition_cache: true,
        ..ParallelConfig::default()
    };
    let run = |seed: u64| parallel_sampled_shapley(&g, &config, seed).estimate;
    // Same seed ⇒ bit-identical estimate.
    let a = run(42);
    let b = run(42);
    assert_eq!(a.values.len(), 9);
    for (x, y) in a.values.iter().zip(&b.values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // The cache may only skip work, never change a value: the cached
    // estimate matches the uncached one bit-for-bit (warm incremental
    // replay reproduces cold values exactly on this dyadic instance).
    let uncached = parallel_sampled_shapley(
        &g,
        &ParallelConfig {
            coalition_cache: false,
            ..config
        },
        42,
    )
    .estimate;
    for (x, y) in a.values.iter().zip(&uncached.values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(a.counters.cache_hits > 0, "cache never hit");
}

#[test]
fn parallel_sampled_shapley_is_bit_identical_at_1_2_8_threads() {
    let g = game(9);
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 8] {
        let config = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 192,
                target_stderr: 0.0,
                min_permutations: 192,
                antithetic: true,
            },
            batch_permutations: 16,
            round_batches: 8,
            threads,
            coalition_cache: true,
        };
        let est = parallel_sampled_shapley(&g, &config, 0xFA1C_0002);
        match &reference {
            None => reference = Some(est.estimate.values.clone()),
            Some(want) => {
                for (p, (a, b)) in want.iter().zip(&est.estimate.values).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "player {p} at {threads} threads: {a} vs {b}"
                    );
                }
            }
        }
    }
}

fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn digest(words: &[f64]) -> u64 {
    words
        .iter()
        .fold(fnv1a(0xCBF2_9CE4_8422_2325, words.len() as u64), |h, v| {
            fnv1a(h, v.to_bits())
        })
}

/// FNV-1a 64 over the warm lattice values and the two-thread exact φ.
fn lattice_and_exact_digest(g: &NetworkCarbonGame) -> u64 {
    let (values, _) = g.fill_lattice_warm();
    let phi = parallel_exact_shapley(g, 2).unwrap();
    fnv1a(digest(&values), digest(&phi))
}

/// `game(10)`: warm lattice values, then exact φ at two threads.
const DYADIC_LP_DIGEST: u64 = 0x48FA_05C9_2018_88D9;
/// `non_dyadic_game(10)`: the same, on the rounding fixture.
const NON_DYADIC_LP_DIGEST: u64 = 0xA682_E69E_10F5_E3A0;
/// The non-dyadic leaf/spine fabric at ten tenants: the same again. Its
/// flows sum several rounded capacities, so a start from factors that
/// carry eta updates moves its bits where the bottleneck fixture's stay.
const LEAF_SPINE_LP_DIGEST: u64 = 0x367C_4FA1_D10C_A7B4;
/// `game(9)`: sampled φ at two threads, cached then uncached.
const SAMPLED_LP_DIGEST: u64 = 0x3CB5_1E34_8412_1F88;

#[test]
fn lp_values_match_the_established_digests() {
    let leaf_spine = lattice_and_exact_digest(&NetworkCarbonGame::new(
        non_dyadic(&leaf_spine_network()),
        leaf_tenants(10),
    ));
    let bottleneck = lattice_and_exact_digest(&non_dyadic_game(10));
    let dyadic = lattice_and_exact_digest(&game(10));
    let g = game(9);
    let [cached, uncached] = [true, false]
        .map(|cache| parallel_sampled_shapley(&g, &replay_config(2, cache), 0xD16E_5700).estimate);
    let sampled = fnv1a(digest(&cached.values), digest(&uncached.values));
    assert_eq!(
        (dyadic, bottleneck, leaf_spine, sampled),
        (
            DYADIC_LP_DIGEST,
            NON_DYADIC_LP_DIGEST,
            LEAF_SPINE_LP_DIGEST,
            SAMPLED_LP_DIGEST
        ),
        "{dyadic:#018x} {bottleneck:#018x} {leaf_spine:#018x} {sampled:#018x}"
    );
}

/// Replay that solves each permutation's first coalition cold and warm
/// starts every later one off its predecessor, through the public
/// `evaluate`/`evaluate_warm` — the game's own replay before it started
/// from the empty coalition's basis.
struct ColdStartReplay<'a>(&'a NetworkCarbonGame);

impl Game for ColdStartReplay<'_> {
    fn player_count(&self) -> usize {
        self.0.player_count()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        self.0.value(coalition)
    }
}

impl IncrementalGame for ColdStartReplay<'_> {
    type State = (Coalition, Option<Basis>);

    fn initial_state(&self) -> Self::State {
        (Coalition::empty(self.player_count()), None)
    }

    fn add_player(&self, (members, basis): &mut Self::State, player: usize) -> f64 {
        members.insert(player);
        let value = match basis.as_ref() {
            Some(start) => self.0.evaluate_warm(members, start),
            None => self.0.evaluate(members),
        };
        let carbon = value.carbon();
        *basis = value.into_basis();
        carbon
    }
}

fn replay_config(threads: usize, coalition_cache: bool) -> ParallelConfig {
    ParallelConfig {
        sample: SampleConfig {
            max_permutations: 192,
            target_stderr: 0.0,
            min_permutations: 192,
            antithetic: true,
        },
        batch_permutations: 16,
        round_batches: 8,
        threads,
        coalition_cache,
    }
}

#[test]
fn warm_started_replays_match_cold_started_ones_bit_for_bit_on_the_dyadic_fixture() {
    let g = game(9);
    for cache in [true, false] {
        let config = replay_config(2, cache);
        let warm = parallel_sampled_shapley(&g, &config, 0x5EED).estimate;
        let cold = parallel_sampled_shapley(&ColdStartReplay(&g), &config, 0x5EED).estimate;
        assert_bitwise(&cold.values, &warm.values, &format!("cache={cache}"));
    }
}

#[test]
fn non_dyadic_warm_started_replays_are_thread_invariant_and_close_to_cold_started_ones() {
    let g = non_dyadic_game(9);
    let cold = parallel_sampled_shapley(&ColdStartReplay(&g), &replay_config(2, true), 0x5EED)
        .estimate
        .values;
    let scale = 1.0 + g.value(&Coalition::grand(9)).abs();
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 8] {
        let warm = parallel_sampled_shapley(&g, &replay_config(threads, true), 0x5EED)
            .estimate
            .values;
        for (p, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert!(
                (w - c).abs() <= 1e-9 * scale,
                "player {p} at {threads} threads: warm-started {w} vs cold-started {c}"
            );
        }
        match &reference {
            None => reference = Some(warm),
            Some(want) => assert_bitwise(want, &warm, &format!("threads={threads}")),
        }
    }
}
