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
//!   8 threads.
//!
//! All instances except the non-dyadic one use integer capacities/demands
//! and integer link prices, the exact-arithmetic regime documented in
//! `fairco2-solver`.

use fairco2_shapley::exact::{
    exact_shapley, parallel_exact_shapley, shapley_from_table, FILL_BLOCK_MASKS,
};
use fairco2_shapley::netgame::{LatticeStats, Link, Network, NetworkCarbonGame};
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::SampleConfig;

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

/// The bottleneck network with non-dyadic prices (tenths and thirds) and
/// capacities (integers plus tenths), so simplex arithmetic rounds and a
/// warm solve may differ from the cold one in the last bits.
fn non_dyadic_game(n: usize) -> NetworkCarbonGame {
    let links = bottleneck_network()
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
    NetworkCarbonGame::new(Network::new(5, 4, links), tenants(n))
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
        }
    );
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
