//! `lp`: the LP-valued network carbon game on the leaf/spine benchmark
//! fabric, every coalition value a sparse revised-simplex solve. The only
//! workload that runs the solver.
//!
//! One operation attributes two fresh games: `parallel_exact_shapley`
//! over all `2^exact` coalition LPs, then `parallel_sampled_shapley` with
//! the coalition cache over `permutations` permutations of a
//! `sampled`-tenant game, both on two threads. Items are attributions.
//! Set-up is one such operation on fixed demands.
//!
//! Checks: both attributions satisfy efficiency to 1e-9 (scaled), and the
//! KKT certificate of `kkt` random coalitions of the last exact game
//! shows a duality gap of at most 1e-9 (scaled).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fairco2_bench::netbench::benchmark_network;
use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::{parallel_exact_shapley, shapley_from_table};
use fairco2_shapley::game::Game;
use fairco2_shapley::netgame::{CoalitionValue, Network, NetworkCarbonGame};
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::SampleConfig;

use crate::measure::{self, Tally};
use crate::trace::Spans;
use crate::{mix, Ctx, Detail, Run, Traced, SETUP_REPEATS, THREADS};

/// Injection leaves and nodes of the benchmark fabric.
const LEAVES: u64 = 5;
const NODES: usize = 8;
/// Coalitions per traced lattice batch.
const COALITION_BATCH: usize = 256;

/// Wall time of one traced round (all its passes) on the two-core
/// machine the benchmark was calibrated on; a traced run does
/// `seconds / ROUND_S` rounds, a fixed count, so its per-layer counts
/// repeat exactly at a fixed seed.
const ROUND_S: f64 = 0.37;

/// Input streams derived from the run seed.
const EXACT: u64 = 41;
const SAMPLED: u64 = 42;
const PERMUTATIONS: u64 = 43;
const KKT: u64 = 44;
const TRACE: u64 = 45;

/// Fixed seed of the set-up operation.
const WARMUP_SEED: u64 = 0x1B;

struct Sizes {
    /// Tenants of the exactly attributed game.
    exact: usize,
    /// Tenants of the sampled game.
    sampled: usize,
    /// Permutations of the sampled game.
    permutations: usize,
    /// Coalitions whose KKT certificate is checked.
    kkt: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            exact: 5,
            sampled: 8,
            permutations: 32,
            kkt: 16,
        }
    } else {
        Sizes {
            exact: 11,
            sampled: 24,
            permutations: 256,
            kkt: 256,
        }
    }
}

/// Per-tenant traffic: small integer injections at two leaves, so every
/// LP stays in exact dyadic arithmetic and coalitions contend for the
/// shared spines.
fn demands(seed: u64, tenants: usize) -> Vec<Vec<f64>> {
    (0..tenants as u64)
        .map(|t| {
            let h = mix(seed ^ mix(t));
            let mut d = vec![0.0f64; NODES];
            d[(h % LEAVES) as usize] += (1 + (h >> 8) % 3) as f64;
            d[((h >> 16) % LEAVES) as usize] += (1 + (h >> 24) % 2) as f64;
            d
        })
        .collect()
}

fn sampling(permutations: usize, threads: usize) -> ParallelConfig {
    ParallelConfig {
        sample: SampleConfig {
            max_permutations: permutations,
            target_stderr: 0.0,
            min_permutations: 1,
            antithetic: true,
        },
        batch_permutations: 64,
        round_batches: 8,
        threads,
        coalition_cache: true,
    }
}

/// Whether `phi` sums to `v(N) − v(∅)` to 1e-9 of the game's scale.
fn efficient(game: &NetworkCarbonGame, phi: &[f64]) -> bool {
    let n = game.player_count();
    let total = game.value(&Coalition::grand(n)) - game.value(&Coalition::empty(n));
    phi.len() == n && measure::close(phi.iter().sum(), total, 1e-9, 1.0)
}

/// Times of the two halves of an operation.
#[derive(Default)]
struct Halves {
    exact_s: Vec<f64>,
    sampled_s: Vec<f64>,
}

/// One operation: both attributions with their efficiency checks.
/// Returns the exact game for the certificate check.
fn operation(
    network: &Network,
    s: &Sizes,
    seeds: [u64; 3],
    threads: usize,
    corrupt: bool,
    halves: &mut Halves,
    tally: &mut Tally,
) -> NetworkCarbonGame {
    let game = NetworkCarbonGame::new(network.clone(), demands(seeds[0], s.exact));
    let t = Instant::now();
    let phi = parallel_exact_shapley(&game, threads);
    halves.exact_s.push(t.elapsed().as_secs_f64());
    match phi {
        Ok(mut phi) => {
            if corrupt {
                phi[0] += 1.0;
            }
            tally.check(efficient(&game, &phi), || {
                format!("exact game {:#x}: efficiency violated", seeds[0])
            });
        }
        Err(e) => tally.fail(1, format!("exact game {:#x}: {e}", seeds[0])),
    }
    let sampled = NetworkCarbonGame::new(network.clone(), demands(seeds[1], s.sampled));
    let t = Instant::now();
    let estimate = parallel_sampled_shapley(&sampled, &sampling(s.permutations, threads), seeds[2]);
    halves.sampled_s.push(t.elapsed().as_secs_f64());
    tally.check(efficient(&sampled, &estimate.estimate.values), || {
        format!("sampled game {:#x}: efficiency violated", seeds[1])
    });
    game
}

/// Checks the KKT certificate of `count` random coalitions of `game`.
fn certify(
    game: &NetworkCarbonGame,
    seed: u64,
    count: usize,
    corrupt: bool,
    tally: &mut Tally,
) -> (f64, u64) {
    let n = game.player_count();
    let mut max_gap = 0.0f64;
    let mut unroutable = 0u64;
    for k in 0..count as u64 {
        let mask = mix(seed ^ mix(k)) & ((1u64 << n) - 1);
        let coalition = Coalition::from_mask(n, mask);
        let CoalitionValue::Routed(sol) = game.evaluate(&coalition) else {
            unroutable += 1;
            tally.ok(1);
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| game.certified_gap(&coalition, &sol))) {
            Ok(gap) => {
                let gap = if corrupt && k == 0 {
                    gap.abs() + 1.0
                } else {
                    gap.abs()
                };
                max_gap = max_gap.max(gap);
                tally.check(gap <= 1e-9 * (1.0 + sol.objective.abs()), || {
                    format!("coalition {mask:#b}: duality gap {gap}")
                });
            }
            Err(payload) => tally.fail(
                1,
                format!("coalition {mask:#b}: {}", measure::panic_text(&*payload)),
            ),
        }
    }
    (max_gap, unroutable)
}

/// Untraced run.
pub fn run(ctx: &Ctx) -> Run {
    let s = sizes(ctx);
    let network = benchmark_network();
    let mut tally = Tally::default();
    let (setup_s, _) = measure::repeat_setup(SETUP_REPEATS, || {
        let seeds = [WARMUP_SEED, WARMUP_SEED + 1, WARMUP_SEED + 2];
        operation(
            &network,
            &s,
            seeds,
            THREADS,
            false,
            &mut Halves::default(),
            &mut Tally::default(),
        )
    });
    let mut halves = Halves::default();
    let mut last = None;
    let ops = measure::run_for(ctx.seconds, &mut tally, |op, tally| {
        let i = op as u64;
        let seeds = [
            ctx.seed_for(EXACT, i),
            ctx.seed_for(SAMPLED, i),
            ctx.seed_for(PERMUTATIONS, i),
        ];
        last = Some(operation(
            &network,
            &s,
            seeds,
            THREADS,
            false,
            &mut halves,
            tally,
        ));
        2
    });
    let (max_gap, unroutable) = match &last {
        Some(game) => certify(game, ctx.seed_for(KKT, 0), s.kkt, ctx.corrupt, &mut tally),
        None => (f64::NAN, 0),
    };
    let details = vec![
        Detail::new(
            "exact_shapley_s",
            measure::median(&halves.exact_s),
            "s",
            format!(
                "median of {}; {} tenants, {} coalition LPs, {} threads",
                halves.exact_s.len(),
                s.exact,
                1u64 << s.exact,
                THREADS
            ),
        ),
        Detail::new(
            "sampled_shapley_s",
            measure::median(&halves.sampled_s),
            "s",
            format!(
                "median of {}; {} tenants, {} permutations, coalition cache",
                halves.sampled_s.len(),
                s.sampled,
                s.permutations
            ),
        ),
        Detail::new(
            "max_duality_gap",
            max_gap,
            "ratio",
            format!("{} certified coalitions, {unroutable} unroutable", s.kkt),
        ),
    ];
    Run {
        setup_s,
        ops,
        tally,
        details,
    }
}

/// Counters of one replay.
#[derive(Default)]
struct ReplayCounts {
    cold_solves: u64,
    cold_iterations: u64,
    unroutable: u64,
    warm_iterations: u64,
    warm_attempts: u64,
    warm_hits: u64,
    sampled_evals: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

/// Replays one operation on this thread: the exact attribution as
/// `exact_shapley` composes it (one cold LP per coalition, batched, then
/// the table scatter), the warm-started lattice fill of the same game,
/// and the sampled attribution.
fn replay(
    game: &NetworkCarbonGame,
    sampled: &NetworkCarbonGame,
    cfg: &ParallelConfig,
    seed: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> ReplayCounts {
    let mut c = ReplayCounts::default();
    let n = game.player_count();
    let size = 1usize << n;
    let mut values = vec![0.0f64; size];
    let mut coalition = Coalition::empty(n);
    for (b, lo) in (0..size).step_by(COALITION_BATCH).enumerate() {
        let root = spans.begin("harness.coalition_batch", b as u64);
        spans.span("solver.cold_lattice", b as u64, || {
            for (mask, slot) in values.iter_mut().enumerate().skip(lo).take(COALITION_BATCH) {
                coalition.set_mask(mask as u64);
                let value = game.evaluate(&coalition);
                c.cold_iterations += value.stats().map_or(0, |st| st.iterations);
                c.unroutable += u64::from(matches!(value, CoalitionValue::Unroutable { .. }));
                *slot = value.carbon();
            }
        });
        spans.end(root);
    }
    c.cold_solves += size as u64;
    let phi = spans.span("shapley.exact_scatter", 0, || {
        shapley_from_table(n, &values)
    });
    tally.check(efficient(game, &phi), || {
        "replayed exact attribution violates efficiency".into()
    });
    let (warm_values, warm) = spans.span("solver.warm_lattice", 0, || game.fill_lattice_warm());
    tally.check(warm_values.len() == size, || {
        "warm lattice has the wrong size".into()
    });
    c.warm_iterations += warm.iterations;
    c.warm_attempts += warm.warm_attempts;
    c.warm_hits += warm.warm_hits;
    let estimate = spans.span("shapley.sampled", 0, || {
        parallel_sampled_shapley(sampled, cfg, seed)
    });
    tally.check(efficient(sampled, &estimate.estimate.values), || {
        "replayed sampled attribution violates efficiency".into()
    });
    let counters = estimate.estimate.counters;
    c.sampled_evals += counters.coalition_evals;
    c.cache_hits += counters.cache_hits;
    c.cache_lookups += counters.cache_hits + counters.cache_misses;
    c
}

/// Traced run: `seconds / ROUND_S` rounds of two fresh games — the
/// library's attribution on one thread, then the replay untraced and
/// traced (alternating which goes first).
pub fn trace(ctx: &Ctx) -> Traced {
    let s = sizes(ctx);
    let network = benchmark_network();
    let cfg = sampling(s.permutations, 1);
    let mut out = Traced::default();
    let mut counts = ReplayCounts::default();
    for round in 0..ctx.rounds(ROUND_S) {
        let game = NetworkCarbonGame::new(
            network.clone(),
            demands(ctx.seed_for(TRACE, 3 * round), s.exact),
        );
        let sampled = NetworkCarbonGame::new(
            network.clone(),
            demands(ctx.seed_for(TRACE, 3 * round + 1), s.sampled),
        );
        let seed = ctx.seed_for(TRACE, 3 * round + 2);
        let t = Instant::now();
        let library = parallel_exact_shapley(&game, 1);
        parallel_sampled_shapley(&sampled, &cfg, seed);
        out.library_s += t.elapsed().as_secs_f64();
        out.tally.check(library.is_ok(), || {
            "library exact attribution failed".into()
        });
        for traced in [round % 2 == 1, round % 2 == 0] {
            out.spans.set_enabled(traced);
            let mut tally = Tally::default();
            let t = Instant::now();
            let c = replay(&game, &sampled, &cfg, seed, &mut out.spans, &mut tally);
            out.book(traced, t.elapsed().as_secs_f64(), tally);
            if traced {
                counts.cold_solves += c.cold_solves;
                counts.cold_iterations += c.cold_iterations;
                counts.unroutable += c.unroutable;
                counts.warm_iterations += c.warm_iterations;
                counts.warm_attempts += c.warm_attempts;
                counts.warm_hits += c.warm_hits;
                counts.sampled_evals += c.sampled_evals;
                counts.cache_hits += c.cache_hits;
                counts.cache_lookups += c.cache_lookups;
            }
        }
    }
    out.counts.extend([
        ("solver.cold_solves", counts.cold_solves as f64),
        ("shapley.exact_coalitions", counts.cold_solves as f64),
        ("solver.cold_iterations", counts.cold_iterations as f64),
        ("solver.unroutable", counts.unroutable as f64),
        ("solver.warm_iterations", counts.warm_iterations as f64),
        (
            "solver.warm_hit_ratio",
            counts.warm_hits as f64 / counts.warm_attempts.max(1) as f64,
        ),
        ("shapley.sampled_evals", counts.sampled_evals as f64),
        (
            "shapley.sampled_cache_hit_ratio",
            counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64,
        ),
    ]);
    out
}
