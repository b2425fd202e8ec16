//! The scalability claim behind Fair-CO₂ (paper Section 5.1): exact
//! Shapley enumeration explodes exponentially while Temporal Shapley's
//! closed form and the matching-game moment formula stay polynomial.
//!
//! Benchmarks:
//! * `exact_enumeration/n` — ground-truth solver, `Θ(n·2ⁿ)`;
//! * `peak_closed_form/n` — Temporal Shapley peak game, `O(n log n)`;
//! * `matching_closed_form/n` — colocation game, `O(n²)`;
//! * `permutation_sampling/n` — the generic estimator at a fixed budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fairco2_shapley::exact::exact_shapley;
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::sampled::{sampled_shapley, SampleConfig};
use fairco2_shapley::temporal::peak_shapley;
use fairco2_shapley::MatchingGame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn peak_game(n: usize, steps: usize, seed: u64) -> PeakDemandGame {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand = (0..n)
        .map(|_| (0..steps).map(|_| rng.gen_range(0.0..96.0)).collect())
        .collect();
    PeakDemandGame::new(demand)
}

fn matching_game(n: usize, seed: u64) -> MatchingGame {
    let mut rng = StdRng::seed_from_u64(seed);
    let isolated: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..5.0)).collect();
    let mut pair = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let c = 0.6 * (isolated[i] + isolated[j]) * rng.gen_range(1.0..1.4);
            pair[i][j] = c;
            pair[j][i] = c;
        }
    }
    MatchingGame::new(isolated, pair)
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_enumeration");
    group.sample_size(10);
    for n in [8usize, 12, 16, 18] {
        let game = peak_game(n, 8, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &game, |b, g| {
            b.iter(|| exact_shapley(black_box(g)).unwrap())
        });
    }
    group.finish();
}

fn bench_peak_closed_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("peak_closed_form");
    for n in [8usize, 64, 512, 4096] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let peaks: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &peaks, |b, p| {
            b.iter(|| peak_shapley(black_box(p)))
        });
    }
    group.finish();
}

fn bench_matching_closed_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_closed_form");
    for n in [10usize, 50, 100, 200] {
        let game = matching_game(n, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &game, |b, g| {
            b.iter(|| black_box(g).shapley())
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("permutation_sampling");
    group.sample_size(10);
    let config = SampleConfig {
        max_permutations: 200,
        target_stderr: 0.0,
        min_permutations: 10,
        antithetic: true,
    };
    for n in [16usize, 64] {
        let game = peak_game(n, 8, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &game, |b, g| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| sampled_shapley(black_box(g), &config, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact,
    bench_peak_closed_form,
    bench_matching_closed_form,
    bench_sampling
);
criterion_main!(benches);
