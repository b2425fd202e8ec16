//! Cost of producing one attribution, before and after the PR's three
//! optimizations:
//!
//! * `exact_serial` / `exact_parallel` — the `Θ(n·2ⁿ)` ground-truth
//!   solver, single-threaded versus fanned out over the deterministic
//!   partitioner (bit-identical results, wall-clock only differs);
//! * `sampling_uncached` / `sampling_cached` — permutation sampling with
//!   and without the coalition-value memo table;
//! * `cascade_per_period` / `cascade_flat` / `cascade_scratch` — the
//!   hierarchical Temporal Shapley pipeline through the old owned
//!   per-period path versus the flat zero-copy engine (fresh and with a
//!   reused [`CascadeScratch`]);
//! * `billing_per_call` / `billing_batch` — workload billing-window
//!   queries one `workload_carbon` call at a time versus the batched
//!   prefix-table entry point;
//! * `kernel_sweep` / `kernel_prefix` — the serial reference loops
//!   versus the canonical lane-parallel cascade kernels
//!   (multi-accumulator sweep, blocked prefix).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fairco2_shapley::cascade::{BillingQuery, CascadeScratch};
use fairco2_shapley::default_threads;
use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::kernels::{
    hierarchy_bounds, level_sums_lanes, level_sums_scalar, prefix_blocked, prefix_scalar,
    CANONICAL_LANES, PREFIX_BLOCK,
};
use fairco2_shapley::sampled::{sampled_shapley, sampled_shapley_cached, SampleConfig};
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn peak_game(n: usize, steps: usize, seed: u64) -> PeakDemandGame {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand = (0..n)
        .map(|_| (0..steps).map(|_| rng.gen_range(0.0..96.0)).collect())
        .collect();
    PeakDemandGame::new(demand)
}

fn bench_exact_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_shapley");
    group.sample_size(10);
    let threads = default_threads();
    for n in [12usize, 16, 20] {
        let game = peak_game(n, 8, n as u64);
        group.bench_with_input(BenchmarkId::new("serial", n), &game, |b, g| {
            b.iter(|| exact_shapley(black_box(g)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &game, |b, g| {
            b.iter(|| parallel_exact_shapley(black_box(g), threads).unwrap())
        });
    }
    group.finish();
}

fn bench_sampling_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.sample_size(10);
    let config = SampleConfig {
        max_permutations: 1024,
        target_stderr: 0.0,
        min_permutations: 1,
        antithetic: true,
    };
    for n in [12usize, 16] {
        let game = peak_game(n, 8, n as u64);
        group.bench_with_input(BenchmarkId::new("uncached", n), &game, |b, g| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| sampled_shapley(black_box(g), &config, &mut rng))
        });
        group.bench_with_input(BenchmarkId::new("cached", n), &game, |b, g| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| sampled_shapley_cached(black_box(g), &config, &mut rng))
        });
    }
    group.finish();
}

/// A diurnal+weekly demand trace on the 5-minute grid, like the
/// `perf_report` temporal section uses (shrunk to keep Criterion's
/// warm-up affordable).
fn diurnal_demand(samples: usize) -> TimeSeries {
    TimeSeries::from_fn(0, 300, samples, |t| {
        let day = t as f64 / 86_400.0;
        let base = 40.0
            + 25.0 * (day * std::f64::consts::TAU).sin().abs()
            + 10.0 * (day / 7.0 * std::f64::consts::TAU).cos();
        if (t / 300) % 97 == 0 {
            0.0
        } else {
            base
        }
    })
    .expect("non-empty series")
}

fn bench_cascade_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cascade");
    group.sample_size(10);
    let hierarchy = TemporalShapley::paper_hierarchy();
    // 30 days of 5-minute samples: one paper-hierarchy root period.
    for samples in [8_640usize, 34_560] {
        let demand = diurnal_demand(samples);
        group.bench_with_input(BenchmarkId::new("per_period", samples), &demand, |b, d| {
            b.iter(|| hierarchy.attribute_per_period(black_box(d), 1.0e6).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("flat", samples), &demand, |b, d| {
            b.iter(|| hierarchy.attribute(black_box(d), 1.0e6).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("scratch", samples), &demand, |b, d| {
            let mut scratch = CascadeScratch::new();
            hierarchy
                .attribute_with_scratch(d, 1.0e6, &mut scratch)
                .unwrap();
            b.iter(|| {
                hierarchy
                    .attribute_with_scratch(black_box(d), 1.0e6, &mut scratch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_billing_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("billing");
    group.sample_size(10);
    let hierarchy = TemporalShapley::paper_hierarchy();
    let demand = diurnal_demand(8_640);
    let attribution = hierarchy.attribute(&demand, 1.0e6).unwrap();
    let horizon = 8_640i64 * 300;
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<BillingQuery> = (0..100_000)
        .map(|_| {
            let t0 = rng.gen_range(-3_600..horizon);
            (t0, t0 + rng.gen_range(0..86_400), rng.gen_range(0.0..64.0))
        })
        .collect();
    group.bench_function("per_call", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&(t0, t1, alloc)| attribution.workload_carbon(t0, t1, alloc))
                .sum::<f64>()
        })
    });
    group.bench_function("batch", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            attribution.workload_carbon_batch_into(black_box(&queries), &mut out);
            out.iter().sum::<f64>()
        })
    });
    group.finish();
}

fn bench_kernel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_sweep");
    group.sample_size(10);
    for samples in [8_640usize, 34_560] {
        let demand = diurnal_demand(samples);
        let values = demand.values().to_vec();
        let bounds = hierarchy_bounds(samples, &[10, 9, 8, 12]).expect("paper splits");
        let mut q = Vec::new();
        let mut peaks = Vec::new();
        group.bench_with_input(BenchmarkId::new("scalar", samples), &values, |b, v| {
            b.iter(|| {
                level_sums_scalar(black_box(v), 300.0, &bounds, &mut q, &mut peaks);
                q.last().map(Vec::len)
            })
        });
        group.bench_with_input(BenchmarkId::new("lane", samples), &values, |b, v| {
            b.iter(|| {
                level_sums_lanes::<CANONICAL_LANES>(
                    black_box(v),
                    300.0,
                    &bounds,
                    &mut q,
                    &mut peaks,
                );
                q.last().map(Vec::len)
            })
        });
    }
    group.finish();
}

fn bench_kernel_prefix(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_prefix");
    group.sample_size(10);
    for samples in [8_640usize, 34_560] {
        let demand = diurnal_demand(samples);
        let values = demand.values().to_vec();
        let mut prefix = Vec::new();
        group.bench_with_input(BenchmarkId::new("scalar", samples), &values, |b, v| {
            b.iter(|| {
                prefix_scalar(black_box(v), 300.0, &mut prefix);
                prefix[v.len()]
            })
        });
        group.bench_with_input(BenchmarkId::new("lane", samples), &values, |b, v| {
            b.iter(|| {
                prefix_blocked::<PREFIX_BLOCK>(black_box(v), 300.0, &mut prefix);
                prefix[v.len()]
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_parallelism,
    bench_sampling_cache,
    bench_cascade_paths,
    bench_billing_queries,
    bench_kernel_sweep,
    bench_kernel_prefix
);
criterion_main!(benches);
