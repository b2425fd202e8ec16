//! Stage-level timing probe for the flat Temporal Shapley cascade:
//! where does a year-long attribution spend its time? Run with
//! `cargo run --release -p fairco2-bench --example temporal_probe`.

use std::time::Instant;

use fairco2_shapley::cascade::CascadeScratch;
use fairco2_shapley::kernels::{
    hierarchy_bounds, level_sums_lanes, level_sums_scalar, prefix_blocked, prefix_scalar,
    CANONICAL_LANES, PREFIX_BLOCK,
};
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::TimeSeries;

fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let samples = 105_120usize;
    let demand = TimeSeries::from_fn(0, 300, samples, |t| {
        let day = t as f64 / 86_400.0;
        40.0 + 25.0 * (day * std::f64::consts::TAU).sin().abs()
            + 10.0 * (day / 7.0 * std::f64::consts::TAU).cos()
    })
    .unwrap();
    let h = TemporalShapley::paper_hierarchy();
    let reps = 30;

    let per_period = best(reps, || h.attribute_per_period(&demand, 1.0e6).unwrap());
    let fresh = best(reps, || h.attribute(&demand, 1.0e6).unwrap());
    let mut scratch = CascadeScratch::new();
    h.attribute_with_scratch(&demand, 1.0e6, &mut scratch)
        .unwrap();
    let reuse = best(reps, || {
        h.attribute_with_scratch(&demand, 1.0e6, &mut scratch)
            .unwrap()
    });
    let materialize = best(reps, || scratch.to_attribution());

    // Incremental hierarchies localize the level-solver cost.
    let mut partial = Vec::new();
    for splits in [
        vec![],
        vec![10],
        vec![10, 9],
        vec![10, 9, 8],
        vec![10, 9, 8, 12],
    ] {
        let h = TemporalShapley::new(splits.clone());
        let mut s = CascadeScratch::new();
        h.attribute_with_scratch(&demand, 1.0e6, &mut s).unwrap();
        let t = best(reps, || {
            h.attribute_with_scratch(&demand, 1.0e6, &mut s).unwrap()
        });
        partial.push((splits, t));
    }

    // Stage floors for context: one pass of the raw demand (the fused
    // sweep's read traffic), a full intensity-sized write, and the
    // serial prefix chain.
    let values = demand.values().to_vec();
    let sum_pass = best(reps, || values.iter().sum::<f64>());
    let mut sink = vec![0.0f64; samples];
    let fill_pass = best(reps, || {
        sink.fill(1.0);
        sink[samples / 2]
    });
    let sweep_pass = best(reps, || {
        // Replica of the fused sweep's inner work: 8 accumulator slots
        // plus a peak chain over ~12-sample leaf periods.
        let mut file = [0.0f64; 8];
        let mut peak_sink = 0.0f64;
        for chunk in values.chunks(12) {
            let mut peak = f64::NEG_INFINITY;
            for &v in chunk {
                for slot in file.iter_mut() {
                    *slot += v;
                }
                peak = f64::max(peak, v);
            }
            peak_sink += peak;
        }
        (file, peak_sink)
    });
    let mut out = vec![0.0f64; samples + 1];
    let prefix_pass = best(reps, || {
        let mut acc = 0.0;
        for (slot, v) in out[1..].iter_mut().zip(&values) {
            acc += v * 300.0;
            *slot = acc;
        }
        out[samples]
    });

    // The serial reference loops vs the lane kernels the cascade really
    // runs, so the floors above can be compared with both.
    let bounds = hierarchy_bounds(samples, &[10, 9, 8, 12]).unwrap();
    let mut q = Vec::new();
    let mut peaks = Vec::new();
    let sweep_scalar = best(reps, || {
        level_sums_scalar(&values, 300.0, &bounds, &mut q, &mut peaks);
        q[bounds.len() - 1].len()
    });
    let sweep_lane = best(reps, || {
        level_sums_lanes::<CANONICAL_LANES>(&values, 300.0, &bounds, &mut q, &mut peaks);
        q[bounds.len() - 1].len()
    });
    let mut prefix = Vec::new();
    let kernel_prefix_scalar = best(reps, || {
        prefix_scalar(&values, 300.0, &mut prefix);
        prefix[samples]
    });
    let kernel_prefix_lane = best(reps, || {
        prefix_blocked::<PREFIX_BLOCK>(&values, 300.0, &mut prefix);
        prefix[samples]
    });

    println!("samples            {samples}");
    println!("per-period         {:>9.1} µs", per_period * 1e6);
    println!("flat fresh         {:>9.1} µs", fresh * 1e6);
    println!("flat scratch       {:>9.1} µs", reuse * 1e6);
    println!("to_attribution     {:>9.1} µs", materialize * 1e6);
    for (splits, t) in &partial {
        println!("scratch {:<13} {:>9.1} µs", format!("{splits:?}"), t * 1e6);
    }
    println!("-- floors --");
    println!("one sum pass       {:>9.1} µs", sum_pass * 1e6);
    println!("one fill pass      {:>9.1} µs", fill_pass * 1e6);
    println!("fused sweep        {:>9.1} µs", sweep_pass * 1e6);
    println!("prefix chain       {:>9.1} µs", prefix_pass * 1e6);
    println!("-- kernels (reference vs lane canonical) --");
    println!(
        "level sums         {:>9.1} µs  vs  {:>9.1} µs  ({:.2}x, {CANONICAL_LANES} lanes)",
        sweep_scalar * 1e6,
        sweep_lane * 1e6,
        sweep_scalar / sweep_lane
    );
    println!(
        "leaf prefix        {:>9.1} µs  vs  {:>9.1} µs  ({:.2}x, B={PREFIX_BLOCK})",
        kernel_prefix_scalar * 1e6,
        kernel_prefix_lane * 1e6,
        kernel_prefix_scalar / kernel_prefix_lane
    );
}
