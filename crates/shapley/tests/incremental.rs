//! The streaming engine's contract: every closed window is
//! **bit-identical** to the frozen cascade on the same slice, and the
//! operation count is amortized `O(levels)` per sample — pinned by an
//! exact operation counter, not timing.

use fairco2_shapley::incremental::IncrementalCascade;
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::series::TimeSeries;
use proptest::prelude::*;

/// Deterministic pseudo-random demand: quantized to eighths so peak ties
/// (the hard case for max-fold ordering) occur constantly, with exact
/// dyadic fractions so float error cannot mask ordering bugs.
fn demand(global_index: u64, seed: u64) -> f64 {
    let mut x = global_index
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    ((x >> 16) % 16) as f64 / 8.0
}

fn carbon_for_window(w: u64) -> f64 {
    1000.0 + 125.0 * w as f64
}

/// Streams `windows` windows through the incremental engine and checks
/// each against `TemporalShapley::attribute` on the same slice, bit for
/// bit.
fn assert_stream_matches_frozen(splits: &[usize], leaf_samples: usize, windows: u64, seed: u64) {
    let step = 300;
    let mut engine = IncrementalCascade::new(splits, leaf_samples, step).unwrap();
    let frozen = TemporalShapley::new(splits.to_vec());
    let window_samples = engine.window_samples();

    for w in 0..windows {
        let mut slice = Vec::with_capacity(window_samples);
        for i in 0..window_samples {
            let value = demand(w * window_samples as u64 + i as u64, seed);
            slice.push(value);
            let closed = engine.push(value);
            assert_eq!(closed, i + 1 == window_samples, "window fill bookkeeping");
        }
        let total_carbon = carbon_for_window(w);
        let streamed = engine.close_window(total_carbon);

        let series = TimeSeries::from_values(0, step, slice).unwrap();
        let reference = frozen.attribute(&series, total_carbon).unwrap();

        assert_eq!(
            streamed.carbon_prefix.len(),
            reference.carbon_prefix().len(),
            "prefix length, splits {splits:?} window {w}"
        );
        for (i, (s, r)) in streamed
            .carbon_prefix
            .iter()
            .zip(reference.carbon_prefix())
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "carbon_prefix[{i}] splits {splits:?} window {w}: {s} vs {r}"
            );
        }
        for (i, (s, r)) in streamed
            .leaf_intensity
            .iter()
            .zip(reference.leaf_intensity().values())
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "leaf_intensity[{i}] splits {splits:?} window {w}: {s} vs {r}"
            );
        }
        assert_eq!(
            streamed.stranded_carbon.to_bits(),
            reference.stranded_carbon().to_bits(),
            "stranded carbon, splits {splits:?} window {w}"
        );
        assert_eq!(streamed.total_carbon, total_carbon);
    }
    assert_eq!(engine.windows_closed(), windows);
}

#[test]
fn streamed_windows_match_the_frozen_cascade_bit_for_bit() {
    // Shapes cover: root-only, one split, uneven two-level, deep
    // hierarchy, and wide fan-out (ties in wide peak games), plus the
    // two production shapes: the billing benchmark's daily window (24
    // hours of 12 five-minute leaves) and the `serve` CLI default.
    assert_stream_matches_frozen(&[], 5, 4, 1);
    assert_stream_matches_frozen(&[2], 3, 4, 2);
    assert_stream_matches_frozen(&[3, 2], 2, 5, 3);
    assert_stream_matches_frozen(&[2, 3, 2], 2, 3, 4);
    assert_stream_matches_frozen(&[7], 4, 3, 5);
    assert_stream_matches_frozen(&[2, 2, 2, 2], 1, 3, 6);
    assert_stream_matches_frozen(&[24, 12], 1, 3, 7);
    assert_stream_matches_frozen(&[4, 3], 4, 3, 8);
}

#[test]
fn zero_demand_windows_strand_identically() {
    let splits = [3, 2];
    let step = 300;
    let mut engine = IncrementalCascade::new(&splits, 2, step).unwrap();
    let frozen = TemporalShapley::new(splits.to_vec());
    let n = engine.window_samples();

    // A window that is entirely zero demand, then one with zero-demand
    // leaf periods embedded in live ones.
    let windows = [vec![0.0; n], {
        let mut v = vec![0.0; n];
        v[0] = 2.0;
        v[n - 1] = 4.0;
        v
    }];
    for (w, slice) in windows.iter().enumerate() {
        for &v in slice {
            engine.push(v);
        }
        let streamed = engine.close_window(900.0);
        let series = TimeSeries::from_values(0, step, slice.clone()).unwrap();
        let reference = frozen.attribute(&series, 900.0).unwrap();
        assert_eq!(
            streamed.stranded_carbon.to_bits(),
            reference.stranded_carbon().to_bits(),
            "window {w}"
        );
        for (s, r) in streamed.carbon_prefix.iter().zip(reference.carbon_prefix()) {
            assert_eq!(s.to_bits(), r.to_bits(), "window {w}");
        }
    }
}

/// The complexity pin. Wall-clock proves nothing on shared CI machines;
/// the engine instead counts every primitive float operation. Amortized
/// O(log n): after `k` windows the counter is exactly `k ·` the
/// one-window cost — per-sample work is a constant set by the hierarchy
/// shape, independent of how much history the stream has ingested.
#[test]
fn operation_count_is_amortized_constant_per_sample() {
    let splits = [4, 3, 2];
    let leaf_samples = 5;
    let mut engine = IncrementalCascade::new(&splits, leaf_samples, 300).unwrap();
    let n = engine.window_samples() as u64;

    let mut per_window = Vec::new();
    let mut last = 0u64;
    for w in 0..6u64 {
        for i in 0..n {
            engine.push(demand(w * n + i, 9));
        }
        engine.close_window(carbon_for_window(w));
        per_window.push(engine.ops() - last);
        last = engine.ops();
    }
    // Every window costs exactly the same number of operations…
    for (w, &ops) in per_window.iter().enumerate() {
        assert_eq!(ops, per_window[0], "window {w} cost drifted");
    }
    // …so the per-sample amortized cost never grows with stream length.
    assert_eq!(engine.ops(), per_window[0] * 6);

    // And that constant is O(levels), not O(window): generously bounded
    // by a small multiple of levels plus the per-window close. A push is
    // one op; the close counts 3·levels + 1 ops per sample (an add into
    // its period's integral at every level, a max into its period's peak
    // below the root, the intensity fills, the prefix) and one step
    // scaling per period. With at most one period per sample at each
    // level a window costs at most n·(4·levels + 2) plus the split
    // passes, inside the budget below. With levels = 4 and n = 120 this
    // asserts ~O(log n) per sample, far below the O(n) a
    // rescan-per-sample implementation would show.
    let levels = (splits.len() + 1) as u64;
    let close_cost: u64 = {
        // split passes: per parent m·log2(m)+3m ops, plus 3 ops per
        // sample of the close's fill and prefix work.
        let mut cost = 3 * n + 1;
        let mut parents = 1u64;
        for &m in &splits {
            let m64 = m as u64;
            cost += parents * (m64 * u64::from(m.ilog2().max(1)) + 3 * m64);
            parents *= m64;
        }
        cost
    };
    assert!(
        per_window[0] <= n * (3 * levels + 8) + close_cost,
        "per-window ops {} exceed the O(levels)-per-sample budget {}",
        per_window[0],
        n * (3 * levels + 8) + close_cost
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random hierarchy shape, leaf size, stream length, and demand
    /// seed: the streamed windows always match the frozen cascade bit
    /// for bit.
    #[test]
    fn random_streams_match_the_frozen_cascade(
        shape in 0usize..6,
        leaf_samples in 1usize..5,
        windows in 1u64..4,
        seed in 0u64..(1 << 48),
    ) {
        const SHAPES: [&[usize]; 6] = [&[], &[2], &[3], &[2, 2], &[3, 2], &[2, 4]];
        assert_stream_matches_frozen(SHAPES[shape], leaf_samples, windows, seed);
    }
}

/// Pushing one sample performs O(levels) work in the worst case.
///
/// Re-derived for the buffered engine: a push only appends the sample
/// (one op) and all cascade work happens in `close_window`, so the
/// bound, set when a push still maintained per-level sums, holds with
/// room at every height.
#[test]
fn single_push_cost_is_bounded_by_the_hierarchy_height() {
    let splits = [2, 2, 2];
    let mut engine = IncrementalCascade::new(&splits, 2, 300).unwrap();
    let levels = (splits.len() + 1) as u64;
    let n = engine.window_samples();
    let mut max_push = 0;
    for i in 0..n {
        let before = engine.ops();
        engine.push(1.0 + i as f64);
        max_push = max_push.max(engine.ops() - before);
    }
    assert!(
        max_push <= 3 * levels + 6,
        "one push cost {max_push} exceeds 3·levels+6 = {}",
        3 * levels + 6
    );
}
