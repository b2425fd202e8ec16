//! Test-only entry points for the lane-parallel inner-loop kernels, and
//! the property pins that hold them to serial reference loops.
//!
//! The cascade ([`crate::cascade`]) runs its kernels at fixed
//! parameters — four accumulator lanes and eight-sample prefix blocks —
//! because those constants are part of the result: changing them
//! changes which reassociated sum every attribution, and every persisted
//! service window, carries. This module re-exposes the same kernels
//! with the lane count and block length as const generics, so the
//! proptests below can pin the kernels' contracts at *other* parameters
//! — the awkward lengths `0`, `1`, `K−1`, `K`, `K+1`, non-multiples of
//! `K` — without touching the canonical paths.
//!
//! [`level_sums_scalar`] and [`prefix_scalar`] are plain serial
//! reference loops: the cascade never runs them, but the lane kernels
//! are pinned against them.
//!
//! Contracts (verified in [`tests`]):
//!
//! * [`level_sums_lanes`] produces **bit-identical leaf peaks** to
//!   [`level_sums_scalar`] at every `K` (`max` is associative and
//!   operand-selecting), and per-period sums within the documented
//!   ≤ O(n·ε) relative reassociation bound;
//! * [`prefix_blocked`] is **bit-identical** to [`prefix_scalar`]
//!   whenever the signal fits one block (`n ≤ B`), and within one
//!   `local + carry` reassociation per element beyond that;
//! * both lane kernels are *deterministic in the data length alone* —
//!   lane assignment and combine order never depend on the values.

use crate::cascade::{fill_bounds, fill_prefix_blocked_sized, lane_sweep};
use fairco2_trace::series::SeriesError;

/// Derives every hierarchy level's period bounds for `samples` samples
/// under `splits`, using the same "earlier chunks get the remainder"
/// rule as `TimeSeries::split`. `bounds[level]` holds `parts + 1` sample
/// indices; level 0 is the whole window, the last level the leaves.
///
/// # Errors
///
/// Returns [`SeriesError::OutOfRange`] if any period would be split into
/// more parts than it has samples.
pub fn hierarchy_bounds(samples: usize, splits: &[usize]) -> Result<Vec<Vec<usize>>, SeriesError> {
    let mut bounds = Vec::new();
    fill_bounds(&mut bounds, samples, splits)?;
    Ok(bounds)
}

/// The serial reference sweep: per-period left-to-right sums and peaks,
/// one dependency chain per level. `q[level]` receives each of the
/// level's period integrals — `Σ value` folded from `0.0` over exactly
/// the period's samples, then scaled by `step`, which is bit-identical
/// to `TimeSeries::integral` on the period — and `leaf_peaks` each leaf
/// period's maximum. Buffers are cleared and refilled; `bounds` comes
/// from [`hierarchy_bounds`].
pub fn level_sums_scalar(
    values: &[f64],
    step: f64,
    bounds: &[Vec<usize>],
    q: &mut Vec<Vec<f64>>,
    leaf_peaks: &mut Vec<f64>,
) {
    let levels = reset_level_sums(bounds, q, leaf_peaks);
    let mut acc = vec![0.0f64; levels];
    let mut next = vec![1usize; levels]; // index into bounds[l] of the next boundary
    let leaf_bounds = bounds.last().expect("at least the root level");
    for w in leaf_bounds.windows(2) {
        let mut peak = f64::NEG_INFINITY;
        for &v in &values[w[0]..w[1]] {
            for a in acc.iter_mut() {
                *a += v;
            }
            peak = f64::max(peak, v);
        }
        leaf_peaks.push(peak);
        for level in 0..levels {
            if bounds[level][next[level]] == w[1] {
                q[level].push(acc[level] * step);
                acc[level] = 0.0;
                next[level] += 1;
            }
        }
    }
}

/// Gives `q` one cleared vector per level and clears `leaf_peaks`;
/// returns the level count.
fn reset_level_sums(
    bounds: &[Vec<usize>],
    q: &mut Vec<Vec<f64>>,
    leaf_peaks: &mut Vec<f64>,
) -> usize {
    let levels = bounds.len();
    while q.len() < levels {
        q.push(Vec::new());
    }
    for sums in q.iter_mut() {
        sums.clear();
    }
    leaf_peaks.clear();
    levels
}

/// The lane-parallel sweep at an arbitrary power-of-two lane count `K`:
/// within each leaf, lane `j` accumulates the samples at within-leaf
/// offsets `≡ j (mod K)`, the lane vector collapses through the fixed
/// pair trees of the cascade's lane collapse (sum and `max`), and every
/// level accumulates whole leaf sums left-to-right. At `K = 4` this is
/// exactly the cascade's kernel.
///
/// # Panics
///
/// Panics if `K` is not a power of two.
pub fn level_sums_lanes<const K: usize>(
    values: &[f64],
    step: f64,
    bounds: &[Vec<usize>],
    q: &mut Vec<Vec<f64>>,
    leaf_peaks: &mut Vec<f64>,
) {
    let levels = reset_level_sums(bounds, q, leaf_peaks);
    let mut acc = vec![0.0f64; levels];
    let mut next = vec![1usize; levels];
    lane_sweep::<K>(values, step, bounds, q, &mut acc, &mut next, leaf_peaks);
}

/// The serial reference prefix: one chain
/// `prefix[k] = prefix[k−1] + intensity[k−1] · step` over the whole
/// signal, `prefix[0] = 0` — the accumulation order of
/// `TemporalShapley::attribute_per_period`'s carbon prefix.
pub fn prefix_scalar(intensity: &[f64], step: f64, prefix: &mut Vec<f64>) {
    if prefix.len() != intensity.len() + 1 {
        prefix.clear();
        prefix.resize(intensity.len() + 1, 0.0);
    }
    prefix[0] = 0.0;
    let mut acc = 0.0f64;
    for (slot, &v) in prefix[1..].iter_mut().zip(intensity) {
        acc += v * step;
        *slot = acc;
    }
}

/// The blocked prefix at an arbitrary block length `B`: a serial local
/// prefix chain restarted at every multiple of `B`, with each block's
/// running carry folded in at the store (`out = local + carry`) in a
/// single pass over the signal. Bit-identical to [`prefix_scalar`] when
/// `intensity.len() ≤ B`; one `local + carry` reassociation per element
/// beyond that. At `B = 8` this is exactly the cascade's kernel.
///
/// # Panics
///
/// Panics if `B == 0`.
pub fn prefix_blocked<const B: usize>(intensity: &[f64], step: f64, prefix: &mut Vec<f64>) {
    fill_prefix_blocked_sized::<B>(intensity, step, prefix);
}

/// Property pins for the lane-parallel kernels against the serial
/// reference loops, at several lane counts / block lengths and at the
/// awkward data lengths (0, 1, K−1, K, K+1, non-multiples of K).
///
/// Two kinds of pin, matching the kernels' documented contracts:
///
/// * **exact-bit** where the lane split preserves operand selection or
///   operand order — leaf peaks (`max` is associative and returns one of
///   its operands) and the blocked prefix within one block;
/// * **≤ O(n·ε) relative closeness** where the split reassociates a sum
///   — per-period lane sums versus the serial chain, and the blocked
///   prefix across block boundaries (one `local + carry` reassociation
///   per element). The asserted tolerance of `1e-11` relative is ~two
///   orders looser than the worst `n·ε ≈ 2e-13` bound at the lengths
///   generated here, so the tests stay deterministic without masking a
///   wrong-partition bug (any mis-assigned sample shifts a sum by a
///   *relative* amount far above 1e-11 for the value ranges drawn).
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Demand values with mixed magnitudes and signs-of-error exposure:
    /// dyadic quanta scaled across several decades so reassociation shows up
    /// in the last ulps but any partition bug shows up at full magnitude.
    fn demand_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(
            (0u32..4000u32, 0u32..3u32).prop_map(|(q, scale)| {
                let base = q as f64 / 8.0;
                base * [1.0, 1e3, 1e-3][scale as usize]
            }),
            len..=len,
        )
    }

    /// Awkward lengths around a lane count / block length `k`, plus
    /// non-multiples.
    fn awkward_lengths(k: usize) -> Vec<usize> {
        let mut lens = vec![0, 1, k.saturating_sub(1), k, k + 1, 2 * k + 3, 7 * k + 5];
        lens.dedup();
        lens
    }

    fn assert_close(label: &str, a: f64, b: f64) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() <= 1e-11 * scale,
            "{label}: scalar {a} vs lane {b}"
        );
    }

    /// Runs both sweeps on one flat (root-only) leaf of every awkward length
    /// and checks the pins. Exercised at K ∈ {2, 4, 8} below.
    fn check_sweep_flat<const K: usize>(values: &[f64]) {
        let bounds = hierarchy_bounds(values.len(), &[]).unwrap();
        let step = 300.0;
        let (mut q_s, mut q_l) = (Vec::new(), Vec::new());
        let (mut peaks_s, mut peaks_l) = (Vec::new(), Vec::new());
        level_sums_scalar(values, step, &bounds, &mut q_s, &mut peaks_s);
        level_sums_lanes::<K>(values, step, &bounds, &mut q_l, &mut peaks_l);
        assert_eq!(q_s[0].len(), q_l[0].len());
        for (i, (s, l)) in q_s[0].iter().zip(&q_l[0]).enumerate() {
            assert_close(&format!("K={K} n={} q[{i}]", values.len()), *s, *l);
        }
        assert_eq!(peaks_s.len(), peaks_l.len());
        for (i, (s, l)) in peaks_s.iter().zip(&peaks_l).enumerate() {
            assert_eq!(
                s.to_bits(),
                l.to_bits(),
                "K={K} n={} peak[{i}]: {s} vs {l}",
                values.len()
            );
        }
    }

    /// Same pins on a two-level hierarchy whose uneven split puts leaves at
    /// lengths both above and below `K` (the remainder rule gives earlier
    /// leaves the extra samples).
    fn check_sweep_split<const K: usize>(values: &[f64], parts: usize) {
        if values.len() < parts || parts == 0 {
            return;
        }
        let bounds = hierarchy_bounds(values.len(), &[parts]).unwrap();
        let step = 300.0;
        let (mut q_s, mut q_l) = (Vec::new(), Vec::new());
        let (mut peaks_s, mut peaks_l) = (Vec::new(), Vec::new());
        level_sums_scalar(values, step, &bounds, &mut q_s, &mut peaks_s);
        level_sums_lanes::<K>(values, step, &bounds, &mut q_l, &mut peaks_l);
        for level in 0..2 {
            for (i, (s, l)) in q_s[level].iter().zip(&q_l[level]).enumerate() {
                assert_close(&format!("K={K} split={parts} q[{level}][{i}]"), *s, *l);
            }
        }
        for (i, (s, l)) in peaks_s.iter().zip(&peaks_l).enumerate() {
            assert_eq!(s.to_bits(), l.to_bits(), "K={K} split={parts} peak[{i}]");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn lane_sweep_matches_scalar_at_awkward_lengths(seed_len in 0usize..64) {
            for k in [2usize, 4, 8] {
                for n in awkward_lengths(k) {
                    let n = n + seed_len % 3; // jitter off the exact boundary too
                    let values: Vec<f64> = (0..n)
                        .map(|i| ((i * 37 + seed_len * 101) % 4001) as f64 / 8.0)
                        .collect();
                    match k {
                        2 => check_sweep_flat::<2>(&values),
                        4 => check_sweep_flat::<4>(&values),
                        _ => check_sweep_flat::<8>(&values),
                    }
                }
            }
        }

        #[test]
        fn lane_sweep_matches_scalar_on_random_hierarchies(
            values in demand_vec(97),
            parts in 1usize..12,
        ) {
            check_sweep_split::<2>(&values, parts);
            check_sweep_split::<4>(&values, parts);
            check_sweep_split::<8>(&values, parts);
        }

        #[test]
        fn blocked_prefix_is_bit_identical_within_one_block(
            values in demand_vec(16),
        ) {
            // n = 16 ≤ B for every B tried: a single block, no carry, and
            // the local chain IS the scalar chain.
            let step = 300.0;
            let (mut scalar, mut blocked) = (Vec::new(), Vec::new());
            prefix_scalar(&values, step, &mut scalar);
            for b in [16usize, 1024] {
                match b {
                    16 => prefix_blocked::<16>(&values, step, &mut blocked),
                    _ => prefix_blocked::<1024>(&values, step, &mut blocked),
                }
                prop_assert_eq!(scalar.len(), blocked.len());
                for (i, (s, l)) in scalar.iter().zip(&blocked).enumerate() {
                    prop_assert_eq!(s.to_bits(), l.to_bits(), "B={} prefix[{}]", b, i);
                }
            }
        }

        #[test]
        fn blocked_prefix_stays_close_across_blocks(seed in 0u64..1000) {
            let step = 300.0;
            for b in [4usize, 16] {
                for n in awkward_lengths(b).into_iter().chain([3 * b + 7]) {
                    let values: Vec<f64> = (0..n)
                        .map(|i| ((i as u64 * 31 + seed * 7) % 4001) as f64 / 8.0)
                        .collect();
                    let (mut scalar, mut blocked) = (Vec::new(), Vec::new());
                    prefix_scalar(&values, step, &mut scalar);
                    match b {
                        4 => prefix_blocked::<4>(&values, step, &mut blocked),
                        _ => prefix_blocked::<16>(&values, step, &mut blocked),
                    }
                    prop_assert_eq!(scalar.len(), blocked.len());
                    for (i, (s, l)) in scalar.iter().zip(&blocked).enumerate() {
                        let scale = s.abs().max(l.abs()).max(f64::MIN_POSITIVE);
                        prop_assert!(
                            (s - l).abs() <= 1e-11 * scale,
                            "B={} n={} prefix[{}]: {} vs {}", b, n, i, s, l
                        );
                        // Zero stays exactly zero: an all-zero prefix head
                        // must not pick up carry noise.
                        if *s == 0.0 {
                            prop_assert_eq!(l.to_bits(), 0.0f64.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// Non-proptest edge pins: the empty signal and the single sample, at
    /// every kernel parameter, with exact expectations.
    #[test]
    fn empty_and_singleton_signals_are_exact() {
        let step = 300.0;
        for values in [vec![], vec![2.5f64]] {
            let bounds = hierarchy_bounds(values.len(), &[]).unwrap();
            let (mut q_s, mut q_l) = (Vec::new(), Vec::new());
            let (mut peaks_s, mut peaks_l) = (Vec::new(), Vec::new());
            level_sums_scalar(&values, step, &bounds, &mut q_s, &mut peaks_s);
            level_sums_lanes::<4>(&values, step, &bounds, &mut q_l, &mut peaks_l);
            // One root period either way; empty → sum 0, peak −∞ on both.
            assert_eq!(q_s[0].len(), 1);
            assert_eq!(q_s[0][0].to_bits(), q_l[0][0].to_bits());
            assert_eq!(peaks_s[0].to_bits(), peaks_l[0].to_bits());

            let (mut p_s, mut p_l) = (Vec::new(), Vec::new());
            prefix_scalar(&values, step, &mut p_s);
            prefix_blocked::<4>(&values, step, &mut p_l);
            assert_eq!(p_s.len(), values.len() + 1);
            for (a, b) in p_s.iter().zip(&p_l) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
