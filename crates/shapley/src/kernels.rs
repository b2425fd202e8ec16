//! Public entry points for the lane-parallel inner-loop kernels.
//!
//! The cascade ([`crate::cascade`]) runs its kernels at the frozen
//! canonical parameters — [`CANONICAL_LANES`] accumulator lanes and
//! [`PREFIX_BLOCK`]-sample prefix blocks — because those constants *are*
//! part of the pinned reduction: changing them changes which
//! reassociated sum every consumer (streaming engine, BENCH artifacts)
//! reproduces. This module re-exposes the same kernels with the lane
//! count and block length as const generics, so proptests and Criterion
//! benches can pin the kernels' contracts at *other* parameters — the
//! awkward lengths `0`, `1`, `K−1`, `K`, `K+1`, non-multiples of `K` —
//! without touching the canonical paths.
//!
//! [`level_sums_scalar`] and [`prefix_scalar`] are plain serial
//! reference loops: the cascade never runs them, but the lane kernels
//! are pinned and timed against them.
//!
//! Contracts (verified in `tests/kernel_lanes.rs`):
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

pub use crate::cascade::{combine_lanes, combine_lanes_max, CANONICAL_LANES, PREFIX_BLOCK};

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
/// offsets `≡ j (mod K)`, the lane vector collapses through
/// [`combine_lanes`] / [`combine_lanes_max`], and every level
/// accumulates whole leaf sums left-to-right. At
/// `K = `[`CANONICAL_LANES`] this is exactly the cascade's default
/// kernel.
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
/// beyond that. At `B = `[`PREFIX_BLOCK`] this is exactly the cascade's
/// default kernel.
///
/// # Panics
///
/// Panics if `B == 0`.
pub fn prefix_blocked<const B: usize>(intensity: &[f64], step: f64, prefix: &mut Vec<f64>) {
    fill_prefix_blocked_sized::<B>(intensity, step, prefix);
}
