//! The flat, zero-copy Temporal Shapley cascade.
//!
//! This is the one implementation of the hierarchy split:
//! [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
//! runs it over a frozen trace, and the streaming engine in
//! [`crate::incremental`] runs it over each closed window. A *period is
//! an index range* over the one shared demand slice:
//!
//! * **Period bounds** are plain `usize` offsets, derived level by level
//!   with the same remainder rule as
//!   [`TimeSeries::split`](fairco2_trace::TimeSeries::split) — no sample
//!   is ever copied.
//! * **Integrals and peaks** are the left-to-right folds
//!   [`TimeSeries::integral`] and [`TimeSeries::peak`] apply to a
//!   period, run over the period's slice of the demand: a sum from the
//!   first sample to the last, scaled by the step, and a
//!   `fold(NEG_INFINITY, f64::max)`. The leaf carbon prefix is the serial
//!   `acc += intensity · step` chain. The cascade therefore performs the
//!   per-period reference pipeline's float operations in the reference's
//!   order, and its results equal that pipeline's bit for bit.
//! * **Scratch reuse**: all bounds, sums, carbon, intensity, and solver
//!   buffers live in a [`CascadeScratch`]; a repeated
//!   [`attribute_with_scratch`](crate::temporal::TemporalShapley::attribute_with_scratch)
//!   call on same-shaped inputs performs no heap allocation.
//!
//! The billing-query side lives here too: [`IntensityIndex`] wraps the
//! leaf carbon prefix sums and answers `(t0, t1, allocation)` queries in
//! a handful of integer operations, and
//! [`IntensityIndex::carbon_batch_into`] streams millions of queries per
//! second into a reusable output buffer.

use fairco2_trace::series::{SeriesError, TimeSeries};

use crate::temporal::peak_shapley_into;

/// Reusable state for the flat cascade: period bounds, per-period sums
/// and carbon, per-level intensity buffers, the leaf carbon prefix, and
/// the small per-parent solver buffers.
///
/// A scratch is built by
/// [`TemporalShapley::attribute_with_scratch`](crate::temporal::TemporalShapley::attribute_with_scratch)
/// and can be read directly (for allocation-free pipelines) or
/// materialized into a
/// [`TemporalAttribution`](crate::temporal::TemporalAttribution) with
/// [`CascadeScratch::into_attribution`]. Buffers grow to the largest
/// `(series length, hierarchy)` seen and are then reused; a repeated
/// serial attribution performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct CascadeScratch {
    /// Grid of the last attributed series.
    start: i64,
    step: u32,
    samples: usize,
    /// Splits of the last *successful* bounds derivation; together with
    /// `samples` this keys the cached `bounds`, which only depend on
    /// the shape, not the demand values.
    splits_cache: Vec<usize>,
    /// `bounds[l]` holds `periods(l) + 1` sample offsets; period `p` of
    /// level `l` covers `bounds[l][p] .. bounds[l][p + 1]`.
    bounds: Vec<Vec<usize>>,
    /// `q[l][p]`: integral (`Σ value · step`) of period `p` at level `l`.
    q: Vec<Vec<f64>>,
    /// `carbon[l][p]`: carbon assigned to period `p` at level `l`.
    carbon: Vec<Vec<f64>>,
    /// Per-level per-sample intensity signals on the input grid.
    intensity: Vec<Vec<f64>>,
    /// Leaf `intensity · step` prefix sums (`samples + 1` entries).
    prefix: Vec<f64>,
    /// Per-parent buffers of the split pass.
    split: SplitBuffers,
    stranded: f64,
    naive: f64,
    ops: u64,
}

impl CascadeScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of hierarchy levels of the last attribution, including the
    /// root (so `splits.len() + 1`).
    pub fn levels(&self) -> usize {
        self.intensity.len()
    }

    /// Per-sample intensity at `level` (0 = coarsest) on the input grid.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels()`.
    pub fn level_intensity(&self, level: usize) -> &[f64] {
        &self.intensity[level]
    }

    /// The finest-granularity intensity signal.
    ///
    /// # Panics
    ///
    /// Panics if no attribution has been run yet.
    pub fn leaf_intensity(&self) -> &[f64] {
        self.intensity.last().expect("attribution has been run")
    }

    /// Carbon stranded on zero-demand leaf periods.
    pub fn stranded_carbon(&self) -> f64 {
        self.stranded
    }

    /// Leaf `intensity · step` prefix sums (`samples + 1` entries).
    pub fn carbon_prefix(&self) -> &[f64] {
        &self.prefix
    }

    /// Moves the leaf intensity and the carbon prefix out of the
    /// scratch, leaving the next run to refill them, for callers that
    /// keep only the leaf outputs.
    ///
    /// # Panics
    ///
    /// Panics if no attribution has been run yet.
    pub(crate) fn take_leaf_outputs(&mut self) -> (Vec<f64>, Vec<f64>) {
        let leaf = self.intensity.last_mut().expect("attribution has been run");
        (std::mem::take(leaf), std::mem::take(&mut self.prefix))
    }

    /// Consumes the scratch into an owned
    /// [`TemporalAttribution`](crate::temporal::TemporalAttribution),
    /// moving every level buffer and the carbon prefix. This is how
    /// [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
    /// returns its result; a caller that keeps its scratch for reuse
    /// materializes a clone (`scratch.clone().into_attribution()`).
    ///
    /// # Panics
    ///
    /// Panics if no attribution has been run yet.
    pub fn into_attribution(mut self) -> crate::temporal::TemporalAttribution {
        assert!(!self.intensity.is_empty(), "attribution has been run");
        let level_intensity: Vec<TimeSeries> = self
            .intensity
            .drain(..)
            .map(|values| {
                TimeSeries::from_values(self.start, self.step, values)
                    .expect("cascade levels cover a non-empty series")
            })
            .collect();
        crate::temporal::TemporalAttribution::from_parts(
            level_intensity,
            std::mem::take(&mut self.prefix),
            self.stranded,
            self.naive,
            self.ops,
        )
    }
}

/// Resizes `buffers` to `levels` entries without dropping capacity of
/// the retained ones.
fn ensure_levels<T: Default>(buffers: &mut Vec<T>, levels: usize) {
    buffers.truncate(levels);
    while buffers.len() < levels {
        buffers.push(T::default());
    }
}

/// Derives every level's period bounds from the split ratios, honouring
/// the same "earlier chunks get the remainder" rule as
/// [`TimeSeries::split`].
///
/// # Errors
///
/// Returns [`SeriesError::OutOfRange`] if any period would be split into
/// more parts than it has samples — the same error the per-period path
/// reports from `TimeSeries::split`.
fn fill_bounds(
    bounds: &mut Vec<Vec<usize>>,
    samples: usize,
    splits: &[usize],
) -> Result<(), SeriesError> {
    ensure_levels(bounds, splits.len() + 1);
    bounds[0].clear();
    bounds[0].extend([0, samples]);
    for (level, &m) in splits.iter().enumerate() {
        let (parents, children) = {
            let (a, b) = bounds.split_at_mut(level + 1);
            (&a[level], &mut b[0])
        };
        children.clear();
        children.push(0);
        for parent in parents.windows(2) {
            let len = parent[1] - parent[0];
            if m == 0 || m > len {
                return Err(SeriesError::OutOfRange);
            }
            let base = len / m;
            let extra = len % m;
            let mut idx = parent[0];
            for k in 0..m {
                idx += base + usize::from(k < extra);
                children.push(idx);
            }
        }
    }
    Ok(())
}

/// The integral of one period: its samples summed left to right, then
/// scaled by the step — the fold of [`TimeSeries::integral`].
fn period_integral(samples: &[f64], step: f64) -> f64 {
    samples.iter().sum::<f64>() * step
}

/// The peak of one period — the fold of [`TimeSeries::peak`].
fn period_peak(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Fills every level's per-period integrals, `q[level][period]`, each
/// with [`period_integral`] over the period's slice of `values`.
fn fill_level_sums(values: &[f64], step: f64, bounds: &[Vec<usize>], q: &mut Vec<Vec<f64>>) {
    ensure_levels(q, bounds.len());
    for (sums, level_bounds) in q.iter_mut().zip(bounds) {
        sums.clear();
        sums.extend(
            level_bounds
                .windows(2)
                .map(|w| period_integral(&values[w[0]..w[1]], step)),
        );
    }
}

/// The per-parent buffers of [`split_parent`]; each holds at most the
/// largest split ratio's worth of entries.
#[derive(Debug, Clone, Default)]
struct SplitBuffers {
    peaks: Vec<f64>,
    phi: Vec<f64>,
    order: Vec<usize>,
    weights: Vec<f64>,
}

/// Splits one parent period's carbon across its `m` children, exactly
/// as the per-period reference does: the child peaks, the closed-form
/// φ, and the φ·q → q → duration weight cascade. The `m` child carbon
/// shares are **appended** to `shares` (so a serial level loop can
/// accumulate straight into the level buffer); the caller supplies every
/// buffer, so this is allocation-free.
///
/// # Panics
///
/// Panics — with the same message as
/// [`peak_shapley`](crate::temporal::peak_shapley) — if a child peak is
/// negative or non-finite.
fn split_parent(
    values: &[f64],
    child_bounds: &[usize],
    child_q: &[f64],
    parent_carbon: f64,
    step: f64,
    buf: &mut SplitBuffers,
    shares: &mut Vec<f64>,
) {
    let m = child_bounds.len() - 1;
    buf.peaks.clear();
    buf.peaks.extend(
        child_bounds
            .windows(2)
            .map(|w| period_peak(&values[w[0]..w[1]])),
    );
    peak_shapley_into(&buf.peaks, &mut buf.order, &mut buf.phi);
    // φ·q-proportional weights (Eq. 5), with the reference path's exact
    // fallbacks: q-proportional when every φ·q vanishes,
    // duration-proportional when even total demand is zero.
    let weights = &mut buf.weights;
    weights.clear();
    weights.extend(buf.phi.iter().zip(child_q).map(|(&p, &qi)| p * qi));
    let denom: f64 = weights.iter().sum();
    if denom > 0.0 {
        for w in weights.iter_mut() {
            *w /= denom;
        }
    } else {
        let q_total: f64 = child_q.iter().sum();
        if q_total > 0.0 {
            weights.clear();
            weights.extend(child_q.iter().map(|v| v / q_total));
        } else {
            let d_total: f64 = child_bounds
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 * step)
                .sum();
            weights.clear();
            weights.extend(
                child_bounds
                    .windows(2)
                    .map(|w| (w[1] - w[0]) as f64 * step / d_total),
            );
        }
    }
    debug_assert_eq!(weights.len(), m);
    shares.extend(weights.iter().map(|w| parent_carbon * w));
}

/// Expands one level's per-period carbon into the per-sample intensity
/// buffer, accumulating carbon of zero-demand periods into `stranded` —
/// the flat equivalent of the reference `intensity_signal`.
fn fill_intensity(
    bounds: &[usize],
    q: &[f64],
    carbon: &[f64],
    intensity: &mut Vec<f64>,
    samples: usize,
    stranded: &mut f64,
) {
    // No clear-to-zero first: periods tile `[0, samples)`, so every
    // element is written exactly once below (zero-demand periods write
    // the reference's implicit 0.0 explicitly). This halves the write
    // traffic of the hottest buffers.
    intensity.resize(samples, 0.0);
    for ((w, &qp), &cp) in bounds.windows(2).zip(q).zip(carbon) {
        if qp <= 0.0 {
            *stranded += cp;
            intensity[w[0]..w[1]].fill(0.0);
            continue;
        }
        intensity[w[0]..w[1]].fill(cp / qp);
    }
}

/// The leaf carbon prefix `prefix[k] = Σ_{i<k} intensity[i] · step`, one
/// serial chain from `0.0` in index order. The buffer is sized with
/// `resize`, which allocates exactly `samples + 1` slots when it starts
/// empty: [`IncrementalCascade`](crate::incremental::IncrementalCascade)
/// hands it to a closed window that every later epoch keeps.
fn fill_prefix(intensity: &[f64], step: f64, prefix: &mut Vec<f64>) {
    prefix.clear();
    prefix.resize(intensity.len() + 1, 0.0);
    let mut acc = 0.0f64;
    for (slot, &v) in prefix[1..].iter_mut().zip(intensity) {
        acc += v * step;
        *slot = acc;
    }
}

/// Runs the flat cascade for `splits` over the demand `values` sampled
/// every `step` seconds from `start`, filling `scratch`.
///
/// # Errors
///
/// Returns [`SeriesError::OutOfRange`] if the hierarchy splits the
/// series below one sample per period.
pub(crate) fn run_cascade(
    splits: &[usize],
    start: i64,
    step: u32,
    values: &[f64],
    total_carbon: f64,
    scratch: &mut CascadeScratch,
) -> Result<(), SeriesError> {
    let samples = values.len();
    let same_shape =
        scratch.samples == samples && scratch.splits_cache == splits && !scratch.bounds.is_empty();
    scratch.start = start;
    scratch.step = step;
    let step = f64::from(step);
    scratch.samples = samples;
    scratch.stranded = 0.0;
    scratch.naive = 0.0;
    scratch.ops = 0;

    if !same_shape {
        scratch.splits_cache.clear();
        fill_bounds(&mut scratch.bounds, samples, splits)?;
        scratch.splits_cache.extend_from_slice(splits);
    }
    fill_level_sums(values, step, &scratch.bounds, &mut scratch.q);
    let levels = splits.len() + 1;
    ensure_levels(&mut scratch.carbon, levels);
    ensure_levels(&mut scratch.intensity, levels);

    // Root level: all carbon on the single whole-series period.
    scratch.carbon[0].clear();
    scratch.carbon[0].push(total_carbon);
    fill_intensity(
        &scratch.bounds[0],
        &scratch.q[0],
        &scratch.carbon[0],
        &mut scratch.intensity[0],
        samples,
        &mut scratch.stranded,
    );

    for (level, &m) in splits.iter().enumerate() {
        let parents = scratch.bounds[level].len() - 1;
        // The per-parent op counters of the closed form, accumulated in
        // parent order exactly like the reference loop.
        for _ in 0..parents {
            scratch.ops += (m * m.ilog2().max(1) as usize) as u64;
            scratch.naive += (m as f64) * 2f64.powi(m as i32);
        }

        let (parent_carbon, child_carbon) = {
            let (a, b) = scratch.carbon.split_at_mut(level + 1);
            (&a[level], &mut b[0])
        };
        child_carbon.clear();
        let child_bounds = &scratch.bounds[level + 1];
        let child_q = &scratch.q[level + 1];
        for p in 0..parents {
            split_parent(
                values,
                &child_bounds[p * m..(p + 1) * m + 1],
                &child_q[p * m..(p + 1) * m],
                parent_carbon[p],
                step,
                &mut scratch.split,
                child_carbon,
            );
        }

        let mut level_stranded = 0.0;
        fill_intensity(
            child_bounds,
            child_q,
            child_carbon,
            &mut scratch.intensity[level + 1],
            samples,
            &mut level_stranded,
        );
        scratch.stranded = level_stranded;
    }
    fill_prefix(
        scratch.intensity.last().expect("at least the root level"),
        step,
        &mut scratch.prefix,
    );
    Ok(())
}

/// Float operations one [`run_cascade`] over `samples` samples performs
/// under `splits`, counted from the shape alone: per sample, one add into
/// its period's integral at every level, one max into its period's peak
/// below the root, one intensity fill per level, and the prefix's
/// multiply and add; per period, the integral's step scaling; per parent
/// of `m` children, the split pass's `m·log2(m) + 3m`.
pub(crate) fn cascade_ops(samples: usize, splits: &[usize]) -> u64 {
    let levels = splits.len() as u64 + 1;
    let mut ops = (3 * levels + 1) * samples as u64 + 1;
    let mut periods = 1u64;
    for &m in splits {
        let m = m as u64;
        ops += periods * (m * u64::from(m.ilog2().max(1)) + 3 * m);
        periods *= m;
        ops += periods;
    }
    ops
}

/// A billing query: attribute carbon for `allocation` resource units
/// held over `[t0, t1)` (UNIX seconds).
pub type BillingQuery = (i64, i64, f64);

/// Index of the first sample at or after `t` on the grid `(start, step)`
/// holding `samples` samples, clamped to `[0, samples]` — the shared
/// window-to-index conversion of every billing path
/// ([`IntensityIndex`] and the `fairco2-serve` epoch snapshots).
///
/// Uses saturating arithmetic so hostile endpoints near `i64::MIN` /
/// `i64::MAX` clamp instead of wrapping (the wrap panicked in debug
/// builds and returned a wrong charge in release). Saturation is exact
/// here: it only fires when the true ceiling numerator overflows `i64`,
/// and then the saturated quotient still lands on the same side of the
/// clamp — `i64::MAX / step ≥ samples` because a grid whose span
/// exceeded `i64::MAX` seconds could not have a representable end time,
/// and `i64::MIN + (step - 1) < 0` clamps to `0` just like the true
/// (even more negative) value.
///
/// # Panics
///
/// Panics if `step <= 0`.
#[inline]
pub fn first_sample_at_or_after(start: i64, step: i64, samples: usize, t: i64) -> usize {
    assert!(step > 0, "sampling step must be positive");
    let n = samples as i64;
    t.saturating_sub(start)
        .saturating_add(step - 1)
        .div_euclid(step)
        .clamp(0, n) as usize
}

/// An O(1)-per-query index over a leaf carbon-prefix signal — the
/// paper's "once the signal exists, a workload's share is one lookup"
/// claim turned into a batched query engine.
///
/// Borrow one from
/// [`TemporalAttribution::intensity_index`](crate::temporal::TemporalAttribution::intensity_index)
/// and answer millions of `(t0, t1, allocation)` queries per second:
/// each query is two index clamps and one fused multiply-subtract,
/// independent of the series length.
#[derive(Debug, Clone, Copy)]
pub struct IntensityIndex<'a> {
    start: i64,
    step: i64,
    /// `prefix[k]` = carbon one resource unit accrues over the first `k`
    /// samples; `prefix.len() - 1` samples exist.
    prefix: &'a [f64],
}

impl<'a> IntensityIndex<'a> {
    /// Wraps a carbon prefix (`samples + 1` entries) on the grid
    /// `(start, step)`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty or `step == 0`.
    pub fn new(start: i64, step: u32, prefix: &'a [f64]) -> Self {
        assert!(!prefix.is_empty(), "prefix must hold at least one entry");
        assert!(step > 0, "sampling step must be positive");
        Self {
            start,
            step: i64::from(step),
            prefix,
        }
    }

    /// Index of the first sample at or after `t`, clamped to the series;
    /// see [`first_sample_at_or_after`] for the overflow contract.
    #[inline]
    fn first_at_or_after(&self, t: i64) -> usize {
        first_sample_at_or_after(self.start, self.step, self.prefix.len() - 1, t)
    }

    /// Carbon attributed to `allocation` resource units over `[t0, t1)`
    /// (gCO₂e). A sample at time `t` counts when `t ∈ [t0, t1)`, exactly
    /// as the original linear scan selected them; empty, inverted, and
    /// out-of-range windows yield `0.0`.
    #[inline]
    pub fn carbon(&self, t0: i64, t1: i64, allocation: f64) -> f64 {
        let lo = self.first_at_or_after(t0);
        let hi = self.first_at_or_after(t1);
        if hi <= lo {
            return 0.0;
        }
        allocation * (self.prefix[hi] - self.prefix[lo])
    }

    /// Answers a batch of billing queries into `out` (cleared first).
    /// Each answer is bit-identical to the corresponding
    /// [`IntensityIndex::carbon`] call; the output buffer is reusable,
    /// so a steady-state query loop performs no allocation.
    pub fn carbon_batch_into(&self, queries: &[BillingQuery], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(queries.len());
        out.extend(
            queries
                .iter()
                .map(|&(t0, t1, allocation)| self.carbon(t0, t1, allocation)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_split_remainder_rule() {
        let mut bounds = Vec::new();
        fill_bounds(&mut bounds, 7, &[3]).unwrap();
        // TimeSeries::split(3) on 7 samples → lengths [3, 2, 2].
        assert_eq!(bounds[1], vec![0, 3, 5, 7]);
        assert!(fill_bounds(&mut bounds, 2, &[3]).is_err());
    }

    #[test]
    fn reference_sums_match_per_period_integrals() {
        let values: Vec<f64> = (0..23).map(|i| 0.1 + i as f64 * 0.37).collect();
        let series = TimeSeries::from_values(0, 300, values.clone()).unwrap();
        let mut bounds = Vec::new();
        fill_bounds(&mut bounds, 23, &[2, 3]).unwrap();
        let mut q = Vec::new();
        fill_level_sums(&values, 300.0, &bounds, &mut q);
        assert_eq!(q[0][0].to_bits(), series.integral().to_bits());
        for (level, level_bounds) in bounds.iter().enumerate() {
            assert_eq!(q[level].len(), level_bounds.len() - 1, "level {level}");
            for (p, w) in level_bounds.windows(2).enumerate() {
                let part = TimeSeries::from_values(0, 300, values[w[0]..w[1]].to_vec()).unwrap();
                assert_eq!(
                    q[level][p].to_bits(),
                    part.integral().to_bits(),
                    "level {level} period {p}"
                );
                assert_eq!(
                    period_peak(&values[w[0]..w[1]]).to_bits(),
                    part.peak().to_bits(),
                    "level {level} period {p} peak"
                );
            }
        }
    }

    #[test]
    fn prefix_is_the_serial_chain_in_an_exact_buffer() {
        let intensity: Vec<f64> = (0..1000)
            .map(|i| 0.1 + ((i * 13) % 29) as f64 * 0.37)
            .collect();
        let mut prefix = Vec::new();
        fill_prefix(&intensity, 300.0, &mut prefix);
        assert_eq!(prefix.len(), intensity.len() + 1);
        assert_eq!(prefix.capacity(), intensity.len() + 1);
        let mut acc = 0.0;
        assert_eq!(prefix[0].to_bits(), 0.0f64.to_bits());
        for (i, &v) in intensity.iter().enumerate() {
            acc += v * 300.0;
            assert_eq!(prefix[i + 1].to_bits(), acc.to_bits(), "index {}", i + 1);
        }
    }

    #[test]
    fn intensity_index_answers_degenerate_windows() {
        let prefix = [0.0, 1.0, 3.0, 6.0];
        let idx = IntensityIndex::new(0, 300, &prefix);
        assert_eq!(idx.carbon(0, 900, 1.0), 6.0);
        assert_eq!(idx.carbon(300, 300, 1.0), 0.0); // empty
        assert_eq!(idx.carbon(600, 300, 1.0), 0.0); // inverted
        assert_eq!(idx.carbon(-900, -300, 1.0), 0.0); // before the series
        assert_eq!(idx.carbon(900, 1800, 1.0), 0.0); // past the end
        assert_eq!(idx.carbon(0, 900, 2.0), 12.0);
    }

    #[test]
    fn extreme_endpoints_clamp_instead_of_wrapping() {
        // Regression: the old `t - start + step - 1` wrapped (panicking
        // in debug builds) for endpoints near the i64 extremes and
        // charged garbage in release builds. Every window that cannot
        // overlap the series must charge exactly 0.0; windows that
        // cover it must charge the full prefix.
        let prefix = [0.0, 1.0, 3.0, 6.0];
        let idx = IntensityIndex::new(0, 300, &prefix);
        assert_eq!(idx.carbon(i64::MIN, i64::MIN + 1, 1.0), 0.0);
        assert_eq!(idx.carbon(i64::MAX - 1, i64::MAX, 1.0), 0.0);
        assert_eq!(idx.carbon(i64::MIN, -1, 1.0), 0.0);
        assert_eq!(idx.carbon(900, i64::MAX, 1.0), 0.0);
        assert_eq!(idx.carbon(i64::MIN, i64::MAX, 1.0), 6.0);
        assert_eq!(idx.carbon(i64::MIN, 301, 1.0), 3.0);
        assert_eq!(idx.carbon(300, i64::MAX, 1.0), 5.0);

        // A grid ending exactly at i64::MAX: the sample at MAX is
        // excluded by a [.., MAX) window and included by no larger one.
        let late = IntensityIndex::new(i64::MAX - 600, 300, &prefix);
        assert_eq!(late.carbon(i64::MIN, i64::MAX, 1.0), 3.0);
        assert_eq!(late.carbon(i64::MAX - 600, i64::MAX, 1.0), 3.0);
        assert_eq!(late.carbon(i64::MIN, i64::MIN + 4096, 1.0), 0.0);

        // A grid starting at i64::MIN clamps from below.
        let early = IntensityIndex::new(i64::MIN, 300, &prefix);
        assert_eq!(early.carbon(i64::MIN, i64::MAX, 1.0), 6.0);
        assert_eq!(early.carbon(i64::MAX - 4096, i64::MAX, 1.0), 0.0);
    }

    #[test]
    fn batched_queries_survive_extreme_endpoints() {
        let prefix = [0.0, 2.0, 2.5, 7.0];
        let idx = IntensityIndex::new(-300, 300, &prefix);
        let queries: Vec<BillingQuery> = vec![
            (i64::MIN, i64::MAX, 1.0),
            (i64::MIN, i64::MIN + 7, 3.0),
            (i64::MAX - 7, i64::MAX, 3.0),
            (i64::MAX, i64::MIN, 1.0), // inverted across the full span
            (i64::MIN, 0, 2.0),
            (0, i64::MAX, 2.0),
        ];
        let mut out = Vec::new();
        idx.carbon_batch_into(&queries, &mut out);
        let expected = [7.0, 0.0, 0.0, 0.0, 2.0 * 2.0, 2.0 * 5.0];
        assert_eq!(out.len(), expected.len());
        for ((answer, want), &(t0, t1, alloc)) in out.iter().zip(expected).zip(&queries) {
            assert_eq!(*answer, want, "({t0}, {t1}, {alloc})");
            assert_eq!(answer.to_bits(), idx.carbon(t0, t1, alloc).to_bits());
        }
    }

    #[test]
    fn batched_queries_match_per_call_answers() {
        let prefix: Vec<f64> = (0..=48).map(|k| (k * k) as f64 * 0.25).collect();
        let idx = IntensityIndex::new(-600, 300, &prefix);
        let queries: Vec<BillingQuery> = (-5..60)
            .map(|i| (i * 250 - 600, i * 410 - 100, 0.5 + i as f64 * 0.1))
            .collect();
        let mut out = Vec::new();
        idx.carbon_batch_into(&queries, &mut out);
        assert_eq!(out.len(), queries.len());
        for (answer, &(t0, t1, alloc)) in out.iter().zip(&queries) {
            assert_eq!(answer.to_bits(), idx.carbon(t0, t1, alloc).to_bits());
        }
    }
}
