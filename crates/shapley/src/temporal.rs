//! Temporal Shapley: the scalable core of Fair-CO₂ (paper Section 5.1).
//!
//! Instead of casting each *workload* as a player (exponential), Temporal
//! Shapley casts each *time period* as a player in a peak game: the payoff
//! of a set of periods is the maximum of their peak demands (Eqs. 2–3),
//! because peak demand is the minimum capacity that must be provisioned.
//! Carbon is then attributed to periods in proportion to their Shapley
//! value times their resource-time (Eq. 5), and each period is split
//! recursively for a finer signal (Figure 4's 30 d → 3 d → 8 h → 1 h →
//! 5 min cascade).
//!
//! # The closed form
//!
//! The paper derives a sorted-order formula (Eq. 7) that avoids subset
//! enumeration. We implement the equivalent *level decomposition*: sort
//! peaks descending, `P₁ ≥ … ≥ P_n`, append `P_{n+1} = 0`; then
//!
//! ```text
//! max_{i∈S} P_i = Σ_k (P_k − P_{k+1}) · 1[S ∩ {1..k} ≠ ∅]
//! ```
//!
//! and the Shapley value of the indicator game `1[S∩T≠∅]` is `1/|T|` for
//! members of `T`. By linearity,
//!
//! ```text
//! φ_i = Σ_{k≥i} (P_k − P_{k+1}) / k
//! ```
//!
//! — exact, `O(n log n)`, and identical to enumerating Eq. 1 (property
//! tests in this module verify that).
//!
//! # The flat cascade
//!
//! [`TemporalShapley::attribute`] runs the hierarchy through the
//! zero-copy engine in [`crate::cascade`]: periods are index ranges over
//! the one shared demand buffer, peaks come from a sparse-table range
//! max, integrals from a fused per-level sweep, and every buffer lives
//! in a reusable [`CascadeScratch`]. The original per-period pipeline is
//! retained verbatim as [`TemporalShapley::attribute_per_period`]; the
//! flat engine's lane-parallel kernels are closeness-pinned against it
//! (bit-pinned on the weight-fallback cases) by property tests in
//! `tests/temporal_cascade.rs`.

use serde::{Deserialize, Serialize};

use fairco2_trace::series::{SeriesError, TimeSeries};

use crate::cascade::{run_cascade, BillingQuery, CascadeScratch, IntensityIndex};
use crate::exact::exact_shapley;
use crate::game::PeakDemandGame;

/// Exact Shapley values of the peak game `v(S) = max_{i∈S} peaks[i]`.
///
/// Returns one value per input peak; values are non-negative, sum to the
/// maximum peak (efficiency), and tie-break symmetrically (equal peaks get
/// equal values).
///
/// # Panics
///
/// Panics if `peaks` is empty or contains a negative or non-finite value —
/// peak resource demand is a non-negative physical quantity.
pub fn peak_shapley(peaks: &[f64]) -> Vec<f64> {
    let mut order = Vec::with_capacity(peaks.len());
    let mut phi = Vec::with_capacity(peaks.len());
    peak_shapley_into(peaks, &mut order, &mut phi);
    phi
}

/// Allocation-free form of [`peak_shapley`]: writes the Shapley values
/// into `phi` (cleared first) using `order` as the sort buffer. The flat
/// cascade calls this once per parent period with reused buffers.
///
/// # Panics
///
/// Same conditions as [`peak_shapley`].
pub fn peak_shapley_into(peaks: &[f64], order: &mut Vec<usize>, phi: &mut Vec<f64>) {
    assert!(!peaks.is_empty(), "at least one period is required");
    assert!(
        peaks.iter().all(|p| p.is_finite() && *p >= 0.0),
        "peaks must be finite and non-negative"
    );
    let n = peaks.len();
    order.clear();
    order.extend(0..n);
    // Stable sort: equal peaks keep their period order, exactly like the
    // original owned-Vec implementation.
    order.sort_by(|&a, &b| peaks[b].total_cmp(&peaks[a]));

    phi.clear();
    phi.resize(n, 0.0);
    // Suffix-accumulate (P_k − P_{k+1})/k from the smallest peak upward.
    let mut suffix = 0.0f64;
    for k in (0..n).rev() {
        let next = if k + 1 < n { peaks[order[k + 1]] } else { 0.0 };
        suffix += (peaks[order[k]] - next) / (k + 1) as f64;
        phi[order[k]] = suffix;
    }
}

/// Configuration of the hierarchical attribution: how many children each
/// level splits into (the paper's example uses `[10, 9, 8, 12]`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemporalShapley {
    splits: Vec<usize>,
}

/// Result of a hierarchical Temporal Shapley attribution.
#[derive(Debug, Clone)]
pub struct TemporalAttribution {
    /// Prefix sums of `intensity · step` over the leaf signal:
    /// `carbon_prefix[k]` is the carbon one resource unit accrues over the
    /// first `k` samples, so any window query is one subtraction.
    carbon_prefix: Vec<f64>,
    /// Intensity signal after each hierarchy level (index 0 = coarsest),
    /// each expanded to the input sampling grid for easy comparison —
    /// the successive refinements of the paper's Figure 4.
    level_intensity: Vec<TimeSeries>,
    /// Carbon that could not be attributed because the demand was zero
    /// over an entire leaf period.
    stranded_carbon: f64,
    /// Coalition evaluations a naive subset-enumeration Shapley would
    /// have needed for the same hierarchy (the paper's "calculations").
    naive_subset_evaluations: f64,
    /// Marginal-contribution updates the closed form actually performed.
    closed_form_operations: u64,
}

impl TemporalAttribution {
    /// The finest-granularity carbon-intensity signal (gCO₂e per
    /// resource-unit-second), on the demand series' sampling grid —
    /// the last hierarchy level (stored once, not duplicated).
    pub fn leaf_intensity(&self) -> &TimeSeries {
        self.level_intensity
            .last()
            .expect("at least the root level exists")
    }

    /// Per-level intensity signals, coarsest first; the last entry equals
    /// [`TemporalAttribution::leaf_intensity`].
    pub fn level_intensity(&self) -> &[TimeSeries] {
        &self.level_intensity
    }

    /// Carbon stranded on zero-demand leaf periods.
    pub fn stranded_carbon(&self) -> f64 {
        self.stranded_carbon
    }

    /// Coalition evaluations a naive per-level subset enumeration would
    /// have required.
    pub fn naive_subset_evaluations(&self) -> f64 {
        self.naive_subset_evaluations
    }

    /// Arithmetic marginal updates the closed form performed.
    pub fn closed_form_operations(&self) -> u64 {
        self.closed_form_operations
    }

    /// Prefix sums of `intensity · step` over the leaf signal
    /// (`len() + 1` entries): the raw table behind
    /// [`TemporalAttribution::workload_carbon`].
    pub fn carbon_prefix(&self) -> &[f64] {
        &self.carbon_prefix
    }

    /// Assembles an attribution from cascade parts (the leaf signal is
    /// the last level).
    pub(crate) fn from_parts(
        level_intensity: Vec<TimeSeries>,
        carbon_prefix: Vec<f64>,
        stranded_carbon: f64,
        naive_subset_evaluations: f64,
        closed_form_operations: u64,
    ) -> Self {
        assert!(
            !level_intensity.is_empty(),
            "at least the root level exists"
        );
        Self {
            carbon_prefix,
            level_intensity,
            stranded_carbon,
            naive_subset_evaluations,
            closed_form_operations,
        }
    }

    /// Borrows the O(1) billing-query index over the leaf carbon prefix.
    /// Hoist this out of query loops: the borrow skips the per-call grid
    /// setup and feeds the batched entry points.
    pub fn intensity_index(&self) -> IntensityIndex<'_> {
        let leaf = self.leaf_intensity();
        IntensityIndex::new(leaf.start(), leaf.step(), &self.carbon_prefix)
    }

    /// Total carbon attributed to `[t0, t1)` given a workload that holds
    /// `allocation` resource units over that window (gCO₂e).
    ///
    /// This is the O(1)-per-workload lookup the paper highlights: once the
    /// intensity signal exists, a workload's share is just
    /// `∫ allocation · ȳ(t) dt`, answered from the precomputed prefix sums
    /// of `intensity · step` — two index clamps and one subtraction,
    /// independent of the series length. A sample at time `t` counts when
    /// `t ∈ [t0, t1)`, exactly as the original linear scan selected them.
    pub fn workload_carbon(&self, t0: i64, t1: i64, allocation: f64) -> f64 {
        self.intensity_index().carbon(t0, t1, allocation)
    }

    /// Answers a batch of `(t0, t1, allocation)` billing queries, one
    /// output per query, each bit-identical to the corresponding
    /// [`TemporalAttribution::workload_carbon`] call. This is the
    /// fleet-scale entry point: the grid parameters are resolved once
    /// for the whole batch and each query costs a few integer ops, so a
    /// single thread sustains millions of queries per second.
    pub fn workload_carbon_batch(&self, queries: &[BillingQuery]) -> Vec<f64> {
        let mut out = Vec::new();
        self.workload_carbon_batch_into(queries, &mut out);
        out
    }

    /// [`TemporalAttribution::workload_carbon_batch`] into a reusable
    /// output buffer (cleared first) — allocation-free once the buffer
    /// has grown to the batch size.
    pub fn workload_carbon_batch_into(&self, queries: &[BillingQuery], out: &mut Vec<f64>) {
        self.intensity_index().carbon_batch_into(queries, out);
    }
}

impl TemporalShapley {
    /// Creates a hierarchy with the given split ratios (empty = attribute
    /// the whole series as one period).
    ///
    /// # Panics
    ///
    /// Panics if any split ratio is zero or one — such a level would not
    /// divide anything.
    pub fn new(splits: Vec<usize>) -> Self {
        assert!(
            splits.iter().all(|&m| m >= 2),
            "split ratios must be at least 2"
        );
        Self { splits }
    }

    /// The paper's Figure 4 hierarchy for a 30-day, 5-minute trace:
    /// 30 d → 3 d → 8 h → 1 h → 5 min via ratios 10 · 9 · 8 · 12.
    pub fn paper_hierarchy() -> Self {
        Self::new(vec![10, 9, 8, 12])
    }

    /// The configured split ratios.
    pub fn splits(&self) -> &[usize] {
        &self.splits
    }

    /// Attributes `total_carbon` (gCO₂e — e.g. one amortized month of
    /// embodied carbon) over the demand series, producing the dynamic
    /// carbon-intensity signal.
    ///
    /// # Example
    ///
    /// ```
    /// use fairco2_shapley::temporal::TemporalShapley;
    /// use fairco2_trace::TimeSeries;
    ///
    /// // 12 hourly samples; the last four carry a demand spike.
    /// let mut demand = vec![10.0; 8];
    /// demand.extend([40.0; 4]);
    /// let series = TimeSeries::from_values(0, 3600, demand)?;
    /// let att = TemporalShapley::new(vec![3]).attribute(&series, 900.0)?;
    /// // The spike periods carry a higher carbon intensity.
    /// let quiet = att.leaf_intensity().value_at(0).unwrap();
    /// let spike = att.leaf_intensity().value_at(9 * 3600).unwrap();
    /// assert!(spike > quiet);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SeriesError`] if the hierarchy splits the
    /// series below one sample per period.
    pub fn attribute(
        &self,
        demand: &TimeSeries,
        total_carbon: f64,
    ) -> Result<TemporalAttribution, SeriesError> {
        let mut scratch = CascadeScratch::new();
        run_cascade(&self.splits, demand, total_carbon, &mut scratch)?;
        Ok(scratch.into_attribution())
    }

    /// Runs the flat cascade into a caller-owned [`CascadeScratch`],
    /// reusing every buffer from the previous run — a repeated call on
    /// same-shaped inputs performs **no heap allocation**. Read the
    /// results through the scratch accessors
    /// ([`CascadeScratch::leaf_intensity`],
    /// [`CascadeScratch::carbon_prefix`], …) or materialize a
    /// [`TemporalAttribution`] via [`CascadeScratch::to_attribution`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TemporalShapley::attribute`]; the scratch
    /// contents are unspecified after an error.
    pub fn attribute_with_scratch(
        &self,
        demand: &TimeSeries,
        total_carbon: f64,
        scratch: &mut CascadeScratch,
    ) -> Result<(), SeriesError> {
        run_cascade(&self.splits, demand, total_carbon, scratch)
    }

    /// The original per-period pipeline, retained verbatim as the
    /// reference implementation: it clones the demand into owned
    /// [`TimeSeries`] at every level and rescans each period for its peak
    /// and integral. The flat cascade is closeness-pinned against this
    /// path by the property tests in `tests/temporal_cascade.rs` and by
    /// `perf_report`; keep using [`TemporalShapley::attribute`]
    /// everywhere else.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SeriesError`] if the hierarchy splits the
    /// series below one sample per period.
    pub fn attribute_per_period(
        &self,
        demand: &TimeSeries,
        total_carbon: f64,
    ) -> Result<TemporalAttribution, SeriesError> {
        // Per-sample carbon assignment, refined level by level.
        let mut carbon_per_period: Vec<(TimeSeries, f64)> = vec![(demand.clone(), total_carbon)];
        let mut level_intensity = Vec::with_capacity(self.splits.len() + 1);
        let mut naive = 0.0f64;
        let mut ops = 0u64;
        let mut stranded = 0.0f64;

        level_intensity.push(intensity_signal(demand, &carbon_per_period, &mut stranded));

        for &m in &self.splits {
            let mut next: Vec<(TimeSeries, f64)> = Vec::with_capacity(carbon_per_period.len() * m);
            for (period, carbon) in &carbon_per_period {
                let parts = period.split(m)?;
                let peaks: Vec<f64> = parts.iter().map(TimeSeries::peak).collect();
                let phi = peak_shapley(&peaks);
                ops += (m * m.ilog2().max(1) as usize) as u64;
                naive += (m as f64) * 2f64.powi(m as i32);
                let q: Vec<f64> = parts.iter().map(TimeSeries::integral).collect();
                let weights = attribution_weights(&phi, &q, &parts);
                for (part, w) in parts.into_iter().zip(weights) {
                    next.push((part, carbon * w));
                }
            }
            carbon_per_period = next;
            let mut level_stranded = 0.0;
            level_intensity.push(intensity_signal(
                demand,
                &carbon_per_period,
                &mut level_stranded,
            ));
            stranded = level_stranded;
        }

        let carbon_prefix = {
            let leaf = level_intensity
                .last()
                .expect("at least the root level exists");
            let step = f64::from(leaf.step());
            let mut carbon_prefix = Vec::with_capacity(leaf.len() + 1);
            carbon_prefix.push(0.0);
            let mut acc = 0.0;
            for v in leaf.values() {
                acc += v * step;
                carbon_prefix.push(acc);
            }
            carbon_prefix
        };
        Ok(TemporalAttribution {
            carbon_prefix,
            level_intensity,
            stranded_carbon: stranded,
            naive_subset_evaluations: naive,
            closed_form_operations: ops,
        })
    }
}

/// Shares of a period's carbon given to its children: φ·q-proportional
/// (Eq. 5); falls back to q-proportional when every φ·q vanishes and to
/// duration-proportional when even total demand is zero.
fn attribution_weights(phi: &[f64], q: &[f64], parts: &[TimeSeries]) -> Vec<f64> {
    let phi_q: Vec<f64> = phi.iter().zip(q).map(|(&p, &qi)| p * qi).collect();
    let denom: f64 = phi_q.iter().sum();
    if denom > 0.0 {
        return phi_q.iter().map(|v| v / denom).collect();
    }
    let q_total: f64 = q.iter().sum();
    if q_total > 0.0 {
        return q.iter().map(|v| v / q_total).collect();
    }
    let d_total: f64 = parts.iter().map(TimeSeries::duration).sum();
    parts.iter().map(|p| p.duration() / d_total).collect()
}

/// Expands a per-period carbon assignment to a per-sample intensity signal
/// on the original grid. Zero-demand periods contribute zero intensity and
/// their carbon is accumulated into `stranded`.
fn intensity_signal(
    demand: &TimeSeries,
    periods: &[(TimeSeries, f64)],
    stranded: &mut f64,
) -> TimeSeries {
    let mut values = vec![0.0f64; demand.len()];
    let step = i64::from(demand.step());
    for (period, carbon) in periods {
        let q = period.integral();
        if q <= 0.0 {
            *stranded += carbon;
            continue;
        }
        let intensity = carbon / q;
        let first = ((period.start() - demand.start()) / step) as usize;
        for k in 0..period.len() {
            values[first + k] = intensity;
        }
    }
    TimeSeries::from_values(demand.start(), demand.step(), values)
        .expect("demand series is non-empty")
}

/// Reference implementation: exact Shapley of the peak game by subset
/// enumeration — used to validate [`peak_shapley`] and exposed for tests
/// and benchmarks of the "ground truth" cost.
///
/// # Errors
///
/// Propagates [`crate::exact::ExactError`] converted to a panic-free
/// result via the underlying solver.
pub fn peak_shapley_enumerated(peaks: &[f64]) -> Result<Vec<f64>, crate::exact::ExactError> {
    // One time step per player where only that player is active ⇒ the
    // coalition value is exactly the max of member peaks.
    let matrix: Vec<Vec<f64>> = (0..peaks.len())
        .map(|i| {
            let mut row = vec![0.0; peaks.len()];
            row[i] = peaks[i];
            row
        })
        .collect();
    exact_shapley(&PeakDemandGame::new(matrix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_enumeration() {
        let cases: Vec<Vec<f64>> = vec![
            vec![10.0],
            vec![10.0, 6.0, 6.0],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![0.0, 3.0, 0.0, 7.0, 2.0, 7.0],
            vec![9.5, 0.1, 4.2, 4.2, 4.2, 8.8, 1.0],
        ];
        for peaks in cases {
            let fast = peak_shapley(&peaks);
            let slow = peak_shapley_enumerated(&peaks).unwrap();
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-9, "{peaks:?}: {f} vs {s}");
            }
        }
    }

    #[test]
    fn efficiency_sums_to_the_peak() {
        let peaks = [4.0, 9.0, 2.0, 9.0, 7.5];
        let phi = peak_shapley(&peaks);
        let total: f64 = phi.iter().sum();
        assert!((total - 9.0).abs() < 1e-12);
    }

    #[test]
    fn null_period_gets_zero() {
        let phi = peak_shapley(&[5.0, 0.0, 3.0]);
        assert_eq!(phi[1], 0.0);
    }

    #[test]
    fn higher_peak_never_gets_less() {
        let peaks = [1.0, 4.0, 2.0, 8.0, 8.0];
        let phi = peak_shapley(&peaks);
        assert!(phi[3] > phi[1] && phi[1] > phi[2] && phi[2] > phi[0]);
        assert!((phi[3] - phi[4]).abs() < 1e-12);
    }

    fn demo_series() -> TimeSeries {
        // 48 samples of 300 s with a clear peak structure.
        TimeSeries::from_fn(0, 300, 48, |t| {
            let x = t as f64 / 300.0;
            10.0 + 5.0 * (x / 8.0 * std::f64::consts::PI).sin().abs() + (x % 7.0)
        })
        .unwrap()
    }

    #[test]
    fn hierarchical_attribution_conserves_carbon() {
        let series = demo_series();
        let h = TemporalShapley::new(vec![4, 3]);
        let att = h.attribute(&series, 1000.0).unwrap();
        // Re-integrate intensity × demand over time: must equal the input
        // carbon minus stranded carbon.
        let total: f64 = att
            .leaf_intensity()
            .iter()
            .zip(series.iter())
            .map(|((_, y), (_, d))| y * d * 300.0)
            .sum();
        assert!(
            (total + att.stranded_carbon() - 1000.0).abs() < 1e-6,
            "reattributed {total}"
        );
    }

    #[test]
    fn higher_demand_periods_get_higher_intensity() {
        let mut values = vec![1.0; 24];
        values.extend(vec![10.0; 24]); // second half has 10× demand
        let series = TimeSeries::from_values(0, 300, values).unwrap();
        let att = TemporalShapley::new(vec![2])
            .attribute(&series, 100.0)
            .unwrap();
        let low = att.leaf_intensity().value_at(0).unwrap();
        let high = att.leaf_intensity().value_at(24 * 300).unwrap();
        assert!(high > low, "high {high} low {low}");
    }

    #[test]
    fn level_signals_refine_from_constant_to_dynamic() {
        let series = demo_series();
        let h = TemporalShapley::new(vec![4, 3]);
        let att = h.attribute(&series, 500.0).unwrap();
        assert_eq!(att.level_intensity().len(), 3);
        // Root level: a single intensity over all samples.
        let root = &att.level_intensity()[0];
        let first = root.values()[0];
        assert!(root.values().iter().all(|v| (v - first).abs() < 1e-12));
        // Finest level has at least as much variance as the root.
        let spread = |s: &TimeSeries| s.peak() - s.min();
        assert!(spread(&att.level_intensity()[2]) >= spread(root));
    }

    #[test]
    fn zero_demand_periods_strand_their_carbon() {
        let mut values = vec![0.0; 12];
        values.extend(vec![5.0; 12]);
        let series = TimeSeries::from_values(0, 300, values).unwrap();
        let att = TemporalShapley::new(vec![2])
            .attribute(&series, 100.0)
            .unwrap();
        // The zero-demand half strands nothing at the split level (its φ·q
        // weight is zero, so all carbon goes to the active half).
        assert_eq!(att.stranded_carbon(), 0.0);
        assert_eq!(att.leaf_intensity().value_at(0), Some(0.0));
        let active = att.leaf_intensity().value_at(12 * 300).unwrap();
        assert!(active > 0.0);
    }

    #[test]
    fn fully_idle_series_strands_everything() {
        let series = TimeSeries::constant(0, 300, 24, 0.0).unwrap();
        let att = TemporalShapley::new(vec![4])
            .attribute(&series, 100.0)
            .unwrap();
        assert!((att.stranded_carbon() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn workload_lookup_integrates_the_signal() {
        let series = demo_series();
        let att = TemporalShapley::new(vec![4])
            .attribute(&series, 1000.0)
            .unwrap();
        let whole = att.workload_carbon(0, series.end(), 1.0);
        let per_unit_total: f64 = att.leaf_intensity().integral();
        assert!((whole - per_unit_total).abs() < 1e-9);
        // Half the window attributes less than the whole.
        let half = att.workload_carbon(0, series.end() / 2, 1.0);
        assert!(half < whole);
        // Twice the allocation attributes twice the carbon.
        let double = att.workload_carbon(0, series.end(), 2.0);
        assert!((double - 2.0 * whole).abs() < 1e-9);
    }

    #[test]
    fn prefix_sum_window_query_matches_the_linear_scan() {
        // Pin the O(1) prefix-sum path to the original linear scan, which
        // kept every sample whose timestamp lies in [t0, t1).
        let linear_scan = |att: &TemporalAttribution, t0: i64, t1: i64, alloc: f64| -> f64 {
            let step = f64::from(att.leaf_intensity().step());
            att.leaf_intensity()
                .iter()
                .filter(|(t, _)| *t >= t0 && *t < t1)
                .map(|(_, intensity)| intensity * alloc * step)
                .sum()
        };
        let series = demo_series(); // starts at 0, step 300, 48 samples
        let att = TemporalShapley::new(vec![4, 3])
            .attribute(&series, 1000.0)
            .unwrap();
        let end = series.end();
        let windows = [
            (0, end),            // whole series
            (0, end / 2),        // aligned half
            (150, 4 * 300 + 10), // both ends off the sampling grid
            (-500, 299),         // starts before the series, ends mid-step
            (300, 300),          // empty window
            (700, 600),          // inverted window
            (end, end + 900),    // entirely past the end
            (-900, -300),        // entirely before the start
            (47 * 300, end + 1), // straddles the final sample
        ];
        for (t0, t1) in windows {
            for alloc in [0.0, 1.0, 2.5] {
                let fast = att.workload_carbon(t0, t1, alloc);
                let slow = linear_scan(&att, t0, t1, alloc);
                assert!(
                    (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                    "window [{t0}, {t1}) alloc {alloc}: fast {fast} vs scan {slow}"
                );
            }
        }
    }

    #[test]
    fn op_counters_show_the_scalability_gap() {
        let series =
            TimeSeries::from_fn(0, 300, 8640, |t| 100.0 + (t as f64 / 8640.0).sin() * 10.0)
                .unwrap();
        let att = TemporalShapley::paper_hierarchy()
            .attribute(&series, 1.0)
            .unwrap();
        assert!(att.naive_subset_evaluations() > att.closed_form_operations() as f64);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_peaks_panic() {
        let _ = peak_shapley(&[1.0, -2.0]);
    }
}
