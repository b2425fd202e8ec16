//! Incremental Temporal Shapley over an unbounded sample stream.
//!
//! The flat cascade in [`crate::cascade`] attributes a *frozen* trace:
//! every call rescans all `n` samples. A long-lived attribution service
//! ingests 5-minute demand samples forever, so a full recompute per
//! sample would cost `O(n)` each — `O(n²)` over the stream. This module
//! streams instead: the trace is chunked into fixed-size **attribution
//! windows** of `leaf_samples · Π splits` samples (the billing analogue
//! of a monthly statement — carbon is finalized when a window closes,
//! and the open tail has not been attributed yet), and each window's
//! attribution is **bit-identical** to
//! [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
//! on that window's slice.
//!
//! Because the window length is an exact multiple of every split ratio,
//! the cascade's remainder rule degenerates to equal division and all
//! period bounds are known up front. That makes every per-sample update
//! O(1) with an O(levels) burst at each leaf boundary:
//!
//! * **Integrals** — the engine maintains the frozen engine's *canonical
//!   lane reduction* (see [`crate::cascade`]): each sample
//!   lands in lane `in_leaf mod CANONICAL_LANES` of the open leaf's lane
//!   vector (one add); when the leaf closes, the lanes collapse through
//!   the fixed pair tree of [`combine_lanes`] and every level
//!   accumulates the whole leaf sum. Lane assignment, combine order, and
//!   leaf-sum order are all functions of the hierarchy shape alone, so
//!   the per-period sums match the frozen lane sweep bit for bit.
//! * **Peaks** — a lane-partitioned running peak folds each sample with
//!   [`f64::max`] and collapses through [`combine_lanes_max`] at leaf
//!   close (bit-identical to any fold order — `max` is associative and
//!   operand-selecting); the closed leaf peak is then folded up the open
//!   parent periods (the *MaxTree tail repair*) exactly as before.
//! * **Window close** — the top-down carbon split reuses
//!   [`split_parent`](crate::cascade), and the leaf signal and billing
//!   prefix come from [`fill_intensity`](crate::cascade) plus the
//!   blocked two-level prefix
//!   ([`fill_prefix_blocked`](crate::cascade)) — the frozen lane
//!   engine's own kernels, over the maintained sums and peaks; no
//!   sample is rescanned.
//!
//! # Re-derivation of the streaming bit-identity (lane canonical)
//!
//! The original engine replayed the scalar fused sweep's adds literally
//! (`levels` adds per sample). Under the lane overhaul the frozen
//! cascade no longer performs those adds; its canonical is: *leaf lane
//! sums by within-leaf offset mod `CANONICAL_LANES`, pair-tree combine,
//! then per-level left-to-right leaf-sum accumulation*. Every term in
//! that reduction is keyed by (leaf index, within-leaf offset) — both
//! known exactly to the streaming engine from `filled` alone — so
//! maintaining the same lanes sample-by-sample reproduces the identical
//! float operations in the identical order, and the
//! frozen-vs-streaming proptests in `tests/incremental.rs` still pin
//! the outputs bit for bit. The per-push cost changes shape: a plain
//! push is 2 ops (one lane add, one lane max) instead of
//! `levels + 1`, and each leaf boundary pays the `O(levels + K)`
//! collapse burst; the ops-counter tests re-pin those constants.
//!
//! The [`IncrementalCascade::ops`] counter pins the complexity: every
//! primitive float operation (add, max, divide) is counted, and the
//! per-sample amortized cost is a constant depending only on the
//! hierarchy shape — `O(levels) = O(log window)` — independent of how
//! many samples the stream has ingested.

use fairco2_trace::series::SeriesError;
use serde::{Deserialize, Serialize};

use crate::cascade::{
    combine_lanes, combine_lanes_max, fill_bounds, fill_intensity, fill_prefix_blocked,
    split_parent, CANONICAL_LANES,
};

/// One closed attribution window's finalized outputs: everything a
/// billing query needs, detached from the engine so snapshots can share
/// it immutably across epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowAttribution {
    /// Carbon the whole window was attributed (gCO₂e).
    pub total_carbon: f64,
    /// Leaf `intensity · step` prefix sums over the window
    /// (`window_samples + 1` entries), bit-identical to
    /// [`TemporalAttribution::carbon_prefix`](crate::temporal::TemporalAttribution::carbon_prefix)
    /// of the frozen rebuild.
    pub carbon_prefix: Vec<f64>,
    /// Per-sample leaf intensity signal (gCO₂e per resource·second).
    pub leaf_intensity: Vec<f64>,
    /// Carbon stranded on zero-demand leaf periods.
    pub stranded_carbon: f64,
}

/// The streaming Temporal Shapley engine: ingest samples one at a time,
/// close a [`WindowAttribution`] every `window_samples`, amortized
/// `O(levels)` work per sample.
///
/// ```
/// use fairco2_shapley::incremental::IncrementalCascade;
///
/// let mut engine = IncrementalCascade::new(&[3, 2], 2, 300).unwrap();
/// assert_eq!(engine.window_samples(), 12);
/// for k in 0..12 {
///     let closed = engine.push(1.0 + k as f64);
///     assert_eq!(closed, k == 11);
/// }
/// let window = engine.close_window(1000.0);
/// // prefix[i] accumulates intensity · step: a workload with constant
/// // unit demand over the whole window is billed prefix[12] gCO₂e.
/// assert_eq!(window.carbon_prefix.len(), 13);
/// assert!(window.carbon_prefix.windows(2).all(|w| w[1] >= w[0]));
/// assert_eq!(window.stranded_carbon, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalCascade {
    splits: Vec<usize>,
    step: u32,
    stepf: f64,
    window_samples: usize,
    leaf_samples: usize,
    /// Fixed per-window period bounds (exact equal division, so they are
    /// identical for every window).
    bounds: Vec<Vec<usize>>,
    /// Samples ingested into the open window.
    filled: usize,
    /// Within-leaf offset of the next sample (selects its lane).
    in_leaf: usize,
    /// Lane sums of the open leaf period: lane `j` accumulates the
    /// samples at within-leaf offsets `≡ j (mod CANONICAL_LANES)` —
    /// exactly the frozen lane sweep's partition.
    open_lane: [f64; CANONICAL_LANES],
    /// Lane peaks of the open leaf period (same partition, `f64::max`).
    open_peak_lane: [f64; CANONICAL_LANES],
    /// Per-level running integral accumulators; each receives whole leaf
    /// sums in leaf order, the frozen lane sweep's accumulation order.
    acc: Vec<f64>,
    /// Per-level index of the next period boundary in `bounds[l]`.
    next: Vec<usize>,
    /// Like `next`, tracked separately for the peak tail repair (which
    /// runs before the integral close at the same boundary).
    next_peak: Vec<usize>,
    /// Closed leaf-period peaks of the open window.
    leaf_peaks: Vec<f64>,
    /// `open_peaks[l]`: running peak of the open period at intermediate
    /// level `l` (`1 <= l < levels - 1`), folded from its children's
    /// closed peaks.
    open_peaks: Vec<f64>,
    /// Closed intermediate-level period peaks of the open window.
    level_peaks: Vec<Vec<f64>>,
    /// `q[l]`: closed per-period integrals of the open window.
    q: Vec<Vec<f64>>,
    /// Per-level carbon scratch for the window-close split pass.
    carbon: Vec<Vec<f64>>,
    phi: Vec<f64>,
    order: Vec<usize>,
    weights: Vec<f64>,
    ops: u64,
    windows_closed: u64,
}

impl IncrementalCascade {
    /// A streaming engine with hierarchy `splits` (coarsest first, as in
    /// [`TemporalShapley::new`](crate::temporal::TemporalShapley::new)),
    /// `leaf_samples` samples per finest period, and a sampling step of
    /// `step` seconds. The window length is `leaf_samples · Π splits`.
    ///
    /// # Errors
    ///
    /// [`SeriesError::ZeroStep`] when `step == 0`;
    /// [`SeriesError::Empty`] when `leaf_samples == 0`;
    /// [`SeriesError::OutOfRange`] when any split ratio is zero or the
    /// window length overflows `usize`.
    pub fn new(splits: &[usize], leaf_samples: usize, step: u32) -> Result<Self, SeriesError> {
        if step == 0 {
            return Err(SeriesError::ZeroStep);
        }
        if leaf_samples == 0 {
            return Err(SeriesError::Empty);
        }
        let mut window_samples = leaf_samples;
        for &m in splits {
            window_samples = window_samples
                .checked_mul(m)
                .filter(|_| m > 0)
                .ok_or(SeriesError::OutOfRange)?;
        }
        let mut bounds = Vec::new();
        fill_bounds(&mut bounds, window_samples, splits)?;
        let levels = splits.len() + 1;
        Ok(Self {
            splits: splits.to_vec(),
            step,
            stepf: f64::from(step),
            window_samples,
            leaf_samples,
            bounds,
            filled: 0,
            in_leaf: 0,
            open_lane: [0.0; CANONICAL_LANES],
            open_peak_lane: [f64::NEG_INFINITY; CANONICAL_LANES],
            acc: vec![0.0; levels],
            next: vec![1; levels],
            next_peak: vec![1; levels],
            leaf_peaks: Vec::new(),
            open_peaks: vec![f64::NEG_INFINITY; levels],
            level_peaks: vec![Vec::new(); levels],
            q: vec![Vec::new(); levels],
            carbon: vec![Vec::new(); levels],
            phi: Vec::new(),
            order: Vec::new(),
            weights: Vec::new(),
            ops: 0,
            windows_closed: 0,
        })
    }

    /// Samples per attribution window (`leaf_samples · Π splits`).
    pub fn window_samples(&self) -> usize {
        self.window_samples
    }

    /// Samples per finest-level period.
    pub fn leaf_samples(&self) -> usize {
        self.leaf_samples
    }

    /// The hierarchy split ratios, coarsest first.
    pub fn splits(&self) -> &[usize] {
        &self.splits
    }

    /// Sampling step in seconds.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Samples ingested into the currently open window.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Primitive float operations performed since construction — the
    /// complexity pin: after `k` full windows this is exactly
    /// `k · ops-per-window`, and divided by the samples ingested it is a
    /// constant in the stream length (see the module docs).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Ingests one demand sample into the open window; returns `true`
    /// when the window just filled — the caller must then invoke
    /// [`IncrementalCascade::close_window`] before pushing further
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if the window is already full, or if `value` is negative
    /// or non-finite (the peak game is defined over non-negative finite
    /// demand; see
    /// [`peak_shapley`](crate::temporal::peak_shapley)).
    pub fn push(&mut self, value: f64) -> bool {
        assert!(
            self.filled < self.window_samples,
            "window is full; close_window before pushing more samples"
        );
        assert!(
            value.is_finite() && value >= 0.0,
            "demand samples must be non-negative and finite, got {value}"
        );
        // Same lane, same add, as the frozen lane sweep: one add and one
        // max per sample regardless of the hierarchy depth.
        let lane = self.in_leaf % CANONICAL_LANES;
        self.open_lane[lane] += value;
        self.open_peak_lane[lane] = f64::max(self.open_peak_lane[lane], value);
        self.in_leaf += 1;
        self.filled += 1;
        self.ops += 2;

        let levels = self.bounds.len();
        if self.bounds[levels - 1][self.next[levels - 1]] == self.filled {
            // The open leaf period closes: collapse the lanes through
            // the canonical pair trees (the frozen sweep's exact combine
            // order), then repair the MaxTree tail — fold the closed
            // peak into the open parent periods, closing each parent
            // whose boundary this also is. Stops at the first level that
            // stays open (bounds are nested, so no coarser level can
            // close either).
            let leaf_sum = combine_lanes(self.open_lane);
            let leaf_peak = combine_lanes_max(self.open_peak_lane);
            self.open_lane = [0.0; CANONICAL_LANES];
            self.open_peak_lane = [f64::NEG_INFINITY; CANONICAL_LANES];
            self.in_leaf = 0;
            self.ops += 2 * (CANONICAL_LANES as u64 - 1);
            self.leaf_peaks.push(leaf_peak);
            let mut child = leaf_peak;
            for l in (1..levels.saturating_sub(1)).rev() {
                self.open_peaks[l] = f64::max(self.open_peaks[l], child);
                self.ops += 1;
                if self.bounds[l][self.next_peak[l]] == self.filled {
                    child = self.open_peaks[l];
                    self.level_peaks[l].push(child);
                    self.open_peaks[l] = f64::NEG_INFINITY;
                    self.next_peak[l] += 1;
                } else {
                    break;
                }
            }
            // Every level accumulates the whole leaf sum, then closes
            // its integral if this is its boundary — the frozen lane
            // sweep's leaf-fold and level order.
            for a in self.acc.iter_mut() {
                *a += leaf_sum;
            }
            self.ops += self.acc.len() as u64;
            for l in 0..levels {
                if self.bounds[l][self.next[l]] == self.filled {
                    self.q[l].push(self.acc[l] * self.stepf);
                    self.acc[l] = 0.0;
                    self.next[l] += 1;
                    self.ops += 1;
                }
            }
        }
        self.filled == self.window_samples
    }

    /// Finalizes the filled window: splits `total_carbon` down the
    /// hierarchy with the frozen engine's own kernels over the
    /// maintained sums and peaks (no sample is rescanned), resets the
    /// engine for the next window, and returns the window's outputs —
    /// bit-identical to
    /// [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
    /// on the same `window_samples` slice with the same carbon.
    ///
    /// # Panics
    ///
    /// Panics if the window is not exactly full.
    pub fn close_window(&mut self, total_carbon: f64) -> WindowAttribution {
        assert_eq!(
            self.filled, self.window_samples,
            "close_window needs a full window"
        );
        let levels = self.bounds.len();
        let step = self.stepf;
        self.carbon[0].clear();
        self.carbon[0].push(total_carbon);
        for (level, &m) in self.splits.iter().enumerate() {
            let parents = self.bounds[level].len() - 1;
            let (parent_carbon, child_carbon) = {
                let (a, b) = self.carbon.split_at_mut(level + 1);
                (&a[level], &mut b[0])
            };
            child_carbon.clear();
            let child_bounds = &self.bounds[level + 1];
            let child_q = &self.q[level + 1];
            let child_peaks: &[f64] = if level + 2 == levels {
                &self.leaf_peaks
            } else {
                &self.level_peaks[level + 1]
            };
            for p in 0..parents {
                split_parent(
                    &child_bounds[p * m..(p + 1) * m + 1],
                    &child_q[p * m..(p + 1) * m],
                    &child_peaks[p * m..(p + 1) * m],
                    parent_carbon[p],
                    step,
                    &mut self.phi,
                    &mut self.order,
                    &mut self.weights,
                    child_carbon,
                );
                self.ops += (m * m.ilog2().max(1) as usize) as u64 + 3 * m as u64;
            }
        }
        let mut leaf_intensity = Vec::new();
        let mut carbon_prefix = Vec::new();
        let mut stranded = 0.0;
        fill_intensity(
            self.bounds.last().expect("at least the root level"),
            self.q.last().expect("at least the root level"),
            self.carbon.last().expect("at least the root level"),
            &mut leaf_intensity,
            self.window_samples,
            &mut stranded,
        );
        fill_prefix_blocked(&leaf_intensity, step, &mut carbon_prefix);
        // Leaf fill ≈ one divide per leaf period amortized over its
        // samples, blocked prefix ≈ one multiply + one add per sample
        // plus the carry pass: count 3 ops per sample.
        self.ops += 3 * self.window_samples as u64 + 1;

        self.filled = 0;
        self.in_leaf = 0;
        self.open_lane = [0.0; CANONICAL_LANES];
        self.open_peak_lane = [f64::NEG_INFINITY; CANONICAL_LANES];
        self.acc.fill(0.0);
        self.next.fill(1);
        self.next_peak.fill(1);
        self.leaf_peaks.clear();
        self.open_peaks.fill(f64::NEG_INFINITY);
        for peaks in &mut self.level_peaks {
            peaks.clear();
        }
        for sums in &mut self.q {
            sums.clear();
        }
        self.windows_closed += 1;
        WindowAttribution {
            total_carbon,
            carbon_prefix,
            leaf_intensity,
            stranded_carbon: stranded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(matches!(
            IncrementalCascade::new(&[2], 4, 0),
            Err(SeriesError::ZeroStep)
        ));
        assert!(matches!(
            IncrementalCascade::new(&[2], 0, 300),
            Err(SeriesError::Empty)
        ));
        assert!(matches!(
            IncrementalCascade::new(&[0], 4, 300),
            Err(SeriesError::OutOfRange)
        ));
    }

    #[test]
    #[should_panic(expected = "close_window needs a full window")]
    fn close_requires_a_full_window() {
        let mut engine = IncrementalCascade::new(&[2], 2, 300).unwrap();
        engine.push(1.0);
        let _ = engine.close_window(10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn rejects_negative_demand() {
        let mut engine = IncrementalCascade::new(&[2], 2, 300).unwrap();
        engine.push(-1.0);
    }

    #[test]
    fn no_split_hierarchy_streams_the_root_window() {
        let mut engine = IncrementalCascade::new(&[], 3, 300).unwrap();
        assert_eq!(engine.window_samples(), 3);
        assert!(!engine.push(1.0));
        assert!(!engine.push(2.0));
        assert!(engine.push(3.0));
        let window = engine.close_window(600.0);
        assert_eq!(window.carbon_prefix.len(), 4);
        // One root period: q = (1+2+3)·300 = 1800, intensity = 600/1800,
        // prefix[3] = 3 · intensity · 300 = 300 (what one unit of demand
        // held for the whole window is billed).
        assert!((window.carbon_prefix[3] - 300.0).abs() < 1e-12);
        assert_eq!(window.stranded_carbon, 0.0);
        assert_eq!(engine.windows_closed(), 1);
        assert_eq!(engine.filled(), 0);
    }
}
