//! Incremental Temporal Shapley over an unbounded sample stream.
//!
//! A long-lived attribution service ingests 5-minute demand samples
//! forever, so re-attributing the whole trace per sample would cost
//! `O(n)` each — `O(n²)` over the stream. This module chunks the stream
//! into fixed-size **attribution windows** of `leaf_samples · Π splits`
//! samples instead (the billing analogue of a monthly statement: carbon
//! is finalized when a window closes, and the open tail has not been
//! attributed yet).
//!
//! [`IncrementalCascade::push`] appends each sample to the open window's
//! buffer. [`IncrementalCascade::close_window`] runs the flat cascade of
//! [`crate::cascade`], the same one
//! [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
//! runs, over that buffer into a scratch that every close reuses. A
//! closed window therefore equals `attribute` on the same slice by
//! construction, and so equals the per-period reference pipeline bit for
//! bit. A close costs `O(window · levels)`, so the amortized
//! cost stays `O(levels) = O(log window)` per sample however long the
//! stream runs.
//!
//! The [`IncrementalCascade::ops`] counter pins that cost without a
//! clock: one op per push, plus each close's float ops counted from the
//! window's shape (the per-period integrals and peaks, the split passes,
//! the intensity fills and the billing prefix), so every window costs
//! the same.

use fairco2_trace::series::SeriesError;
use serde::{Deserialize, Serialize};

use crate::cascade::{cascade_ops, run_cascade, CascadeScratch};

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
    window_samples: usize,
    leaf_samples: usize,
    /// The open window's samples, in arrival order.
    open: Vec<f64>,
    /// The cascade's buffers, reused by every close.
    scratch: CascadeScratch,
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
        Ok(Self {
            splits: splits.to_vec(),
            step,
            window_samples,
            leaf_samples,
            open: Vec::new(),
            scratch: CascadeScratch::new(),
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
        self.open.len()
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
            self.open.len() < self.window_samples,
            "window is full; close_window before pushing more samples"
        );
        assert!(
            value.is_finite() && value >= 0.0,
            "demand samples must be non-negative and finite, got {value}"
        );
        if self.open.is_empty() {
            // One exact allocation for the first window, a no-op after.
            self.open.reserve_exact(self.window_samples);
        }
        self.open.push(value);
        self.ops += 1;
        self.open.len() == self.window_samples
    }

    /// Finalizes the filled window: runs the frozen cascade over its
    /// samples with `total_carbon`, resets the engine for the next
    /// window, and returns the window's outputs — those of
    /// [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
    /// on the same `window_samples` slice with the same carbon.
    ///
    /// # Panics
    ///
    /// Panics if the window is not exactly full.
    pub fn close_window(&mut self, total_carbon: f64) -> WindowAttribution {
        assert_eq!(
            self.open.len(),
            self.window_samples,
            "close_window needs a full window"
        );
        // The grid start only labels the scratch's series; the window
        // outputs are offsets into the window.
        run_cascade(
            &self.splits,
            0,
            self.step,
            &self.open,
            total_carbon,
            &mut self.scratch,
        )
        .expect("a full window divides exactly through every split");
        self.ops += cascade_ops(self.window_samples, &self.splits);
        self.open.clear();
        self.windows_closed += 1;
        let (leaf_intensity, carbon_prefix) = self.scratch.take_leaf_outputs();
        WindowAttribution {
            total_carbon,
            carbon_prefix,
            leaf_intensity,
            stranded_carbon: self.scratch.stranded_carbon(),
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
