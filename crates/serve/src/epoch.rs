//! Immutable epoch snapshots: the read side of the service.
//!
//! Every closed attribution window advances the service by one *epoch*.
//! An [`EpochSnapshot`] is a frozen view of all windows closed so far —
//! readers query it without any lock, and its answers never change: the
//! same query against the same epoch returns the same bits forever,
//! which is what makes concurrent answers auditable after the fact.
//!
//! The windows live in one append-only log that every epoch shares
//! ([`Windows`]): epoch `k` reads the log's first `k` slots, publishing
//! epoch `k + 1` writes slot `k` once, and the log is copied — into one
//! twice as long — only when it is full. Retention is therefore linear
//! in windows closed and a publish is O(1) amortized. The cross-window
//! carbon prefix is *segmented*: each window keeps its own prefix
//! exactly as the frozen cascade produced it, plus a `cum_before` offset
//! fixed at close time by one left-to-right fold over window totals.
//! Queries therefore decompose into per-window charges combined by a
//! deterministic rule — bit-identical to a from-scratch rebuild of the
//! same windows, at any thread count.

use std::fmt;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

use fairco2_shapley::cascade::first_sample_at_or_after;
use fairco2_shapley::incremental::WindowAttribution;
use fairco2_shapley::BillingQuery;

/// One closed window inside an epoch: the frozen attribution plus the
/// segmented-prefix offset of everything before it.
#[derive(Debug, Clone)]
pub struct WindowSegment {
    /// The window's finalized attribution, shared across every epoch
    /// that includes it.
    pub attribution: Arc<WindowAttribution>,
    /// Value of the service-wide carbon prefix at this window's first
    /// sample: the sum of all earlier windows' full-window charges,
    /// folded left to right in window order.
    pub cum_before: f64,
}

/// The closed windows of one epoch, oldest first: the first `len` slots
/// of an append-only log shared with every other epoch.
///
/// Later epochs may have written slots past `len`; no accessor shows
/// them, so an epoch's windows never change after it is published.
#[derive(Default)]
pub struct Windows {
    /// Slots `0..len` are set; a slot is written once and never moves.
    log: Arc<[OnceLock<WindowSegment>]>,
    len: usize,
}

impl Windows {
    /// Number of windows in the epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the epoch holds no window (epoch 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The windows, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &WindowSegment> {
        (0..self.len).map(|i| self.slot(i))
    }

    /// The newest window, `None` for epoch 0.
    pub fn last(&self) -> Option<&WindowSegment> {
        self.len.checked_sub(1).map(|i| self.slot(i))
    }

    #[inline]
    fn slot(&self, i: usize) -> &WindowSegment {
        assert!(
            i < self.len,
            "window {i} is past this epoch's {} windows",
            self.len
        );
        self.log[i]
            .get()
            .expect("an epoch's slots are set before it is published")
    }

    /// These windows plus `segment`. Writes the log's next slot when the
    /// log has one, so both share one log; copies the windows into a log
    /// twice as long when it is full.
    ///
    /// # Panics
    ///
    /// Panics if a later epoch already wrote the next slot: the service
    /// only ever extends its latest epoch.
    fn appended(&self, segment: WindowSegment) -> Self {
        if let Some(slot) = self.log.get(self.len) {
            let written = slot.set(segment).is_ok();
            assert!(
                written,
                "slot {} was written by a later epoch; only the latest epoch is extended",
                self.len
            );
            return Self {
                log: Arc::clone(&self.log),
                len: self.len + 1,
            };
        }
        let capacity = (2 * self.len).max(1);
        let log = self
            .iter()
            .cloned()
            .chain([segment])
            .map(OnceLock::from)
            .chain(std::iter::repeat_with(OnceLock::new))
            .take(capacity)
            .collect();
        Self {
            log,
            len: self.len + 1,
        }
    }
}

impl Index<usize> for Windows {
    type Output = WindowSegment;

    /// # Panics
    ///
    /// Panics when `i >= len()`, even if a later epoch has written
    /// that slot.
    #[inline]
    fn index(&self, i: usize) -> &WindowSegment {
        self.slot(i)
    }
}

/// Lists this epoch's windows only: a derived impl would print slots
/// that later epochs wrote into the shared log.
impl fmt::Debug for Windows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An immutable, lock-free view of every window the service had closed
/// when this epoch was published.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Epoch number: how many windows this snapshot contains.
    pub epoch: u64,
    /// Unix timestamp (seconds) of the service's first sample.
    pub start: i64,
    /// Sampling step in seconds.
    pub step: u32,
    /// Samples per window.
    pub window_samples: usize,
    /// The closed windows, oldest first.
    pub windows: Windows,
}

impl EpochSnapshot {
    /// Attributed samples covered by this epoch
    /// (`windows · window_samples`).
    pub fn samples(&self) -> usize {
        self.windows.len() * self.window_samples
    }

    /// The service-wide carbon prefix at sample index `i`
    /// (`0 ..= samples()`): the segment's `cum_before` plus its own
    /// frozen prefix — the canonical segmented-prefix rule every
    /// rebuild must reproduce bit for bit.
    #[inline]
    pub fn prefix_at(&self, i: usize) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let w = (i / self.window_samples).min(self.windows.len() - 1);
        let seg = &self.windows[w];
        seg.cum_before + seg.attribution.carbon_prefix[i - w * self.window_samples]
    }

    /// Carbon attributed to a tenant holding `alloc` resource units over
    /// `[t0, t1)` — zero for empty, inverted, or out-of-range windows;
    /// endpoints anywhere in `i64` are clamped, never wrapped.
    #[inline]
    pub fn carbon(&self, query: BillingQuery) -> f64 {
        let (t0, t1, alloc) = query;
        let n = self.samples();
        let lo = first_sample_at_or_after(self.start, i64::from(self.step), n, t0);
        let hi = first_sample_at_or_after(self.start, i64::from(self.step), n, t1);
        if hi <= lo {
            return 0.0;
        }
        alloc * (self.prefix_at(hi) - self.prefix_at(lo))
    }

    /// Answers a batch in order, appending to `out`.
    pub fn carbon_batch_into(&self, queries: &[BillingQuery], out: &mut Vec<f64>) {
        out.extend(queries.iter().map(|&q| self.carbon(q)));
    }
}

/// Builds the next epoch from the previous one plus a freshly closed
/// window: shares the window log (and so every existing segment's
/// attribution) and extends the segmented prefix by one left-to-right
/// fold step. `prev` must be the latest epoch; extending an older one
/// panics.
pub(crate) fn extend_epoch(prev: &EpochSnapshot, window: WindowAttribution) -> EpochSnapshot {
    let cum_before = match prev.windows.last() {
        Some(seg) => seg.cum_before + seg.attribution.carbon_prefix[prev.window_samples],
        None => 0.0,
    };
    EpochSnapshot {
        epoch: prev.epoch + 1,
        start: prev.start,
        step: prev.step,
        window_samples: prev.window_samples,
        windows: prev.windows.appended(WindowSegment {
            attribution: Arc::new(window),
            cum_before,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 2;

    /// A distinct two-sample window for each `k`.
    fn window(k: usize) -> WindowAttribution {
        let k = k as f64;
        WindowAttribution {
            total_carbon: 1.0 + k,
            carbon_prefix: vec![0.0, 0.25 + k, 1.0 + k],
            leaf_intensity: vec![0.25 + k, 0.75],
            stranded_carbon: 0.0,
        }
    }

    /// Epochs `0..=n`, each extended from the one before by `window(k)`.
    fn chain(n: usize) -> Vec<EpochSnapshot> {
        let mut epochs = vec![EpochSnapshot {
            epoch: 0,
            start: 0,
            step: 300,
            window_samples: W,
            windows: Windows::default(),
        }];
        for k in 0..n {
            let next = extend_epoch(&epochs[k], window(k));
            epochs.push(next);
        }
        epochs
    }

    /// Asserts `epoch` holds `window(k)` for each `k` in `ks`, in order,
    /// with every `cum_before` folded from scratch.
    fn assert_holds(epoch: &EpochSnapshot, ks: &[usize]) {
        assert_eq!(epoch.epoch as usize, ks.len());
        assert_eq!(epoch.windows.len(), ks.len());
        let mut cum = 0.0_f64;
        for (seg, &k) in epoch.windows.iter().zip(ks) {
            assert_eq!(seg.attribution.carbon_prefix, window(k).carbon_prefix);
            assert_eq!(seg.cum_before.to_bits(), cum.to_bits());
            cum += seg.attribution.carbon_prefix[W];
        }
        assert_eq!(epoch.prefix_at(epoch.samples()).to_bits(), cum.to_bits());
    }

    #[test]
    #[should_panic(expected = "slot 3 was written by a later epoch")]
    fn extending_an_older_epoch_panics() {
        // Epoch 3's log has four slots; publishing epoch 4 took slot 3.
        let epochs = chain(4);
        extend_epoch(&epochs[3], window(99));
    }

    #[test]
    fn an_old_epochs_debug_output_survives_later_publishes() {
        let mut epochs = chain(3);
        let before = format!("{:?}", epochs[3]);
        for k in 3..8 {
            let next = extend_epoch(&epochs[k], window(k));
            epochs.push(next);
        }
        // Epoch 4 wrote slot 3 of the log epoch 3 views.
        assert!(Arc::ptr_eq(&epochs[3].windows.log, &epochs[4].windows.log));
        assert_eq!(format!("{:?}", epochs[3]), before);
    }

    #[test]
    #[should_panic(expected = "window 3 is past this epoch's 3 windows")]
    fn indexing_past_the_epoch_panics_even_where_a_later_epoch_wrote() {
        let epochs = chain(4);
        let _ = &epochs[3].windows[3];
    }

    #[test]
    fn publishes_copy_the_log_only_when_it_doubles() {
        let epochs = chain(10_000);
        let mut logs: Vec<(*const OnceLock<WindowSegment>, usize)> = epochs[1..]
            .iter()
            .map(|e| (e.windows.log.as_ptr(), e.windows.log.len()))
            .collect();
        // Every epoch is alive, so a log's address is never reused.
        logs.dedup();
        let slots: usize = logs.iter().map(|&(_, len)| len).sum();
        assert!(logs.len() <= 15, "{} logs", logs.len());
        assert!(slots <= 40_000, "{slots} log slots");
        assert_holds(&epochs[10_000], &(0..10_000).collect::<Vec<_>>());
    }
}
