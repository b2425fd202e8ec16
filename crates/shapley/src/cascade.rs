//! The flat, zero-copy Temporal Shapley cascade.
//!
//! [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute)
//! originally materialized every hierarchy period as an owned
//! [`TimeSeries`]: each level cloned the whole demand buffer into
//! per-period series, rescanned every period for its peak and its
//! integral, and allocated a fresh per-sample intensity vector —
//! `O(samples · levels)` copies and ~`Σ periods` heap allocations per
//! call. This module replaces that pipeline with a flat engine in which
//! a *period is an index range* over the one shared demand slice:
//!
//! * **Period bounds** are plain `usize` offsets, derived level by level
//!   with the same remainder rule as
//!   [`TimeSeries::split`](fairco2_trace::TimeSeries::split) — no sample
//!   is ever copied.
//! * **Peaks** come from a MaxTree: the fused sweep computes every
//!   *leaf* period's peak, and — because hierarchy bounds are nested,
//!   so every period at every level is an exact union of its children —
//!   one bottom-up pass folds child peaks into parent peaks,
//!   `O(periods)` maxes total instead of a rescan of the samples per
//!   level. `f64::max` over finite samples is associative and selects
//!   one of its operands bit-for-bit, so folding peaks of contiguous
//!   child groups equals the old left-to-right
//!   `fold(NEG_INFINITY, f64::max)` scan over the raw samples exactly
//!   (the one exception — a tie between `+0.0` and `-0.0` — cannot
//!   arise for non-negative demand). A [`RangeMax`] sparse table over
//!   the leaf peaks is exported alongside for `O(1)` *arbitrary*-window
//!   peak queries.
//! * **Integrals** come from one fused sweep over the demand slice that
//!   accumulates every level's per-period sums simultaneously, under
//!   the documented *canonical lane reduction*: within every leaf
//!   period, lane `j ∈ 0..CANONICAL_LANES` sums the samples at
//!   within-leaf offsets `≡ j (mod CANONICAL_LANES)`; each leaf's lane
//!   vector collapses to one leaf sum through the fixed adjacent-pair
//!   tree of [`combine_lanes`], and every level's period sum is the
//!   left-to-right sum of its leaves' sums. The lane count, the combine
//!   order, and the leaf-sum order are all constants of the hierarchy
//!   shape — independent of the demand values — so the reduction is
//!   deterministic and reproducible by the streaming engine
//!   ([`crate::incremental`]) bit-for-bit. It *reassociates* addition
//!   relative to [`TimeSeries::integral`]'s left-to-right fold, so
//!   period sums match the per-period reference only to a documented
//!   ulp bound (see DESIGN.md §8). Peaks are unaffected: `f64::max` is
//!   associative and operand-selecting, so lane-split peaks stay
//!   bit-identical.
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

/// A sparse table answering `max(values[lo..hi])` in `O(1)` after an
/// `O(n log n)` build.
///
/// Internal nodes combine with [`f64::max`], the operator the original
/// per-period peak scan used; since `max` over finite floats is
/// associative and always returns one of its operands, every query is
/// bit-identical to a left-to-right fold over the same range. The table
/// owns its buffers and [`RangeMax::build`] reuses them, so rebuilding
/// over a same-length slice allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RangeMax {
    len: usize,
    /// `levels[k][i] = max(values[i .. i + 2^k])`; `levels[0]` mirrors
    /// the input.
    levels: Vec<Vec<f64>>,
}

impl RangeMax {
    /// An empty table; call [`RangeMax::build`] before querying.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)builds the table over `values`, reusing prior allocations.
    pub fn build(&mut self, values: &[f64]) {
        let n = values.len();
        self.len = n;
        let height = if n <= 1 { 1 } else { n.ilog2() as usize + 1 };
        self.levels.truncate(height);
        while self.levels.len() < height {
            self.levels.push(Vec::new());
        }
        self.levels[0].clear();
        self.levels[0].extend_from_slice(values);
        for k in 1..height {
            let half = 1usize << (k - 1);
            let entries = n - (1usize << k) + 1;
            let (below, level) = {
                let (a, b) = self.levels.split_at_mut(k);
                (&a[k - 1], &mut b[0])
            };
            level.clear();
            level.extend((0..entries).map(|i| f64::max(below[i], below[i + half])));
        }
    }

    /// Number of values the table was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty (never built, or built over nothing).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values the table was built over (row 0, unchanged).
    pub fn leaves(&self) -> &[f64] {
        self.levels.first().map_or(&[], Vec::as_slice)
    }

    /// `max(values[lo..hi])`, bit-identical to folding that range
    /// left-to-right with `f64::max` from `NEG_INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi > len` — a peak over an empty range
    /// is undefined.
    #[inline]
    pub fn query(&self, lo: usize, hi: usize) -> f64 {
        assert!(
            lo < hi && hi <= self.len,
            "range [{lo}, {hi}) out of bounds"
        );
        let k = (hi - lo).ilog2() as usize;
        let level = &self.levels[k];
        f64::max(level[lo], level[hi - (1usize << k)])
    }
}

/// Reusable state for the flat cascade: period bounds, per-period sums
/// and carbon, per-level intensity buffers, the MaxTree of per-level
/// period peaks, the leaf carbon prefix, and the small per-parent
/// solver buffers.
///
/// A scratch is built by
/// [`TemporalShapley::attribute_with_scratch`](crate::temporal::TemporalShapley::attribute_with_scratch)
/// and can be read directly (for allocation-free pipelines) or
/// materialized into a
/// [`TemporalAttribution`](crate::temporal::TemporalAttribution) with
/// [`CascadeScratch::to_attribution`]. Buffers grow to the largest
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
    /// Per-leaf-period peaks, filled by the fused sweep.
    leaf_peaks: Vec<f64>,
    /// MaxTree: `level_peaks[l][p]` is the peak of period `p` at the
    /// intermediate level `l` (`1 <= l < levels - 1`), folded bottom-up
    /// from the leaf peaks; the leaf level reads `leaf_peaks` directly
    /// and the root's peak is never consulted, so those slots stay
    /// empty.
    level_peaks: Vec<Vec<f64>>,
    /// Per-parent φ / weight buffers (≤ max split ratio).
    phi: Vec<f64>,
    order: Vec<usize>,
    weights: Vec<f64>,
    /// Per-level running accumulators of the fused integral sweep.
    level_acc: Vec<f64>,
    level_next: Vec<usize>,
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

    /// Materializes the scratch into an owned
    /// [`TemporalAttribution`](crate::temporal::TemporalAttribution)
    /// (this clones the per-level signals; keep reading the scratch
    /// directly when allocation-freedom matters).
    ///
    /// # Panics
    ///
    /// Panics if no attribution has been run yet.
    pub fn to_attribution(&self) -> crate::temporal::TemporalAttribution {
        assert!(!self.intensity.is_empty(), "attribution has been run");
        let level_intensity: Vec<TimeSeries> = self
            .intensity
            .iter()
            .map(|values| {
                TimeSeries::from_values(self.start, self.step, values.clone())
                    .expect("cascade levels cover a non-empty series")
            })
            .collect();
        crate::temporal::TemporalAttribution::from_parts(
            level_intensity,
            self.prefix.clone(),
            self.stranded,
            self.naive,
            self.ops,
        )
    }

    /// Consumes the scratch into an owned
    /// [`TemporalAttribution`](crate::temporal::TemporalAttribution),
    /// moving every level buffer and the carbon prefix instead of
    /// cloning them. This is the fresh-attribution fast path used by
    /// [`TemporalShapley::attribute`](crate::temporal::TemporalShapley::attribute);
    /// callers that keep the scratch for reuse want
    /// [`CascadeScratch::to_attribution`] instead.
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

/// Lane count of the canonical lane reduction used by the cascade's
/// sweep and [`crate::incremental::IncrementalCascade`].
///
/// This is a *semantic* constant, not a tuning knob: changing it
/// changes which reassociated sum the lane kernels produce, so every
/// pinned lane result (frozen-vs-streaming bit-identity, BENCH
/// artifacts) would shift. Four lanes break the FP add latency chain
/// (4-cycle latency, ≥1/cycle throughput on every x86-64 core we
/// target) while keeping the per-leaf state small enough to live in
/// registers.
pub const CANONICAL_LANES: usize = 4;

/// Block length of the blocked two-level prefix
/// ([`prefix_blocked`](crate::kernels::prefix_blocked)). Part of the
/// canonical reduction: the serial `acc += intensity · step` chain
/// restarts at every multiple of this constant, and the inter-block
/// carry is itself a serial sum of block totals. For signals no longer
/// than one block the result is bit-identical to the scalar chain.
///
/// Like [`CANONICAL_LANES`], this is a *semantic* constant. Blocks are
/// deliberately short: the whole local chain of one block fits inside
/// the out-of-order window, so consecutive blocks' chains (which are
/// independent by construction) overlap in the pipeline and the kernel
/// runs at FP throughput instead of the serial chain's add latency.
/// Wide blocks would not — each block's chain would be as long as the
/// machine's reorder capacity, serializing the kernel back to chain
/// latency.
pub const PREFIX_BLOCK: usize = 8;

/// Folds a lane vector into one sum with the fixed adjacent-pair tree:
/// `((l0 + l1) + (l2 + l3))` for `K = 4`, recursively for larger `K`.
/// This combine order is *the* canonical — it never depends on how many
/// samples each lane received, so any two code paths that partition the
/// same samples into the same lanes produce bit-identical sums.
///
/// Unfilled lanes must hold `0.0`, the additive identity.
///
/// # Panics
///
/// Panics if `K` is not a power of two (the pair tree would silently
/// drop lanes).
#[inline]
pub fn combine_lanes<const K: usize>(lanes: [f64; K]) -> f64 {
    assert!(K.is_power_of_two(), "lane count must be a power of two");
    let mut tmp = lanes;
    let mut width = K;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            tmp[j] = tmp[2 * j] + tmp[2 * j + 1];
        }
    }
    tmp[0]
}

/// [`combine_lanes`] for peaks: the fixed adjacent-pair `f64::max`
/// tree. Because `max` over finite floats is associative and always
/// returns one of its operands, this is bit-identical to the serial
/// left-to-right fold over the same samples — lane-splitting peaks is
/// *not* a reassociation hazard (the lone exception, a `+0.0` / `-0.0`
/// tie, cannot arise for non-negative demand).
///
/// Unfilled lanes must hold `f64::NEG_INFINITY`, the `max` identity.
///
/// # Panics
///
/// Panics if `K` is not a power of two.
#[inline]
pub fn combine_lanes_max<const K: usize>(lanes: [f64; K]) -> f64 {
    assert!(K.is_power_of_two(), "lane count must be a power of two");
    let mut tmp = lanes;
    let mut width = K;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            tmp[j] = f64::max(tmp[2 * j], tmp[2 * j + 1]);
        }
    }
    tmp[0]
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
pub(crate) fn fill_bounds(
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

/// One fused sweep over the demand samples filling every level's
/// per-period integrals (`q[level][period]`, already scaled by the step)
/// plus the leaf-period peaks, under the canonical lane reduction with
/// `K = CANONICAL_LANES`. One `O(samples)` pass replaces per-level
/// rescans; `acc` and `next` are the per-level running sums and
/// next-boundary cursors, reused across calls.
pub(crate) fn fill_level_sums_lanes(
    values: &[f64],
    step: f64,
    bounds: &[Vec<usize>],
    q: &mut Vec<Vec<f64>>,
    acc: &mut Vec<f64>,
    next: &mut Vec<usize>,
    leaf_peaks: &mut Vec<f64>,
) {
    ensure_levels(q, bounds.len());
    let levels = bounds.len();
    acc.clear();
    acc.resize(levels, 0.0);
    next.clear();
    next.resize(levels, 1);
    for sums in q.iter_mut() {
        sums.clear();
    }
    leaf_peaks.clear();
    lane_sweep::<CANONICAL_LANES>(values, step, bounds, q, acc, next, leaf_peaks);
}

/// The generic-`K` lane sweep behind [`fill_level_sums_lanes`] (the
/// cascade always runs it at `K = CANONICAL_LANES`; tests and benches
/// exercise other powers of two through [`crate::kernels`]).
///
/// The canonical reduction, per leaf period:
///
/// 1. Lane `j` sums (and maxes) the leaf's samples at within-leaf
///    offsets `≡ j (mod K)` — a `chunks_exact(K)` loop of `K`
///    independent adds per chunk, which is what breaks the serial FP
///    dependency chain of a per-period fold (the hot per-sample work
///    drops from `levels` dependent adds to one add on a 4-way
///    independent chain).
/// 2. The leaf's lane vector collapses to one *leaf sum* through the
///    fixed adjacent-pair tree of [`combine_lanes`].
/// 3. Every level accumulates whole leaf sums left-to-right
///    (`levels` adds per **leaf**, not per sample), and a period
///    closing at this leaf boundary emits `acc · step`.
///
/// The lane assignment (within-leaf offset mod `K`), the combine tree,
/// and the leaf-sum accumulation order all depend only on the hierarchy
/// shape — never on the demand values or on how the samples arrived —
/// so the streaming engine ([`crate::incremental`]) reproduces these
/// sums bit-for-bit by maintaining the same lanes sample-by-sample.
/// Leaf peaks use the identical partition with `f64::max`
/// ([`combine_lanes_max`]), which keeps them bit-identical to a serial
/// left-to-right fold.
pub(crate) fn lane_sweep<const K: usize>(
    values: &[f64],
    step: f64,
    bounds: &[Vec<usize>],
    q: &mut [Vec<f64>],
    acc: &mut [f64],
    next: &mut [usize],
    leaf_peaks: &mut Vec<f64>,
) {
    let levels = bounds.len();
    let leaf_bounds = bounds.last().expect("at least the root level");
    // The leaf level closes at every leaf boundary, so its period sum is
    // just the leaf sum (`0.0 + leaf_sum` in the generic loop — the
    // chain never produces `-0.0`, so pushing `leaf_sum · step` directly
    // is bit-identical). Upper levels have nested bounds: every upper
    // boundary is also a boundary of the deepest upper level, so one
    // compare per leaf gates all the upper bookkeeping.
    let (upper_q, leaf_q) = q.split_at_mut(levels - 1);
    let leaf_q = &mut leaf_q[0];
    let uppers = levels - 1;
    for w in leaf_bounds.windows(2) {
        let leaf = &values[w[0]..w[1]];
        let mut lane = [0.0f64; K];
        let mut peak_lane = [f64::NEG_INFINITY; K];
        let chunks = leaf.chunks_exact(K);
        let tail = chunks.remainder();
        for chunk in chunks {
            for j in 0..K {
                lane[j] += chunk[j];
                peak_lane[j] = f64::max(peak_lane[j], chunk[j]);
            }
        }
        for (j, &v) in tail.iter().enumerate() {
            lane[j] += v;
            peak_lane[j] = f64::max(peak_lane[j], v);
        }
        let leaf_sum = combine_lanes(lane);
        leaf_peaks.push(combine_lanes_max(peak_lane));
        leaf_q.push(leaf_sum * step);
        for a in acc[..uppers].iter_mut() {
            *a += leaf_sum;
        }
        if uppers > 0 && bounds[uppers - 1][next[uppers - 1]] == w[1] {
            for level in 0..uppers {
                if bounds[level][next[level]] == w[1] {
                    upper_q[level].push(acc[level] * step);
                    acc[level] = 0.0;
                    next[level] += 1;
                }
            }
        }
    }
}

/// Splits one parent period's carbon across its `m` children, exactly
/// as the per-period reference does: the precomputed child peaks (one
/// MaxTree slice), the closed-form φ, and the φ·q → q → duration weight
/// cascade. The `m` child carbon shares are **appended** to `shares`
/// (so a serial level loop can accumulate straight into the level
/// buffer); the caller supplies every buffer, so this is
/// allocation-free. Shared with the streaming engine in
/// [`crate::incremental`], which must split carbon with bit-identical
/// arithmetic.
///
/// # Panics
///
/// Panics — with the same message as
/// [`peak_shapley`](crate::temporal::peak_shapley) — if a child peak is
/// negative or non-finite.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_parent(
    child_bounds: &[usize],
    child_q: &[f64],
    child_peaks: &[f64],
    parent_carbon: f64,
    step: f64,
    phi: &mut Vec<f64>,
    order: &mut Vec<usize>,
    weights: &mut Vec<f64>,
    shares: &mut Vec<f64>,
) {
    let m = child_bounds.len() - 1;
    debug_assert_eq!(child_peaks.len(), m);
    peak_shapley_into(child_peaks, order, phi);
    // φ·q-proportional weights (Eq. 5), with the reference path's exact
    // fallbacks: q-proportional when every φ·q vanishes,
    // duration-proportional when even total demand is zero.
    weights.clear();
    weights.extend(phi.iter().zip(child_q).map(|(&p, &qi)| p * qi));
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
pub(crate) fn fill_intensity(
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

/// The leaf carbon prefix `prefix[k] = Σ_{i<k} intensity[i] · step`
/// under the canonical blocked reduction with `B = PREFIX_BLOCK`.
pub(crate) fn fill_prefix_blocked(intensity: &[f64], step: f64, prefix: &mut Vec<f64>) {
    fill_prefix_blocked_sized::<PREFIX_BLOCK>(intensity, step, prefix);
}

/// The generic-`B` blocked prefix behind [`fill_prefix_blocked`] (the
/// cascade always runs it at `B = PREFIX_BLOCK`; tests and benches
/// exercise other block lengths through [`crate::kernels`]).
///
/// The canonical reduction:
///
/// 1. **Local prefixes.** The signal is cut into blocks of exactly `B`
///    samples (plus a final partial block). Within each block the
///    original serial chain runs unchanged — `acc += intensity[i] ·
///    step` in index order from `0.0` — into a block-local buffer.
///    Each block's chain is independent of every other block's, so with
///    short blocks the machine overlaps consecutive chains and the
///    kernel runs at FP throughput, not chain latency.
/// 2. **Carry.** Block totals accumulate left-to-right into a running
///    carry (`carry_b = ((T_0 + T_1) + T_2) + …`, where `T_b` is block
///    `b`'s local chain end), and every element of block `b` stores
///    `local + carry_b` — the carry is fused into the store, so the
///    output is written exactly once.
///
/// Block boundaries sit at fixed multiples of `B`, never at
/// data-dependent positions, so the reduction is deterministic and the
/// streaming engine reproduces it bit-for-bit. For `n <= B` there is a
/// single block whose carry is `0.0`: the local chain never produces a
/// `-0.0` (it starts at `+0.0`), so `local + 0.0` is bit-identical to
/// the scalar chain. For `n > B` each element differs from the scalar
/// prefix only by the one reassociation `local + carry`, giving the
/// ≤ 1-ulp-per-element relative bound documented in DESIGN.md §8.
pub(crate) fn fill_prefix_blocked_sized<const B: usize>(
    intensity: &[f64],
    step: f64,
    prefix: &mut Vec<f64>,
) {
    assert!(B > 0, "prefix blocks must be non-empty");
    let n = intensity.len();
    // Every slot below is stored exactly once, so skip the memset when
    // the buffer is already the right length (the scratch-reuse path).
    if prefix.len() != n + 1 {
        prefix.clear();
        prefix.resize(n + 1, 0.0);
    }
    prefix[0] = 0.0;
    let out = &mut prefix[1..];
    let mut carry = 0.0f64;
    let chunks = intensity.chunks_exact(B);
    let tail = chunks.remainder();
    for (ic, oc) in chunks.zip(out.chunks_exact_mut(B)) {
        let mut local = [0.0f64; B];
        let mut a = 0.0f64;
        // Indexed over the constant bound `B` so the chain and the
        // carry-store fully unroll (`chunks_exact` pins both slice
        // lengths, so the bounds checks fold away).
        for j in 0..B {
            a += ic[j] * step;
            local[j] = a;
        }
        for j in 0..B {
            oc[j] = local[j] + carry;
        }
        carry += a;
    }
    let done = n - tail.len();
    let mut a = 0.0f64;
    for (o, &v) in out[done..].iter_mut().zip(tail) {
        a += v * step;
        *o = a + carry;
    }
}

/// Runs the flat cascade for `splits` over `demand`, filling `scratch`;
/// the result is bit-identical to the streaming engine's canonical lane
/// reduction.
///
/// # Errors
///
/// Returns [`SeriesError::OutOfRange`] if the hierarchy splits the
/// series below one sample per period.
pub(crate) fn run_cascade(
    splits: &[usize],
    demand: &TimeSeries,
    total_carbon: f64,
    scratch: &mut CascadeScratch,
) -> Result<(), SeriesError> {
    let samples = demand.len();
    let values = demand.values();
    let step = f64::from(demand.step());
    let same_shape =
        scratch.samples == samples && scratch.splits_cache == splits && !scratch.bounds.is_empty();
    scratch.start = demand.start();
    scratch.step = demand.step();
    scratch.samples = samples;
    scratch.stranded = 0.0;
    scratch.naive = 0.0;
    scratch.ops = 0;

    if !same_shape {
        scratch.splits_cache.clear();
        fill_bounds(&mut scratch.bounds, samples, splits)?;
        scratch.splits_cache.extend_from_slice(splits);
    }
    fill_level_sums_lanes(
        values,
        step,
        &scratch.bounds,
        &mut scratch.q,
        &mut scratch.level_acc,
        &mut scratch.level_next,
        &mut scratch.leaf_peaks,
    );
    let levels = splits.len() + 1;
    ensure_levels(&mut scratch.carbon, levels);
    ensure_levels(&mut scratch.intensity, levels);

    // MaxTree: fold the leaf peaks bottom-up into intermediate-level
    // period peaks (the leaf level reads `leaf_peaks` directly, the
    // root's peak is never consulted). Each period's peak is a
    // left-to-right `f64::max` fold of its children's peaks, which is
    // bit-identical to folding its raw samples because `max` over
    // finite floats is associative and always returns an operand.
    ensure_levels(&mut scratch.level_peaks, levels);
    for peaks in scratch.level_peaks.iter_mut() {
        peaks.clear();
    }
    for level in (1..levels.saturating_sub(1)).rev() {
        let m = splits[level];
        let (upper, lower) = scratch.level_peaks.split_at_mut(level + 1);
        let child: &[f64] = if level + 2 == levels {
            &scratch.leaf_peaks
        } else {
            &lower[0]
        };
        upper[level].extend(
            child
                .chunks_exact(m)
                .map(|c| c.iter().fold(f64::NEG_INFINITY, |a, &b| f64::max(a, b))),
        );
    }

    // Root level: all carbon on the single whole-series period. With no
    // splits the root is the leaf, so the prefix rides along.
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
    if levels == 1 {
        fill_prefix_blocked(&scratch.intensity[0], step, &mut scratch.prefix);
    }

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
        let child_peaks: &[f64] = if level + 2 == levels {
            &scratch.leaf_peaks
        } else {
            &scratch.level_peaks[level + 1]
        };
        for p in 0..parents {
            split_parent(
                &child_bounds[p * m..(p + 1) * m + 1],
                &child_q[p * m..(p + 1) * m],
                &child_peaks[p * m..(p + 1) * m],
                parent_carbon[p],
                step,
                &mut scratch.phi,
                &mut scratch.order,
                &mut scratch.weights,
                child_carbon,
            );
        }

        let mut level_stranded = 0.0;
        fill_intensity(
            &scratch.bounds[level + 1],
            child_q,
            child_carbon,
            &mut scratch.intensity[level + 1],
            samples,
            &mut level_stranded,
        );
        // Finest level: run the blocked billing prefix over the leaf
        // signal while it is hot in cache.
        if level + 2 == levels {
            fill_prefix_blocked(&scratch.intensity[level + 1], step, &mut scratch.prefix);
        }
        scratch.stranded = level_stranded;
    }
    Ok(())
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
    use crate::kernels::level_sums_scalar;

    #[test]
    fn range_max_matches_fold_on_every_window() {
        let values: Vec<f64> = (0..37)
            .map(|i| ((i * 7919 + 13) % 97) as f64 / 3.0)
            .collect();
        let mut table = RangeMax::new();
        table.build(&values);
        assert_eq!(table.len(), 37);
        for lo in 0..values.len() {
            for hi in lo + 1..=values.len() {
                let fold = values[lo..hi]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(table.query(lo, hi).to_bits(), fold.to_bits());
            }
        }
    }

    #[test]
    fn range_max_rebuild_reuses_buffers() {
        let mut table = RangeMax::new();
        table.build(&[1.0, 5.0, 2.0, 4.0]);
        assert_eq!(table.query(0, 4), 5.0);
        table.build(&[3.0, 1.0, 7.0, 0.0]);
        assert_eq!(table.query(0, 4), 7.0);
        assert_eq!(table.query(3, 4), 0.0);
        table.build(&[2.0]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.query(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_max_rejects_empty_ranges() {
        let mut table = RangeMax::new();
        table.build(&[1.0, 2.0]);
        let _ = table.query(1, 1);
    }

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
        let mut leaf_peaks = Vec::new();
        level_sums_scalar(&values, 300.0, &bounds, &mut q, &mut leaf_peaks);
        assert_eq!(q[0][0].to_bits(), series.integral().to_bits());
        for (level, level_bounds) in bounds.iter().enumerate() {
            for (p, w) in level_bounds.windows(2).enumerate() {
                let part = TimeSeries::from_values(0, 300, values[w[0]..w[1]].to_vec()).unwrap();
                assert_eq!(
                    q[level][p].to_bits(),
                    part.integral().to_bits(),
                    "level {level} period {p}"
                );
            }
        }
        // Leaf peaks equal the per-leaf TimeSeries::peak fold, and a
        // range-max over them reproduces any upper period's peak.
        let leaf_bounds = bounds.last().unwrap();
        assert_eq!(leaf_peaks.len(), leaf_bounds.len() - 1);
        for (p, w) in leaf_bounds.windows(2).enumerate() {
            let part = TimeSeries::from_values(0, 300, values[w[0]..w[1]].to_vec()).unwrap();
            assert_eq!(leaf_peaks[p].to_bits(), part.peak().to_bits(), "leaf {p}");
        }
        let mut table = RangeMax::new();
        table.build(&leaf_peaks);
        // Level-1 period 0 spans leaves 0..3 (leaf_span = 3).
        let level1 =
            TimeSeries::from_values(0, 300, values[bounds[1][0]..bounds[1][1]].to_vec()).unwrap();
        assert_eq!(table.query(0, 3).to_bits(), level1.peak().to_bits());
    }

    #[test]
    fn combine_lanes_is_the_fixed_pair_tree() {
        let s = combine_lanes([1e16, 3.0, -1e16, 7.0]);
        // ((1e16 + 3) + (-1e16 + 7)) — NOT the serial ((1e16+3)-1e16)+7.
        assert_eq!(s.to_bits(), ((1e16f64 + 3.0) + (-1e16f64 + 7.0)).to_bits());
        assert_eq!(combine_lanes([2.5]), 2.5);
        assert_eq!(combine_lanes([0.0; 8]), 0.0);
        assert_eq!(
            combine_lanes_max([f64::NEG_INFINITY, 4.0, f64::NEG_INFINITY, 1.0]),
            4.0
        );
    }

    #[test]
    fn lane_sweep_peaks_and_small_sums_match_the_reference_sweep() {
        // Peaks are bit-identical under the lane partition; sums are
        // bit-identical whenever every leaf is shorter than two lanes'
        // worth of samples *and* each level closes per leaf — here the
        // 23-sample [2, 3] hierarchy has 4-sample leaves, so only
        // closeness holds for sums while peaks must match exactly.
        let values: Vec<f64> = (0..23)
            .map(|i| 0.1 + ((i * 31) % 17) as f64 * 0.37)
            .collect();
        let mut bounds = Vec::new();
        fill_bounds(&mut bounds, 23, &[2, 3]).unwrap();
        let (mut q_s, mut q_l) = (Vec::new(), Vec::new());
        let (mut acc, mut next) = (Vec::new(), Vec::new());
        let (mut peaks_s, mut peaks_l) = (Vec::new(), Vec::new());
        level_sums_scalar(&values, 300.0, &bounds, &mut q_s, &mut peaks_s);
        fill_level_sums_lanes(
            &values,
            300.0,
            &bounds,
            &mut q_l,
            &mut acc,
            &mut next,
            &mut peaks_l,
        );
        assert_eq!(peaks_s.len(), peaks_l.len());
        for (a, b) in peaks_s.iter().zip(&peaks_l) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (level, (qs, ql)) in q_s.iter().zip(&q_l).enumerate() {
            assert_eq!(qs.len(), ql.len(), "level {level}");
            for (a, b) in qs.iter().zip(ql) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "level {level}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn blocked_prefix_is_bit_identical_within_one_block() {
        let intensity: Vec<f64> = (0..1000).map(|i| ((i * 13) % 29) as f64 * 0.125).collect();
        let mut scalar = vec![0.0; intensity.len() + 1];
        let mut acc = 0.0;
        for (i, &v) in intensity.iter().enumerate() {
            acc += v * 300.0;
            scalar[i + 1] = acc;
        }
        let mut blocked = Vec::new();
        fill_prefix_blocked(&intensity, 300.0, &mut blocked); // 1000 <= PREFIX_BLOCK
        assert_eq!(blocked.len(), scalar.len());
        for (a, b) in blocked.iter().zip(&scalar) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocked_prefix_crosses_blocks_with_one_carry_reassociation() {
        // Small B exercises the lockstep quad, the serial tail, and the
        // partial final block; values are dyadic so every sum is exact
        // and the carry reassociation is *also* exact — the blocked
        // result must then equal the scalar chain bit-for-bit.
        let intensity: Vec<f64> = (0..59).map(|i| ((i * 7) % 9) as f64 * 0.25).collect();
        let mut scalar = vec![0.0; intensity.len() + 1];
        let mut acc = 0.0;
        for (i, &v) in intensity.iter().enumerate() {
            acc += v * 2.0;
            scalar[i + 1] = acc;
        }
        let mut blocked = Vec::new();
        fill_prefix_blocked_sized::<4>(&intensity, 2.0, &mut blocked);
        assert_eq!(blocked.len(), scalar.len());
        for (i, (a, b)) in blocked.iter().zip(&scalar).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i}");
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
