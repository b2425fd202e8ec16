//! Measurement helpers shared by every workload: order statistics, the
//! tail-percentile rule, peak heap and peak RSS, run alternation, the
//! failure tally and the timed operation loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Heap bytes currently allocated through [`CountingAlloc`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest value [`LIVE`] has reached.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Smallest block [`CountingAlloc`] counts.
pub const COUNTED_BLOCK: usize = 4096;

/// The system allocator, counting live heap bytes in blocks of at least
/// [`COUNTED_BLOCK`] bytes, and their peak.
///
/// Peak RSS on this workload mix depends on how the allocator's
/// per-thread arenas happen to fragment — the fleet workload's `VmHWM`
/// moves by ±15% between runs of one seed — while the peak of live heap
/// bytes is the program's own demand. Small blocks are left out: they
/// are most allocations but little of the memory, and counting them
/// makes the counter a cache line two threads fight over (it slowed the
/// allocation-heavy LP workload by a third). Counters are statistics
/// only, so `Relaxed` suffices.
pub struct CountingAlloc;

/// The part of a block of `size` bytes that is counted.
fn counted(size: usize) -> usize {
    if size >= COUNTED_BLOCK {
        size
    } else {
        0
    }
}

fn grew(bytes: usize) {
    if bytes == 0 {
        return;
    }
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes == 0 {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the pointers and layouts `System` receives satisfy its contract exactly
// when the caller satisfies `GlobalAlloc`'s; the counters never touch the
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        shrank(counted(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl).
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let (before, after) = (counted(layout.size()), counted(new_size));
            if after >= before {
                grew(after - before);
            } else {
                shrank(before - after);
            }
        }
        new
    }
}

/// Peak live heap bytes in counted blocks of this process so far (0
/// unless [`CountingAlloc`] is the global allocator).
pub fn peak_heap_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Percentiles the tail rule may report, lowest first.
pub const TAIL_QUANTILES: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted copy of `values` (finite values only are expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, as Python's `statistics.median` computes it; NaN when
/// there are no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, `exclusive`), so
/// spreads printed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x, x, x];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The largest value over the median: how much the slowest of a set of
/// parallel parts lags the typical one.
pub fn max_over_median(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max) / median(values)
}

/// 1-based rank of the nearest-rank `q` percentile among `count` samples.
fn rank(count: usize, q: f64) -> usize {
    ((q * count as f64).ceil() as usize).clamp(1, count.max(1))
}

/// Nearest-rank percentile of already sorted samples: the smallest
/// sample with at least a share `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples ranked strictly beyond the `q` percentile of `count` samples.
pub fn beyond(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    count - rank(count, q)
}

/// The highest of [`TAIL_QUANTILES`] with at least [`MIN_BEYOND`]
/// samples beyond it, if any qualifies.
pub fn highest_tail(count: usize) -> Option<f64> {
    TAIL_QUANTILES
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(count, q) >= MIN_BEYOND)
}

/// `"p99 12.3 ms (1000 samples, 10 beyond)"`, or a note that no tail
/// percentile has enough samples — timings are never printed as a tail
/// without the sample count behind them.
pub fn describe_tail(values: &[f64], unit: &str) -> String {
    let s = sorted(values);
    match highest_tail(s.len()) {
        Some(q) => format!(
            "p{} {:.4} {unit} ({} samples, {} beyond)",
            q * 100.0,
            percentile(&s, q),
            s.len(),
            beyond(s.len(), q)
        ),
        None => format!("no tail: {} samples", s.len()),
    }
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set in KiB, where the platform exposes
/// it. Each measured run is its own child process, so the value covers
/// exactly one run's set-up and measurement.
pub fn peak_rss_kib() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The order in which `repeat` passes over `names` run: forward on even
/// passes, reversed on odd ones, so no workload always runs first or
/// always follows the same neighbour. Returns `(pass, name)` pairs.
pub fn alternating<'a>(names: &[&'a str], repeat: usize) -> Vec<(usize, &'a str)> {
    let mut order = Vec::with_capacity(names.len() * repeat);
    for pass in 0..repeat {
        if pass % 2 == 0 {
            order.extend(names.iter().map(|&n| (pass, n)));
        } else {
            order.extend(names.iter().rev().map(|&n| (pass, n)));
        }
    }
    order
}

/// Operations attempted and failed in one run. A failure is an operation
/// that panicked, returned an error or failed its correctness check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.messages.len() < 8 {
            self.messages.push(what.into());
        }
    }

    /// Adds `other`'s operations and failures to this tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }

    /// Records one checked operation; returns `holds`.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) -> bool {
        if holds {
            self.ok(1);
        } else {
            self.fail(1, what());
        }
        holds
    }
}

/// What [`run_for`] measured.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall time of each operation (s).
    pub op_s: Vec<f64>,
    /// Items the operations completed.
    pub items: u64,
    /// Wall time of the whole loop (s).
    pub wall_s: f64,
    /// Peak live heap bytes when the loop ended (set-up included, checks
    /// not).
    pub peak_heap_bytes: usize,
    /// Peak RSS (KiB) when the loop ended.
    pub peak_rss_kib: Option<u64>,
}

impl OpLog {
    /// Records the wall time since `start` and the peaks so far.
    pub fn finish(&mut self, start: Instant) {
        self.wall_s = start.elapsed().as_secs_f64();
        self.peak_heap_bytes = peak_heap_bytes();
        self.peak_rss_kib = peak_rss_kib();
    }
}

/// Runs `op(index, tally)` back to back until `seconds` have elapsed —
/// always at least once — timing each call. `op` returns the items it
/// completed. A panicking operation counts as one failure and the loop
/// moves on to the next index.
pub fn run_for(
    seconds: f64,
    tally: &mut Tally,
    mut op: impl FnMut(usize, &mut Tally) -> u64,
) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    let mut index = 0usize;
    loop {
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| op(index, tally))) {
            Ok(items) => {
                log.op_s.push(t.elapsed().as_secs_f64());
                log.items += items;
            }
            Err(payload) => tally.fail(
                1,
                format!("operation {index} panicked: {}", panic_text(&*payload)),
            ),
        }
        index += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    log.finish(start);
    log
}

/// The message of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `setup` `repeats` times (at least once), timing each; returns
/// the timings and the last result.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("setup ran at least once"))
}

/// `|a − b| ≤ tol · scale`, with `scale` floored at the larger magnitude.
pub fn close(a: f64, b: f64, tol: f64, scale: f64) -> bool {
    (a - b).abs() <= tol * scale.max(a.abs()).max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(median(&[2.0, 1.0, 9.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(max_over_median(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(999), Some(0.9));
        assert_eq!(highest_tail(1000), Some(0.99));
        assert_eq!(highest_tail(10_000), Some(0.999));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.9), 0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.5), 50.0);
        let text = describe_tail(&s, "ms");
        assert!(text.contains("p90") && text.contains("100 samples") && text.contains("10 beyond"));
        assert!(describe_tail(&s[..20], "ms").contains("no tail: 20 samples"));
    }

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        // Every run reads its own process's peak; on Linux it is present.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
        }
    }

    #[test]
    fn counting_allocator_tracks_the_heap_peak() {
        let v = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_heap_bytes() >= 8 << 20);
        drop(v);
        assert!(LIVE.load(Ordering::Relaxed) < peak_heap_bytes());
        assert_eq!(
            (counted(COUNTED_BLOCK - 1), counted(COUNTED_BLOCK)),
            (0, COUNTED_BLOCK)
        );
    }

    #[test]
    fn repeats_alternate_direction() {
        let order = alternating(&["a", "b", "c"], 3);
        let names: Vec<&str> = order.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, ["a", "b", "c", "c", "b", "a", "a", "b", "c"]);
        assert_eq!(order[3], (1, "c"));
        assert!(alternating(&["a"], 0).is_empty());
    }

    #[test]
    fn run_for_counts_panics_as_failures_and_keeps_going() {
        let mut tally = Tally::default();
        let log = run_for(
            0.0,
            &mut tally,
            |i, _| if i == 0 { panic!("boom") } else { 3 },
        );
        // A zero-second budget still runs once; that run panicked.
        assert_eq!(log.items, 0);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.messages[0].contains("boom"));
        let mut tally = Tally::default();
        let log = run_for(0.0, &mut tally, |_, t| {
            t.ok(2);
            2
        });
        assert_eq!((log.items, log.op_s.len(), tally.failed), (2, 1, 0));
    }

    #[test]
    fn tally_checks_record_failures() {
        let mut t = Tally::default();
        assert!(t.check(true, || "never".into()));
        assert!(!t.check(false, || "bad value".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.messages, ["bad value"]);
        assert!(close(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!close(1.0, 1.1, 1e-9, 0.0));
        assert!(close(0.0, 1e-10, 1e-9, 1.0));
    }
}
