//! Retained memory of a long-running service is linear in windows
//! closed: 100,000 two-sample windows, with the peak resident set checked
//! every 1,000 windows against a fixed budget per window.
//!
//! `VmHWM` is a per-process high-water mark, so this file holds this one
//! test: its test binary runs nothing else that could raise the mark.
//! The mark comes from `/proc`, so the test is Linux-only.

#![cfg(target_os = "linux")]

use fairco2_serve::{demand_sample, AttributionService, ServiceConfig};

/// Windows the soak closes.
const WINDOWS: u64 = 100_000;
/// Retained memory allowed per closed window, in KiB.
const PER_WINDOW_KIB: u64 = 1;
/// Growth allowed regardless of window count (allocator arenas, test
/// harness), in KiB.
const SLACK_KIB: u64 = 16 * 1024;

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status reports VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM is a KiB count")
}

#[test]
fn retained_memory_is_linear_in_windows_closed() {
    let config = ServiceConfig {
        splits: vec![2],
        leaf_samples: 1,
        ..Default::default()
    };
    let w = config.window_samples() as u64;
    let mut service = AttributionService::start(config).unwrap();
    let handle = service.handle();
    let base = peak_rss_kib();
    for k in 1..=WINDOWS {
        for i in (k - 1) * w..k * w {
            service.ingest(demand_sample(i, 11)).unwrap();
        }
        if k % 1_000 == 0 {
            let grown = peak_rss_kib().saturating_sub(base);
            let budget = PER_WINDOW_KIB * k + SLACK_KIB;
            assert!(
                grown <= budget,
                "peak resident set grew {grown} KiB over {k} windows, past the {budget} KiB budget"
            );
        }
    }
    assert_eq!(handle.epoch().epoch, WINDOWS);
}
