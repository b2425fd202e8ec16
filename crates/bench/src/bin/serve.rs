//! **serve** — the always-on attribution service, run from the command
//! line: a deterministic demand stream is ingested continuously while
//! tenant threads fire billing-query batches at the latest epoch
//! snapshot, then a load summary is printed and the process exits
//! cleanly (the CI smoke test asserts nonzero throughput and a zero
//! exit code).
//!
//! ```text
//! serve --duration-ms 2000 --tenants 2 --batch 256 \
//!       --splits 4,3 --leaf-samples 4 --max-windows 256 \
//!       --carbon-per-window 1000 --seed 7 [--persist results/service]
//! ```
//!
//! With `--persist <dir>`, every closed window is durably written
//! (tmp + fsync + rename + directory fsync) to `dir/window-*.json`
//! before its epoch is published.

use fairco2_bench::Args;
use fairco2_serve::{run_load, LoadOptions, ServiceConfig};

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &[
    "duration-ms",
    "tenants",
    "batch",
    "max-windows",
    "splits",
    "leaf-samples",
    "step",
    "start",
    "carbon-per-window",
    "seed",
    "persist",
];

fn main() {
    let args = Args::parse(FLAGS);
    let splits: Vec<usize> = args
        .str("splits")
        .unwrap_or("4,3")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|e| panic!("--splits expects comma-separated ratios: {e}"))
        })
        .collect();
    let config = ServiceConfig {
        start: args.i64("start", 0),
        step: args.u32("step", 300),
        splits,
        leaf_samples: args.usize("leaf-samples", 4).max(1),
        carbon_per_window: args.f64("carbon-per-window", 1000.0),
        persist_dir: args.str("persist").map(std::path::PathBuf::from),
    };
    let opts = LoadOptions {
        duration_ms: args.u64("duration-ms", 2_000).max(100),
        tenants: args.usize("tenants", 2).max(1),
        batch: args.usize("batch", 256).max(1),
        max_windows: args.u64("max-windows", 256).max(1),
        seed: args.u64("seed", 7),
    };

    println!(
        "serve: {}-sample windows (splits {:?} × {} leaf samples), {} tenants × {}-query batches, {} ms",
        config.window_samples(),
        config.splits,
        config.leaf_samples,
        opts.tenants,
        opts.batch,
        opts.duration_ms
    );

    let report = match run_load(config, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve: load run failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "serve: ingested {} samples, closed {} windows (epoch {})",
        report.ingested_samples, report.windows_closed, report.final_epoch
    );
    println!(
        "serve: {} queries in {} batches over {:.2}s = {:.0} queries/s, p99 batch {:.1} µs",
        report.queries_answered,
        report.batches_answered,
        report.elapsed_secs,
        report.queries_per_sec,
        report.p99_batch_latency_us
    );
    println!(
        "serve: {:.2} engine ops/sample (amortized O(log n) gauge)",
        report.ops_per_sample
    );

    if report.windows_closed == 0 || report.queries_answered == 0 {
        eprintln!("serve: load run made no progress (no windows closed or no queries answered)");
        std::process::exit(1);
    }
    println!("serve: clean shutdown");
}
