//! **serve** — the always-on attribution service, run from the command
//! line: a deterministic demand stream is ingested continuously while
//! tenant threads fire billing-query batches at the latest epoch
//! snapshot, then the run's counts are printed and the process exits
//! cleanly (the CI smoke test asserts a zero exit code, which needs
//! closed windows and answered queries). Timings come from the
//! benchmark's `billing` workload, not from this binary.
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
        "serve: ingested {} samples, closed {} windows",
        report.ingested_samples, report.windows_closed
    );
    println!(
        "serve: answered {} queries in {} batches",
        report.queries_answered, report.batches_answered
    );
    println!(
        "serve: {:.2} engine ops/sample (amortized O(levels) gauge)",
        report.ops_per_sample
    );

    if report.windows_closed == 0 || report.queries_answered == 0 {
        eprintln!("serve: load run made no progress (no windows closed or no queries answered)");
        std::process::exit(1);
    }
    println!("serve: clean shutdown");
}
