//! `billing`: the always-on attribution service with daily windows
//! (splits `[24, 12]`, one sample per leaf, 288 five-minute samples per
//! window). A writer thread ingests one window per pacing interval —
//! `windows` windows spread evenly over the measured seconds — while this
//! thread answers back-to-back monthly statements of `statement` billing
//! queries against the latest epoch until the writer finishes.
//!
//! The reader is lock-free and has no request queue, so it is a closed
//! loop with one client and each statement is timed directly. The writer
//! is paced (open loop); how late it ran against its schedule is
//! reported. Set-up generates the demand and backfills a year of
//! history. Items are billing queries answered.
//!
//! Checks: every statement answers every query with a finite,
//! non-negative charge; every window closes and publishes its epoch; and
//! `check` random queries on the final epoch match a from-scratch rebuild
//! (Temporal Shapley per window, prefixes folded in window order) to
//! 1e-9 relative.

use std::time::{Duration, Instant};

use fairco2_serve::{AttributionService, EpochSnapshot, ServiceConfig};
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_shapley::BillingQuery;
use fairco2_trace::TimeSeries;

use crate::measure::{self, OpLog, Tally};
use crate::trace::Spans;
use crate::{mix, Ctx, Detail, Run, Traced, SETUP_REPEATS};

/// Sampling step (s).
const STEP: u32 = 300;
/// Hierarchy splits, coarsest first: hours of the day, then 5-minute
/// samples of the hour.
const SPLITS: [usize; 2] = [24, 12];
/// Samples per window (one day).
const WINDOW: usize = 288;
/// Carbon attributed per window (gCO₂e).
const CARBON: f64 = 1000.0;
/// Span a monthly statement covers, ending at the latest epoch.
const MONTH_S: i64 = 30 * 86_400;
/// Distinct statement shapes the reader cycles through.
const SHAPES: usize = 16;

/// Wall time of one traced round (all its passes) on the two-core
/// machine the benchmark was calibrated on; a traced run does
/// `seconds / ROUND_S` rounds, a fixed count, so its per-layer counts
/// repeat exactly at a fixed seed.
const ROUND_S: f64 = 0.12;

/// Input streams derived from the run seed.
const DEMAND: u64 = 21;
const QUERIES: u64 = 22;
const CHECK: u64 = 23;

struct Sizes {
    /// Windows backfilled during set-up.
    history: usize,
    /// Windows the writer closes while the reader runs.
    windows: usize,
    /// Queries per statement.
    statement: usize,
    /// Final-epoch queries checked against the rebuild.
    check: usize,
    /// Windows per traced pass.
    trace: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            history: 31,
            windows: 40,
            statement: 64,
            check: 200,
            trace: 20,
        }
    } else {
        Sizes {
            history: 365,
            windows: 4000,
            statement: 4096,
            check: 10_000,
            trace: 1000,
        }
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        start: 0,
        step: STEP,
        splits: SPLITS.to_vec(),
        leaf_samples: 1,
        carbon_per_window: CARBON,
        persist_dir: None,
    }
}

/// Uniform draw in `[0, 1)` from a hashed counter.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Five-minute cluster demand: a diurnal and weekly cycle plus seeded
/// noise, quantized to eighths so peak ties occur, with an idle sample
/// now and then so the stranding path runs too.
fn demand(seed: u64, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let day = i as f64 / WINDOW as f64;
            let noise = unit(seed, i as u64);
            if noise < 0.002 {
                return 0.0;
            }
            let level = 40.0
                + 25.0 * (day * std::f64::consts::TAU).sin().abs()
                + 8.0 * (day / 7.0 * std::f64::consts::TAU).cos()
                + 12.0 * noise;
            (level * 8.0).round() / 8.0
        })
        .collect()
}

/// Statement shapes: per query, seconds before the epoch's end at which
/// its interval ends and starts, and the tenant's allocation.
fn shapes(seed: u64, statement: usize) -> Vec<Vec<(i64, i64, f64)>> {
    (0..SHAPES)
        .map(|s| {
            (0..statement)
                .map(|q| {
                    let i = (s * statement + q) as u64 * 3;
                    let a = (unit(seed, i) * MONTH_S as f64) as i64;
                    let b = (unit(seed, i + 1) * MONTH_S as f64) as i64;
                    let alloc = 0.5 + (unit(seed, i + 2) * 16.0).floor() / 2.0;
                    (a.min(b), a.max(b), alloc)
                })
                .collect()
        })
        .collect()
}

/// The statement of `shape` against an epoch whose coverage ends at `end`.
fn statement(shape: &[(i64, i64, f64)], end: i64, out: &mut Vec<BillingQuery>) {
    out.clear();
    out.extend(
        shape
            .iter()
            .map(|&(near, far, alloc)| (end - far, end - near, alloc)),
    );
}

/// End of the epoch's covered time (s).
fn coverage_end(epoch: &EpochSnapshot) -> i64 {
    epoch.start + epoch.samples() as i64 * i64::from(epoch.step)
}

/// Starts a service and ingests `windows` windows of `samples`.
fn backfill(samples: &[f64], windows: usize, tally: &mut Tally) -> Option<AttributionService> {
    let mut service = match AttributionService::start(config()) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(1, format!("service start: {e}"));
            return None;
        }
    };
    for &v in &samples[..windows * WINDOW] {
        if let Err(e) = service.ingest(v) {
            tally.fail(1, format!("backfill ingest: {e}"));
            return None;
        }
    }
    Some(service)
}

/// Answers a statement and checks every charge is finite and
/// non-negative.
fn answer(epoch: &EpochSnapshot, queries: &[BillingQuery], out: &mut Vec<f64>) -> bool {
    out.clear();
    epoch.carbon_batch_into(queries, out);
    out.len() == queries.len() && out.iter().all(|c| c.is_finite() && *c >= 0.0)
}

/// What the writer thread measured.
struct Writer {
    service: AttributionService,
    publish_us: Vec<f64>,
    late_us: Vec<f64>,
    tally: Tally,
}

/// Ingests windows `first..first + windows` of `samples`, one window per
/// `interval`, timing each window-closing ingest.
fn write(
    mut service: AttributionService,
    samples: &[f64],
    first: usize,
    windows: usize,
    interval: Duration,
) -> Writer {
    let mut publish_us = Vec::with_capacity(windows);
    let mut late_us = Vec::with_capacity(windows);
    let mut tally = Tally::default();
    let start = Instant::now();
    for k in 0..windows {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let window = &samples[(first + k) * WINDOW..(first + k + 1) * WINDOW];
        let mut pushed = true;
        for &v in &window[..WINDOW - 1] {
            pushed &= matches!(service.ingest(v), Ok(None));
        }
        let t = Instant::now();
        let closed = service.ingest(window[WINDOW - 1]);
        publish_us.push(t.elapsed().as_secs_f64() * 1e6);
        let expected = (first + k + 1) as u64;
        tally.check(
            pushed && matches!(closed, Ok(Some(e)) if e == expected),
            || {
                format!(
                    "window {}: ingest did not publish epoch {expected}",
                    first + k
                )
            },
        );
    }
    Writer {
        service,
        publish_us,
        late_us,
        tally,
    }
}

/// The carbon prefix a from-scratch rebuild gives: each window attributed
/// on its own by Temporal Shapley, window totals folded left to right.
fn rebuild_prefix(samples: &[f64], windows: usize, start: i64) -> Result<Vec<f64>, String> {
    let hierarchy = TemporalShapley::new(SPLITS.to_vec());
    let mut prefix = Vec::with_capacity(windows * WINDOW + 1);
    prefix.push(0.0);
    let mut cum = 0.0;
    for k in 0..windows {
        let series = TimeSeries::from_values(
            start + (k * WINDOW) as i64 * i64::from(STEP),
            STEP,
            samples[k * WINDOW..(k + 1) * WINDOW].to_vec(),
        )
        .map_err(|e| format!("window {k}: {e}"))?;
        let attribution = hierarchy
            .attribute(&series, CARBON)
            .map_err(|e| format!("window {k}: {e}"))?;
        let p = attribution.carbon_prefix();
        prefix.extend(p[1..].iter().map(|v| cum + v));
        cum += p[WINDOW];
    }
    Ok(prefix)
}

/// Index of the first sample at or after `t` on the grid, clamped to the
/// covered samples.
fn sample_index(start: i64, samples: usize, t: i64) -> usize {
    let step = i64::from(STEP);
    ((t - start + step - 1).div_euclid(step)).clamp(0, samples as i64) as usize
}

/// Checks `count` random queries on the final epoch against the rebuild.
fn check_final(
    epoch: &EpochSnapshot,
    samples: &[f64],
    seed: u64,
    count: usize,
    corrupt: bool,
    tally: &mut Tally,
) {
    let windows = epoch.windows.len();
    let prefix = match rebuild_prefix(samples, windows, epoch.start) {
        Ok(p) => p,
        Err(e) => {
            tally.fail(1, format!("rebuild failed: {e}"));
            return;
        }
    };
    let n = epoch.samples();
    let span = (n as f64 + 2.0 * WINDOW as f64) * f64::from(STEP);
    let origin = epoch.start - (WINDOW as i64) * i64::from(STEP);
    for q in 0..count as u64 {
        let a = origin + (unit(seed, 3 * q) * span) as i64;
        let b = origin + (unit(seed, 3 * q + 1) * span) as i64;
        let alloc = 0.5 + (unit(seed, 3 * q + 2) * 16.0).floor() / 2.0;
        let (t0, t1) = (a.min(b), a.max(b));
        let mut got = epoch.carbon((t0, t1, alloc));
        if corrupt && q == 0 {
            got += 1.0;
        }
        let (lo, hi) = (
            sample_index(epoch.start, n, t0),
            sample_index(epoch.start, n, t1),
        );
        let want = if hi <= lo {
            0.0
        } else {
            alloc * (prefix[hi] - prefix[lo])
        };
        tally.check(measure::close(got, want, 1e-9, alloc * CARBON), || {
            format!(
                "query ({t0}, {t1}, {alloc}) on epoch {}: {got} vs rebuild {want}",
                epoch.epoch
            )
        });
    }
}

/// Untraced run.
pub fn run(ctx: &Ctx) -> Run {
    let s = sizes(ctx);
    let mut tally = Tally::default();
    let total = s.history + s.windows;
    let (setup_s, prepared) = measure::repeat_setup(SETUP_REPEATS, || {
        let samples = demand(ctx.seed_for(DEMAND, 0), total * WINDOW);
        let mut t = Tally::default();
        let service = backfill(&samples, s.history, &mut t);
        (samples, service, t)
    });
    let (samples, service, setup_tally) = prepared;
    tally.merge(setup_tally);
    let Some(service) = service else {
        return Run {
            setup_s,
            tally,
            ..Run::default()
        };
    };
    let shapes = shapes(ctx.seed_for(QUERIES, 0), s.statement);
    let handle = service.handle();
    let interval = Duration::from_secs_f64(ctx.seconds / s.windows as f64);
    let mut ops = OpLog::default();
    let writer = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write(service, &samples, s.history, s.windows, interval));
        let mut queries = Vec::with_capacity(s.statement);
        let mut out = Vec::with_capacity(s.statement);
        let start = Instant::now();
        let mut k = 0usize;
        while !writer.is_finished() {
            let epoch = handle.epoch();
            statement(&shapes[k % SHAPES], coverage_end(epoch), &mut queries);
            let t = Instant::now();
            let ok = answer(epoch, &queries, &mut out);
            ops.op_s.push(t.elapsed().as_secs_f64());
            ops.items += queries.len() as u64;
            if ok {
                tally.ok(queries.len() as u64);
            } else {
                tally.fail(
                    queries.len() as u64,
                    format!("statement {k} on epoch {}: bad charges", epoch.epoch),
                );
            }
            k += 1;
        }
        ops.finish(start);
        writer.join()
    });
    let writer = match writer {
        Ok(w) => w,
        Err(payload) => {
            tally.fail(
                1,
                format!("writer panicked: {}", measure::panic_text(&*payload)),
            );
            return Run {
                setup_s,
                ops,
                tally,
                ..Run::default()
            };
        }
    };
    tally.merge(writer.tally);
    let closed = writer.service.windows_closed();
    tally.check(closed == total as u64, || {
        format!("{closed} windows closed, expected {total}")
    });
    check_final(
        handle.epoch(),
        &samples,
        ctx.seed_for(CHECK, 0),
        s.check,
        ctx.corrupt,
        &mut tally,
    );

    let query_us: Vec<f64> = ops.op_s.iter().map(|s| s * 1e6).collect();
    let sorted_query = measure::sorted(&query_us);
    let sorted_publish = measure::sorted(&writer.publish_us);
    let sorted_late = measure::sorted(&writer.late_us);
    let details = vec![
        Detail::new(
            "queries_per_s",
            ops.items as f64 / ops.wall_s,
            "1/s",
            format!(
                "{} statements of {} queries, 1 reader",
                query_us.len(),
                s.statement
            ),
        ),
        Detail::new(
            "query_p50_us",
            measure::median(&query_us),
            "us",
            format!("per statement; {}", measure::describe_tail(&query_us, "us")),
        ),
        Detail::new(
            "query_p99_us",
            measure::percentile(&sorted_query, 0.99),
            "us",
            format!(
                "{} samples, {} beyond",
                query_us.len(),
                measure::beyond(query_us.len(), 0.99)
            ),
        ),
        Detail::new(
            "publish_p99_us",
            measure::percentile(&sorted_publish, 0.99),
            "us",
            format!(
                "window-closing ingest; {} samples, {} beyond",
                sorted_publish.len(),
                measure::beyond(sorted_publish.len(), 0.99)
            ),
        ),
        Detail::new(
            "writer_late_p99_us",
            measure::percentile(&sorted_late, 0.99),
            "us",
            format!(
                "writer start behind schedule; {} windows",
                sorted_late.len()
            ),
        ),
        Detail::new(
            "engine_ops_per_sample",
            writer.service.engine_ops() as f64 / (total * WINDOW) as f64,
            "ratio",
            format!("{closed} windows closed"),
        ),
    ];
    Run {
        setup_s,
        ops,
        tally,
        details,
    }
}

/// Counters of one traced or untraced pass.
#[derive(Default)]
struct PassCounts {
    pushes: u64,
    publishes: u64,
    queries: u64,
    ops_per_sample: f64,
}

/// Ingests `windows` windows into `service` on this thread, answering one
/// statement after each, with a span around every library call.
fn pass(
    mut service: AttributionService,
    samples: &[f64],
    first: usize,
    windows: usize,
    shapes: &[Vec<(i64, i64, f64)>],
    spans: &mut Spans,
    tally: &mut Tally,
) -> PassCounts {
    let handle = service.handle();
    let mut counts = PassCounts::default();
    let mut queries = Vec::new();
    let mut out = Vec::new();
    for k in 0..windows {
        let r = (first + k) as u64;
        let window = &samples[(first + k) * WINDOW..(first + k + 1) * WINDOW];
        let root = spans.begin("harness.window", r);
        let pushed = spans.span("serve.push", r, || {
            window[..WINDOW - 1]
                .iter()
                .all(|&v| matches!(service.ingest(v), Ok(None)))
        });
        let closed = spans.span("serve.close_publish", r, || {
            service.ingest(window[WINDOW - 1])
        });
        let epoch = spans.span("serve.epoch_load", r, || handle.epoch());
        statement(&shapes[k % SHAPES], coverage_end(epoch), &mut queries);
        let ok = spans.span("serve.query", r, || answer(epoch, &queries, &mut out));
        spans.end(root);
        tally.check(pushed && matches!(closed, Ok(Some(_))) && ok, || {
            format!("traced window {}", first + k)
        });
        counts.pushes += (WINDOW - 1) as u64;
        counts.publishes += 1;
        counts.queries += queries.len() as u64;
    }
    counts.ops_per_sample = service.engine_ops() as f64 / handle.ingested() as f64;
    // Every epoch ever published is retained until the service goes, so
    // its teardown is part of the serving layer's cost.
    spans.span("serve.teardown", 0, move || drop((handle, service)));
    counts
}

/// Traced run: `seconds / ROUND_S` rounds of a backfilled service taking
/// `trace` more windows, once untraced and once traced (alternating which
/// goes first). The service has no engine around it, so the library's
/// composition is the untraced pass itself.
pub fn trace(ctx: &Ctx) -> Traced {
    let s = sizes(ctx);
    let mut out = Traced::default();
    let total = s.history + s.trace;
    let shapes = shapes(ctx.seed_for(QUERIES, 0), s.statement);
    let mut counts = PassCounts::default();
    for round in 0..ctx.rounds(ROUND_S) {
        let samples = demand(ctx.seed_for(DEMAND, round), total * WINDOW);
        for traced in [round % 2 == 1, round % 2 == 0] {
            let mut tally = Tally::default();
            let Some(service) = backfill(&samples, s.history, &mut tally) else {
                out.tally.fail(1, "backfill failed");
                continue;
            };
            out.spans.set_enabled(traced);
            let t = Instant::now();
            let c = pass(
                service,
                &samples,
                s.history,
                s.trace,
                &shapes,
                &mut out.spans,
                &mut tally,
            );
            out.book(traced, t.elapsed().as_secs_f64(), tally);
            if traced {
                counts.pushes += c.pushes;
                counts.publishes += c.publishes;
                counts.queries += c.queries;
                counts.ops_per_sample = c.ops_per_sample;
            }
        }
    }
    out.library_s = out.untraced_s;
    let publish_us: Vec<f64> = out
        .spans
        .durations("serve.close_publish")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    out.counts.extend([
        ("serve.pushes", counts.pushes as f64),
        ("serve.publishes", counts.publishes as f64),
        ("serve.queries", counts.queries as f64),
        ("serve.engine_ops_per_sample", counts.ops_per_sample),
        (
            "serve.publish_p99_us",
            measure::percentile(&measure::sorted(&publish_us), 0.99),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_index_clamps_like_the_grid() {
        assert_eq!(sample_index(0, 10, -5), 0);
        assert_eq!(sample_index(0, 10, 0), 0);
        assert_eq!(sample_index(0, 10, 1), 1);
        assert_eq!(sample_index(0, 10, 300), 1);
        assert_eq!(sample_index(0, 10, 301), 2);
        assert_eq!(sample_index(0, 10, 1_000_000), 10);
    }
}
