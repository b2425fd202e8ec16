//! The repository benchmark: five workloads over the four Fair-CO₂
//! attribution paths, driven from outside through each layer's public
//! functions.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--out PATH] [--spans DIR]
//! ```
//!
//! Every run of a workload executes in its own child process (this
//! executable re-run with `--child`), so each run's peak heap and peak
//! RSS (`VmHWM`) cover that run alone. A run sets up five times
//! (reporting the median as `setup_s`), then repeats the workload's
//! operation for `--seconds` seconds, then checks the outputs. Its last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! A run whose outputs fail a check prints `"correct": false` and exits
//! with code 1.
//!
//! `--repeat N` runs every selected workload N times with seeds
//! `seed, seed + 1, …`, alternating the workload order between passes,
//! and prints each metric's median and quartiles; `--out` writes the runs
//! and that summary as JSON, with the git revision and the core count.

mod billing;
mod fleet;
mod lp;
mod measure;
mod study;
mod surrogate;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Number, Value};

use measure::{OpLog, Tally};
use trace::{Spans, HARNESS};

/// Worker threads any workload may use (the machine the benchmark was
/// calibrated on has two cores).
pub const THREADS: usize = 2;

/// Percentile reported as `op_tail_ms`; every run completes enough
/// operations to have ten samples beyond it.
pub const TAIL: f64 = 0.9;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

#[global_allocator]
static ALLOCATOR: measure::CountingAlloc = measure::CountingAlloc;

/// A child still running after this long is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// What one run of a workload is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The run's seed; every generated input derives from it.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Shrinks every input to smoke-test size (tests only).
    pub tiny: bool,
    /// Perturbs one checked output so the checks must fail (tests only).
    pub corrupt: bool,
}

impl Ctx {
    /// The seed of item `index` of input stream `stream`. Distinct
    /// streams and items get unrelated seeds.
    pub fn seed_for(&self, stream: u64, index: u64) -> u64 {
        mix(mix(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)) ^ index)
    }

    /// Rounds a traced run makes when one round nominally takes
    /// `round_s`: a count fixed by `seconds`, at least one.
    pub fn rounds(&self, round_s: f64) -> u64 {
        (self.seconds / round_s).round().max(1.0) as u64
    }
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload-specific number for the human-readable report.
#[derive(Debug, Clone)]
pub struct Detail {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value covers (sample counts, sizes).
    pub note: String,
}

impl Detail {
    /// A detail line.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// The timed operations.
    pub ops: OpLog,
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Workload-specific numbers for the report.
    pub details: Vec<Detail>,
}

/// What a traced run recorded.
#[derive(Default)]
pub struct Traced {
    /// Spans around every library call of the traced passes.
    pub spans: Spans,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Per-layer counts and ratios, keyed by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Wall time of the traced passes.
    pub traced_s: f64,
    /// Wall time of the same passes with recording off.
    pub untraced_s: f64,
    /// Wall time of the library's own composition over the same inputs,
    /// on one thread.
    pub library_s: f64,
    /// Whether `library_s` runs through the Monte Carlo engine, so the
    /// gap to the span self-times is engine overhead.
    pub engine: bool,
}

impl Traced {
    /// Books one replay pass: its wall time as traced or untraced, and
    /// the traced pass's operations.
    pub fn book(&mut self, traced: bool, wall_s: f64, tally: Tally) {
        if traced {
            self.traced_s += wall_s;
            self.tally.merge(tally);
        } else {
            self.untraced_s += wall_s;
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Untraced run.
    pub run: fn(&Ctx) -> Run,
    /// Traced run.
    pub trace: fn(&Ctx) -> Traced,
}

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "study",
        why: "Monte Carlo fairness study: exact-Shapley demand trials and colocation trials through the batched engine on 2 threads",
        run: study::run,
        trace: study::trace,
    },
    Workload {
        name: "surrogate",
        why: "the same schedules served by the ridge surrogate with sampled fallback, so the exact solver is bypassed",
        run: surrogate::run,
        trace: surrogate::trace,
    },
    Workload {
        name: "billing",
        why: "monthly billing statements read lock-free from the service while a paced writer closes and publishes daily windows",
        run: billing::run,
        trace: billing::trace,
    },
    Workload {
        name: "fleet",
        why: "VM trace through spatio-temporal placement, per-tenant re-attribution and the sharded cluster simulator",
        run: fleet::run,
        trace: fleet::trace,
    },
    Workload {
        name: "lp",
        why: "LP-valued network game: exact Shapley over every coalition LP and cached permutation sampling on the simplex",
        run: lp::run,
        trace: lp::trace,
    },
];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics every traced run reports; a layer the workload does
/// not touch reads 0. Time metrics (`_s`) are span self-times; the rest
/// are counts and ratios measured at the same call sites.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("montecarlo.schedules_s", "s"),
    ("montecarlo.colocations_s", "s"),
    ("montecarlo.streaming_s", "s"),
    ("montecarlo.harvest_s", "s"),
    ("montecarlo.engine_overhead_s", "s"),
    ("montecarlo.engine_batches", "count"),
    ("montecarlo.engine_retries", "count"),
    ("montecarlo.engine_max_reorder_depth", "count"),
    ("montecarlo.engine_table_grows", "count"),
    ("montecarlo.batch_spread", "ratio"),
    ("shapley.exact_s", "s"),
    ("shapley.exact_coalitions", "count"),
    ("shapley.exact_scatter_s", "s"),
    ("shapley.cascade_s", "s"),
    ("shapley.surrogate_s", "s"),
    ("shapley.surrogate_served", "count"),
    ("shapley.surrogate_served_ratio", "ratio"),
    ("shapley.sampled_s", "s"),
    ("shapley.sampled_evals", "count"),
    ("shapley.sampled_cache_hit_ratio", "ratio"),
    ("core.demand_baselines_s", "s"),
    ("core.metrics_s", "s"),
    ("core.colocation_truth_s", "s"),
    ("core.colocation_rup_s", "s"),
    ("core.colocation_fair_s", "s"),
    ("workloads.history_s", "s"),
    ("forecast.ridge_fit_s", "s"),
    ("serve.push_s", "s"),
    ("serve.pushes", "count"),
    ("serve.close_publish_s", "s"),
    ("serve.publishes", "count"),
    ("serve.publish_p99_us", "us"),
    ("serve.engine_ops_per_sample", "ratio"),
    ("serve.epoch_load_s", "s"),
    ("serve.query_s", "s"),
    ("serve.queries", "count"),
    ("serve.teardown_s", "s"),
    ("trace.scale_generate_s", "s"),
    ("trace.scale_vms", "count"),
    ("trace.scale_collect_s", "s"),
    ("optimize.spatial_regions_s", "s"),
    ("optimize.spatial_placement_s", "s"),
    ("optimize.spatial_placements", "count"),
    ("optimize.spatial_shifted_ratio", "ratio"),
    ("bench.scale_accumulate_s", "s"),
    ("cluster.sharded_s", "s"),
    ("cluster.sharded_peak_nodes", "count"),
    ("solver.cold_lattice_s", "s"),
    ("solver.cold_solves", "count"),
    ("solver.cold_iterations", "count"),
    ("solver.warm_lattice_s", "s"),
    ("solver.warm_iterations", "count"),
    ("solver.warm_hit_ratio", "ratio"),
    ("solver.unroutable", "count"),
    ("harness.span_coverage", "ratio"),
    ("harness.tracing_overhead", "ratio"),
    ("harness.library_wall_s", "s"),
];

/// A metric as measured.
type Metric = (&'static str, f64, &'static str);

fn number(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// The result object: the run's last line of standard output.
fn result_json(tally: &Tally, metrics: &[Metric]) -> (bool, Value) {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_owned(),
                Value::Object(vec![
                    ("value".into(), number(value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            )
        })
        .collect();
    let json = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(tally.attempted.max(1))),
        ),
        ("failed".into(), Value::Number(Number::PosInt(tally.failed))),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    (correct, json)
}

/// The end-to-end metrics of an untraced run, with the report lines
/// that explain them.
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<String>) {
    let ops_ms: Vec<f64> = run.ops.op_s.iter().map(|s| s * 1e3).collect();
    let sorted_ms = measure::sorted(&ops_ms);
    let heap_mib = run.ops.peak_heap_bytes as f64 / (1024.0 * 1024.0);
    let metrics = vec![
        ("setup_s", measure::median(&run.setup_s), "s"),
        ("peak_heap_mib", heap_mib, "MiB"),
        ("items_per_s", run.ops.items as f64 / run.ops.wall_s, "1/s"),
        ("op_p50_ms", measure::median(&ops_ms), "ms"),
        ("op_tail_ms", measure::percentile(&sorted_ms, TAIL), "ms"),
    ];
    let rss = run.ops.peak_rss_kib.map_or_else(
        || "unavailable".to_owned(),
        |kib| format!("{:.3} MiB", kib as f64 / 1024.0),
    );
    let mut lines = vec![
        format!("peak heap {heap_mib:.3} MiB, peak RSS (VmHWM) {rss}, both at the end of the measured phase"),
        format!(
            "setup: {} set-ups, {}",
            run.setup_s.len(),
            run.setup_s.iter().map(|s| format!("{s:.4} s")).collect::<Vec<_>>().join(", ")
        ),
        format!(
            "operations: {} in {:.3} s, {} items; latency p50 {:.4} ms, {}",
            ops_ms.len(),
            run.ops.wall_s,
            run.ops.items,
            measure::median(&ops_ms),
            measure::describe_tail(&ops_ms, "ms")
        ),
    ];
    let beyond = measure::beyond(ops_ms.len(), TAIL);
    if beyond < measure::MIN_BEYOND {
        lines.push(format!(
            "warning: op_tail_ms is p{} with only {beyond} samples beyond it",
            TAIL * 100.0
        ));
    }
    (metrics, lines)
}

/// The per-layer metrics of a traced run: span self-times per layer plus
/// the workload's counts, every [`PER_LAYER`] name present.
fn per_layer(traced: &Traced) -> (Vec<Metric>, Vec<String>) {
    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut layer_self = 0.0;
    let mut rows = Vec::new();
    for (name, total) in traced.spans.totals() {
        rows.push(format!(
            "{name:<32} {:>10.5} s {:>9} calls",
            total.self_s, total.calls
        ));
        if name.starts_with(HARNESS) {
            continue;
        }
        let key = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix("_s") == Some(name))
            .unwrap_or_else(|| panic!("span {name} has no per-layer metric"));
        *values.get_mut(key).expect("key comes from PER_LAYER") += total.self_s;
        layer_self += total.self_s;
    }
    for (&name, &v) in &traced.counts {
        let slot = values
            .get_mut(name)
            .unwrap_or_else(|| panic!("count {name} is not a per-layer metric"));
        *slot = v;
    }
    values.insert("harness.span_coverage", layer_self / traced.traced_s);
    values.insert(
        "harness.tracing_overhead",
        traced.traced_s / traced.untraced_s,
    );
    values.insert("harness.library_wall_s", traced.library_s);
    if traced.engine {
        values.insert(
            "montecarlo.engine_overhead_s",
            traced.library_s - layer_self,
        );
    }
    let mut lines = vec![format!(
        "{:<32} {:>12} {:>15}",
        "span", "self time", "calls"
    )];
    lines.extend(rows);
    lines.push(format!(
        "traced wall {:.4} s, untraced {:.4} s (tracing overhead {:.3}x); layer self-time {:.4} s covers {:.1}% of the traced wall",
        traced.traced_s,
        traced.untraced_s,
        traced.traced_s / traced.untraced_s,
        layer_self,
        100.0 * layer_self / traced.traced_s
    ));
    if traced.engine {
        lines.push(format!(
            "library composition on 1 thread {:.4} s; engine overhead {:.4} s",
            traced.library_s,
            traced.library_s - layer_self
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();
    (metrics, lines)
}

/// Runs one workload in this process and prints its report; returns
/// whether its outputs passed every check.
fn child(name: &str, ctx: &Ctx, traced: bool, spans_dir: &Path) -> bool {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("workload names are validated before dispatch");
    println!(
        "benchmark {} seed={} seconds={} threads={} available_cores={} trace={}",
        w.name,
        ctx.seed,
        ctx.seconds,
        THREADS,
        available_cores(),
        u8::from(traced)
    );
    let (tally, metrics, lines) = if traced {
        let t = (w.trace)(ctx);
        let (metrics, lines) = per_layer(&t);
        let path = spans_dir.join(format!("spans-{}-{}.jsonl", w.name, ctx.seed));
        let header = Value::Object(vec![
            ("workload".into(), Value::String(w.name.into())),
            ("seed".into(), Value::Number(Number::PosInt(ctx.seed))),
            ("revision".into(), Value::String(git_revision())),
            (
                "available_cores".into(),
                Value::Number(Number::PosInt(available_cores() as u64)),
            ),
        ]);
        match t.spans.write_jsonl(&path, &header) {
            Ok(()) => println!(
                "spans: {} written to {}",
                t.spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        (t.tally, metrics, lines)
    } else {
        let run = (w.run)(ctx);
        let (metrics, mut lines) = end_to_end(&run);
        for d in &run.details {
            lines.push(format!("{} {:.6} {} ({})", d.name, d.value, d.unit, d.note));
        }
        let failed_ratio = run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
        lines.push(format!(
            "failed_ratio {failed_ratio} ({} of {} operations failed)",
            run.tally.failed, run.tally.attempted
        ));
        (run.tally, metrics, lines)
    };
    for line in &lines {
        println!("{}: {line}", w.name);
    }
    for (name, value, unit) in &metrics {
        println!("{}: {name} = {value} {unit}", w.name);
    }
    for m in &tally.messages {
        eprintln!("{}: check failed: {m}", w.name);
    }
    let (correct, json) = result_json(&tally, &metrics);
    println!("{}", trace::to_json(&json));
    correct
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The git revision of the checkout in the working directory (with
/// `-dirty` when it has uncommitted changes), or `unknown` when the
/// working directory is not a checkout's root.
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    spans: PathBuf,
    child: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out PATH] [--spans DIR]";

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            workload: "all".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            repeat: 1,
            out: None,
            spans: PathBuf::from("benchmark/out"),
            child: false,
        };
        let mut seen = Vec::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if seen.contains(&flag) {
                return Err(format!("{flag} given twice"));
            }
            seen.push(flag.clone());
            if flag == "--child" {
                a.child = true;
                continue;
            }
            let value = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" | "--repeat" | "--out"
                | "--spans" => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
                _ => return Err(format!("unknown argument {flag}")),
            };
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                        return Err(bad("must lie in (0, 120]"));
                    }
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--repeat" => {
                    a.repeat = value.parse().map_err(|_| bad("not a whole number"))?;
                    if a.repeat == 0 {
                        return Err(bad("must be at least 1"));
                    }
                }
                "--out" => a.out = Some(PathBuf::from(&value)),
                _ => a.spans = PathBuf::from(&value),
            }
        }
        if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {}; expected all or one of {names:?}",
                a.workload
            ));
        }
        if a.child && (a.workload == "all" || a.repeat != 1) {
            return Err("--child runs exactly one workload once".into());
        }
        Ok(a)
    }
}

/// Runs one workload as a child process, echoing its output; returns its
/// exit success and its last output line.
fn run_child(exe: &Path, args: &Args, name: &str, seed: u64) -> (bool, Option<String>) {
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(&args.spans);
    let mut child = match cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start {}: {e}", exe.display());
            return (false, None);
        }
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut last = None;
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
            last = Some(line);
        }
        last
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                eprintln!(
                    "{name}: run exceeded {} s; stopping it",
                    CHILD_TIMEOUT.as_secs()
                );
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("{name}: cannot wait for the run: {e}");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let last = reader.join().expect("output reader does not panic");
    (status.is_some_and(|s| s.success()), last)
}

/// Median and quartiles per (workload, metric) over repeated runs.
fn summarize(runs: &[(String, u64, Value)]) -> (Value, Vec<String>) {
    let mut by: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    for (name, _, json) in runs {
        for (metric, m) in json
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            let value = match m.get("value") {
                Some(Value::Number(Number::Float(v))) => *v,
                _ => continue,
            };
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            let slot = by
                .entry((name.clone(), metric.clone()))
                .or_insert_with(|| (Vec::new(), unit));
            slot.0.push(value);
        }
    }
    let mut lines = vec![format!(
        "{:<10} {:<36} {:>14} {:>14} {:>14} {:>8} runs",
        "workload", "metric", "q1", "median", "q3", "spread"
    )];
    let mut rows = Vec::new();
    for ((name, metric), (values, unit)) in &by {
        let [q1, q2, q3] = measure::quartiles(values);
        let spread = measure::spread(values);
        lines.push(format!(
            "{name:<10} {metric:<36} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}% {}",
            100.0 * spread,
            values.len()
        ));
        rows.push(Value::Object(vec![
            ("workload".into(), Value::String(name.clone())),
            ("metric".into(), Value::String(metric.clone())),
            ("unit".into(), Value::String(unit.clone())),
            (
                "runs".into(),
                Value::Number(Number::PosInt(values.len() as u64)),
            ),
            ("q1".into(), number(q1)),
            ("median".into(), number(q2)),
            ("q3".into(), number(q3)),
            ("spread".into(), number(spread)),
        ]));
    }
    (Value::Array(rows), lines)
}

fn parent(args: &Args) -> bool {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    let mut runs = Vec::new();
    for (pass, name) in measure::alternating(&names, args.repeat) {
        let seed = args.seed.wrapping_add(pass as u64);
        let (ok, last) = run_child(&exe, args, name, seed);
        let json = last.and_then(|l| serde_json::from_str::<Value>(&l).ok());
        let correct = json.as_ref().and_then(|j| j.get("correct")) == Some(&Value::Bool(true));
        all_ok &= ok && correct;
        if let Some(json) = json {
            runs.push((name.to_owned(), seed, json));
        }
    }
    if args.repeat == 1 && args.out.is_none() {
        return all_ok;
    }
    let (summary, lines) = summarize(&runs);
    println!("summary over {} runs:", runs.len());
    for line in &lines {
        println!("{line}");
    }
    if let Some(out) = &args.out {
        let report = Value::Object(vec![
            ("revision".into(), Value::String(git_revision())),
            (
                "available_cores".into(),
                Value::Number(Number::PosInt(available_cores() as u64)),
            ),
            (
                "threads".into(),
                Value::Number(Number::PosInt(THREADS as u64)),
            ),
            ("seconds".into(), number(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            (
                "first_seed".into(),
                Value::Number(Number::PosInt(args.seed)),
            ),
            ("summary".into(), summary),
            (
                "runs".into(),
                Value::Array(
                    runs.into_iter()
                        .map(|(name, seed, json)| {
                            Value::Object(vec![
                                ("workload".into(), Value::String(name)),
                                ("seed".into(), Value::Number(Number::PosInt(seed))),
                                ("result".into(), json),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let text = serde_json::to_string_pretty(&report).expect("JSON values serialize");
        if let Err(e) = std::fs::write(out, text + "\n") {
            eprintln!("cannot write {}: {e}", out.display());
            return false;
        }
        println!("wrote {}", out.display());
    }
    all_ok
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.child {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            tiny: false,
            corrupt: false,
        };
        child(&args.workload, &ctx, args.trace, &args.spans)
    } else {
        parent(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 0.05,
            tiny: true,
            corrupt: false,
        }
    }

    #[test]
    fn arguments_parse_and_reject_mistakes() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload lp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lp", 7, 10.0, true)
        );
        assert_eq!(parse("").unwrap().workload, "all");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed 1 --seed 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--child --workload all").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.ok(3);
        let (correct, json) = result_json(&tally, &[("setup_s", 0.25, "s")]);
        assert!(correct);
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        tally.fail(1, "bad");
        assert!(!result_json(&tally, &[]).0);
        let mut ok = Tally::default();
        ok.ok(1);
        assert!(
            !result_json(&ok, &[("x", f64::NAN, "s")]).0,
            "a non-finite metric is not a result"
        );
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|v| v.get("name").and_then(Value::as_str).unwrap().to_owned())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names("per_layer"), layers);
        for (w, entry) in WORKLOADS
            .iter()
            .zip(json.get("workloads").and_then(Value::as_array).unwrap())
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
        }
    }

    /// Every workload at smoke-test size, every check on: untraced runs
    /// report every end-to-end metric and fail nothing; traced runs
    /// report every per-layer metric.
    #[test]
    fn smoke_every_workload_untraced_and_traced() {
        for w in &WORKLOADS {
            let ctx = tiny(3);
            let run = (w.run)(&ctx);
            assert_eq!(run.tally.failed, 0, "{}: {:?}", w.name, run.tally.messages);
            assert!(run.ops.items > 0 && !run.setup_s.is_empty(), "{}", w.name);
            let (metrics, _) = end_to_end(&run);
            let (correct, json) = result_json(&run.tally, &metrics);
            assert!(correct, "{}: {json:?}", w.name);
            for (name, value, _) in &metrics {
                assert!(*value > 0.0, "{}: {name} = {value}", w.name);
            }
            let traced = (w.trace)(&ctx);
            assert_eq!(
                traced.tally.failed, 0,
                "{}: {:?}",
                w.name, traced.tally.messages
            );
            let (layers, _) = per_layer(&traced);
            assert_eq!(layers.len(), PER_LAYER.len());
            assert!(
                traced.traced_s > 0.0 && traced.untraced_s > 0.0,
                "{}",
                w.name
            );
        }
    }

    /// A corrupted output makes every workload's checks fail, so the run
    /// reports `correct: false` and exits non-zero.
    #[test]
    fn smoke_injected_bad_value_fails_every_workload() {
        for w in &WORKLOADS {
            let ctx = Ctx {
                corrupt: true,
                ..tiny(4)
            };
            let run = (w.run)(&ctx);
            assert!(
                run.tally.failed > 0,
                "{}: corruption went unnoticed",
                w.name
            );
            let (metrics, _) = end_to_end(&run);
            assert!(!result_json(&run.tally, &metrics).0, "{}", w.name);
        }
    }
}
