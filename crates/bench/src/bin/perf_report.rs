//! **Performance report** — machine-readable timings for the three
//! optimizations of this PR, written to `results/BENCH_shapley.json`:
//!
//! * serial versus parallel exact enumeration (`parallel_exact_shapley`)
//!   across player counts (bit-identity asserted on every trial);
//! * cached versus uncached permutation sampling
//!   (`sampled_shapley_cached`), with eval counts and cache hit rate;
//! * the Gray-code table fill through the segment-tree toggle versus the
//!   original dense re-scan (`ScanPeak`);
//! * a `monte_carlo` section timing the Figure-7 demand study end to end —
//!   the pre-streaming baseline (fresh per-trial allocations, segment-tree
//!   fill, per-player marginal accumulation, replicated below from public
//!   APIs), the collect-then-summarize path, and the streaming engine,
//!   plus the checkpoint layer's costs (snapshot write/restore wall time
//!   and bytes, with a kill-and-resume bit-identity check on a capped
//!   sub-study) — written separately to `results/BENCH_montecarlo.json`;
//! * a `temporal` section timing the flat Temporal Shapley cascade against
//!   the retained per-period path on a year-long 5-minute trace under the
//!   paper hierarchy (closeness asserted), plus batched
//!   `workload_carbon_batch` billing-query throughput — written to
//!   `results/BENCH_temporal.json`;
//! * a `service` section driving the always-on attribution service
//!   (`fairco2-serve`) under concurrent ingest + query load: sustained
//!   queries per second and p99 batch latency while epochs publish, a
//!   bit-identity gate against a from-scratch rebuild, and sharded batch
//!   throughput — written to `results/BENCH_service.json`;
//! * a `kernels` section timing each lane-parallel cascade kernel against
//!   its serial reference loop on the year-long trace — the fused
//!   per-period sweep and the leaf carbon prefix — reporting GB/s and
//!   elements/ns per kernel with the equality/closeness gates asserted in
//!   the same run, plus a thread-scaling curve (1/2/4/… up to `--threads`) for
//!   the `run_parallel`-backed paths — written to
//!   `results/BENCH_kernels.json`;
//! * a `surrogate` section running the surrogate-accelerated attribution
//!   benchmark (harvest → cross-fitted ridge fit → error-bounded serving
//!   vs the streaming engine) with its determinism and accuracy gates
//!   asserted in-binary before timing — written to
//!   `results/BENCH_surrogate.json` (the dedicated `surrogate` binary
//!   runs the same pipeline at the full 10,000-trial scale);
//! * a `network` section running the LP-valued network attribution game
//!   on the vendored revised simplex: full-lattice duality-gap
//!   certificates, warm-vs-cold bit-identity, and 1/2/8-thread
//!   bit-invariance asserted before timing the lattice fills and exact
//!   Shapley solves, with the warm-start iteration-savings ratio as the
//!   headline — written to `results/BENCH_network.json`.
//!
//! `--section all|shapley|monte-carlo|temporal|service|kernels|surrogate|network`
//! picks one section (default `all`). Tune with `--trials N --threads N
//! --max-n N --permutations N --mc-trials N --temporal-samples N
//! --temporal-queries N --service-ms N --service-tenants N
//! --service-batch N --surrogate-trials N --surrogate-train N
//! --surrogate-audit N --tolerance X --budget X --net-tenants N
//! --seed N`. Each scenario reports the best wall-clock
//! over the trials (the usual benchmarking floor) plus the work counters
//! of one run, and the process-wide peak RSS (`VmHWM`) is recorded at the
//! end of each section.

use std::time::Instant;

use fairco2::demand::{DemandAttributor, DemandProportional, RupBaseline, TemporalFairCo2};
use fairco2::metrics::{summarize, DeviationSummary};
use fairco2_bench::surrogate::print_surrogate;
use fairco2_bench::{
    print_network, run_network, run_surrogate, write_json, Args, NetworkStudy, SurrogateStudy,
};
use fairco2_cluster::policy::FirstFit;
use fairco2_cluster::{run_sharded, Job, JobStream, Simulator};
use fairco2_montecarlo::checkpoint::demand_fingerprint;
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::streaming::{DemandStudySummary, DEFAULT_BATCH_TRIALS};
use fairco2_montecarlo::{
    stream_demand_study, stream_demand_study_resumable, CheckpointSpec, DemandSnapshot,
    EngineConfig, EngineError, EngineStats, FaultPlan, StudyOptions, WriteFault,
};
use fairco2_serve::{demand_sample, run_load, AttributionService, LoadOptions, ServiceConfig};
use fairco2_shapley::cascade::{BillingQuery, CascadeScratch};
use fairco2_shapley::default_threads;
use fairco2_shapley::exact::{exact_shapley, exact_shapley_fast, parallel_exact_shapley};
use fairco2_shapley::game::{Game, PeakDemandGame, ScanPeak};
use fairco2_shapley::kernels::{
    hierarchy_bounds, level_sums_lanes, level_sums_scalar, prefix_blocked, prefix_scalar,
    CANONICAL_LANES, PREFIX_BLOCK,
};
use fairco2_shapley::sampled::{sampled_shapley, sampled_shapley_cached, SampleConfig};
use fairco2_shapley::temporal::{TemporalAttribution, TemporalShapley};
use fairco2_shapley::MaxTree;
use fairco2_trace::scale::ScaleVmConfig;
use fairco2_trace::TimeSeries;
use fairco2_workloads::ALL_WORKLOADS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

#[derive(Serialize)]
struct PerfReport {
    threads: usize,
    trials: usize,
    exact: Vec<ExactRow>,
    sampling: Vec<SamplingRow>,
    toggle: Vec<ToggleRow>,
    /// Process peak RSS (`VmHWM` from `/proc/self/status`) in KiB, when
    /// the platform exposes it. Dominated by the largest exact table.
    peak_rss_kib: Option<u64>,
}

#[derive(Serialize)]
struct ExactRow {
    players: usize,
    serial_secs: f64,
    parallel_secs: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SamplingRow {
    players: usize,
    permutations: usize,
    uncached_secs: f64,
    cached_secs: f64,
    uncached_evals: u64,
    cached_evals: u64,
    cache_hit_rate: f64,
}

#[derive(Serialize)]
struct ToggleRow {
    players: usize,
    steps: usize,
    scan_secs: f64,
    tree_secs: f64,
    speedup: f64,
}

/// End-to-end demand-study throughput, written to
/// `results/BENCH_montecarlo.json`.
#[derive(Serialize)]
struct MonteCarloReport {
    /// Study trials timed per variant (`--mc-trials`).
    trials: usize,
    /// Workload cap of the study (the paper's 22 → up to 2²² coalitions).
    max_workloads: usize,
    /// Pre-streaming per-trial path: fresh allocations, segment-tree Gray
    /// fill, per-player marginal accumulation.
    baseline_secs: f64,
    baseline_trials_per_sec: f64,
    /// Current solver, but trials collected into a `Vec` and summarized
    /// at the end (the pre-engine driver shape).
    collect_secs: f64,
    collect_trials_per_sec: f64,
    /// Streaming engine on one thread: scratch arenas + constant-memory
    /// summary accumulators.
    streaming_secs: f64,
    streaming_trials_per_sec: f64,
    /// Streaming vs the pre-streaming baseline (the headline number).
    speedup_vs_baseline: f64,
    /// Streaming vs collect-then-summarize within the current build.
    speedup_vs_collect: f64,
    /// Engine counters from the streaming run (batches, scratch reuse).
    engine: EngineStats,
    /// Trials of the capped kill/resume sub-study below.
    checkpoint_trials: usize,
    /// Snapshot file size on disk after the mid-run kill (bytes).
    checkpoint_bytes: u64,
    /// Best wall time of one atomic snapshot write (tmp + fsync + rename).
    checkpoint_write_secs: f64,
    /// Best wall time to load one snapshot back, including version,
    /// digest, and config-fingerprint validation.
    checkpoint_restore_secs: f64,
    /// The killed-then-resumed summary serialized to the same bytes as
    /// the uninterrupted run (asserted; recorded for the report).
    checkpoint_resume_bit_identical: bool,
    /// Process peak RSS (`VmHWM`) in KiB after the study runs.
    peak_rss_kib: Option<u64>,
}

/// Flat-cascade throughput on the fleet-scale trace, written to
/// `results/BENCH_temporal.json`.
#[derive(Serialize)]
struct TemporalReport {
    /// Demand samples in the trace (default: one year at 5 minutes).
    samples: usize,
    /// Sampling step (s).
    step: u32,
    /// Hierarchy split ratios (the paper's Figure 4 cascade).
    splits: Vec<usize>,
    /// Leaf periods of the hierarchy.
    leaf_periods: usize,
    /// Owned per-period `TimeSeries` the old path materializes per call
    /// (1 root clone + every split product) — all avoided by the flat
    /// engine, which also reuses its scratch across calls.
    old_series_clones: usize,
    /// Retained per-period reference path, fresh call.
    per_period_secs: f64,
    /// Flat cascade, fresh call (new scratch every time).
    flat_fresh_secs: f64,
    /// Flat cascade through a reused `CascadeScratch` (allocation-free
    /// steady state).
    flat_scratch_secs: f64,
    /// Flat cascade with per-level parallel splits at `--threads`.
    flat_parallel_secs: f64,
    /// Fresh flat call vs the per-period reference (the ≥5× target).
    speedup_fresh: f64,
    /// Scratch-reuse flat call vs the per-period reference.
    speedup_scratch: f64,
    /// Billing queries answered per `workload_carbon_batch` timing run.
    queries: usize,
    /// Batched query wall time (one thread, reused output buffer).
    batch_secs: f64,
    /// Batched queries per second (the ≥10⁶/s target).
    queries_per_sec: f64,
    /// Process peak RSS (`VmHWM`) in KiB after the temporal runs.
    peak_rss_kib: Option<u64>,
}

/// Per-kernel reference-versus-lane timings on the year-long trace,
/// written to `results/BENCH_kernels.json`.
#[derive(Serialize)]
struct KernelsReport {
    /// Demand samples in the trace (default: one year at 5 minutes).
    samples: usize,
    /// Sampling step (s).
    step: u32,
    /// Hierarchy split ratios driving the sweep kernel.
    splits: Vec<usize>,
    /// Accumulator lanes of the canonical reduction.
    lanes: usize,
    /// Block length of the two-level prefix.
    prefix_block: usize,
    /// Players of the exact game timed in the thread-scaling curve.
    scaling_players: usize,
    /// One row per kernel: fused sweep, leaf prefix.
    kernels: Vec<KernelRow>,
    /// Every equality/closeness gate between the reference and lane
    /// paths held before any timing ran (asserted; recorded for the
    /// report).
    gates_passed: bool,
    /// Cores the OS reports — speedup curves below are flat when this
    /// is 1 (single-CPU runners time slice the worker threads).
    available_cores: usize,
    /// `run_parallel`-backed paths at 1/2/4/… threads up to `--threads`.
    thread_scaling: Vec<ScalingRow>,
    /// Process peak RSS (`VmHWM`) in KiB.
    peak_rss_kib: Option<u64>,
}

/// One lane-parallel kernel against its serial reference loop (the
/// `scalar_*` fields).
#[derive(Serialize)]
struct KernelRow {
    kernel: &'static str,
    /// Samples per timing pass.
    elems: usize,
    /// Memory traffic per pass the rates below are computed from.
    bytes: u64,
    scalar_secs: f64,
    lane_secs: f64,
    /// Reference over lane wall time.
    speedup: f64,
    scalar_gb_per_sec: f64,
    lane_gb_per_sec: f64,
    scalar_elems_per_ns: f64,
    lane_elems_per_ns: f64,
}

impl KernelRow {
    fn new(
        kernel: &'static str,
        elems: usize,
        bytes: u64,
        scalar_secs: f64,
        lane_secs: f64,
    ) -> Self {
        let gb = bytes as f64 / 1.0e9;
        KernelRow {
            kernel,
            elems,
            bytes,
            scalar_secs,
            lane_secs,
            speedup: scalar_secs / lane_secs,
            scalar_gb_per_sec: gb / scalar_secs,
            lane_gb_per_sec: gb / lane_secs,
            scalar_elems_per_ns: elems as f64 / (scalar_secs * 1.0e9),
            lane_elems_per_ns: elems as f64 / (lane_secs * 1.0e9),
        }
    }
}

/// One point of the thread-scaling curve (results asserted bit-identical
/// to one-thread runs before timing).
#[derive(Serialize)]
struct ScalingRow {
    threads: usize,
    /// `TemporalShapley::attribute_parallel` on the year trace.
    attribute_secs: f64,
    /// `parallel_exact_shapley` on the scaling game.
    exact_secs: f64,
    /// Wall-time ratios versus the 1-thread row.
    attribute_speedup: f64,
    exact_speedup: f64,
}

/// Asserts two attributions agree within `tol` relative error in every
/// observable — the lane canonical reassociates sums, so
/// lane-vs-reference comparisons are closeness pins, not bit pins.
fn assert_attributions_close(
    label: &str,
    a: &TemporalAttribution,
    b: &TemporalAttribution,
    tol: f64,
) {
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
    assert_eq!(a.level_intensity().len(), b.level_intensity().len());
    for (la, lb) in a.level_intensity().iter().zip(b.level_intensity()) {
        for (va, vb) in la.values().iter().zip(lb.values()) {
            assert!(close(*va, *vb), "{label}: level intensity {va} vs {vb}");
        }
    }
    for (va, vb) in a.carbon_prefix().iter().zip(b.carbon_prefix()) {
        assert!(close(*va, *vb), "{label}: carbon prefix {va} vs {vb}");
    }
    assert!(
        close(a.stranded_carbon(), b.stranded_carbon()),
        "{label}: stranded carbon"
    );
}

/// Asserts two attributions agree bit-for-bit in every observable.
fn assert_attributions_identical(label: &str, a: &TemporalAttribution, b: &TemporalAttribution) {
    assert_eq!(a.level_intensity().len(), b.level_intensity().len());
    for (la, lb) in a.level_intensity().iter().zip(b.level_intensity()) {
        for (va, vb) in la.values().iter().zip(lb.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{label}: level intensity");
        }
    }
    for (va, vb) in a.carbon_prefix().iter().zip(b.carbon_prefix()) {
        assert_eq!(va.to_bits(), vb.to_bits(), "{label}: carbon prefix");
    }
    assert_eq!(
        a.stranded_carbon().to_bits(),
        b.stranded_carbon().to_bits(),
        "{label}: stranded carbon"
    );
}

fn peak_game(n: usize, steps: usize, seed: u64) -> PeakDemandGame {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand = (0..n)
        .map(|_| (0..steps).map(|_| rng.gen_range(0.0..96.0)).collect())
        .collect();
    PeakDemandGame::new(demand)
}

/// Schedule-shaped demand: each workload occupies a contiguous window of
/// `steps / 32` slices, so rows are sparse the way schedule-derived demand
/// matrices are. The segment-tree toggle's `O(|support| · log steps)`
/// beats the dense re-scan only under this sparsity; on fully dense rows
/// the linear scan is competitive.
fn windowed_peak_game(n: usize, steps: usize, seed: u64) -> PeakDemandGame {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = (steps / 32).max(1);
    let demand = (0..n)
        .map(|p| {
            let start = p * (steps - window) / n.max(2);
            (0..steps)
                .map(|t| {
                    if (start..start + window).contains(&t) {
                        rng.gen_range(1.0..96.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    PeakDemandGame::new(demand)
}

/// Shapley marginal weights `w[k] = k!(n-1-k)!/n!` for coalitions of size
/// `k` not containing the player.
fn marginal_weights(n: usize) -> Vec<f64> {
    let mut w = vec![0.0; n];
    w[0] = 1.0 / n as f64;
    for k in 1..n {
        w[k] = w[k - 1] * k as f64 / (n - k) as f64;
    }
    w
}

/// The pre-streaming exact solver, replicated from public APIs as the
/// baseline for the `monte_carlo` section: a fresh 2ⁿ table per call,
/// filled along the Gray sequence through a [`MaxTree`] toggle, then one
/// marginal-difference accumulation pass per player. The production path
/// replaced the tree with a flat re-scan at schedule-sized step counts and
/// the per-player passes with a single scatter pass over the table.
fn baseline_exact(game: &PeakDemandGame) -> Vec<f64> {
    let n = game.player_count();
    let size = 1u64 << n;
    let mut table = vec![0.0f64; size as usize];
    let mut sums = MaxTree::new(game.steps());
    let mut members = vec![false; n];
    for g in 1..size {
        let gray = g ^ (g >> 1);
        let prev = (g - 1) ^ ((g - 1) >> 1);
        let player = (gray ^ prev).trailing_zeros() as usize;
        let sign = if members[player] { -1.0 } else { 1.0 };
        members[player] = !members[player];
        for (t, &d) in game.demand()[player].iter().enumerate() {
            if d != 0.0 {
                sums.add(t, sign * d);
            }
        }
        table[gray as usize] = sums.max();
    }
    let weights = marginal_weights(n);
    let mut phi = vec![0.0; n];
    for (p, phi_p) in phi.iter_mut().enumerate() {
        let bit = 1u64 << p;
        for mask in 0..size {
            if mask & bit == 0 {
                let k = mask.count_ones() as usize;
                *phi_p += weights[k] * (table[(mask | bit) as usize] - table[mask as usize]);
            }
        }
    }
    phi
}

/// One demand-study trial on the pre-streaming path: fresh generation
/// buffers, [`baseline_exact`] ground truth, allocating attributors.
/// Mirrors `DemandStudy::run_trial` with the optimized solver swapped out.
fn baseline_demand_trial(study: &DemandStudy, trial: usize) -> [DeviationSummary; 3] {
    let schedule = study.generate_schedule(trial);
    let pool = 1000.0;
    let game = PeakDemandGame::new(schedule.demand_matrix());
    let mut truth = baseline_exact(&game);
    let total: f64 = truth.iter().sum();
    assert!(total > 0.0, "generated schedules have positive peak");
    for v in &mut truth {
        *v = pool * *v / total;
    }
    let dev = |method: &dyn DemandAttributor| {
        let shares = method
            .attribute(&schedule, pool)
            .expect("generated schedules are attributable");
        summarize(&shares, &truth).expect("ground truth has non-zero shares")
    };
    [
        dev(&RupBaseline),
        dev(&DemandProportional),
        dev(&TemporalFairCo2::per_step()),
    ]
}

/// Best wall-clock over `trials` runs of `f`.
fn best_secs<T>(trials: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Best wall-clock for each of two kernels, with the trials
/// *interleaved* (`a`, `b`, `a`, `b`, …) rather than phased. On a
/// shared machine a load spike that spans one phase would skew a
/// phased A-then-B comparison in whichever direction it landed;
/// alternating the pair means any quiet window donates a best trial to
/// both sides, so the reported ratio reflects the kernels, not the
/// neighbors.
fn best_secs_pair<T, U>(
    trials: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(start.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

/// Deterministic VM → cluster-job mapping for the scale section: the
/// workload kind comes from a multiplicative hash of the job index and
/// the arrival is the VM's creation time. `collect_events` emits VMs
/// with non-decreasing starts, so the stream build skips the re-sort.
fn vm_jobs(vms: &[fairco2_trace::vms::VmEvent]) -> Vec<Job> {
    vms.iter()
        .enumerate()
        .map(|(id, vm)| Job {
            id,
            kind: ALL_WORKLOADS[((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
                % ALL_WORKLOADS.len()],
            arrival_s: vm.start.max(0) as f64,
        })
        .collect()
}

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &[
    "trials",
    "threads",
    "max-n",
    "permutations",
    "seed",
    "mc-trials",
    "temporal-samples",
    "temporal-queries",
    "section",
    "service-ms",
    "service-tenants",
    "service-batch",
    "service-windows",
    "service-leaf-samples",
    "scale-vms",
    "scale-days",
    "shards",
    "surrogate-trials",
    "surrogate-train",
    "surrogate-audit",
    "tolerance",
    "budget",
    "net-tenants",
];

/// Sections `--section` can pick. `scale` is opt-in only: its full-size
/// run streams ~2M VMs end to end, which is too heavy for `all`.
const SECTIONS: &[&str] = &[
    "all",
    "shapley",
    "monte-carlo",
    "temporal",
    "service",
    "kernels",
    "surrogate",
    "network",
    "scale",
];

fn main() {
    let args = Args::parse(FLAGS);
    let trials = args.usize("trials", 5).max(1);
    let threads = args.usize("threads", default_threads());
    let max_n = args.usize("max-n", 20).max(1);
    let permutations = args.usize("permutations", 4096);
    let seed = args.u64("seed", 7);
    let section = args.str("section").unwrap_or("all").to_owned();
    assert!(
        SECTIONS.contains(&section.as_str()),
        "unknown --section {section}; expected one of {SECTIONS:?}"
    );
    let run = |name: &str| section == name || (section == "all" && name != "scale");

    println!("perf report: {trials} trials, {threads} threads, section {section}");

    if run("shapley") {
        let mut exact = Vec::new();
        // `24` is `MAX_EXACT_PLAYERS`; pass `--max-n 24` to include it (its
        // 2²⁴-entry table dominates the reported peak RSS).
        for n in [12usize, 16, 20, 24] {
            if n > max_n {
                continue;
            }
            let game = peak_game(n, 8, seed + n as u64);
            let reference = exact_shapley(&game).unwrap();
            let serial_secs = best_secs(trials, || exact_shapley(&game).unwrap());
            let parallel_secs = best_secs(trials, || {
                let phi = parallel_exact_shapley(&game, threads).unwrap();
                for (a, b) in phi.iter().zip(&reference) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "parallel exact must be bit-identical"
                    );
                }
                phi
            });
            let row = ExactRow {
                players: n,
                serial_secs,
                parallel_secs,
                speedup: serial_secs / parallel_secs,
            };
            println!(
                "exact      n={:<2}  serial {:.4}s  parallel {:.4}s  ({:.2}x)",
                row.players, row.serial_secs, row.parallel_secs, row.speedup
            );
            exact.push(row);
        }

        let config = SampleConfig {
            max_permutations: permutations,
            target_stderr: 0.0,
            min_permutations: 1,
            antithetic: true,
        };
        let mut sampling = Vec::new();
        for n in [12usize, 16] {
            if n > max_n {
                continue;
            }
            let game = peak_game(n, 8, seed + 100 + n as u64);
            let uncached_secs = best_secs(trials, || {
                sampled_shapley(&game, &config, &mut StdRng::seed_from_u64(seed))
            });
            let cached_secs = best_secs(trials, || {
                sampled_shapley_cached(&game, &config, &mut StdRng::seed_from_u64(seed))
            });
            let uncached = sampled_shapley(&game, &config, &mut StdRng::seed_from_u64(seed));
            let cached = sampled_shapley_cached(&game, &config, &mut StdRng::seed_from_u64(seed));
            let row = SamplingRow {
                players: n,
                permutations,
                uncached_secs,
                cached_secs,
                uncached_evals: uncached.counters.coalition_evals,
                cached_evals: cached.counters.coalition_evals,
                cache_hit_rate: cached.counters.cache_hit_rate(),
            };
            println!(
            "sampling   n={:<2}  uncached {:.4}s / {} evals  cached {:.4}s / {} evals  ({:.1}% hits)",
            row.players,
            row.uncached_secs,
            row.uncached_evals,
            row.cached_secs,
            row.cached_evals,
            100.0 * row.cache_hit_rate
        );
            sampling.push(row);
        }

        let mut toggle = Vec::new();
        // Steps start above `SCAN_FILL_MAX_STEPS` (64): at or below it the
        // hybrid fill routes `PeakDemandGame` to the flat re-scan itself, so
        // the tree-vs-scan comparison would measure two scans.
        for steps in [128usize, 512, 4096] {
            let n = 14.min(max_n);
            let game = windowed_peak_game(n, steps, seed + 200 + steps as u64);
            let scan = ScanPeak(game.clone());
            let tree_secs = best_secs(trials, || exact_shapley_fast(&game).unwrap());
            let scan_secs = best_secs(trials, || exact_shapley_fast(&scan).unwrap());
            let row = ToggleRow {
                players: n,
                steps,
                scan_secs,
                tree_secs,
                speedup: scan_secs / tree_secs,
            };
            println!(
                "toggle     steps={:<4} scan {:.4}s  tree {:.4}s  ({:.2}x)",
                row.steps, row.scan_secs, row.tree_secs, row.speedup
            );
            toggle.push(row);
        }

        let report = PerfReport {
            threads,
            trials,
            exact,
            sampling,
            toggle,
            peak_rss_kib: peak_rss_kib(),
        };
        if let Some(kib) = report.peak_rss_kib {
            println!("peak RSS: {:.1} MiB", kib as f64 / 1024.0);
        }
        let path = write_json("BENCH_shapley", &report);
        println!("wrote {}", path.display());
    }

    // --- monte_carlo: demand-study throughput, end to end ---
    if run("monte-carlo") {
        let mc_trials = args.usize("mc-trials", 1000).max(1);
        let study = DemandStudy {
            trials: mc_trials,
            ..DemandStudy::default()
        };
        println!(
            "monte carlo: {} demand trials, ≤{} workloads, 1 thread",
            mc_trials, study.max_workloads
        );

        // The replica must agree with the production trial before its timing
        // means anything: same deviations, up to accumulation-order rounding.
        for t in 0..3.min(mc_trials) {
            let replica = baseline_demand_trial(&study, t);
            let reference = study.run_trial(t);
            for (a, b) in replica.iter().zip([
                &reference.rup,
                &reference.demand_proportional,
                &reference.fair_co2,
            ]) {
                let close = |x: f64, y: f64| (x - y).abs() < 1e-6 * y.abs().max(1.0);
                assert!(
                    close(a.average_pct, b.average_pct)
                        && close(a.worst_case_pct, b.worst_case_pct),
                    "baseline replica diverged on trial {t}: {a:?} vs {b:?}"
                );
            }
        }

        // Best of two passes per variant, like the solver sections — a study
        // run is long enough that scheduler noise otherwise dominates the
        // collect-vs-streaming margin.
        const MC_REPS: usize = 2;
        let baseline_secs = best_secs(MC_REPS, || {
            for t in 0..mc_trials {
                std::hint::black_box(baseline_demand_trial(&study, t));
            }
        });

        let collect_secs = best_secs(MC_REPS, || {
            let collected: Vec<_> = (0..mc_trials).map(|t| study.run_trial(t)).collect();
            DemandStudySummary::from_trials(&study, &collected, DEFAULT_BATCH_TRIALS)
        });
        let collected: Vec<_> = (0..mc_trials).map(|t| study.run_trial(t)).collect();
        let collect_summary =
            DemandStudySummary::from_trials(&study, &collected, DEFAULT_BATCH_TRIALS);

        let cfg = EngineConfig {
            threads: 1,
            batch_trials: DEFAULT_BATCH_TRIALS,
            collect_trials: false,
        };
        let streaming_secs = best_secs(MC_REPS, || stream_demand_study(&study, cfg));
        let (summary, _, engine) = stream_demand_study(&study, cfg);
        assert_eq!(
            summary.all.rup.average.mean().to_bits(),
            collect_summary.all.rup.average.mean().to_bits(),
            "streaming summary must be bit-identical to collect-then-summarize"
        );

        // Checkpoint/resume cost on a capped sub-study: kill mid-run via the
        // deterministic fault plan, resume, and demand bit-identity with the
        // uninterrupted reference; then time the snapshot write and restore
        // paths in isolation.
        let ck_trials = mc_trials.min(200);
        let ck_study = DemandStudy {
            trials: ck_trials,
            ..DemandStudy::default()
        };
        let ck_path =
            std::env::temp_dir().join(format!("fairco2-perf-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&ck_path);
        let ck_batches = ck_trials.div_ceil(DEFAULT_BATCH_TRIALS);
        let (ck_reference, _, _) =
            stream_demand_study_resumable(&ck_study, cfg, &StudyOptions::default(), |_, _| {})
                .expect("fault-free sub-study");
        let killed = stream_demand_study_resumable(
            &ck_study,
            cfg,
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&ck_path, 1)),
                faults: FaultPlan {
                    kill_after_writes: Some((ck_batches / 2).max(1)),
                    ..FaultPlan::default()
                },
                ..StudyOptions::default()
            },
            |_, _| {},
        );
        assert!(
            matches!(killed, Err(EngineError::Killed { .. })),
            "kill plan must interrupt the sub-study: {killed:?}"
        );
        let checkpoint_bytes = std::fs::metadata(&ck_path)
            .expect("kill leaves a snapshot behind")
            .len();
        let (resumed, _, _) = stream_demand_study_resumable(
            &ck_study,
            cfg,
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&ck_path, 1)),
                resume: true,
                ..StudyOptions::default()
            },
            |_, _| {},
        )
        .expect("resume completes the sub-study");
        let bits = |s: &DemandStudySummary| serde_json::to_string(s).expect("summaries serialize");
        assert_eq!(
            bits(&resumed),
            bits(&ck_reference),
            "resumed sub-study must be bit-identical to the uninterrupted run"
        );
        let fingerprint = demand_fingerprint(&ck_study, DEFAULT_BATCH_TRIALS);
        let snapshot = DemandSnapshot::load(&ck_path, &fingerprint).expect("snapshot validates");
        let checkpoint_restore_secs = best_secs(trials, || {
            DemandSnapshot::load(&ck_path, &fingerprint).expect("snapshot validates")
        });
        let checkpoint_write_secs = best_secs(trials, || {
            snapshot
                .save(&ck_path, WriteFault::None)
                .expect("snapshot writes")
        });
        let _ = std::fs::remove_file(&ck_path);

        let per_sec = |secs: f64| mc_trials as f64 / secs;
        let mc = MonteCarloReport {
            trials: mc_trials,
            max_workloads: study.max_workloads,
            baseline_secs,
            baseline_trials_per_sec: per_sec(baseline_secs),
            collect_secs,
            collect_trials_per_sec: per_sec(collect_secs),
            streaming_secs,
            streaming_trials_per_sec: per_sec(streaming_secs),
            speedup_vs_baseline: baseline_secs / streaming_secs,
            speedup_vs_collect: collect_secs / streaming_secs,
            engine,
            checkpoint_trials: ck_trials,
            checkpoint_bytes,
            checkpoint_write_secs,
            checkpoint_restore_secs,
            checkpoint_resume_bit_identical: true,
            peak_rss_kib: peak_rss_kib(),
        };
        println!(
        "monte carlo  baseline {:.3}s ({:.1}/s)  collect {:.3}s ({:.1}/s)  streaming {:.3}s ({:.1}/s)",
        mc.baseline_secs,
        mc.baseline_trials_per_sec,
        mc.collect_secs,
        mc.collect_trials_per_sec,
        mc.streaming_secs,
        mc.streaming_trials_per_sec
    );
        println!(
        "monte carlo  {:.2}x vs pre-streaming baseline, {:.2}x vs collect; scratch grows {} / reuses {}",
        mc.speedup_vs_baseline, mc.speedup_vs_collect, mc.engine.scratch.table_grows, mc.engine.scratch.table_reuses
    );
        println!(
        "monte carlo  checkpoint {} B: write {:.1} µs, restore {:.1} µs; kill/resume bit-identical over {} trials",
        mc.checkpoint_bytes,
        mc.checkpoint_write_secs * 1.0e6,
        mc.checkpoint_restore_secs * 1.0e6,
        mc.checkpoint_trials
    );
        if let Some(kib) = mc.peak_rss_kib {
            println!("monte carlo  peak RSS {:.1} MiB", kib as f64 / 1024.0);
        }
        let path = write_json("BENCH_montecarlo", &mc);
        println!("wrote {}", path.display());
    }

    // --- temporal: flat cascade + batched billing queries ---
    if run("temporal") {
        let samples = args.usize("temporal-samples", 105_120).max(8_640); // 365 d × 288
        let queries = args.usize("temporal-queries", 1_000_000).max(1);
        let step = 300u32;
        let hierarchy = TemporalShapley::paper_hierarchy();
        println!(
            "temporal: {samples} samples × splits {:?}, {queries} queries",
            hierarchy.splits()
        );

        // A year of 5-minute demand with diurnal + weekly structure and
        // occasional idle spells (so the stranding path runs at scale too).
        let demand = TimeSeries::from_fn(0, step, samples, |t| {
            let day = t as f64 / 86_400.0;
            let base = 40.0
                + 25.0 * (day * std::f64::consts::TAU).sin().abs()
                + 10.0 * (day / 7.0 * std::f64::consts::TAU).cos();
            if (t / step as i64) % 97 == 96 {
                0.0
            } else {
                base.max(0.0)
            }
        })
        .expect("year-long trace is non-empty");
        let total_carbon = 1.0e6;

        let reference = hierarchy
            .attribute_per_period(&demand, total_carbon)
            .expect("paper hierarchy divides the trace");
        // The lane canonical reassociates sums, so the flat cascade is
        // closeness-pinned against the per-period reference, and parallel
        // fan-out must reproduce the serial lane bits exactly.
        let flat = hierarchy.attribute(&demand, total_carbon).unwrap();
        assert_attributions_close("lane flat vs per-period", &reference, &flat, 1e-9);
        let parallel = hierarchy
            .attribute_parallel(&demand, total_carbon, threads)
            .unwrap();
        assert_attributions_identical("parallel vs serial lane", &flat, &parallel);

        let per_period_secs = best_secs(trials, || {
            hierarchy
                .attribute_per_period(&demand, total_carbon)
                .unwrap()
        });
        let flat_fresh_secs = best_secs(trials, || {
            hierarchy.attribute(&demand, total_carbon).unwrap()
        });
        let mut scratch = CascadeScratch::new();
        hierarchy
            .attribute_with_scratch(&demand, total_carbon, 1, &mut scratch)
            .unwrap();
        let flat_scratch_secs = best_secs(trials, || {
            hierarchy
                .attribute_with_scratch(&demand, total_carbon, 1, &mut scratch)
                .unwrap()
        });
        let flat_parallel_secs = best_secs(trials, || {
            hierarchy
                .attribute_parallel(&demand, total_carbon, threads)
                .unwrap()
        });

        // Query load: random windows over 13 months (some out of range) with
        // varying allocations, answered through the batched index.
        let mut rng = StdRng::seed_from_u64(seed + 999);
        let horizon = demand.end();
        let batch: Vec<BillingQuery> = (0..queries)
            .map(|_| {
                let t0 = rng.gen_range(-86_400..horizon + 86_400);
                let t1 = t0 + rng.gen_range(0..2_592_000);
                (t0, t1, rng.gen_range(0.0..64.0))
            })
            .collect();
        let mut answers = Vec::new();
        flat.workload_carbon_batch_into(&batch, &mut answers);
        for (answer, &(t0, t1, alloc)) in answers
            .iter()
            .step_by(1 + queries / 512)
            .zip(batch.iter().step_by(1 + queries / 512))
        {
            assert_eq!(
                answer.to_bits(),
                flat.workload_carbon(t0, t1, alloc).to_bits(),
                "batched answers must match per-call lookups"
            );
        }
        let batch_secs = best_secs(trials, || {
            flat.workload_carbon_batch_into(&batch, &mut answers);
            answers.last().copied()
        });

        // Owned series the per-period path materializes per call: the root
        // clone plus one series per period of every split level.
        let mut old_series_clones = 1usize;
        let mut periods = 1usize;
        for &m in hierarchy.splits() {
            periods *= m;
            old_series_clones += periods;
        }
        let temporal = TemporalReport {
            samples,
            step,
            splits: hierarchy.splits().to_vec(),
            leaf_periods: periods,
            old_series_clones,
            per_period_secs,
            flat_fresh_secs,
            flat_scratch_secs,
            flat_parallel_secs,
            speedup_fresh: per_period_secs / flat_fresh_secs,
            speedup_scratch: per_period_secs / flat_scratch_secs,
            queries,
            batch_secs,
            queries_per_sec: queries as f64 / batch_secs,
            peak_rss_kib: peak_rss_kib(),
        };
        println!(
        "temporal   per-period {:.4}s  flat {:.4}s ({:.2}x)  scratch {:.4}s ({:.2}x)  parallel {:.4}s",
        temporal.per_period_secs,
        temporal.flat_fresh_secs,
        temporal.speedup_fresh,
        temporal.flat_scratch_secs,
        temporal.speedup_scratch,
        temporal.flat_parallel_secs
    );
        println!(
            "temporal   {} queries in {:.4}s = {:.2}M queries/s; {} series clones avoided per call",
            temporal.queries,
            temporal.batch_secs,
            temporal.queries_per_sec / 1.0e6,
            temporal.old_series_clones
        );
        if let Some(kib) = temporal.peak_rss_kib {
            println!("temporal   peak RSS {:.1} MiB", kib as f64 / 1024.0);
        }
        let path = write_json("BENCH_temporal", &temporal);
        println!("wrote {}", path.display());
    }

    // --- kernels: lane-parallel cascade kernels vs serial reference loops ---
    if run("kernels") {
        let samples = args.usize("temporal-samples", 105_120).max(8_640);
        let step = 300u32;
        let hierarchy = TemporalShapley::paper_hierarchy();
        let scaling_players = 16.min(max_n).max(2);
        println!(
            "kernels: {samples} samples, {CANONICAL_LANES} lanes, {PREFIX_BLOCK}-sample prefix blocks"
        );

        // Same year-long diurnal + weekly trace as the temporal section.
        let demand = TimeSeries::from_fn(0, step, samples, |t| {
            let day = t as f64 / 86_400.0;
            let base = 40.0
                + 25.0 * (day * std::f64::consts::TAU).sin().abs()
                + 10.0 * (day / 7.0 * std::f64::consts::TAU).cos();
            if (t / step as i64) % 97 == 96 {
                0.0
            } else {
                base.max(0.0)
            }
        })
        .expect("year-long trace is non-empty");
        let values = demand.values();
        let close = |label: &str, a: f64, b: f64| {
            let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (a - b).abs() <= 1e-11 * scale,
                "{label}: reference {a} vs lane {b}"
            );
        };

        // Fused sweep over the paper hierarchy. Gates: leaf peaks
        // bit-identical (`max` is associative and operand-selecting),
        // per-period sums within the documented reassociation bound.
        let bounds = hierarchy_bounds(samples, hierarchy.splits())
            .expect("paper hierarchy divides the trace");
        let (mut q_s, mut q_l) = (Vec::new(), Vec::new());
        let (mut peaks_s, mut peaks_l) = (Vec::new(), Vec::new());
        level_sums_scalar(values, f64::from(step), &bounds, &mut q_s, &mut peaks_s);
        level_sums_lanes::<CANONICAL_LANES>(
            values,
            f64::from(step),
            &bounds,
            &mut q_l,
            &mut peaks_l,
        );
        for (level, (qs, ql)) in q_s.iter().zip(&q_l).enumerate() {
            for (i, (a, b)) in qs.iter().zip(ql).enumerate() {
                close(&format!("sweep q[{level}][{i}]"), *a, *b);
            }
        }
        for (i, (a, b)) in peaks_s.iter().zip(&peaks_l).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sweep peak[{i}] must be bit-identical"
            );
        }
        let (sweep_scalar_secs, sweep_lane_secs) = best_secs_pair(
            trials,
            || {
                level_sums_scalar(values, f64::from(step), &bounds, &mut q_s, &mut peaks_s);
                peaks_s.last().copied()
            },
            || {
                level_sums_lanes::<CANONICAL_LANES>(
                    values,
                    f64::from(step),
                    &bounds,
                    &mut q_l,
                    &mut peaks_l,
                );
                peaks_l.last().copied()
            },
        );

        // Leaf carbon prefix. Gates: bit-identical inside the first block
        // (no carry), within one `local + carry` reassociation beyond it.
        let (mut prefix_s, mut prefix_l) = (Vec::new(), Vec::new());
        prefix_scalar(values, f64::from(step), &mut prefix_s);
        prefix_blocked::<PREFIX_BLOCK>(values, f64::from(step), &mut prefix_l);
        assert_eq!(prefix_s.len(), prefix_l.len());
        for (i, (a, b)) in prefix_s
            .iter()
            .zip(&prefix_l)
            .take(PREFIX_BLOCK + 1)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "prefix[{i}] in block 0 must be bit-identical"
            );
        }
        for (i, (a, b)) in prefix_s.iter().zip(&prefix_l).enumerate() {
            close(&format!("prefix[{i}]"), *a, *b);
        }
        let (prefix_scalar_secs, prefix_blocked_secs) = best_secs_pair(
            trials,
            || {
                prefix_scalar(values, f64::from(step), &mut prefix_s);
                prefix_s.last().copied()
            },
            || {
                prefix_blocked::<PREFIX_BLOCK>(values, f64::from(step), &mut prefix_l);
                prefix_l.last().copied()
            },
        );

        // Thread-scaling curve for the run_parallel-backed paths, every
        // point asserted bit-identical to the serial result first.
        let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let scaling_game = peak_game(scaling_players, 8, seed + 600);
        let attr_reference = hierarchy.attribute(&demand, 1.0e6).unwrap();
        let exact_reference = exact_shapley(&scaling_game).unwrap();
        let mut scaling_raw = Vec::new();
        let mut t = 1usize;
        loop {
            let attribution = hierarchy.attribute_parallel(&demand, 1.0e6, t).unwrap();
            assert_attributions_identical("thread scaling", &attr_reference, &attribution);
            let phi = parallel_exact_shapley(&scaling_game, t).unwrap();
            for (a, b) in phi.iter().zip(&exact_reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "thread scaling: exact table");
            }
            let attribute_secs = best_secs(trials, || {
                hierarchy.attribute_parallel(&demand, 1.0e6, t).unwrap()
            });
            let exact_secs =
                best_secs(trials, || parallel_exact_shapley(&scaling_game, t).unwrap());
            scaling_raw.push((t, attribute_secs, exact_secs));
            if t >= threads {
                break;
            }
            t = (t * 2).min(threads);
        }
        let (_, attr_base, exact_base) = scaling_raw[0];
        let thread_scaling: Vec<ScalingRow> = scaling_raw
            .iter()
            .map(|&(threads, attribute_secs, exact_secs)| ScalingRow {
                threads,
                attribute_secs,
                exact_secs,
                attribute_speedup: attr_base / attribute_secs,
                exact_speedup: exact_base / exact_secs,
            })
            .collect();

        let kernels = vec![
            KernelRow::new(
                "fused_sweep",
                samples,
                8 * samples as u64,
                sweep_scalar_secs,
                sweep_lane_secs,
            ),
            // Prefix traffic: one read per sample plus one write per slot.
            KernelRow::new(
                "leaf_prefix",
                samples,
                8 * (2 * samples + 1) as u64,
                prefix_scalar_secs,
                prefix_blocked_secs,
            ),
        ];
        for row in &kernels {
            println!(
                "kernels    {:<11} reference {:>9.2} µs ({:>6.2} GB/s)  lane {:>9.2} µs ({:>6.2} GB/s)  ({:.2}x)",
                row.kernel,
                row.scalar_secs * 1.0e6,
                row.scalar_gb_per_sec,
                row.lane_secs * 1.0e6,
                row.lane_gb_per_sec,
                row.speedup
            );
        }
        for row in &thread_scaling {
            println!(
                "kernels    threads={:<2} attribute {:>9.2} µs ({:.2}x)  exact n={} {:>9.2} µs ({:.2}x)",
                row.threads,
                row.attribute_secs * 1.0e6,
                row.attribute_speedup,
                scaling_players,
                row.exact_secs * 1.0e6,
                row.exact_speedup
            );
        }
        let report = KernelsReport {
            samples,
            step,
            splits: hierarchy.splits().to_vec(),
            lanes: CANONICAL_LANES,
            prefix_block: PREFIX_BLOCK,
            scaling_players,
            kernels,
            gates_passed: true,
            available_cores,
            thread_scaling,
            peak_rss_kib: peak_rss_kib(),
        };
        if available_cores == 1 {
            println!(
                "kernels    note: 1 available core — thread-scaling points time-slice one CPU"
            );
        }
        if let Some(kib) = report.peak_rss_kib {
            println!("kernels    peak RSS {:.1} MiB", kib as f64 / 1024.0);
        }
        let path = write_json("BENCH_kernels", &report);
        println!("wrote {}", path.display());
    }

    // --- service: the always-on attribution service under load ---
    if run("service") {
        let opts = LoadOptions {
            duration_ms: args.u64("service-ms", 2_000).max(100),
            tenants: args.usize("service-tenants", 2).max(1),
            batch: args.usize("service-batch", 256).max(1),
            max_windows: args.u64("service-windows", 256).max(1),
            seed,
        };
        let config = ServiceConfig {
            start: 0,
            step: 300,
            splits: vec![4, 3],
            leaf_samples: args.usize("service-leaf-samples", 4).max(1),
            carbon_per_window: 1000.0,
            persist_dir: None,
        };
        println!(
            "service: {} ms load, {} tenants × {}-query batches, {}-sample windows",
            opts.duration_ms,
            opts.tenants,
            opts.batch,
            config.window_samples()
        );

        // Correctness gate before any throughput number means anything: a
        // small deterministic stream's final epoch must reproduce the
        // from-scratch rebuild (per-window frozen cascade + the canonical
        // segmented prefix) bit for bit.
        let rebuild_bit_identical = {
            let check = ServiceConfig {
                leaf_samples: 2,
                ..config.clone()
            };
            let w = check.window_samples();
            let windows = 3usize;
            let mut service = AttributionService::start(check.clone()).expect("service starts");
            for i in 0..(windows * w) as u64 {
                service.ingest(demand_sample(i, opts.seed)).expect("ingest");
            }
            let handle = service.handle();
            let snapshot = handle.epoch();
            assert_eq!(snapshot.epoch, windows as u64);
            let frozen = TemporalShapley::new(check.splits.clone());
            let mut cum = 0.0;
            for k in 0..windows {
                let values: Vec<f64> = (0..w)
                    .map(|i| demand_sample((k * w + i) as u64, opts.seed))
                    .collect();
                let series = TimeSeries::from_values(
                    check.start + (k * w) as i64 * i64::from(check.step),
                    check.step,
                    values,
                )
                .unwrap();
                let attribution = frozen.attribute(&series, check.carbon_per_window).unwrap();
                for (i, v) in attribution.carbon_prefix().iter().enumerate() {
                    if i == 0 && k > 0 {
                        continue; // boundary index belongs to this window's cum
                    }
                    assert_eq!(
                        snapshot.prefix_at(k * w + i).to_bits(),
                        (cum + v).to_bits(),
                        "service prefix diverged from rebuild at window {k} sample {i}"
                    );
                }
                cum += attribution.carbon_prefix()[w];
            }
            true
        };

        let report = run_load(config.clone(), &opts).expect("load run completes");
        assert!(
            report.queries_answered > 0 && report.windows_closed > 0,
            "load run must both ingest and answer: {report:?}"
        );

        // Sharded batch throughput on the final state: one big batch split
        // over `--threads` run_parallel workers with an in-order merge.
        let sharded_queries = 100_000usize;
        let mut service = AttributionService::start(config.clone()).expect("service starts");
        let w = config.window_samples() as u64;
        for i in 0..opts.max_windows.min(64) * w {
            service.ingest(demand_sample(i, opts.seed)).expect("ingest");
        }
        let handle = service.handle();
        let epoch = handle.epoch();
        let span = (epoch.samples() as u64 + 1) * u64::from(config.step);
        let batch: Vec<BillingQuery> = (0..sharded_queries as u64)
            .map(|i| {
                let a = demand_sample(2 * i, 3).to_bits() % span;
                let b = demand_sample(2 * i + 1, 3).to_bits() % span;
                (
                    config.start + a.min(b) as i64,
                    config.start + a.max(b) as i64,
                    1.0 + (i % 7) as f64,
                )
            })
            .collect();
        let sequential = epoch.carbon_batch_sharded(&batch, 1);
        let sharded = epoch.carbon_batch_sharded(&batch, threads);
        for (a, b) in sequential.iter().zip(&sharded) {
            assert_eq!(a.to_bits(), b.to_bits(), "sharding changed an answer");
        }
        let sharded_secs = best_secs(trials, || epoch.carbon_batch_sharded(&batch, threads));

        let service_report = ServiceReport {
            duration_ms: opts.duration_ms,
            tenants: opts.tenants,
            batch: opts.batch,
            window_samples: config.window_samples(),
            splits: config.splits.clone(),
            ingested_samples: report.ingested_samples,
            windows_closed: report.windows_closed,
            queries_answered: report.queries_answered,
            queries_per_sec: report.queries_per_sec,
            p99_batch_latency_us: report.p99_batch_latency_us,
            ops_per_sample: report.ops_per_sample,
            rebuild_bit_identical,
            sharded_threads: threads,
            sharded_queries,
            sharded_secs,
            sharded_queries_per_sec: sharded_queries as f64 / sharded_secs,
            peak_rss_kib: peak_rss_kib(),
        };
        println!(
        "service    ingested {} samples / {} windows; {:.0} queries/s sustained, p99 batch {:.1} µs",
        service_report.ingested_samples,
        service_report.windows_closed,
        service_report.queries_per_sec,
        service_report.p99_batch_latency_us
    );
        println!(
        "service    {:.2} engine ops/sample (amortized O(log n) gauge); sharded {:.2}M queries/s at {} threads; rebuild bit-identical: {}",
        service_report.ops_per_sample,
        service_report.sharded_queries_per_sec / 1.0e6,
        service_report.sharded_threads,
        service_report.rebuild_bit_identical
    );
        let path = write_json("BENCH_service", &service_report);
        println!("wrote {}", path.display());
    }

    if run("surrogate") {
        let defaults = SurrogateStudy::default();
        let surrogate_study = SurrogateStudy {
            trials: args.usize("surrogate-trials", 2000),
            train_trials: args.usize("surrogate-train", defaults.train_trials),
            audit_trials: args.usize("surrogate-audit", 200),
            threads,
            tolerance: args.f64("tolerance", defaults.tolerance),
            accuracy_budget: args.f64("budget", defaults.accuracy_budget),
            seed: args.u64("seed", defaults.seed),
            reps: trials.min(3),
            ..defaults
        };
        println!(
            "surrogate  {} eval trials, {} train, {} audited (tol {}, budget {})",
            surrogate_study.trials,
            surrogate_study.train_trials,
            surrogate_study.audit_trials,
            surrogate_study.tolerance,
            surrogate_study.accuracy_budget
        );
        let surrogate_report = run_surrogate(&surrogate_study);
        print_surrogate(&surrogate_report);
        let path = write_json("BENCH_surrogate", &surrogate_report);
        println!("wrote {}", path.display());
    }

    if run("network") {
        let network_study = NetworkStudy {
            tenants: args.usize("net-tenants", 12),
            threads,
            reps: trials.min(3),
            ..NetworkStudy::default()
        };
        println!(
            "network    {} tenants ({} coalitions), gates before timing",
            network_study.tenants,
            1u64 << network_study.tenants
        );
        let network_report = run_network(&network_study);
        print_network(&network_report);
        let path = write_json("BENCH_network", &network_report);
        println!("wrote {}", path.display());
    }

    if run("scale") {
        let scale_vms = args.u64("scale-vms", 2_000_000);
        let scale_days = args.usize("scale-days", 14).max(1) as u32;
        let shards = args.usize("shards", 256).max(1);
        println!(
            "scale      ~{scale_vms} VMs over {scale_days} days, {shards} shards, {threads} threads"
        );

        // Correctness gates first, at a size small enough to run on every
        // invocation: the streamed difference-array demand must match the
        // materialized population bit for bit at any thread count, and the
        // sharded simulator must be thread-invariant with its one-shard
        // case collapsing to the serial reference.
        let gate_cfg = ScaleVmConfig::for_total_vms(20_000, 2);
        let gate_population = gate_cfg.collect_events(1);
        let gate_demand = gate_population.demand_series(300);
        for t in [1usize, 2, 8] {
            let streamed = gate_cfg.demand_series(300, t);
            assert_eq!(streamed.len(), gate_demand.len(), "demand grid length");
            for (a, b) in streamed.values().iter().zip(gate_demand.values()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "streamed demand must be bit-identical at {t} threads"
                );
            }
        }
        let sim = Simulator::paper_default();
        let gate_stream = JobStream::from_sorted(vm_jobs(gate_population.vms()));
        let serial = sim.run(&gate_stream, &mut FirstFit);
        assert_eq!(
            run_sharded(&sim, &gate_stream, 1, 1, |_| Box::new(FirstFit)),
            serial,
            "one shard must collapse to the serial simulator"
        );
        let sharded_ref = run_sharded(&sim, &gate_stream, 8, 1, |_| Box::new(FirstFit));
        for t in [2usize, 8] {
            assert_eq!(
                run_sharded(&sim, &gate_stream, 8, t, |_| Box::new(FirstFit)),
                sharded_ref,
                "sharded outcome must be thread-invariant at {t} threads"
            );
        }
        let gates_passed = true;
        println!("scale      gates passed: streamed demand + sharded simulator bit-identical");

        // Full-size pipeline, one timed pass per stage (a 2M-VM stage is
        // too heavy to repeat for a best-of-N).
        let total_start = Instant::now();
        let cfg = ScaleVmConfig::for_total_vms(scale_vms, scale_days);

        let start = Instant::now();
        let generated_vms = cfg.count_vms(threads) + cfg.long_vm_count as u64;
        let generation_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let demand = cfg.demand_series(300, threads);
        let demand_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let population = cfg.collect_events(threads);
        let collect_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let stream = JobStream::from_sorted(vm_jobs(population.vms()));
        let stream_build_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let outcome = run_sharded(&sim, &stream, shards, threads, |_| Box::new(FirstFit));
        let cluster_secs = start.elapsed().as_secs_f64();
        let total_secs = total_start.elapsed().as_secs_f64();

        // Documented memory budget for the full 2M-VM pipeline; asserted
        // here so a regression in peak RSS fails the run, not just the
        // README claim.
        let rss_budget_kib = 2 * 1024 * 1024;
        let rss = peak_rss_kib();
        if let Some(kib) = rss {
            assert!(
                kib <= rss_budget_kib,
                "peak RSS {kib} KiB exceeds the {rss_budget_kib} KiB budget"
            );
        }

        let scale_report = ScaleReport {
            requested_vms: scale_vms,
            generated_vms,
            days: scale_days,
            shards,
            threads,
            gates_passed,
            generation_secs,
            generation_vms_per_sec: generated_vms as f64 / generation_secs,
            demand_secs,
            demand_points: demand.len(),
            peak_cores: demand.peak(),
            collect_secs,
            stream_build_secs,
            cluster_secs,
            cluster_jobs: stream.len(),
            cluster_jobs_per_sec: stream.len() as f64 / cluster_secs,
            peak_nodes: outcome.peak_nodes,
            node_seconds: outcome.node_seconds,
            makespan_s: outcome.makespan_s,
            total_secs,
            peak_rss_kib: rss,
            rss_budget_kib,
        };
        println!(
            "scale      generated {} VMs in {:.2} s ({:.2}M VMs/s); demand sweep {:.2} s over {} points",
            scale_report.generated_vms,
            scale_report.generation_secs,
            scale_report.generation_vms_per_sec / 1.0e6,
            scale_report.demand_secs,
            scale_report.demand_points
        );
        println!(
            "scale      cluster {} jobs / {} shards in {:.2} s ({:.0} jobs/s); peak {} nodes",
            scale_report.cluster_jobs,
            scale_report.shards,
            scale_report.cluster_secs,
            scale_report.cluster_jobs_per_sec,
            scale_report.peak_nodes
        );
        println!(
            "scale      end to end {:.2} s; peak RSS {} KiB (budget {} KiB)",
            scale_report.total_secs,
            scale_report.peak_rss_kib.unwrap_or(0),
            scale_report.rss_budget_kib
        );
        let path = write_json("BENCH_scale", &scale_report);
        println!("wrote {}", path.display());
    }
}

/// Always-on service throughput under concurrent ingest + query,
/// written to `results/BENCH_service.json`.
#[derive(Serialize)]
struct ServiceReport {
    /// Load-run length (ms).
    duration_ms: u64,
    /// Concurrent tenant query threads.
    tenants: usize,
    /// Queries per tenant batch.
    batch: usize,
    /// Samples per attribution window.
    window_samples: usize,
    /// Hierarchy split ratios.
    splits: Vec<usize>,
    /// Samples ingested during the load run.
    ingested_samples: u64,
    /// Windows closed (== epochs published).
    windows_closed: u64,
    /// Billing queries answered across all tenants.
    queries_answered: u64,
    /// Sustained queries per second under concurrent ingestion.
    queries_per_sec: f64,
    /// 99th-percentile per-batch latency (µs).
    p99_batch_latency_us: f64,
    /// Engine primitive operations per ingested sample — machine-speed
    /// independent; constant in stream length (the O(log n) gauge).
    ops_per_sample: f64,
    /// Final epoch reproduced the from-scratch rebuild bit for bit
    /// (asserted; recorded for the report).
    rebuild_bit_identical: bool,
    /// Threads the sharded batch ran on.
    sharded_threads: usize,
    /// Queries in the sharded batch.
    sharded_queries: usize,
    /// Best wall time of one sharded batch.
    sharded_secs: f64,
    /// Sharded queries per second.
    sharded_queries_per_sec: f64,
    /// Process peak RSS (`VmHWM`) in KiB.
    peak_rss_kib: Option<u64>,
}

/// Azure-scale pipeline throughput (2M-VM trace → demand sweep →
/// sharded cluster co-simulation), written to `results/BENCH_scale.json`.
/// The correctness gates (streamed-vs-materialized demand, sharded
/// thread invariance, one-shard == serial) run in-binary before any
/// timing starts; `gates_passed` records that they held.
#[derive(Serialize)]
struct ScaleReport {
    /// VM count requested on the command line.
    requested_vms: u64,
    /// VMs the deterministic generator actually produced.
    generated_vms: u64,
    /// Trace length in days.
    days: u32,
    /// Node-range shards the cluster simulation ran on.
    shards: usize,
    /// Worker threads.
    threads: usize,
    /// All reduced-size bit-identity gates held (asserted; recorded).
    gates_passed: bool,
    /// Streaming generation pass (count only, no materialization).
    generation_secs: f64,
    /// Generated VMs per second.
    generation_vms_per_sec: f64,
    /// Streamed `O(V + T)` difference-array demand sweep.
    demand_secs: f64,
    /// Points in the 300 s demand grid.
    demand_points: usize,
    /// Peak simultaneous cores across the fleet.
    peak_cores: f64,
    /// Full population materialization (the only `O(V)`-memory stage).
    collect_secs: f64,
    /// VM → job mapping plus sorted stream build.
    stream_build_secs: f64,
    /// Sharded cluster co-simulation.
    cluster_secs: f64,
    /// Jobs simulated.
    cluster_jobs: usize,
    /// Simulated jobs per second.
    cluster_jobs_per_sec: f64,
    /// Peak simultaneously occupied nodes.
    peak_nodes: usize,
    /// Total occupied node-seconds.
    node_seconds: f64,
    /// Completion time of the last job (s).
    makespan_s: f64,
    /// Whole pipeline wall time.
    total_secs: f64,
    /// Process peak RSS (`VmHWM`) in KiB.
    peak_rss_kib: Option<u64>,
    /// Documented memory budget (2 GiB), asserted in-binary.
    rss_budget_kib: u64,
}
