//! **Figure 7** — Monte Carlo fairness under dynamic demand: average
//! (top) and worst-case (bottom) deviation from the ground-truth Shapley
//! across 10,000 random schedules, overall and broken down by schedule
//! length and workload count.
//!
//! Trials run through the streaming study engine: per-worker scratch
//! arenas, constant-memory summary accumulators, and batch merges that
//! are bit-identical at any thread count. Defaults to the paper's scale;
//! tune with `--trials N --max-workloads N --min-slices N --max-slices N
//! --threads N --batch N`. `--dump-trials all` (or `N` for the first N)
//! additionally streams every per-trial record as JSONL to
//! `results/fig7_trials.jsonl` (override with `--dump-path`) without
//! collecting trials in memory; the stream is in trial order and
//! byte-identical at any thread count. Long runs can snapshot with
//! `--checkpoint <path> --checkpoint-every <batches>` and pick up after
//! a kill with `--resume` (bit-identical to an uninterrupted run);
//! `--retries N` sets the per-batch fault budget. Writes
//! `results/fig7.json`.

use fairco2_bench::{
    exit_on_engine_error, print_report, sample_schedule, sampling_permutations, study_options,
    write_json, Args, SamplingReport, TrialDump, CHECKPOINT_FLAGS,
};
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::streaming::{DemandMethodSet, MethodStream, DEFAULT_BATCH_TRIALS};
use fairco2_montecarlo::{
    stream_demand_study_resumable, stream_demand_study_with_sink, EngineConfig, EngineStats,
};
use fairco2_shapley::parallel::default_threads;
use serde::Serialize;

#[derive(Serialize)]
struct Fig7 {
    panels: Vec<Panel>,
    /// Empirical CDFs of the per-trial average deviation over all
    /// scenarios (the Figure 7e curves), as `(deviation_pct,
    /// cumulative_fraction)` points.
    average_cdf: Vec<MethodCdf>,
    /// Convergence trace of the sampled engine on this study's first
    /// schedule — how many permutations the sampling alternative to the
    /// exact ground truth needs.
    shapley_sampling: SamplingReport,
    /// What the streaming engine did (trials, batches, scratch reuse).
    engine: EngineStats,
}

#[derive(Serialize)]
struct MethodStats {
    method: String,
    mean_pct: f64,
    median_pct: f64,
    p5_pct: f64,
    p95_pct: f64,
}

#[derive(Serialize)]
struct MethodCdf {
    method: String,
    points: Vec<(f64, f64)>,
}

#[derive(Serialize)]
struct Panel {
    label: String,
    scenarios: usize,
    average: Vec<MethodStats>,
    worst_case: Vec<MethodStats>,
}

const METHODS: [&str; 3] = ["rup-baseline", "demand-proportional", "fair-co2"];

fn method_streams(set: &DemandMethodSet) -> [&MethodStream; 3] {
    [&set.rup, &set.demand_proportional, &set.fair_co2]
}

fn stats(method: &str, s: &fairco2_montecarlo::StatStream) -> MethodStats {
    MethodStats {
        method: method.to_owned(),
        mean_pct: s.mean(),
        median_pct: s.quantile(0.5),
        p5_pct: s.quantile(0.05),
        p95_pct: s.quantile(0.95),
    }
}

fn panel(label: &str, set: &DemandMethodSet) -> Panel {
    let streams = method_streams(set);
    Panel {
        label: label.to_owned(),
        scenarios: set.rup.average.count() as usize,
        average: METHODS
            .iter()
            .zip(streams)
            .map(|(m, s)| stats(m, &s.average))
            .collect(),
        worst_case: METHODS
            .iter()
            .zip(streams)
            .map(|(m, s)| stats(m, &s.worst_case))
            .collect(),
    }
}

fn print_panel(p: &Panel) {
    println!("\n[{}] ({} scenarios)", p.label, p.scenarios);
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}   {:>10} {:>10}",
        "method", "avg mean", "avg p50", "avg p95", "avg p5", "worst mean", "worst p95"
    );
    for (a, w) in p.average.iter().zip(&p.worst_case) {
        println!(
            "{:<22} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%   {:>9.1}% {:>9.1}%",
            a.method, a.mean_pct, a.median_pct, a.p95_pct, a.p5_pct, w.mean_pct, w.p95_pct
        );
    }
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &[
    "trials",
    "max-workloads",
    "min-slices",
    "max-slices",
    "seed",
    "threads",
    "batch",
    "dump-trials",
    "dump-path",
    "permutations",
];

fn main() {
    let args = Args::parse(&[FLAGS, CHECKPOINT_FLAGS].concat());
    let study = DemandStudy {
        trials: args.usize("trials", 10_000),
        max_workloads: args.usize("max-workloads", 22),
        min_time_slices: args.usize("min-slices", 4),
        max_time_slices: args.usize("max-slices", 9),
        base_seed: args.u64("seed", DemandStudy::default().base_seed),
    };
    let threads = args.usize("threads", default_threads());
    let permutations = sampling_permutations(&args);
    let cfg = EngineConfig {
        threads,
        batch_trials: args.usize("batch", DEFAULT_BATCH_TRIALS),
        collect_trials: false,
    };

    let opts = study_options(&args, "");
    let mut dump = TrialDump::from_args(&args, "fig7");
    eprintln!(
        "streaming {} schedule trials on {threads} threads (exact ground truth, ≤{} workloads)…",
        study.trials, study.max_workloads
    );
    let (summary, engine) = if let Some(d) = dump.as_mut() {
        exit_on_engine_error(stream_demand_study_with_sink(
            &study,
            cfg,
            &opts,
            |_, _| {},
            |trial| d.observe(trial),
        ))
    } else {
        let (summary, _, engine) =
            exit_on_engine_error(stream_demand_study_resumable(&study, cfg, &opts, |_, _| {}));
        (summary, engine)
    };

    let mut panels = vec![panel("all scenarios (a, e)", &summary.all)];
    for b in &summary.by_time_slices {
        if b.methods.rup.average.count() > 0 {
            panels.push(panel(
                &format!("{} time slices (b, c, f, g)", b.lo),
                &b.methods,
            ));
        }
    }
    for b in &summary.by_workloads {
        if b.methods.rup.average.count() > 0 {
            panels.push(panel(
                &format!("{}-{} workloads (d, h)", b.lo, b.hi),
                &b.methods,
            ));
        }
    }

    println!("Figure 7: attribution fairness under dynamic demand");
    for p in &panels {
        print_panel(p);
    }

    let overall = &panels[0];
    println!(
        "\nheadline: RUP {:.0}% / {:.0}%, demand-prop {:.0}% / {:.0}%, Fair-CO2 {:.0}% / {:.0}% (avg/worst mean)",
        overall.average[0].mean_pct,
        overall.worst_case[0].mean_pct,
        overall.average[1].mean_pct,
        overall.worst_case[1].mean_pct,
        overall.average[2].mean_pct,
        overall.worst_case[2].mean_pct,
    );
    println!("paper:    RUP ~80% / ~279%, demand-prop ~31% / ~90%, Fair-CO2 ~19% / ~55%");
    println!(
        "engine:   {} trials in {} batches, scratch grows {} / reuses {}",
        engine.trials, engine.batches, engine.scratch.table_grows, engine.scratch.table_reuses
    );

    let average_cdf = METHODS
        .iter()
        .zip(method_streams(&summary.all))
        .map(|(m, s)| MethodCdf {
            method: (*m).to_owned(),
            points: s.average.hist.cdf_points(),
        })
        .collect();

    let schedule = study.generate_schedule(0);
    let shapley_sampling = sample_schedule(&schedule, permutations, threads, study.base_seed);
    print_report(&shapley_sampling);

    if let Some(d) = dump {
        let (path, lines) = d.finish();
        println!("wrote {} ({lines} per-trial JSONL records)", path.display());
    }
    let path = write_json(
        "fig7",
        &Fig7 {
            panels,
            average_cdf,
            shapley_sampling,
            engine,
        },
    );
    println!("\nwrote {}", path.display());
}
