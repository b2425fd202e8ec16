//! **Figure 8** — Monte Carlo fairness under interference: average (top)
//! and worst-case (bottom) deviation from the ground-truth Shapley across
//! 10,000 random colocation scenarios — overall, by historical sampling
//! rate, by workload count, and by grid carbon intensity.
//!
//! Trials run through the streaming study engine (per-worker scratch
//! arenas, constant-memory accumulators, thread-count-invariant merges).
//! Tune with `--trials N --min-workloads N --max-workloads N
//! --min-grid-ci X --max-grid-ci X --threads N --batch N`.
//! `--dump-trials all` (or `N` for the first N) additionally streams
//! every per-trial record as JSONL to `results/fig8_trials.jsonl`
//! (override with `--dump-path`) without collecting trials in memory;
//! the stream is in trial order and byte-identical at any thread count.
//! Long runs can snapshot with `--checkpoint <path> --checkpoint-every
//! <batches>` and pick up after a kill with `--resume`; `--retries N`
//! sets the per-batch fault budget. Writes `results/fig8.json`.

use fairco2_bench::{
    exit_on_engine_error, print_report, sample_schedule, sampling_permutations, study_options,
    write_json, Args, SamplingReport, TrialDump, CHECKPOINT_FLAGS,
};
use fairco2_montecarlo::colocations::ColocationStudy;
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::streaming::{ColocationMethodSet, MethodStream, DEFAULT_BATCH_TRIALS};
use fairco2_montecarlo::{
    stream_colocation_study_resumable, stream_colocation_study_with_sink, EngineConfig,
    EngineStats, StatStream,
};
use fairco2_shapley::parallel::default_threads;
use serde::Serialize;

#[derive(Serialize)]
struct Fig8 {
    panels: Vec<Panel>,
    /// Empirical CDFs of the per-trial average deviation over all
    /// scenarios, as `(deviation_pct, cumulative_fraction)` points.
    average_cdf: Vec<MethodCdf>,
    /// Convergence trace of the sampled engine on a peak game sized to
    /// this study's workload counts — exact enumeration is intractable at
    /// this scale, so sampling is the only ground-truth path.
    shapley_sampling: SamplingReport,
    /// What the streaming engine did (trials, batches, scratch reuse).
    engine: EngineStats,
}

#[derive(Serialize)]
struct MethodStats {
    method: String,
    mean_pct: f64,
    median_pct: f64,
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

const METHODS: [&str; 2] = ["rup-baseline", "fair-co2"];

fn method_streams(set: &ColocationMethodSet) -> [&MethodStream; 2] {
    [&set.rup, &set.fair_co2]
}

fn stats(method: &str, s: &StatStream) -> MethodStats {
    MethodStats {
        method: method.to_owned(),
        mean_pct: s.mean(),
        median_pct: s.quantile(0.5),
        p95_pct: s.quantile(0.95),
    }
}

fn panel(label: &str, set: &ColocationMethodSet) -> Panel {
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
    for (a, w) in p.average.iter().zip(&p.worst_case) {
        println!(
            "  {:<14} avg: mean {:>6.2}% p50 {:>6.2}% p95 {:>6.2}%   worst: mean {:>6.2}% p95 {:>6.2}%",
            a.method, a.mean_pct, a.median_pct, a.p95_pct, w.mean_pct, w.p95_pct
        );
    }
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &[
    "trials",
    "min-workloads",
    "max-workloads",
    "min-grid-ci",
    "max-grid-ci",
    "min-samples",
    "max-samples",
    "seed",
    "threads",
    "batch",
    "dump-trials",
    "dump-path",
    "permutations",
];

fn main() {
    let args = Args::parse(&[FLAGS, CHECKPOINT_FLAGS].concat());
    let study = ColocationStudy {
        trials: args.usize("trials", 10_000),
        min_workloads: args.usize("min-workloads", 4),
        max_workloads: args.usize("max-workloads", 100),
        min_grid_ci: args.f64("min-grid-ci", 0.0),
        max_grid_ci: args.f64("max-grid-ci", 1000.0),
        min_samples: args.usize("min-samples", 1),
        max_samples: args.usize("max-samples", 15),
        base_seed: args.u64("seed", ColocationStudy::default().base_seed),
    };
    let threads = args.usize("threads", default_threads());
    let permutations = sampling_permutations(&args);
    let cfg = EngineConfig {
        threads,
        batch_trials: args.usize("batch", DEFAULT_BATCH_TRIALS),
        collect_trials: false,
    };

    let opts = study_options(&args, "");
    let mut dump = TrialDump::from_args(&args, "fig8");
    eprintln!(
        "streaming {} colocation trials on {threads} threads (exact matching-game ground truth)…",
        study.trials
    );
    let (summary, engine) = if let Some(d) = dump.as_mut() {
        exit_on_engine_error(stream_colocation_study_with_sink(
            &study,
            cfg,
            &opts,
            |_, _| {},
            |trial| d.observe(trial),
        ))
    } else {
        let (summary, _, engine) = exit_on_engine_error(stream_colocation_study_resumable(
            &study,
            cfg,
            &opts,
            |_, _| {},
        ));
        (summary, engine)
    };

    let mut panels = vec![panel("all scenarios (a, e)", &summary.all)];
    for b in &summary.by_samples {
        if b.methods.rup.average.count() > 0 {
            panels.push(panel(&format!("{} (b, f)", b.label), &b.methods));
        }
    }
    for b in &summary.by_workloads {
        if b.methods.rup.average.count() > 0 {
            panels.push(panel(&format!("{} (c, g)", b.label), &b.methods));
        }
    }
    for b in &summary.by_grid_ci {
        if b.methods.rup.average.count() > 0 {
            panels.push(panel(&format!("{} (d, h)", b.label), &b.methods));
        }
    }

    println!("Figure 8: attribution fairness under interference");
    for p in &panels {
        print_panel(p);
    }

    let overall = &panels[0];
    println!(
        "\nheadline: RUP {:.2}% avg / {:.2}% worst — Fair-CO2 {:.2}% avg / {:.2}% worst",
        overall.average[0].mean_pct,
        overall.worst_case[0].mean_pct,
        overall.average[1].mean_pct,
        overall.worst_case[1].mean_pct,
    );
    println!("paper:    RUP 9.7% avg / 31.7% worst — Fair-CO2 1.72% avg / 5.0% worst");
    println!(
        "engine:   {} trials in {} batches, {} scratch-served solves",
        engine.trials, engine.batches, engine.scratch.table_reuses
    );

    let average_cdf = METHODS
        .iter()
        .zip(method_streams(&summary.all))
        .map(|(m, s)| MethodCdf {
            method: (*m).to_owned(),
            points: s.average.hist.cdf_points(),
        })
        .collect();

    let probe = DemandStudy {
        max_workloads: study.max_workloads,
        ..DemandStudy::default()
    };
    let schedule = probe.generate_schedule(0);
    let shapley_sampling = sample_schedule(&schedule, permutations, threads, study.base_seed);
    print_report(&shapley_sampling);

    if let Some(d) = dump {
        let (path, lines) = d.finish();
        println!("wrote {} ({lines} per-trial JSONL records)", path.display());
    }
    let path = write_json(
        "fig8",
        &Fig8 {
            panels,
            average_cdf,
            shapley_sampling,
            engine,
        },
    );
    println!("\nwrote {}", path.display());
}
