//! **Figure 9** — per-workload attribution equity: the distribution of
//! signed deviations from the ground truth for each workload (top) and
//! for each workload's *partners* (bottom), under the RUP-Baseline (left)
//! and Fair-CO₂ (right).
//!
//! The per-kind equity streams come straight from the streaming study
//! summary — no per-trial materialization. Tune with `--trials N
//! --threads N --batch N`; checkpoint/resume via `--checkpoint <path>
//! --checkpoint-every <batches> --resume --retries N`. Writes
//! `results/fig9.json`.

use fairco2_bench::{exit_on_engine_error, study_options, write_json, Args, CHECKPOINT_FLAGS};
use fairco2_montecarlo::colocations::ColocationStudy;
use fairco2_montecarlo::streaming::{KindEquity, DEFAULT_BATCH_TRIALS};
use fairco2_montecarlo::{stream_colocation_study_resumable, EngineConfig, StatStream};
use fairco2_shapley::parallel::default_threads;
use serde::Serialize;

#[derive(Serialize)]
struct Distribution {
    workload: String,
    samples: usize,
    mean_pct: f64,
    p5_pct: f64,
    median_pct: f64,
    p95_pct: f64,
}

#[derive(Serialize)]
struct Fig9 {
    /// Deviation of each workload's own attribution.
    own_rup: Vec<Distribution>,
    own_fair: Vec<Distribution>,
    /// Deviation of each workload's *partner's* attribution.
    partner_rup: Vec<Distribution>,
    partner_fair: Vec<Distribution>,
}

fn distribution(workload: &str, s: &StatStream) -> Distribution {
    Distribution {
        workload: workload.to_owned(),
        samples: s.count() as usize,
        mean_pct: s.mean(),
        p5_pct: s.quantile(0.05),
        median_pct: s.quantile(0.5),
        p95_pct: s.quantile(0.95),
    }
}

fn print_block(title: &str, rows: &[Distribution]) {
    println!("\n{title}");
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "workload", "samples", "mean", "p5", "p50", "p95"
    );
    for r in rows {
        println!(
            "{:<8} {:>8} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            r.workload, r.samples, r.mean_pct, r.p5_pct, r.median_pct, r.p95_pct
        );
    }
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &["trials", "seed", "threads", "batch"];

fn main() {
    let args = Args::parse(&[FLAGS, CHECKPOINT_FLAGS].concat());
    let study = ColocationStudy {
        trials: args.usize("trials", 2_000),
        base_seed: args.u64("seed", 0xF19_0009),
        ..ColocationStudy::default()
    };
    let threads = args.usize("threads", default_threads());
    let cfg = EngineConfig {
        threads,
        batch_trials: args.usize("batch", DEFAULT_BATCH_TRIALS),
        collect_trials: false,
    };

    let opts = study_options(&args, "");
    eprintln!(
        "streaming {} colocation trials on {threads} threads…",
        study.trials
    );
    let (summary, _, _) = exit_on_engine_error(stream_colocation_study_resumable(
        &study,
        cfg,
        &opts,
        |_, _| {},
    ));

    let build = |pick: fn(&KindEquity) -> &StatStream| -> Vec<Distribution> {
        summary
            .per_kind
            .iter()
            .map(|k| distribution(&k.workload, pick(k)))
            .collect()
    };
    let out = Fig9 {
        own_rup: build(|k| &k.own_rup),
        own_fair: build(|k| &k.own_fair),
        partner_rup: build(|k| &k.partner_rup),
        partner_fair: build(|k| &k.partner_fair),
    };

    println!("Figure 9: per-workload deviation distributions (signed, % of ground truth)");
    print_block("(top-left) own deviation, RUP-Baseline", &out.own_rup);
    print_block("(top-right) own deviation, Fair-CO2", &out.own_fair);
    print_block(
        "(bottom-left) partner deviation, RUP-Baseline",
        &out.partner_rup,
    );
    print_block(
        "(bottom-right) partner deviation, Fair-CO2",
        &out.partner_fair,
    );

    let spread = |rows: &[Distribution]| {
        rows.iter()
            .map(|r| r.p95_pct - r.p5_pct)
            .fold(0.0f64, f64::max)
    };
    println!(
        "\nmax p5-p95 spread: RUP {:.2}% vs Fair-CO2 {:.2}% — Fair-CO2 collapses the per-workload bias bands",
        spread(&out.own_rup),
        spread(&out.own_fair)
    );

    let path = write_json("fig9", &out);
    println!("\nwrote {}", path.display());
}
