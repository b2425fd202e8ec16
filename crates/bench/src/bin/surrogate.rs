//! **Surrogate attribution study** — trains the ridge surrogate on an
//! out-of-sample harvest, asserts the serving gates (efficiency axiom,
//! zero-tolerance collapse, thread invariance, audited accuracy budget),
//! sweeps the tolerance → (fallback rate, error) frontier, and records
//! the fallback rate over the full evaluation study. It records outcomes;
//! the benchmark's `surrogate` workload times the pipeline.
//!
//! Defaults to the paper's 10,000-trial demand study. Tune with
//! `--trials N --train N --audit N --max-workloads N --tolerance X
//! --budget X --lambda X --seed N --threads N`. Writes
//! `results/BENCH_surrogate.json`; `gates_passed` in that JSON is the
//! machine-checkable contract (CI asserts it on a reduced study).

use fairco2_bench::surrogate::print_surrogate;
use fairco2_bench::{run_surrogate, write_json, Args, SurrogateStudy};
use fairco2_shapley::parallel::default_threads;

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &[
    "trials",
    "train",
    "audit",
    "max-workloads",
    "tolerance",
    "budget",
    "lambda",
    "seed",
    "threads",
];

fn main() {
    let args = Args::parse(FLAGS);
    let defaults = SurrogateStudy::default();
    let study = SurrogateStudy {
        trials: args.usize("trials", defaults.trials),
        train_trials: args.usize("train", defaults.train_trials),
        audit_trials: args.usize("audit", defaults.audit_trials),
        max_workloads: args.usize("max-workloads", defaults.max_workloads),
        threads: args.usize("threads", default_threads()),
        tolerance: args.f64("tolerance", defaults.tolerance),
        accuracy_budget: args.f64("budget", defaults.accuracy_budget),
        lambda: args.f64("lambda", defaults.lambda),
        seed: args.u64("seed", defaults.seed),
        ..defaults
    };

    eprintln!(
        "surrogate study: {} eval trials, {} train, {} audited (≤{} workloads, tol {})…",
        study.trials, study.train_trials, study.audit_trials, study.max_workloads, study.tolerance
    );
    let report = run_surrogate(&study);
    print_surrogate(&report);

    let path = write_json("BENCH_surrogate", &report);
    println!("\nwrote {}", path.display());
}
