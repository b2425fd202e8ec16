//! Surrogate-accelerated attribution study: harvest → fit → serve, with
//! the accuracy gates asserted in-binary.
//!
//! The study attributes the Figure-7 demand schedules two ways:
//!
//! 1. **Surrogate**: a ridge model harvested from an *out-of-sample*
//!    training study serves normalized Shapley shares in `O(features)`
//!    per workload, falling back to the sampled solver (2,000
//!    permutations) whenever the residual bound exceeds the tolerance.
//! 2. **Exact audit**: a subset of trials re-solved exactly to measure
//!    the surrogate pipeline's true share error.
//!
//! Gates (all asserted, recorded in `gates_passed`): served outcomes
//! satisfy the efficiency axiom to 1e-9; zero tolerance collapses
//! bit-for-bit to the fallback's sampled estimate; fallback decisions and
//! served values are bit-identical at 1/2/8 threads; and the audited max
//! normalized share error stays within the accuracy budget. The tolerance
//! → (fallback rate, error) frontier is swept over the audit subset. The
//! report records outcomes, not timings: the benchmark's `surrogate`
//! workload times this pipeline.

use serde::Serialize;

use fairco2_montecarlo::harvest::{fit_surrogate, harvest_demand_study_with, HarvestRecord};
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::scratch::TrialScratch;
use fairco2_shapley::axioms::check_efficiency;
use fairco2_shapley::exact::{exact_shapley_fast_with_scratch, ExactScratch};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::surrogate::{SurrogateAttributor, SurrogateModel, SurrogateScratch};

/// Salt XORed into the evaluation seed to draw the *training* schedules:
/// the model never trains on the trials it is timed and audited on.
pub const TRAIN_SEED_SALT: u64 = 0x7261_494E;

/// Configuration of the surrogate benchmark.
#[derive(Debug, Clone)]
pub struct SurrogateStudy {
    /// Evaluation trials attributed end to end.
    pub trials: usize,
    /// Out-of-sample training trials harvested with exact ground truth.
    pub train_trials: usize,
    /// Evaluation trials re-solved exactly to audit the share error.
    pub audit_trials: usize,
    /// Workload cap of both studies (the paper's 22).
    pub max_workloads: usize,
    /// Worker threads for the harvest.
    pub threads: usize,
    /// Serving tolerance on the residual bound (the pinned operating
    /// point).
    pub tolerance: f64,
    /// Accuracy budget: the audited max normalized share error
    /// (`|φ̂_p − φ_p| / v(N)`) must stay below this for the gate to pass.
    pub accuracy_budget: f64,
    /// Tolerances of the frontier sweep.
    pub tolerances: Vec<f64>,
    /// Ridge regularization of the surrogate fit.
    pub lambda: f64,
    /// Evaluation-study base seed (the Figure-7 default).
    pub seed: u64,
}

impl Default for SurrogateStudy {
    fn default() -> Self {
        Self {
            trials: 10_000,
            train_trials: 500,
            audit_trials: 400,
            max_workloads: 22,
            threads: 1,
            tolerance: 0.1,
            accuracy_budget: 0.1,
            tolerances: vec![0.005, 0.01, 0.02, 0.05, 0.1],
            lambda: 1e-6,
            seed: DemandStudy::default().base_seed,
        }
    }
}

impl SurrogateStudy {
    /// The evaluation demand study (same generator/seed family as fig7).
    pub fn eval_study(&self) -> DemandStudy {
        DemandStudy {
            trials: self.trials,
            max_workloads: self.max_workloads,
            base_seed: self.seed,
            ..DemandStudy::default()
        }
    }

    /// The disjoint training study the harvest runs over.
    pub fn train_study(&self) -> DemandStudy {
        DemandStudy {
            trials: self.train_trials,
            max_workloads: self.max_workloads,
            base_seed: self.seed ^ TRAIN_SEED_SALT,
            ..DemandStudy::default()
        }
    }
}

/// One point of the tolerance → accuracy frontier, measured over the
/// audit subset.
#[derive(Debug, Clone, Serialize)]
pub struct Tolerancepoint {
    /// Residual-bound tolerance of this point.
    pub tolerance: f64,
    /// Fraction of audited trials that fell back to the sampled solver.
    pub fallback_rate: f64,
    /// Audited max normalized share error of the full pipeline.
    pub max_share_error: f64,
    /// Audited mean (per-trial max) normalized share error.
    pub mean_share_error: f64,
}

/// Machine-readable surrogate study outcomes
/// (`results/BENCH_surrogate.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SurrogateReport {
    /// Evaluation trials attributed end to end.
    pub trials: usize,
    /// Out-of-sample training trials harvested.
    pub train_trials: usize,
    /// Training rows (workloads × trials) the ridge fit on.
    pub train_rows: usize,
    /// Audited evaluation trials (exact truth recomputed).
    pub audit_trials: usize,
    /// Workload cap of both studies.
    pub max_workloads: usize,
    /// Pinned serving tolerance.
    pub tolerance: f64,
    /// Accuracy budget the audit gate enforces.
    pub accuracy_budget: f64,
    /// Ridge regularization.
    pub lambda: f64,
    /// Every gate below held (asserted; recorded).
    pub gates_passed: bool,
    /// Served outcomes satisfied the efficiency axiom to 1e-9.
    pub gate_efficiency: bool,
    /// Tolerance 0 collapsed bit-for-bit to the fallback's sampled
    /// estimate.
    pub gate_zero_tolerance_collapse: bool,
    /// Fallback decisions and values bit-identical at 1/2/8 threads.
    pub gate_thread_invariant: bool,
    /// Audited max share error stayed within the accuracy budget.
    pub gate_accuracy: bool,
    /// Audited max normalized share error at the pinned tolerance.
    pub max_share_error: f64,
    /// Audited mean (per-trial max) normalized share error.
    pub mean_share_error: f64,
    /// Fallback rate at the pinned tolerance over the full evaluation.
    pub fallback_rate: f64,
    /// The tolerance → (fallback, error) frontier.
    pub frontier: Vec<Tolerancepoint>,
}

/// Reusable buffers for one evaluation pass.
struct EvalScratch {
    trial: TrialScratch,
    surrogate: SurrogateScratch,
    exact: ExactScratch,
}

impl EvalScratch {
    fn new() -> Self {
        Self {
            trial: TrialScratch::new(),
            surrogate: SurrogateScratch::new(),
            exact: ExactScratch::new(),
        }
    }
}

/// Attributes one evaluation trial through the surrogate pipeline.
fn attribute_trial(
    study: &DemandStudy,
    attributor: &SurrogateAttributor,
    trial: usize,
    scratch: &mut EvalScratch,
) -> fairco2_shapley::surrogate::SurrogateOutcome {
    let schedule = study.generate_schedule_with(trial, &mut scratch.trial);
    let game = PeakDemandGame::new(schedule.demand_matrix());
    attributor.attribute_with(&game, trial as u64, &mut scratch.surrogate)
}

/// Audit pass over `trials` evaluation trials: runs the full pipeline
/// *and* the exact solver, returning `(fallbacks, max error, mean
/// per-trial max error)` in normalized share units.
fn audit(
    study: &DemandStudy,
    attributor: &SurrogateAttributor,
    trials: usize,
    scratch: &mut EvalScratch,
) -> (usize, f64, f64) {
    let mut fallbacks = 0usize;
    let mut max_err = 0.0f64;
    let mut sum_trial_max = 0.0f64;
    for t in 0..trials {
        let schedule = study.generate_schedule_with(t, &mut scratch.trial);
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let outcome = attributor.attribute_with(&game, t as u64, &mut scratch.surrogate);
        let phi = exact_shapley_fast_with_scratch(&game, &mut scratch.exact)
            .expect("generated schedules are solvable");
        let v_n = outcome.grand_value;
        let mut trial_max = 0.0f64;
        for (served, exact) in outcome.values.iter().zip(phi) {
            trial_max = trial_max.max((served - exact).abs() / v_n);
        }
        max_err = max_err.max(trial_max);
        sum_trial_max += trial_max;
        fallbacks += usize::from(outcome.fell_back);
    }
    (fallbacks, max_err, sum_trial_max / trials.max(1) as f64)
}

/// The thread-invariance gate: attributes `trials` evaluation trials on
/// real worker threads (each with its own scratch), and demands the
/// per-trial `(fell_back, value bits)` stream match the serial reference
/// exactly at every thread count.
fn thread_invariant(study: &DemandStudy, attributor: &SurrogateAttributor, trials: usize) -> bool {
    /// One trial's observable outcome: the fallback decision plus the
    /// served value bits.
    type TrialBits = (bool, Vec<u64>);
    let collect = |threads: usize| -> Vec<TrialBits> {
        let mut out: Vec<Option<TrialBits>> = vec![None; trials];
        std::thread::scope(|scope| {
            let chunk = trials.div_ceil(threads.max(1));
            for (w, slice) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    let mut scratch = EvalScratch::new();
                    for (i, slot) in slice.iter_mut().enumerate() {
                        let t = w * chunk + i;
                        let outcome = attribute_trial(study, attributor, t, &mut scratch);
                        *slot = Some((
                            outcome.fell_back,
                            outcome.values.iter().map(|v| v.to_bits()).collect(),
                        ));
                    }
                });
            }
        });
        out.into_iter()
            .map(|o| o.expect("all trials ran"))
            .collect()
    };
    let reference = collect(1);
    [2usize, 8].iter().all(|&t| collect(t) == reference)
}

/// Runs the full surrogate study: harvest, fit, gates, frontier, and the
/// fallback rate over the whole evaluation study.
///
/// # Panics
///
/// Panics when any gate fails. Gate outcomes are also recorded in the
/// report so downstream tooling can assert `gates_passed` from the JSON
/// alone.
pub fn run_surrogate(study: &SurrogateStudy) -> SurrogateReport {
    let eval = study.eval_study();
    let train = study.train_study();
    assert!(
        study.audit_trials <= study.trials,
        "audit subset exceeds the evaluation study"
    );

    // --- Harvest the out-of-sample training set, then fit. ---
    let mut records: Vec<HarvestRecord> = Vec::with_capacity(train.trials);
    harvest_demand_study_with(&train, study.threads, 64, |r| records.push(r.clone()));
    let train_rows: usize = records.iter().map(|r| r.workloads).sum();
    let model: SurrogateModel = fit_surrogate(&records, study.lambda).expect("harvest fits");
    drop(records);

    let attributor = SurrogateAttributor::new(model.clone(), study.tolerance);
    let mut scratch = EvalScratch::new();

    // --- Gates. ---
    let gate_trials = study.audit_trials.clamp(1, 200);

    // Efficiency: every served outcome satisfies the axiom to 1e-9.
    let mut gate_efficiency = true;
    for t in 0..gate_trials {
        let schedule = eval.generate_schedule_with(t, &mut scratch.trial);
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let outcome = attributor.attribute_with(&game, t as u64, &mut scratch.surrogate);
        if !outcome.fell_back {
            gate_efficiency &= check_efficiency(&game, &outcome.values, 1e-9).holds();
        }
    }
    assert!(gate_efficiency, "served outcomes must satisfy efficiency");

    // Zero tolerance collapses to the sampled solver bit-for-bit.
    let zero = SurrogateAttributor::new(model.clone(), 0.0);
    let mut gate_zero = true;
    for t in 0..gate_trials.min(8) {
        let schedule = eval.generate_schedule_with(t, &mut scratch.trial);
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let outcome = zero.attribute_with(&game, t as u64, &mut scratch.surrogate);
        let direct = zero.fallback_estimate(&game, t as u64);
        gate_zero &= outcome.fell_back;
        gate_zero &= outcome
            .values
            .iter()
            .zip(&direct.values)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    }
    assert!(
        gate_zero,
        "tolerance 0 must collapse to the sampled fallback"
    );

    // Fallback decisions and served bits are thread-invariant.
    let gate_thread = thread_invariant(&eval, &attributor, gate_trials);
    assert!(
        gate_thread,
        "attribution must be bit-identical at any thread count"
    );

    // Accuracy audit at the pinned tolerance.
    let (_, max_share_error, mean_share_error) =
        audit(&eval, &attributor, study.audit_trials, &mut scratch);
    let gate_accuracy = max_share_error <= study.accuracy_budget;
    assert!(
        gate_accuracy,
        "audited max share error {max_share_error} exceeds the {} budget",
        study.accuracy_budget
    );
    let gates_passed = gate_efficiency && gate_zero && gate_thread && gate_accuracy;

    // --- Frontier sweep over the audit subset. ---
    let mut frontier = Vec::new();
    for &tol in &study.tolerances {
        let a = SurrogateAttributor::new(model.clone(), tol);
        let (fallbacks, max_err, mean_err) = audit(&eval, &a, study.audit_trials, &mut scratch);
        frontier.push(Tolerancepoint {
            tolerance: tol,
            fallback_rate: fallbacks as f64 / study.audit_trials.max(1) as f64,
            max_share_error: max_err,
            mean_share_error: mean_err,
        });
    }

    // --- Fallback rate over the whole evaluation study. ---
    let fallbacks = (0..eval.trials)
        .filter(|&t| attribute_trial(&eval, &attributor, t, &mut scratch).fell_back)
        .count();

    SurrogateReport {
        trials: study.trials,
        train_trials: study.train_trials,
        train_rows,
        audit_trials: study.audit_trials,
        max_workloads: study.max_workloads,
        tolerance: study.tolerance,
        accuracy_budget: study.accuracy_budget,
        lambda: study.lambda,
        gates_passed,
        gate_efficiency,
        gate_zero_tolerance_collapse: gate_zero,
        gate_thread_invariant: gate_thread,
        gate_accuracy,
        max_share_error,
        mean_share_error,
        fallback_rate: fallbacks as f64 / eval.trials.max(1) as f64,
        frontier,
    }
}

/// Prints the human-readable summary the binaries share.
pub fn print_surrogate(report: &SurrogateReport) {
    println!(
        "surrogate  trained on {} trials ({} rows)",
        report.train_trials, report.train_rows
    );
    println!(
        "surrogate  gates: efficiency {}, zero-tol collapse {}, thread-invariant {}, accuracy {} (max err {:.4} ≤ {:.3})",
        report.gate_efficiency,
        report.gate_zero_tolerance_collapse,
        report.gate_thread_invariant,
        report.gate_accuracy,
        report.max_share_error,
        report.accuracy_budget
    );
    for p in &report.frontier {
        println!(
            "surrogate  tol {:>6.3}  fallback {:>5.1}%  max err {:.4}  mean err {:.4}",
            p.tolerance,
            100.0 * p.fallback_rate,
            p.max_share_error,
            p.mean_share_error
        );
    }
    println!(
        "surrogate  fallback rate {:.2}% at tol {:.3} over {} trials",
        100.0 * report.fallback_rate,
        report.tolerance,
        report.trials
    );
}
