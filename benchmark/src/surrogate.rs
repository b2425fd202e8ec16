//! `surrogate`: the study's demand schedules attributed by the ridge
//! surrogate at tolerance 0.1 on one thread, falling back to cached
//! permutation sampling when the residual bound is too wide. The exact
//! solver is bypassed, so its changes should not move this workload.
//!
//! Set-up harvests the training trials with exact ground truth (on the
//! benchmark's threads) and fits the model. Training and audit schedules
//! are the committed surrogate study's fixed ones, so every run serves
//! with the same model and the audited error is deterministic; only the
//! served schedules come from the run seed. One operation attributes a
//! chunk of consecutive schedules; items are schedules attributed,
//! fallbacks included.
//!
//! Checks: every outcome sums to `v(N)` to 1e-9, and the audit schedules
//! re-solved exactly stay within the 0.1 share-error budget.

use std::time::Instant;

use fairco2_bench::surrogate::SurrogateStudy;
use fairco2_montecarlo::harvest::{fit_surrogate, harvest_demand_study_with};
use fairco2_montecarlo::{DemandStudy, TrialScratch};
use fairco2_shapley::exact::{exact_shapley_fast_with_scratch, ExactScratch};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::surrogate::{SurrogateAttributor, SurrogateScratch};

use crate::measure::{self, Tally};
use crate::trace::Spans;
use crate::{Ctx, Detail, Run, Traced, SETUP_REPEATS, THREADS};

/// Serving tolerance on the residual bound.
const TOLERANCE: f64 = 0.1;

/// Largest audited |φ̂ − φ| / v(N) the run accepts.
const ERROR_BUDGET: f64 = 0.1;

/// Ridge regularization of the fit.
const LAMBDA: f64 = 1e-6;

/// Wall time of one traced round (all its passes) on the two-core
/// machine the benchmark was calibrated on; a traced run does
/// `seconds / ROUND_S` rounds, a fixed count, so its per-layer counts
/// repeat exactly at a fixed seed.
const ROUND_S: f64 = 0.45;

/// Input streams derived from the run seed.
const EVAL: u64 = 11;
const TRACE_EVAL: u64 = 13;

struct Sizes {
    /// Schedules per operation.
    chunk: usize,
    /// Audit schedules re-solved exactly.
    audit: usize,
    /// Schedules per traced round.
    trace: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            chunk: 20,
            audit: 10,
            trace: 20,
        }
    } else {
        Sizes {
            chunk: 1000,
            audit: 400,
            trace: 5000,
        }
    }
}

/// The training and audit schedules of the committed surrogate study
/// (the audit study's first `audit` schedules are audited).
fn fixed(ctx: &Ctx) -> (DemandStudy, DemandStudy) {
    let committed = SurrogateStudy::default();
    let mut train = committed.train_study();
    if ctx.tiny {
        train.trials = 60;
    }
    (train, committed.eval_study())
}

fn study(base_seed: u64, trials: usize) -> DemandStudy {
    DemandStudy {
        trials,
        base_seed,
        ..DemandStudy::default()
    }
}

/// Harvests `train` with exact ground truth and fits the attributor,
/// with a span around each stage.
fn fit(
    train: &DemandStudy,
    threads: usize,
    spans: &mut Spans,
) -> Result<SurrogateAttributor, String> {
    let mut records = Vec::with_capacity(train.trials);
    spans.span("montecarlo.harvest", 0, || {
        harvest_demand_study_with(train, threads, 64, |r| records.push(r.clone()))
    });
    let model = spans.span("forecast.ridge_fit", 0, || fit_surrogate(&records, LAMBDA));
    model
        .map(|m| SurrogateAttributor::new(m, TOLERANCE))
        .map_err(|e| format!("surrogate fit failed: {e}"))
}

/// Serving buffers.
#[derive(Default)]
struct Serve {
    trial: TrialScratch,
    surrogate: SurrogateScratch,
    served: u64,
    fallbacks: u64,
}

impl Serve {
    /// Attributes schedule `t` of `eval`, checks efficiency, and returns
    /// whether it fell back. Spans: schedule generation, then the
    /// attribution under the layer that answered it.
    fn trial(
        &mut self,
        eval: &DemandStudy,
        attributor: &SurrogateAttributor,
        t: usize,
        corrupt: bool,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> bool {
        let r = t as u64;
        let root = spans.begin("harness.trial", r);
        let game = spans.span("montecarlo.schedules", r, || {
            PeakDemandGame::new(
                eval.generate_schedule_with(t, &mut self.trial)
                    .demand_matrix(),
            )
        });
        let open = spans.begin("shapley.surrogate", r);
        let out = attributor.attribute_with(&game, r, &mut self.surrogate);
        spans.end_as(
            open,
            if out.fell_back {
                "shapley.sampled"
            } else {
                "shapley.surrogate"
            },
        );
        spans.end(root);
        let mut sum: f64 = out.values.iter().sum();
        if corrupt && t == 0 {
            sum += 1.0;
        }
        tally.check(measure::close(sum, out.grand_value, 1e-9, 1.0), || {
            format!(
                "schedule {t}: attribution sums to {sum}, v(N) = {}",
                out.grand_value
            )
        });
        if out.fell_back {
            self.fallbacks += 1;
        } else {
            self.served += 1;
        }
        out.fell_back
    }
}

/// Untraced run.
pub fn run(ctx: &Ctx) -> Run {
    let s = sizes(ctx);
    let mut tally = Tally::default();
    let (train, audited) = fixed(ctx);
    let (setup_s, fitted) = measure::repeat_setup(SETUP_REPEATS, || {
        let mut off = Spans::new();
        off.set_enabled(false);
        fit(&train, THREADS, &mut off)
    });
    let attributor = match fitted {
        Ok(a) => a,
        Err(e) => {
            tally.fail(1, e);
            return Run {
                setup_s,
                tally,
                ..Run::default()
            };
        }
    };
    let eval = study(ctx.seed_for(EVAL, 0), 0);
    let mut serve = Serve::default();
    let mut off = Spans::new();
    off.set_enabled(false);
    let ops = measure::run_for(ctx.seconds, &mut tally, |op, tally| {
        for t in op * s.chunk..(op + 1) * s.chunk {
            serve.trial(&eval, &attributor, t, ctx.corrupt, &mut off, tally);
        }
        s.chunk as u64
    });

    // Audit: the fixed audit schedules re-solved exactly.
    let mut trial = TrialScratch::new();
    let mut surrogate = SurrogateScratch::new();
    let mut exact = ExactScratch::new();
    let mut max_error = 0.0f64;
    for t in 0..s.audit {
        let game = PeakDemandGame::new(
            audited
                .generate_schedule_with(t, &mut trial)
                .demand_matrix(),
        );
        let out = attributor.attribute_with(&game, t as u64, &mut surrogate);
        match exact_shapley_fast_with_scratch(&game, &mut exact) {
            Ok(phi) => {
                let error = out
                    .values
                    .iter()
                    .zip(phi)
                    .map(|(a, b)| (a - b).abs() / out.grand_value)
                    .fold(0.0, f64::max);
                max_error = max_error.max(error);
                tally.check(error <= ERROR_BUDGET, || {
                    format!("audit schedule {t}: share error {error} above {ERROR_BUDGET}")
                });
            }
            Err(e) => tally.fail(1, format!("audit schedule {t}: exact solve failed: {e}")),
        }
    }
    let attributed = serve.served + serve.fallbacks;
    let details = vec![
        Detail::new(
            "trials_per_s",
            ops.items as f64 / ops.wall_s,
            "1/s",
            format!("{attributed} schedules, 1 thread, tolerance {TOLERANCE}"),
        ),
        Detail::new(
            "fallback_ratio",
            serve.fallbacks as f64 / attributed.max(1) as f64,
            "ratio",
            format!("{} of {attributed} fell back to sampling", serve.fallbacks),
        ),
        Detail::new(
            "max_share_error",
            max_error,
            "ratio",
            format!("audited over {} schedules, budget {ERROR_BUDGET}", s.audit),
        ),
    ];
    Run {
        setup_s,
        ops,
        tally,
        details,
    }
}

/// Traced run: set-up once untraced and once traced, then
/// `seconds / ROUND_S` rounds of fresh schedules served untraced and
/// traced (alternating which goes first). Serving has no engine around
/// it, so the library's composition is the untraced pass itself.
pub fn trace(ctx: &Ctx) -> Traced {
    let s = sizes(ctx);
    let mut out = Traced::default();
    let (train, _) = fixed(ctx);
    out.spans.set_enabled(false);
    let t = Instant::now();
    let untraced_fit = fit(&train, THREADS, &mut out.spans);
    out.untraced_s += t.elapsed().as_secs_f64();
    out.spans.set_enabled(true);
    let t = Instant::now();
    let fitted = fit(&train, THREADS, &mut out.spans);
    out.traced_s += t.elapsed().as_secs_f64();
    let attributor = match (untraced_fit, fitted) {
        (Ok(_), Ok(a)) => a,
        (Err(e), _) | (_, Err(e)) => {
            out.tally.fail(1, e);
            out.untraced_s = out.untraced_s.max(f64::MIN_POSITIVE);
            return out;
        }
    };
    let mut traced = Serve::default();
    let mut fell_back = Vec::new();
    let (mut evals, mut hits, mut lookups) = (0u64, 0u64, 0u64);
    for round in 0..ctx.rounds(ROUND_S) {
        let eval = study(ctx.seed_for(TRACE_EVAL, round), 0);
        for traced_pass in [round % 2 == 1, round % 2 == 0] {
            out.spans.set_enabled(traced_pass);
            let mut untraced = Serve::default();
            let serve = if traced_pass {
                &mut traced
            } else {
                &mut untraced
            };
            let mut tally = Tally::default();
            let t = Instant::now();
            for trial in 0..s.trace {
                if serve.trial(&eval, &attributor, trial, false, &mut out.spans, &mut tally)
                    && traced_pass
                {
                    fell_back.push(trial);
                }
            }
            out.book(traced_pass, t.elapsed().as_secs_f64(), tally);
        }
        // The sampler's work on the traced pass's fallbacks, counted
        // outside the timed passes.
        let mut scratch = TrialScratch::new();
        for t in fell_back.drain(..) {
            let game =
                PeakDemandGame::new(eval.generate_schedule_with(t, &mut scratch).demand_matrix());
            let c = attributor.fallback_estimate(&game, t as u64).counters;
            evals += c.coalition_evals;
            hits += c.cache_hits;
            lookups += c.cache_hits + c.cache_misses;
        }
    }
    out.library_s = out.untraced_s;
    let attributed = (traced.served + traced.fallbacks).max(1) as f64;
    out.counts.extend([
        ("shapley.sampled_evals", evals as f64),
        (
            "shapley.sampled_cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        ),
        ("shapley.surrogate_served", traced.served as f64),
        (
            "shapley.surrogate_served_ratio",
            traced.served as f64 / attributed,
        ),
    ]);
    out
}
