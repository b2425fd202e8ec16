//! `study`: the paper's §6 Monte Carlo fairness study — random demand
//! schedules with exact-Shapley ground truth, then random colocation
//! scenarios — streamed through the batched engine on two threads.
//!
//! One operation is a study round: a demand study and a colocation study
//! of `round` trials each, on fresh seeds. Items are trials. Set-up is a
//! warm-up round on fixed inputs, so every run sets up the same work.
//!
//! Checks: every trial of every round is merged exactly once and in
//! order; `audit` trials of the first round are re-solved with the
//! per-coalition `exact_shapley` and must match the engine's fast exact
//! path to 1e-9 of the pool, with efficiency holding.

use std::time::Instant;

use fairco2::colocation::{
    ColocationAttributor, FairCo2Colocation, GroundTruthMatching, RupColocation,
};
use fairco2::demand::{
    DemandAttributor, DemandProportional, GroundTruthShapley, RupBaseline, TemporalFairCo2,
};
use fairco2::metrics::summarize;
use fairco2_carbon::units::CarbonIntensity;
use fairco2_montecarlo::colocations::PerWorkloadDeviation;
use fairco2_montecarlo::{
    stream_colocation_study, stream_colocation_study_with_sink, stream_demand_study,
    stream_demand_study_with_sink, ColocationStudy, ColocationStudySummary, ColocationTrial,
    DemandStudy, DemandStudySummary, DemandTrial, EngineConfig, EngineError, EngineStats,
    StudyOptions, TrialScratch,
};
use fairco2_shapley::axioms::check_efficiency;
use fairco2_shapley::exact::{parallel_exact_shapley, ExactScratch};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_workloads::history::sampled_profile_from_population;
use fairco2_workloads::history::InterferenceProfile;
use fairco2_workloads::NodeAccounting;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{self, Tally};
use crate::trace::Spans;
use crate::{Ctx, Detail, Run, Traced, SETUP_REPEATS, THREADS};

/// Carbon pool of a demand trial; it cancels in percentage deviations.
const POOL: f64 = 1000.0;

/// Trials per engine batch (the library default).
const BATCH: usize = 64;

/// Wall time of one traced round (all its passes) on the two-core
/// machine the benchmark was calibrated on; a traced run does
/// `seconds / ROUND_S` rounds, a fixed count, so its per-layer counts
/// repeat exactly at a fixed seed.
const ROUND_S: f64 = 0.5;

/// Input streams derived from the run seed.
const DEMAND: u64 = 1;
const COLOCATION: u64 = 2;
const TRACE_DEMAND: u64 = 3;
const TRACE_COLOCATION: u64 = 4;

/// Fixed seed of the set-up round.
const WARMUP_SEED: u64 = 0x0005_E70B;

struct Sizes {
    /// Trials per study per round.
    round: usize,
    /// Demand trials re-solved by the audit.
    audit: usize,
    /// Trials per study per traced round.
    trace: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            round: 16,
            audit: 4,
            trace: 8,
        }
    } else {
        Sizes {
            round: 128,
            audit: 64,
            trace: 256,
        }
    }
}

fn studies(
    demand_seed: u64,
    colocation_seed: u64,
    trials: usize,
) -> (DemandStudy, ColocationStudy) {
    (
        DemandStudy {
            trials,
            base_seed: demand_seed,
            ..DemandStudy::default()
        },
        ColocationStudy {
            trials,
            base_seed: colocation_seed,
            ..ColocationStudy::default()
        },
    )
}

/// What a study's per-trial sink saw: every trial once, in order, each
/// well formed.
struct Merged {
    next: usize,
    ok: bool,
}

impl Merged {
    fn new() -> Self {
        Self { next: 0, ok: true }
    }

    fn saw(&mut self, trial: usize, well_formed: bool) {
        self.ok &= trial == self.next && well_formed;
        self.next += 1;
    }

    /// Books a streamed study of `trials` trials: the sink, the
    /// summary's and the engine's trial counts must all agree. Engine
    /// retries count as attempts.
    fn book(
        self,
        what: &str,
        trials: usize,
        result: Result<(u64, EngineStats), EngineError>,
        tally: &mut Tally,
    ) {
        let n = trials as u64;
        match result {
            Ok((summarized, stats)) => {
                tally.ok(stats.retries);
                if self.ok && self.next == trials && summarized == n && stats.trials == n {
                    tally.ok(n);
                } else {
                    tally.fail(
                        n,
                        format!("{what}: trials not merged exactly once in order"),
                    );
                }
            }
            Err(e) => tally.fail(n, format!("{what}: {e}")),
        }
    }
}

/// Streams one demand study and checks that every trial was merged once,
/// in order.
fn demand_study(study: &DemandStudy, cfg: EngineConfig, tally: &mut Tally) {
    let mut merged = Merged::new();
    let result = stream_demand_study_with_sink(
        study,
        cfg,
        &StudyOptions::retrying(1),
        |_, _| {},
        |t| merged.saw(t.trial, true),
    );
    let what = format!("demand study {:#x}", study.base_seed);
    merged.book(
        &what,
        study.trials,
        result.map(|(s, st)| (s.trials, st)),
        tally,
    );
}

/// The colocation counterpart of [`demand_study`]; each trial must also
/// carry one record per workload.
fn colocation_study(study: &ColocationStudy, cfg: EngineConfig, tally: &mut Tally) {
    let mut merged = Merged::new();
    let result = stream_colocation_study_with_sink(
        study,
        cfg,
        &StudyOptions::retrying(1),
        |_, _| {},
        |t| merged.saw(t.trial, t.per_workload.len() == t.workloads),
    );
    let what = format!("colocation study {:#x}", study.base_seed);
    merged.book(
        &what,
        study.trials,
        result.map(|(s, st)| (s.trials, st)),
        tally,
    );
}

/// Re-solves `count` evenly spaced trials of `study` with the
/// per-coalition solver and compares them with the fast exact path.
fn audit(study: &DemandStudy, count: usize, threads: usize, corrupt: bool, tally: &mut Tally) {
    let step = (study.trials / count.max(1)).max(1);
    for (i, t) in (0..study.trials).step_by(step).take(count).enumerate() {
        let schedule = study.generate_schedule(t);
        let mut fast = Vec::new();
        if let Err(e) = GroundTruthShapley.attribute_into(&schedule, POOL, &mut fast) {
            tally.fail(1, format!("audit trial {t}: fast exact path failed: {e}"));
            continue;
        }
        if corrupt && i == 0 {
            fast[0] += 1.0;
        }
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let reference = match parallel_exact_shapley(&game, threads) {
            Ok(phi) => phi,
            Err(e) => {
                tally.fail(1, format!("audit trial {t}: exact_shapley failed: {e}"));
                continue;
            }
        };
        tally.check(check_efficiency(&game, &reference, 1e-9).holds(), || {
            format!("audit trial {t}: exact Shapley values violate efficiency")
        });
        let total: f64 = reference.iter().sum();
        let matches = fast.len() == reference.len()
            && fast
                .iter()
                .zip(&reference)
                .all(|(f, r)| measure::close(*f, POOL * r / total, 1e-9, POOL));
        tally.check(matches, || {
            format!("audit trial {t}: fast exact path differs from exact_shapley")
        });
    }
}

/// Untraced run.
pub fn run(ctx: &Ctx) -> Run {
    let s = sizes(ctx);
    let cfg = EngineConfig {
        threads: THREADS,
        batch_trials: BATCH,
        collect_trials: false,
    };
    let mut tally = Tally::default();
    let (setup_s, ()) = measure::repeat_setup(SETUP_REPEATS, || {
        let (d, c) = studies(WARMUP_SEED, WARMUP_SEED, s.round);
        let mut warm = Tally::default();
        demand_study(&d, cfg, &mut warm);
        colocation_study(&c, cfg, &mut warm);
    });
    let (mut demand_s, mut colocation_s) = (0.0, 0.0);
    let (mut demand_n, mut colocation_n) = (0u64, 0u64);
    let ops = measure::run_for(ctx.seconds, &mut tally, |op, tally| {
        let (d, c) = studies(
            ctx.seed_for(DEMAND, op as u64),
            ctx.seed_for(COLOCATION, op as u64),
            s.round,
        );
        let t = Instant::now();
        demand_study(&d, cfg, tally);
        demand_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        colocation_study(&c, cfg, tally);
        colocation_s += t.elapsed().as_secs_f64();
        demand_n += d.trials as u64;
        colocation_n += c.trials as u64;
        (d.trials + c.trials) as u64
    });
    let (first, _) = studies(ctx.seed_for(DEMAND, 0), 0, s.round);
    audit(&first, s.audit, THREADS, ctx.corrupt, &mut tally);
    let details = vec![
        Detail::new(
            "trials_per_s",
            demand_n as f64 / demand_s,
            "1/s",
            format!("{demand_n} demand trials, ≤22 workloads, exact ground truth"),
        ),
        Detail::new(
            "colocation_trials_per_s",
            colocation_n as f64 / colocation_s,
            "1/s",
            format!("{colocation_n} colocation trials, 4–100 workloads"),
        ),
    ];
    Run {
        setup_s,
        ops,
        tally,
        details,
    }
}

/// Buffers of the serial replay.
#[derive(Default)]
struct Replay {
    trial: TrialScratch,
    exact: ExactScratch,
    truth: Vec<f64>,
    rup: Vec<f64>,
    proportional: Vec<f64>,
    fair: Vec<f64>,
    profiles: Vec<InterferenceProfile>,
    coalitions: u64,
}

impl Replay {
    /// One demand trial, as `DemandStudy::run_trial_with_scratch`
    /// composes it, with a span around each library call.
    fn demand_trial(
        &mut self,
        study: &DemandStudy,
        summary: &mut DemandStudySummary,
        t: usize,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let r = t as u64;
        let root = spans.begin("harness.trial", r);
        let schedule = spans.span("montecarlo.schedules", r, || {
            study.generate_schedule_with(t, &mut self.trial)
        });
        let truth = spans.span("shapley.exact", r, || {
            GroundTruthShapley.attribute_with_scratch(
                &schedule,
                POOL,
                &mut self.exact,
                &mut self.truth,
            )
        });
        let baselines = spans.span("core.demand_baselines", r, || {
            RupBaseline
                .attribute_into(&schedule, POOL, &mut self.rup)
                .and_then(|()| {
                    DemandProportional.attribute_into(&schedule, POOL, &mut self.proportional)
                })
        });
        let fair = spans.span("shapley.cascade", r, || {
            TemporalFairCo2::per_step().attribute_into(&schedule, POOL, &mut self.fair)
        });
        if truth.is_err() || baselines.is_err() || fair.is_err() {
            tally.fail(1, format!("replayed demand trial {t}: attribution failed"));
            spans.end(root);
            return;
        }
        let devs = spans.span("core.metrics", r, || {
            Some([
                summarize(&self.rup, &self.truth)?,
                summarize(&self.proportional, &self.truth)?,
                summarize(&self.fair, &self.truth)?,
            ])
        });
        let Some([rup, demand_proportional, fair_co2]) = devs else {
            tally.fail(
                1,
                format!("replayed demand trial {t}: ground truth has zero shares"),
            );
            spans.end(root);
            return;
        };
        spans.span("montecarlo.streaming", r, || {
            summary.record(&DemandTrial {
                trial: t,
                time_slices: schedule.steps(),
                workloads: schedule.workloads().len(),
                rup,
                demand_proportional,
                fair_co2,
            });
        });
        spans.end(root);
        self.coalitions += 1u64 << schedule.workloads().len();
        tally.ok(1);
    }

    /// One colocation trial, as `ColocationStudy::run_trial_with_scratch`
    /// composes it.
    fn colocation_trial(
        &mut self,
        study: &ColocationStudy,
        summary: &mut ColocationStudySummary,
        t: usize,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let r = t as u64;
        let root = spans.begin("harness.trial", r);
        let (scenario, grid_ci, samples) = spans.span("montecarlo.colocations", r, || {
            study.generate_with(t, &mut self.trial)
        });
        let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(grid_ci));
        let truth = spans.span("core.colocation_truth", r, || {
            GroundTruthMatching.attribute_into(&scenario, &ctx, &mut self.truth)
        });
        let rup = spans.span("core.colocation_rup", r, || {
            RupColocation.attribute_into(&scenario, &ctx, &mut self.rup)
        });
        let placed = scenario.workloads();
        spans.span("workloads.history", r, || {
            let mut rng = StdRng::seed_from_u64(study.base_seed.wrapping_add(r) ^ 0x5A5A_5A5A);
            let kinds: Vec<_> = placed.iter().map(|w| w.kind).collect();
            self.profiles.clear();
            for (i, w) in placed.iter().enumerate() {
                let mut pool = kinds.clone();
                pool.swap_remove(i);
                self.profiles.push(sampled_profile_from_population(
                    ctx.interference(),
                    w.kind,
                    &pool,
                    samples,
                    &mut rng,
                ));
            }
        });
        let fair = spans.span("core.colocation_fair", r, || {
            FairCo2Colocation::with_full_history().attribute_profiles_into(
                &scenario,
                &ctx,
                &self.profiles,
                &mut self.fair,
            )
        });
        if truth.is_err() || rup.is_err() || fair.is_err() {
            tally.fail(
                1,
                format!("replayed colocation trial {t}: attribution failed"),
            );
            spans.end(root);
            return;
        }
        let devs = spans.span("core.metrics", r, || {
            let per_workload: Vec<PerWorkloadDeviation> = placed
                .iter()
                .zip(self.truth.iter().zip(self.rup.iter().zip(&self.fair)))
                .map(|(w, (&t, (&r, &f)))| PerWorkloadDeviation {
                    kind: w.kind,
                    partner: w.partner,
                    rup_pct: 100.0 * (r - t) / t,
                    fair_pct: 100.0 * (f - t) / t,
                })
                .collect();
            Some((
                summarize(&self.rup, &self.truth)?,
                summarize(&self.fair, &self.truth)?,
                per_workload,
            ))
        });
        let Some((rup, fair_co2, per_workload)) = devs else {
            tally.fail(
                1,
                format!("replayed colocation trial {t}: ground truth has zero shares"),
            );
            spans.end(root);
            return;
        };
        spans.span("montecarlo.streaming", r, || {
            summary.record(&ColocationTrial {
                trial: t,
                workloads: placed.len(),
                grid_ci,
                samples,
                rup,
                fair_co2,
                per_workload,
            });
        });
        spans.end(root);
        tally.ok(1);
    }

    /// Replays both studies trial by trial on this thread, grouping
    /// trials into the engine's batches.
    fn studies(
        &mut self,
        d: &DemandStudy,
        c: &ColocationStudy,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let mut summary = DemandStudySummary::empty(d);
        for (b, start) in (0..d.trials).step_by(BATCH).enumerate() {
            let batch = spans.begin("harness.demand_batch", b as u64);
            for t in start..(start + BATCH).min(d.trials) {
                self.demand_trial(d, &mut summary, t, spans, tally);
            }
            spans.end(batch);
        }
        let mut summary = ColocationStudySummary::empty(c);
        for (b, start) in (0..c.trials).step_by(BATCH).enumerate() {
            let batch = spans.begin("harness.colocation_batch", b as u64);
            for t in start..(start + BATCH).min(c.trials) {
                self.colocation_trial(c, &mut summary, t, spans, tally);
            }
            spans.end(batch);
        }
    }
}

/// Traced run: `seconds / ROUND_S` rounds of fresh studies, each run
/// three ways — the library's engine on one thread, then the serial
/// replay untraced and traced (alternating which goes first).
pub fn trace(ctx: &Ctx) -> Traced {
    let s = sizes(ctx);
    let mut out = Traced {
        engine: true,
        ..Traced::default()
    };
    let mut replay = Replay::default();
    let mut engine = EngineStats::default();
    for round in 0..ctx.rounds(ROUND_S) {
        let (d, c) = studies(
            ctx.seed_for(TRACE_DEMAND, round),
            ctx.seed_for(TRACE_COLOCATION, round),
            s.trace,
        );
        let t = Instant::now();
        let (_, _, ds) = stream_demand_study(&d, EngineConfig::new(1));
        let (_, _, cs) = stream_colocation_study(&c, EngineConfig::new(1));
        out.library_s += t.elapsed().as_secs_f64();
        for st in [ds, cs] {
            engine.batches += st.batches;
            engine.retries += st.retries;
            engine.max_reorder_depth = engine.max_reorder_depth.max(st.max_reorder_depth);
            engine.scratch.table_grows += st.scratch.table_grows;
        }
        // Alternate which pass goes first so neither always runs warm.
        for traced in [round % 2 == 1, round % 2 == 0] {
            out.spans.set_enabled(traced);
            let before = replay.coalitions;
            let mut tally = Tally::default();
            let t = Instant::now();
            replay.studies(&d, &c, &mut out.spans, &mut tally);
            out.book(traced, t.elapsed().as_secs_f64(), tally);
            if !traced {
                replay.coalitions = before;
            }
        }
    }
    let spread = measure::max_over_median(&out.spans.durations("harness.demand_batch"));
    let counts = [
        ("shapley.exact_coalitions", replay.coalitions as f64),
        ("montecarlo.engine_batches", engine.batches as f64),
        ("montecarlo.engine_retries", engine.retries as f64),
        (
            "montecarlo.engine_max_reorder_depth",
            engine.max_reorder_depth as f64,
        ),
        (
            "montecarlo.engine_table_grows",
            engine.scratch.table_grows as f64,
        ),
        ("montecarlo.batch_spread", spread),
    ];
    out.counts.extend(counts);
    out
}
