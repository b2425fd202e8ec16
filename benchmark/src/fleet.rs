//! `fleet`: a VM trace through the Azure-scale co-simulation — streamed
//! generation, spatio-temporal placement through the placement index,
//! per-region Temporal Shapley re-attribution per tenant — and the same
//! VM population scheduled on the sharded cluster simulator. The exact
//! solver and the service are never touched.
//!
//! One operation is one study of `vms` VMs over `days` days, three
//! regions and twelve tenants on fresh seeds: `run_azure_scale` on two
//! threads, then `collect_events` and `run_sharded` (64 shards, two
//! threads) over the same population. Items are VMs. Set-up is one such
//! operation on fixed inputs.
//!
//! Checks: each scenario's tenant rows add up to its total to 1e-9, and
//! the simulator schedules exactly one job per VM of the study.

use std::time::Instant;

use fairco2_bench::scale::{run_azure_scale, AzureScaleReport, AzureScaleStudy, SCENARIOS};
use fairco2_cluster::policy::FirstFit;
use fairco2_cluster::{run_sharded, Job, JobStream, SimulationOutcome, Simulator};
use fairco2_montecarlo::{EngineConfig, StudyOptions};
use fairco2_optimize::scaling::ResourcePricing;
use fairco2_optimize::spatial::{job_carbon, BatchJob, PlacementIndex};
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::vms::VmEvent;
use fairco2_trace::TimeSeries;
use fairco2_workloads::ALL_WORKLOADS;

use crate::measure::{self, Tally};
use crate::trace::Spans;
use crate::{Ctx, Detail, Run, Traced, SETUP_REPEATS, THREADS};

/// Regions and tenants of every study.
const REGIONS: usize = 3;
const TENANTS: usize = 12;
/// Node-range shards of the cluster simulation.
const SHARDS: usize = 64;
/// One-minute arrival buckets per engine batch (one day).
const BATCH_BUCKETS: usize = 1440;

/// Wall time of one traced round (all its passes) on the two-core
/// machine the benchmark was calibrated on; a traced run does
/// `seconds / ROUND_S` rounds, a fixed count, so its per-layer counts
/// repeat exactly at a fixed seed.
const ROUND_S: f64 = 0.24;

/// Input streams derived from the run seed.
const STUDY: u64 = 31;
const TRACE_STUDY: u64 = 32;

/// Fixed seed of the set-up operation.
const WARMUP_SEED: u64 = 0xF1EE7;

struct Sizes {
    /// Expected short-lived VMs per study.
    vms: u64,
    /// Trace horizon in days.
    days: u32,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.tiny {
        Sizes {
            vms: 3_000,
            days: 2,
        }
    } else {
        Sizes {
            vms: 100_000,
            days: 30,
        }
    }
}

fn study(s: &Sizes, seed: u64) -> AzureScaleStudy {
    AzureScaleStudy {
        vms: s.vms,
        days: s.days,
        regions: REGIONS,
        tenants: TENANTS,
        seed,
        ..AzureScaleStudy::default()
    }
}

/// Cluster jobs for a VM population: the workload kind is hashed from
/// the job index, the arrival is the VM's start. Populations come sorted
/// by start, so the stream needs no re-sort.
fn jobs(vms: &[VmEvent]) -> Vec<Job> {
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

/// Schedules the study's VM population on the sharded simulator.
fn simulate(
    study: &AzureScaleStudy,
    threads: usize,
    sim: &Simulator,
) -> (usize, SimulationOutcome) {
    let population = study.vm_config().collect_events(threads);
    let stream = JobStream::from_sorted(jobs(population.vms()));
    let outcome = run_sharded(sim, &stream, SHARDS, threads, |_| Box::new(FirstFit));
    (stream.len(), outcome)
}

/// Whether every scenario's tenant rows add up to its total to 1e-9.
fn decomposes(report: &AzureScaleReport) -> bool {
    report.scenarios.iter().enumerate().all(|(idx, scenario)| {
        let sum: f64 = report
            .tenant_rows
            .iter()
            .map(|r| match idx {
                0 => r.baseline_kg,
                1 => r.temporal_kg,
                _ => r.spatio_temporal_kg,
            })
            .sum();
        let total = scenario.operational_kg + scenario.embodied_kg + scenario.migration_kg;
        measure::close(sum, total, 1e-9, 1.0)
    })
}

/// Times of the two halves of an operation.
#[derive(Default)]
struct Halves {
    study_s: f64,
    vms: u64,
    cluster_s: f64,
    jobs: u64,
}

/// One operation: the co-simulation study, then the cluster simulation
/// of the same population, with their checks. Returns the VMs processed.
fn operation(
    study: &AzureScaleStudy,
    threads: usize,
    sim: &Simulator,
    corrupt: bool,
    halves: &mut Halves,
    tally: &mut Tally,
) -> u64 {
    let cfg = EngineConfig {
        threads,
        batch_trials: BATCH_BUCKETS,
        collect_trials: false,
    };
    let t = Instant::now();
    let report = run_azure_scale(study, cfg, &StudyOptions::retrying(1));
    halves.study_s += t.elapsed().as_secs_f64();
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            tally.fail(1, format!("study {:#x}: {e}", study.seed));
            return 0;
        }
    };
    tally.ok(report.engine.retries);
    if corrupt {
        report.tenant_rows[0].baseline_kg += 1.0;
    }
    let t = Instant::now();
    let (jobs, outcome) = simulate(study, threads, sim);
    halves.cluster_s += t.elapsed().as_secs_f64();
    halves.vms += report.vms;
    halves.jobs += jobs as u64;
    let ok = decomposes(&report) && outcome.jobs.len() == jobs && jobs as u64 == report.vms;
    if ok {
        tally.ok(report.vms);
    } else {
        tally.fail(
            report.vms,
            format!(
                "study {:#x}: tenant rows or job count do not add up",
                study.seed
            ),
        );
    }
    report.vms
}

/// Untraced run.
pub fn run(ctx: &Ctx) -> Run {
    let s = sizes(ctx);
    let sim = Simulator::paper_default();
    let mut tally = Tally::default();
    let (setup_s, ()) = measure::repeat_setup(SETUP_REPEATS, || {
        let mut warm = Tally::default();
        operation(
            &study(&s, WARMUP_SEED),
            THREADS,
            &sim,
            false,
            &mut Halves::default(),
            &mut warm,
        );
    });
    let mut halves = Halves::default();
    let ops = measure::run_for(ctx.seconds, &mut tally, |op, tally| {
        let st = study(&s, ctx.seed_for(STUDY, op as u64));
        operation(
            &st,
            THREADS,
            &sim,
            ctx.corrupt && op == 0,
            &mut halves,
            tally,
        )
    });
    let details = vec![
        Detail::new(
            "vms_per_s",
            halves.vms as f64 / halves.study_s,
            "1/s",
            format!(
                "{} VMs through run_azure_scale, {} days × {REGIONS} regions × {TENANTS} tenants",
                halves.vms, s.days
            ),
        ),
        Detail::new(
            "jobs_per_s",
            halves.jobs as f64 / halves.cluster_s,
            "1/s",
            format!(
                "{} jobs through collect_events + run_sharded, {SHARDS} shards",
                halves.jobs
            ),
        ),
    ];
    Run {
        setup_s,
        ops,
        tally,
        details,
    }
}

/// Counters of a replay.
#[derive(Default)]
struct ReplayCounts {
    vms: u64,
    placements: u64,
    deferrable: u64,
    shifted: u64,
    peak_nodes: u64,
}

/// One placed run of a VM under one scenario.
struct Placed {
    scenario: usize,
    region: usize,
    start: i64,
    runtime_s: f64,
    cores: f64,
}

/// Replays one study on this thread the way `run_azure_scale` composes
/// it — region build, streamed generation and per-VM placement per
/// day-sized batch, hourly demand accumulation, per-scenario and region
/// re-attribution — followed by the cluster simulation, with spans around
/// each library call.
fn replay(
    study: &AzureScaleStudy,
    sim: &Simulator,
    spans: &mut Spans,
    tally: &mut Tally,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let vm_cfg = study.vm_config();
    let regions = spans.span("optimize.spatial_regions", 0, || study.build_regions());
    let (full, single) = spans.span("optimize.spatial_regions", 0, || {
        let full = PlacementIndex::new(&regions);
        let single: Vec<PlacementIndex<'_>> = (0..regions.len())
            .map(|i| PlacementIndex::new(&regions[i..=i]))
            .collect();
        (full, single)
    });
    let pricing = ResourcePricing::paper_default(0.0);
    let hours = study.hours();
    let mut demand = vec![0.0f64; SCENARIOS.len() * REGIONS * hours];
    let buckets = vm_cfg.buckets() as usize;
    let mut vms: Vec<(u64, VmEvent, bool)> = Vec::new();
    let mut placed: Vec<Placed> = Vec::new();
    for (b, lo) in (0..buckets).step_by(BATCH_BUCKETS).enumerate() {
        let hi = (lo + BATCH_BUCKETS).min(buckets);
        let root = spans.begin("harness.batch", b as u64);
        spans.span("trace.scale_generate", b as u64, || {
            vms.clear();
            if lo == 0 {
                for (k, vm) in vm_cfg.long_vms().into_iter().enumerate() {
                    vms.push((vm_cfg.vm_tag(u64::MAX, k as u32), vm, true));
                }
            }
            vm_cfg.for_each_vm_in(lo as u64, hi as u64, |bucket, k, vm| {
                vms.push((vm_cfg.vm_tag(bucket, k), vm, false));
            });
        });
        let ok = spans.span("optimize.spatial_placement", b as u64, || {
            placed.clear();
            let mut ok = true;
            for &(tag, vm, long) in &vms {
                let home = (((tag >> 16) & 0xFFFF) as usize) % regions.len();
                let draw = f64::from((tag >> 32) as u32) / 4_294_967_296.0;
                let runtime_s = vm.lifetime_s();
                let deferrable = !long
                    && runtime_s >= study.min_deferrable_lifetime_s
                    && draw < study.deferrable_share;
                let immediate = BatchJob {
                    runtime_s,
                    dynamic_power_w: vm.cores * study.watts_per_core,
                    cores: vm.cores,
                    memory_gb: vm.cores * study.gb_per_core,
                    earliest: vm.start,
                    deadline: vm.end,
                };
                let at = |scenario, region, start| Placed {
                    scenario,
                    region,
                    start,
                    runtime_s,
                    cores: vm.cores,
                };
                let Some(p0) = job_carbon(&regions[home], &immediate, vm.start, &pricing) else {
                    ok = false;
                    continue;
                };
                placed.push(at(0, home, vm.start));
                if !deferrable {
                    placed.push(at(1, home, vm.start));
                    placed.push(at(2, home, vm.start));
                    continue;
                }
                let aligned = BatchJob {
                    earliest: (vm.start + 3599) / 3600 * 3600,
                    deadline: vm.end + study.slack_hours * 3600,
                    ..immediate
                };
                let temporal = single[home]
                    .best_placement(&aligned, &pricing)
                    .filter(|p| p.carbon_g < p0.carbon_g);
                placed.push(at(1, home, temporal.map_or(vm.start, |p| p.start)));
                let spatio = full
                    .best_placement_migrating(&aligned, home, study.migration, &pricing)
                    .filter(|p| p.carbon_g < p0.carbon_g);
                let moved = spatio.map(|p| {
                    (
                        regions
                            .iter()
                            .position(|r| r.name == p.region)
                            .unwrap_or(home),
                        p.start,
                    )
                });
                let (region, start) = moved.unwrap_or((home, vm.start));
                placed.push(at(2, region, start));
                counts.placements += 2;
                counts.deferrable += 1;
                counts.shifted += u64::from(moved.is_some());
            }
            ok
        });
        spans.span("bench.scale_accumulate", b as u64, || {
            for p in &placed {
                let end = p.start + p.runtime_s as i64;
                let base = (p.scenario * REGIONS + p.region) * hours;
                let mut h = (p.start / 3600) as usize;
                while (h as i64) * 3600 < end && h < hours {
                    let overlap = end.min((h as i64 + 1) * 3600) - p.start.max(h as i64 * 3600);
                    if overlap > 0 {
                        demand[base + h] += p.cores * overlap as f64;
                    }
                    h += 1;
                }
            }
        });
        spans.end(root);
        counts.vms += vms.len() as u64;
        tally.check(ok, || {
            format!("batch {b}: an immediate placement fell outside the traces")
        });
    }
    let splits = vec![study.grid_days() as usize, 24];
    let attributed = spans.span("shapley.cascade", 0, || {
        demand.chunks(hours).all(|hourly| {
            if hourly.iter().sum::<f64>() <= 0.0 {
                return true;
            }
            TimeSeries::from_values(0, 3600, hourly.iter().map(|cs| cs / 3600.0).collect())
                .ok()
                .and_then(|series| {
                    TemporalShapley::new(splits.clone())
                        .attribute(&series, study.embodied_budget_g)
                        .ok()
                })
                .is_some()
        })
    });
    tally.check(attributed, || "re-attribution failed".into());
    let population = spans.span("trace.scale_collect", 0, || vm_cfg.collect_events(1));
    let (jobs, outcome) = spans.span("cluster.sharded", 0, || {
        let stream = JobStream::from_sorted(jobs(population.vms()));
        (
            stream.len(),
            run_sharded(sim, &stream, SHARDS, 1, |_| Box::new(FirstFit)),
        )
    });
    tally.check(
        outcome.jobs.len() == jobs && jobs as u64 == counts.vms,
        || {
            format!(
                "replay scheduled {} jobs for {} VMs",
                outcome.jobs.len(),
                counts.vms
            )
        },
    );
    counts.peak_nodes = outcome.peak_nodes as u64;
    counts
}

/// Traced run: `seconds / ROUND_S` rounds of one fresh study each — the
/// library's composition on one thread, then the replay untraced and
/// traced (alternating which goes first).
pub fn trace(ctx: &Ctx) -> Traced {
    let s = sizes(ctx);
    let sim = Simulator::paper_default();
    let mut out = Traced {
        engine: true,
        ..Traced::default()
    };
    let mut counts = ReplayCounts::default();
    let (mut batches, mut retries, mut reorder) = (0u64, 0u64, 0u64);
    for round in 0..ctx.rounds(ROUND_S) {
        let st = study(&s, ctx.seed_for(TRACE_STUDY, round));
        let cfg = EngineConfig {
            threads: 1,
            batch_trials: BATCH_BUCKETS,
            collect_trials: false,
        };
        let t = Instant::now();
        let report = run_azure_scale(&st, cfg, &StudyOptions::default());
        simulate(&st, 1, &sim);
        out.library_s += t.elapsed().as_secs_f64();
        match report {
            Ok(r) => {
                batches += r.engine.batches;
                retries += r.engine.retries;
                reorder = reorder.max(r.engine.max_reorder_depth);
            }
            Err(e) => out.tally.fail(1, format!("study {:#x}: {e}", st.seed)),
        }
        for traced in [round % 2 == 1, round % 2 == 0] {
            out.spans.set_enabled(traced);
            let mut tally = Tally::default();
            let t = Instant::now();
            let c = replay(&st, &sim, &mut out.spans, &mut tally);
            out.book(traced, t.elapsed().as_secs_f64(), tally);
            if traced {
                counts.vms += c.vms;
                counts.placements += c.placements;
                counts.deferrable += c.deferrable;
                counts.shifted += c.shifted;
                counts.peak_nodes = counts.peak_nodes.max(c.peak_nodes);
            }
        }
    }
    let spread = measure::max_over_median(&out.spans.durations("harness.batch"));
    out.counts.extend([
        ("trace.scale_vms", counts.vms as f64),
        ("optimize.spatial_placements", counts.placements as f64),
        (
            "optimize.spatial_shifted_ratio",
            counts.shifted as f64 / counts.deferrable.max(1) as f64,
        ),
        ("cluster.sharded_peak_nodes", counts.peak_nodes as f64),
        ("montecarlo.engine_batches", batches as f64),
        ("montecarlo.engine_retries", retries as f64),
        ("montecarlo.engine_max_reorder_depth", reorder as f64),
        ("montecarlo.batch_spread", spread),
    ]);
    out
}
