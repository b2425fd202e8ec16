//! **Azure-scale multi-region co-simulation** (the `azure_scale` study
//! bin): streams the ~2M-VM synthetic trace of
//! [`fairco2_trace::scale::ScaleVmConfig`] through the Monte Carlo
//! engine's resumable batch path and evaluates three shifting policies
//! per VM against per-region grid-intensity traces:
//!
//! * **baseline** — every VM runs immediately in its home region;
//! * **temporal** — deferrable VMs slide inside their slack window but
//!   stay home ([`PlacementIndex::best_placement`] on the home region);
//! * **spatio-temporal** — deferrable VMs may also migrate, paying a
//!   per-move transfer carbon
//!   ([`PlacementIndex::best_placement_migrating`]).
//!
//! Tenancy, home region, and deferrability derive from the trace's
//! chunk-invariant per-VM tag, so any batching/threading of the bucket
//! range folds bit-identical accumulators; the engine merges them in
//! batch order, making the whole study — including checkpoint/resume
//! through [`stream_study`] — bit-identical to a serial run.
//!
//! Attribution closes the loop the Fair-CO₂ way: for each scenario and
//! region, the *realized* tenant demand is re-attributed with Temporal
//! Shapley (per-region embodied budget priced over the leaf intensity
//! signal), so the report's per-tenant deltas reflect what shifting did
//! to both operational and embodied shares — not just the optimizer's
//! internal price.

use fairco2_montecarlo::checkpoint::fingerprint;
use fairco2_montecarlo::{
    stream_study, EngineConfig, EngineError, EngineStats, FaultPlan, NoScratch, StudyOptions,
};
use fairco2_optimize::scaling::ResourcePricing;
use fairco2_optimize::spatial::{job_carbon, BatchJob, MigrationCost, PlacementIndex, Region};
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::scale::ScaleVmConfig;
use fairco2_trace::vms::VmEvent;
use fairco2_trace::{AzureLikeTrace, GridIntensityTrace, TimeSeries};
use serde::{Deserialize, Serialize};

/// The three policies, in accumulator-scenario order.
pub const SCENARIOS: [&str; 3] = ["baseline", "temporal", "spatio_temporal"];

/// Configuration of the Azure-scale co-simulation. Every field is
/// serialized into the checkpoint fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AzureScaleStudy {
    /// Expected short-VM count over the horizon.
    pub vms: u64,
    /// Horizon in days (the grid traces extend two days past it so every
    /// slack window stays inside the traces).
    pub days: u32,
    /// Regions in play (first `regions` of the built-in set, 1–3).
    pub regions: usize,
    /// Tenants the VM population is hashed into.
    pub tenants: usize,
    /// Deferral slack for shiftable VMs (hours past the natural finish).
    pub slack_hours: i64,
    /// Fraction of slack-eligible VMs that are actually deferrable.
    pub deferrable_share: f64,
    /// Minimum lifetime for a VM to be worth shifting (seconds).
    pub min_deferrable_lifetime_s: f64,
    /// Dynamic power per reserved core (W).
    pub watts_per_core: f64,
    /// Memory per reserved core (GB), priced by the embodied model.
    pub gb_per_core: f64,
    /// Transfer carbon of moving one VM's data out of its home region.
    pub migration: MigrationCost,
    /// Embodied budget attributed per region over the window (gCO₂e).
    pub embodied_budget_g: f64,
    /// Trace seed (drives generation, tags, and the region traces).
    pub seed: u64,
}

impl Default for AzureScaleStudy {
    fn default() -> Self {
        Self {
            vms: 2_000_000,
            days: 14,
            regions: 3,
            tenants: 12,
            slack_hours: 12,
            deferrable_share: 0.3,
            min_deferrable_lifetime_s: 1800.0,
            watts_per_core: 6.0,
            gb_per_core: 4.0,
            migration: MigrationCost {
                data_gb: 100.0,
                g_per_gb: 4.0,
            },
            embodied_budget_g: 5.0e6,
            seed: 0x0005_EED5_CA1E,
        }
    }
}

impl AzureScaleStudy {
    /// The streaming trace generator this study consumes.
    pub fn vm_config(&self) -> ScaleVmConfig {
        let mut cfg = ScaleVmConfig::for_total_vms(self.vms, self.days);
        cfg.seed = self.seed;
        cfg
    }

    /// Days the region traces span: the VM horizon plus two days so a
    /// slack window ending after the horizon is still priceable.
    pub fn grid_days(&self) -> u32 {
        self.days + 2
    }

    /// Hourly samples in the region traces.
    pub fn hours(&self) -> usize {
        self.grid_days() as usize * 24
    }

    /// The built-in region set, truncated to `self.regions`: a duck-curve
    /// coast, a flat-dirty coal belt, and a windy low-carbon grid, each
    /// with a Fair-CO₂ embodied price signal derived from its own
    /// demand history.
    ///
    /// # Panics
    ///
    /// Panics when `regions` is 0 or exceeds the built-in set.
    pub fn build_regions(&self) -> Vec<Region> {
        let days = self.grid_days();
        let signal = |seed: u64| {
            let demand = AzureLikeTrace::builder()
                .days(days)
                .step_seconds(3600)
                .seed(seed)
                .build();
            TemporalShapley::new(vec![days as usize, 24])
                .attribute(demand.series(), 1000.0)
                .expect("hourly days divide")
                .leaf_intensity()
                .clone()
        };
        let all = vec![
            Region {
                name: "california".into(),
                grid: GridIntensityTrace::caiso_like(days, 3600, self.seed ^ 0x11),
                embodied_signal: signal(self.seed ^ 0x11),
            },
            Region {
                name: "coal-belt".into(),
                grid: GridIntensityTrace::coal_like(days, 3600, self.seed ^ 0x22),
                embodied_signal: signal(self.seed ^ 0x22),
            },
            Region {
                name: "nordic".into(),
                grid: GridIntensityTrace::wind_heavy(days, 3600, self.seed ^ 0x33),
                embodied_signal: signal(self.seed ^ 0x33),
            },
        ];
        assert!(
            self.regions >= 1 && self.regions <= all.len(),
            "regions must be 1..={}",
            all.len()
        );
        all.into_iter().take(self.regions).collect()
    }
}

/// The per-batch (and merged master) accumulator: realized demand per
/// `(scenario, tenant, region, hour)` plus per-tenant carbon and shift
/// counters. Merging is elementwise addition, performed by the engine in
/// batch order, so the master is bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleAccumulator {
    /// Hourly samples per region trace.
    pub hours: usize,
    /// Regions in play.
    pub regions: usize,
    /// Tenants in play.
    pub tenants: usize,
    /// Core-seconds per `(scenario, tenant, region, hour)`, flattened in
    /// that order.
    pub tenant_demand: Vec<f64>,
    /// Operational gCO₂e per `(scenario, tenant)`, transfer carbon
    /// excluded.
    pub operational_g: Vec<f64>,
    /// Transfer gCO₂e per `(scenario, tenant)` (nonzero only under
    /// spatio-temporal).
    pub migration_g: Vec<f64>,
    /// VMs per tenant.
    pub vms: Vec<u64>,
    /// Deferrable VMs per tenant.
    pub deferrable_vms: Vec<u64>,
    /// VMs per `(scenario, tenant)` that moved in time or space.
    pub shifted: Vec<u64>,
    /// VMs per `(scenario, tenant)` that left their home region.
    pub migrated: Vec<u64>,
}

impl ScaleAccumulator {
    /// An all-zero accumulator for the given shape.
    pub fn new(hours: usize, regions: usize, tenants: usize) -> Self {
        let s = SCENARIOS.len();
        Self {
            hours,
            regions,
            tenants,
            tenant_demand: vec![0.0; s * tenants * regions * hours],
            operational_g: vec![0.0; s * tenants],
            migration_g: vec![0.0; s * tenants],
            vms: vec![0; tenants],
            deferrable_vms: vec![0; tenants],
            shifted: vec![0; s * tenants],
            migrated: vec![0; s * tenants],
        }
    }

    fn demand_at(
        &mut self,
        scenario: usize,
        tenant: usize,
        region: usize,
        hour: usize,
    ) -> &mut f64 {
        let idx = ((scenario * self.tenants + tenant) * self.regions + region) * self.hours + hour;
        &mut self.tenant_demand[idx]
    }

    /// Flat index into the `(scenario, tenant)` counters.
    pub fn st(&self, scenario: usize, tenant: usize) -> usize {
        scenario * self.tenants + tenant
    }

    /// Adds `other` elementwise (the engine calls this in batch order).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.hours == other.hours
                && self.regions == other.regions
                && self.tenants == other.tenants,
            "accumulator shapes must match"
        );
        let addf = |a: &mut Vec<f64>, b: &[f64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        let addu = |a: &mut Vec<u64>, b: &[u64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        addf(&mut self.tenant_demand, &other.tenant_demand);
        addf(&mut self.operational_g, &other.operational_g);
        addf(&mut self.migration_g, &other.migration_g);
        addu(&mut self.vms, &other.vms);
        addu(&mut self.deferrable_vms, &other.deferrable_vms);
        addu(&mut self.shifted, &other.shifted);
        addu(&mut self.migrated, &other.migrated);
    }
}

/// Everything a batch worker needs, shared immutably across threads.
struct StudyCtx<'a> {
    study: &'a AzureScaleStudy,
    regions: &'a [Region],
    /// All regions at once, for the spatio-temporal policy.
    full: &'a PlacementIndex<'a>,
    /// One single-region index per region, for the temporal policy.
    single: &'a [PlacementIndex<'a>],
    pricing: ResourcePricing,
}

impl StudyCtx<'_> {
    fn region_index(&self, name: &str) -> usize {
        self.regions
            .iter()
            .position(|r| r.name == name)
            .expect("placements come from the study's own regions")
    }

    /// Scatters one placed run into the accumulator: demand into the
    /// hour lattice of `(scenario, tenant, region)`, carbon and counters
    /// into the `(scenario, tenant)` slots.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        acc: &mut ScaleAccumulator,
        scenario: usize,
        tenant: usize,
        region: usize,
        start: i64,
        runtime_s: f64,
        cores: f64,
        operational_g: f64,
        migration_g: f64,
        shifted: bool,
    ) {
        let end = start + runtime_s as i64;
        let mut h = (start / 3600) as usize;
        while (h as i64) * 3600 < end && h < acc.hours {
            let lo = start.max(h as i64 * 3600);
            let hi = end.min((h as i64 + 1) * 3600);
            if hi > lo {
                *acc.demand_at(scenario, tenant, region, h) += cores * (hi - lo) as f64;
            }
            h += 1;
        }
        let st = acc.st(scenario, tenant);
        acc.operational_g[st] += operational_g;
        acc.migration_g[st] += migration_g;
        if shifted {
            acc.shifted[st] += 1;
        }
    }

    /// Folds one VM through all three scenarios.
    fn fold_vm(&self, acc: &mut ScaleAccumulator, tag: u64, vm: &VmEvent, long_running: bool) {
        let s = self.study;
        let tenant = ((tag & 0xFFFF) as usize) % acc.tenants;
        let home = (((tag >> 16) & 0xFFFF) as usize) % self.regions.len();
        let draw = f64::from((tag >> 32) as u32) / 4_294_967_296.0;
        let deferrable = !long_running
            && vm.lifetime_s() >= s.min_deferrable_lifetime_s
            && draw < s.deferrable_share;
        let runtime = vm.lifetime_s();
        let immediate = BatchJob {
            runtime_s: runtime,
            dynamic_power_w: vm.cores * s.watts_per_core,
            cores: vm.cores,
            memory_gb: vm.cores * s.gb_per_core,
            earliest: vm.start,
            deadline: vm.end,
        };
        let p0 = job_carbon(&self.regions[home], &immediate, vm.start, &self.pricing)
            .expect("immediate placement lies inside the traces");
        acc.vms[tenant] += 1;
        if deferrable {
            acc.deferrable_vms[tenant] += 1;
        }
        self.record(
            acc,
            0,
            tenant,
            home,
            vm.start,
            runtime,
            vm.cores,
            p0.operational_g,
            0.0,
            false,
        );
        if !deferrable {
            // The shifting policies leave non-deferrable VMs untouched.
            for scenario in 1..SCENARIOS.len() {
                self.record(
                    acc,
                    scenario,
                    tenant,
                    home,
                    vm.start,
                    runtime,
                    vm.cores,
                    p0.operational_g,
                    0.0,
                    false,
                );
            }
            return;
        }
        // Deferred starts snap to the hour lattice (a scheduler slot),
        // which keeps the placement index on its O(1) prefix path; the
        // immediate placement stays available as the fallback whenever
        // no lattice slot beats it.
        let aligned = BatchJob {
            earliest: (vm.start + 3599) / 3600 * 3600,
            deadline: vm.end + s.slack_hours * 3600,
            ..immediate
        };
        let temporal = self.single[home]
            .best_placement(&aligned, &self.pricing)
            .filter(|p| p.carbon_g < p0.carbon_g);
        match temporal {
            Some(p) => self.record(
                acc,
                1,
                tenant,
                home,
                p.start,
                runtime,
                vm.cores,
                p.operational_g,
                0.0,
                true,
            ),
            None => self.record(
                acc,
                1,
                tenant,
                home,
                vm.start,
                runtime,
                vm.cores,
                p0.operational_g,
                0.0,
                false,
            ),
        }
        let spatio = self
            .full
            .best_placement_migrating(&aligned, home, s.migration, &self.pricing)
            .filter(|p| p.carbon_g < p0.carbon_g);
        match spatio {
            Some(p) => {
                let region = self.region_index(&p.region);
                let penalty = if region == home {
                    0.0
                } else {
                    s.migration.carbon_g()
                };
                let st = acc.st(2, tenant);
                if region != home {
                    acc.migrated[st] += 1;
                }
                self.record(
                    acc,
                    2,
                    tenant,
                    region,
                    p.start,
                    runtime,
                    vm.cores,
                    p.operational_g - penalty,
                    penalty,
                    true,
                );
            }
            None => self.record(
                acc,
                2,
                tenant,
                home,
                vm.start,
                runtime,
                vm.cores,
                p0.operational_g,
                0.0,
                false,
            ),
        }
    }
}

/// One scenario's fleet-wide totals.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSummary {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: String,
    /// Operational carbon (kg), transfer excluded.
    pub operational_kg: f64,
    /// Embodied carbon attributed to tenants (kg).
    pub embodied_kg: f64,
    /// Cross-region transfer carbon (kg).
    pub migration_kg: f64,
    /// Embodied budget stranded on zero-demand hours (kg).
    pub stranded_embodied_kg: f64,
    /// Operational + embodied + transfer (kg).
    pub total_kg: f64,
    /// Saving versus the baseline scenario (%).
    pub saving_vs_baseline_pct: f64,
    /// VMs that moved in time or space.
    pub shifted_vms: u64,
    /// VMs that left their home region.
    pub migrated_vms: u64,
}

/// One tenant's Fair-CO₂ attribution under each policy.
#[derive(Debug, Clone, Serialize)]
pub struct TenantRow {
    /// Tenant index.
    pub tenant: usize,
    /// VMs hashed to this tenant.
    pub vms: u64,
    /// Of which deferrable.
    pub deferrable_vms: u64,
    /// Attribution under the baseline policy (kg).
    pub baseline_kg: f64,
    /// Attribution under temporal shifting (kg).
    pub temporal_kg: f64,
    /// Attribution under spatio-temporal shifting (kg).
    pub spatio_temporal_kg: f64,
    /// Temporal delta versus baseline (%; negative = saving).
    pub temporal_delta_pct: f64,
    /// Spatio-temporal delta versus baseline (%).
    pub spatio_delta_pct: f64,
}

/// The study's result, written to `results/azure_scale.json`.
#[derive(Debug, Clone, Serialize)]
pub struct AzureScaleReport {
    /// VMs actually generated (long + short).
    pub vms: u64,
    /// Horizon in days.
    pub days: u32,
    /// Region names in play.
    pub regions: Vec<String>,
    /// Tenant count.
    pub tenants: usize,
    /// Deferral slack (hours).
    pub slack_hours: i64,
    /// Deferrable fraction of slack-eligible VMs.
    pub deferrable_share: f64,
    /// Fleet totals per policy.
    pub scenarios: Vec<ScenarioSummary>,
    /// Per-tenant attribution deltas.
    pub tenant_rows: Vec<TenantRow>,
    /// Engine counters (batches, retries, reorder depth).
    pub engine: EngineStats,
}

/// Runs the co-simulation: streams bucket batches through the resumable
/// engine, then closes the attribution loop per scenario and region.
///
/// Bit-identity contract: at a fixed batch size, the report is identical
/// at any thread count, and a killed-then-resumed run reproduces an
/// uninterrupted one bit for bit (pinned in `tests/azure_scale.rs`).
///
/// # Errors
///
/// [`EngineError`] when a batch exhausts its retry budget, a checkpoint
/// read/write fails, or a fault plan kills the run.
pub fn run_azure_scale(
    study: &AzureScaleStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
) -> Result<AzureScaleReport, EngineError> {
    let vm_cfg = study.vm_config();
    let regions = study.build_regions();
    let full = PlacementIndex::new(&regions);
    let single: Vec<PlacementIndex<'_>> = (0..regions.len())
        .map(|i| PlacementIndex::new(&regions[i..=i]))
        .collect();
    let ctx = StudyCtx {
        study,
        regions: &regions,
        full: &full,
        single: &single,
        pricing: ResourcePricing::paper_default(0.0),
    };
    let buckets = vm_cfg.buckets() as usize;
    let hours = study.hours();
    let (master, stats) = stream_study(
        buckets,
        &fingerprint("azure_scale", study, cfg.batch_trials),
        cfg,
        opts,
        ScaleAccumulator::new(hours, regions.len(), study.tenants),
        || NoScratch,
        |range, _scratch, attempt| {
            let mut acc = ScaleAccumulator::new(hours, regions.len(), study.tenants);
            if range.start == 0 {
                // The horizon-spanning reserved VMs ride with batch 0 so
                // they are streamed (and checkpointed) exactly once.
                for (k, vm) in vm_cfg.long_vms().iter().enumerate() {
                    ctx.fold_vm(&mut acc, vm_cfg.vm_tag(u64::MAX, k as u32), vm, true);
                }
            }
            let mut lo = range.start;
            for bucket in range.clone() {
                if let Some(kind) = opts.faults.trial_fault(bucket, attempt) {
                    // Stream the prefix first so the fault fires mid-batch,
                    // like a real bug in per-VM code would.
                    vm_cfg.for_each_vm_in(lo as u64, bucket as u64, |b, k, vm| {
                        ctx.fold_vm(&mut acc, vm_cfg.vm_tag(b, k), &vm, false);
                    });
                    lo = bucket;
                    FaultPlan::fire(kind, &format!("bucket {bucket}"))?;
                }
            }
            vm_cfg.for_each_vm_in(lo as u64, range.end as u64, |b, k, vm| {
                ctx.fold_vm(&mut acc, vm_cfg.vm_tag(b, k), &vm, false);
            });
            Ok((acc, ()))
        },
        |master, acc, _| master.merge(&acc),
    )?;
    Ok(finalize(study, &regions, &master, stats))
}

/// Closes the attribution loop: per scenario and region, re-attributes
/// the embodied budget over the *realized* demand with Temporal Shapley
/// and folds per-tenant embodied shares into the carbon totals.
fn finalize(
    study: &AzureScaleStudy,
    regions: &[Region],
    master: &ScaleAccumulator,
    stats: EngineStats,
) -> AzureScaleReport {
    let hours = master.hours;
    let nr = master.regions;
    let nt = master.tenants;
    let ns = SCENARIOS.len();
    let splits = vec![study.grid_days() as usize, 24];
    let mut embodied = vec![0.0f64; ns * nt];
    let mut stranded = vec![0.0f64; ns];
    for scenario in 0..ns {
        for region in 0..nr {
            let mut total = vec![0.0f64; hours];
            for tenant in 0..nt {
                let base = ((scenario * nt + tenant) * nr + region) * hours;
                for (t, d) in total
                    .iter_mut()
                    .zip(&master.tenant_demand[base..base + hours])
                {
                    *t += d;
                }
            }
            if total.iter().sum::<f64>() <= 0.0 {
                stranded[scenario] += study.embodied_budget_g;
                continue;
            }
            // Average reserved cores per hour, on the grid lattice.
            let series =
                TimeSeries::from_values(0, 3600, total.iter().map(|cs| cs / 3600.0).collect())
                    .expect("region traces are non-empty");
            let attribution = TemporalShapley::new(splits.clone())
                .attribute(&series, study.embodied_budget_g)
                .expect("hour lattice divides the hierarchy");
            stranded[scenario] += attribution.stranded_carbon();
            let intensity = attribution.leaf_intensity().values();
            for tenant in 0..nt {
                let base = ((scenario * nt + tenant) * nr + region) * hours;
                let mut share = 0.0;
                for (i, d) in intensity
                    .iter()
                    .zip(&master.tenant_demand[base..base + hours])
                {
                    // intensity is gCO₂e per core-second; demand is
                    // core-seconds per hour bucket.
                    share += i * d;
                }
                embodied[scenario * nt + tenant] += share;
            }
        }
    }
    let tenant_total = |scenario: usize, tenant: usize| {
        let st = scenario * nt + tenant;
        master.operational_g[st] + master.migration_g[st] + embodied[st]
    };
    let tenant_rows: Vec<TenantRow> = (0..nt)
        .map(|tenant| {
            let baseline = tenant_total(0, tenant);
            let temporal = tenant_total(1, tenant);
            let spatio = tenant_total(2, tenant);
            let pct = |x: f64| {
                if baseline > 0.0 {
                    100.0 * (x - baseline) / baseline
                } else {
                    0.0
                }
            };
            TenantRow {
                tenant,
                vms: master.vms[tenant],
                deferrable_vms: master.deferrable_vms[tenant],
                baseline_kg: baseline / 1000.0,
                temporal_kg: temporal / 1000.0,
                spatio_temporal_kg: spatio / 1000.0,
                temporal_delta_pct: pct(temporal),
                spatio_delta_pct: pct(spatio),
            }
        })
        .collect();
    let scenario_total = |scenario: usize| -> (f64, f64, f64) {
        let mut op = 0.0;
        let mut mig = 0.0;
        let mut emb = 0.0;
        for tenant in 0..nt {
            let st = scenario * nt + tenant;
            op += master.operational_g[st];
            mig += master.migration_g[st];
            emb += embodied[st];
        }
        (op, mig, emb)
    };
    let (b_op, b_mig, b_emb) = scenario_total(0);
    let baseline_total = b_op + b_mig + b_emb;
    let scenarios: Vec<ScenarioSummary> = (0..ns)
        .map(|scenario| {
            let (op, mig, emb) = scenario_total(scenario);
            let total = op + mig + emb;
            let (mut shifted, mut migrated) = (0u64, 0u64);
            for tenant in 0..nt {
                let st = scenario * nt + tenant;
                shifted += master.shifted[st];
                migrated += master.migrated[st];
            }
            ScenarioSummary {
                scenario: SCENARIOS[scenario].to_owned(),
                operational_kg: op / 1000.0,
                embodied_kg: emb / 1000.0,
                migration_kg: mig / 1000.0,
                stranded_embodied_kg: stranded[scenario] / 1000.0,
                total_kg: total / 1000.0,
                saving_vs_baseline_pct: if baseline_total > 0.0 {
                    100.0 * (1.0 - total / baseline_total)
                } else {
                    0.0
                },
                shifted_vms: shifted,
                migrated_vms: migrated,
            }
        })
        .collect();
    AzureScaleReport {
        vms: master.vms.iter().sum(),
        days: study.days,
        regions: regions.iter().map(|r| r.name.clone()).collect(),
        tenants: nt,
        slack_hours: study.slack_hours,
        deferrable_share: study.deferrable_share,
        scenarios,
        tenant_rows,
        engine: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AzureScaleStudy {
        AzureScaleStudy {
            vms: 3_000,
            days: 2,
            tenants: 4,
            seed: 99,
            ..AzureScaleStudy::default()
        }
    }

    fn run(study: &AzureScaleStudy, threads: usize, batch: usize) -> AzureScaleReport {
        run_azure_scale(
            study,
            EngineConfig {
                threads,
                batch_trials: batch,
                collect_trials: false,
            },
            &StudyOptions::default(),
        )
        .expect("fault-free run completes")
    }

    /// The scientific payload (scenario totals + tenant rows), without
    /// the engine counters, which legitimately vary with thread count.
    fn payload(report: &AzureScaleReport) -> String {
        format!(
            "{}|{}",
            serde_json::to_string(&report.scenarios).unwrap(),
            serde_json::to_string(&report.tenant_rows).unwrap()
        )
    }

    #[test]
    fn report_is_thread_invariant_at_fixed_batch_size() {
        let study = small();
        let one = payload(&run(&study, 1, 360));
        for threads in [2usize, 8] {
            assert_eq!(
                one,
                payload(&run(&study, threads, 360)),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn shifting_saves_carbon_and_conserves_tenant_sums() {
        let study = small();
        let report = run(&study, 2, 360);
        assert_eq!(report.scenarios.len(), 3);
        let baseline = &report.scenarios[0];
        let spatio = &report.scenarios[2];
        assert!(baseline.shifted_vms == 0 && baseline.migrated_vms == 0);
        assert!(spatio.shifted_vms > 0, "some VMs must shift");
        assert!(
            spatio.total_kg < baseline.total_kg,
            "spatio-temporal shifting must save carbon: {} vs {}",
            spatio.total_kg,
            baseline.total_kg
        );
        // Tenant rows decompose each scenario's total exactly.
        for (idx, scenario) in report.scenarios.iter().enumerate() {
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
            assert!(
                (sum - total).abs() <= 1e-9 * total.max(1.0),
                "tenant sums must reproduce the {} total: {sum} vs {total}",
                scenario.scenario
            );
        }
    }

    #[test]
    fn temporal_never_beats_spatio_temporal_fleet_wide() {
        let report = run(&small(), 2, 360);
        // The spatio-temporal policy only deviates from temporal when the
        // move wins even after the transfer penalty, so fleet-wide it can
        // only do better or equal.
        assert!(report.scenarios[2].total_kg <= report.scenarios[1].total_kg + 1e-9);
    }

    #[test]
    fn fingerprint_separates_studies_and_batch_sizes() {
        let a = small();
        let mut b = small();
        b.slack_hours = 6;
        let scale = |s: &AzureScaleStudy, batch| fingerprint("azure_scale", s, batch);
        assert_ne!(scale(&a, 64), scale(&b, 64));
        assert_ne!(scale(&a, 64), scale(&a, 128));
    }
}
