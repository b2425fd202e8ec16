//! **Azure-scale co-simulation driver** — streams the ~2M-VM synthetic
//! trace through the resumable study engine and reports per-tenant
//! Fair-CO₂ attribution under three shifting policies (run immediately
//! at home, temporal shifting, migration-cost-aware spatio-temporal
//! shifting). Writes `results/azure_scale.json`.
//!
//! Supports the standard checkpoint flags (`--checkpoint`,
//! `--checkpoint-every`, `--resume`, `--retries`); a killed run resumed
//! from its snapshot reproduces the uninterrupted report bit for bit.

use fairco2_bench::{
    exit_on_engine_error, run_azure_scale, study_options, write_json, Args, AzureScaleStudy,
    CHECKPOINT_FLAGS,
};
use fairco2_montecarlo::EngineConfig;
use fairco2_optimize::spatial::MigrationCost;

/// Command-line flags this binary accepts (plus the checkpoint set).
const FLAGS: &[&str] = &[
    "vms",
    "days",
    "regions",
    "tenants",
    "slack-hours",
    "deferrable-share",
    "migration-gb",
    "threads",
    "batch-buckets",
    "seed",
];

fn main() {
    let mut known: Vec<&str> = FLAGS.to_vec();
    known.extend_from_slice(CHECKPOINT_FLAGS);
    let args = Args::parse(&known);
    let defaults = AzureScaleStudy::default();
    let default_slack = u32::try_from(defaults.slack_hours)
        .expect("the default slack is a non-negative hour count");
    let study = AzureScaleStudy {
        vms: args.u64("vms", defaults.vms),
        days: args.u32("days", defaults.days),
        regions: args.usize("regions", defaults.regions),
        tenants: args.usize("tenants", defaults.tenants),
        slack_hours: i64::from(args.u32("slack-hours", default_slack)),
        deferrable_share: args.f64("deferrable-share", defaults.deferrable_share),
        migration: MigrationCost {
            data_gb: args.f64("migration-gb", defaults.migration.data_gb),
            g_per_gb: defaults.migration.g_per_gb,
        },
        seed: args.u64("seed", defaults.seed),
        ..defaults
    };
    let cfg = EngineConfig {
        threads: args.usize("threads", 1),
        batch_trials: args.usize("batch-buckets", 720),
        collect_trials: false,
    };
    let opts = study_options(&args, "");

    println!(
        "azure scale: ~{} VMs over {} days, {} regions × {} tenants, {} h slack, {} threads",
        study.vms, study.days, study.regions, study.tenants, study.slack_hours, cfg.threads
    );
    let report = exit_on_engine_error(run_azure_scale(&study, cfg, &opts));

    println!(
        "{} VMs simulated ({} batches, {} retries)",
        report.vms, report.engine.batches, report.engine.retries
    );
    println!(
        "{:<16} {:>12} {:>11} {:>11} {:>11} {:>8} {:>9}",
        "policy", "total kg", "oper kg", "embod kg", "migr kg", "saving", "shifted"
    );
    for s in &report.scenarios {
        println!(
            "{:<16} {:>12.1} {:>11.1} {:>11.1} {:>11.1} {:>7.2}% {:>9}",
            s.scenario,
            s.total_kg,
            s.operational_kg,
            s.embodied_kg,
            s.migration_kg,
            s.saving_vs_baseline_pct,
            s.shifted_vms
        );
    }
    println!(
        "\n{:<8} {:>9} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "tenant", "vms", "defer", "baseline kg", "temporal kg", "spatio kg", "Δtemp", "Δspatio"
    );
    for row in &report.tenant_rows {
        println!(
            "{:<8} {:>9} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>8.2}% {:>8.2}%",
            row.tenant,
            row.vms,
            row.deferrable_vms,
            row.baseline_kg,
            row.temporal_kg,
            row.spatio_temporal_kg,
            row.temporal_delta_pct,
            row.spatio_delta_pct
        );
    }
    println!("\nper-tenant deltas differ because tenants own different VM mixes:");
    println!("the Temporal Shapley re-attribution keeps each scenario's embodied");
    println!("budget conserved, so a tenant's delta is real redistribution, not");
    println!("a bookkeeping artifact.");

    let path = write_json("azure_scale", &report);
    println!("\nwrote {}", path.display());
}
