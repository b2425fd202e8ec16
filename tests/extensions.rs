//! Integration tests for the extension subsystems: multi-resource
//! attribution, tenant statements, VM populations, the cluster
//! simulator, amortization schedules, and the §5.1 theory module —
//! exercised together across crate boundaries.

use fair_co2::attribution::colocation::{
    ColocationScenario, FairCo2Colocation, GroundTruthMatching,
};
use fair_co2::attribution::demand::{
    DemandAttributor, GroundTruthShapley, RupBaseline, SampledGroundTruth, TemporalFairCo2,
};
use fair_co2::attribution::multi::{MultiResourceSchedule, MultiResourceWorkload, ResourcePools};
use fair_co2::attribution::report::CarbonStatement;
use fair_co2::attribution::schedule::Schedule;
use fair_co2::carbon::amortization::Amortization;
use fair_co2::carbon::units::CarbonIntensity;
use fair_co2::carbon::ServerSpec;
use fair_co2::cluster::policy::{FirstFit, LeastInterference};
use fair_co2::cluster::{JobStream, Simulator};
use fair_co2::shapley::temporal::TemporalShapley;
use fair_co2::shapley::unit_time::{IntensityConvention, UnitTimeScenario};
use fair_co2::trace::scale::ScaleVmConfig;
use fair_co2::workloads::{NodeAccounting, WorkloadKind};

#[test]
fn vm_population_flows_through_the_whole_demand_pipeline() {
    // VM events → schedule → RUP and temporal attribution → efficiency.
    let pop = ScaleVmConfig {
        long_vm_count: 8,
        seed: 2,
        ..ScaleVmConfig::for_total_vms(960, 1)
    }
    .collect_events(1);
    let schedule = Schedule::from_vm_population(&pop, 3600).unwrap();
    let pool = 5000.0;
    for method in [
        &RupBaseline as &dyn DemandAttributor,
        &TemporalFairCo2::per_step(),
        &SampledGroundTruth::with_seed(8),
    ] {
        let shares = method.attribute(&schedule, pool).unwrap();
        assert_eq!(shares.len(), pop.vms().len());
        let total: f64 = shares.iter().sum();
        assert!((total - pool).abs() < 1e-6, "{}", method.name());
    }
}

#[test]
fn amortized_monthly_share_feeds_temporal_shapley() {
    // Server embodied → declining-balance month-1 share → intensity
    // signal; earlier months carry higher intensity for the same demand.
    let server = ServerSpec::xeon_6240r();
    let life_s = server.lifetime_years * 365.0 * 86_400.0;
    let schedule = Amortization::DecliningBalance { decline_rate: 1.5 };
    let month = 30.0 * 86_400.0;
    let first = schedule.window(server.embodied().total(), life_s, 0.0, month);
    let last = schedule.window(server.embodied().total(), life_s, life_s - month, life_s);
    assert!(first.as_grams() > last.as_grams());

    let demand = fair_co2::trace::AzureLikeTrace::builder()
        .days(30)
        .seed(4)
        .build();
    let att_first = TemporalShapley::paper_hierarchy()
        .attribute(demand.series(), first.as_grams())
        .unwrap();
    let att_last = TemporalShapley::paper_hierarchy()
        .attribute(demand.series(), last.as_grams())
        .unwrap();
    assert!(att_first.leaf_intensity().mean() > att_last.leaf_intensity().mean());
}

#[test]
fn multi_resource_ground_truth_agrees_with_single_resource_when_one_pool_is_empty() {
    let schedule = MultiResourceSchedule::new(
        3600,
        4,
        vec![
            MultiResourceWorkload {
                cpu_cores: 48.0,
                memory_gb: 32.0,
                start: 0,
                end: 2,
            },
            MultiResourceWorkload {
                cpu_cores: 96.0,
                memory_gb: 8.0,
                start: 1,
                end: 4,
            },
        ],
    )
    .unwrap();
    let multi = schedule
        .attribute(
            &GroundTruthShapley,
            ResourcePools {
                cpu: 100.0,
                memory: 0.0,
            },
        )
        .unwrap();
    let single = GroundTruthShapley.attribute(schedule.cpu(), 100.0).unwrap();
    for (m, s) in multi.iter().zip(&single) {
        assert!((m - s).abs() < 1e-9);
    }
}

#[test]
fn simulator_telemetry_feeds_a_carbon_statement() {
    // Run the cluster sim, snapshot a colocated pair it produced, and
    // render a statement for that placement.
    let stream = JobStream::poisson(24, 100.0, 5);
    let sim = Simulator::paper_default();
    let out = sim.run(&stream, &mut FirstFit);
    // Find a job that was colocated most of its life.
    let victim = out
        .jobs
        .iter()
        .max_by(|a, b| a.colocated_s.total_cmp(&b.colocated_s))
        .unwrap();
    assert!(victim.colocated_s > 0.0, "no colocation happened");

    let scenario =
        ColocationScenario::pair_in_order(&[victim.kind, WorkloadKind::Ch, WorkloadKind::Wc])
            .unwrap();
    let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(250.0));
    let statement = CarbonStatement::for_scenario(
        &scenario,
        &ctx,
        &FairCo2Colocation::with_full_history(),
        Some(&GroundTruthMatching),
    )
    .unwrap();
    let actual = scenario.carbon(&ctx).total();
    assert!((statement.total_g() - actual).abs() < 1e-6 * actual);
    assert!(statement.to_table().contains("with"));
}

#[test]
fn scheduler_choice_changes_observed_runtimes_but_not_fair_weights() {
    let stream = JobStream::poisson(80, 70.0, 33);
    let sim = Simulator::paper_default();
    let ff = sim.run(&stream, &mut FirstFit);
    let li = sim.run(&stream, &mut LeastInterference::default());
    // Observed runtimes differ for at least some jobs...
    let differing = ff
        .jobs
        .iter()
        .zip(&li.jobs)
        .filter(|(a, b)| (a.runtime_s() - b.runtime_s()).abs() > 1.0)
        .count();
    assert!(differing > 10, "only {differing} jobs differ");
    // ...while Fair-CO₂'s historical weights (kind-determined) are
    // trivially identical — the scheduler-agnosticism property.
    use fair_co2::workloads::history::full_profile;
    for job in stream.jobs() {
        let a = full_profile(sim.interference(), job.kind);
        let b = full_profile(sim.interference(), job.kind);
        assert_eq!(a, b);
    }
}

#[test]
fn unit_time_theory_is_consistent_with_the_production_signal_path() {
    // The stylized §5.1 scenario's Eq. 5 attribution must match what the
    // actual TemporalShapley pipeline computes on the equivalent series.
    let s = UnitTimeScenario {
        workloads: 20,
        short_lived: 15,
        intervals: 6,
        long_peak: 0.25,
        total_carbon: 600.0,
    };
    let theory = s.temporal_attribution(IntensityConvention::Eq5, 0.0);

    // Equivalent demand series: interval 0 demand 1.0, later p.
    let mut values = vec![s.long_peak; s.intervals];
    values[0] = 1.0;
    let series = fair_co2::trace::TimeSeries::from_values(0, 3600, values).unwrap();
    let att = TemporalShapley::new(vec![s.intervals])
        .attribute(&series, s.total_carbon)
        .unwrap();
    // Short workload: 1/n of interval 0's demand for one interval.
    let n = s.workloads as f64;
    let short = att.workload_carbon(0, 3600, 1.0 / n);
    assert!(
        (short - theory.short_each).abs() < 1e-9,
        "{short} vs {}",
        theory.short_each
    );
}
