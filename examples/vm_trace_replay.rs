//! Replay a synthetic VM population (Hadary-style: most VMs live
//! minutes, a long tail spans the horizon) through Temporal Shapley and
//! examine the price each VM pays per core-second — the Section 5.1
//! unit-resource-time effect on a realistic population, plus the
//! long-running-VM discount analysis.
//!
//! Run with `cargo run --release --example vm_trace_replay`.

use fair_co2::carbon::ServerSpec;
use fair_co2::shapley::temporal::TemporalShapley;
use fair_co2::shapley::unit_time::{IntensityConvention, UnitTimeScenario};
use fair_co2::trace::scale::ScaleVmConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate the population and its aggregate demand.
    let pop = ScaleVmConfig {
        long_vm_count: 60,
        seed: 11,
        ..ScaleVmConfig::for_total_vms(10_800, 3)
    }
    .collect_events(1);
    let demand = pop.demand_series(300);
    println!(
        "population: {} VMs ({} short-lived < 1 h), demand peak {:.0} / mean {:.0} cores",
        pop.vms().len(),
        pop.short_lived(3600.0).count(),
        demand.peak(),
        demand.mean()
    );

    // 2. Amortized embodied carbon for a fleet sized to the peak.
    let server = ServerSpec::xeon_6240r();
    let fleet = (demand.peak() / f64::from(server.physical_cores())).ceil();
    let window_carbon = server.embodied_per_month().as_grams() * fleet * (3.0 / 30.0); // 3-day slice
    println!(
        "fleet: {fleet} servers, embodied for the window: {:.1} kgCO2e",
        window_carbon / 1000.0
    );

    // 3. The intensity signal (3 d -> 6 h -> 30 min -> 5 min).
    let att = TemporalShapley::new(vec![12, 12, 6]).attribute(&demand, window_carbon)?;

    // 4. Price every VM; compare per-core-second rates by lifetime class.
    let mut short_rate = (0.0, 0.0); // (carbon, core-seconds)
    let mut long_rate = (0.0, 0.0);
    for vm in pop.vms() {
        let carbon = att.workload_carbon(vm.start, vm.end, vm.cores);
        let bucket = if vm.lifetime_s() < 3600.0 {
            &mut short_rate
        } else {
            &mut long_rate
        };
        bucket.0 += carbon;
        bucket.1 += vm.core_seconds();
    }
    let short_price = short_rate.0 / short_rate.1;
    let long_price = long_rate.0 / long_rate.1;
    println!("\nembodied price per core-second:");
    println!("  short-lived VMs : {short_price:.3e} g");
    println!("  long-running VMs: {long_price:.3e} g");
    println!(
        "  ratio long/short: {:.2} (1.0 = uniform pricing)",
        long_price / short_price
    );
    println!("(long VMs ride the cheap off-peak valleys, so Eq. 5 prices them lower)");

    // 5. The paper's §5.1 stylized scenario, for contrast.
    let stylized = UnitTimeScenario {
        workloads: 100,
        short_lived: 90,
        intervals: 12,
        long_peak: 0.2,
        total_carbon: 1000.0,
    };
    println!(
        "\nstylized §5.1 scenario: over-attribution of long jobs = {:.2}x (φ convention), \
         {:.2}x (Eq. 5), equalizing discount = {:.2}",
        stylized.over_attribution(IntensityConvention::ProportionalToPhi),
        stylized.over_attribution(IntensityConvention::Eq5),
        stylized.equalizing_discount(IntensityConvention::ProportionalToPhi)
    );
    Ok(())
}
