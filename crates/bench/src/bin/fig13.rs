//! **Figure 13** — one week of dynamic FAISS reconfiguration: the service
//! tracks the live grid carbon intensity (CAISO-like duck curve) and
//! Fair-CO₂'s embodied intensity signal, switching (index, cores, batch)
//! under a 2-second tail-latency target. The paper reports 38.4 % carbon
//! savings against the performance-optimal configuration.
//!
//! Writes `results/fig13.json`.

use fairco2_bench::{write_json, Args};
use fairco2_optimize::dynamic::DynamicStudy;
use fairco2_optimize::faiss::IndexKind;
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_trace::{AzureLikeTrace, GridIntensityTrace};
use serde::Serialize;

#[derive(Serialize)]
struct HourRow {
    hour: i64,
    grid_ci: f64,
    embodied_scale: f64,
    index: String,
    cores: u32,
    batch: u32,
    optimized_g: f64,
    baseline_g: f64,
}

#[derive(Serialize)]
struct Fig13 {
    saving_pct: f64,
    optimized_total_kg: f64,
    baseline_total_kg: f64,
    index_switches: usize,
    hnsw_hours: usize,
    ivf_hours: usize,
    hours: Vec<HourRow>,
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &["seed", "days"];

fn main() {
    let args = Args::parse(FLAGS);
    let seed = args.u64("seed", 13);
    let days = args.u32("days", 7);

    // Grid CI: a CAISO-like duck curve, hourly for one week.
    let grid = GridIntensityTrace::caiso_like(days, 3600, seed);
    // Embodied intensity: Temporal Shapley over an Azure-like demand
    // trace covering the same week (hourly leaves).
    let demand = AzureLikeTrace::builder()
        .days(days)
        .step_seconds(3600)
        .seed(seed ^ 0xA2)
        .build();
    let signal = TemporalShapley::new(vec![days as usize, 24])
        .attribute(demand.series(), 1000.0)
        .expect("hourly week divides day-by-hour")
        .leaf_intensity()
        .clone();

    let study = DynamicStudy::default();
    let outcome = study.run(&grid, &signal);

    let hours: Vec<HourRow> = outcome
        .intervals
        .iter()
        .map(|i| HourRow {
            hour: i.t / 3600,
            grid_ci: i.grid_ci,
            embodied_scale: i.embodied_scale,
            index: i.config.index.to_string(),
            cores: i.config.cores,
            batch: i.config.batch,
            optimized_g: i.optimized_g,
            baseline_g: i.baseline_g,
        })
        .collect();

    let hnsw_hours = outcome
        .intervals
        .iter()
        .filter(|i| i.config.index == IndexKind::Hnsw)
        .count();

    println!("Figure 13: one-week dynamic FAISS optimization (2 s tail target)");
    println!("\nfirst 48 hours:");
    println!(
        "{:>5} {:>8} {:>9} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "hour", "grid CI", "emb scale", "index", "cores", "batch", "opt g", "base g"
    );
    for h in hours.iter().take(48) {
        println!(
            "{:>5} {:>8.0} {:>9.2} {:>6} {:>6} {:>6} {:>10.1} {:>10.1}",
            h.hour,
            h.grid_ci,
            h.embodied_scale,
            h.index,
            h.cores,
            h.batch,
            h.optimized_g,
            h.baseline_g
        );
    }

    let out = Fig13 {
        saving_pct: 100.0 * outcome.saving(),
        optimized_total_kg: outcome.optimized_total_g() / 1000.0,
        baseline_total_kg: outcome.baseline_total_g() / 1000.0,
        index_switches: outcome.index_switches(),
        hnsw_hours,
        ivf_hours: outcome.intervals.len() - hnsw_hours,
        hours,
    };

    println!(
        "\nweek total: optimized {:.2} kgCO2e vs performance-optimal {:.2} kgCO2e",
        out.optimized_total_kg, out.baseline_total_kg
    );
    println!(
        "carbon saving = {:.1} % (paper: 38.4 %); index switches = {}; IVF hours = {}, HNSW hours = {}",
        out.saving_pct, out.index_switches, out.ivf_hours, out.hnsw_hours
    );

    let path = write_json("fig13", &out);
    println!("\nwrote {}", path.display());
}
