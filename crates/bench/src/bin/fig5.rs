//! **Figure 5** — demand forecasting: fit 21 days of the Azure-like
//! trace, forecast the remaining 9 days, and compare with the actual
//! demand.
//!
//! Writes `results/fig5.json`.

use fairco2_bench::{write_json, Args};
use fairco2_forecast::{split_at_day, SeasonalForecaster};
use fairco2_trace::stats::{mape, worst_ape};
use fairco2_trace::AzureLikeTrace;
use serde::Serialize;

#[derive(Serialize)]
struct Fig5 {
    train_days: u32,
    horizon_days: u32,
    actual_hourly: Vec<f64>,
    forecast_hourly: Vec<f64>,
    demand_mape_pct: f64,
    demand_worst_ape_pct: f64,
}

/// Command-line flags this binary accepts.
const FLAGS: &[&str] = &["seed", "train-days", "days"];

fn main() {
    let args = Args::parse(FLAGS);
    let seed = args.u64("seed", 7);
    let train_days = args.u32("train-days", 21);
    let total_days = args.u32("days", 30);

    let trace = AzureLikeTrace::builder()
        .days(total_days)
        .seed(seed)
        .build();
    let (train, test) = split_at_day(trace.series(), train_days).expect("30-day trace splits");
    let model = SeasonalForecaster::default_daily_weekly()
        .fit(&train)
        .expect("21 days of 5-minute samples is plenty");
    let forecast = model.predict(test.len());

    let m = mape(test.values(), forecast.values()).expect("aligned series");
    let w = worst_ape(test.values(), forecast.values()).expect("aligned series");

    println!(
        "Figure 5: {train_days}-day history -> {}-day demand forecast",
        total_days - train_days
    );
    println!("demand forecast MAPE      = {m:.2} %");
    println!("demand forecast worst APE = {w:.2} %");
    println!("\nday  actual-mean  forecast-mean  (cores)");
    let day = 86_400 / i64::from(test.step());
    for d in 0..i64::from(total_days - train_days) {
        let a: f64 = test.values()[(d * day) as usize..((d + 1) * day) as usize]
            .iter()
            .sum::<f64>()
            / day as f64;
        let f: f64 = forecast.values()[(d * day) as usize..((d + 1) * day) as usize]
            .iter()
            .sum::<f64>()
            / day as f64;
        println!("{:>3}  {a:>11.0}  {f:>13.0}", train_days as i64 + d + 1);
    }

    let out = Fig5 {
        train_days,
        horizon_days: total_days - train_days,
        actual_hourly: test.downsample_mean(12).expect("hourly").into_values(),
        forecast_hourly: forecast.downsample_mean(12).expect("hourly").into_values(),
        demand_mape_pct: m,
        demand_worst_ape_pct: w,
    };
    let path = write_json("fig5", &out);
    println!("\nwrote {}", path.display());
}
