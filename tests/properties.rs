//! Property-based tests of the core invariants, across random games,
//! schedules, scenarios, and traces.

use fair_co2::attribution::demand::{
    DemandAttributor, DemandProportional, GroundTruthShapley, RupBaseline, TemporalFairCo2,
};
use fair_co2::attribution::schedule::{Schedule, ScheduledWorkload};
use fair_co2::shapley::axioms::{check_efficiency, check_linearity};
use fair_co2::shapley::exact::{exact_shapley, ExactError};
use fair_co2::shapley::game::{Game, PeakDemandGame, Replay};
use fair_co2::shapley::temporal::{peak_shapley, TemporalShapley};
use fair_co2::shapley::{Coalition, MatchingGame};
use fair_co2::trace::TimeSeries;
use proptest::prelude::*;

fn demand_matrix(players: usize, steps: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(0.0f64..100.0, steps..=steps),
        players..=players,
    )
}

/// Exact Shapley of the peak game `v(S) = max_{i∈S} peaks[i]` by subset
/// enumeration: one time step per player, on which only that player is
/// active, so a coalition's peak demand is the max of its members' peaks.
fn peak_shapley_enumerated(peaks: &[f64]) -> Result<Vec<f64>, ExactError> {
    let matrix: Vec<Vec<f64>> = (0..peaks.len())
        .map(|i| {
            let mut row = vec![0.0; peaks.len()];
            row[i] = peaks[i];
            row
        })
        .collect();
    exact_shapley(&PeakDemandGame::new(matrix))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_shapley_is_efficient(demand in demand_matrix(6, 4)) {
        let game = PeakDemandGame::new(demand);
        let phi = exact_shapley(&game).unwrap();
        prop_assert!(check_efficiency(&game, &phi, 1e-9).holds());
        prop_assert!(phi.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn table_fill_solver_matches_plain(demand in demand_matrix(7, 3)) {
        let game = PeakDemandGame::new(demand);
        let fast = exact_shapley(&game).unwrap();
        let plain = exact_shapley(&Replay(game.clone())).unwrap();
        let tol = 1e-12 * game.value(&Coalition::grand(7));
        for (a, b) in plain.iter().zip(&fast) {
            prop_assert!((a - b).abs() <= tol, "per-mask {} vs fill {}", a, b);
        }
    }

    #[test]
    fn peak_closed_form_matches_enumeration(
        peaks in prop::collection::vec(0.0f64..1000.0, 1..10)
    ) {
        let fast = peak_shapley(&peaks);
        let slow = peak_shapley_enumerated(&peaks).unwrap();
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        let total: f64 = fast.iter().sum();
        let max = peaks.iter().copied().fold(0.0f64, f64::max);
        prop_assert!((total - max).abs() < 1e-9);
    }

    #[test]
    fn matching_closed_form_matches_enumeration(
        isolated in prop::collection::vec(0.5f64..5.0, 2..8),
        scale in prop::collection::vec(1.0f64..1.8, 28..=28),
    ) {
        let n = isolated.len();
        let mut pair = vec![vec![0.0; n]; n];
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let c = 0.55 * (isolated[i] + isolated[j]) * scale[k];
                k += 1;
                pair[i][j] = c;
                pair[j][i] = c;
            }
        }
        let game = MatchingGame::new(isolated, pair);
        let analytic = game.shapley();
        let enumerated = exact_shapley(&game).unwrap();
        for (a, e) in analytic.iter().zip(&enumerated) {
            prop_assert!((a - e).abs() < 1e-9, "analytic {a} vs exact {e}");
        }
    }

    #[test]
    fn shapley_operator_is_linear(
        d1 in demand_matrix(5, 3),
        d2 in demand_matrix(5, 3),
    ) {
        struct Sum(PeakDemandGame, PeakDemandGame);
        impl Game for Sum {
            fn player_count(&self) -> usize { self.0.player_count() }
            fn value(&self, c: &Coalition) -> f64 { self.0.value(c) + self.1.value(c) }
        }
        let g1 = PeakDemandGame::new(d1);
        let g2 = PeakDemandGame::new(d2);
        let sum = Sum(g1.clone(), g2.clone());
        let phi1 = exact_shapley(&g1).unwrap();
        let phi2 = exact_shapley(&g2).unwrap();
        let phi_sum = exact_shapley(&sum).unwrap();
        prop_assert!(check_linearity(&phi_sum, &phi1, &phi2, 1e-9).holds());
    }

    #[test]
    fn temporal_attribution_conserves_carbon(
        values in prop::collection::vec(0.1f64..500.0, 24..=24),
        carbon in 1.0f64..1e6,
    ) {
        let series = TimeSeries::from_values(0, 300, values).unwrap();
        let att = TemporalShapley::new(vec![4, 3]).attribute(&series, carbon).unwrap();
        let total: f64 = att
            .leaf_intensity()
            .iter()
            .zip(series.iter())
            .map(|((_, y), (_, d))| y * d * 300.0)
            .sum();
        prop_assert!((total + att.stranded_carbon() - carbon).abs() < 1e-6 * carbon);
    }

    #[test]
    fn all_demand_methods_are_efficient(
        cores in prop::collection::vec(1u8..7, 1..12),
        starts in prop::collection::vec(0usize..5, 1..12),
        durs in prop::collection::vec(1usize..4, 1..12),
    ) {
        let n = cores.len().min(starts.len()).min(durs.len());
        let workloads: Vec<ScheduledWorkload> = (0..n)
            .map(|i| {
                ScheduledWorkload::new(
                    f64::from(cores[i]) * 16.0,
                    starts[i],
                    (starts[i] + durs[i]).min(8),
                )
                .unwrap()
            })
            .collect();
        let schedule = Schedule::new(3600, 8, workloads).unwrap();
        let methods: Vec<Box<dyn DemandAttributor>> = vec![
            Box::new(GroundTruthShapley),
            Box::new(RupBaseline),
            Box::new(DemandProportional),
            Box::new(TemporalFairCo2::per_step()),
        ];
        for m in methods {
            let shares = m.attribute(&schedule, 100.0).unwrap();
            let total: f64 = shares.iter().sum();
            prop_assert!((total - 100.0).abs() < 1e-6, "{}", m.name());
        }
    }

    #[test]
    fn series_split_partition_preserves_integral(
        values in prop::collection::vec(0.0f64..100.0, 6..60),
        parts in 1usize..6,
    ) {
        let series = TimeSeries::from_values(0, 300, values).unwrap();
        prop_assume!(parts <= series.len());
        let chunks = series.split(parts).unwrap();
        let total: f64 = chunks.iter().map(TimeSeries::integral).sum();
        prop_assert!((total - series.integral()).abs() < 1e-9);
        let peak = chunks.iter().map(TimeSeries::peak).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((peak - series.peak()).abs() < 1e-12);
    }
}
