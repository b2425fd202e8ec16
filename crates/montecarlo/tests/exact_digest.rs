//! Pins the exact solver's and the permutation sampler's output bits on
//! the study's own schedules.
//!
//! The first 32 schedules of [`DemandStudy::default`] are solved through
//! [`exact_shapley`] on each schedule's [`PeakDemandGame`], and an
//! FNV-1a 64 digest over every φ's bits must equal the constant below.
//! Any change to the peak-demand fill or the block scatter that moves a
//! single bit of a label fails here, before it reaches a figure.
//! [`parallel_exact_shapley`] at two threads must give the same bits.
//!
//! The same schedules, plus two synthetic games, are also estimated by
//! [`parallel_sampled_shapley`], and a second digest pins the estimates,
//! their standard errors and their evaluation counts: any change to the
//! game's incremental insertion that moves a bit fails here.

use fairco2_montecarlo::DemandStudy;
use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::SampleConfig;

const SCHEDULES: usize = 32;

/// FNV-1a 64 over the φ bits of the first [`SCHEDULES`] schedules.
const PHI_DIGEST: u64 = 0xACA8_DDB5_0517_26B5;

/// FNV-1a 64 over the sampled estimates of the first [`SCHEDULES`]
/// schedules and the two synthetic games, serial without a cache and at
/// two threads with one.
const SAMPLED_DIGEST: u64 = 0x7364_3E86_2362_6BAC;

fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn exact_labels_match_the_established_digest() {
    let study = DemandStudy::default();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut players = Vec::with_capacity(SCHEDULES);
    for trial in 0..SCHEDULES {
        let schedule = study.generate_schedule(trial);
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let phi = exact_shapley(&game).unwrap();
        let parallel = parallel_exact_shapley(&game, 2).unwrap();
        for (p, (a, b)) in phi.iter().zip(&parallel).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "trial {trial} phi[{p}]");
        }
        digest = fnv1a(digest, phi.len() as u64);
        for v in &phi {
            digest = fnv1a(digest, v.to_bits());
        }
        players.push(phi.len());
    }
    assert!(players.iter().any(|&n| n < 8), "{players:?}");
    assert!(players.iter().any(|&n| n > 8), "{players:?}");
    assert_eq!(digest, PHI_DIGEST, "{digest:#018x} over {players:?}");
}

/// A game whose signed rows lower the peak: `p0` alone peaks at 5 on
/// step 1, and `p1`'s negative entry there brings `{p0, p1}` down to 2.
fn signed_game() -> PeakDemandGame {
    PeakDemandGame::new(vec![
        vec![0.0, 5.0, 0.0, 0.0, 0.0],
        vec![1.0, -3.0, 2.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 4.0, 1.5],
        vec![0.0, 2.5, 1.0, 0.0, 0.0],
        vec![0.0, 0.0, -1.0, 0.0, 3.0],
    ])
}

/// A 168-step (one week of hours) game of contiguous job windows with
/// non-dyadic core counts, so every sum rounds.
fn long_horizon_game() -> PeakDemandGame {
    const STEPS: usize = 168;
    let demand = (0..24)
        .map(|j| {
            let start = (j * 37) % 150;
            let end = (start + 1 + (j * 13) % 40).min(STEPS);
            let cores = 0.7 + 1.3 * (j % 5) as f64;
            (0..STEPS)
                .map(|t| {
                    if (start..end).contains(&t) {
                        cores
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    PeakDemandGame::new(demand)
}

#[test]
fn sampled_estimates_match_the_established_digest() {
    let study = DemandStudy::default();
    let games: Vec<PeakDemandGame> = (0..SCHEDULES)
        .map(|trial| PeakDemandGame::new(study.generate_schedule(trial).demand_matrix()))
        .chain([signed_game(), long_horizon_game()])
        .collect();
    let serial = ParallelConfig::serial(SampleConfig::default());
    let parallel = ParallelConfig {
        threads: 2,
        coalition_cache: true,
        ..serial
    };
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for (seed, game) in games.iter().enumerate() {
        let plain = parallel_sampled_shapley(game, &serial, seed as u64).estimate;
        let cached = parallel_sampled_shapley(game, &parallel, seed as u64).estimate;
        for estimate in [&plain, &cached] {
            digest = fnv1a(digest, estimate.values.len() as u64);
            for v in estimate.values.iter().chain(&estimate.std_errors) {
                digest = fnv1a(digest, v.to_bits());
            }
            digest = fnv1a(digest, estimate.counters.coalition_evals);
        }
    }
    assert_eq!(digest, SAMPLED_DIGEST, "{digest:#018x}");
}
