//! Pins the exact solver's output bits on the study's own schedules.
//!
//! The first 32 schedules of [`DemandStudy::default`] are solved through
//! [`exact_shapley`] on each schedule's [`PeakDemandGame`], and an
//! FNV-1a 64 digest over every φ's bits must equal the constant below.
//! Any change to the peak-demand fill or the block scatter that moves a
//! single bit of a label fails here, before it reaches a figure.
//! [`parallel_exact_shapley`] at two threads must give the same bits.

use fairco2_montecarlo::DemandStudy;
use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley};
use fairco2_shapley::game::PeakDemandGame;

const SCHEDULES: usize = 32;

/// FNV-1a 64 over the φ bits of the first [`SCHEDULES`] schedules.
const PHI_DIGEST: u64 = 0xACA8_DDB5_0517_26B5;

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
