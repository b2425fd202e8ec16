//! Fault injection for LP-valued coalition work under the study engine's
//! containment layer ([`stream_study`]).
//!
//! The other fault suites exercise that layer with Monte Carlo trial
//! bodies. Here the work inside each engine batch is a batch of **real
//! network-LP coalition solves** ([`NetworkCarbonGame`]), and the
//! contract under test is:
//!
//! * an LP solve that panics (or errors) mid-batch is caught, the batch
//!   is requeued, and the completed run's per-coalition values are
//!   **bit-identical** to a fault-free run at 1, 2, and 8 threads;
//! * the retry counters account for exactly the injected failures;
//! * a fault that outlives the retry budget surfaces the typed
//!   [`EngineError::BatchAbandoned`] — never a hang, never a silently
//!   short lattice.
//!
//! Fault choreography uses the study engines' [`FaultPlan`] machinery.

use std::sync::OnceLock;

use fairco2_montecarlo::{
    stream_study, BatchFault, EngineConfig, EngineError, EngineStats, FaultKind, FaultPlan,
    NoScratch, StudyOptions,
};
use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::netgame::{Link, Network, NetworkCarbonGame};
use fairco2_shapley::parallel::panic_message;
use proptest::prelude::*;

/// Tenants in the fixture game; the lattice has `1 << TENANTS` masks.
const TENANTS: usize = 8;
/// Coalition masks solved per engine batch.
const MASKS_PER_BATCH: usize = 16;
const BATCHES: usize = (1 << TENANTS) / MASKS_PER_BATCH;
const THREAD_CHOICES: [usize; 3] = [1, 2, 8];
const KINDS: [FaultKind; 2] = [FaultKind::Panic, FaultKind::Error];

/// A 5-node network (egress = 4) with contended bottleneck links and
/// integer capacities/prices — the exact-arithmetic regime in which
/// warm and cold LP solves are bit-identical.
fn fixture_game() -> &'static NetworkCarbonGame {
    static GAME: OnceLock<NetworkCarbonGame> = OnceLock::new();
    GAME.get_or_init(|| {
        let network = Network::new(
            5,
            4,
            vec![
                Link {
                    from: 0,
                    to: 2,
                    capacity: 9.0,
                    carbon_per_unit: 1.0,
                },
                Link {
                    from: 1,
                    to: 2,
                    capacity: 7.0,
                    carbon_per_unit: 2.0,
                },
                Link {
                    from: 0,
                    to: 3,
                    capacity: 5.0,
                    carbon_per_unit: 3.0,
                },
                Link {
                    from: 1,
                    to: 3,
                    capacity: 6.0,
                    carbon_per_unit: 1.0,
                },
                Link {
                    from: 2,
                    to: 4,
                    capacity: 11.0,
                    carbon_per_unit: 2.0,
                },
                Link {
                    from: 3,
                    to: 4,
                    capacity: 8.0,
                    carbon_per_unit: 1.0,
                },
                Link {
                    from: 2,
                    to: 3,
                    capacity: 4.0,
                    carbon_per_unit: 1.0,
                },
            ],
        );
        let demands = (0..TENANTS)
            .map(|t| {
                let at0 = ((t * 7 + 3) % 4) as f64;
                let at1 = ((t * 5 + 1) % 3) as f64;
                vec![at0, at1, 0.0, 0.0, 0.0]
            })
            .collect();
        NetworkCarbonGame::new(network, demands)
    })
}

/// Cold-solves one batch's slice of the coalition lattice.
fn solve_batch(game: &NetworkCarbonGame, batch: usize) -> Vec<f64> {
    let start = batch * MASKS_PER_BATCH;
    (start..start + MASKS_PER_BATCH)
        .map(|mask| {
            game.evaluate(&Coalition::from_mask(TENANTS, mask as u64))
                .carbon()
        })
        .collect()
}

/// Runs the whole lattice through [`stream_study`], one engine batch per
/// coalition batch and no checkpoint, firing `plan`'s faults *between
/// LP solves inside* the designated batch — after the first solve, so a
/// failed attempt has already done (and discards) real solver work.
fn run_lattice(
    plan: &FaultPlan,
    threads: usize,
    retry_budget: u32,
) -> Result<(Vec<f64>, EngineStats), EngineError> {
    let game = fixture_game();
    let cfg = EngineConfig {
        threads,
        batch_trials: MASKS_PER_BATCH,
        collect_trials: false,
    };
    stream_study(
        1 << TENANTS,
        "lp-lattice",
        cfg,
        &StudyOptions::retrying(retry_budget),
        Vec::new(),
        || NoScratch,
        |masks, _scratch, attempt| {
            let batch = masks.start / MASKS_PER_BATCH;
            let mut values = Vec::with_capacity(MASKS_PER_BATCH);
            for (k, mask) in masks.enumerate() {
                if k == 1 {
                    if let Some(kind) = plan.batch_fault(batch, attempt) {
                        FaultPlan::fire(kind, &format!("lp solve in coalition batch {batch}"))?;
                    }
                }
                values.push(
                    game.evaluate(&Coalition::from_mask(TENANTS, mask as u64))
                        .carbon(),
                );
            }
            Ok((values, ()))
        },
        |lattice: &mut Vec<f64>, values, _| lattice.extend(values),
    )
}

/// The fault-free lattice, solved serially once.
fn reference_lattice() -> &'static Vec<f64> {
    static REF: OnceLock<Vec<f64>> = OnceLock::new();
    REF.get_or_init(|| {
        let game = fixture_game();
        (0..BATCHES).flat_map(|b| solve_batch(game, b)).collect()
    })
}

/// Silences the default panic hook for the panics this suite injects on
/// purpose (the engine catches them; the hook would still print).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).contains("injected") {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An LP solve that panics (or errors) inside a coalition batch, up
    /// to twice under a budget of two retries: the run completes, every
    /// coalition value is bit-identical to the fault-free lattice, and
    /// the counters account for exactly the injected failures.
    #[test]
    fn lp_batch_faults_under_budget_stay_bit_identical(
        fault_batch in 0usize..BATCHES,
        times in 1u32..=2,
        kind in 0usize..2,
        threads_sel in 0usize..3,
    ) {
        quiet_injected_panics();
        let plan = FaultPlan {
            batches: vec![BatchFault {
                batch: fault_batch,
                kind: KINDS[kind],
                times,
            }],
            ..FaultPlan::default()
        };
        let (values, stats) = run_lattice(&plan, THREAD_CHOICES[threads_sel], 2)
            .expect("faults stay under the retry budget");
        let want = reference_lattice();
        prop_assert_eq!(values.len(), want.len());
        for (mask, (got, expect)) in values.iter().zip(want).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "mask {:#b}: {} vs fault-free {}",
                mask,
                got,
                expect
            );
        }
        prop_assert_eq!(stats.retries, times as u64);
        prop_assert_eq!(stats.requeued_batches, 1);
    }

    /// A fault that outlives the budget abandons its batch with the
    /// typed error naming the batch, the attempt count, and the
    /// injected message — instead of hanging or returning a short
    /// lattice.
    #[test]
    fn lp_batch_faults_over_budget_are_typed_abandonment(
        fault_batch in 0usize..BATCHES,
        kind in 0usize..2,
        threads_sel in 0usize..3,
    ) {
        quiet_injected_panics();
        let plan = FaultPlan {
            batches: vec![BatchFault {
                batch: fault_batch,
                kind: KINDS[kind],
                times: 3, // budget + 1 failures
            }],
            ..FaultPlan::default()
        };
        let err = run_lattice(&plan, THREAD_CHOICES[threads_sel], 2)
            .expect_err("budget must be exceeded");
        let EngineError::BatchAbandoned { batch, attempts, last_error } = err else {
            panic!("expected a typed abandonment, got {err:?}");
        };
        prop_assert_eq!(batch, fault_batch);
        prop_assert_eq!(attempts, 3);
        prop_assert!(
            last_error.contains("injected fault"),
            "unexpected abandonment message: {}",
            last_error
        );
    }
}

/// Fault-free sanity at every thread count: the engine itself (batch
/// fan-out, in-order merge, no faults) must not perturb LP values.
#[test]
fn fault_free_lattice_is_bit_identical_across_thread_counts() {
    for threads in THREAD_CHOICES {
        let (values, stats) =
            run_lattice(&FaultPlan::default(), threads, 0).expect("fault-free run");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.requeued_batches, 0);
        for (mask, (got, expect)) in values.iter().zip(reference_lattice()).enumerate() {
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "threads {threads}, mask {mask:#b}"
            );
        }
    }
}
