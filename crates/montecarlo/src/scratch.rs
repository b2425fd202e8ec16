//! Per-worker trial scratch arenas.
//!
//! Every trial needs the same handful of buffers: the exact solver's φ
//! vector, share vectors, schedule-generation buffers, and the
//! colocation sampling pool. The streaming engine gives every worker
//! thread one [`TrialScratch`] that owns them all, so a study allocates
//! `O(threads)` times instead of `O(trials)`. (The exact solver itself
//! holds no coalition table: it fills and scatters one 256-mask block at
//! a time on the stack.)

use fairco2_shapley::exact::{ExactScratch, MAX_EXACT_PLAYERS};
use fairco2_workloads::history::InterferenceProfile;
use fairco2_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

use crate::schedules::DemandStudy;

/// Reusable per-worker buffers for Monte Carlo trials.
///
/// All fields are crate-internal: the studies'
/// [`run_trial_with_scratch`](crate::schedules::DemandStudy::run_trial_with_scratch)
/// paths thread them through generation, attribution, and summarization.
/// Results are bit-identical to the allocating
/// [`run_trial`](crate::schedules::DemandStudy::run_trial) paths.
#[derive(Debug, Default)]
pub struct TrialScratch {
    /// Exact-solver φ buffer for the demand ground truth.
    pub(crate) exact: ExactScratch,
    /// Ground-truth share vector.
    pub(crate) truth: Vec<f64>,
    /// Method share vector (demand: reused across methods; colocation:
    /// the RUP shares).
    pub(crate) shares: Vec<f64>,
    /// Second method share vector (colocation: the Fair-CO₂ shares, which
    /// must coexist with the RUP shares for the per-workload records).
    pub(crate) fair: Vec<f64>,
    /// Per-slice concurrency targets drawn by the schedule generator.
    pub(crate) targets: Vec<usize>,
    /// Running per-slice concurrency of the schedule generator.
    pub(crate) concurrency: Vec<usize>,
    /// Workload kinds drawn by the colocation generator.
    pub(crate) kinds: Vec<WorkloadKind>,
    /// Per-draw sampling population (the scenario minus the sampling
    /// workload) for historical-profile sampling.
    pub(crate) pool: Vec<WorkloadKind>,
    /// Sampled historical profiles, one per workload instance.
    pub(crate) profiles: Vec<InterferenceProfile>,
    /// Trials run through this scratch.
    pub(crate) trials: u64,
}

impl TrialScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-grown for the demand study: the exact-solver φ buffer
    /// is sized to the study's `max_workloads` cap up front, so the worker
    /// never reallocates it mid-run.
    pub fn for_demand(study: &DemandStudy) -> Self {
        let players = study.max_workloads.clamp(1, MAX_EXACT_PLAYERS);
        Self {
            exact: ExactScratch::for_players(players),
            ..Self::default()
        }
    }

    /// Reuse/allocation counters for reporting.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            trials: self.trials,
            table_grows: self.exact.grows(),
            table_reuses: self.exact.reuses(),
        }
    }
}

/// A per-worker scratch arena the streaming engine can run batches
/// through.
///
/// The engine only needs two things from a scratch type: construction
/// (the `make_scratch` closure) and retirement counters when a worker
/// finishes or an arena is discarded after a failed batch. Implementing
/// this trait lets any study — the built-in demand/colocation studies
/// with [`TrialScratch`], the harvest with its own arena, or external
/// ones like the Azure-scale co-simulation in `fairco2-bench` with
/// [`NoScratch`] — stream through [`crate::engine::stream_study`] with
/// its own reusable buffers.
pub trait EngineScratch {
    /// Reuse/allocation counters retired with this arena; the default is
    /// all-zero for scratch types that don't track any.
    fn stats(&self) -> ScratchStats {
        ScratchStats::default()
    }
}

impl EngineScratch for TrialScratch {
    fn stats(&self) -> ScratchStats {
        TrialScratch::stats(self)
    }
}

/// A no-op scratch for studies whose batches need no reusable arena.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoScratch;

impl EngineScratch for NoScratch {}

/// Scratch-reuse counters, aggregated across workers by the engine into
/// its [`EngineStats`](crate::EngineStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScratchStats {
    /// Trials executed.
    pub trials: u64,
    /// Exact-solver scratch (re)allocations — `O(threads)` for a healthy
    /// run.
    pub table_grows: u64,
    /// Exact solves served from an already-sized scratch.
    pub table_reuses: u64,
}

impl ScratchStats {
    /// Accumulates another worker's counters.
    pub fn merge(&mut self, other: &ScratchStats) {
        self.trials += other.trials;
        self.table_grows += other.table_grows;
        self.table_reuses += other.table_reuses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_demand_pre_grows_the_exact_table() {
        let study = DemandStudy {
            max_workloads: 10,
            ..DemandStudy::default()
        };
        let scratch = TrialScratch::for_demand(&study);
        let stats = scratch.stats();
        assert_eq!(stats.table_grows, 1);
        assert_eq!(stats.table_reuses, 0);
        assert_eq!(scratch.exact.reserved_players(), 10);
    }

    #[test]
    fn for_demand_clamps_to_the_enumeration_cap() {
        let study = DemandStudy {
            max_workloads: 1000,
            ..DemandStudy::default()
        };
        let scratch = TrialScratch::for_demand(&study);
        assert_eq!(scratch.exact.reserved_players(), MAX_EXACT_PLAYERS);
    }

    #[test]
    fn stats_merge_sums_all_counters() {
        let mut a = ScratchStats {
            trials: 3,
            table_grows: 1,
            table_reuses: 2,
        };
        let b = ScratchStats {
            trials: 4,
            table_grows: 1,
            table_reuses: 3,
        };
        a.merge(&b);
        assert_eq!(a.trials, 7);
        assert_eq!(a.table_grows, 2);
        assert_eq!(a.table_reuses, 5);
    }
}
