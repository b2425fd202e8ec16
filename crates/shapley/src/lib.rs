//! Cooperative-game substrate: Shapley-value solvers for carbon attribution.
//!
//! The paper grounds fair carbon attribution in the Shapley value (its
//! Eq. 1) and contributes a scalable *Temporal Shapley* approximation
//! (Eqs. 2–7). This crate implements the complete toolbox:
//!
//! * [`game`] — the [`Game`] trait (characteristic function
//!   over coalitions) and the incremental variant used by permutation
//!   sampling.
//! * [`exact`] — ground-truth Shapley by subset enumeration, `O(n·2ⁿ)`
//!   time and no `2ⁿ` table; practical to ~24 players, exactly the
//!   regime the paper evaluates (≤ 22 workloads). One block routine
//!   serves the serial and the deterministic parallel solver
//!   ([`exact::parallel_exact_shapley`]).
//! * [`sampled`] — the configuration and result types of permutation
//!   sampling, for games too large to enumerate: antithetic variance
//!   reduction with pair-aware standard errors and a standard-error
//!   stopping rule.
//! * [`cache`] — the open-addressing [`cache::CoalitionCache`] memo table
//!   and the [`cache::CachedGame`] adapter through which a sampling batch
//!   skips repeated characteristic-function evaluations.
//! * [`parallel`] — the deterministic parallel engine and the crate's one
//!   permutation sampler: batched sampling over scoped worker threads
//!   (the caller's thread at one worker) with per-batch seeding, moment
//!   merging, work counters, and a convergence trace; bit-identical
//!   results at any thread count.
//! * [`netgame`] — LP-valued coalition games: network carbon attribution
//!   where `v(S)` is the objective of a min-carbon routing LP over the
//!   vendored `fairco2-solver` simplex, with warm-started coalition
//!   solves pinned bit-identical to cold ones on exact instances.
//! * [`matching`] — an exact `O(n²)` solver for *pairwise matching games*
//!   (the structure of the paper's colocation scenarios: isolated costs
//!   plus pairwise colocation costs under a uniformly random matching).
//! * [`temporal`] — Temporal Shapley: the exact closed form for the
//!   peak-demand game (equivalent to the paper's Eq. 7, derived via the
//!   level decomposition of `max`), hierarchical splitting, and the
//!   dynamic embodied-carbon-intensity signal (Eq. 5).
//! * [`cascade`] — the flat, zero-copy engine behind the temporal
//!   hierarchy: index-range periods over one shared demand buffer, folded
//!   in the per-period reference's order so every result equals it bit
//!   for bit, a reusable [`cascade::CascadeScratch`] for allocation-free
//!   repeats, and the [`cascade::IntensityIndex`] answering batched
//!   billing queries.
//! * [`incremental`] — the streaming engine behind the always-on
//!   attribution service: fixed windows ingested one sample at a time,
//!   each closed through the same cascade at amortized `O(levels)` per
//!   sample.
//! * [`surrogate`] — learned ridge surrogate serving peak-demand
//!   attributions in `O(features)` per workload, with an efficiency-gap
//!   residual bound and a deterministic error-bounded fallback to
//!   [`parallel::parallel_sampled_shapley`] at one thread.
//! * [`axioms`] — executable checks of the four fairness axioms (null
//!   player, symmetry, efficiency, linearity).
//!
//! # Example
//!
//! ```
//! use fairco2_shapley::temporal::peak_shapley;
//!
//! // Three periods with peaks 10, 6, 6: the peak period absorbs most of
//! // the capacity responsibility, the tied periods split the rest.
//! let phi = peak_shapley(&[10.0, 6.0, 6.0]);
//! let total: f64 = phi.iter().sum();
//! assert!((total - 10.0).abs() < 1e-12); // efficiency: sums to the peak
//! assert!(phi[0] > phi[1] && (phi[1] - phi[2]).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod cache;
pub mod cascade;
pub mod coalition;
pub mod exact;
pub mod game;
pub mod incremental;
pub mod matching;
pub mod netgame;
pub mod parallel;
pub mod sampled;
pub mod surrogate;
pub mod temporal;
pub mod unit_time;

pub use axioms::AxiomCheck;
pub use cache::{CachedGame, CoalitionCache};
pub use cascade::{BillingQuery, CascadeScratch, IntensityIndex};
pub use coalition::Coalition;
pub use exact::{
    exact_shapley, exact_shapley_fast_with_scratch, parallel_exact_shapley, ExactScratch,
};
pub use game::{replay_marginals_into, EvalCounters, Game, IncrementalGame};
pub use incremental::{IncrementalCascade, WindowAttribution};
pub use matching::{shapley_from_moments, MatchingGame};
pub use netgame::{CoalitionValue, LatticeStats, Link, Network, NetworkCarbonGame};
pub use parallel::{
    default_threads, panic_message, parallel_sampled_shapley, run_parallel, ConvergenceTrace,
    ParallelConfig, ParallelEstimate, TracePoint,
};
pub use sampled::{SampleConfig, ShapleyEstimate};
pub use surrogate::{
    player_features_into, SurrogateAttributor, SurrogateModel, SurrogateOutcome, SurrogateScratch,
    SurrogateTrainer, SURROGATE_FEATURES, SURROGATE_TARGETS,
};
pub use temporal::{peak_shapley, peak_shapley_into, TemporalAttribution};
