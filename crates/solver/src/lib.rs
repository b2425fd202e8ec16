//! Vendored sparse linear-programming substrate.
//!
//! The LP-valued coalition games of `fairco2-shapley` (ROADMAP: "network
//! carbon attribution") need v(S) = the objective of a min-carbon routing
//! LP, solved hundreds of thousands of times across coalition lattices.
//! The build environment has no registry access, so — like `rand`, `serde`
//! and friends under `vendor/` — the solver is vendored: a from-scratch,
//! pure-Rust **sparse revised simplex** held to the same determinism
//! standard as the rest of the workspace.
//!
//! * [`csc`] — compressed-sparse-column matrices built from triplets with
//!   a deterministic (sorted, duplicate-summed) canonical form.
//! * [`lu`] — sparse LU factorization with Markowitz pivoting (minimum
//!   fill-in estimate under a threshold-stability guard) and an eta-file
//!   (product-form) update scheme that refactorizes on a fixed pivot
//!   count or when a pivot falls below the stability threshold.
//! * [`simplex`] — the revised simplex: two-phase primal for cold solves,
//!   dual simplex for warm starts from a relative's basis (the coalition
//!   lattice changes only `b`, so a parent's optimal basis stays dual
//!   feasible), Dantzig pricing with **Bland's rule as the documented
//!   deterministic anti-cycling fallback**, and typed
//!   [`LpOutcome::Infeasible`] / [`LpOutcome::Unbounded`] results. An
//!   optimal [`Basis`] carries its LU factors when its solve ended
//!   without eta updates, so a warm solve from it does not refactorize.
//!
//! # Determinism contract
//!
//! Every pivot choice — LU pivot, entering column, leaving row, every
//! tie-break — is a pure function of the current basis and the instance
//! data: ties break toward the lowest index, and no randomization, time,
//! or address-dependent state is consulted anywhere. Two solves of the
//! same instance from the same starting basis therefore execute the same
//! pivot sequence and return bit-identical results, on any machine and at
//! any thread count.
//!
//! On *exact-dyadic* instances — integer capacities and demands, costs
//! that are dyadic rationals — more is true: min-cost-flow bases are
//! totally unimodular, Gaussian elimination on a totally unimodular
//! matrix keeps every entry in {−1, 0, +1} (pivoting preserves total
//! unimodularity), so every intermediate quantity of the solve is an
//! exact dyadic `f64` and **warm and cold solves return bit-identical
//! objectives** even when they terminate at different optimal bases: both
//! compute the (unique) optimal value exactly, through the canonical
//! ascending-index objective accumulation of [`simplex::Solution`].
//!
//! # Example
//!
//! ```
//! use fairco2_solver::{solve, Csc, LinearProgram, LpOutcome};
//!
//! // min x0 + 2·x1  s.t.  x0 + x1 = 4, x0 ≤ 3 (slack x2), x ≥ 0.
//! let a = Csc::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)]);
//! let lp = LinearProgram::new(a, vec![4.0, 3.0], vec![1.0, 2.0, 0.0]);
//! match solve(&lp).unwrap() {
//!     LpOutcome::Optimal(sol) => assert!((sol.objective - 5.0).abs() < 1e-9),
//!     other => panic!("expected an optimum, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csc;
pub mod lu;
pub mod simplex;

pub use csc::Csc;
pub use lu::{LuError, LuFactors};
pub use simplex::{
    certify, solve, solve_warm, Basis, Certificate, LinearProgram, LpOutcome, Solution, SolveStats,
    SolverError,
};
