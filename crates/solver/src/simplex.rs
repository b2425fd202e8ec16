//! Deterministic revised simplex over [`Csc`] matrices and [`LuFactors`].
//!
//! Standard form: `min cᵀx  s.t.  A x = b, x ≥ 0`. Cold solves run the
//! **two-phase primal** method (phase 1 minimizes the sum of signed
//! artificial variables; artificials never re-enter once they leave, and
//! a drive-out pass pivots zero-level artificials off feasible bases).
//! Warm solves — the coalition-lattice case, where only `b` changes
//! between relatives so a parent's optimal basis stays *dual* feasible —
//! run the **dual simplex** from the supplied basis and fall back to the
//! reference cold path whenever the basis is unusable (wrong shape,
//! singular, dual infeasible, or the dual iteration hits a limit).
//!
//! # Pivot rules and determinism
//!
//! * Entering (primal): Dantzig pricing — most negative reduced cost,
//!   ties broken toward the lowest column index.
//! * Leaving (primal): minimum-ratio test, ties broken toward the lowest
//!   basic *column id* (not slot), which is exactly the tie-break Bland's
//!   rule requires.
//! * **Bland's rule fallback**: after `DEGENERATE_STREAK_LIMIT` (40)
//!   consecutive degenerate pivots the solve switches permanently to
//!   Bland's rule (entering = lowest eligible index), which provably
//!   cannot cycle. The switch is itself deterministic — a pure function
//!   of the pivot sequence — and is recorded in
//!   [`SolveStats::bland_activated`].
//! * Dual simplex: leaving = most negative basic value (ties → lowest
//!   basic column id), entering = minimum dual ratio (ties → lowest
//!   column index), with the same Bland-style degeneracy fallback.
//!
//! No randomness, no time, no address-dependent iteration order anywhere:
//! two solves of the same instance from the same starting basis execute
//! the same pivot sequence bit-for-bit. A hard iteration cap converts any
//! residual numerical stall into the typed [`SolverError::IterationLimit`]
//! rather than a hang.

use std::borrow::Cow;

use crate::csc::Csc;
use crate::lu::{LuError, LuFactors};

/// Feasibility / optimality tolerance used for pricing, ratio tests and
/// the infeasibility decision (scaled by the magnitude of `b` where
/// noted). Exact-dyadic instances never come near it.
pub const FEAS_TOL: f64 = 1e-9;

/// Minimum pivot magnitude accepted by the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Consecutive degenerate pivots tolerated before switching to Bland's
/// rule for the remainder of the solve.
const DEGENERATE_STREAK_LIMIT: usize = 40;

/// A linear program in standard form `min cᵀx  s.t.  A x = b, x ≥ 0`.
///
/// The matrix and costs are either owned ([`new`](Self::new)) or borrowed
/// from another program ([`with_rhs`](Self::with_rhs)), so a family of
/// programs differing only in `b` costs one rhs allocation per member and
/// no shared counter that concurrent solves would contend on.
#[derive(Debug, Clone)]
pub struct LinearProgram<'a> {
    a: Cow<'a, Csc>,
    b: Vec<f64>,
    c: Cow<'a, [f64]>,
}

impl LinearProgram<'static> {
    /// Builds the program `min cᵀx  s.t.  A x = b, x ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `b`/`c` lengths disagree with `a`, or any datum is
    /// non-finite.
    pub fn new(a: Csc, b: Vec<f64>, c: Vec<f64>) -> Self {
        assert_eq!(a.cols(), c.len(), "cost length must match variable count");
        assert!(c.iter().all(|v| v.is_finite()), "LP data must be finite");
        Self::checked(Cow::Owned(a), b, Cow::Owned(c))
    }
}

impl<'a> LinearProgram<'a> {
    fn checked(a: Cow<'a, Csc>, b: Vec<f64>, c: Cow<'a, [f64]>) -> Self {
        assert_eq!(a.rows(), b.len(), "rhs length must match constraint rows");
        assert!(b.iter().all(|v| v.is_finite()), "LP data must be finite");
        Self { a, b, c }
    }

    /// The same matrix and costs, borrowed rather than copied, with
    /// right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length or a non-finite entry.
    pub fn with_rhs(&self, b: Vec<f64>) -> LinearProgram<'_> {
        LinearProgram::checked(Cow::Borrowed(&*self.a), b, Cow::Borrowed(&*self.c))
    }

    /// Number of equality constraints (rows of `A`).
    pub fn constraints(&self) -> usize {
        self.a.rows()
    }

    /// Number of structural variables (columns of `A`).
    pub fn variables(&self) -> usize {
        self.a.cols()
    }

    /// The constraint matrix.
    pub fn matrix(&self) -> &Csc {
        &self.a
    }

    /// The right-hand side `b`.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// The cost vector `c`.
    pub fn costs(&self) -> &[f64] {
        &self.c
    }
}

/// An ordered basis: `columns()[slot]` is the structural column occupying
/// basis slot `slot`. Returned by optimal solves and accepted by
/// [`solve_warm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
}

impl Basis {
    /// The basic column ids, slot by slot.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Whether every basic column is structural (index `< n`); only such
    /// bases are reusable as warm starts.
    pub fn is_structural(&self, n: usize) -> bool {
        self.cols.iter().all(|&j| j < n)
    }
}

/// Counters describing how a solve proceeded. Bit-identity pins compare
/// objectives, not stats — warm and cold solves legitimately differ here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total simplex pivots (both phases, or dual iterations).
    pub iterations: u64,
    /// Pivots spent in phase 1 (always 0 for a pure warm solve).
    pub phase1_iterations: u64,
    /// LU refactorizations beyond the initial one.
    pub refactorizations: u64,
    /// Pivots with a (near-)zero step length.
    pub degenerate_pivots: u64,
    /// Whether the Bland's-rule anti-cycling fallback engaged.
    pub bland_activated: bool,
    /// Whether this solve was requested through [`solve_warm`].
    pub warm_started: bool,
    /// Whether a warm request fell back to the cold reference path.
    pub cold_fallback: bool,
}

/// An optimal solution with its certificate ingredients.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Primal values of the structural variables.
    pub x: Vec<f64>,
    /// `cᵀx`, accumulated in canonical ascending-column order (skipping
    /// exact zeros), so equal vertices yield bit-identical objectives.
    pub objective: f64,
    /// Dual values `y` (one per constraint row).
    pub duals: Vec<f64>,
    /// The optimal basis, reusable to warm-start a relative's solve.
    pub basis: Basis,
    /// How the solve went.
    pub stats: SolveStats,
}

/// Typed solve outcome. `Infeasible` and `Unbounded` are results, not
/// errors — callers (e.g. the network game) map them to documented
/// values.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal(Solution),
    /// No point satisfies `A x = b, x ≥ 0`.
    Infeasible,
    /// The objective decreases without bound along a feasible ray.
    Unbounded,
}

impl LpOutcome {
    /// The solution, if optimal.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(sol) => Some(sol),
            _ => None,
        }
    }

    /// The optimal objective, if optimal.
    pub fn objective(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal(sol) => Some(sol.objective),
            _ => None,
        }
    }
}

/// A genuine solver failure (distinct from the typed [`LpOutcome`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The hard pivot cap was reached — numerical stall or cycling that
    /// even the Bland fallback did not resolve.
    IterationLimit {
        /// Pivots executed when the cap fired.
        iterations: u64,
    },
    /// The basis factorization broke down (should not happen on valid
    /// bases; surfaced rather than panicking).
    NumericalBreakdown {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex iteration limit reached after {iterations} pivots"
                )
            }
            SolverError::NumericalBreakdown { detail } => {
                write!(f, "numerical breakdown: {detail}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Independent optimality certificate for a claimed [`Solution`]:
/// recomputes every KKT residual from the raw instance data.
#[derive(Debug, Clone, Copy)]
pub struct Certificate {
    /// `‖A x − b‖∞`.
    pub primal_residual: f64,
    /// `max(0, −minⱼ xⱼ)` — violation of the lower bounds.
    pub lower_violation: f64,
    /// `|cᵀx − bᵀy|` — the duality gap.
    pub duality_gap: f64,
    /// `max(0, −minⱼ (cⱼ − aⱼᵀy))` — violation of dual feasibility.
    pub dual_violation: f64,
}

impl Certificate {
    /// Whether every residual is within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.primal_residual <= tol
            && self.lower_violation <= tol
            && self.duality_gap <= tol
            && self.dual_violation <= tol
    }
}

/// Recomputes the KKT residuals of `sol` against `lp` from scratch.
pub fn certify(lp: &LinearProgram<'_>, sol: &Solution) -> Certificate {
    let m = lp.constraints();
    let n = lp.variables();
    let mut ax = vec![0.0f64; m];
    for j in 0..n {
        if sol.x[j] != 0.0 {
            lp.matrix().scatter_col(j, sol.x[j], &mut ax);
        }
    }
    let primal_residual = ax
        .iter()
        .zip(lp.rhs())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let lower_violation = sol.x.iter().fold(0.0f64, |acc, &v| acc.max(-v));
    let mut by = 0.0f64;
    for (bv, yv) in lp.rhs().iter().zip(&sol.duals) {
        if *bv != 0.0 && *yv != 0.0 {
            by += bv * yv;
        }
    }
    let duality_gap = (sol.objective - by).abs();
    let dual_violation = (0..n)
        .map(|j| lp.costs()[j] - lp.matrix().dot_col(j, &sol.duals))
        .fold(0.0f64, |acc, d| acc.max(-d));
    Certificate {
        primal_residual,
        lower_violation,
        duality_gap,
        dual_violation,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

enum PrimalEnd {
    Optimal,
    Unbounded,
}

enum DualEnd {
    Optimal,
    PrimalInfeasible,
}

struct Engine<'a> {
    lp: &'a LinearProgram<'a>,
    m: usize,
    n: usize,
    /// Sign of the artificial column for each row (`±e_r`).
    art_sign: Vec<f64>,
    /// `basis[slot]` = column id; ids `≥ n` are artificials.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    lu: LuFactors,
    xb: Vec<f64>,
    stats: SolveStats,
    bland: bool,
    degen_streak: usize,
    iter_cap: u64,
}

impl<'a> Engine<'a> {
    fn cold(lp: &'a LinearProgram<'a>) -> Self {
        let m = lp.constraints();
        let n = lp.variables();
        let art_sign: Vec<f64> = lp
            .rhs()
            .iter()
            .map(|&b| if b < 0.0 { -1.0 } else { 1.0 })
            .collect();
        let basis: Vec<usize> = (n..n + m).collect();
        let mut in_basis = vec![false; n + m];
        for &j in &basis {
            in_basis[j] = true;
        }
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|r| vec![(r, art_sign[r])]).collect();
        let lu = LuFactors::factorize(m, &cols).expect("signed identity is nonsingular");
        let mut xb = lp.rhs().to_vec();
        lu.ftran(&mut xb);
        Self {
            lp,
            m,
            n,
            art_sign,
            basis,
            in_basis,
            lu,
            xb,
            stats: SolveStats::default(),
            bland: false,
            degen_streak: 0,
            iter_cap: iter_cap(m, n),
        }
    }

    fn warm(lp: &'a LinearProgram<'a>, cols_ids: &[usize]) -> Result<Self, LuError> {
        let m = lp.constraints();
        let n = lp.variables();
        let art_sign = vec![1.0; m];
        let cols: Vec<Vec<(usize, f64)>> = cols_ids
            .iter()
            .map(|&j| {
                let (rows, vals) = lp.matrix().col(j);
                rows.iter().zip(vals).map(|(&r, &v)| (r, v)).collect()
            })
            .collect();
        let lu = LuFactors::factorize(m, &cols)?;
        let mut in_basis = vec![false; n + m];
        for &j in cols_ids {
            in_basis[j] = true;
        }
        let mut xb = lp.rhs().to_vec();
        lu.ftran(&mut xb);
        Ok(Self {
            lp,
            m,
            n,
            art_sign,
            basis: cols_ids.to_vec(),
            in_basis,
            lu,
            xb,
            stats: SolveStats::default(),
            bland: false,
            degen_streak: 0,
            iter_cap: iter_cap(m, n),
        })
    }

    fn phase2_costs(&self) -> Vec<f64> {
        let mut costs = vec![0.0f64; self.n + self.m];
        costs[..self.n].copy_from_slice(self.lp.costs());
        costs
    }

    fn check_cap(&self) -> Result<(), SolverError> {
        if self.stats.iterations >= self.iter_cap {
            Err(SolverError::IterationLimit {
                iterations: self.stats.iterations,
            })
        } else {
            Ok(())
        }
    }

    /// BTRAN of the basic costs: the dual vector `y` (row-indexed).
    fn duals(&self, costs: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| costs[j]).collect();
        self.lu.btran(&mut y);
        y
    }

    fn dense_column(&self, j: usize) -> Vec<f64> {
        let mut col = vec![0.0f64; self.m];
        if j < self.n {
            self.lp.matrix().scatter_col(j, 1.0, &mut col);
        } else {
            col[j - self.n] = self.art_sign[j - self.n];
        }
        col
    }

    fn sparse_column(&self, j: usize) -> Vec<(usize, f64)> {
        if j < self.n {
            let (rows, vals) = self.lp.matrix().col(j);
            rows.iter().zip(vals).map(|(&r, &v)| (r, v)).collect()
        } else {
            vec![(j - self.n, self.art_sign[j - self.n])]
        }
    }

    fn refactorize(&mut self) -> Result<(), SolverError> {
        let cols: Vec<Vec<(usize, f64)>> =
            self.basis.iter().map(|&j| self.sparse_column(j)).collect();
        self.lu =
            LuFactors::factorize(self.m, &cols).map_err(|e| SolverError::NumericalBreakdown {
                detail: e.to_string(),
            })?;
        self.stats.refactorizations += 1;
        // Recompute the basic values from scratch: drift control, and a
        // pure function of the basis (determinism-safe).
        let mut xb = self.lp.rhs().to_vec();
        self.lu.ftran(&mut xb);
        self.xb = xb;
        Ok(())
    }

    /// Dantzig pricing (Bland when the fallback engaged). Entering
    /// candidates are always structural — artificials never re-enter.
    fn price(&self, costs: &[f64], y: &[f64]) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (j, &cj) in costs.iter().enumerate().take(self.n) {
            if self.in_basis[j] {
                continue;
            }
            let d = cj - self.lp.matrix().dot_col(j, y);
            if d >= -FEAS_TOL {
                continue;
            }
            if self.bland {
                return Some(j);
            }
            // Strict `<` keeps the lowest index on exact ties.
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, j));
            }
        }
        best.map(|(_, j)| j)
    }

    /// Minimum-ratio test; ties break toward the lowest basic column id
    /// (the Bland-compatible choice). Basic artificials sitting at zero
    /// are forced out even along a negative direction, so they can never
    /// go negative in phase 2.
    fn ratio_test(&self, w: &[f64]) -> Option<usize> {
        let mut leave: Option<(f64, usize)> = None;
        for (i, &wi) in w.iter().enumerate().take(self.m) {
            let bi = self.basis[i];
            let ratio = if wi > PIVOT_TOL {
                Some(self.xb[i].max(0.0) / wi)
            } else if bi >= self.n && wi < -PIVOT_TOL && self.xb[i].abs() <= FEAS_TOL {
                Some(0.0)
            } else {
                None
            };
            let Some(r) = ratio else { continue };
            let better = match leave {
                None => true,
                Some((br, bs)) => r < br || (r == br && bi < self.basis[bs]),
            };
            if better {
                leave = Some((r, i));
            }
        }
        leave.map(|(_, i)| i)
    }

    fn note_degenerate(&mut self, degenerate: bool) {
        if degenerate {
            self.stats.degenerate_pivots += 1;
            self.degen_streak += 1;
            if self.degen_streak >= DEGENERATE_STREAK_LIMIT && !self.bland {
                self.bland = true;
                self.stats.bland_activated = true;
            }
        } else {
            self.degen_streak = 0;
        }
    }

    /// Replaces the basic column at `slot` with `q`, given `w = B⁻¹ a_q`
    /// computed against the *current* factors, and updates the factors by
    /// eta append or refactorization.
    fn pivot(&mut self, slot: usize, q: usize, w: &[f64]) -> Result<(), SolverError> {
        let raw = self.xb[slot] / w[slot];
        // Normalize −0.0 step lengths so degenerate pivots leave +0.0 in
        // the basis regardless of pivot signs.
        let theta = if raw == 0.0 { 0.0 } else { raw };
        for (i, &wi) in w.iter().enumerate().take(self.m) {
            if i != slot && wi != 0.0 {
                self.xb[i] -= wi * theta;
            }
        }
        self.xb[slot] = theta;
        let old = self.basis[slot];
        self.in_basis[old] = false;
        self.in_basis[q] = true;
        self.basis[slot] = q;
        if self.lu.wants_refactor() || !self.lu.append_eta(slot, w) {
            self.refactorize()?;
        }
        Ok(())
    }

    fn primal(&mut self, costs: &[f64], phase: Phase) -> Result<PrimalEnd, SolverError> {
        self.bland = false;
        self.degen_streak = 0;
        loop {
            self.check_cap()?;
            let y = self.duals(costs);
            let Some(q) = self.price(costs, &y) else {
                return Ok(PrimalEnd::Optimal);
            };
            let mut w = self.dense_column(q);
            self.lu.ftran(&mut w);
            let Some(slot) = self.ratio_test(&w) else {
                return Ok(PrimalEnd::Unbounded);
            };
            let theta = self.xb[slot] / w[slot];
            self.note_degenerate(theta.abs() <= FEAS_TOL);
            self.pivot(slot, q, &w)?;
            self.stats.iterations += 1;
            if phase == Phase::One {
                self.stats.phase1_iterations += 1;
            }
        }
    }

    /// After a feasible phase 1: pivot zero-level artificials out of the
    /// basis wherever a structural column can take their slot; slots with
    /// no candidate sit on redundant rows and keep their artificial at
    /// exactly zero.
    fn drive_out_artificials(&mut self) -> Result<(), SolverError> {
        for slot in 0..self.m {
            if self.basis[slot] < self.n {
                continue;
            }
            // ρ = row `slot` of B⁻¹, via BTRAN of a slot unit vector.
            let mut rho = vec![0.0f64; self.m];
            rho[slot] = 1.0;
            self.lu.btran(&mut rho);
            let mut entering = None;
            for j in 0..self.n {
                if !self.in_basis[j] && self.lp.matrix().dot_col(j, &rho).abs() > PIVOT_TOL {
                    entering = Some(j);
                    break;
                }
            }
            let Some(q) = entering else { continue };
            let mut w = self.dense_column(q);
            self.lu.ftran(&mut w);
            self.pivot(slot, q, &w)?;
        }
        Ok(())
    }

    fn two_phase(&mut self) -> Result<LpOutcome, SolverError> {
        let mut p1 = vec![0.0f64; self.n + self.m];
        for cost in p1.iter_mut().skip(self.n) {
            *cost = 1.0;
        }
        match self.primal(&p1, Phase::One)? {
            PrimalEnd::Unbounded => {
                return Err(SolverError::NumericalBreakdown {
                    detail: "phase-1 problem reported unbounded".into(),
                })
            }
            PrimalEnd::Optimal => {}
        }
        let scale = 1.0 + self.lp.rhs().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let infeasibility: f64 = (0..self.m)
            .filter(|&i| self.basis[i] >= self.n)
            .map(|i| self.xb[i].max(0.0))
            .sum();
        if infeasibility > FEAS_TOL * scale {
            return Ok(LpOutcome::Infeasible);
        }
        self.drive_out_artificials()?;
        let p2 = self.phase2_costs();
        match self.primal(&p2, Phase::Two)? {
            PrimalEnd::Unbounded => Ok(LpOutcome::Unbounded),
            PrimalEnd::Optimal => {
                // Defensive: an artificial stuck above tolerance means the
                // feasibility decision was numerically marginal.
                let stuck = (0..self.m)
                    .any(|i| self.basis[i] >= self.n && self.xb[i].abs() > FEAS_TOL * scale);
                if stuck {
                    return Ok(LpOutcome::Infeasible);
                }
                Ok(LpOutcome::Optimal(self.finalize(&p2)))
            }
        }
    }

    fn dual_feasible(&self, costs: &[f64]) -> bool {
        let y = self.duals(costs);
        (0..self.n)
            .filter(|&j| !self.in_basis[j])
            .all(|j| costs[j] - self.lp.matrix().dot_col(j, &y) >= -FEAS_TOL)
    }

    fn dual_simplex(&mut self, costs: &[f64]) -> Result<DualEnd, SolverError> {
        self.bland = false;
        self.degen_streak = 0;
        loop {
            self.check_cap()?;
            // Leaving: most negative basic value; ties (and Bland mode)
            // resolve toward the lowest basic column id.
            let mut leave: Option<usize> = None;
            for i in 0..self.m {
                if self.xb[i] >= -FEAS_TOL {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some(l) => {
                        if self.bland {
                            self.basis[i] < self.basis[l]
                        } else {
                            self.xb[i] < self.xb[l]
                                || (self.xb[i] == self.xb[l] && self.basis[i] < self.basis[l])
                        }
                    }
                };
                if better {
                    leave = Some(i);
                }
            }
            let Some(slot) = leave else {
                return Ok(DualEnd::Optimal);
            };
            let mut rho = vec![0.0f64; self.m];
            rho[slot] = 1.0;
            self.lu.btran(&mut rho);
            let y = self.duals(costs);
            // Entering: minimum dual ratio d_j / (−α_j) over α_j < 0.
            let mut enter: Option<(f64, usize)> = None;
            for (j, &cj) in costs.iter().enumerate().take(self.n) {
                if self.in_basis[j] {
                    continue;
                }
                let alpha = self.lp.matrix().dot_col(j, &rho);
                if alpha >= -PIVOT_TOL {
                    continue;
                }
                if self.bland {
                    enter = Some((0.0, j));
                    break;
                }
                // Clamp tiny negative reduced costs: dual feasibility is an
                // invariant here, violated only by round-off.
                let d = (cj - self.lp.matrix().dot_col(j, &y)).max(0.0);
                let ratio = d / -alpha;
                let better = match enter {
                    None => true,
                    Some((br, bj)) => ratio < br || (ratio == br && j < bj),
                };
                if better {
                    enter = Some((ratio, j));
                }
            }
            let Some((ratio, q)) = enter else {
                // Dual unbounded ⇒ primal infeasible.
                return Ok(DualEnd::PrimalInfeasible);
            };
            self.note_degenerate(ratio <= FEAS_TOL);
            let mut w = self.dense_column(q);
            self.lu.ftran(&mut w);
            self.pivot(slot, q, &w)?;
            self.stats.iterations += 1;
        }
    }

    fn finalize(&self, costs: &[f64]) -> Solution {
        let y = self.duals(costs);
        let mut x = vec![0.0f64; self.n];
        for i in 0..self.m {
            if self.basis[i] < self.n {
                x[self.basis[i]] = self.xb[i];
            }
        }
        // Canonical ascending-column accumulation, skipping exact zeros
        // (so ±0.0 basics cannot perturb the sign of a zero objective).
        let mut objective = 0.0f64;
        for (xj, cj) in x.iter().zip(self.lp.costs()) {
            if *xj != 0.0 && *cj != 0.0 {
                objective += cj * xj;
            }
        }
        Solution {
            x,
            objective,
            duals: y,
            basis: Basis {
                cols: self.basis.clone(),
            },
            stats: self.stats,
        }
    }
}

fn iter_cap(m: usize, n: usize) -> u64 {
    2000 + 200 * (m + n) as u64
}

/// Solves `lp` cold via the two-phase primal simplex.
///
/// # Errors
///
/// [`SolverError`] on iteration-cap or factorization breakdown; the
/// mathematical outcomes (`Infeasible`, `Unbounded`) are typed
/// [`LpOutcome`]s, not errors.
pub fn solve(lp: &LinearProgram<'_>) -> Result<LpOutcome, SolverError> {
    let mut eng = Engine::cold(lp);
    eng.two_phase()
}

/// Solves `lp` warm-starting from `basis` (typically a relative's optimal
/// basis after only `b` changed, which leaves it dual feasible) via the
/// dual simplex. Falls back to the cold reference path — recording
/// [`SolveStats::cold_fallback`] — whenever the basis is unusable: wrong
/// shape, contains artificials, singular, dual infeasible, or the dual
/// iteration hits a limit.
///
/// # Errors
///
/// [`SolverError`] only if the *fallback cold solve* itself fails.
pub fn solve_warm(lp: &LinearProgram<'_>, basis: &Basis) -> Result<LpOutcome, SolverError> {
    let m = lp.constraints();
    let n = lp.variables();
    let shape_ok = basis.cols.len() == m && basis.is_structural(n) && {
        let mut seen = vec![false; n];
        basis
            .cols
            .iter()
            .all(|&j| !std::mem::replace(&mut seen[j], true))
    };
    if shape_ok {
        if let Ok(mut eng) = Engine::warm(lp, &basis.cols) {
            eng.stats.warm_started = true;
            let costs = eng.phase2_costs();
            if eng.dual_feasible(&costs) {
                match eng.dual_simplex(&costs) {
                    Ok(DualEnd::Optimal) => return Ok(LpOutcome::Optimal(eng.finalize(&costs))),
                    Ok(DualEnd::PrimalInfeasible) => return Ok(LpOutcome::Infeasible),
                    Err(_) => {} // fall through to the cold reference path
                }
            }
        }
    }
    let mut out = solve(lp)?;
    if let LpOutcome::Optimal(sol) = &mut out {
        sol.stats.warm_started = true;
        sol.stats.cold_fallback = true;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
        b: &[f64],
        c: &[f64],
    ) -> LinearProgram<'static> {
        LinearProgram::new(
            Csc::from_triplets(rows, cols, triplets),
            b.to_vec(),
            c.to_vec(),
        )
    }

    #[test]
    fn small_lp_reaches_the_known_optimum() {
        // min x0 + 2 x1  s.t.  x0 + x1 = 4, x0 + x2 = 3, x ≥ 0.
        let p = lp(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)],
            &[4.0, 3.0],
            &[1.0, 2.0, 0.0],
        );
        let sol = solve(&p).unwrap().optimal().expect("optimal");
        assert!((sol.objective - 5.0).abs() < 1e-12);
        assert!((sol.x[0] - 3.0).abs() < 1e-12);
        assert!((sol.x[1] - 1.0).abs() < 1e-12);
        assert!(certify(&p, &sol).passes(1e-9));
    }

    #[test]
    fn conflicting_rows_are_typed_infeasible() {
        let p = lp(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)], &[1.0, 2.0], &[1.0]);
        assert!(matches!(solve(&p).unwrap(), LpOutcome::Infeasible));
    }

    #[test]
    fn descending_ray_is_typed_unbounded() {
        // min −x0  s.t.  x0 − x1 = 0: the ray x0 = x1 = t is feasible.
        let p = lp(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)], &[0.0], &[-1.0, 0.0]);
        assert!(matches!(solve(&p).unwrap(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_is_handled_by_signed_artificials() {
        // x0 − x1 = −1, x0 + x1 = 3 ⇒ unique point (1, 2).
        let p = lp(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, 1.0), (1, 1, 1.0)],
            &[-1.0, 3.0],
            &[1.0, 1.0],
        );
        let sol = solve(&p).unwrap().optimal().expect("optimal");
        assert!((sol.objective - 3.0).abs() < 1e-12);
        assert!(certify(&p, &sol).passes(1e-9));
    }

    #[test]
    fn degenerate_instance_terminates_with_an_optimum() {
        // Zero rhs forces every pivot to be degenerate.
        let p = lp(
            2,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (0, 2, 1.0),
                (1, 1, 1.0),
                (1, 2, -1.0),
                (1, 3, 1.0),
            ],
            &[0.0, 0.0],
            &[1.0, 1.0, 1.0, 1.0],
        );
        let sol = solve(&p).unwrap().optimal().expect("optimal");
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn redundant_rows_keep_a_zero_artificial_and_still_solve() {
        // Row 1 duplicates row 0: rank-deficient but consistent.
        let p = lp(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
            &[2.0, 2.0],
            &[1.0, 3.0],
        );
        let sol = solve(&p).unwrap().optimal().expect("optimal");
        assert!((sol.objective - 2.0).abs() < 1e-12);
    }

    #[test]
    fn warm_solve_matches_cold_bitwise_on_a_network_instance() {
        // One conservation row, one capacity row: f1 + f2 = d, f1 + s = 2.
        let triplets = [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)];
        let c = [1.0, 2.0, 0.0];
        let parent = lp(2, 3, &triplets, &[2.0, 2.0], &c);
        let parent_sol = solve(&parent).unwrap().optimal().expect("optimal");
        assert_eq!(parent_sol.objective, 2.0);
        assert!(parent_sol.basis.is_structural(3));

        let child = lp(2, 3, &triplets, &[3.0, 2.0], &c);
        let cold = solve(&child).unwrap().optimal().expect("optimal");
        let warm = solve_warm(&child, &parent_sol.basis)
            .unwrap()
            .optimal()
            .expect("optimal");
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        assert_eq!(warm.objective, 4.0);
        assert!(warm.stats.warm_started);
        assert!(certify(&child, &warm).passes(1e-9));
    }

    #[test]
    fn warm_solve_types_an_infeasible_child() {
        // Parent feasible; child demand exceeds capacity (f1 ≤ 2, only arc).
        let triplets = [(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)];
        let c = [1.0, 0.0];
        let parent = lp(2, 2, &triplets, &[1.0, 2.0], &c);
        let parent_sol = solve(&parent).unwrap().optimal().expect("optimal");
        let child = lp(2, 2, &triplets, &[5.0, 2.0], &c);
        assert!(matches!(
            solve_warm(&child, &parent_sol.basis).unwrap(),
            LpOutcome::Infeasible
        ));
    }

    #[test]
    fn garbage_basis_falls_back_to_cold() {
        let p = lp(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)], &[1.0], &[1.0, 2.0]);
        let bad = Basis { cols: vec![0, 0] };
        let sol = solve_warm(&p, &bad).unwrap().optimal().expect("optimal");
        assert!(sol.stats.cold_fallback);
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn solve_never_returns_nan_objectives() {
        let p = lp(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)],
            &[1.0, 1.0],
            &[0.5, 0.25, 0.125],
        );
        if let LpOutcome::Optimal(sol) = solve(&p).unwrap() {
            assert!(sol.objective.is_finite());
            assert!(sol.x.iter().all(|v| v.is_finite()));
            assert!(sol.duals.iter().all(|v| v.is_finite()));
        } else {
            panic!("expected an optimum");
        }
    }
}
