//! Property battery for the vendored revised simplex.
//!
//! * On small dense instances (m ≤ 4, n ≤ 6) with a feasible point baked
//!   in by construction (`b = A·x₀`, `x₀ ≥ 0`), the solver's objective
//!   equals the minimum over **brute-force enumerated vertices** (all
//!   m-column bases, dense Gaussian elimination).
//! * On larger random sparse instances the returned solution passes the
//!   independent KKT certificate — primal feasibility, bounds, **zero
//!   duality gap and non-negative reduced costs — to 1e-9** (scaled).
//! * Degenerate (all-tied-ratio), infeasible, and unbounded families
//!   return **typed** outcomes: never a panic, never a NaN.
//! * Warm solves along chains of non-integer rhs perturbations of the
//!   sparse family return the same bits whether each start basis carries
//!   the factors its predecessor handed on or has them stripped.

use fairco2_solver::{certify, solve, solve_warm, Basis, Csc, LinearProgram, LpOutcome, Solution};
use proptest::prelude::*;

/// Dense Gaussian elimination with partial pivoting: solves `B x = b` for
/// an m×m column-major `B`. Returns `None` when `B` is singular.
#[allow(clippy::needless_range_loop)] // row k is borrowed while row i is mutated
fn dense_solve(m: usize, cols: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let mut a = vec![vec![0.0f64; m + 1]; m];
    for (j, col) in cols.iter().enumerate() {
        for i in 0..m {
            a[i][j] = col[i];
        }
    }
    for i in 0..m {
        a[i][m] = b[i];
    }
    for k in 0..m {
        let piv = (k..m).max_by(|&i, &j| a[i][k].abs().partial_cmp(&a[j][k].abs()).unwrap())?;
        if a[piv][k].abs() < 1e-11 {
            return None;
        }
        a.swap(k, piv);
        for i in k + 1..m {
            let f = a[i][k] / a[k][k];
            for j in k..=m {
                a[i][j] -= f * a[k][j];
            }
        }
    }
    let mut x = vec![0.0f64; m];
    for k in (0..m).rev() {
        let mut acc = a[k][m];
        for j in k + 1..m {
            acc -= a[k][j] * x[j];
        }
        x[k] = acc / a[k][k];
    }
    Some(x)
}

/// Minimum objective over all basic feasible solutions (vertices), by
/// enumerating every m-subset of columns. `None` if no vertex was found.
fn brute_force_vertex_min(
    m: usize,
    n: usize,
    dense: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
) -> Option<f64> {
    let mut best: Option<f64> = None;
    // Iterate all n-choose-m subsets via bitmasks (n ≤ 6).
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize != m {
            continue;
        }
        let members: Vec<usize> = (0..n).filter(|&j| mask & (1 << j) != 0).collect();
        let cols: Vec<Vec<f64>> = members.iter().map(|&j| dense[j].clone()).collect();
        let Some(xb) = dense_solve(m, &cols, b) else {
            continue;
        };
        if xb.iter().any(|&v| v < -1e-7) {
            continue;
        }
        let obj: f64 = members.iter().zip(&xb).map(|(&j, &v)| c[j] * v).sum();
        best = Some(match best {
            None => obj,
            Some(prev) => prev.min(obj),
        });
    }
    best
}

/// Builds the instance from integer pools: dense columns, a feasible
/// point `x0`, and `b = A·x0` — so the LP is feasible by construction.
struct SmallInstance {
    m: usize,
    n: usize,
    dense: Vec<Vec<f64>>, // dense[j][i]
    b: Vec<f64>,
    c: Vec<f64>,
}

fn build_instance(m: usize, n: usize, entries: &[i8], x0: &[u8], costs: &[i8]) -> SmallInstance {
    let dense: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| entries[(j * m + i) % entries.len()] as f64)
                .collect()
        })
        .collect();
    let mut b = vec![0.0f64; m];
    for (j, col) in dense.iter().enumerate() {
        let xj = x0[j % x0.len()] as f64;
        for (i, &v) in col.iter().enumerate() {
            b[i] += v * xj;
        }
    }
    let c: Vec<f64> = (0..n).map(|j| costs[j % costs.len()] as f64).collect();
    SmallInstance { m, n, dense, b, c }
}

/// The sparse family: each column touches ≤ 3 rows with entries in
/// −2..=2 (not totally unimodular, so elimination rounds), `b = A·x₀`.
fn sparse_instance(
    m: usize,
    extra: usize,
    entries: &[i8],
    x0: &[u8],
    costs: &[i8],
) -> SmallInstance {
    let n = m + extra;
    let dense: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let mut col = vec![0.0f64; m];
            for k in 0..3 {
                let i = (j * 3 + k * 7) % m;
                col[i] = entries[(j + k) % entries.len()] as f64;
            }
            col
        })
        .collect();
    let mut b = vec![0.0f64; m];
    for (j, col) in dense.iter().enumerate() {
        let xj = x0[j % x0.len()] as f64;
        for (i, &v) in col.iter().enumerate() {
            b[i] += v * xj;
        }
    }
    let c: Vec<f64> = (0..n).map(|j| costs[j % costs.len()] as f64).collect();
    SmallInstance { m, n, dense, b, c }
}

/// `A·(x₀ + εₖ)` for a non-integer `εₖ ≥ 0`: a feasible rhs off the
/// integer lattice.
fn perturbed_rhs(inst: &SmallInstance, x0: &[u8], k: usize) -> Vec<f64> {
    let mut b = vec![0.0f64; inst.m];
    for (j, col) in inst.dense.iter().enumerate() {
        let xj = x0[j % x0.len()] as f64 + ((j * 5 + k * 3) % 11) as f64 * 0.1 / 3.0;
        for (i, &v) in col.iter().enumerate() {
            b[i] += v * xj;
        }
    }
    b
}

fn warm_optimum(lp: &LinearProgram<'_>, basis: &Basis) -> Solution {
    solve_warm(lp, basis)
        .expect("finite data")
        .optimal()
        .expect("feasible and bounded by construction")
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn to_lp(inst: &SmallInstance) -> LinearProgram<'static> {
    let mut triplets = Vec::new();
    for (j, col) in inst.dense.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            if v != 0.0 {
                triplets.push((i, j, v));
            }
        }
    }
    LinearProgram::new(
        Csc::from_triplets(inst.m, inst.n, &triplets),
        inst.b.clone(),
        inst.c.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simplex_matches_brute_force_vertex_enumeration(
        m in 1usize..=4,
        extra in 0usize..=4,
        entries in prop::collection::vec(-3i8..=3, 8..32),
        x0 in prop::collection::vec(0u8..=4, 6),
        costs in prop::collection::vec(-5i8..=5, 4..8),
    ) {
        let n = (m + extra).min(6);
        let inst = build_instance(m, n, &entries, &x0, &costs);
        let lp = to_lp(&inst);
        match solve(&lp).expect("solver must not fail on finite data") {
            LpOutcome::Optimal(sol) => {
                prop_assert!(sol.objective.is_finite());
                let cert = certify(&lp, &sol);
                let scale = 1.0 + sol.objective.abs();
                prop_assert!(cert.passes(1e-7 * scale), "certificate {cert:?}");
                if let Some(best) = brute_force_vertex_min(inst.m, n, &inst.dense, &inst.b, &inst.c) {
                    prop_assert!(
                        (sol.objective - best).abs() <= 1e-6 * scale,
                        "simplex {} vs brute-force {}", sol.objective, best
                    );
                }
            }
            // Feasible by construction, so Infeasible would be a bug…
            LpOutcome::Infeasible => prop_assert!(false, "feasible instance typed infeasible"),
            // …but an unbounded ray is legitimate for signed costs.
            LpOutcome::Unbounded => {}
        }
    }

    #[test]
    fn larger_sparse_instances_certify_to_1e9(
        m in 3usize..=10,
        extra in 2usize..=10,
        entries in prop::collection::vec(-2i8..=2, 16..64),
        x0 in prop::collection::vec(0u8..=3, 20),
        costs in prop::collection::vec(0i8..=7, 8..16),
    ) {
        let inst = sparse_instance(m, extra, &entries, &x0, &costs);
        let lp = to_lp(&inst);
        match solve(&lp).expect("solver must not fail on finite data") {
            LpOutcome::Optimal(sol) => {
                prop_assert!(sol.objective.is_finite());
                prop_assert!(sol.x.iter().all(|v| v.is_finite()));
                prop_assert!(sol.duals.iter().all(|v| v.is_finite()));
                let cert = certify(&lp, &sol);
                let scale = 1.0 + sol.objective.abs();
                // Primal feasibility + zero duality gap (reduced-cost
                // check) to 1e-9, scaled.
                prop_assert!(cert.passes(1e-9 * scale), "certificate {cert:?}");
            }
            LpOutcome::Infeasible => prop_assert!(false, "feasible instance typed infeasible"),
            LpOutcome::Unbounded => {
                // Costs are non-negative here, so the objective is bounded
                // below by zero: Unbounded would be a bug.
                prop_assert!(false, "bounded instance typed unbounded");
            }
        }
    }

    #[test]
    fn carried_factors_reproduce_stripped_warm_chains_bit_for_bit(
        m in 3usize..=10,
        extra in 2usize..=10,
        entries in prop::collection::vec(-2i8..=2, 16..64),
        x0 in prop::collection::vec(0u8..=3, 20),
        costs in prop::collection::vec(0i8..=7, 8..16),
    ) {
        let inst = sparse_instance(m, extra, &entries, &x0, &costs);
        let base = to_lp(&inst);
        let start = solve(&base).expect("finite data").optimal().expect("feasible, bounded");
        // The carried chain factors its start basis once, as the lattice
        // fill does; the stripped chain factorizes every start itself.
        let mut carried = start.basis.clone();
        carried.factorize_for(&base);
        let mut stripped = start.basis;
        for k in 1..=4 {
            let lp = base.with_rhs(perturbed_rhs(&inst, &x0, k));
            let offered = carried.is_factored_for(&lp);
            let bare = Basis::from_columns(stripped.columns().to_vec());
            let with = warm_optimum(&lp, &carried);
            let without = warm_optimum(&lp, &bare);
            prop_assert_eq!(with.objective.to_bits(), without.objective.to_bits(), "link {}", k);
            prop_assert!(same_bits(&with.x, &without.x), "link {}: x", k);
            prop_assert!(same_bits(&with.duals, &without.duals), "link {}: duals", k);
            prop_assert_eq!(with.basis.columns(), without.basis.columns(), "link {}", k);
            prop_assert_eq!(with.stats.iterations, without.stats.iterations, "link {}", k);
            prop_assert_eq!(with.stats.cold_fallback, without.stats.cold_fallback, "link {}", k);
            prop_assert_eq!(with.stats.reused_factors, offered && !with.stats.cold_fallback, "link {}", k);
            prop_assert!(!without.stats.reused_factors, "link {}", k);
            carried = with.basis;
            stripped = without.basis;
        }
    }

    #[test]
    fn degenerate_all_tied_ratio_instances_terminate_typed(
        m in 1usize..=4,
        extra in 0usize..=4,
        entries in prop::collection::vec(-3i8..=3, 8..32),
        costs in prop::collection::vec(-5i8..=5, 4..8),
    ) {
        // b = 0: the origin is feasible and every ratio test ties at zero
        // — the worst case for cycling.
        let n = (m + extra).min(6);
        let inst = build_instance(m, n, &entries, &[0], &costs);
        let lp = to_lp(&inst);
        match solve(&lp).expect("degenerate instances must terminate") {
            LpOutcome::Optimal(sol) => {
                prop_assert!(sol.objective.is_finite());
                // The origin costs 0, so the minimum is ≤ 0.
                prop_assert!(sol.objective <= 1e-9);
            }
            LpOutcome::Unbounded => {}
            LpOutcome::Infeasible => prop_assert!(false, "origin is feasible"),
        }
    }

    #[test]
    fn conflicting_duplicate_rows_are_typed_infeasible(
        m in 1usize..=3,
        extra in 1usize..=3,
        entries in prop::collection::vec(-3i8..=3, 8..32),
        x0 in prop::collection::vec(0u8..=4, 6),
        costs in prop::collection::vec(-5i8..=5, 4..8),
    ) {
        // Start from a feasible instance, then append a copy of row 0
        // with rhs shifted by 1: x must satisfy both a·x = b₀ and
        // a·x = b₀ + 1 — infeasible by construction.
        let n = (m + extra).min(6);
        let inst = build_instance(m, n, &entries, &x0, &costs);
        let mut dense = inst.dense.clone();
        for col in dense.iter_mut() {
            col.push(col[0]);
        }
        let mut b = inst.b.clone();
        b.push(b[0] + 1.0);
        let conflicted = SmallInstance { m: m + 1, n, dense, b, c: inst.c.clone() };
        let lp = to_lp(&conflicted);
        match solve(&lp).expect("infeasible instances must terminate") {
            LpOutcome::Infeasible => {}
            other => prop_assert!(false, "expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn free_negative_cost_column_is_typed_unbounded(
        m in 1usize..=4,
        extra in 0usize..=3,
        entries in prop::collection::vec(-3i8..=3, 8..32),
        x0 in prop::collection::vec(0u8..=4, 6),
        costs in prop::collection::vec(-5i8..=5, 4..8),
    ) {
        // Append a column that appears in no constraint with cost −1:
        // grows without bound, so the LP is unbounded by construction.
        let n = (m + extra).min(6);
        let inst = build_instance(m, n, &entries, &x0, &costs);
        let mut dense = inst.dense.clone();
        dense.push(vec![0.0; m]);
        let mut c = inst.c.clone();
        c.push(-1.0);
        let unbounded = SmallInstance { m, n: n + 1, dense, b: inst.b.clone(), c };
        let lp = to_lp(&unbounded);
        match solve(&lp).expect("unbounded instances must terminate") {
            LpOutcome::Unbounded => {}
            other => prop_assert!(false, "expected Unbounded, got {other:?}"),
        }
    }
}
