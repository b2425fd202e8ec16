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

use fairco2_solver::{certify, solve, Csc, LinearProgram, LpOutcome};
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
        let n = m + extra;
        // Sparse column pattern: each column touches ≤ 3 rows.
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
        let inst = SmallInstance { m, n, dense, b, c };
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
