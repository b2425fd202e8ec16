//! Sparse LU factorization with Markowitz pivoting.
//!
//! The revised simplex keeps the basis matrix `B` factored as `B = P⁻¹ L
//! U Q⁻¹` (row and column permutations chosen during elimination) and
//! reuses the factors for every FTRAN (`B x = v`) and BTRAN (`Bᵀ y = c`)
//! of an iteration. Pivots are chosen by the **Markowitz criterion** —
//! minimize `(rᵢ − 1)(cⱼ − 1)`, the classic fill-in estimate, over
//! candidates that pass a threshold-stability guard `|aᵢⱼ| ≥ τ ·
//! max|column|` — with ties broken toward the lowest column then lowest
//! row, so the factorization is a pure function of the input matrix.
//!
//! Basis *changes* do not refactorize: [`LuFactors::append_eta`] records
//! a product-form eta vector per pivot, and the owner refactorizes when
//! the eta file reaches [`REFACTOR_ETAS`] or a pivot magnitude falls
//! below [`ETA_STABILITY`] (the "refactorize-on-threshold" scheme; a
//! Forrest–Tomlin update would amortize better on huge bases but has no
//! payoff at coalition-LP sizes and costs considerably more code to keep
//! bit-deterministic).
//!
//! On totally unimodular bases (network matrices — the coalition-game
//! case) every pivot is ±1 and elimination keeps all entries in
//! {−1, 0, +1}, so factorization, solves, and eta updates are all exact
//! in `f64`; see the crate docs for why that makes warm and cold solves
//! bit-identical.
//!
//! The L and U factors are immutable once built and sit behind an
//! [`Arc`]; only the eta file belongs to one owner. Cloning factors
//! therefore costs a reference count plus a copy of the etas — nothing
//! at all for *fresh* factors ([`LuFactors::eta_count`] of 0), which are
//! exactly what [`LuFactors::factorize`] of the same columns builds. The
//! simplex hands fresh factors on with an optimal basis, so a warm solve
//! from that basis starts without refactorizing it.

use std::sync::Arc;

/// Eta vectors accumulated before the owner should refactorize.
pub const REFACTOR_ETAS: usize = 32;

/// Relative pivot magnitude below which an eta update is refused and a
/// refactorization requested instead.
pub const ETA_STABILITY: f64 = 1e-8;

/// Markowitz threshold-stability parameter: a pivot candidate must have
/// magnitude at least `τ` times the largest magnitude in its column.
const MARKOWITZ_TAU: f64 = 0.1;

/// Entries with magnitude at or below this are treated as structural
/// zeros during elimination (guards against round-off fill).
const DROP_TOL: f64 = 0.0;

/// Factorization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// No acceptable pivot remained: the matrix is singular (or too
    /// ill-conditioned to factor at the stability threshold).
    Singular {
        /// Elimination step at which no pivot was found.
        step: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { step } => write!(f, "basis is singular at elimination step {step}"),
        }
    }
}

impl std::error::Error for LuError {}

/// One product-form update: the basis column at slot `slot` was replaced
/// by a column whose FTRAN image was `w` (split into the pivot element
/// and the off-pivot sparse part).
#[derive(Debug, Clone)]
struct Eta {
    slot: usize,
    pivot: f64,
    /// `(slot, value)` pairs of the off-pivot entries, ascending slot.
    entries: Vec<(usize, f64)>,
}

/// The L and U factors of one elimination, shared by every clone.
#[derive(Debug)]
struct Elimination {
    /// `pivot_row[k]`: original row eliminated at step `k`.
    pivot_row: Vec<usize>,
    /// `col_pos[j]`: elimination step at which original column `j` left.
    col_pos: Vec<usize>,
    /// `col_of_pos[k]`: original column eliminated at step `k`.
    col_of_pos: Vec<usize>,
    /// Unit-lower-triangular multipliers per step: `(original row, l)`.
    lower: Vec<Vec<(usize, f64)>>,
    /// Off-diagonal upper entries per step: `(elimination position, u)`.
    upper: Vec<Vec<(usize, f64)>>,
    /// Diagonal pivots per step.
    pivots: Vec<f64>,
}

/// LU factors of a square sparse matrix plus the eta file of subsequent
/// rank-one basis replacements.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    base: Arc<Elimination>,
    etas: Vec<Eta>,
}

impl LuFactors {
    /// Factorizes the `m × m` matrix given as `columns[j]` = sparse
    /// column `j` (`(row, value)` pairs, any order, no duplicates).
    ///
    /// # Errors
    ///
    /// [`LuError::Singular`] when elimination runs out of acceptable
    /// pivots.
    ///
    /// # Panics
    ///
    /// Panics if a column entry indexes a row `≥ m` (debug builds).
    pub fn factorize(m: usize, columns: &[Vec<(usize, f64)>]) -> Result<Self, LuError> {
        assert_eq!(columns.len(), m, "need exactly m columns");
        // Working copy: cols[j] holds the still-active entries of column j.
        let mut cols: Vec<Vec<(usize, f64)>> = columns.to_vec();
        for col in &mut cols {
            col.sort_by_key(|&(r, _)| r);
            debug_assert!(col.iter().all(|&(r, _)| r < m), "row index out of bounds");
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut row_count = vec![0usize; m];
        for col in &cols {
            for &(r, _) in col {
                row_count[r] += 1;
            }
        }

        let mut pivot_row = Vec::with_capacity(m);
        let mut col_pos = vec![usize::MAX; m];
        let mut col_of_pos = Vec::with_capacity(m);
        let mut lower = Vec::with_capacity(m);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut pivots = Vec::with_capacity(m);
        // Sparse accumulator for column updates.
        let mut spa = vec![0.0f64; m];

        for step in 0..m {
            // --- Markowitz pivot selection -------------------------------
            let mut best: Option<(usize, usize, usize, f64)> = None; // (cost, col, row, val)
            for (j, col) in cols.iter().enumerate() {
                if !col_active[j] {
                    continue;
                }
                let col_max = col
                    .iter()
                    .filter(|&&(r, _)| row_active[r])
                    .map(|&(_, v)| v.abs())
                    .fold(0.0f64, f64::max);
                if col_max <= DROP_TOL {
                    continue;
                }
                let live = col.iter().filter(|&&(r, _)| row_active[r]).count();
                for &(r, v) in col.iter().filter(|&&(r, _)| row_active[r]) {
                    if v.abs() < MARKOWITZ_TAU * col_max || v == 0.0 {
                        continue;
                    }
                    let cost = (row_count[r] - 1) * (live - 1);
                    let candidate = (cost, j, r, v);
                    // Strictly-less on (cost, col, row): lowest indices win
                    // ties, making the choice a pure function of the matrix.
                    if best.is_none_or(|b| (cost, j, r) < (b.0, b.1, b.2)) {
                        best = Some(candidate);
                    }
                }
            }
            let Some((_, pj, pr, pv)) = best else {
                return Err(LuError::Singular { step });
            };

            // --- Record L column and U row -------------------------------
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &(r, v) in cols[pj].iter().filter(|&&(r, _)| row_active[r]) {
                if r != pr && v != 0.0 {
                    lcol.push((r, v / pv));
                }
            }
            pivot_row.push(pr);
            col_pos[pj] = step;
            col_of_pos.push(pj);
            pivots.push(pv);

            row_active[pr] = false;
            col_active[pj] = false;
            for &(r, v) in &cols[pj] {
                if v != 0.0 && (row_active[r] || r == pr) {
                    // Entry leaves the active submatrix with its column.
                    row_count[r] = row_count[r].saturating_sub(1);
                }
            }
            // `row_count[pr]` entries in other columns become U entries.

            // --- Update the remaining active columns ---------------------
            let mut urow: Vec<(usize, f64)> = Vec::new();
            for j in 0..m {
                if !col_active[j] {
                    continue;
                }
                let Some(&(_, uval)) = cols[j].iter().find(|&&(r, _)| r == pr) else {
                    continue;
                };
                if uval == 0.0 {
                    continue;
                }
                urow.push((j, uval)); // position resolved after the loop
                                      // col_j ← col_j − (uval / pv) · pivot column (active rows).
                let scale = uval / pv;
                for &(r, _) in &cols[j] {
                    spa[r] = 0.0;
                }
                for &(r, v) in cols[j].iter().filter(|&&(r, _)| row_active[r]) {
                    spa[r] = v;
                }
                let mut pattern: Vec<usize> = cols[j]
                    .iter()
                    .filter(|&&(r, _)| row_active[r])
                    .map(|&(r, _)| r)
                    .collect();
                for &(r, l) in &lcol {
                    if spa[r] == 0.0 && !pattern.contains(&r) {
                        pattern.push(r);
                        row_count[r] += 1;
                    }
                    spa[r] -= scale * (l * pv);
                }
                pattern.sort_unstable();
                let rebuilt: Vec<(usize, f64)> = pattern.iter().map(|&r| (r, spa[r])).collect();
                for &(r, _) in &rebuilt {
                    spa[r] = 0.0;
                }
                // Entries cancelling to exact zero stay (pattern is part of
                // the deterministic contract); the pr entry moved to U.
                cols[j] = rebuilt;
                row_count[pr] = row_count[pr].saturating_sub(1);
            }
            lower.push(lcol);
            upper.push(urow);
        }

        // Resolve U column ids to elimination positions now that every
        // column has one.
        for row in &mut upper {
            for entry in row.iter_mut() {
                entry.0 = col_pos[entry.0];
            }
            row.sort_unstable_by_key(|&(p, _)| p);
        }

        Ok(Self {
            m,
            base: Arc::new(Elimination {
                pivot_row,
                col_pos,
                col_of_pos,
                lower,
                upper,
                pivots,
            }),
            etas: Vec::new(),
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Number of eta updates applied since factorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Whether the owner should refactorize instead of appending more
    /// etas (the eta file reached [`REFACTOR_ETAS`]).
    pub fn wants_refactor(&self) -> bool {
        self.etas.len() >= REFACTOR_ETAS
    }

    /// Records the replacement of the basis column at `slot` by a column
    /// whose FTRAN image is `w` (dense, length `m`). Returns `false` —
    /// and records nothing — when `|w[slot]|` is below [`ETA_STABILITY`]
    /// relative to the largest entry of `w`, in which case the owner must
    /// refactorize the updated basis from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != m`.
    pub fn append_eta(&mut self, slot: usize, w: &[f64]) -> bool {
        assert_eq!(w.len(), self.m, "eta vector length mismatch");
        let scale = w.iter().fold(0.0f64, |a, &v| a.max(v.abs())).max(1.0);
        if w[slot].abs() < ETA_STABILITY * scale {
            return false;
        }
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != slot && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            slot,
            pivot: w[slot],
            entries,
        });
        true
    }

    /// FTRAN: solves `B x = v` in place, where `B` is the factored basis
    /// including all appended etas. `v` is indexed by original row on
    /// input and by basis slot on output.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != m`.
    pub fn ftran(&self, v: &mut [f64]) {
        assert_eq!(v.len(), self.m, "ftran vector length mismatch");
        self.solve_base(v);
        for eta in &self.etas {
            let t = v[eta.slot] / eta.pivot;
            for &(i, wv) in &eta.entries {
                v[i] -= wv * t;
            }
            v[eta.slot] = t;
        }
    }

    /// BTRAN: solves `Bᵀ y = c` in place, where `B` is the factored basis
    /// including all appended etas. `c` is indexed by basis slot on input
    /// and `y` by original row on output.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != m`.
    pub fn btran(&self, c: &mut [f64]) {
        assert_eq!(c.len(), self.m, "btran vector length mismatch");
        for eta in self.etas.iter().rev() {
            let mut s = 0.0;
            for &(i, wv) in &eta.entries {
                s += wv * c[i];
            }
            c[eta.slot] = (c[eta.slot] - s) / eta.pivot;
        }
        self.solve_base_transposed(c);
    }

    /// Solves `B₀ x = v` against the bare LU factors (no etas).
    fn solve_base(&self, v: &mut [f64]) {
        let f = &*self.base;
        // Forward: y = L⁻¹ P v, stored per elimination step.
        let mut y = vec![0.0f64; self.m];
        for k in 0..self.m {
            let t = v[f.pivot_row[k]];
            y[k] = t;
            if t != 0.0 {
                for &(r, l) in &f.lower[k] {
                    v[r] -= l * t;
                }
            }
        }
        // Backward: U sol = y in elimination positions.
        let mut sol = y;
        for k in (0..self.m).rev() {
            let mut acc = sol[k];
            for &(p, u) in &f.upper[k] {
                acc -= u * sol[p];
            }
            sol[k] = acc / f.pivots[k];
        }
        // Un-permute columns: slot j gets the value of its position.
        for j in 0..self.m {
            v[j] = sol[f.col_pos[j]];
        }
    }

    /// Solves `B₀ᵀ y = c` against the bare LU factors (no etas).
    fn solve_base_transposed(&self, c: &mut [f64]) {
        let f = &*self.base;
        // Permute into elimination positions: v1[k] = c[col at k].
        let mut w = vec![0.0f64; self.m];
        for k in 0..self.m {
            w[k] = c[f.col_of_pos[k]];
        }
        // Uᵀ z = v1 (forward in position order, scattering off-diagonals).
        for k in 0..self.m {
            let z = w[k] / f.pivots[k];
            w[k] = z;
            if z != 0.0 {
                for &(p, u) in &f.upper[k] {
                    w[p] -= u * z;
                }
            }
        }
        // Pᵀ L⁻ᵀ: adjoint of the forward-replay program.
        for item in c.iter_mut() {
            *item = 0.0;
        }
        for k in (0..self.m).rev() {
            let mut t = w[k];
            for &(r, l) in &f.lower[k] {
                t -= l * c[r];
            }
            c[f.pivot_row[k]] += t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        let m = a.len();
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, x)| r * x).sum())
            .collect()
    }

    #[test]
    fn ftran_solves_against_dense_reference() {
        let a: [&[f64]; 3] = [&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 1.0]];
        let lu = LuFactors::factorize(3, &dense_cols(&a)).unwrap();
        let x_true = [1.5, -2.0, 4.0];
        let mut v = mat_vec(&a, &x_true);
        lu.ftran(&mut v);
        for (got, want) in v.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn btran_solves_the_transpose() {
        let a: [&[f64]; 3] = [&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 1.0]];
        let lu = LuFactors::factorize(3, &dense_cols(&a)).unwrap();
        let y_true = [0.5, 1.0, -3.0];
        // c = Aᵀ y.
        let mut c = [0.0f64; 3];
        for (i, row) in a.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                c[j] += v * y_true[i];
            }
        }
        let mut v = c;
        lu.btran(&mut v);
        for (got, want) in v.iter().zip(&y_true) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn eta_updates_match_refactorization() {
        let a: [&[f64]; 3] = [&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]];
        let mut lu = LuFactors::factorize(3, &dense_cols(&a)).unwrap();
        // Replace column (slot) 1 with [1, 2, 0].
        let newcol = [1.0, 2.0, 0.0];
        let mut w = newcol;
        lu.ftran(&mut w);
        assert!(lu.append_eta(1, &w));
        // Updated matrix, refactorized, must agree with the eta path.
        let b: [&[f64]; 3] = [&[1.0, 1.0, 2.0], &[0.0, 2.0, 1.0], &[1.0, 0.0, 0.0]];
        let fresh = LuFactors::factorize(3, &dense_cols(&b)).unwrap();
        let rhs = [3.0, -1.0, 2.0];
        let mut via_eta = rhs;
        lu.ftran(&mut via_eta);
        let mut via_fresh = rhs;
        fresh.ftran(&mut via_fresh);
        for (e, f) in via_eta.iter().zip(&via_fresh) {
            assert!((e - f).abs() < 1e-12, "eta {e} vs fresh {f}");
        }
        // And the transpose path.
        let c = [1.0, 4.0, -2.0];
        let mut te = c;
        lu.btran(&mut te);
        let mut tf = c;
        fresh.btran(&mut tf);
        for (e, f) in te.iter().zip(&tf) {
            assert!((e - f).abs() < 1e-12, "eta {e} vs fresh {f}");
        }
    }

    #[test]
    fn clones_share_the_factors_but_not_the_etas() {
        let a: [&[f64]; 3] = [&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]];
        let lu = LuFactors::factorize(3, &dense_cols(&a)).unwrap();
        let mut clone = lu.clone();
        assert!(Arc::ptr_eq(&lu.base, &clone.base));
        let mut w = [1.0, 2.0, 0.0];
        clone.ftran(&mut w);
        assert!(clone.append_eta(1, &w));
        assert_eq!((lu.eta_count(), clone.eta_count()), (0, 1));
        let rhs = [3.0, -1.0, 2.0];
        let (mut shared, mut fresh) = (rhs, rhs);
        lu.ftran(&mut shared);
        LuFactors::factorize(3, &dense_cols(&a))
            .unwrap()
            .ftran(&mut fresh);
        assert_eq!(shared, fresh);
    }

    #[test]
    fn singular_matrix_is_typed_not_a_panic() {
        let a: [&[f64]; 2] = [&[1.0, 2.0], &[2.0, 4.0]];
        let err = LuFactors::factorize(2, &dense_cols(&a)).unwrap_err();
        assert_eq!(err, LuError::Singular { step: 1 });
    }

    #[test]
    fn tiny_eta_pivot_is_refused() {
        let a: [&[f64]; 2] = [&[1.0, 0.0], &[0.0, 1.0]];
        let mut lu = LuFactors::factorize(2, &dense_cols(&a)).unwrap();
        let w = [1.0, 1e-12];
        assert!(!lu.append_eta(1, &w));
        assert_eq!(lu.eta_count(), 0);
    }
}
