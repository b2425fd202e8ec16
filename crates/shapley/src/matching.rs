//! Exact polynomial-time Shapley values for *pairwise matching games* —
//! the structure of the paper's colocation scenarios.
//!
//! A scenario is a set of workloads, each occupying half a node; the
//! scheduler pairs them onto nodes. The paper's ground truth "permutes
//! across all possible colocations", i.e. the characteristic function of
//! a coalition `S` is the **expected** total carbon of running `S` under a
//! uniformly random perfect matching of its members (with one member left
//! isolated when `|S|` is odd).
//!
//! Writing `A_i` for workload `i`'s cost when isolated on a node and
//! `D_{ij}` for the *total* cost of a node colocating `i` and `j`, the
//! matching probabilities give the closed form
//!
//! ```text
//! v(S) = 1/(m−1) · W(S)                     m = |S| even
//! v(S) = 1/m · (W(S) + A(S))                m odd
//! ```
//!
//! with `W(S) = Σ_{i<j∈S} D_{ij}` and `A(S) = Σ_{i∈S} A_i` (in a uniform
//! random matching each pair `{i,j}` co-occurs with probability `1/(m−1)`
//! for even `m` and `1/m` for odd `m`, and each player is the isolated
//! one with probability `1/m`).
//!
//! Because `v` is a linear function of subset sums, the expectation of a
//! player's marginal contribution over uniformly random coalitions of each
//! size has a closed form, and the **exact** Shapley value is computable
//! in `O(n²)` — no enumeration, no sampling. This is what lets the
//! reproduction use true ground truth for 100-workload colocation sets
//! where `2¹⁰⁰` enumeration is unthinkable.

use crate::coalition::Coalition;
use crate::game::Game;

/// A pairwise matching game: per-player isolated costs plus a symmetric
/// pairwise cost matrix.
///
/// # Example
///
/// ```
/// use fairco2_shapley::MatchingGame;
///
/// // Two tenants: alone they cost 3 and 2; sharing a node costs 4.
/// let game = MatchingGame::new(
///     vec![3.0, 2.0],
///     vec![vec![0.0, 4.0], vec![4.0, 0.0]],
/// );
/// let phi = game.shapley();
/// // φ₀ = ½(A₀ + D − A₁) = 2.5, φ₁ = 1.5 — and they sum to v({0,1}) = 4.
/// assert!((phi[0] - 2.5).abs() < 1e-12);
/// assert!((phi[0] + phi[1] - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MatchingGame {
    isolated: Vec<f64>,
    pair: Vec<Vec<f64>>,
}

impl MatchingGame {
    /// Builds the game from isolated costs `A_i` and the symmetric matrix
    /// of pair costs `D_{ij}` (total cost of a node running both `i` and
    /// `j`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square of matching dimension, not
    /// symmetric, or has a non-zero diagonal.
    pub fn new(isolated: Vec<f64>, pair: Vec<Vec<f64>>) -> Self {
        let n = isolated.len();
        assert!(n > 0, "game needs at least one player");
        assert_eq!(pair.len(), n, "pair matrix must be n×n");
        for (i, row) in pair.iter().enumerate() {
            assert_eq!(row.len(), n, "pair matrix must be n×n");
            assert_eq!(row[i], 0.0, "pair matrix diagonal must be zero");
            for (j, &v) in row.iter().enumerate() {
                assert!(
                    (v - pair[j][i]).abs() < 1e-9,
                    "pair matrix must be symmetric at ({i}, {j})"
                );
            }
        }
        Self { isolated, pair }
    }

    /// Isolated cost of player `i`.
    pub fn isolated_cost(&self, i: usize) -> f64 {
        self.isolated[i]
    }

    /// Pair cost of players `i` and `j`.
    pub fn pair_cost(&self, i: usize, j: usize) -> f64 {
        self.pair[i][j]
    }

    /// Matching-probability coefficients `(p_m, q_m)` such that
    /// `v = p·W + q·A` for a coalition of size `m`.
    fn coefficients(m: usize) -> (f64, f64) {
        match m {
            0 => (0.0, 0.0),
            m if m % 2 == 0 => (1.0 / (m as f64 - 1.0), 0.0),
            m => (1.0 / m as f64, 1.0 / m as f64),
        }
    }

    /// Exact Shapley values in `O(n²)`.
    ///
    /// Derivation: for player `i` and coalition size `s`, the expectation
    /// of `v(S∪{i}) − v(S)` over uniformly random `S ⊆ N∖{i}` of size `s`
    /// needs only `E[W(S)]`, `E[Σ_{j∈S} D_{ij}]`, and `E[A(S)]`, each a
    /// hypergeometric scaling of full-population sums.
    pub fn shapley(&self) -> Vec<f64> {
        let n = self.isolated.len();
        let mean_pair: Vec<f64> = (0..n)
            .map(|i| {
                if n == 1 {
                    0.0
                } else {
                    self.pair[i].iter().sum::<f64>() / (n as f64 - 1.0)
                }
            })
            .collect();
        shapley_from_moments(&self.isolated, &mean_pair)
    }
}

/// Exact matching-game Shapley values from *first moments only*: each
/// player's isolated cost `A_i` and its mean pair cost
/// `D̄_i = E_j[D_{ij}]` over the other players.
///
/// The exact `O(n²)` solver above only ever touches the pair matrix
/// through row sums, so the Shapley value is a function of these moments
/// — which is precisely what makes Fair-CO₂'s interference adjustment
/// possible: the moments can be *estimated from historical colocation
/// telemetry* and plugged in here, yielding the game's exact value at the
/// estimated moments in `O(n)` per player.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn shapley_from_moments(isolated: &[f64], mean_pair_cost: &[f64]) -> Vec<f64> {
    let n = isolated.len();
    assert_eq!(n, mean_pair_cost.len(), "moment slices must align");
    assert!(n > 0, "at least one player is required");
    if n == 1 {
        return vec![isolated[0]];
    }
    let row_sum: Vec<f64> = mean_pair_cost
        .iter()
        .map(|d| d * (n as f64 - 1.0))
        .collect();
    let w_total: f64 = row_sum.iter().sum::<f64>() / 2.0;
    let a_total: f64 = isolated.iter().sum();

    let mut phi = vec![0.0f64; n];
    for (i, phi_i) in phi.iter_mut().enumerate() {
        let d_i = row_sum[i];
        let w_rest = w_total - d_i; // W(N∖{i})
        let a_rest = a_total - isolated[i];
        let mut acc = 0.0;
        for s in 0..n {
            let sf = s as f64;
            // E[W(S)] over s-subsets of the n−1 other players.
            let e_w = if s >= 2 {
                w_rest * sf * (sf - 1.0) / ((n as f64 - 1.0) * (n as f64 - 2.0))
            } else {
                0.0
            };
            let e_r = d_i * sf / (n as f64 - 1.0);
            let e_a = a_rest * sf / (n as f64 - 1.0);
            let (p_new, q_new) = MatchingGame::coefficients(s + 1);
            let (p_old, q_old) = MatchingGame::coefficients(s);
            acc += p_new * (e_w + e_r) + q_new * (e_a + isolated[i]) - p_old * e_w - q_old * e_a;
        }
        *phi_i = acc / n as f64;
    }
    phi
}

impl Game for MatchingGame {
    fn player_count(&self) -> usize {
        self.isolated.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let members: Vec<usize> = coalition.iter().collect();
        let m = members.len();
        let (p, q) = Self::coefficients(m);
        let mut w = 0.0;
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                w += self.pair[i][j];
            }
        }
        let a_sum: f64 = members.iter().map(|&i| self.isolated[i]).sum();
        p * w + q * a_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::Replay;

    fn demo(n: usize, seed: u64) -> MatchingGame {
        // Small deterministic pseudo-random instance.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let isolated: Vec<f64> = (0..n).map(|_| 1.0 + next()).collect();
        let mut pair = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                // Colocation is cheaper than two isolated nodes but dearer
                // than one: realistic amortization + interference.
                let cost = 0.6 * (isolated[i] + isolated[j]) * (1.0 + 0.4 * next());
                pair[i][j] = cost;
                pair[j][i] = cost;
            }
        }
        MatchingGame::new(isolated, pair)
    }

    #[test]
    fn two_players_match_hand_computation() {
        let g = MatchingGame::new(vec![3.0, 2.0], vec![vec![0.0, 4.0], vec![4.0, 0.0]]);
        let phi = g.shapley();
        // φ_0 = ½(A_0 + D − A_1) = ½(3 + 4 − 2) = 2.5; φ_1 = 1.5.
        assert!((phi[0] - 2.5).abs() < 1e-12);
        assert!((phi[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_enumeration() {
        for n in 1..=9 {
            let g = demo(n, n as u64);
            let analytic = g.shapley();
            let enumerated = exact_shapley(&g).unwrap();
            for (a, e) in analytic.iter().zip(&enumerated) {
                assert!((a - e).abs() < 1e-9, "n={n}: analytic {a} vs exact {e}");
            }
        }
    }

    #[test]
    fn exact_solver_matches_per_mask_replay() {
        let g = demo(7, 3);
        let fast = exact_shapley(&g).unwrap();
        let plain = exact_shapley(&Replay(g.clone())).unwrap();
        let scale = g.value(&Coalition::grand(7)).abs();
        for (a, b) in fast.iter().zip(&plain) {
            assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn efficiency_holds_at_scale() {
        let g = demo(60, 9);
        let phi = g.shapley();
        let grand = g.value(&Coalition::grand(60));
        let total: f64 = phi.iter().sum();
        assert!(
            (total - grand).abs() < 1e-6 * grand.abs().max(1.0),
            "Σφ={total} v(N)={grand}"
        );
    }

    #[test]
    fn symmetric_players_get_equal_shares() {
        // Three identical players.
        let iso = vec![2.0; 3];
        let pair = vec![
            vec![0.0, 3.0, 3.0],
            vec![3.0, 0.0, 3.0],
            vec![3.0, 3.0, 0.0],
        ];
        let phi = MatchingGame::new(iso, pair).shapley();
        assert!((phi[0] - phi[1]).abs() < 1e-12);
        assert!((phi[1] - phi[2]).abs() < 1e-12);
    }

    #[test]
    fn singleton_game_is_its_isolated_cost() {
        let g = MatchingGame::new(vec![5.5], vec![vec![0.0]]);
        assert_eq!(g.shapley(), vec![5.5]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_is_rejected() {
        let _ = MatchingGame::new(vec![1.0, 1.0], vec![vec![0.0, 2.0], vec![3.0, 0.0]]);
    }
}
