//! Executable checks of the four Shapley fairness axioms the paper relies
//! on (Section 4): null player, symmetry, efficiency, and linearity.
//!
//! These are used by the property-test suite to validate every solver, and
//! exported so downstream attribution methods can be audited the same way.

use crate::coalition::Coalition;
use crate::game::Game;

/// Outcome of an axiom check.
#[derive(Debug, Clone, PartialEq)]
pub enum AxiomCheck {
    /// The axiom holds within tolerance.
    Holds,
    /// The axiom is violated; carries a human-readable explanation.
    Violated(String),
}

impl AxiomCheck {
    /// Whether the axiom holds.
    pub fn holds(&self) -> bool {
        matches!(self, AxiomCheck::Holds)
    }
}

/// **Efficiency**: the attribution fully distributes the grand-coalition
/// cost — carbon is neither over- nor under-attributed.
pub fn check_efficiency<G: Game>(game: &G, phi: &[f64], tol: f64) -> AxiomCheck {
    let grand = game.value(&Coalition::grand(game.player_count()));
    let total: f64 = phi.iter().sum();
    if (total - grand).abs() <= tol * grand.abs().max(1.0) {
        AxiomCheck::Holds
    } else {
        AxiomCheck::Violated(format!("Σφ = {total} but v(N) = {grand}"))
    }
}

/// **Null player**: a player whose marginal contribution is zero to every
/// coalition must be attributed exactly zero.
///
/// The check verifies the premise by enumeration (only feasible for small
/// games) and then tests the attribution.
pub fn check_null_player<G: Game>(game: &G, phi: &[f64], player: usize, tol: f64) -> AxiomCheck {
    let n = game.player_count();
    assert!(
        n <= 20,
        "null-player verification enumerates 2^n coalitions"
    );
    let bit = 1u64 << player;
    for mask in 0u64..1 << n {
        if mask & bit != 0 {
            continue;
        }
        let without = game.value(&Coalition::from_mask(n, mask));
        let with = game.value(&Coalition::from_mask(n, mask | bit));
        if (with - without).abs() > tol {
            return AxiomCheck::Violated(format!(
                "player {player} is not null: marginal {} on {mask:b}",
                with - without
            ));
        }
    }
    if phi[player].abs() <= tol {
        AxiomCheck::Holds
    } else {
        AxiomCheck::Violated(format!(
            "null player {player} was attributed {}",
            phi[player]
        ))
    }
}

/// **Symmetry**: two players that contribute identically to every
/// coalition must receive identical attributions.
///
/// Verifies the equivalence by enumeration (small games only), then tests
/// the attribution.
pub fn check_symmetry<G: Game>(game: &G, phi: &[f64], a: usize, b: usize, tol: f64) -> AxiomCheck {
    let n = game.player_count();
    assert!(n <= 20, "symmetry verification enumerates 2^n coalitions");
    let (bit_a, bit_b) = (1u64 << a, 1u64 << b);
    for mask in 0u64..1 << n {
        if mask & (bit_a | bit_b) != 0 {
            continue;
        }
        let with_a = game.value(&Coalition::from_mask(n, mask | bit_a));
        let with_b = game.value(&Coalition::from_mask(n, mask | bit_b));
        if (with_a - with_b).abs() > tol {
            return AxiomCheck::Violated(format!(
                "players {a} and {b} are not equivalent on {mask:b}"
            ));
        }
    }
    if (phi[a] - phi[b]).abs() <= tol {
        AxiomCheck::Holds
    } else {
        AxiomCheck::Violated(format!(
            "equivalent players received {} and {}",
            phi[a], phi[b]
        ))
    }
}

/// **Linearity**: the attribution of a sum game is the sum of the
/// attributions — the property that lets the paper decompose data-center
/// attribution into rack- or cluster-scale subproblems.
pub fn check_linearity(
    phi_sum_game: &[f64],
    phi_left: &[f64],
    phi_right: &[f64],
    tol: f64,
) -> AxiomCheck {
    for (i, ((s, l), r)) in phi_sum_game.iter().zip(phi_left).zip(phi_right).enumerate() {
        if (s - (l + r)).abs() > tol {
            return AxiomCheck::Violated(format!(
                "player {i}: φ(v+w) = {s} but φ(v)+φ(w) = {}",
                l + r
            ));
        }
    }
    AxiomCheck::Holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::PeakDemandGame;

    #[test]
    fn exact_solver_satisfies_all_axioms() {
        let g = PeakDemandGame::new(vec![
            vec![4.0, 1.0],
            vec![1.0, 4.0],
            vec![0.0, 0.0], // null player
            vec![1.0, 4.0], // symmetric to player 1
        ]);
        let phi = exact_shapley(&g).unwrap();
        assert!(check_efficiency(&g, &phi, 1e-9).holds());
        assert!(check_null_player(&g, &phi, 2, 1e-9).holds());
        assert!(check_symmetry(&g, &phi, 1, 3, 1e-9).holds());
    }

    #[test]
    fn linearity_of_the_shapley_operator() {
        let v = PeakDemandGame::new(vec![vec![4.0, 1.0], vec![1.0, 4.0], vec![2.0, 3.0]]);
        let w = PeakDemandGame::new(vec![vec![1.0, 2.0], vec![5.0, 0.0], vec![0.5, 0.5]]);
        // Sum game evaluated via a wrapper.
        struct Sum(PeakDemandGame, PeakDemandGame);
        impl Game for Sum {
            fn player_count(&self) -> usize {
                self.0.player_count()
            }
            fn value(&self, c: &Coalition) -> f64 {
                self.0.value(c) + self.1.value(c)
            }
        }
        let sum = Sum(v.clone(), w.clone());
        let phi_sum = exact_shapley(&sum).unwrap();
        let phi_v = exact_shapley(&v).unwrap();
        let phi_w = exact_shapley(&w).unwrap();
        assert!(check_linearity(&phi_sum, &phi_v, &phi_w, 1e-9).holds());
    }

    #[test]
    fn violations_are_reported() {
        let g = PeakDemandGame::new(vec![vec![4.0], vec![2.0]]);
        let bad = vec![1.0, 1.0];
        assert!(!check_efficiency(&g, &bad, 1e-9).holds());
        let msg = match check_efficiency(&g, &bad, 1e-9) {
            AxiomCheck::Violated(m) => m,
            AxiomCheck::Holds => unreachable!(),
        };
        assert!(msg.contains("v(N)"));
    }

    #[test]
    fn non_null_player_premise_is_detected() {
        let g = PeakDemandGame::new(vec![vec![4.0], vec![2.0]]);
        let phi = exact_shapley(&g).unwrap();
        assert!(!check_null_player(&g, &phi, 1, 1e-9).holds());
    }
}
