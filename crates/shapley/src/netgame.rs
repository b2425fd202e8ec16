//! LP-valued coalition games: network carbon attribution.
//!
//! Players are tenants injecting traffic at datacenter nodes; the
//! characteristic function is the objective of a **min-carbon routing
//! LP** — route the coalition's aggregate traffic to the egress node over
//! capacitated links at the links' carbon prices:
//!
//! ```text
//! v(S) = min Σₗ carbonₗ · fₗ
//!        s.t.  Σ out(v) − Σ in(v) = Σ_{i∈S} demandᵢ(v)   ∀ nodes v ≠ egress
//!              fₗ + slackₗ = capacityₗ                    ∀ links l
//!              f, slack ≥ 0
//! ```
//!
//! The egress node's conservation row is dropped (the standard trick that
//! makes the incidence matrix full-rank), so the constraint matrix is a
//! network matrix extended by unit capacity/slack rows — **totally
//! unimodular**. On instances with integer capacities and demands and
//! dyadic link prices (see `fairco2-carbon`'s `network` module) every
//! simplex quantity is exact in `f64`, so warm-started coalition solves
//! return objectives bit-identical to cold solves — the property the
//! determinism pins assert.
//!
//! # Typed outcomes → documented game values
//!
//! * `Optimal` — `v(S)` is the LP objective.
//! * `Infeasible` (the coalition's demand exceeds what the network can
//!   carry) — `v(S) = penalty_rate × total demand of S`. With the default
//!   rate (the sum of all link prices, an upper bound on any simple
//!   path's cost) this preserves monotonicity across the feasibility
//!   boundary: a feasible coalition's routing cost never exceeds the
//!   penalty a superset pays.
//! * `Unbounded` — impossible for validated instances (prices ≥ 0 bound
//!   the objective below by zero); mapped defensively to the same
//!   penalty so the game never produces NaN or panics on a typed
//!   outcome.
//!
//! # Warm starts along the lattice
//!
//! Between coalitions only the right-hand side `b` changes (the matrix
//! and costs are fixed and shared), so a relative's optimal basis stays
//! *dual* feasible and the dual simplex reuses it. Every coalition
//! program shares the skeleton's matrix family, so a basis also reuses
//! the LU factors it carries (see `fairco2-solver`'s `simplex` module):
//! a warm solve refactorizes its start basis only when the solve that
//! produced it ended with eta updates.
//!
//! [`NetworkCarbonGame`]'s [`IncrementalGame`] state threads the previous
//! basis through permutation replay, and every replay starts from the
//! empty coalition's factored optimal basis, solved once per game, so no
//! replay runs the two-phase method. Its [`Game::fill_values`] override —
//! the hook the exact solvers read every coalition through, one fixed
//! aligned block at a time — chains each coalition off its parent
//! `mask & (mask − 1)` when the parent lies in the block and was routed,
//! and solves the rest cold: one cold solve per block plus one per
//! unroutable parent. A parent basis without factors is factorized once,
//! in place, and all of its children start from those factors.
//! [`NetworkCarbonGame::fill_lattice_warm`] runs the same routine over the
//! whole lattice as a single range while counting saved iterations — the
//! statistic behind the `lp` benchmark workload's `solver.warm_iterations`.
//!
//! Factor reuse changes no bit anywhere. Starting replays from the empty
//! basis instead of a cold solve keeps every bit on exact-dyadic
//! instances; elsewhere a replay's values can move in the last bits, but
//! stay a pure function of the permutation.

use std::sync::OnceLock;

use fairco2_solver::{
    certify, solve, solve_warm, Basis, Csc, LinearProgram, LpOutcome, Solution, SolveStats,
};

use crate::coalition::Coalition;
use crate::game::{Game, IncrementalGame};

/// One directed, capacitated link with a carbon price per traffic unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Capacity in traffic units (integer-valued for exact instances).
    pub capacity: f64,
    /// Carbon price per traffic unit (dyadic for exact instances).
    pub carbon_per_unit: f64,
}

/// A datacenter network: nodes, directed links, and the egress node that
/// absorbs all routed traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    nodes: usize,
    egress: usize,
    links: Vec<Link>,
}

impl Network {
    /// Builds a network.
    ///
    /// # Panics
    ///
    /// Panics if `egress` is out of range, a link endpoint is out of
    /// range or a self-loop, or a capacity/price is negative or
    /// non-finite.
    pub fn new(nodes: usize, egress: usize, links: Vec<Link>) -> Self {
        assert!(egress < nodes, "egress node out of range");
        for (i, l) in links.iter().enumerate() {
            assert!(
                l.from < nodes && l.to < nodes,
                "link {i} endpoint out of range"
            );
            assert!(l.from != l.to, "link {i} is a self-loop");
            assert!(
                l.capacity.is_finite() && l.capacity >= 0.0,
                "link {i} capacity must be finite and non-negative"
            );
            assert!(
                l.carbon_per_unit.is_finite() && l.carbon_per_unit >= 0.0,
                "link {i} carbon price must be finite and non-negative"
            );
        }
        Self {
            nodes,
            egress,
            links,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The egress node.
    pub fn egress(&self) -> usize {
        self.egress
    }

    /// The links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Sum of all link prices in link order — an upper bound on the cost
    /// of any simple path, and the default penalty rate.
    pub fn total_carbon_rate(&self) -> f64 {
        let mut acc = 0.0;
        for l in &self.links {
            if l.carbon_per_unit != 0.0 {
                acc += l.carbon_per_unit;
            }
        }
        acc
    }
}

/// How a coalition's value came about.
#[derive(Debug, Clone)]
pub enum CoalitionValue {
    /// The LP was solved to optimality: `v(S)` = routing carbon.
    Routed(Solution),
    /// The demand could not be routed (or the solve was defensively
    /// mapped): `v(S)` = penalty.
    Unroutable {
        /// `penalty_rate × total demand of S`.
        penalty: f64,
    },
}

impl CoalitionValue {
    /// The game value `v(S)` in carbon units.
    pub fn carbon(&self) -> f64 {
        match self {
            CoalitionValue::Routed(sol) => sol.objective,
            CoalitionValue::Unroutable { penalty } => *penalty,
        }
    }

    /// The optimal basis, if the coalition was routed — the warm-start
    /// seed for relatives.
    pub fn into_basis(self) -> Option<Basis> {
        match self {
            CoalitionValue::Routed(sol) => Some(sol.basis),
            CoalitionValue::Unroutable { .. } => None,
        }
    }

    /// Solve statistics, if a solve ran to optimality.
    pub fn stats(&self) -> Option<SolveStats> {
        match self {
            CoalitionValue::Routed(sol) => Some(sol.stats),
            CoalitionValue::Unroutable { .. } => None,
        }
    }
}

/// Iteration accounting for a full coalition-lattice fill (see
/// [`NetworkCarbonGame::fill_lattice_warm`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatticeStats {
    /// Coalitions evaluated (2ⁿ including the empty one).
    pub coalitions: u64,
    /// Solves that were offered a parent basis.
    pub warm_attempts: u64,
    /// Warm offers the dual simplex actually served (no cold fallback).
    pub warm_hits: u64,
    /// Total simplex iterations across all solves.
    pub iterations: u64,
    /// Coalitions whose demand was unroutable (penalty-valued).
    pub unroutable: u64,
    /// Parent bases factorized for their children's warm starts; a parent
    /// whose solve handed on its factors needs none.
    pub factorizations: u64,
}

/// The network carbon attribution game. Holds the fixed LP skeleton
/// (matrix and costs) and the per-tenant demand vectors; coalitions only
/// swap the right-hand side.
///
/// `value()` performs a pure cold solve and `fill_values()` a warm chain
/// local to its range, both with no interior mutability, so the game is
/// `Sync` and drops unchanged into
/// [`crate::exact::parallel_exact_shapley`] and the sampling engines.
#[derive(Debug, Clone)]
pub struct NetworkCarbonGame {
    network: Network,
    /// `demands[tenant][node]` — traffic injected by `tenant` at `node`.
    demands: Vec<Vec<f64>>,
    penalty_rate: f64,
    /// The empty coalition's program, whose matrix and costs every
    /// coalition shares: conservation rows (egress dropped) then one
    /// capacity row per link; flow columns then slack columns; costs are
    /// link prices then zeros for slacks. Its rhs — zero conservation,
    /// link capacities — is the base each coalition adds its demand to.
    skeleton: LinearProgram<'static>,
    /// Conservation row of each non-egress node (`usize::MAX` for the
    /// egress).
    node_row: Vec<usize>,
    /// The empty coalition's optimal basis, factored, on which every
    /// permutation replay starts; solved on first use.
    empty_basis: OnceLock<Basis>,
}

impl NetworkCarbonGame {
    /// Builds the game with the default penalty rate
    /// ([`Network::total_carbon_rate`]).
    ///
    /// # Panics
    ///
    /// Panics on invalid demands — see [`Self::with_penalty_rate`].
    pub fn new(network: Network, demands: Vec<Vec<f64>>) -> Self {
        let rate = network.total_carbon_rate();
        Self::with_penalty_rate(network, demands, rate)
    }

    /// Builds the game with an explicit penalty rate for unroutable
    /// coalitions. Monotonicity of `v` is guaranteed when the rate is at
    /// least [`Network::total_carbon_rate`].
    ///
    /// # Panics
    ///
    /// Panics if a demand vector has the wrong length, injects at the
    /// egress, or contains a negative/non-finite entry; or if the rate is
    /// negative or non-finite.
    pub fn with_penalty_rate(network: Network, demands: Vec<Vec<f64>>, penalty_rate: f64) -> Self {
        assert!(
            penalty_rate.is_finite() && penalty_rate >= 0.0,
            "penalty rate must be finite and non-negative"
        );
        for (i, d) in demands.iter().enumerate() {
            assert_eq!(d.len(), network.nodes(), "tenant {i} demand vector length");
            assert!(
                d.iter().all(|v| v.is_finite() && *v >= 0.0),
                "tenant {i} demands must be finite and non-negative"
            );
            assert_eq!(d[network.egress()], 0.0, "tenant {i} injects at the egress");
        }
        // Conservation rows for every node except the egress.
        let mut node_row = vec![usize::MAX; network.nodes()];
        let mut next = 0usize;
        for (v, row) in node_row.iter_mut().enumerate() {
            if v != network.egress() {
                *row = next;
                next += 1;
            }
        }
        let nlinks = network.links().len();
        let rows = next + nlinks;
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * nlinks);
        let mut costs = Vec::with_capacity(2 * nlinks);
        for (l, link) in network.links().iter().enumerate() {
            if node_row[link.from] != usize::MAX {
                triplets.push((node_row[link.from], l, 1.0));
            }
            if node_row[link.to] != usize::MAX {
                triplets.push((node_row[link.to], l, -1.0));
            }
            triplets.push((next + l, l, 1.0)); // capacity row
            costs.push(link.carbon_per_unit);
        }
        for l in 0..nlinks {
            triplets.push((next + l, nlinks + l, 1.0)); // slack column
            costs.push(0.0);
        }
        let mut base_rhs = vec![0.0f64; rows];
        for (slot, link) in base_rhs[next..].iter_mut().zip(network.links()) {
            *slot = link.capacity;
        }
        let skeleton = LinearProgram::new(
            Csc::from_triplets(rows, 2 * nlinks, &triplets),
            base_rhs,
            costs,
        );
        Self {
            network,
            demands,
            penalty_rate,
            skeleton,
            node_row,
            empty_basis: OnceLock::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The penalty rate applied to unroutable demand.
    pub fn penalty_rate(&self) -> f64 {
        self.penalty_rate
    }

    /// Total demand injected by `coalition`, accumulated tenant-major in
    /// ascending index order (the canonical order used everywhere).
    pub fn total_demand(&self, coalition: &Coalition) -> f64 {
        let mut acc = 0.0;
        for t in coalition.iter() {
            for &d in &self.demands[t] {
                if d != 0.0 {
                    acc += d;
                }
            }
        }
        acc
    }

    fn rhs_for(&self, coalition: &Coalition) -> Vec<f64> {
        let mut b = self.skeleton.rhs().to_vec();
        // Ascending tenant index: the canonical accumulation order, so a
        // coalition's rhs — and therefore its solve — is independent of
        // the order players arrived in.
        for t in coalition.iter() {
            for (v, &d) in self.demands[t].iter().enumerate() {
                if d != 0.0 {
                    b[self.node_row[v]] += d;
                }
            }
        }
        b
    }

    /// The coalition's routing LP (shared matrix and costs, coalition
    /// right-hand side) — exposed so tests and benches can run
    /// independent certificates against the raw instance.
    pub fn coalition_program(&self, coalition: &Coalition) -> LinearProgram<'_> {
        self.skeleton.with_rhs(self.rhs_for(coalition))
    }

    /// The value of an unroutable coalition: `penalty_rate × total
    /// demand`.
    fn penalty(&self, coalition: &Coalition) -> f64 {
        self.penalty_rate * self.total_demand(coalition)
    }

    fn outcome_to_value(&self, coalition: &Coalition, outcome: LpOutcome) -> CoalitionValue {
        match outcome {
            LpOutcome::Optimal(sol) => CoalitionValue::Routed(sol),
            LpOutcome::Infeasible | LpOutcome::Unbounded => CoalitionValue::Unroutable {
                penalty: self.penalty(coalition),
            },
        }
    }

    /// Evaluates `v(S)` with a cold solve.
    ///
    /// # Panics
    ///
    /// Panics on a genuine solver failure (iteration cap, factorization
    /// breakdown) — a bug for validated instances, surfaced loudly so
    /// retry harnesses can catch it, never folded into a game value.
    pub fn evaluate(&self, coalition: &Coalition) -> CoalitionValue {
        let lp = self.coalition_program(coalition);
        let outcome = solve(&lp).expect("network LP solve failed on a validated instance");
        self.outcome_to_value(coalition, outcome)
    }

    /// Evaluates `v(S)` warm-starting from a relative's optimal basis.
    /// Falls back internally (inside the solver) to the cold path when
    /// the basis is unusable; on exact-dyadic instances the objective is
    /// bit-identical to [`Self::evaluate`] either way.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate`].
    pub fn evaluate_warm(&self, coalition: &Coalition, basis: &Basis) -> CoalitionValue {
        let lp = self.coalition_program(coalition);
        let outcome =
            solve_warm(&lp, basis).expect("network LP warm solve failed on a validated instance");
        self.outcome_to_value(coalition, outcome)
    }

    /// Asserts the KKT certificate of a routed solution against the raw
    /// coalition instance; returns the duality gap. Used by the bench
    /// gates ("duality gap ≤ 1e-9 on every accepted solve").
    pub fn certified_gap(&self, coalition: &Coalition, sol: &Solution) -> f64 {
        let lp = self.coalition_program(coalition);
        let cert = certify(&lp, sol);
        assert!(
            cert.passes(1e-6 * (1.0 + sol.objective.abs())),
            "KKT certificate violated: {cert:?}"
        );
        cert.duality_gap
    }

    /// Evaluates every coalition of the full lattice with cold solves.
    /// Returns values indexed by coalition bitmask and the iteration
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if the game has more than 24 players (the lattice would not
    /// fit) or on a genuine solver failure.
    pub fn fill_lattice_cold(&self) -> (Vec<f64>, LatticeStats) {
        self.fill_lattice(false)
    }

    /// Evaluates every coalition of the full lattice, warm-starting each
    /// coalition from its parent `mask & (mask − 1)` (the coalition minus
    /// its lowest player). Bit-identical to
    /// [`Self::fill_lattice_cold`] on exact-dyadic instances — pinned by
    /// the determinism suite and asserted as a bench gate.
    ///
    /// # Panics
    ///
    /// As [`Self::fill_lattice_cold`].
    pub fn fill_lattice_warm(&self) -> (Vec<f64>, LatticeStats) {
        self.fill_lattice(true)
    }

    fn fill_lattice(&self, warm: bool) -> (Vec<f64>, LatticeStats) {
        let n = self.demands.len();
        assert!(n <= 24, "lattice fill supports at most 24 players");
        let mut values = vec![0.0f64; 1 << n];
        let mut stats = LatticeStats::default();
        self.fill_range(0, &mut values, warm, &mut stats);
        (values, stats)
    }

    /// Fills `out[i]` with `v(first_mask + i)`, accumulating the work into
    /// `stats`. With `warm`, a coalition whose parent `mask & (mask − 1)`
    /// lies in the range and was routed warm-starts from the parent's
    /// optimal basis; every other coalition is solved cold.
    ///
    /// Ascending masks visit the parent tree in preorder (a mask's
    /// descendants are exactly the masks between it and
    /// `mask + lowbit(mask)`), so no coalition one player smaller than
    /// `mask` is visited between its parent and `mask`: the parent's basis
    /// is the latest one stored at depth `popcount(mask) − 1`, and one
    /// slot per coalition size stands in for a basis per mask. The first
    /// child to be offered a parent basis without factors factorizes it
    /// in that slot, so its siblings start from the same factors.
    fn fill_range(&self, first_mask: u64, out: &mut [f64], warm: bool, stats: &mut LatticeStats) {
        let n = self.demands.len();
        let mut bases: Vec<Option<Basis>> = vec![None; n + 1];
        let mut coalition = Coalition::empty(n);
        for (mask, slot) in (first_mask..).zip(out) {
            coalition.set_mask(mask);
            let depth = mask.count_ones() as usize;
            let parent_in_range = mask != 0 && mask & (mask - 1) >= first_mask;
            let parent_basis = if warm && parent_in_range {
                bases[depth - 1].as_mut()
            } else {
                None
            };
            let value = match parent_basis {
                Some(basis) => {
                    stats.warm_attempts += 1;
                    if basis.factorize_for(&self.skeleton) {
                        stats.factorizations += 1;
                    }
                    self.evaluate_warm(&coalition, basis)
                }
                None => self.evaluate(&coalition),
            };
            if let Some(s) = value.stats() {
                stats.iterations += s.iterations;
                if s.warm_started && !s.cold_fallback {
                    stats.warm_hits += 1;
                }
            }
            if let CoalitionValue::Unroutable { .. } = value {
                stats.unroutable += 1;
            }
            stats.coalitions += 1;
            *slot = value.carbon();
            bases[depth] = value.into_basis();
        }
    }

    /// The empty coalition's optimal basis, factored against the shared
    /// matrix.
    fn empty_basis(&self) -> Basis {
        self.empty_basis
            .get_or_init(|| {
                let mut basis = self
                    .evaluate(&Coalition::empty(self.demands.len()))
                    .into_basis()
                    .expect("the empty coalition routes nothing, so it is feasible");
                basis.factorize_for(&self.skeleton);
                basis
            })
            .clone()
    }
}

impl Game for NetworkCarbonGame {
    fn player_count(&self) -> usize {
        self.demands.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        self.evaluate(coalition).carbon()
    }

    /// Warm-chains the range: each coalition starts the dual simplex from
    /// its parent's basis when the parent lies in the range and was
    /// routed, and is solved cold otherwise. On exact-dyadic instances
    /// every value is bit-identical to [`Game::value`]; elsewhere it can
    /// differ from it by rounding, but stays a pure function of the
    /// range.
    fn fill_values(&self, first_mask: u64, out: &mut [f64]) {
        self.fill_range(first_mask, out, true, &mut LatticeStats::default());
    }
}

/// Replay state: the growing coalition plus the last optimal basis, so
/// each [`IncrementalGame::add_player`] warm-starts off the previous
/// prefix's solve — the first one off the empty coalition's. The basis
/// carries its factors whenever its solve ended without eta updates.
#[derive(Debug, Clone)]
pub struct NetGameState {
    members: Coalition,
    basis: Option<Basis>,
}

/// Permutation replay, warm from the first player on: each state starts
/// at the empty coalition's optimal basis (solved and factored once per
/// game), and each [`IncrementalGame::add_player`] warm-starts off the
/// previous prefix's basis. Once a prefix is unroutable every later
/// prefix is too, and is valued at the penalty without a solve. On
/// exact-dyadic instances every value equals [`Game::value`] bitwise.
impl IncrementalGame for NetworkCarbonGame {
    type State = NetGameState;

    fn initial_state(&self) -> Self::State {
        NetGameState {
            members: Coalition::empty(self.demands.len()),
            basis: Some(self.empty_basis()),
        }
    }

    fn reset_state(&self, state: &mut Self::State) {
        state.members = Coalition::empty(self.demands.len());
        state.basis = Some(self.empty_basis());
    }

    fn add_player(&self, state: &mut Self::State, player: usize) -> f64 {
        state.members.insert(player);
        // No basis means the prefix was unroutable. Demand is
        // non-negative and every flow drains to the one egress, so a
        // superset of an unroutable coalition is unroutable too: its
        // value is the penalty, with no solve.
        let Some(basis) = state.basis.as_ref() else {
            return self.penalty(&state.members);
        };
        // The rhs is rebuilt canonically from the member set (not
        // accumulated in arrival order), so the value matches a cold
        // `value()` of the same coalition exactly on dyadic instances —
        // which keeps `CachedGame` consistent between replay orders.
        let value = self.evaluate_warm(&state.members, basis);
        let carbon = value.carbon();
        state.basis = value.into_basis();
        carbon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use proptest::prelude::*;

    /// 4 nodes: 0,1 inject, 2 relays, 3 is egress. Integer capacities,
    /// dyadic prices.
    fn diamond() -> Network {
        Network::new(
            4,
            3,
            vec![
                Link {
                    from: 0,
                    to: 2,
                    capacity: 6.0,
                    carbon_per_unit: 1.0,
                },
                Link {
                    from: 1,
                    to: 2,
                    capacity: 6.0,
                    carbon_per_unit: 0.5,
                },
                Link {
                    from: 0,
                    to: 3,
                    capacity: 2.0,
                    carbon_per_unit: 4.0,
                },
                Link {
                    from: 2,
                    to: 3,
                    capacity: 8.0,
                    carbon_per_unit: 1.5,
                },
            ],
        )
    }

    fn two_tenant_game() -> NetworkCarbonGame {
        NetworkCarbonGame::new(
            diamond(),
            vec![vec![3.0, 0.0, 0.0, 0.0], vec![0.0, 4.0, 0.0, 0.0]],
        )
    }

    #[test]
    fn empty_coalition_is_worth_exactly_zero() {
        let game = two_tenant_game();
        assert_eq!(game.value(&Coalition::empty(2)), 0.0);
    }

    #[test]
    fn singleton_routes_at_min_carbon() {
        let game = two_tenant_game();
        // Tenant 0: 3 units from node 0. Cheapest: 0→2→3 at 2.5/unit.
        let v = game.value(&Coalition::from_players(2, [0]));
        assert_eq!(v, 7.5);
    }

    #[test]
    fn grand_coalition_shares_the_relay() {
        let game = two_tenant_game();
        // 3 units via 0→2→3 (2.5) + 4 units via 1→2→3 (2.0) fits cap 8.
        let v = game.value(&Coalition::grand(2));
        assert_eq!(v, 7.5 + 8.0);
    }

    #[test]
    fn overload_is_penalty_valued_not_a_panic() {
        let game = NetworkCarbonGame::new(
            diamond(),
            vec![vec![20.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]],
        );
        let c = Coalition::from_players(2, [0]);
        let v = game.value(&c);
        assert!(matches!(
            game.evaluate(&c),
            CoalitionValue::Unroutable { .. }
        ));
        assert_eq!(v, game.penalty_rate() * 20.0);
        assert!(v.is_finite());
    }

    #[test]
    fn warm_lattice_is_bit_identical_to_cold() {
        let game = two_tenant_game();
        let (cold, _) = game.fill_lattice_cold();
        let (warm, stats) = game.fill_lattice_warm();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
        assert!(stats.warm_attempts > 0);
        assert_eq!(stats.coalitions, 4);
    }

    #[test]
    fn incremental_replay_matches_cold_values() {
        let game = two_tenant_game();
        let mut state = game.initial_state();
        let v0 = game.add_player(&mut state, 1);
        assert_eq!(
            v0.to_bits(),
            game.value(&Coalition::from_players(2, [1])).to_bits()
        );
        let v01 = game.add_player(&mut state, 0);
        assert_eq!(v01.to_bits(), game.value(&Coalition::grand(2)).to_bits());
    }

    #[test]
    fn replays_start_warm_from_the_empty_basis() {
        let game = overloaded_diamond_game(8, &[3, 5, 2, 4, 6]);
        let mut state = game.initial_state();
        let (mut routed, mut unroutable) = (0, 0);
        for shift in 0..8 {
            let order: Vec<usize> = if shift % 2 == 0 {
                (0..8).map(|i| (i + shift) % 8).collect()
            } else {
                (0..8).rev().map(|i| (i * 3 + shift) % 8).collect()
            };
            game.reset_state(&mut state);
            assert!(state
                .basis
                .as_ref()
                .is_some_and(|b| b.is_factored_for(&game.skeleton)));
            for (step, &player) in order.iter().enumerate() {
                let offered = state.basis.clone();
                let value = game.add_player(&mut state, player);
                let cold = game.evaluate(&state.members);
                assert_eq!(value.to_bits(), cold.carbon().to_bits());
                if cold.stats().is_none() {
                    unroutable += 1;
                    continue;
                }
                // Re-running the solve `add_player` just made reads its
                // stats: warm, served by the dual simplex.
                let basis = offered.expect("a routed coalition is offered a basis");
                let stats = game.evaluate_warm(&state.members, &basis).stats();
                let stats = stats.expect("routed");
                assert!(
                    stats.warm_started && !stats.cold_fallback,
                    "{order:?} step {step}"
                );
                assert!(step > 0 || stats.reused_factors);
                routed += 1;
            }
        }
        assert!(
            routed > 0 && unroutable > 0,
            "{routed} routed, {unroutable} not"
        );
    }

    #[test]
    fn shapley_is_efficient_on_the_network_game() {
        let game = two_tenant_game();
        let phi = exact_shapley(&game).unwrap();
        let total: f64 = phi.iter().sum();
        let grand = game.value(&Coalition::grand(2));
        assert!((total - grand).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_tenant_is_a_null_player() {
        let game = NetworkCarbonGame::new(
            diamond(),
            vec![
                vec![3.0, 0.0, 0.0, 0.0],
                vec![0.0; 4], // null player
            ],
        );
        // Bit-level marginals are exactly zero…
        let alone = game.value(&Coalition::from_players(2, [0]));
        let with_null = game.value(&Coalition::grand(2));
        assert_eq!(alone.to_bits(), with_null.to_bits());
        // …and the table-scatter share cancels to accumulation epsilon.
        let phi = exact_shapley(&game).unwrap();
        assert!(phi[1].abs() <= 1e-12);
    }

    /// Up to eight tenants injecting at the diamond's two sources, with
    /// demands large enough that many coalitions overload the relay and
    /// are unroutable.
    fn overloaded_diamond_game(n: usize, pool: &[u8]) -> NetworkCarbonGame {
        let demands = (0..n)
            .map(|t| {
                let d = f64::from(pool[t % pool.len()]);
                if t % 2 == 0 {
                    vec![d, 0.0, 0.0, 0.0]
                } else {
                    vec![0.0, d, 0.0, 0.0]
                }
            })
            .collect();
        NetworkCarbonGame::new(diamond(), demands)
    }

    #[test]
    fn overloaded_diamond_has_unroutable_parents() {
        let game = overloaded_diamond_game(8, &[3, 5, 2, 4, 6]);
        let (_, stats) = game.fill_lattice_warm();
        assert!(stats.unroutable > 0);
        // Children of an unroutable parent get no warm offer.
        assert!(stats.warm_attempts < stats.coalitions - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Warm-chained `fill_values` over any sub-range — including one
        /// starting mid-block, where the first masks' parents lie outside
        /// the range — equals cold `evaluate` bit for bit on this dyadic
        /// instance.
        #[test]
        fn fill_values_matches_cold_evaluate_on_any_range(
            n in 1usize..=8,
            pool in prop::collection::vec(0u8..=6, 1..8),
            start in 0u64..256,
            len in 0usize..=256,
        ) {
            let game = overloaded_diamond_game(n, &pool);
            let size = 1u64 << n;
            let first = start % size;
            let len = len.min((size - first) as usize);
            let mut out = vec![f64::NAN; len];
            game.fill_values(first, &mut out);
            for (mask, v) in (first..).zip(&out) {
                let cold = game.evaluate(&Coalition::from_mask(n, mask)).carbon();
                prop_assert_eq!(v.to_bits(), cold.to_bits(), "mask {:#b}", mask);
            }
        }
    }

    #[test]
    #[should_panic(expected = "injects at the egress")]
    fn egress_injection_is_rejected() {
        let _ = NetworkCarbonGame::new(diamond(), vec![vec![0.0, 0.0, 0.0, 1.0]]);
    }
}
