//! Interference-aware attribution for colocation scenarios.
//!
//! A scenario places workloads on nodes — pairs sharing a node, plus at
//! most one isolated straggler per node — and the scenario's *actual*
//! carbon (embodied occupancy + static + dynamic energy) must be divided
//! among the workloads. Three methods are implemented:
//!
//! * [`GroundTruthMatching`] — the paper's ground truth: the Shapley value
//!   of the matching game (every counterfactual colocation considered),
//!   computed exactly in `O(n²)` from each workload's mean pair cost by
//!   [`shapley_from_moments`] (the formula
//!   [`MatchingGame::shapley`](fairco2_shapley::MatchingGame::shapley)
//!   evaluates) and normalized to the scenario's actual total.
//! * [`RupColocation`] — the RUP-Baseline: embodied and static carbon
//!   proportional to allocation × *observed* (interference-stretched)
//!   occupancy; dynamic energy proportional to CPU-utilization × time.
//!   Victims of aggressive neighbours occupy longer and get overcharged.
//! * [`FairCo2Colocation`] — Fair-CO₂'s adjustment (Eqs. 8–11): shares are
//!   scaled by each workload's *historical* sensitivity (α) and pressure
//!   (β), so a workload pays for the interference it tends to cause and is
//!   refunded the interference it tends to suffer.

use std::fmt;

use fairco2_shapley::shapley_from_moments;
use fairco2_workloads::history::{full_profile, InterferenceProfile};
use fairco2_workloads::node::OccupancyModel;
use fairco2_workloads::{NodeAccounting, WorkloadKind, ALL_WORKLOADS};

/// Error from a colocation attribution method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColocationError {
    /// The scenario has no placements.
    EmptyScenario,
    /// A per-workload profile list does not match the scenario size.
    ProfileMismatch {
        /// Profiles supplied.
        profiles: usize,
        /// Workloads in the scenario.
        workloads: usize,
    },
}

impl fmt::Display for ColocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColocationError::EmptyScenario => write!(f, "scenario has no placements"),
            ColocationError::ProfileMismatch {
                profiles,
                workloads,
            } => write!(f, "{profiles} profiles supplied for {workloads} workloads"),
        }
    }
}

impl std::error::Error for ColocationError {}

/// One node's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodePlacement {
    /// A workload running alone on its node.
    Isolated(WorkloadKind),
    /// Two workloads colocated on one node.
    Pair(WorkloadKind, WorkloadKind),
}

/// A colocation scenario: the node placements of a set of workloads.
///
/// # Example
///
/// ```
/// use fairco2::colocation::{ColocationAttributor, ColocationScenario, GroundTruthMatching};
/// use fairco2_carbon::units::CarbonIntensity;
/// use fairco2_workloads::{NodeAccounting, WorkloadKind};
///
/// let scenario = ColocationScenario::pair_in_order(&[
///     WorkloadKind::Nbody,
///     WorkloadKind::Ch,
///     WorkloadKind::Pg10, // odd tail runs isolated
/// ])?;
/// let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(250.0));
/// let shares = GroundTruthMatching.attribute(&scenario, &ctx)?;
/// let total: f64 = shares.iter().sum();
/// assert!((total - scenario.carbon(&ctx).total()).abs() < 1e-6);
/// # Ok::<(), fairco2::colocation::ColocationError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColocationScenario {
    placements: Vec<NodePlacement>,
}

/// A workload instance within a scenario, with its actual partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedWorkload {
    /// The workload.
    pub kind: WorkloadKind,
    /// Its colocation partner, if any.
    pub partner: Option<WorkloadKind>,
}

/// The scenario's actual carbon, split into the three pools the methods
/// divide (all gCO₂e).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCarbon {
    /// Amortized embodied carbon over node occupancies.
    pub embodied: f64,
    /// Static (idle-power) operational carbon over node occupancies.
    pub static_operational: f64,
    /// Dynamic operational carbon of the workloads.
    pub dynamic_operational: f64,
}

impl ScenarioCarbon {
    /// Total scenario carbon.
    pub fn total(&self) -> f64 {
        self.embodied + self.static_operational + self.dynamic_operational
    }
}

impl ColocationScenario {
    /// Creates a scenario from explicit placements.
    ///
    /// # Errors
    ///
    /// Returns [`ColocationError::EmptyScenario`] if `placements` is empty.
    pub fn new(placements: Vec<NodePlacement>) -> Result<Self, ColocationError> {
        if placements.is_empty() {
            return Err(ColocationError::EmptyScenario);
        }
        Ok(Self { placements })
    }

    /// Pairs workloads onto nodes in list order (odd tail isolated) — the
    /// canonical placement used by the Monte Carlo generator.
    ///
    /// # Errors
    ///
    /// Returns [`ColocationError::EmptyScenario`] if `workloads` is empty.
    pub fn pair_in_order(workloads: &[WorkloadKind]) -> Result<Self, ColocationError> {
        let mut placements = Vec::with_capacity(workloads.len().div_ceil(2));
        let mut iter = workloads.chunks_exact(2);
        for pair in iter.by_ref() {
            placements.push(NodePlacement::Pair(pair[0], pair[1]));
        }
        if let [last] = iter.remainder() {
            placements.push(NodePlacement::Isolated(*last));
        }
        Self::new(placements)
    }

    /// The node placements.
    pub fn placements(&self) -> &[NodePlacement] {
        &self.placements
    }

    /// Workload instances in canonical order (node by node).
    pub fn workloads(&self) -> Vec<PlacedWorkload> {
        let mut out = Vec::new();
        for p in &self.placements {
            match *p {
                NodePlacement::Isolated(w) => out.push(PlacedWorkload {
                    kind: w,
                    partner: None,
                }),
                NodePlacement::Pair(a, b) => {
                    out.push(PlacedWorkload {
                        kind: a,
                        partner: Some(b),
                    });
                    out.push(PlacedWorkload {
                        kind: b,
                        partner: Some(a),
                    });
                }
            }
        }
        out
    }

    /// The scenario's actual carbon pools under the given accounting.
    pub fn carbon(&self, ctx: &NodeAccounting) -> ScenarioCarbon {
        let mut embodied = 0.0;
        let mut static_operational = 0.0;
        let mut dynamic_operational = 0.0;
        for p in &self.placements {
            let node = match *p {
                NodePlacement::Isolated(w) => ctx.isolated(w),
                NodePlacement::Pair(a, b) => ctx.pair(a, b),
            };
            embodied += node.embodied;
            static_operational += node.static_operational;
            dynamic_operational += node.dynamic_operational;
        }
        ScenarioCarbon {
            embodied,
            static_operational,
            dynamic_operational,
        }
    }
}

/// An attribution method over colocation scenarios. Returns one gCO₂e
/// share per workload (in [`ColocationScenario::workloads`] order),
/// summing to the scenario's actual total carbon.
pub trait ColocationAttributor {
    /// Human-readable method name.
    fn name(&self) -> &'static str;

    /// Attributes the scenario's actual carbon among its workloads into
    /// a caller-owned, reusable share vector (replacing its contents), so
    /// trial loops can amortize the output allocation.
    ///
    /// On error `out` is left cleared or partially written — callers must
    /// not read it.
    ///
    /// # Errors
    ///
    /// Returns a [`ColocationError`] when inputs are inconsistent.
    fn attribute_into(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
        out: &mut Vec<f64>,
    ) -> Result<(), ColocationError>;

    /// [`attribute_into`](Self::attribute_into) into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`attribute_into`](Self::attribute_into).
    fn attribute(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
    ) -> Result<Vec<f64>, ColocationError> {
        let mut out = Vec::new();
        self.attribute_into(scenario, ctx, &mut out)?;
        Ok(out)
    }
}

/// The ground truth: exact Shapley of the matching game, normalized to the
/// scenario's actual total.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruthMatching;

impl ColocationAttributor for GroundTruthMatching {
    fn name(&self) -> &'static str {
        "ground-truth-shapley"
    }

    fn attribute_into(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
        out: &mut Vec<f64>,
    ) -> Result<(), ColocationError> {
        let kinds: Vec<WorkloadKind> = scenario.workloads().iter().map(|w| w.kind).collect();
        let isolated: Vec<f64> = kinds.iter().map(|&k| ctx.isolated(k).total()).collect();
        let index: Vec<usize> = kinds.iter().map(|k| k.index()).collect();
        let n = kinds.len();
        // A pair's cost depends only on its two kinds, and `pair(a, b)`
        // totals to the same bits as `pair(b, a)` (commuted additions and
        // a max), so each kind pair is costed at most once. Each row sum
        // adds the pair-matrix row in order, 0 on the diagonal, as
        // `MatchingGame::shapley` does.
        let mut costs = [[None; ALL_WORKLOADS.len()]; ALL_WORKLOADS.len()];
        let mean_pair: Vec<f64> = (0..n)
            .map(|i| {
                if n == 1 {
                    return 0.0;
                }
                let row: f64 = (0..n)
                    .map(|j| {
                        if j == i {
                            return 0.0;
                        }
                        let (lo, hi) = (index[i].min(index[j]), index[i].max(index[j]));
                        *costs[lo][hi].get_or_insert_with(|| ctx.pair(kinds[i], kinds[j]).total())
                    })
                    .sum();
                row / (n as f64 - 1.0)
            })
            .collect();
        let phi = shapley_from_moments(&isolated, &mean_pair);
        let phi_total: f64 = phi.iter().sum();
        let actual = scenario.carbon(ctx).total();
        out.clear();
        out.extend(phi.iter().map(|p| actual * p / phi_total));
        Ok(())
    }
}

/// The RUP-Baseline under colocation: embodied + static ∝ allocation ×
/// observed occupancy; dynamic ∝ CPU-utilization × observed occupancy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RupColocation;

impl ColocationAttributor for RupColocation {
    fn name(&self) -> &'static str {
        "rup-baseline"
    }

    fn attribute_into(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
        out: &mut Vec<f64>,
    ) -> Result<(), ColocationError> {
        let workloads = scenario.workloads();
        let pools = scenario.carbon(ctx);
        // All workloads have the same half-node allocation, so the
        // allocation-time weight reduces to observed runtime.
        let fixed_w: Vec<f64> = workloads
            .iter()
            .map(|w| ctx.runtime(w.kind, w.partner))
            .collect();
        let dyn_w: Vec<f64> = workloads
            .iter()
            .map(|w| {
                let util = match w.partner {
                    Some(p) => ctx.interference().colocated_utilization(w.kind, p),
                    None => w.kind.profile().cpu_utilization,
                };
                util * ctx.runtime(w.kind, w.partner)
            })
            .collect();
        split_pools_into(&pools, &fixed_w, &dyn_w, out);
        Ok(())
    }
}

/// Weighting scheme used by [`FairCo2Colocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdjustmentKind {
    /// The *moment* estimator (default): the exact matching-game Shapley
    /// formula (which depends on the pair-cost matrix only through each
    /// workload's mean pair cost) evaluated at **historically estimated**
    /// moments — each workload's expected node cost when colocated (its
    /// suffered α side plus its inflicted β side), shrunk toward the
    /// population mean in proportion to history sparsity. `O(n)` per
    /// workload.
    #[default]
    Marginal,
    /// The literal ratio form of the paper's Eqs. 8 and 10:
    /// `f_Q = (α_T + β_T)·Q·T_iso` and `f_P = (α_P + β_P)·P_iso·T_iso`.
    /// Kept as an ablation: it corrects the direction of RUP's bias but
    /// mixes suffered and inflicted effects on the wrong scale when
    /// partners' runtimes differ widely.
    RatioForm,
}

/// Fair-CO₂'s interference-aware attribution (Section 5.2).
///
/// Both weightings condition only on *historical* colocation profiles
/// (α/β-style statistics), never on the current — lucky or unlucky —
/// pairing; see [`AdjustmentKind`] for the two estimators.
#[derive(Debug, Clone, Default)]
pub struct FairCo2Colocation {
    /// Per-instance historical profiles; `None` = derive full-history
    /// profiles from the accounting context's interference model.
    profiles: Option<Vec<InterferenceProfile>>,
    kind: AdjustmentKind,
}

impl FairCo2Colocation {
    /// Uses the complete pairwise history for every workload (the
    /// 100 %-sampling-rate configuration) with the marginal estimator.
    pub fn with_full_history() -> Self {
        Self {
            profiles: None,
            kind: AdjustmentKind::Marginal,
        }
    }

    /// Uses externally sampled (possibly sparse) historical profiles, one
    /// per workload instance in scenario order, with the marginal
    /// estimator.
    pub fn with_profiles(profiles: Vec<InterferenceProfile>) -> Self {
        Self {
            profiles: Some(profiles),
            kind: AdjustmentKind::Marginal,
        }
    }

    /// Switches the weighting scheme (builder-style).
    pub fn adjustment(mut self, kind: AdjustmentKind) -> Self {
        self.kind = kind;
        self
    }

    /// Attributes with *borrowed* per-instance profiles, writing into a
    /// reusable share vector. This is the hot-loop entry point for Monte
    /// Carlo studies: the caller keeps one profile buffer and one share
    /// buffer per worker and never clones either. Bit-identical to
    /// constructing the attributor via
    /// [`with_profiles`](Self::with_profiles) and calling
    /// [`attribute`](ColocationAttributor::attribute).
    ///
    /// # Errors
    ///
    /// Returns [`ColocationError::ProfileMismatch`] when `profiles` does
    /// not match the scenario's workload count.
    pub fn attribute_profiles_into(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
        profiles: &[InterferenceProfile],
        out: &mut Vec<f64>,
    ) -> Result<(), ColocationError> {
        let workloads = scenario.workloads();
        if profiles.len() != workloads.len() {
            return Err(ColocationError::ProfileMismatch {
                profiles: profiles.len(),
                workloads: workloads.len(),
            });
        }
        attribute_with_profiles(self.kind, scenario, &workloads, profiles, ctx, out);
        Ok(())
    }
}

/// Shared core of the Fair-CO₂ paths: all inputs validated, profiles
/// borrowed.
fn attribute_with_profiles(
    kind: AdjustmentKind,
    scenario: &ColocationScenario,
    workloads: &[PlacedWorkload],
    profiles: &[InterferenceProfile],
    ctx: &NodeAccounting,
    out: &mut Vec<f64>,
) {
    let pools = scenario.carbon(ctx);
    match kind {
        AdjustmentKind::Marginal => {
            let phi = moment_shapley(workloads, profiles, ctx);
            let total: f64 = phi.iter().sum();
            let actual = pools.total();
            out.clear();
            out.extend(phi.iter().map(|p| actual * p / total));
        }
        AdjustmentKind::RatioForm => {
            let (fixed_w, dyn_w) = ratio_weights(workloads, profiles);
            split_pools_into(&pools, &fixed_w, &dyn_w, out);
        }
    }
}

impl ColocationAttributor for FairCo2Colocation {
    fn name(&self) -> &'static str {
        "fair-co2"
    }

    fn attribute_into(
        &self,
        scenario: &ColocationScenario,
        ctx: &NodeAccounting,
        out: &mut Vec<f64>,
    ) -> Result<(), ColocationError> {
        let workloads = scenario.workloads();
        match &self.profiles {
            Some(p) => {
                if p.len() != workloads.len() {
                    return Err(ColocationError::ProfileMismatch {
                        profiles: p.len(),
                        workloads: workloads.len(),
                    });
                }
                attribute_with_profiles(self.kind, scenario, &workloads, p, ctx, out);
            }
            None => {
                let profiles: Vec<InterferenceProfile> = workloads
                    .iter()
                    .map(|w| full_profile(ctx.interference(), w.kind))
                    .collect();
                attribute_with_profiles(self.kind, scenario, &workloads, &profiles, ctx, out);
            }
        }
        Ok(())
    }
}

/// Shrinkage strength of the sparse-history estimator: a profile built
/// from `k` samples is blended with the population mean at weight
/// `k : λ`. Chosen so one historical sample already moves the estimate
/// substantially (the paper's "even one sample is sufficient") while
/// damping its noise.
const HISTORY_SHRINKAGE: f64 = 1.0;

/// The moment estimator: evaluates the exact matching-game Shapley
/// formula ([`shapley_from_moments`]) at historically estimated moments.
///
/// Each workload's isolated node cost `A_i` is known from its own
/// profile; its mean pair cost `D̄_i` is reconstructed from the sampled
/// history — fixed costs from the observed node-seconds statistic of the
/// active [`OccupancyModel`], dynamic costs from the observed own and
/// partner energies — with empirical-Bayes shrinkage toward the
/// population mean for sparse histories. Resulting values are floored at
/// a small positive share before normalization.
fn moment_shapley(
    workloads: &[PlacedWorkload],
    profiles: &[InterferenceProfile],
    ctx: &NodeAccounting,
) -> Vec<f64> {
    let n = profiles.len() as f64;
    let fixed_rate = ctx.server().embodied_rates().node_per_second.as_grams()
        + ctx.server().power.idle.as_watts() * ctx.grid().as_g_per_joule();
    let energy_rate = ctx.grid().as_g_per_joule();
    let shrink = |value: f64, pop: f64, k: usize| {
        (k as f64 * value + HISTORY_SHRINKAGE * pop) / (k as f64 + HISTORY_SHRINKAGE)
    };

    // Population means of the noisy, history-estimated statistics.
    let pop_alpha_rt = profiles.iter().map(|p| p.alpha_runtime).sum::<f64>() / n;
    let pop_alpha_e = profiles.iter().map(|p| p.alpha_energy).sum::<f64>() / n;
    let pop_infl_rt = profiles
        .iter()
        .map(|p| p.mean_inflicted_extra_runtime_s)
        .sum::<f64>()
        / n;
    let pop_infl_e = profiles
        .iter()
        .map(|p| p.mean_inflicted_extra_energy_j)
        .sum::<f64>()
        / n;
    let pop_occ = profiles.iter().map(|p| p.mean_occupancy_s).sum::<f64>() / n;

    // Partner *base* terms need no history at all: the attributor knows
    // the isolated profiles of the tenant population it is attributing.
    let total_rt: f64 = workloads.iter().map(|w| w.kind.profile().runtime_s).sum();
    let total_e: f64 = workloads
        .iter()
        .map(|w| w.kind.profile().dynamic_energy_j())
        .sum();

    let isolated: Vec<f64> = workloads
        .iter()
        .map(|w| {
            let p = w.kind.profile();
            fixed_rate * p.runtime_s + energy_rate * p.dynamic_energy_j()
        })
        .collect();
    let mean_pair: Vec<f64> = workloads
        .iter()
        .zip(profiles)
        .map(|(w, p)| {
            let prof = w.kind.profile();
            let partner_base_rt = (total_rt - prof.runtime_s) / (n - 1.0).max(1.0);
            let partner_base_e = (total_e - prof.dynamic_energy_j()) / (n - 1.0).max(1.0);
            let own_rt = prof.runtime_s * shrink(p.alpha_runtime, pop_alpha_rt, p.samples);
            let partner_rt =
                partner_base_rt + shrink(p.mean_inflicted_extra_runtime_s, pop_infl_rt, p.samples);
            let node_seconds = match ctx.occupancy() {
                OccupancyModel::SlotSeconds => (own_rt + partner_rt) / 2.0,
                // The max-based statistic does not decompose; use the
                // directly observed (noisier) occupancy moment.
                OccupancyModel::WholeNodeMax => shrink(p.mean_occupancy_s, pop_occ, p.samples),
            };
            let own_e = prof.dynamic_energy_j() * shrink(p.alpha_energy, pop_alpha_e, p.samples);
            let partner_e =
                partner_base_e + shrink(p.mean_inflicted_extra_energy_j, pop_infl_e, p.samples);
            fixed_rate * node_seconds + energy_rate * (own_e + partner_e)
        })
        .collect();
    let phi = shapley_from_moments(&isolated, &mean_pair);
    // Degenerate histories could yield non-positive marginals; floor at a
    // sliver of the average share so normalization stays meaningful.
    let mean_phi = phi.iter().sum::<f64>() / n;
    phi.iter().map(|p| p.max(0.01 * mean_phi.abs())).collect()
}

/// The literal Eq. 8 / Eq. 10 ratio weights.
fn ratio_weights(
    workloads: &[PlacedWorkload],
    profiles: &[InterferenceProfile],
) -> (Vec<f64>, Vec<f64>) {
    let fixed = workloads
        .iter()
        .zip(profiles)
        .map(|(w, prof)| (prof.alpha_runtime + prof.beta_runtime) * w.kind.profile().runtime_s)
        .collect();
    let dynamic = workloads
        .iter()
        .zip(profiles)
        .map(|(w, prof)| {
            let p = w.kind.profile();
            (prof.alpha_energy + prof.beta_energy) * p.dynamic_power_w * p.runtime_s
        })
        .collect();
    (fixed, dynamic)
}

/// Splits the fixed pools (embodied + static) by `fixed_w` and the
/// dynamic pool by `dyn_w`, writing one share per workload into `out`
/// (cleared first).
fn split_pools_into(pools: &ScenarioCarbon, fixed_w: &[f64], dyn_w: &[f64], out: &mut Vec<f64>) {
    let fixed_pool = pools.embodied + pools.static_operational;
    let fixed_total: f64 = fixed_w.iter().sum();
    let dyn_total: f64 = dyn_w.iter().sum();
    out.clear();
    out.extend(fixed_w.iter().zip(dyn_w).map(|(&fw, &dw)| {
        let fixed = if fixed_total > 0.0 {
            fixed_pool * fw / fixed_total
        } else {
            0.0
        };
        let dynamic = if dyn_total > 0.0 {
            pools.dynamic_operational * dw / dyn_total
        } else {
            0.0
        };
        fixed + dynamic
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairco2_carbon::units::CarbonIntensity;
    use fairco2_shapley::MatchingGame;
    use proptest::prelude::*;
    use WorkloadKind::*;

    fn ctx() -> NodeAccounting {
        NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(250.0))
    }

    fn scenario() -> ColocationScenario {
        ColocationScenario::pair_in_order(&[Nbody, Ch, Ddup, Spark, Pg10]).unwrap()
    }

    fn methods() -> Vec<Box<dyn ColocationAttributor>> {
        vec![
            Box::new(GroundTruthMatching),
            Box::new(RupColocation),
            Box::new(FairCo2Colocation::with_full_history()),
        ]
    }

    #[test]
    fn pair_in_order_places_odd_tail_isolated() {
        let s = scenario();
        assert_eq!(s.placements().len(), 3);
        assert_eq!(s.placements()[2], NodePlacement::Isolated(Pg10));
        let w = s.workloads();
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].partner, Some(Ch));
        assert_eq!(w[4].partner, None);
    }

    #[test]
    fn every_method_fully_attributes_actual_carbon() {
        let s = scenario();
        let ctx = ctx();
        let actual = s.carbon(&ctx).total();
        for m in methods() {
            let shares = m.attribute(&s, &ctx).unwrap();
            assert_eq!(shares.len(), 5);
            let total: f64 = shares.iter().sum();
            assert!(
                (total - actual).abs() < 1e-6 * actual,
                "{}: {total} vs {actual}",
                m.name()
            );
            assert!(shares.iter().all(|&v| v > 0.0), "{}", m.name());
        }
    }

    #[test]
    fn rup_overcharges_the_interference_victim() {
        // NBODY paired with CH: RUP charges NBODY for its stretched
        // occupancy; ground truth and Fair-CO₂ both correct for it.
        let s = ColocationScenario::pair_in_order(&[Nbody, Ch]).unwrap();
        let ctx = ctx();
        let truth = GroundTruthMatching.attribute(&s, &ctx).unwrap();
        let rup = RupColocation.attribute(&s, &ctx).unwrap();
        let fair = FairCo2Colocation::with_full_history()
            .attribute(&s, &ctx)
            .unwrap();
        assert!(rup[0] > truth[0], "RUP should overcharge NBODY");
        let rup_err = ((rup[0] - truth[0]) / truth[0]).abs();
        let fair_err = ((fair[0] - truth[0]) / truth[0]).abs();
        assert!(
            fair_err < rup_err,
            "fair {fair_err:.3} should beat RUP {rup_err:.3}"
        );
    }

    #[test]
    fn fair_co2_tracks_ground_truth_closer_on_average() {
        let s = scenario();
        let ctx = ctx();
        let truth = GroundTruthMatching.attribute(&s, &ctx).unwrap();
        let rup = RupColocation.attribute(&s, &ctx).unwrap();
        let fair = FairCo2Colocation::with_full_history()
            .attribute(&s, &ctx)
            .unwrap();
        let mean_dev = |m: &[f64]| {
            m.iter()
                .zip(&truth)
                .map(|(a, b)| ((a - b) / b).abs())
                .sum::<f64>()
                / m.len() as f64
        };
        assert!(
            mean_dev(&fair) < mean_dev(&rup),
            "fair {:.4} rup {:.4}",
            mean_dev(&fair),
            mean_dev(&rup)
        );
    }

    #[test]
    fn isolated_single_workload_gets_everything() {
        let s = ColocationScenario::pair_in_order(&[Llama]).unwrap();
        let ctx = ctx();
        let actual = s.carbon(&ctx).total();
        for m in methods() {
            let shares = m.attribute(&s, &ctx).unwrap();
            assert_eq!(shares.len(), 1);
            assert!((shares[0] - actual).abs() < 1e-9, "{}", m.name());
        }
    }

    #[test]
    fn attribute_into_is_bit_identical_to_attribute() {
        let s = scenario();
        let ctx = ctx();
        let mut out = vec![f64::NAN; 32]; // stale contents must be cleared
        for m in methods() {
            let fresh = m.attribute(&s, &ctx).unwrap();
            m.attribute_into(&s, &ctx, &mut out).unwrap();
            assert_eq!(out.len(), fresh.len(), "{}", m.name());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", m.name());
            }
        }
        // The ratio-form ablation goes through split_pools_into too.
        let ratio = FairCo2Colocation::with_full_history().adjustment(AdjustmentKind::RatioForm);
        let fresh = ratio.attribute(&s, &ctx).unwrap();
        ratio.attribute_into(&s, &ctx, &mut out).unwrap();
        assert_eq!(out, fresh);
    }

    #[test]
    fn borrowed_profiles_path_is_bit_identical_to_owned() {
        let s = scenario();
        let ctx = ctx();
        let profiles: Vec<InterferenceProfile> = s
            .workloads()
            .iter()
            .map(|w| full_profile(ctx.interference(), w.kind))
            .collect();
        let owned = FairCo2Colocation::with_profiles(profiles.clone())
            .attribute(&s, &ctx)
            .unwrap();
        let mut out = Vec::new();
        FairCo2Colocation::with_full_history()
            .attribute_profiles_into(&s, &ctx, &profiles, &mut out)
            .unwrap();
        for (a, b) in out.iter().zip(&owned) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Mismatched profile count is rejected, matching with_profiles.
        let err = FairCo2Colocation::with_full_history().attribute_profiles_into(
            &s,
            &ctx,
            &profiles[..2],
            &mut out,
        );
        assert_eq!(
            err,
            Err(ColocationError::ProfileMismatch {
                profiles: 2,
                workloads: 5
            })
        );
    }

    #[test]
    fn profile_mismatch_is_rejected() {
        let s = scenario();
        let err = FairCo2Colocation::with_profiles(vec![]).attribute(&s, &ctx());
        assert_eq!(
            err,
            Err(ColocationError::ProfileMismatch {
                profiles: 0,
                workloads: 5
            })
        );
    }

    /// The ground truth over the full n×n pair matrix, solved by the
    /// matching game itself: the reference for the kind-pair table.
    fn pair_matrix_truth(scenario: &ColocationScenario, ctx: &NodeAccounting) -> Vec<f64> {
        let kinds: Vec<WorkloadKind> = scenario.workloads().iter().map(|w| w.kind).collect();
        let isolated = kinds.iter().map(|&k| ctx.isolated(k).total()).collect();
        let n = kinds.len();
        let mut pair = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let cost = ctx.pair(kinds[i], kinds[j]).total();
                pair[i][j] = cost;
                pair[j][i] = cost;
            }
        }
        let phi = MatchingGame::new(isolated, pair).shapley();
        let phi_total: f64 = phi.iter().sum();
        let actual = scenario.carbon(ctx).total();
        phi.iter().map(|p| actual * p / phi_total).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Costing each kind pair once gives the pair matrix's shares bit
        /// for bit: on kind lists of 1–100 workloads with repeats, and on
        /// explicit placements that pair a kind with itself.
        #[test]
        fn kind_pair_table_matches_the_pair_matrix_bitwise(
            listed in prop::collection::vec(0usize..ALL_WORKLOADS.len(), 1..=100),
            placed in prop::collection::vec(
                (0usize..ALL_WORKLOADS.len(), 0usize..ALL_WORKLOADS.len(), 0usize..3),
                1..=40,
            ),
            grid in 0.0f64..=1000.0,
        ) {
            let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(grid));
            let kinds: Vec<WorkloadKind> = listed.iter().map(|&k| ALL_WORKLOADS[k]).collect();
            let placements = placed
                .iter()
                .map(|&(a, b, shape)| match shape {
                    0 => NodePlacement::Pair(ALL_WORKLOADS[a], ALL_WORKLOADS[b]),
                    1 => NodePlacement::Pair(ALL_WORKLOADS[a], ALL_WORKLOADS[a]),
                    _ => NodePlacement::Isolated(ALL_WORKLOADS[a]),
                })
                .collect();
            for scenario in [
                ColocationScenario::pair_in_order(&kinds).unwrap(),
                ColocationScenario::new(placements).unwrap(),
            ] {
                let got = GroundTruthMatching.attribute(&scenario, &ctx).unwrap();
                let want = pair_matrix_truth(&scenario, &ctx);
                prop_assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "workload {}: {} vs {}", i, g, w);
                }
            }
        }
    }

    #[test]
    fn empty_scenario_is_rejected() {
        assert_eq!(
            ColocationScenario::new(vec![]),
            Err(ColocationError::EmptyScenario)
        );
        assert_eq!(
            ColocationScenario::pair_in_order(&[]),
            Err(ColocationError::EmptyScenario)
        );
    }
}
