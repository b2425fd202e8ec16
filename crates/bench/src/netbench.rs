//! The network-attribution fabric: a deterministic leaf/spine network
//! and tenant demands for the LP-valued coalition game on the vendored
//! revised simplex, shared by the benchmark's `lp` workload and the
//! gates below.
//!
//! Link prices come from [`LinkCarbonModel`] (operational + embodied
//! grams per GB, snapped to the dyadic grid), and capacities and tenant
//! demands are small integers — the exact-arithmetic regime in which
//! warm and cold simplex solves are bit-identical.
//!
//! Gates on this fabric (the unit tests, at 8 tenants):
//!
//! 1. **Duality gap** — every coalition routes, and every solve across
//!    the full lattice passes the independent KKT certificate with a
//!    scaled gap of at most 1e-9;
//! 2. **Warm bit-identity** — the warm-started lattice fill (each
//!    coalition started from its parent's optimal basis) equals the cold
//!    fill bit for bit;
//! 3. **Thread invariance** — `parallel_exact_shapley` at 1, 2, and 8
//!    threads is bit-identical to the serial solver;
//! 4. **Iteration savings** — warm-starting strictly reduces total
//!    simplex iterations versus cold.

use fairco2_carbon::network::LinkCarbonModel;
use fairco2_carbon::units::CarbonIntensity;
use fairco2_shapley::netgame::{Link, Network};

/// Grid intensities (gCO₂e/kWh) cycled across link classes so prices
/// differ per link but stay on the dyadic grid.
const LINK_INTENSITIES: [f64; 4] = [50.0, 125.0, 300.0, 475.0];

/// The benchmark fabric: five injection leaves, two spine aggregators,
/// one egress. Every leaf reaches both spines (contended, cheap) and
/// keeps an expensive direct backup to the egress, so every coalition
/// routes and the duality-gap gate covers the whole lattice.
pub fn benchmark_network() -> Network {
    const LEAVES: usize = 5;
    let spine_a = LEAVES; // node 5
    let spine_b = LEAVES + 1; // node 6
    let egress = LEAVES + 2; // node 7
    let price = |class: usize| {
        LinkCarbonModel::datacenter_default(CarbonIntensity::from_g_per_kwh(
            LINK_INTENSITIES[class % LINK_INTENSITIES.len()],
        ))
        .dyadic_grams_per_gb()
    };
    let mut links = Vec::new();
    for leaf in 0..LEAVES {
        links.push(Link {
            from: leaf,
            to: spine_a,
            capacity: (5 + (leaf * 3) % 4) as f64,
            carbon_per_unit: price(leaf),
        });
        links.push(Link {
            from: leaf,
            to: spine_b,
            capacity: (4 + (leaf * 5) % 5) as f64,
            carbon_per_unit: price(leaf + 1),
        });
        // Direct backup: generous capacity at roughly 8× the spine price
        // keeps the LP feasible while leaving it strictly worse than any
        // spine route.
        links.push(Link {
            from: leaf,
            to: egress,
            capacity: 64.0,
            carbon_per_unit: 8.0 * price(leaf + 2),
        });
    }
    // Spine downlinks are the shared bottlenecks coalitions contend for.
    links.push(Link {
        from: spine_a,
        to: egress,
        capacity: 13.0,
        carbon_per_unit: price(0),
    });
    links.push(Link {
        from: spine_b,
        to: egress,
        capacity: 11.0,
        carbon_per_unit: price(1),
    });
    // Cross link lets a loaded spine spill to the other.
    links.push(Link {
        from: spine_a,
        to: spine_b,
        capacity: 6.0,
        carbon_per_unit: price(2),
    });
    Network::new(LEAVES + 3, egress, links)
}

/// `tenants` demand vectors: small deterministic integer injections at
/// two leaves each, so coalitions overlap on the contended spines.
pub fn benchmark_demands(tenants: usize) -> Vec<Vec<f64>> {
    let nodes = 8;
    (0..tenants)
        .map(|t| {
            let mut d = vec![0.0f64; nodes];
            d[t % 5] += ((t * 7 + 3) % 3 + 1) as f64;
            d[(t * 3 + 1) % 5] += ((t * 5 + 1) % 2 + 1) as f64;
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairco2_shapley::coalition::Coalition;
    use fairco2_shapley::exact::{exact_shapley, parallel_exact_shapley};
    use fairco2_shapley::netgame::{CoalitionValue, NetworkCarbonGame};

    #[test]
    fn reduced_study_passes_all_gates() {
        const TENANTS: usize = 8;
        const GAP_TOLERANCE: f64 = 1e-9;
        let game = NetworkCarbonGame::new(benchmark_network(), benchmark_demands(TENANTS));

        // Gate 1: every coalition routes, and every solve passes the KKT
        // certificate with a duality gap within tolerance.
        for mask in 0..(1u64 << TENANTS) {
            let coalition = Coalition::from_mask(TENANTS, mask);
            match game.evaluate(&coalition) {
                CoalitionValue::Routed(sol) => {
                    let gap = game.certified_gap(&coalition, &sol).abs();
                    assert!(
                        gap <= GAP_TOLERANCE * (1.0 + sol.objective.abs()),
                        "duality gap {gap} above tolerance on mask {mask:#b}"
                    );
                }
                CoalitionValue::Unroutable { .. } => panic!("mask {mask:#b} is unroutable"),
            }
        }

        // Gate 2: warm lattice bit-identical to cold.
        let (cold_values, cold_stats) = game.fill_lattice_cold();
        let (warm_values, warm_stats) = game.fill_lattice_warm();
        assert_eq!(cold_stats.coalitions, 1 << TENANTS);
        for (mask, (c, w)) in cold_values.iter().zip(&warm_values).enumerate() {
            assert_eq!(
                c.to_bits(),
                w.to_bits(),
                "warm fill diverged from cold on mask {mask:#b}: {c} vs {w}"
            );
        }

        // Gate 3: parallel exact Shapley bit-identical at 1/2/8 threads.
        let serial_phi = exact_shapley(&game).expect("serial exact");
        for threads in [1usize, 2, 8] {
            let phi = parallel_exact_shapley(&game, threads).expect("parallel exact");
            for (p, (a, b)) in serial_phi.iter().zip(&phi).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "player {p} diverged at {threads} threads"
                );
            }
        }

        // Gate 4: warm-starting strictly reduces total simplex
        // iterations — the point of carrying the parent basis around.
        assert!(
            warm_stats.iterations < cold_stats.iterations,
            "warm fill took {} iterations vs cold {}",
            warm_stats.iterations,
            cold_stats.iterations
        );
    }

    #[test]
    fn benchmark_fabric_routes_every_singleton() {
        let game = NetworkCarbonGame::new(benchmark_network(), benchmark_demands(12));
        for t in 0..12 {
            let c = Coalition::from_mask(12, 1 << t);
            assert!(
                matches!(game.evaluate(&c), CoalitionValue::Routed(_)),
                "tenant {t} must route"
            );
        }
    }
}
