//! VM populations: individual VM lifetimes that aggregate to a fleet
//! demand curve.
//!
//! Hadary et al. (Protean, OSDI '20) — cited by the paper when analyzing
//! Temporal Shapley's limits — observe that *most VMs live only minutes*
//! while a long tail runs almost indefinitely. The generator in
//! [`crate::scale`] draws such populations; this module holds what it
//! draws — [`VmEvent`]s gathered into a [`VmPopulation`] — and sweeps a
//! population's aggregate core demand, exactly the sum of the live VMs.
//! `fairco2-core`'s `Schedule::from_vm_population` turns a population
//! into a demand schedule, and the VM-replay example prices one with
//! Temporal Shapley.

use serde::{Deserialize, Serialize};

use crate::series::TimeSeries;

/// One virtual machine: a core reservation over `[start, end)` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmEvent {
    /// Creation time (UNIX seconds).
    pub start: i64,
    /// Deletion time (UNIX seconds, exclusive).
    pub end: i64,
    /// Reserved cores.
    pub cores: f64,
}

impl VmEvent {
    /// Lifetime in seconds.
    pub fn lifetime_s(&self) -> f64 {
        (self.end - self.start) as f64
    }

    /// Core-seconds reserved.
    pub fn core_seconds(&self) -> f64 {
        self.cores * self.lifetime_s()
    }
}

/// A generated VM population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmPopulation {
    vms: Vec<VmEvent>,
    horizon_s: i64,
}

impl VmPopulation {
    /// Wraps externally generated events (e.g. the chunked streaming
    /// generator in [`crate::scale`]) as a population.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not positive.
    pub fn from_events(vms: Vec<VmEvent>, horizon_s: i64) -> Self {
        assert!(horizon_s > 0, "horizon must be positive");
        Self { vms, horizon_s }
    }

    /// Sorts the events by start time (then end, then cores) and returns
    /// the population.
    ///
    /// The comparator works on the precomputed integer start times stored
    /// in each event — no per-comparison key derivation — and uses
    /// `sort_unstable_by` (events are `Copy`; stability is irrelevant once
    /// the full key breaks ties deterministically).
    pub fn sorted_by_start(mut self) -> Self {
        self.vms.sort_unstable_by(|a, b| {
            (a.start, a.end, a.cores)
                .partial_cmp(&(b.start, b.end, b.cores))
                .expect("core counts are finite")
        });
        self
    }

    /// The individual VMs.
    pub fn vms(&self) -> &[VmEvent] {
        &self.vms
    }

    /// Horizon covered, in seconds.
    pub fn horizon_s(&self) -> i64 {
        self.horizon_s
    }

    /// VMs whose lifetime is below `threshold_s`.
    pub fn short_lived(&self, threshold_s: f64) -> impl Iterator<Item = &VmEvent> {
        self.vms
            .iter()
            .filter(move |v| v.lifetime_s() < threshold_s)
    }

    /// Aggregate core demand sampled at `step` seconds — by construction
    /// the exact sum of live reservations in each bucket (sampled at the
    /// bucket start).
    ///
    /// Runs as an `O(V + T)` difference-array event sweep: each VM
    /// contributes `+cores` at its first bucket and `−cores` past its
    /// last, and one prefix pass recovers the per-bucket level. Core
    /// counts are small powers of two, so the sweep's sums are exact and
    /// agree bit-for-bit with a naive `O(V · lifetime)` per-VM
    /// bucket-overlap accumulation (pinned in this module's tests).
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn demand_series(&self, step: u32) -> TimeSeries {
        assert!(step > 0, "sampling step must be positive");
        let len = (self.horizon_s / i64::from(step)) as usize;
        // Sweep-line: +cores at start, −cores at end, then prefix-sum.
        let mut delta = vec![0.0f64; len + 1];
        for vm in &self.vms {
            let s = (vm.start / i64::from(step)) as usize;
            let e = ((vm.end + i64::from(step) - 1) / i64::from(step)) as usize;
            delta[s.min(len)] += vm.cores;
            delta[e.min(len)] -= vm.cores;
        }
        let mut level = 0.0;
        let values: Vec<f64> = delta[..len]
            .iter()
            .map(|d| {
                level += d;
                level
            })
            .collect();
        TimeSeries::from_values(0, step, values).expect("horizon ≥ one bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleVmConfig;

    /// `days` of 120 short VMs per hour plus 40 horizon-spanning VMs.
    fn population(seed: u64, days: u32) -> VmPopulation {
        ScaleVmConfig {
            long_vm_count: 40,
            seed,
            ..ScaleVmConfig::for_total_vms(2_880 * u64::from(days), days)
        }
        .collect_events(1)
    }

    #[test]
    fn most_vms_are_short_lived() {
        let pop = population(1, 3);
        let short = pop.short_lived(3600.0).count();
        let total = pop.vms().len();
        assert!(
            short as f64 > 0.6 * total as f64,
            "only {short} of {total} short"
        );
        // ...but long-running VMs dominate core-seconds (the long tail).
        let long_cs: f64 = pop
            .vms()
            .iter()
            .filter(|v| v.lifetime_s() >= 86_400.0)
            .map(VmEvent::core_seconds)
            .sum();
        let total_cs: f64 = pop.vms().iter().map(VmEvent::core_seconds).sum();
        assert!(
            long_cs / total_cs > 0.3,
            "long share {}",
            long_cs / total_cs
        );
    }

    #[test]
    fn generation_is_deterministic() {
        // Every collection draws the population afresh from the seed.
        assert_eq!(population(3, 3), population(3, 3));
        assert_ne!(population(3, 3), population(4, 3));
    }

    #[test]
    fn long_vms_span_the_horizon() {
        // Short lifetimes are clamped to six hours, so exactly the
        // long-running VMs span the horizon.
        let pop = population(1, 3);
        let spanning = pop
            .vms()
            .iter()
            .filter(|v| v.start == 0 && v.end == pop.horizon_s())
            .count();
        assert_eq!(spanning, 40);
    }

    /// The pre-sweep reference: walk every VM and add its cores to every
    /// bucket it overlaps — `O(V · lifetime)`. Retained test-only to pin
    /// the `O(V + T)` difference-array sweep.
    fn naive_demand_series(pop: &VmPopulation, step: u32) -> TimeSeries {
        let len = (pop.horizon_s() / i64::from(step)) as usize;
        let mut values = vec![0.0f64; len];
        for vm in pop.vms() {
            let first = (vm.start / i64::from(step)) as usize;
            let last = ((vm.end + i64::from(step) - 1) / i64::from(step)) as usize;
            for bucket in values.iter_mut().take(last.min(len)).skip(first.min(len)) {
                *bucket += vm.cores;
            }
        }
        TimeSeries::from_values(0, step, values).expect("horizon ≥ one bucket")
    }

    #[test]
    fn sweep_matches_naive_bucket_overlap_on_default_population() {
        // Core counts are powers of two, so both accumulation orders are
        // exact integer arithmetic: the pin is bit-for-bit over every
        // bucket of the seeded population.
        let pop = population(1, 3);
        for step in [300u32, 3_600] {
            let sweep = pop.demand_series(step);
            let naive = naive_demand_series(&pop, step);
            assert_eq!(sweep.len(), naive.len());
            for (k, (a, b)) in sweep.values().iter().zip(naive.values()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step} bucket {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn demand_series_matches_manual_count() {
        let pop = population(1, 3);
        let series = pop.demand_series(300);
        // Check one bucket against a direct count.
        let t = 36_000i64;
        let expected: f64 = pop
            .vms()
            .iter()
            .filter(|v| {
                let bucket_start = t;
                let bucket_end = t + 300;
                v.start < bucket_end && v.end > bucket_start
            })
            .map(|v| v.cores)
            .sum();
        let got = series.value_at(t).unwrap();
        // The sweep counts a VM for any bucket it overlaps, so the values
        // agree exactly.
        assert!(
            (got - expected).abs() < 1e-9,
            "got {got} expected {expected}"
        );
    }

    #[test]
    fn arrival_rate_is_diurnal() {
        let pop = population(7, 4);
        let mut evening = 0usize;
        let mut morning = 0usize;
        for vm in pop.short_lived(6.0 * 3600.0) {
            let hour = (vm.start % 86_400) / 3600;
            if (17..21).contains(&hour) {
                evening += 1;
            }
            if (5..9).contains(&hour) {
                morning += 1;
            }
        }
        assert!(
            evening as f64 > 1.3 * morning as f64,
            "evening {evening} morning {morning}"
        );
    }

    #[test]
    fn sorted_by_start_orders_events_and_keeps_the_multiset() {
        // Collected events are already in start order: reverse them so
        // the sort has work to do.
        let pop = population(1, 3);
        let mut reversed = pop.vms().to_vec();
        reversed.reverse();
        let sorted = VmPopulation::from_events(reversed, pop.horizon_s()).sorted_by_start();
        assert!(sorted.vms().windows(2).all(|w| w[0].start <= w[1].start));
        let mut a = pop.vms().to_vec();
        let mut b = sorted.vms().to_vec();
        let key = |v: &VmEvent| (v.start, v.end, v.cores.to_bits());
        a.sort_unstable_by_key(key);
        b.sort_unstable_by_key(key);
        assert_eq!(a, b);
    }
}
