//! **The VM trace generator** — the synthetic stand-in for the Azure 2017
//! VM trace, from a few thousand VMs (the VM-replay example) to the
//! ~2M-VM Azure-scale study.
//!
//! The arrival model follows Hadary et al.'s observation that most VMs
//! live minutes while a long tail runs almost indefinitely: short-lived
//! VMs arrive as an inhomogeneous Poisson process whose rate peaks in
//! the evening, draw log-normal lifetimes clamped to between one minute
//! and six hours, and reserve power-of-two core counts; a fixed set of
//! long-running VMs spans the whole horizon. Every minute bucket owns an
//! independent RNG seeded by a splitmix64 hash of `(seed, bucket)`:
//!
//! * **chunk- and thread-invariant** — a bucket's VMs depend only on
//!   `(seed, bucket)`, so any partition of the bucket range into chunks,
//!   batches, or threads yields bit-identical events;
//! * **streaming** — consumers visit VMs with [`ScaleVmConfig::for_each_vm_in`]
//!   without ever materializing the population, so peak RSS is bounded by
//!   the consumer's own state (the study bins lean on this);
//! * **materialized on request** — [`ScaleVmConfig::collect_events`]
//!   gathers the whole population, the same at any thread count, and
//!   [`VmPopulation::demand_series`] sweeps its aggregate core demand.
//!
//! Large arrival rates are thinned into one-second sub-buckets
//! (`Poisson(λ) = Σ₆₀ Poisson(λ/60)`), which keeps Knuth's product-method
//! sampler in its exact small-mean regime even at 2M VMs per fortnight
//! and makes the emitted stream non-decreasing in start time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use crate::vms::{VmEvent, VmPopulation};

/// Salt folded into the seed for the per-VM tag stream, keeping tags
/// decorrelated from the generation draws.
const TAG_STREAM: u64 = 0x7A67_5F73_7472_6561;

/// splitmix64-style finalizer: hashes `(seed, lane)` to an independent
/// stream seed. Adjacent lanes land in unrelated states, so per-bucket
/// `StdRng`s are effectively independent.
fn lane_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-minute arrival rates over one day: the evening-peaking cosine
/// that modulates arrivals, evaluated once per distinct minute-of-day
/// (each costs a cosine, and a day has only 1,440 of them).
fn diurnal_rate_table(vms_per_hour: f64, amplitude: f64) -> Vec<f64> {
    (0..1440)
        .map(|minute| {
            let hour = (minute * 60) as f64 / 3600.0;
            let phase = (hour - 18.0) / 24.0 * std::f64::consts::TAU;
            (vms_per_hour / 60.0 * (1.0 + amplitude * phase.cos())).max(0.0)
        })
        .collect()
}

/// Small-mean Poisson sampler (Knuth's product method), exact and fast
/// for means ≪ 30 — the regime every draw stays in, because
/// [`ScaleVmConfig::for_each_vm_in`] thins each minute's rate into
/// one-second sub-buckets.
fn poisson_knuth(rng: &mut impl Rng, mean: f64) -> u32 {
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // unreachable for sane rates; guards infinite loops
        }
    }
}

/// Configuration of the chunked, deterministic VM trace generator.
///
/// The defaults describe a fortnight at roughly 2M VMs;
/// [`ScaleVmConfig::for_total_vms`] sizes the arrival rate for any
/// expected population, and struct-update syntax overrides the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleVmConfig {
    /// Horizon in days.
    pub horizon_days: u32,
    /// Mean short-VM arrival rate per hour, before diurnal modulation.
    pub vms_per_hour: f64,
    /// Horizon-spanning long-running VMs.
    pub long_vm_count: usize,
    /// Median short-VM lifetime (seconds).
    pub lifetime_median_s: f64,
    /// Log-normal sigma of short-VM lifetimes.
    pub lifetime_sigma: f64,
    /// Relative amplitude of the diurnal arrival modulation.
    pub diurnal_amplitude: f64,
    /// Cores drawn uniformly per VM (powers of two keep demand sums exact).
    pub core_choices: Vec<f64>,
    /// Base RNG seed; every bucket derives its own stream from it.
    pub seed: u64,
}

impl Default for ScaleVmConfig {
    fn default() -> Self {
        Self::for_total_vms(2_000_000, 14)
    }
}

impl ScaleVmConfig {
    /// A config whose *expected* short-VM count over `days` is `total`
    /// (the diurnal cosine integrates to zero over each day).
    pub fn for_total_vms(total: u64, days: u32) -> Self {
        assert!(days > 0, "horizon must cover at least a day");
        Self {
            horizon_days: days,
            vms_per_hour: total as f64 / (24.0 * f64::from(days)),
            long_vm_count: 400,
            lifetime_median_s: 600.0,
            lifetime_sigma: 1.2,
            diurnal_amplitude: 0.5,
            core_choices: vec![2.0, 4.0, 8.0, 16.0],
            seed: 0x0005_EED5_CA1E,
        }
    }

    /// Horizon in seconds.
    pub fn horizon_s(&self) -> i64 {
        i64::from(self.horizon_days) * 86_400
    }

    /// Number of one-minute arrival buckets in the horizon.
    pub fn buckets(&self) -> u64 {
        (self.horizon_s() / 60) as u64
    }

    /// The long-running VMs (deterministic in the seed alone).
    pub fn long_vms(&self) -> Vec<VmEvent> {
        let horizon_s = self.horizon_s();
        let mut rng = StdRng::seed_from_u64(lane_seed(self.seed, u64::MAX));
        (0..self.long_vm_count)
            .map(|_| VmEvent {
                start: 0,
                end: horizon_s,
                cores: self.core_choices[rng.gen_range(0..self.core_choices.len())],
            })
            .collect()
    }

    /// Streams every short VM whose arrival bucket lies in
    /// `[bucket_lo, bucket_hi)` to `visit(bucket, k, vm)`, where `k`
    /// numbers the VMs within their bucket.
    ///
    /// The VMs of a bucket depend only on `(seed, bucket)`, so any
    /// chunking of the bucket range — batches, shards, threads — streams
    /// bit-identical events, and within the full range events arrive in
    /// non-decreasing start order.
    pub fn for_each_vm_in(
        &self,
        bucket_lo: u64,
        bucket_hi: u64,
        mut visit: impl FnMut(u64, u32, VmEvent),
    ) {
        let horizon_s = self.horizon_s();
        let bucket_hi = bucket_hi.min(self.buckets());
        let rate_table = diurnal_rate_table(self.vms_per_hour, self.diurnal_amplitude);
        let lifetime = LogNormal::new(self.lifetime_median_s.ln(), self.lifetime_sigma)
            .expect("finite lognormal parameters");
        for bucket in bucket_lo..bucket_hi {
            let mut rng = StdRng::seed_from_u64(lane_seed(self.seed, bucket));
            let t = bucket as i64 * 60;
            // Thin the minute rate into 60 one-second sub-buckets: the sum
            // of independent Poisson(λ/60) draws is exactly Poisson(λ),
            // and Knuth's sampler stays in its small-mean regime at any
            // fleet size. Arrivals inherit their sub-bucket second, so the
            // stream is already ordered by start time.
            let rate_per_s = rate_table[(bucket % 1440) as usize] / 60.0;
            let mut k = 0u32;
            for second in 0..60i64 {
                let arrivals = poisson_knuth(&mut rng, rate_per_s);
                for _ in 0..arrivals {
                    let start = t + second;
                    let life = lifetime.sample(&mut rng).clamp(60.0, 6.0 * 3600.0);
                    let cores = self.core_choices[rng.gen_range(0..self.core_choices.len())];
                    visit(
                        bucket,
                        k,
                        VmEvent {
                            start,
                            end: (start + life as i64).min(horizon_s),
                            cores,
                        },
                    );
                    k += 1;
                }
            }
        }
    }

    /// A deterministic 64-bit tag for the `k`-th VM of `bucket` —
    /// independent of the generation draws, stable across chunkings. The
    /// study bins hash it into tenant / home-region / deferrability
    /// assignments.
    pub fn vm_tag(&self, bucket: u64, k: u32) -> u64 {
        lane_seed(self.seed ^ TAG_STREAM, (bucket << 24) ^ u64::from(k))
    }

    /// Materializes the full population (long VMs first, then short VMs
    /// in bucket order), generating bucket chunks on `threads` workers.
    ///
    /// The result is identical at any thread count: chunk outputs are
    /// concatenated in bucket order regardless of which worker produced
    /// them. Start times are non-decreasing by construction.
    pub fn collect_events(&self, threads: usize) -> VmPopulation {
        let mut vms = self.long_vms();
        let chunks = self.map_bucket_chunks(threads, |lo, hi| {
            let mut out = Vec::new();
            self.for_each_vm_in(lo, hi, |_, _, vm| out.push(vm));
            out
        });
        vms.reserve(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            vms.extend_from_slice(&chunk);
        }
        VmPopulation::from_events(vms, self.horizon_s())
    }

    /// Splits the bucket range into `threads` contiguous chunks and maps
    /// `work(lo, hi)` over them on scoped threads, returning results in
    /// chunk order (so callers see a thread-count-independent layout).
    ///
    /// Local to this crate: `fairco2-shapley`'s `run_parallel` lives
    /// downstream of `fairco2-trace` in the dependency graph.
    fn map_bucket_chunks<T: Send>(
        &self,
        threads: usize,
        work: impl Fn(u64, u64) -> T + Sync,
    ) -> Vec<T> {
        let buckets = self.buckets();
        let threads = threads.max(1).min(buckets.max(1) as usize);
        let chunk = buckets.div_ceil(threads as u64).max(1);
        let ranges: Vec<(u64, u64)> = (0..threads as u64)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(buckets)))
            .collect();
        if threads == 1 {
            return ranges.into_iter().map(|(lo, hi)| work(lo, hi)).collect();
        }
        let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let work = &work;
            let mut handles = Vec::with_capacity(threads);
            for (slot, &(lo, hi)) in slots.iter_mut().zip(&ranges) {
                handles.push(scope.spawn(move || *slot = Some(work(lo, hi))));
            }
            let panicked: Vec<bool> = handles.into_iter().map(|h| h.join().is_err()).collect();
            assert!(!panicked.contains(&true), "generation worker panicked");
        });
        slots
            .into_iter()
            .map(|s| s.expect("every chunk slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleVmConfig {
        let mut cfg = ScaleVmConfig::for_total_vms(6_000, 2);
        cfg.long_vm_count = 8;
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn generation_is_chunk_invariant() {
        let cfg = small();
        let mut whole = Vec::new();
        cfg.for_each_vm_in(0, cfg.buckets(), |b, k, vm| whole.push((b, k, vm)));
        let mut chunked = Vec::new();
        let mut lo = 0u64;
        for width in [1u64, 7, 60, 311, 1000].iter().cycle() {
            if lo >= cfg.buckets() {
                break;
            }
            let hi = (lo + width).min(cfg.buckets());
            cfg.for_each_vm_in(lo, hi, |b, k, vm| chunked.push((b, k, vm)));
            lo = hi;
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn collected_events_are_thread_invariant_and_sorted() {
        let cfg = small();
        let one = cfg.collect_events(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(one, cfg.collect_events(threads), "threads {threads}");
        }
        assert!(one.vms().windows(2).all(|w| w[0].start <= w[1].start));
        let mut streamed = 0usize;
        cfg.for_each_vm_in(0, cfg.buckets(), |_, _, _| streamed += 1);
        assert_eq!(one.vms().len(), cfg.long_vm_count + streamed);
    }

    #[test]
    fn expected_total_is_roughly_met() {
        let cfg = small();
        let n = cfg.collect_events(2).vms().len() - cfg.long_vm_count;
        assert!(
            (n as f64) > 5_000.0 && (n as f64) < 7_000.0,
            "generated {n} VMs"
        );
    }

    #[test]
    fn tags_are_deterministic_and_spread() {
        let cfg = small();
        assert_eq!(cfg.vm_tag(17, 3), cfg.vm_tag(17, 3));
        assert_ne!(cfg.vm_tag(17, 3), cfg.vm_tag(17, 4));
        assert_ne!(cfg.vm_tag(17, 3), cfg.vm_tag(18, 3));
        // Tags are independent of the generation stream.
        let mut other = cfg.clone();
        other.vms_per_hour *= 2.0;
        assert_eq!(cfg.vm_tag(5, 0), other.vm_tag(5, 0));
    }
}
