//! A deterministic-demand load harness: one ingest thread racing tenant
//! query threads against live epoch publication, behind the `serve`
//! binary and its smoke test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use fairco2_shapley::BillingQuery;

use crate::service::{AttributionService, ServeError, ServiceConfig};

/// Deterministic synthetic demand for sample `global_index`: quantized
/// to eighths (so peak ties occur, the hard case for max folds) and a
/// pure function of the index, so any recorded answer can be re-derived
/// later by replaying the same prefix.
pub fn demand_sample(global_index: u64, seed: u64) -> f64 {
    let mut x = global_index
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    ((x >> 16) % 16) as f64 / 8.0
}

/// SplitMix64 — the workers' query generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Load-run knobs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Wall-clock run length in milliseconds.
    pub duration_ms: u64,
    /// Concurrent tenant query threads.
    pub tenants: usize,
    /// Billing queries per batch.
    pub batch: usize,
    /// Ingestion stops after this many windows (the query side keeps
    /// running); bounds the retained window attributions on unthrottled
    /// CPUs.
    pub max_windows: u64,
    /// Demand / query randomness seed.
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            duration_ms: 2_000,
            tenants: 2,
            batch: 256,
            max_windows: 256,
            seed: 0x5EED,
        }
    }
}

/// What a load run did — the numbers the `serve` binary reports.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// Samples ingested.
    pub ingested_samples: u64,
    /// Windows closed == epochs published past epoch 0.
    pub windows_closed: u64,
    /// Billing queries answered across all tenants.
    pub queries_answered: u64,
    /// Query batches answered.
    pub batches_answered: u64,
    /// Engine primitive operations per ingested sample (amortized
    /// `O(levels)`, independent of machine speed).
    pub ops_per_sample: f64,
    /// Final epoch number.
    pub final_epoch: u64,
}

/// Runs `service` under concurrent ingest + query load and reports
/// what it did: samples ingested, windows closed, queries answered.
/// It records no timings; the benchmark's `billing` workload times the
/// service.
///
/// One writer thread ingests [`demand_sample`] values flat out (until
/// `max_windows`, then idles to the deadline); `tenants` reader threads
/// each loop: grab the latest epoch, generate a batch of random billing
/// queries over its covered range, answer them.
///
/// # Errors
///
/// Propagates [`ServeError`] from service startup or window
/// persistence.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_load(config: ServiceConfig, opts: &LoadOptions) -> Result<LoadReport, ServeError> {
    let mut service = AttributionService::start(config.clone())?;
    let handle = service.handle();
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let batches = AtomicU64::new(0);
    let started = Instant::now();
    let deadline_ms = opts.duration_ms;

    let mut ingest_error: Option<ServeError> = None;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for tenant in 0..opts.tenants {
            let handle = handle.clone();
            let stop = &stop;
            let queries = &queries;
            let batches = &batches;
            workers.push(scope.spawn(move || {
                let mut rng = opts.seed ^ (0xA11CE ^ tenant as u64).wrapping_mul(0x1_0000_001B);
                let mut out = Vec::with_capacity(opts.batch);
                let mut batch = Vec::with_capacity(opts.batch);
                while !stop.load(Ordering::Relaxed) {
                    let epoch = handle.epoch();
                    let span = (epoch.samples() as u64 + 1) * u64::from(epoch.step);
                    batch.clear();
                    for _ in 0..opts.batch {
                        let a = epoch.start + (splitmix(&mut rng) % span) as i64;
                        let b = epoch.start + (splitmix(&mut rng) % span) as i64;
                        let alloc = (splitmix(&mut rng) % 8 + 1) as f64 / 2.0;
                        let query: BillingQuery = (a.min(b), a.max(b), alloc);
                        batch.push(query);
                    }
                    out.clear();
                    epoch.carbon_batch_into(&batch, &mut out);
                    queries.fetch_add(opts.batch as u64, Ordering::Relaxed);
                    batches.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        // The writer: this thread. Flat-out ingest, then idle-wait.
        let mut global: u64 = 0;
        loop {
            let elapsed = started.elapsed().as_millis() as u64;
            if elapsed >= deadline_ms {
                break;
            }
            if service.windows_closed() >= opts.max_windows {
                std::thread::sleep(std::time::Duration::from_millis(
                    (deadline_ms - elapsed).min(5),
                ));
                continue;
            }
            match service.ingest(demand_sample(global, opts.seed)) {
                Ok(_) => global += 1,
                Err(e) => {
                    ingest_error = Some(e);
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("tenant thread panicked");
        }
    });
    if let Some(e) = ingest_error {
        return Err(e);
    }

    let ingested = handle.ingested();
    Ok(LoadReport {
        ingested_samples: ingested,
        windows_closed: service.windows_closed(),
        queries_answered: queries.load(Ordering::Relaxed),
        batches_answered: batches.load(Ordering::Relaxed),
        ops_per_sample: service.engine_ops() as f64 / (ingested as f64).max(1.0),
        final_epoch: service.windows_closed(),
    })
}
