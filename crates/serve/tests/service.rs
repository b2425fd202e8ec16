//! Service contracts: every published epoch answers billing queries
//! bit-identical to a from-scratch rebuild of the same sample prefix,
//! at any thread count, even while ingestion races the queries;
//! persisted windows survive a round trip bit for bit; and a failed
//! persist never shifts a window out of position.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use fairco2_serve::{
    demand_sample, read_persisted_window, AttributionService, EpochSnapshot, ServeError,
    ServiceConfig,
};
use fairco2_shapley::cascade::first_sample_at_or_after;
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_shapley::BillingQuery;
use fairco2_trace::series::TimeSeries;

fn test_config(splits: Vec<usize>, leaf_samples: usize) -> ServiceConfig {
    ServiceConfig {
        start: 1_700_000_000,
        step: 300,
        splits,
        leaf_samples,
        carbon_per_window: 750.0,
        persist_dir: None,
    }
}

/// The independent oracle: rebuilds the full service state for the
/// first `windows` windows from nothing but the raw sample stream —
/// per-window frozen cascade runs composed by the canonical segmented
/// prefix (one left-to-right fold over window totals).
struct Rebuild {
    start: i64,
    step: u32,
    window_samples: usize,
    prefixes: Vec<Vec<f64>>,
    cum_before: Vec<f64>,
}

impl Rebuild {
    fn new(config: &ServiceConfig, windows: u64, seed: u64) -> Self {
        let frozen = TemporalShapley::new(config.splits.clone());
        let w = config.window_samples();
        let mut prefixes = Vec::new();
        let mut cum_before = Vec::new();
        let mut cum = 0.0;
        for k in 0..windows {
            let values: Vec<f64> = (0..w)
                .map(|i| demand_sample(k * w as u64 + i as u64, seed))
                .collect();
            let series = TimeSeries::from_values(
                config.start + k as i64 * w as i64 * i64::from(config.step),
                config.step,
                values,
            )
            .unwrap();
            let attribution = frozen.attribute(&series, config.carbon_per_window).unwrap();
            cum_before.push(cum);
            cum += attribution.carbon_prefix()[w];
            prefixes.push(attribution.carbon_prefix().to_vec());
        }
        Self {
            start: config.start,
            step: config.step,
            window_samples: w,
            prefixes,
            cum_before,
        }
    }

    fn prefix_at(&self, i: usize) -> f64 {
        if self.prefixes.is_empty() {
            return 0.0;
        }
        let w = (i / self.window_samples).min(self.prefixes.len() - 1);
        self.cum_before[w] + self.prefixes[w][i - w * self.window_samples]
    }

    fn carbon(&self, (t0, t1, alloc): BillingQuery) -> f64 {
        let n = self.prefixes.len() * self.window_samples;
        let lo = first_sample_at_or_after(self.start, i64::from(self.step), n, t0);
        let hi = first_sample_at_or_after(self.start, i64::from(self.step), n, t1);
        if hi <= lo {
            return 0.0;
        }
        alloc * (self.prefix_at(hi) - self.prefix_at(lo))
    }
}

/// Deterministic query mix over (roughly) the covered range, including
/// degenerate and far-out-of-range windows.
fn query_mix(config: &ServiceConfig, windows: u64, salt: u64) -> Vec<BillingQuery> {
    let w = config.window_samples() as i64;
    let step = i64::from(config.step);
    let span = windows as i64 * w * step;
    let mut queries = vec![
        (config.start, config.start + span, 1.0),
        (config.start - 10 * step, config.start + 2 * span, 0.5),
        (config.start + span, config.start, 2.0), // inverted
        (config.start + 7, config.start + 7, 1.0), // empty
        (i64::MIN, i64::MAX, 1.5),                // extreme clamp
        (i64::MAX - 3, i64::MAX, 1.0),
    ];
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let a = config.start + (state % (2 * span.max(1) as u64)) as i64 - span / 4;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let b = config.start + (state % (2 * span.max(1) as u64)) as i64 - span / 4;
        queries.push((a.min(b), a.max(b), ((state % 8) + 1) as f64 / 2.0));
    }
    queries
}

#[test]
fn every_epoch_matches_a_from_scratch_rebuild_bit_for_bit() {
    let config = test_config(vec![3, 2], 2);
    let w = config.window_samples() as u64;
    let seed = 17;
    let mut service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();

    let total_windows = 5u64;
    for i in 0..total_windows * w {
        let published = service.ingest(demand_sample(i, seed)).unwrap();
        if let Some(epoch) = published {
            let snapshot = handle.epoch();
            assert_eq!(snapshot.epoch, epoch);
            let rebuild = Rebuild::new(&config, epoch, seed);
            // The whole prefix table agrees…
            for i in 0..=snapshot.samples() {
                assert_eq!(
                    snapshot.prefix_at(i).to_bits(),
                    rebuild.prefix_at(i).to_bits(),
                    "prefix_at({i}) diverged at epoch {epoch}"
                );
            }
            // …and so does every query in the mix.
            for q in query_mix(&config, epoch, epoch) {
                assert_eq!(
                    snapshot.carbon(q).to_bits(),
                    rebuild.carbon(q).to_bits(),
                    "query {q:?} diverged at epoch {epoch}"
                );
            }
        }
    }
    assert_eq!(handle.epoch().epoch, total_windows);
}

/// Every epoch shares one window log that later publishes append to and
/// regrow. Holding epochs 0..=100 across those regrowths, each still
/// answers exactly as its own rebuild after the last publish, and shares
/// every window's attribution with the newest epoch.
#[test]
fn held_epochs_are_unchanged_by_later_publishes() {
    let config = test_config(vec![2], 2);
    let w = config.window_samples() as u64;
    let seed = 53;
    let total_windows = 100u64;
    let mut service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();
    let mut held = vec![handle.epoch()];
    for i in 0..total_windows * w {
        if service.ingest(demand_sample(i, seed)).unwrap().is_some() {
            held.push(handle.epoch());
        }
    }
    let newest = held[total_windows as usize];
    assert_eq!(newest.epoch, total_windows);
    for (epoch, snapshot) in held.iter().enumerate() {
        let epoch = epoch as u64;
        assert_eq!(snapshot.epoch, epoch);
        assert_eq!(snapshot.windows.len() as u64, epoch);
        for (k, segment) in snapshot.windows.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&segment.attribution, &newest.windows[k].attribution),
                "window {k} of epoch {epoch} is not the newest epoch's"
            );
        }
        let rebuild = Rebuild::new(&config, epoch, seed);
        for i in 0..=snapshot.samples() {
            assert_eq!(
                snapshot.prefix_at(i).to_bits(),
                rebuild.prefix_at(i).to_bits(),
                "prefix_at({i}) of epoch {epoch} changed"
            );
        }
        for q in query_mix(&config, epoch.max(1), epoch) {
            assert_eq!(
                snapshot.carbon(q).to_bits(),
                rebuild.carbon(q).to_bits(),
                "query {q:?} on epoch {epoch} changed"
            );
        }
    }
}

/// NaN, −1 and +∞ interleaved into a valid stream are each rejected with
/// a typed error that leaves the writer's state untouched, and every
/// epoch published afterwards is bit-identical to the clean stream's.
#[test]
fn bad_samples_are_rejected_without_disturbing_later_epochs() {
    let config = test_config(vec![3, 2], 2);
    let w = config.window_samples() as u64;
    let seed = 29;
    let mut clean = AttributionService::start(config.clone()).unwrap();
    let mut dirty = AttributionService::start(config.clone()).unwrap();
    let (clean_handle, dirty_handle) = (clean.handle(), dirty.handle());
    let bad = [f64::NAN, -1.0, f64::INFINITY];
    for i in 0..3 * w {
        // Every 5th step (window starts and mid-window alike) is
        // preceded by a bad sample.
        if i % 5 == 0 {
            let value = bad[(i / 5) as usize % bad.len()];
            let before = (
                dirty_handle.ingested(),
                dirty.open_window_fill(),
                dirty.engine_ops(),
            );
            match dirty.ingest(value) {
                Err(ServeError::BadSample(v)) => assert_eq!(v.to_bits(), value.to_bits()),
                other => panic!("sample {value} was not rejected: {other:?}"),
            }
            let after = (
                dirty_handle.ingested(),
                dirty.open_window_fill(),
                dirty.engine_ops(),
            );
            assert_eq!(before, after, "sample {value} touched the service");
        }
        let sample = demand_sample(i, seed);
        let published = clean.ingest(sample).unwrap();
        assert_eq!(dirty.ingest(sample).unwrap(), published);
        if let Some(epoch) = published {
            let (a, b) = (clean_handle.epoch(), dirty_handle.epoch());
            assert_eq!(a.samples(), b.samples());
            for k in 0..=a.samples() {
                assert_eq!(
                    a.prefix_at(k).to_bits(),
                    b.prefix_at(k).to_bits(),
                    "prefix_at({k}) diverged at epoch {epoch}"
                );
            }
            for q in query_mix(&config, epoch, epoch) {
                assert_eq!(a.carbon(q).to_bits(), b.carbon(q).to_bits());
            }
        }
    }
    assert_eq!(dirty_handle.epoch().epoch, 3);
    assert_eq!(dirty_handle.ingested(), 3 * w);
}

#[test]
fn sharded_batches_are_bit_identical_at_any_thread_count() {
    let config = test_config(vec![4, 3], 2);
    let w = config.window_samples() as u64;
    let seed = 23;
    let mut service = AttributionService::start(config.clone()).unwrap();
    for i in 0..4 * w {
        service.ingest(demand_sample(i, seed)).unwrap();
    }
    let handle = service.handle();
    let epoch = handle.epoch();
    let queries = query_mix(&config, 4, 99);

    let mut sequential = Vec::new();
    epoch.carbon_batch_into(&queries, &mut sequential);
    for threads in [1, 2, 3, 8, 64] {
        let sharded = epoch.carbon_batch_sharded(&queries, threads);
        assert_eq!(sharded.len(), sequential.len());
        for (i, (s, r)) in sharded.iter().zip(&sequential).enumerate() {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "query {i} diverged at {threads} threads"
            );
        }
    }
    assert!(epoch.carbon_batch_sharded(&[], 4).is_empty());
}

/// The concurrency pin: tenants query *while* the writer ingests, every
/// answer is recorded with the epoch that produced it, and afterwards
/// each recorded `(epoch, query, answer)` triple is re-derived from a
/// frozen-trace rebuild of exactly that epoch's prefix. If a reader
/// ever saw a half-published epoch, some triple would fail to
/// reproduce.
#[test]
fn concurrent_queries_always_match_their_epochs_rebuild() {
    let config = test_config(vec![2, 2], 2);
    let w = config.window_samples() as u64;
    let seed = 41;
    let total_windows = 24u64;
    let mut service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();

    let stop = AtomicBool::new(false);
    let answered = std::sync::atomic::AtomicU64::new(0);
    let observed: Mutex<Vec<(u64, BillingQuery, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for tenant in 0..3u64 {
            let handle = handle.clone();
            let stop = &stop;
            let answered = &answered;
            let observed = &observed;
            let config = &config;
            scope.spawn(move || {
                let mut salt = tenant;
                let mut local = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let epoch = handle.epoch();
                    let windows = epoch.epoch;
                    salt += 1;
                    for q in query_mix(config, windows.max(1), salt) {
                        local.push((windows, q, epoch.carbon(q).to_bits()));
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                observed.lock().unwrap().extend(local);
            });
        }
        // Interleave: a short pause per window lets tenants observe many
        // different epochs even on one CPU.
        for k in 0..total_windows {
            for i in 0..w {
                service.ingest(demand_sample(k * w + i, seed)).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        // Keep serving until every tenant has answered a few rounds (a
        // 5 s ceiling stops a pathological scheduler from hanging CI).
        let waited = std::time::Instant::now();
        while answered.load(Ordering::Relaxed) < 24
            && waited.elapsed() < std::time::Duration::from_secs(5)
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let observed = observed.lock().unwrap();
    assert!(
        !observed.is_empty(),
        "tenants answered no queries during ingestion"
    );
    // Post-hoc audit: rebuild each observed epoch once, re-derive every
    // recorded answer.
    let max_epoch = observed.iter().map(|(e, _, _)| *e).max().unwrap();
    let rebuilds: Vec<Rebuild> = (0..=max_epoch)
        .map(|e| Rebuild::new(&config, e, seed))
        .collect();
    for (epoch, query, answer) in observed.iter() {
        assert_eq!(
            *answer,
            rebuilds[*epoch as usize].carbon(*query).to_bits(),
            "epoch {epoch} query {query:?} did not reproduce"
        );
    }
}

#[test]
fn persisted_windows_round_trip_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("fairco2-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..test_config(vec![2], 3)
    };
    let w = config.window_samples() as u64;
    let seed = 7;
    let mut service = AttributionService::start(config.clone()).unwrap();
    for i in 0..3 * w {
        service.ingest(demand_sample(i, seed)).unwrap();
    }
    let handle = service.handle();
    let epoch = handle.epoch();
    assert_eq!(epoch.epoch, 3);
    for (k, segment) in epoch.windows.iter().enumerate() {
        let path = dir.join(format!("window-{k:08}.json"));
        let restored =
            read_persisted_window(&path).unwrap_or_else(|e| panic!("window {k} unreadable: {e}"));
        assert_eq!(
            restored.total_carbon.to_bits(),
            segment.attribution.total_carbon.to_bits()
        );
        assert_eq!(
            restored.stranded_carbon.to_bits(),
            segment.attribution.stranded_carbon.to_bits()
        );
        assert_eq!(
            restored.carbon_prefix.len(),
            segment.attribution.carbon_prefix.len()
        );
        for (a, b) in restored
            .carbon_prefix
            .iter()
            .zip(&segment.attribution.carbon_prefix)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in restored
            .leaf_intensity
            .iter()
            .zip(&segment.attribution.leaf_intensity)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    // No torn temporaries left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.ends_with(".json"))
        .collect();
    assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A window whose durable write fails is held, not dropped: while the
/// persistence directory is replaced by a plain file, the window stays
/// unpublished and later samples are refused untouched; once the
/// directory is back, the held window is published at its own epoch and
/// every epoch matches the rebuild oracle bit for bit.
#[test]
fn failed_persist_holds_the_window_in_position() {
    let dir = std::env::temp_dir().join(format!("fairco2-serve-held-{}", std::process::id()));
    let aside = dir.with_extension("aside");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&aside);
    let config = ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..test_config(vec![3, 2], 2)
    };
    let w = config.window_samples() as u64;
    let seed = 31;
    let total_windows = 5u64;
    let mut service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();
    let state = |service: &AttributionService| {
        (
            handle.ingested(),
            service.open_window_fill(),
            service.engine_ops(),
            service.windows_closed(),
        )
    };

    for i in 0..2 * w - 1 {
        service.ingest(demand_sample(i, seed)).unwrap();
    }
    // A file where the directory was fails every write, even as root.
    std::fs::rename(&dir, &aside).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();

    // Window 1's last sample is ingested, but its window is held.
    match service.ingest(demand_sample(2 * w - 1, seed)) {
        Err(ServeError::Persist(_)) => {}
        other => panic!("window 1 persisted into a file: {other:?}"),
    }
    assert_eq!(handle.ingested(), 2 * w);
    assert_eq!(service.windows_closed(), 1);
    assert_eq!(handle.epoch().epoch, 1);
    // The retry fails too, so the next sample is refused untouched.
    let before = state(&service);
    match service.ingest(demand_sample(2 * w, seed)) {
        Err(ServeError::Persist(_)) => {}
        other => panic!("sample ingested past a held window: {other:?}"),
    }
    assert_eq!(
        state(&service),
        before,
        "a refused sample touched the service"
    );
    assert_eq!(handle.epoch().epoch, 1);

    std::fs::remove_file(&dir).unwrap();
    std::fs::rename(&aside, &dir).unwrap();
    for i in 2 * w..total_windows * w {
        let published = service.ingest(demand_sample(i, seed)).unwrap();
        let snapshot = handle.epoch();
        assert_eq!(service.windows_closed(), snapshot.epoch);
        if let Some(epoch) = published {
            assert_eq!(snapshot.epoch, epoch);
            let rebuild = Rebuild::new(&config, epoch, seed);
            for k in 0..=snapshot.samples() {
                assert_eq!(
                    snapshot.prefix_at(k).to_bits(),
                    rebuild.prefix_at(k).to_bits(),
                    "prefix_at({k}) diverged at epoch {epoch}"
                );
            }
            for q in query_mix(&config, epoch, epoch) {
                assert_eq!(
                    snapshot.carbon(q).to_bits(),
                    rebuild.carbon(q).to_bits(),
                    "query {q:?} diverged at epoch {epoch}"
                );
            }
        }
    }
    assert_eq!(handle.epoch().epoch, total_windows);
    for k in 0..total_windows {
        let path = dir.join(format!("window-{k:08}.json"));
        assert!(path.exists(), "window {k} was not persisted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A NaN, infinite or negative carbon per window is refused with a typed
/// error before the persistence directory is created, so no window with
/// `null` or negative charges is ever written; zero carbon stays valid
/// and bills nothing.
#[test]
fn bad_carbon_per_window_is_refused_before_anything_persists() {
    let dir = std::env::temp_dir().join(format!("fairco2-serve-carbon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1000.0] {
        let config = ServiceConfig {
            carbon_per_window: bad,
            persist_dir: Some(dir.clone()),
            ..test_config(vec![3, 2], 2)
        };
        match AttributionService::start(config).err() {
            Some(ServeError::BadCarbon(v)) => assert_eq!(v.to_bits(), bad.to_bits()),
            other => panic!("carbon per window {bad} was not refused: {other:?}"),
        }
        assert!(!dir.exists(), "carbon per window {bad} created {dir:?}");
    }

    let config = ServiceConfig {
        carbon_per_window: 0.0,
        ..test_config(vec![3, 2], 2)
    };
    let w = config.window_samples() as u64;
    let mut service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();
    for i in 0..w {
        service.ingest(demand_sample(i, 3)).unwrap();
    }
    let epoch = handle.epoch();
    assert_eq!(epoch.epoch, 1);
    for q in query_mix(&config, 1, 3) {
        assert_eq!(epoch.carbon(q), 0.0, "query {q:?}");
    }
}

#[test]
fn empty_epoch_answers_zero_everywhere() {
    let config = test_config(vec![2], 2);
    let service = AttributionService::start(config.clone()).unwrap();
    let handle = service.handle();
    let epoch: &EpochSnapshot = handle.epoch();
    assert_eq!(epoch.epoch, 0);
    assert_eq!(epoch.samples(), 0);
    for q in query_mix(&config, 1, 5) {
        assert_eq!(epoch.carbon(q), 0.0);
    }
}
