//! Kill-and-resume and checkpoint-format hardening tests.
//!
//! The contract under test: a study interrupted at *any* checkpoint
//! boundary — including with batches parked in the reorder buffer — and
//! then resumed produces a summary **bit-for-bit** identical to an
//! uninterrupted run, at any thread count, executing only the trials the
//! snapshot does not hold; a checkpoint file that is stale, torn,
//! corrupted, or from another study is rejected with a typed error before
//! any state is applied; and the on-disk format does not move.

use std::path::PathBuf;
use std::sync::OnceLock;

use fairco2_montecarlo::checkpoint::{fingerprint, PendingBatch};
use fairco2_montecarlo::streaming::{ColocationStudySummary, DemandStudySummary};
use fairco2_montecarlo::{
    stream_colocation_study_resumable, stream_demand_study_resumable, CheckpointError,
    CheckpointSpec, ColocationStudy, DemandStudy, EngineConfig, EngineError, EngineStats,
    FaultPlan, Snapshot, StudyOptions, WriteFault,
};
use proptest::prelude::*;
use serde::Serialize;

const BATCH: usize = 4;
const THREAD_CHOICES: [usize; 3] = [1, 2, 8];

fn small_demand() -> DemandStudy {
    DemandStudy {
        trials: 33,
        max_workloads: 8,
        ..DemandStudy::default()
    }
}

fn small_colocation() -> ColocationStudy {
    ColocationStudy {
        trials: 21,
        max_workloads: 12,
        ..ColocationStudy::default()
    }
}

fn cfg(threads: usize, batch_trials: usize) -> EngineConfig {
    EngineConfig {
        threads,
        batch_trials,
        collect_trials: false,
    }
}

/// A per-test scratch file under the system temp dir; unique per process
/// so parallel test binaries never collide.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fairco2-checkpoint-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}.ckpt", std::process::id()))
}

/// The summary's exact bits, via the byte-stable JSON writer: equal
/// strings ⇔ equal `f64::to_bits` everywhere (signed zeros included).
fn demand_bits(s: &DemandStudySummary) -> String {
    serde_json::to_string(s).expect("summaries serialize")
}

fn colocation_bits(s: &ColocationStudySummary) -> String {
    serde_json::to_string(s).expect("summaries serialize")
}

/// Trials a run resumed from `snap` must execute: all of them except the
/// merged prefix and the batches parked in the reorder buffer.
fn unfinished_trials(snap: &Snapshot, trials: usize, batch_trials: usize) -> u64 {
    let merged = (snap.frontier as usize * batch_trials).min(trials);
    let parked: usize = snap
        .pending
        .iter()
        .map(|p| {
            let start = p.batch as usize * batch_trials;
            (start + batch_trials).min(trials) - start
        })
        .sum();
    (trials - merged - parked) as u64
}

/// Uninterrupted single-thread reference for [`small_demand`], computed
/// once (thread-count invariance of the engine is pinned elsewhere).
fn demand_reference() -> &'static DemandStudySummary {
    static REF: OnceLock<DemandStudySummary> = OnceLock::new();
    REF.get_or_init(|| {
        let (summary, _, _) = stream_demand_study_resumable(
            &small_demand(),
            cfg(1, BATCH),
            &StudyOptions::default(),
            |_, _| {},
        )
        .expect("fault-free run");
        summary
    })
}

fn colocation_reference() -> &'static ColocationStudySummary {
    static REF: OnceLock<ColocationStudySummary> = OnceLock::new();
    REF.get_or_init(|| {
        let (summary, _, _) = stream_colocation_study_resumable(
            &small_colocation(),
            cfg(1, 5),
            &StudyOptions::default(),
            |_, _| {},
        )
        .expect("fault-free run");
        summary
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill the demand study right after its `kill`-th checkpoint write
    /// (checkpointing every batch ⇒ every batch boundary is a kill
    /// point; at 2/8 threads the reorder buffer is routinely non-empty
    /// when the snapshot is cut), resume, and require the final summary
    /// to match the uninterrupted run bit-for-bit.
    #[test]
    fn demand_kill_and_resume_is_bit_identical(
        kill in 1usize..=8,
        threads_sel in 0usize..3,
    ) {
        let study = small_demand();
        let threads = THREAD_CHOICES[threads_sel];
        let path = tmp(&format!("demand-kill-{kill}-t{threads}"));
        let _ = std::fs::remove_file(&path);

        let killed = stream_demand_study_resumable(
            &study,
            cfg(threads, BATCH),
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&path, 1)),
                faults: FaultPlan {
                    kill_after_writes: Some(kill),
                    ..FaultPlan::default()
                },
                ..StudyOptions::default()
            },
            |_, _| {},
        );
        prop_assert!(
            matches!(killed, Err(EngineError::Killed { writes }) if writes == kill),
            "kill failpoint did not fire: {killed:?}"
        );
        // Resuming without a snapshot would silently start over.
        prop_assert!(path.exists(), "the kill left no snapshot behind");
        let snap = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).expect("valid");

        let (resumed, _, stats) = stream_demand_study_resumable(
            &study,
            cfg(threads, BATCH),
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&path, 1)),
                resume: true,
                ..StudyOptions::default()
            },
            |_, _| {},
        )
        .expect("resume completes");
        prop_assert_eq!(stats.trials, study.trials as u64);
        prop_assert_eq!(stats.batches, 9);
        prop_assert_eq!(stats.scratch.trials, unfinished_trials(&snap, study.trials, BATCH));
        prop_assert_eq!(&resumed, demand_reference());
        prop_assert_eq!(demand_bits(&resumed), demand_bits(demand_reference()));
        let _ = std::fs::remove_file(&path);
    }

    /// The colocation twin of the kill-and-resume identity.
    #[test]
    fn colocation_kill_and_resume_is_bit_identical(
        kill in 1usize..=4,
        threads_sel in 0usize..3,
    ) {
        let study = small_colocation();
        let threads = THREAD_CHOICES[threads_sel];
        let path = tmp(&format!("colocation-kill-{kill}-t{threads}"));
        let _ = std::fs::remove_file(&path);

        let killed = stream_colocation_study_resumable(
            &study,
            cfg(threads, 5),
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&path, 1)),
                faults: FaultPlan {
                    kill_after_writes: Some(kill),
                    ..FaultPlan::default()
                },
                ..StudyOptions::default()
            },
            |_, _| {},
        );
        prop_assert!(matches!(killed, Err(EngineError::Killed { .. })));
        let snap = Snapshot::load(&path, &fingerprint("colocation", &study, 5)).expect("valid");

        let (resumed, _, stats) = stream_colocation_study_resumable(
            &study,
            cfg(threads, 5),
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&path, 1)),
                resume: true,
                ..StudyOptions::default()
            },
            |_, _| {},
        )
        .expect("resume completes");
        prop_assert_eq!(stats.trials, study.trials as u64);
        prop_assert_eq!(stats.scratch.trials, unfinished_trials(&snap, study.trials, 5));
        prop_assert_eq!(&resumed, colocation_reference());
        prop_assert_eq!(
            colocation_bits(&resumed),
            colocation_bits(colocation_reference())
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A deterministic mid-reorder-buffer kill point: the snapshot carries a
/// batch that completed ahead of the frontier. Resume must merge it from
/// the checkpoint without re-executing it and still match the reference.
#[test]
fn resume_consumes_reorder_buffer_batches_without_reexecution() {
    let study = small_demand();
    let trials: Vec<_> = (0..study.trials).map(|t| study.run_trial(t)).collect();
    // Frontier after batches {0, 1}; batch 3 finished early and sits in
    // the reorder buffer; batch 2 was in flight when the run died.
    let snap = Snapshot {
        fingerprint: fingerprint("demand", &study, BATCH),
        frontier: 2,
        summary: DemandStudySummary::from_trials(&study, &trials[0..8], BATCH).serialize(),
        pending: vec![PendingBatch {
            batch: 3,
            summary: DemandStudySummary::from_trials(&study, &trials[12..16], BATCH).serialize(),
        }],
        stats: EngineStats {
            trials: 8,
            batches: 2,
            threads: 1,
            ..EngineStats::default()
        },
    };
    let path = tmp("demand-reorder-buffer");
    snap.save(&path, WriteFault::None).expect("save");

    for threads in THREAD_CHOICES {
        let (resumed, _, stats) = stream_demand_study_resumable(
            &study,
            cfg(threads, BATCH),
            &StudyOptions {
                checkpoint: Some(CheckpointSpec::new(&path, 1)),
                resume: true,
                ..StudyOptions::default()
            },
            |_, _| {},
        )
        .expect("resume completes");
        assert_eq!(demand_bits(&resumed), demand_bits(demand_reference()));
        assert_eq!(stats.trials, study.trials as u64);
        // Batches 0, 1 and 3 came from the snapshot; only 2 and 4..=8 ran.
        assert_eq!(
            stats.scratch.trials,
            unfinished_trials(&snap, study.trials, BATCH)
        );
        assert_eq!(stats.scratch.trials, 21);
        // Re-save for the next thread count (the resumed run overwrote
        // the checkpoint as it progressed).
        snap.save(&path, WriteFault::None).expect("save");
    }
    let _ = std::fs::remove_file(&path);
}

/// Resuming with no checkpoint file on disk starts a fresh run (the CI
/// kill/resume smoke may kill the study before its first write).
#[test]
fn resume_with_missing_file_starts_fresh() {
    let study = small_demand();
    let path = tmp("demand-missing");
    let _ = std::fs::remove_file(&path);
    let (summary, _, _) = stream_demand_study_resumable(
        &study,
        cfg(2, BATCH),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 4)),
            resume: true,
            ..StudyOptions::default()
        },
        |_, _| {},
    )
    .expect("fresh run");
    assert_eq!(demand_bits(&summary), demand_bits(demand_reference()));
    let _ = std::fs::remove_file(&path);
}

fn saved_snapshot(name: &str) -> (PathBuf, DemandStudy) {
    let study = small_demand();
    let trials: Vec<_> = (0..8).map(|t| study.run_trial(t)).collect();
    let snap = Snapshot {
        fingerprint: fingerprint("demand", &study, BATCH),
        frontier: 2,
        summary: DemandStudySummary::from_trials(&study, &trials, BATCH).serialize(),
        pending: Vec::new(),
        stats: EngineStats {
            trials: 8,
            batches: 2,
            threads: 1,
            ..EngineStats::default()
        },
    };
    let path = tmp(name);
    snap.save(&path, WriteFault::None).expect("save");
    (path, study)
}

#[test]
fn version_mismatch_is_rejected() {
    let (path, study) = saved_snapshot("version-mismatch");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.starts_with("{\"version\":1,"),
        "envelope changed shape"
    );
    std::fs::write(
        &path,
        text.replacen("{\"version\":1,", "{\"version\":2,", 1),
    )
    .unwrap();
    let err = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).unwrap_err();
    assert_eq!(
        err,
        CheckpointError::VersionMismatch {
            found: 2,
            expected: 1
        }
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_digest_is_rejected() {
    let (path, study) = saved_snapshot("flipped-digest");
    let text = std::fs::read_to_string(&path).unwrap();
    let marker = "\"digest\":\"";
    let at = text.find(marker).expect("digest field") + marker.len();
    let original = text.as_bytes()[at] as char;
    let flipped = if original == 'a' { 'b' } else { 'a' };
    let mut tampered = text.clone();
    tampered.replace_range(at..at + 1, &flipped.to_string());
    std::fs::write(&path, tampered).unwrap();
    let err = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::DigestMismatch { .. }),
        "{err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_payload_is_rejected_by_the_digest() {
    let (path, study) = saved_snapshot("corrupt-payload");
    let text = std::fs::read_to_string(&path).unwrap();
    // Flip one digit inside the payload; the envelope stays well-formed
    // JSON, so only the digest can catch it.
    let marker = "\"frontier\":2";
    let tampered = text.replacen(marker, "\"frontier\":3", 1);
    assert_ne!(tampered, text, "tamper point not found");
    std::fs::write(&path, tampered).unwrap();
    let err = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::DigestMismatch { .. }),
        "{err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_file_is_rejected() {
    let (path, study) = saved_snapshot("truncated");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let err = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).unwrap_err();
    assert!(matches!(err, CheckpointError::Malformed(_)), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_fingerprint_mismatch_is_rejected() {
    let (path, study) = saved_snapshot("config-mismatch");
    // Same file, different study → typed rejection, both at the
    // snapshot layer and through the resume path.
    let other = DemandStudy {
        trials: 99,
        ..study
    };
    let err = Snapshot::load(&path, &fingerprint("demand", &other, BATCH)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "{err:?}"
    );

    let resumed = stream_demand_study_resumable(
        &other,
        cfg(1, BATCH),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            resume: true,
            ..StudyOptions::default()
        },
        |_, _| {},
    );
    assert!(
        matches!(
            resumed,
            Err(EngineError::Checkpoint(
                CheckpointError::ConfigMismatch { .. }
            ))
        ),
        "{resumed:?}"
    );
    // Batch-size changes move batch boundaries, so they refuse too.
    let err = Snapshot::load(&path, &fingerprint("demand", &study, BATCH * 2)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "{err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_write_leaves_no_torn_file() {
    let (path, study) = saved_snapshot("atomic-write");
    let fingerprint = fingerprint("demand", &study, BATCH);
    let before = Snapshot::load(&path, &fingerprint).expect("intact");

    // An injected mid-write crash on the *next* snapshot must leave the
    // previous checkpoint byte-for-byte intact and no .tmp behind.
    let newer = Snapshot {
        frontier: 4,
        ..before.clone()
    };
    let err = newer.save(&path, WriteFault::TornTmp).unwrap_err();
    assert!(matches!(err, CheckpointError::WriteFailed(_)), "{err:?}");
    let mut tmp_name = path.file_name().unwrap().to_owned();
    tmp_name.push(".tmp");
    assert!(
        !path.with_file_name(tmp_name).exists(),
        "torn temporary left behind"
    );
    let after = Snapshot::load(&path, &fingerprint).expect("still intact");
    assert_eq!(after, before);
    assert_eq!(after.frontier, 2);
    let _ = std::fs::remove_file(&path);
}

/// The durability step after the rename: an injected parent-directory
/// fsync failure surfaces as `WriteFailed` even though the rename
/// already happened — the file holds the new snapshot (and still parses
/// cleanly), but the caller must not record the write as persisted.
#[test]
fn failed_directory_sync_surfaces_after_rename() {
    let (path, study) = saved_snapshot("dir-sync-failure");
    let fingerprint = fingerprint("demand", &study, BATCH);
    let before = Snapshot::load(&path, &fingerprint).expect("intact");

    let newer = Snapshot {
        frontier: 4,
        ..before.clone()
    };
    let err = newer.save(&path, WriteFault::DirSync).unwrap_err();
    assert!(matches!(err, CheckpointError::WriteFailed(_)), "{err:?}");
    assert!(
        err.to_string().contains("directory fsync"),
        "error names the failed step: {err}"
    );
    let mut tmp_name = path.file_name().unwrap().to_owned();
    tmp_name.push(".tmp");
    assert!(
        !path.with_file_name(tmp_name).exists(),
        "temporary left behind"
    );
    // The rename preceded the failed fsync, so the file content is the
    // *new* snapshot — intact, just not guaranteed durable.
    let after = Snapshot::load(&path, &fingerprint).expect("well-formed");
    assert_eq!(after.frontier, 4);
    // A retried save with no fault succeeds and is then durable.
    newer.save(&path, WriteFault::None).expect("retry");
    assert_eq!(
        Snapshot::load(&path, &fingerprint)
            .expect("durable")
            .frontier,
        4
    );
    let _ = std::fs::remove_file(&path);
}

/// The same torn-write scenario driven end-to-end through the engine's
/// checkpoint-write failpoint: the run surfaces the typed error, the
/// last good checkpoint survives, and resuming from it still converges
/// to the bit-identical summary.
#[test]
fn engine_survives_injected_checkpoint_write_failure() {
    let study = small_demand();
    let path = tmp("engine-write-failure");
    let _ = std::fs::remove_file(&path);
    let spec = CheckpointSpec::new(&path, 1);
    let failed = stream_demand_study_resumable(
        &study,
        cfg(2, BATCH),
        &StudyOptions {
            checkpoint: Some(spec.clone()),
            faults: FaultPlan {
                checkpoint_writes: vec![1], // second write attempt tears
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
        |_, _| {},
    );
    assert!(
        matches!(
            failed,
            Err(EngineError::Checkpoint(CheckpointError::WriteFailed(_)))
        ),
        "{failed:?}"
    );
    // The first write landed and is loadable: frontier 1.
    let snap = Snapshot::load(&path, &fingerprint("demand", &study, BATCH)).expect("good");
    assert_eq!(snap.frontier, 1);

    let (resumed, _, _) = stream_demand_study_resumable(
        &study,
        cfg(2, BATCH),
        &StudyOptions {
            checkpoint: Some(spec),
            resume: true,
            ..StudyOptions::default()
        },
        |_, _| {},
    )
    .expect("resume completes");
    assert_eq!(demand_bits(&resumed), demand_bits(demand_reference()));
    let _ = std::fs::remove_file(&path);
}

/// Fingerprints of the established format, read from checkpoints that
/// `fig7` and `fig8` wrote at `--trials 40 --batch 4`: checkpoints written
/// before the studies shared `stream_study` still resume.
#[test]
fn fingerprints_match_the_established_format() {
    let demand = DemandStudy {
        trials: 40,
        ..DemandStudy::default()
    };
    assert_eq!(fingerprint("demand", &demand, 4), "a13ebceea1825052");
    let colocation = ColocationStudy {
        trials: 40,
        ..ColocationStudy::default()
    };
    assert_eq!(
        fingerprint("colocation", &colocation, 4),
        "6c2d62423d34678e"
    );
}

/// The payload keeps its key order and embeds each accumulator's own
/// serialization verbatim, so checkpoint bytes do not move.
#[test]
fn payload_keys_keep_their_order() {
    let study = small_demand();
    let trials: Vec<_> = (0..16).map(|t| study.run_trial(t)).collect();
    let summary = DemandStudySummary::from_trials(&study, &trials[0..8], BATCH);
    let parked = DemandStudySummary::from_trials(&study, &trials[12..16], BATCH);
    let stats = EngineStats {
        trials: 8,
        batches: 2,
        threads: 1,
        ..EngineStats::default()
    };
    let snap = Snapshot {
        fingerprint: fingerprint("demand", &study, BATCH),
        frontier: 2,
        summary: summary.serialize(),
        pending: vec![PendingBatch {
            batch: 3,
            summary: parked.serialize(),
        }],
        stats,
    };
    let path = tmp("key-order");
    snap.save(&path, WriteFault::None).expect("save");
    let text = std::fs::read_to_string(&path).unwrap();
    let payload = format!(
        "{{\"fingerprint\":\"{}\",\"frontier\":2,\"summary\":{},\"pending\":[{{\"batch\":3,\"summary\":{}}}],\"stats\":{}}}",
        fingerprint("demand", &study, BATCH),
        demand_bits(&summary),
        demand_bits(&parked),
        serde_json::to_string(&stats).unwrap(),
    );
    assert!(
        text.starts_with("{\"version\":1,\"digest\":\""),
        "envelope changed shape"
    );
    assert!(
        text.ends_with(&format!(",\"payload\":{payload}}}")),
        "payload changed shape"
    );
    let _ = std::fs::remove_file(&path);
}
