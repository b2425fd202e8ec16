//! Kill/resume and fault-containment pins for the Azure-scale
//! co-simulation at a reduced (~20k-VM) size: a run interrupted by the
//! deterministic kill failpoint and resumed from its snapshot must
//! reproduce the uninterrupted report bit for bit, torn checkpoint
//! writes must never corrupt the previous snapshot, and mid-batch
//! panics must be retried without changing a single bit.

use std::path::PathBuf;

use fairco2_bench::scale::run_azure_scale;
use fairco2_bench::AzureScaleStudy;
use fairco2_montecarlo::checkpoint::fingerprint;
use fairco2_montecarlo::{
    CheckpointSpec, EngineConfig, EngineError, FaultKind, FaultPlan, Snapshot, StudyOptions,
    TrialFault,
};

const BATCH: usize = 360;

fn study() -> AzureScaleStudy {
    AzureScaleStudy {
        vms: 20_000,
        days: 2,
        regions: 2,
        tenants: 6,
        seed: 7,
        ..AzureScaleStudy::default()
    }
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        batch_trials: BATCH,
        collect_trials: false,
    }
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fairco2-{name}-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The scientific payload, without the engine counters (which carry the
/// thread count and reorder depth).
fn payload(report: &fairco2_bench::AzureScaleReport) -> String {
    format!(
        "{}|{}|{}",
        report.vms,
        serde_json::to_string(&report.scenarios).unwrap(),
        serde_json::to_string(&report.tenant_rows).unwrap()
    )
}

#[test]
fn killed_run_resumes_bit_identically() {
    let study = study();
    let reference = run_azure_scale(&study, config(2), &StudyOptions::default())
        .expect("fault-free run completes");
    let path = tmp("azure-kill");
    let killed = run_azure_scale(
        &study,
        config(2),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            faults: FaultPlan {
                kill_after_writes: Some(3),
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
    );
    assert!(
        matches!(killed, Err(EngineError::Killed { writes: 3 })),
        "kill plan must stop the run: {killed:?}"
    );
    // The snapshot on disk validates against this exact study config.
    let fingerprint = fingerprint("azure_scale", &study, BATCH);
    let snap = Snapshot::load(&path, &fingerprint).expect("snapshot validates");
    assert!(snap.frontier >= 3, "three merges were checkpointed");
    let resumed = run_azure_scale(
        &study,
        config(2),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            resume: true,
            ..StudyOptions::default()
        },
    )
    .expect("resume completes the study");
    assert_eq!(
        payload(&resumed),
        payload(&reference),
        "killed-then-resumed run must reproduce the uninterrupted report"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_checkpoint_write_leaves_the_previous_snapshot_intact() {
    let study = study();
    let reference = run_azure_scale(&study, config(1), &StudyOptions::default())
        .expect("fault-free run completes");
    let path = tmp("azure-torn");
    let torn = run_azure_scale(
        &study,
        config(1),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            faults: FaultPlan {
                checkpoint_writes: vec![2],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
    );
    assert!(
        matches!(torn, Err(EngineError::Checkpoint(_))),
        "torn write must surface as a checkpoint error: {torn:?}"
    );
    // The atomic rename protocol guarantees the prior snapshot survived
    // the torn attempt, so resuming from it completes bit-identically.
    let fingerprint = fingerprint("azure_scale", &study, BATCH);
    Snapshot::load(&path, &fingerprint).expect("previous snapshot is intact");
    let resumed = run_azure_scale(
        &study,
        config(1),
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            resume: true,
            ..StudyOptions::default()
        },
    )
    .expect("resume completes the study");
    assert_eq!(payload(&resumed), payload(&reference));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_batch_panics_are_retried_without_changing_bits() {
    let study = study();
    let reference = run_azure_scale(&study, config(2), &StudyOptions::default())
        .expect("fault-free run completes");
    let faulted = run_azure_scale(
        &study,
        config(2),
        &StudyOptions {
            retry_budget: 2,
            faults: FaultPlan {
                trials: vec![TrialFault {
                    trial: BATCH + 17,
                    kind: FaultKind::Panic,
                    times: 1,
                }],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
    )
    .expect("retry budget absorbs the panic");
    assert_eq!(faulted.engine.retries, 1, "the panic was retried once");
    assert_eq!(payload(&faulted), payload(&reference));
}
