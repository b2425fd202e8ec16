//! Checkpoint/resume flag plumbing shared by the Monte Carlo binaries.
//!
//! Every streaming-study binary accepts the same four knobs:
//!
//! * `--checkpoint <path>` — snapshot engine state to `<path>` as the
//!   study streams (atomic write: tmp file + rename);
//! * `--checkpoint-every <batches>` — snapshot cadence (default 8);
//! * `--resume` — restore from `--checkpoint` if the file exists and
//!   continue from the merged-prefix frontier (bit-identical to an
//!   uninterrupted run);
//! * `--retries <n>` — per-batch retry budget for failed/panicked
//!   batches (default 2).
//!
//! `--checkpoint-every` and `--resume` do nothing without
//! `--checkpoint`, so either one alone aborts the run.

use std::path::PathBuf;

use fairco2_montecarlo::{CheckpointSpec, EngineError, StudyOptions};

use crate::Args;

/// Default snapshot cadence in merged batches.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 8;

/// The flags every checkpoint-aware study binary accepts; append these
/// to the binary's own flag set when declaring [`Args::parse`]'s known
/// set so a typo like `--chekpoint-every` aborts instead of silently
/// disabling checkpointing.
pub const CHECKPOINT_FLAGS: &[&str] = &["checkpoint", "checkpoint-every", "resume", "retries"];

/// Builds the engine's [`StudyOptions`] from the standard command-line
/// flags. `suffix` distinguishes checkpoint files when one binary runs
/// several studies (the convergence driver runs both): a non-empty
/// suffix is appended to the `--checkpoint` path as an extra extension,
/// e.g. `run.ckpt` → `run.ckpt.demand`.
///
/// # Panics
///
/// Panics when `--resume` or `--checkpoint-every` comes without
/// `--checkpoint`: the run would silently start fresh or never snapshot.
pub fn study_options(args: &Args, suffix: &str) -> StudyOptions {
    if args.str("checkpoint").is_none() {
        for flag in ["resume", "checkpoint-every"] {
            assert!(
                args.str(flag).is_none(),
                "--{flag} without --checkpoint has no effect; pass --checkpoint <path>"
            );
        }
    }
    let checkpoint = args.str("checkpoint").map(|p| {
        let mut path = PathBuf::from(p);
        if !suffix.is_empty() {
            let mut name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            name.push('.');
            name.push_str(suffix);
            path.set_file_name(name);
        }
        CheckpointSpec::new(
            path,
            args.usize("checkpoint-every", DEFAULT_CHECKPOINT_EVERY),
        )
    });
    StudyOptions {
        checkpoint,
        resume: args.bool("resume", false),
        retry_budget: args.u32("retries", 2),
        ..StudyOptions::default()
    }
}

/// Unwraps a resumable-study result the way an experiment driver wants:
/// report the typed engine error on stderr and exit nonzero rather than
/// unwinding through the report-building code.
pub fn exit_on_engine_error<T>(result: Result<T, EngineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("study failed: {e}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(CHECKPOINT_FLAGS, s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_flags_means_no_checkpointing() {
        let opts = study_options(&args(&[]), "");
        assert!(opts.checkpoint.is_none());
        assert!(!opts.resume);
        assert_eq!(opts.retry_budget, 2);
        assert!(opts.faults.is_empty());
    }

    #[test]
    fn checkpoint_flags_flow_through() {
        let opts = study_options(
            &args(&[
                "--checkpoint",
                "/tmp/run.ckpt",
                "--checkpoint-every",
                "3",
                "--resume",
                "--retries",
                "5",
            ]),
            "",
        );
        let spec = opts.checkpoint.expect("spec");
        assert_eq!(spec.path, PathBuf::from("/tmp/run.ckpt"));
        assert_eq!(spec.every_batches, 3);
        assert!(opts.resume);
        assert_eq!(opts.retry_budget, 5);
    }

    #[test]
    #[should_panic(expected = "--resume without --checkpoint has no effect")]
    fn resume_without_checkpoint_panics() {
        let _ = study_options(&args(&["--resume"]), "");
    }

    #[test]
    #[should_panic(expected = "--checkpoint-every without --checkpoint has no effect")]
    fn checkpoint_every_without_checkpoint_panics() {
        let _ = study_options(&args(&["--checkpoint-every", "3"]), "");
    }

    #[test]
    fn suffix_distinguishes_multi_study_binaries() {
        let a = args(&["--checkpoint", "/tmp/conv.ckpt"]);
        let demand = study_options(&a, "demand").checkpoint.expect("spec");
        let colo = study_options(&a, "colocation").checkpoint.expect("spec");
        assert_eq!(demand.path, PathBuf::from("/tmp/conv.ckpt.demand"));
        assert_eq!(colo.path, PathBuf::from("/tmp/conv.ckpt.colocation"));
        assert_ne!(demand.path, colo.path);
    }
}
