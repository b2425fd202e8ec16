//! Deterministic failpoints for the study engine.
//!
//! A [`FaultPlan`] scripts exactly where a run misbehaves: panic or fail
//! at trial `N`, at batch `K`, or at checkpoint write `M`, a fixed number
//! of times. Two places consult a plan:
//! [`stream_study`](crate::engine::stream_study) the batch,
//! checkpoint-write and kill failpoints, and each study's per-item work
//! the per-trial ones — so production runs pay nothing and tests can
//! drive every retry/requeue/abandon path on demand.

use crate::engine::BatchFailure;

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The failing site panics (as a real bug in trial code would).
    Panic,
    /// The failing site returns a [`BatchFailure`] error.
    Error,
}

/// Fail a whole batch the first `times` times it is attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFault {
    /// Batch index the fault fires in.
    pub batch: usize,
    /// Panic or typed error.
    pub kind: FaultKind,
    /// Number of attempts that fail before the batch succeeds.
    pub times: u32,
}

/// Fail the attempt that reaches trial `trial` the first `times` times.
///
/// Unlike [`BatchFault`] this fires mid-batch, on whichever worker runs
/// the trial, retiring that worker's partially used arena. At one worker
/// the batch's earlier trials have already run when it fires; at more,
/// other workers may still be running them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialFault {
    /// Trial index the fault fires at.
    pub trial: usize,
    /// Panic or typed error.
    pub kind: FaultKind,
    /// Number of attempts that fail before the trial succeeds.
    pub times: u32,
}

/// A deterministic script of injected failures.
///
/// The default plan is empty: nothing fires, every query returns `None`
/// or `false`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Whole-batch failures.
    pub batches: Vec<BatchFault>,
    /// Mid-batch (per-trial) failures.
    pub trials: Vec<TrialFault>,
    /// Zero-based indices of checkpoint-write *attempts* that fail after
    /// partially writing the temporary file (the torn-write scenario the
    /// atomic rename must contain).
    pub checkpoint_writes: Vec<usize>,
    /// Abort the run (simulating SIGKILL) right after this many
    /// checkpoint writes have succeeded.
    pub kill_after_writes: Option<usize>,
}

impl FaultPlan {
    /// A plan with no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if the plan injects nothing anywhere.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
            && self.trials.is_empty()
            && self.checkpoint_writes.is_empty()
            && self.kill_after_writes.is_none()
    }

    /// The fault to fire for `batch` on its `attempt`-th execution
    /// (0-based), if any.
    pub fn batch_fault(&self, batch: usize, attempt: u32) -> Option<FaultKind> {
        self.batches
            .iter()
            .find(|f| f.batch == batch && attempt < f.times)
            .map(|f| f.kind)
    }

    /// The fault to fire when `trial` runs on its batch's `attempt`-th
    /// execution (0-based), if any.
    pub fn trial_fault(&self, trial: usize, attempt: u32) -> Option<FaultKind> {
        self.trials
            .iter()
            .find(|f| f.trial == trial && attempt < f.times)
            .map(|f| f.kind)
    }

    /// Whether checkpoint-write attempt `write` (0-based) should fail.
    pub fn fail_checkpoint_write(&self, write: usize) -> bool {
        self.checkpoint_writes.contains(&write)
    }

    /// Whether the run should simulate a kill after `successful_writes`
    /// checkpoint writes have landed.
    pub fn should_kill(&self, successful_writes: usize) -> bool {
        self.kill_after_writes == Some(successful_writes)
    }

    /// Fires `kind` at `site`: panics for [`FaultKind::Panic`], returns a
    /// [`BatchFailure`] for [`FaultKind::Error`].
    ///
    /// # Panics
    ///
    /// By design, when `kind` is [`FaultKind::Panic`].
    pub fn fire(kind: FaultKind, site: &str) -> Result<(), BatchFailure> {
        match kind {
            FaultKind::Panic => panic!("injected fault: {site}"),
            FaultKind::Error => Err(BatchFailure::new(format!("injected fault: {site}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_only_below_their_times_budget() {
        let plan = FaultPlan {
            batches: vec![BatchFault {
                batch: 3,
                kind: FaultKind::Error,
                times: 2,
            }],
            trials: vec![TrialFault {
                trial: 17,
                kind: FaultKind::Panic,
                times: 1,
            }],
            checkpoint_writes: vec![1],
            kill_after_writes: Some(4),
        };
        assert_eq!(plan.batch_fault(3, 0), Some(FaultKind::Error));
        assert_eq!(plan.batch_fault(3, 1), Some(FaultKind::Error));
        assert_eq!(plan.batch_fault(3, 2), None);
        assert_eq!(plan.batch_fault(2, 0), None);
        assert_eq!(plan.trial_fault(17, 0), Some(FaultKind::Panic));
        assert_eq!(plan.trial_fault(17, 1), None);
        assert!(!plan.fail_checkpoint_write(0));
        assert!(plan.fail_checkpoint_write(1));
        assert!(plan.should_kill(4));
        assert!(!plan.should_kill(3));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn error_faults_carry_their_site() {
        let err = FaultPlan::fire(FaultKind::Error, "batch 7").unwrap_err();
        assert!(err.message().contains("batch 7"));
    }

    #[test]
    #[should_panic(expected = "injected fault: trial 9")]
    fn panic_faults_panic() {
        let _ = FaultPlan::fire(FaultKind::Panic, "trial 9");
    }
}
