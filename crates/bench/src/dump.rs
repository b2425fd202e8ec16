//! Streaming per-trial JSONL dumps for the study binaries.
//!
//! `--dump-trials` used to collect every trial in memory and write one
//! big JSON array at the end — `O(trials)` memory on a path whose whole
//! point is auditing full 10,000-trial studies. The generalized form
//! streams instead, backed by the engine's per-trial sink (trials are
//! observed in ascending trial order at any thread count, so the emitted
//! JSONL bytes are thread-invariant):
//!
//! * `--dump-trials all` — stream every trial;
//! * `--dump-trials N` — stream the first `N` trials;
//! * `--dump-path PATH` — write there instead of
//!   `results/<name>_trials.jsonl`.
//!
//! A resumed run observes only the trials it executes after the restore
//! point, so `--dump-trials` with `--resume` aborts instead of writing a
//! partial dump.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use serde::Serialize;

use crate::args::Args;
use crate::output::results_dir;

/// How many trials to dump, parsed from `--dump-trials`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DumpSpec {
    /// No dump requested.
    #[default]
    None,
    /// Dump the first `N` trials.
    First(usize),
    /// Dump every trial.
    All,
}

impl DumpSpec {
    /// Parses `--dump-trials` (`all`, or an integer; `0` means none).
    ///
    /// # Panics
    ///
    /// Panics when the value is neither `all` nor an integer — same
    /// strictness as the numeric flags.
    pub fn from_args(args: &Args) -> Self {
        match args.str("dump-trials") {
            None => Self::None,
            Some("all") => Self::All,
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Self::None,
                Ok(n) => Self::First(n),
                Err(_) => panic!("--dump-trials expects `all` or an integer, got {v:?}"),
            },
        }
    }

    /// Whether any dump was requested.
    pub fn is_active(&self) -> bool {
        !matches!(self, Self::None)
    }

    /// Whether trial index `k` (0-based) is within the dump.
    pub fn wants(&self, k: u64) -> bool {
        match self {
            Self::None => false,
            Self::First(n) => k < *n as u64,
            Self::All => true,
        }
    }
}

/// A streaming JSONL trial dump: one serialized record per line, written
/// through a buffered file as the engine's sink observes trials.
#[derive(Debug)]
pub struct TrialDump {
    spec: DumpSpec,
    path: PathBuf,
    writer: BufWriter<File>,
    written: u64,
    seen: u64,
}

impl TrialDump {
    /// Opens the dump for `name` (default path
    /// `results/<name>_trials.jsonl`, overridden by `--dump-path`).
    /// Returns `None` when no dump was requested.
    ///
    /// # Panics
    ///
    /// Panics when the dump file cannot be created — an audit artifact
    /// that silently goes missing is worse than an abort — and when
    /// `--dump-trials` is combined with `--resume`, whose dump would miss
    /// every trial restored from the checkpoint.
    pub fn from_args(args: &Args, name: &str) -> Option<Self> {
        let spec = DumpSpec::from_args(args);
        if !spec.is_active() {
            assert!(
                args.str("dump-path").is_none(),
                "--dump-path without --dump-trials has no effect; pass --dump-trials all or N"
            );
            return None;
        }
        assert!(
            !args.bool("resume", false),
            "--dump-trials with --resume would miss the restored trials; rerun without --resume"
        );
        let path = match args.str("dump-path") {
            Some(p) => PathBuf::from(p),
            None => {
                let dir = results_dir();
                std::fs::create_dir_all(&dir)
                    .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
                dir.join(format!("{name}_trials.jsonl"))
            }
        };
        let file = File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create dump file {}: {e}", path.display()));
        Some(Self {
            spec,
            path,
            writer: BufWriter::new(file),
            written: 0,
            seen: 0,
        })
    }

    /// Observes one trial record (in trial order): serializes it to one
    /// JSONL line when it falls within the requested range.
    ///
    /// # Panics
    ///
    /// Panics on write failure.
    pub fn observe<T: Serialize>(&mut self, record: &T) {
        let k = self.seen;
        self.seen += 1;
        if !self.spec.wants(k) {
            return;
        }
        let line = serde_json::to_string(record).expect("trial records are serializable");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.path.display()));
        self.written += 1;
    }

    /// Flushes the dump and reports `(path, lines written)`.
    ///
    /// # Panics
    ///
    /// Panics when the final flush fails.
    pub fn finish(mut self) -> (PathBuf, u64) {
        self.writer
            .flush()
            .unwrap_or_else(|e| panic!("cannot flush {}: {e}", self.path.display()));
        (self.path, self.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(
            &["dump-trials", "dump-path", "resume"],
            s.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn parses_all_and_counts() {
        assert_eq!(DumpSpec::from_args(&args(&[])), DumpSpec::None);
        assert_eq!(
            DumpSpec::from_args(&args(&["--dump-trials", "all"])),
            DumpSpec::All
        );
        assert_eq!(
            DumpSpec::from_args(&args(&["--dump-trials", "7"])),
            DumpSpec::First(7)
        );
        assert_eq!(
            DumpSpec::from_args(&args(&["--dump-trials", "0"])),
            DumpSpec::None
        );
    }

    #[test]
    #[should_panic(expected = "expects `all` or an integer")]
    fn rejects_garbage_counts() {
        let _ = DumpSpec::from_args(&args(&["--dump-trials", "some"]));
    }

    #[test]
    #[should_panic(expected = "--dump-trials with --resume")]
    fn dump_with_resume_panics() {
        let _ = TrialDump::from_args(&args(&["--dump-trials", "all", "--resume"]), "unused");
    }

    #[test]
    fn first_n_limits_the_stream() {
        let spec = DumpSpec::First(3);
        let kept: Vec<u64> = (0..10).filter(|&k| spec.wants(k)).collect();
        assert_eq!(kept, vec![0, 1, 2]);
        assert!((0..10).all(|k| DumpSpec::All.wants(k)));
        assert!(!(0..10).any(|k| DumpSpec::None.wants(k)));
    }

    #[test]
    fn streams_jsonl_to_the_requested_path() {
        let dir = std::env::temp_dir().join("fairco2_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let a = args(&["--dump-trials", "2", "--dump-path", path.to_str().unwrap()]);
        let mut dump = TrialDump::from_args(&a, "unused").expect("active");
        for k in 0..5 {
            dump.observe(&serde_json::json!({ "trial": k }));
        }
        let (written_path, lines) = dump.finish();
        assert_eq!(written_path, path);
        assert_eq!(lines, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"trial\":0}\n{\"trial\":1}\n");
        std::fs::remove_file(&path).unwrap();
    }
}
