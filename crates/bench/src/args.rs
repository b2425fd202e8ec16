//! A tiny `--flag value` argument parser for the experiment binaries
//! (kept dependency-free on purpose; the binaries take at most a handful
//! of numeric knobs).
//!
//! Every binary declares its flag set up front and parsing **aborts** on
//! an unknown or duplicated flag with a readable message — a typo like
//! `--chekpoint-every 5` must not silently run the whole study with
//! checkpointing disabled.

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses the process arguments against the binary's declared flag
    /// set (names without the leading `--`). Flags must look like
    /// `--name value`; anything else aborts with a usage hint.
    ///
    /// # Panics
    ///
    /// Panics (with a readable message) on malformed arguments, on a
    /// flag not in `known`, and on a repeated flag — these binaries are
    /// experiment drivers, not servers, and a silently ignored typo
    /// changes what the experiment measures.
    pub fn parse(known: &[&str]) -> Self {
        Self::parse_from(known, std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests); see
    /// [`Args::parse`] for the strictness contract.
    ///
    /// A flag followed by another flag (or by the end of the list) is a
    /// bare boolean switch and stores `"true"` — `--resume` reads the
    /// same as `--resume true`.
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments and on unknown or duplicate flags.
    pub fn parse_from(known: &[&str], args: impl IntoIterator<Item = String>) -> Self {
        let mut flags = HashMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                panic!("unexpected argument {key:?}; flags look like --name value");
            };
            if !known.contains(&name) {
                panic!("unknown flag --{name}{}", unknown_flag_help(name, known));
            }
            let bare = match iter.peek() {
                Some(next) => next.starts_with("--"),
                None => true,
            };
            let value = if bare {
                "true".to_owned()
            } else {
                iter.next().expect("peeked value")
            };
            if flags.insert(name.to_owned(), value).is_some() {
                panic!("duplicate flag --{name}; each flag may be given once");
            }
        }
        Self { flags }
    }

    /// A `usize` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `usize`.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.integer(name, default)
    }

    /// A `u32` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `u32` — one out
    /// of range aborts rather than wrapping.
    pub fn u32(&self, name: &str, default: u32) -> u32 {
        self.integer(name, default)
    }

    /// An `i64` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `i64` — one out
    /// of range aborts rather than wrapping.
    pub fn i64(&self, name: &str, default: i64) -> i64 {
        self.integer(name, default)
    }

    /// An `f64` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `f64`.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A boolean flag with a default. Accepts `true`/`false`/`1`/`0`;
    /// a bare `--name` (no value) reads as `true`.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but none of the accepted forms.
    pub fn bool(&self, name: &str, default: bool) -> bool {
        self.flags
            .get(name)
            .map(|v| match v.as_str() {
                "true" | "1" => true,
                "false" | "0" => false,
                other => panic!("--{name} expects true/false, got {other:?}"),
            })
            .unwrap_or(default)
    }

    /// A string flag, `None` when absent.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A `u64` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value is present but not a valid `u64`.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.integer(name, default)
    }

    /// An integer flag parsed straight into its target type, so a value
    /// that does not fit is refused like any other malformed integer.
    fn integer<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }
}

/// The abort message tail for an unknown flag: a "did you mean"
/// suggestion when a declared flag is close, plus the full declared set.
fn unknown_flag_help(name: &str, known: &[&str]) -> String {
    let mut help = String::new();
    if let Some(best) = known
        .iter()
        .map(|k| (edit_distance(name, k), *k))
        .filter(|&(d, k)| d <= (k.len() / 3).max(1))
        .min_by_key(|&(d, _)| d)
    {
        help.push_str(&format!(" (did you mean --{}?)", best.1));
    }
    let mut list: Vec<&str> = known.to_vec();
    list.sort_unstable();
    help.push_str("; this binary accepts: ");
    help.push_str(
        &list
            .iter()
            .map(|k| format!("--{k}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    help
}

/// Levenshtein distance, small inputs only (flag names).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &[
        "trials",
        "grid-ci",
        "threads",
        "seed",
        "resume",
        "verbose",
        "checkpoint",
        "checkpoint-every",
    ];

    fn args(s: &[&str]) -> Args {
        Args::parse_from(KNOWN, s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_defaults() {
        let a = args(&["--trials", "100", "--grid-ci", "2.5"]);
        assert_eq!(a.usize("trials", 10), 100);
        assert_eq!(a.usize("threads", 8), 8);
        assert_eq!(a.f64("grid-ci", 0.0), 2.5);
        assert_eq!(a.u64("seed", 7), 7);
    }

    #[test]
    fn bare_flags_read_as_boolean_switches() {
        let a = args(&["--resume", "--trials", "5", "--verbose", "0"]);
        assert!(a.bool("resume", false));
        assert!(!a.bool("verbose", true));
        assert!(a.bool("absent", true));
        assert_eq!(a.usize("trials", 1), 5);
    }

    #[test]
    fn string_flags_pass_through() {
        let a = args(&["--checkpoint", "/tmp/run.ckpt", "--resume"]);
        assert_eq!(a.str("checkpoint"), Some("/tmp/run.ckpt"));
        assert_eq!(a.str("absent"), None);
    }

    #[test]
    #[should_panic(expected = "expects true/false")]
    fn bad_boolean_panics() {
        let a = args(&["--resume", "maybe"]);
        let _ = a.bool("resume", false);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn dangling_numeric_flag_panics() {
        // A bare flag stores "true"; numeric getters still refuse it.
        let a = args(&["--trials"]);
        let _ = a.usize("trials", 1);
    }

    /// The `serve` binary's grid flags.
    fn grid(s: &[&str]) -> Args {
        Args::parse_from(&["start", "step"], s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn narrow_integers_parse_in_range_values_and_defaults() {
        let a = grid(&["--step", "4294967295", "--start", "-1700000000"]);
        assert_eq!(a.u32("step", 300), u32::MAX);
        assert_eq!(a.i64("start", 0), -1_700_000_000);
        let a = grid(&[]);
        assert_eq!(a.u32("step", 300), 300);
        assert_eq!(a.i64("start", 0), 0);
    }

    #[test]
    #[should_panic(expected = "--step expects an integer, got \"4294967596\"")]
    fn out_of_range_u32_panics_instead_of_wrapping() {
        // 2^32 + 300: an `as u32` cast used to run this as a 300 s step.
        let a = grid(&["--step", "4294967596"]);
        let _ = a.u32("step", 300);
    }

    #[test]
    #[should_panic(expected = "--start expects an integer")]
    fn out_of_range_i64_panics_instead_of_wrapping() {
        let a = grid(&["--start", "9223372036854775808"]);
        let _ = a.i64("start", 0);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = args(&["--trials", "lots"]);
        let _ = a.usize("trials", 1);
    }

    #[test]
    #[should_panic(expected = "flags look like")]
    fn positional_argument_panics() {
        let _ = args(&["trials"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --chekpoint-every (did you mean --checkpoint-every?)")]
    fn unknown_flag_aborts_with_a_suggestion() {
        // The motivating regression: this typo used to silently run the
        // whole study with checkpointing disabled.
        let _ = args(&["--chekpoint-every", "5"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --banana")]
    fn unknown_flag_aborts_without_a_far_fetched_suggestion() {
        let _ = args(&["--banana", "1"]);
    }

    #[test]
    fn unknown_flag_message_lists_the_declared_set() {
        let caught = std::panic::catch_unwind(|| args(&["--bogus"])).unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(
            message.contains("--checkpoint-every") && message.contains("--trials"),
            "{message}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate flag --trials")]
    fn duplicate_flag_aborts() {
        let _ = args(&["--trials", "5", "--trials", "6"]);
    }
}
