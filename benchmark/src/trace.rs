//! In-memory spans for the traced run.
//!
//! A span is one call into a library layer, recorded by the benchmark
//! around the public function it calls: name, start, end, the span that
//! caused it and a request id (a trial, window, batch or coalition
//! batch). Spans stay in memory until the run ends and are then written
//! as JSONL. A layer's self time is its spans' durations minus the time
//! their child spans cover.
//!
//! Span names are the per-layer metric names without their `_s` suffix.
//! Names starting with `harness.` are the benchmark's own grouping spans
//! (a trial, a batch); their self time is benchmark glue, not a layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::{Number, Value};

/// Prefix of the benchmark's own grouping spans.
pub const HARNESS: &str = "harness.";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or harness) name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The trial, window, batch or coalition batch this span served.
    pub request: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle for an open span; `None` when recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. Disabled, it records nothing and costs one branch
/// per call, so the same replay code runs traced and untraced.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Σ (duration − time covered by child spans), seconds.
    pub self_s: f64,
    /// Spans recorded under this name.
    pub calls: u64,
}

impl Spans {
    /// A recorder, initially enabled.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        self.end_named(open, None);
    }

    /// Closes `open` under `name` — for calls whose layer is only known
    /// from their result (a surrogate call that fell back).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        self.end_named(open, Some(name));
    }

    fn end_named(&mut self, open: Open, name: Option<&'static str>) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time (s), index-aligned with [`Self::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.secs() - c).max(0.0))
            .collect()
    }

    /// Self time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.self_s += self_s;
            t.calls += 1;
        }
        out
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes `header` as the first line, then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &Value) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", to_json(header))?;
        for (id, s) in self.spans.iter().enumerate() {
            let uint = |v: u64| Value::Number(Number::PosInt(v));
            let line = Value::Object(vec![
                ("id".into(), uint(id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| uint(p as u64)),
                ),
                ("name".into(), Value::String(s.name.into())),
                ("request".into(), uint(s.request)),
                ("start_ns".into(), uint(s.start_ns)),
                ("end_ns".into(), uint(s.end_ns)),
            ]);
            writeln!(out, "{}", to_json(&line))?;
        }
        out.flush()
    }
}

/// Compact JSON text of a value.
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON values serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.begin("harness.trial", 7);
        spans.span("shapley.exact", 7, || spin(2_000_000));
        let inner = spans.begin("core.metrics", 7);
        spin(1_000_000);
        spans.end_as(inner, "core.demand_baselines");
        spans.end(root);
        let all = spans.spans();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].name, "core.demand_baselines");
        let selfs = spans.self_times();
        assert!((selfs[0] - (all[0].secs() - all[1].secs() - all[2].secs())).abs() < 1e-12);
        let totals = spans.totals();
        assert_eq!(totals["shapley.exact"].calls, 1);
        assert!(totals["shapley.exact"].self_s >= 0.002);
        assert!(totals["harness.trial"].self_s < totals["shapley.exact"].self_s);
        assert_eq!(spans.durations("core.demand_baselines").len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new();
        spans.set_enabled(false);
        let open = spans.begin("shapley.exact", 1);
        assert_eq!(spans.span("core.metrics", 1, || 5), 5);
        spans.end(open);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn jsonl_has_a_header_and_one_line_per_span() {
        let mut spans = Spans::new();
        let root = spans.begin("harness.batch", 0);
        spans.span("solver.cold_lattice", 3, || ());
        spans.end(root);
        let dir = std::env::temp_dir().join(format!("fairco2-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        let header = Value::Object(vec![("workload".into(), Value::String("lp".into()))]);
        spans.write_jsonl(&path, &header).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("workload").and_then(Value::as_str), Some("lp"));
        assert_eq!(
            lines[2].get("parent"),
            Some(&Value::Number(Number::PosInt(0)))
        );
        assert_eq!(
            lines[2].get("request"),
            Some(&Value::Number(Number::PosInt(3)))
        );
    }
}
