//! Measurement from outside the program: a [`SizingProblem`] wrapper that
//! times every circuit call, and an in-memory span log for traced runs.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use maopt_core::{OpState, ParamSpec, SizingProblem, Spec};

/// Per-call statistics of the wrapped circuit (`maopt-circuits`).
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    nonconverged: AtomicU64,
    samples_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of [`CallStats`].
#[derive(Debug, Clone, Default)]
pub struct CallSnapshot {
    pub calls: u64,
    pub busy_ns: u64,
    pub nonconverged: u64,
    pub samples_ns: Vec<u64>,
}

impl CallStats {
    pub fn snapshot(&self) -> CallSnapshot {
        CallSnapshot {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            nonconverged: self.nonconverged.load(Ordering::Relaxed),
            samples_ns: self.samples_ns.lock().expect("call stats").clone(),
        }
    }
}

impl CallSnapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &CallSnapshot) -> CallSnapshot {
        CallSnapshot {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
            nonconverged: self.nonconverged - earlier.nonconverged,
            samples_ns: self.samples_ns[earlier.samples_ns.len()..].to_vec(),
        }
    }
}

/// One recorded span. `parent` is 0 for a top-level span.
#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: u64,
    run: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log. Disabled logs record nothing and cost one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    current: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every later span with run id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`. Spans opened on other threads
    /// while `f` runs (circuit calls on pool workers) become its children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.current.store(parent, Ordering::Relaxed);
        self.push(id, parent, name, start, end);
        out
    }

    /// Records a leaf span under the currently open span.
    fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::Relaxed);
        self.push(id, parent, name, start, end);
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let rec = SpanRec {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span log").push(rec);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A circuit wrapped so that every evaluation is timed and classified.
/// Results pass through unchanged, so runs stay bitwise identical to
/// unwrapped ones.
pub struct Probed<'a> {
    inner: &'a dyn SizingProblem,
    failure: Vec<f64>,
    stats: &'a CallStats,
    spans: &'a SpanLog,
}

impl<'a> Probed<'a> {
    pub fn new(inner: &'a dyn SizingProblem, stats: &'a CallStats, spans: &'a SpanLog) -> Self {
        Probed {
            failure: inner.failure_metrics(),
            inner,
            stats,
            spans,
        }
    }

    /// The wrapped circuit's call statistics so far.
    pub fn calls(&self) -> CallSnapshot {
        self.stats.snapshot()
    }

    fn timed<R>(&self, f: impl FnOnce() -> R, metrics: impl Fn(&R) -> &[f64]) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let s = self.stats;
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if metrics(&out) == self.failure.as_slice() {
            s.nonconverged.fetch_add(1, Ordering::Relaxed);
        }
        s.samples_ns.lock().expect("call stats").push(ns);
        if self.spans.enabled() {
            self.spans.leaf("circuit", start, end);
        }
        out
    }
}

impl SizingProblem for Probed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn metric_names(&self) -> Vec<String> {
        self.inner.metric_names()
    }

    fn num_metrics(&self) -> usize {
        self.inner.num_metrics()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.timed(|| self.inner.evaluate(x), |m| m.as_slice())
    }

    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        self.timed(|| self.inner.evaluate_seeded(x, seed), |r| r.0.as_slice())
    }

    fn denormalize(&self, x: &[f64]) -> Vec<f64> {
        self.inner.denormalize(x)
    }

    fn failure_metrics(&self) -> Vec<f64> {
        self.failure.clone()
    }

    fn is_failure(&self, metrics: &[f64]) -> bool {
        self.inner.is_failure(metrics)
    }
}
