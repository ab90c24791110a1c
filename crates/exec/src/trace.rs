//! Flight-recorder tracing: lock-light, per-thread ring buffers of
//! timeline events (spans, instants, counter samples).
//!
//! The recorder answers questions the per-phase span *totals* in
//! [`crate::Telemetry`] cannot: where are the worker idle gaps, which
//! individual simulations sit in the latency tail, how deep did the
//! pool queue get over time. It is engineered for the evaluation hot
//! path:
//!
//! * **Per-thread buffers.** Each recording thread owns its own ring
//!   buffer behind its own mutex; in steady state that mutex is
//!   uncontended (only the draining reader ever takes it from another
//!   thread), so recording is one uncontended lock plus a `VecDeque`
//!   push.
//! * **Name interning.** Event names are interned to `u32` ids through
//!   a per-thread cache, so the shared intern table is locked only the
//!   first time a thread sees a name.
//! * **Bounded memory.** A full ring overwrites its oldest event and
//!   counts the drop — a flight recorder keeps the most recent window,
//!   it never grows without bound and never blocks the writer.
//! * **Zero cost when disabled.** [`crate::Telemetry`] holds an
//!   `Option<Arc<TraceRecorder>>`; with `None` every trace site is a
//!   single branch.
//!
//! Determinism boundary: trace events are wall-clock timing and MUST
//! NOT flow into run journals — the journal byte-identity contract
//! excludes timing. Traces are drained into their own artifact
//! (`trace.jsonl`, see [`TraceRecorder::write_jsonl`]), which the
//! `maopt-report trace` subcommand renders to Chrome/Perfetto
//! `trace_event` JSON.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::telemetry::{json_f64, json_string};

/// Default ring capacity (events per thread).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Process-wide recorder id source, used to key the thread-local handle
/// cache (a thread may record into different recorders over its life).
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's registration with each live recorder it has
    /// recorded into: ring buffer handle + private name-intern cache.
    static THREAD_HANDLES: std::cell::RefCell<Vec<ThreadHandle>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One thread's private view of one recorder.
struct ThreadHandle {
    recorder_id: u64,
    buf: Arc<Mutex<ThreadBuffer>>,
    /// Thread-private name → intern-id cache; avoids the shared intern
    /// lock after the first sighting of a name on this thread.
    names: HashMap<String, u32>,
}

/// What kind of event a [`RawEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RawKind {
    /// A completed span: `t_ns .. t_ns + dur_ns`.
    Span,
    /// A point-in-time marker (e.g. a fault).
    Instant,
    /// A sampled counter value (e.g. queue depth).
    Counter,
}

/// One ring-buffer slot. Names are interned ids; `arg` is an optional
/// event payload (e.g. a design hash for provenance).
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    name: u32,
    kind: RawKind,
    t_ns: u64,
    dur_ns: u64,
    arg: u64,
    has_arg: bool,
    value: f64,
}

/// One thread's ring buffer plus its identity in the trace.
struct ThreadBuffer {
    tid: u32,
    label: String,
    events: VecDeque<RawEvent>,
    dropped: u64,
}

/// Shared name-intern table (id = index into `names`).
#[derive(Default)]
struct NameTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

/// The flight recorder. Create once per traced run, share via `Arc`
/// (clones of [`crate::Telemetry`]-isolated sinks all point here), and
/// drain with [`TraceRecorder::snapshot`] / [`TraceRecorder::write_jsonl`]
/// when the run finishes.
pub struct TraceRecorder {
    id: u64,
    capacity: usize,
    origin: Instant,
    names: Mutex<NameTable>,
    threads: Mutex<Vec<Arc<Mutex<ThreadBuffer>>>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field(
                "threads",
                &self.threads.lock().map(|t| t.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder with the default per-thread ring capacity.
    pub fn new() -> Arc<TraceRecorder> {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events per thread (clamped
    /// to at least 16).
    pub fn with_capacity(capacity: usize) -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(16),
            origin: Instant::now(),
            names: Mutex::new(NameTable::default()),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the recorder was created — the timestamp base
    /// of every event, shared by all threads and all telemetry sinks
    /// pointing at this recorder.
    pub fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of trace; the truncation is
        // theoretical.
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a completed span (`t0_ns` from [`TraceRecorder::now_ns`]
    /// taken at span start).
    pub fn span(&self, name: &str, t0_ns: u64, dur_ns: u64, arg: Option<u64>) {
        self.record(
            name,
            RawEvent {
                name: 0,
                kind: RawKind::Span,
                t_ns: t0_ns,
                dur_ns,
                arg: arg.unwrap_or(0),
                has_arg: arg.is_some(),
                value: 0.0,
            },
        );
    }

    /// Records a point-in-time marker (e.g. `fault:panic`).
    pub fn instant(&self, name: &str, arg: Option<u64>) {
        self.record(
            name,
            RawEvent {
                name: 0,
                kind: RawKind::Instant,
                t_ns: self.now_ns(),
                dur_ns: 0,
                arg: arg.unwrap_or(0),
                has_arg: arg.is_some(),
                value: 0.0,
            },
        );
    }

    /// Records a sampled counter value (e.g. queue depth over time).
    pub fn counter(&self, name: &str, value: f64) {
        self.record(
            name,
            RawEvent {
                name: 0,
                kind: RawKind::Counter,
                t_ns: self.now_ns(),
                dur_ns: 0,
                arg: 0,
                has_arg: false,
                value,
            },
        );
    }

    /// Interns `name` in the shared table (first sighting only; callers
    /// go through the per-thread cache).
    fn intern(&self, name: &str) -> u32 {
        let mut table = self.names.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = table.by_name.get(name) {
            return id;
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_string());
        table.by_name.insert(name.to_string(), id);
        id
    }

    /// Registers the calling thread with this recorder (idempotent) and
    /// pushes `ev` into its ring, interning the name through the
    /// thread-local cache.
    fn record(&self, name: &str, mut ev: RawEvent) {
        THREAD_HANDLES.with(|cell| {
            let mut handles = cell.borrow_mut();
            let idx = match handles.iter().position(|h| h.recorder_id == self.id) {
                Some(idx) => idx,
                None => {
                    // Registering with a new recorder is the natural
                    // moment to drop handles whose recorder has died
                    // (only the thread-local still holds their buffer).
                    handles.retain(|h| Arc::strong_count(&h.buf) > 1);
                    let label = std::thread::current()
                        .name()
                        .map_or_else(|| "unnamed".to_string(), str::to_string);
                    let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
                    let tid = threads.len() as u32;
                    let buf = Arc::new(Mutex::new(ThreadBuffer {
                        tid,
                        label,
                        events: VecDeque::with_capacity(self.capacity.min(1024)),
                        dropped: 0,
                    }));
                    threads.push(Arc::clone(&buf));
                    drop(threads);
                    handles.push(ThreadHandle {
                        recorder_id: self.id,
                        buf,
                        names: HashMap::new(),
                    });
                    handles.len() - 1
                }
            };
            let handle = &mut handles[idx];
            ev.name = match handle.names.get(name) {
                Some(&id) => id,
                None => {
                    let id = self.intern(name);
                    handle.names.insert(name.to_string(), id);
                    id
                }
            };
            let mut buf = handle.buf.lock().unwrap_or_else(PoisonError::into_inner);
            if buf.events.len() >= self.capacity {
                buf.events.pop_front();
                buf.dropped += 1;
            }
            buf.events.push_back(ev);
        });
    }

    /// A point-in-time copy of every thread's ring, names resolved.
    /// Threads are ordered by registration (tid); each thread's events
    /// are in recording order (monotone `t_ns` per thread).
    pub fn snapshot(&self) -> TraceSnapshot {
        let names = {
            let table = self.names.lock().unwrap_or_else(PoisonError::into_inner);
            table.names.clone()
        };
        let resolve = |id: u32| {
            names
                .get(id as usize)
                .cloned()
                .unwrap_or_else(|| format!("name#{id}"))
        };
        let threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        let threads = threads
            .iter()
            .map(|buf| {
                let buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                ThreadTrace {
                    tid: buf.tid,
                    label: buf.label.clone(),
                    dropped: buf.dropped,
                    events: buf
                        .events
                        .iter()
                        .map(|ev| TraceEvent {
                            name: resolve(ev.name),
                            t_ns: ev.t_ns,
                            arg: ev.has_arg.then_some(ev.arg),
                            kind: match ev.kind {
                                RawKind::Span => TraceEventKind::Span { dur_ns: ev.dur_ns },
                                RawKind::Instant => TraceEventKind::Instant,
                                RawKind::Counter => TraceEventKind::Counter { value: ev.value },
                            },
                        })
                        .collect(),
                }
            })
            .collect();
        TraceSnapshot { threads }
    }

    /// Drains the recorder into the on-disk trace artifact: one JSON
    /// object per line (see the module docs for why this never goes
    /// into a run journal).
    ///
    /// Line grammar:
    ///
    /// ```text
    /// {"trace":"maopt","version":1}                                  header
    /// {"kind":"thread","tid":N,"label":"...","dropped":N}            per thread
    /// {"kind":"span","tid":N,"name":"...","t_ns":N,"dur_ns":N[,"arg":N]}
    /// {"kind":"instant","tid":N,"name":"...","t_ns":N[,"arg":N]}
    /// {"kind":"counter","tid":N,"name":"...","t_ns":N,"value":V}
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let snap = self.snapshot();
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "{{\"trace\":\"maopt\",\"version\":1}}")?;
        for thread in &snap.threads {
            writeln!(
                w,
                "{{\"kind\":\"thread\",\"tid\":{},\"label\":{},\"dropped\":{}}}",
                thread.tid,
                json_string(&thread.label),
                thread.dropped
            )?;
        }
        for thread in &snap.threads {
            for ev in &thread.events {
                let mut line = match &ev.kind {
                    TraceEventKind::Span { dur_ns } => format!(
                        "{{\"kind\":\"span\",\"tid\":{},\"name\":{},\"t_ns\":{},\"dur_ns\":{}",
                        thread.tid,
                        json_string(&ev.name),
                        ev.t_ns,
                        dur_ns
                    ),
                    TraceEventKind::Instant => format!(
                        "{{\"kind\":\"instant\",\"tid\":{},\"name\":{},\"t_ns\":{}",
                        thread.tid,
                        json_string(&ev.name),
                        ev.t_ns
                    ),
                    TraceEventKind::Counter { value } => format!(
                        "{{\"kind\":\"counter\",\"tid\":{},\"name\":{},\"t_ns\":{},\"value\":{}",
                        thread.tid,
                        json_string(&ev.name),
                        ev.t_ns,
                        json_f64(*value)
                    ),
                };
                if let Some(arg) = ev.arg {
                    line.push_str(&format!(",\"arg\":{arg}"));
                }
                line.push('}');
                writeln!(w, "{line}")?;
            }
        }
        w.flush()
    }
}

/// A drained copy of the recorder: every thread, names resolved.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Per-thread event streams, ordered by registration.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total events across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True when no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One thread's slice of a [`TraceSnapshot`].
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Trace-local thread id (registration order).
    pub tid: u32,
    /// OS thread name at registration (e.g. `maopt-pool1-w0`).
    pub label: String,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// Events still in the ring, oldest first.
    pub events: Vec<TraceEvent>,
}

/// One resolved event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span phase, marker name, or counter name).
    pub name: String,
    /// Nanoseconds since recorder creation (span start for spans).
    pub t_ns: u64,
    /// Optional payload — `evaluate_one` stores the design hash here so
    /// slow simulations can be traced back to the design that caused
    /// them.
    pub arg: Option<u64>,
    /// Kind-specific data.
    pub kind: TraceEventKind,
}

// ---------------------------------------------------------------------------
// Ambient recorder
// ---------------------------------------------------------------------------

thread_local! {
    /// The recorder of the evaluation currently running on this thread,
    /// installed by the executor around `Problem::evaluate` so lower
    /// layers (e.g. the simulator in `maopt-sim`) can attach per-solve
    /// spans without a dependency edge back onto the telemetry plumbing.
    static AMBIENT: std::cell::RefCell<Option<Arc<TraceRecorder>>> =
        const { std::cell::RefCell::new(None) };
}

/// Returns the recorder installed for the evaluation currently running
/// on this thread, if any (see [`set_ambient`]).
///
/// `maopt-sim` uses this to emit one `sim.dc.{warm,fallback,cold}` span
/// per DC solve into the same flight recorder as the surrounding `sim`
/// span. When tracing is off this is a thread-local read returning
/// `None`.
pub fn ambient() -> Option<Arc<TraceRecorder>> {
    AMBIENT.with(|slot| slot.borrow().clone())
}

/// Installs `rec` as this thread's ambient recorder for the lifetime of
/// the returned guard. The previous value is restored when the guard
/// drops — including during unwinding, so a panicking evaluation never
/// leaks its recorder into the next one scheduled on the same worker.
pub fn set_ambient(rec: Option<Arc<TraceRecorder>>) -> AmbientGuard {
    let prev = AMBIENT.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), rec));
    AmbientGuard { prev }
}

/// RAII guard restoring the previously-installed ambient recorder; see
/// [`set_ambient`].
#[derive(Debug)]
pub struct AmbientGuard {
    prev: Option<Arc<TraceRecorder>>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        AMBIENT.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Kind-specific payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A completed span of `dur_ns` nanoseconds.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_recorder_nests_and_restores() {
        assert!(ambient().is_none());
        let outer = TraceRecorder::new();
        let guard = set_ambient(Some(Arc::clone(&outer)));
        assert!(Arc::ptr_eq(&ambient().unwrap(), &outer));
        {
            let inner = TraceRecorder::new();
            let _g2 = set_ambient(Some(Arc::clone(&inner)));
            assert!(Arc::ptr_eq(&ambient().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&ambient().unwrap(), &outer));
        drop(guard);
        assert!(ambient().is_none());
    }

    #[test]
    fn ambient_recorder_survives_panic_unwind() {
        let rec = TraceRecorder::new();
        let _guard = set_ambient(Some(Arc::clone(&rec)));
        let caught = std::panic::catch_unwind(|| {
            let inner = TraceRecorder::new();
            let _g = set_ambient(Some(inner));
            panic!("boom");
        });
        assert!(caught.is_err());
        // The panicking scope's guard restored the outer recorder.
        assert!(Arc::ptr_eq(&ambient().unwrap(), &rec));
    }

    #[test]
    fn spans_instants_and_counters_roundtrip() {
        let tr = TraceRecorder::new();
        let t0 = tr.now_ns();
        tr.span("simulation", t0, 1200, Some(0xdead));
        tr.instant("fault:panic", None);
        tr.counter("queue_depth", 3.0);
        let snap = tr.snapshot();
        assert_eq!(snap.threads.len(), 1);
        assert_eq!(snap.len(), 3);
        let events = &snap.threads[0].events;
        assert_eq!(events[0].name, "simulation");
        assert_eq!(events[0].kind, TraceEventKind::Span { dur_ns: 1200 });
        assert_eq!(events[0].arg, Some(0xdead));
        assert_eq!(events[1].kind, TraceEventKind::Instant);
        assert_eq!(events[1].arg, None);
        assert_eq!(events[2].kind, TraceEventKind::Counter { value: 3.0 });
        assert_eq!(snap.threads[0].dropped, 0);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let tr = TraceRecorder::with_capacity(16);
        for i in 0..40u64 {
            tr.span("s", i, 1, Some(i));
        }
        let snap = tr.snapshot();
        let t = &snap.threads[0];
        assert_eq!(t.events.len(), 16);
        assert_eq!(t.dropped, 24);
        // The ring keeps the most recent window.
        assert_eq!(t.events.first().unwrap().arg, Some(24));
        assert_eq!(t.events.last().unwrap().arg, Some(39));
    }

    #[test]
    fn each_thread_gets_its_own_buffer() {
        let tr = TraceRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let tr = &tr;
                s.spawn(move || {
                    for _ in 0..5 {
                        tr.instant("tick", None);
                    }
                });
            }
        });
        let snap = tr.snapshot();
        assert_eq!(snap.threads.len(), 3);
        assert!(snap.threads.iter().all(|t| t.events.len() == 5));
        // Tids are unique and dense.
        let mut tids: Vec<u32> = snap.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
    }

    #[test]
    fn one_thread_recording_into_two_recorders_keeps_them_apart() {
        let a = TraceRecorder::new();
        let b = TraceRecorder::new();
        a.instant("only-a", None);
        b.instant("only-b", None);
        b.instant("only-b", None);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 2);
        assert_eq!(a.snapshot().threads[0].events[0].name, "only-a");
    }

    #[test]
    fn jsonl_artifact_has_header_threads_and_events() {
        let dir = std::env::temp_dir().join(format!("maopt-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let tr = TraceRecorder::new();
        tr.span("phase \"x\"", 10, 20, None);
        tr.counter("depth", 2.5);
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"trace\":\"maopt\",\"version\":1}");
        assert!(lines[1].starts_with("{\"kind\":\"thread\",\"tid\":0,"));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"span\"")
            && l.contains("\"dur_ns\":20")
            && l.contains("phase \\\"x\\\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"counter\"") && l.contains("\"value\":2.5")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let tr = TraceRecorder::new();
        for _ in 0..50 {
            tr.instant("t", None);
        }
        let snap = tr.snapshot();
        let times: Vec<u64> = snap.threads[0].events.iter().map(|e| e.t_ns).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
