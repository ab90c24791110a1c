//! Per-DC-solve observability: `sim.dc.{warm,fallback,cold}` spans into
//! the ambient flight recorder, plus the Newton-iteration histogram and
//! warm-start counters into the ambient metrics registry.
//!
//! `maopt-exec` installs the active `TraceRecorder` and `MetricsRegistry`
//! in thread-locals around each `Problem::evaluate` call (see
//! `maopt_exec::trace::ambient`); the DC analysis captures them once per
//! solve through [`Probe::current`]. With both sinks absent every probe
//! call is a branch on `None`, and observation never feeds back into the
//! computation, so journal byte-identity is unaffected.

use std::sync::Arc;

use maopt_exec::metrics::MetricsRegistry;
use maopt_exec::trace::TraceRecorder;

/// Handle to the ambient trace recorder and metrics registry; all
/// methods are no-ops when the respective sink is absent.
#[derive(Debug, Clone, Default)]
pub(crate) struct Probe {
    rec: Option<Arc<TraceRecorder>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Probe {
    /// Captures the recorder and metrics registry of the evaluation
    /// currently running on this thread (if any).
    pub fn current() -> Probe {
        Probe {
            rec: maopt_exec::trace::ambient(),
            metrics: maopt_exec::metrics::ambient_metrics(),
        }
    }

    /// Timestamp for a span about to start (0 when disabled).
    pub fn start(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.now_ns())
    }

    /// Closes a span opened at `t0`.
    pub fn span(&self, name: &str, t0: u64) {
        if let Some(r) = &self.rec {
            let now = r.now_ns();
            r.span(name, t0, now.saturating_sub(t0), None);
        }
    }

    /// Bumps a named counter in the ambient metrics registry.
    pub fn inc(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.inc(name, 1);
        }
    }

    /// Records one observation into a named ambient histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(m) = &self.metrics {
            m.observe(name, value);
        }
    }
}
