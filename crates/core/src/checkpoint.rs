//! Per-run checkpoint policy: where snapshots go, whether to resume from
//! one, and (for crash testing) when to halt.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use maopt_ckpt::{load_snapshot_gen, save_snapshot_gen, snapshot_store, GenStore, RunSnapshot};

/// Checkpoint configuration for one optimization run.
///
/// Passed to [`crate::MaOpt::run`]; the optimizer saves an
/// atomic [`RunSnapshot`] generation (`<path>.0001.bin`,
/// `<path>.0002.bin`, …, newest [`RunCheckpointer::keep`] retained)
/// after every completed round, and — when
/// [`RunCheckpointer::with_resume`] is set — restores from the newest
/// *good* generation before the first round, continuing bitwise
/// identically to an uninterrupted run from that generation. A corrupt
/// newest generation (torn write, bit rot) is rolled past, counted in
/// [`RunCheckpointer::rollbacks`]; a failed save is tolerated (counted
/// in [`RunCheckpointer::write_failures`]) because the previous good
/// generation remains the durable resume point.
#[derive(Debug, Clone)]
pub struct RunCheckpointer {
    path: PathBuf,
    resume: bool,
    keep: usize,
    halt_after_round: Option<usize>,
    stop_flag: Option<Arc<AtomicBool>>,
    progress: Option<Arc<AtomicU64>>,
    rollbacks: Arc<AtomicU64>,
    write_failures: Arc<AtomicU64>,
}

impl RunCheckpointer {
    /// Checkpoints generations rotated beside `path` (the logical base
    /// name; actual files are `<path>.NNNN.bin`), without resuming.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RunCheckpointer {
            path: path.into(),
            resume: false,
            keep: maopt_ckpt::DEFAULT_KEEP,
            halt_after_round: None,
            stop_flag: None,
            progress: None,
            rollbacks: Arc::new(AtomicU64::new(0)),
            write_failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether to restore from an existing snapshot generation before
    /// the first round. With no snapshot on disk the run starts fresh.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// How many snapshot generations to retain (at least 1; default
    /// [`maopt_ckpt::DEFAULT_KEEP`]). More generations widen the
    /// rollback window at the cost of disk.
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Deterministic in-process crash simulation: return from the run
    /// right after durably saving the checkpoint of round `round`,
    /// without writing the run-end record — exactly the state a `SIGKILL`
    /// between rounds leaves behind.
    #[must_use]
    pub fn with_halt_after_round(mut self, round: usize) -> Self {
        self.halt_after_round = Some(round);
        self
    }

    /// The logical snapshot base path (generations rotate beside it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether resume was requested.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// Snapshot generations retained after each save.
    pub fn keep(&self) -> usize {
        self.keep
    }

    pub(crate) fn halt_after_round(&self) -> Option<usize> {
        self.halt_after_round
    }

    /// Cooperative shutdown: when `flag` becomes `true`, the run returns
    /// early at the next round boundary, *after* durably checkpointing
    /// that round and without writing the run-end record — the same
    /// resumable state [`RunCheckpointer::with_halt_after_round`]
    /// produces, but triggered externally (SIGTERM handlers, a daemon's
    /// cancel path) instead of at a predetermined round.
    #[must_use]
    pub fn with_stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop_flag = Some(flag);
        self
    }

    /// Liveness beacon for external watchdogs: after every durable save
    /// (and on resume), `1 + round` is stored here — so a supervisor can
    /// detect a run whose checkpoint round has stopped advancing without
    /// touching the filesystem. Zero means "no checkpoint yet".
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<AtomicU64>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Whether an attached stop flag has been raised.
    pub fn stop_requested(&self) -> bool {
        self.stop_flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Corrupt newer generations rolled past when resuming.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::SeqCst)
    }

    /// Snapshot saves that failed and were tolerated (the previous good
    /// generation remained the durable resume point).
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::SeqCst)
    }

    fn store(&self) -> GenStore {
        snapshot_store(&self.path).with_keep(self.keep)
    }

    fn beat(&self, round: u64) {
        if let Some(p) = &self.progress {
            p.store(1 + round, Ordering::SeqCst);
        }
    }

    /// The snapshot to resume from, if resuming was requested and a good
    /// generation (or legacy un-rotated snapshot) exists. Corrupt newer
    /// generations are rolled past and counted in
    /// [`RunCheckpointer::rollbacks`].
    ///
    /// # Panics
    ///
    /// Panics when snapshots exist but *none* validates — resuming from
    /// nothing would silently restart the run from scratch, so the
    /// unrecoverable store is refused loudly.
    pub(crate) fn load_for_resume(&self) -> Option<RunSnapshot> {
        if !self.resume {
            return None;
        }
        let load = load_snapshot_gen(&self.store())
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", self.path.display()))?;
        if load.rolled_back > 0 {
            self.rollbacks.fetch_add(load.rolled_back, Ordering::SeqCst);
            eprintln!(
                "maopt: rolled back {} corrupt snapshot generation(s) of {}; resuming from generation {} (round {})",
                load.rolled_back,
                self.path.display(),
                load.generation,
                load.value.round,
            );
        }
        self.beat(load.value.round);
        Some(load.value)
    }

    /// Durably saves `snap` as the next snapshot generation. A failed
    /// save is tolerated — counted in
    /// [`RunCheckpointer::write_failures`] and logged — because the
    /// previous good generation still satisfies the crash-recovery
    /// contract: a crash now resumes from one round earlier, which is a
    /// state an uninterrupted run also passed through deterministically.
    pub(crate) fn save(&self, snap: &RunSnapshot) {
        match save_snapshot_gen(&self.store(), snap) {
            Ok(_) => self.beat(snap.round),
            Err(e) => {
                self.write_failures.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "maopt: checkpoint of round {} to {} failed ({e}); previous generation remains the resume point",
                    snap.round,
                    self.path.display(),
                );
            }
        }
    }
}
