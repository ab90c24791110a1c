//! Jobs-invariance: the full nested-parallel protocol — run-level fan-out
//! over one pool, per-run simulations over another — must produce run
//! journals bitwise identical to the serial protocol on every non-timing
//! field, and identical method statistics.
//!
//! The parallel worker counts default to 4 run-jobs × 2 jobs and can be
//! overridden through `MAOPT_INVARIANCE_RUN_JOBS` / `MAOPT_INVARIANCE_JOBS`
//! so CI can sweep several configurations with one test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use maopt_core::problem::{ParamSpec, SizingProblem, Spec};
use maopt_core::problems::ConstrainedToy;
use maopt_core::runner::{make_initial_sets, run_method, MethodStats};
use maopt_core::{MaOptConfig, OpState};
use maopt_exec::{EvalEngine, SimCache, Telemetry};
use maopt_obs::{read_journal, Journal, Record};

const RUNS: usize = 3;
const BUDGET: usize = 10;
const INIT_SIZE: usize = 20;
const SEED: u64 = 77;

fn tiny(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![16, 16],
        critic_steps: 15,
        actor_steps: 8,
        n_samples: 100,
        t_ns: 2,
        ..cfg
    }
}

fn env_jobs(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// [`ConstrainedToy`] with a simulator-shaped warm-start surface: every
/// evaluation returns an operating-point state (its own design vector), and
/// a supplied seed nudges metric 0 at the last-ulp scale — the same way a
/// warm-started Newton solve lands within tolerance of, but not bitwise on,
/// the cold solution. If seed selection ever depended on scheduling (a racy
/// shared cache instead of the main thread's deterministic choice), the
/// nudge would differ between worker counts and the journal diff below
/// would catch it.
struct SeedSensitiveToy {
    inner: ConstrainedToy,
    seeded_calls: AtomicUsize,
}

impl SeedSensitiveToy {
    fn new(dim: usize) -> Self {
        SeedSensitiveToy {
            inner: ConstrainedToy::new(dim),
            seeded_calls: AtomicUsize::new(0),
        }
    }
}

impl SizingProblem for SeedSensitiveToy {
    fn name(&self) -> &str {
        "seed_sensitive_toy"
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn metric_names(&self) -> Vec<String> {
        self.inner.metric_names()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inner.evaluate(x)
    }

    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        let mut metrics = self.inner.evaluate(x);
        if let Some(s) = seed {
            self.seeded_calls.fetch_add(1, Ordering::Relaxed);
            let nudge: f64 = s.slots.iter().flatten().sum();
            metrics[0] += 1e-12 * nudge;
        }
        let state = OpState {
            slots: vec![x.to_vec()],
        };
        (metrics, Some(state))
    }
}

/// Runs the full journaled protocol at the given worker counts and returns
/// the method statistics plus every run's parsed journal.
fn run_protocol(run_jobs: usize, jobs: usize, tag: &str) -> (MethodStats, Vec<Vec<Record>>) {
    run_protocol_on(&ConstrainedToy::new(2), run_jobs, jobs, tag)
}

fn run_protocol_on(
    problem: &dyn SizingProblem,
    run_jobs: usize,
    jobs: usize,
    tag: &str,
) -> (MethodStats, Vec<Vec<Record>>) {
    let engine = EvalEngine::new(jobs)
        .with_telemetry(Arc::new(Telemetry::new()))
        .with_cache(Arc::new(SimCache::new()));
    let run_engine = EvalEngine::new(run_jobs);
    let inits = make_initial_sets(problem, RUNS, INIT_SIZE, SEED, &run_engine, &engine);

    let dir = std::env::temp_dir().join(format!("maopt-invariance-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journals: Vec<Journal> = (0..RUNS)
        .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
        .collect();
    let opt = tiny(MaOptConfig::ma_opt(SEED));
    let stats = run_method(
        &opt,
        problem,
        &inits,
        BUDGET,
        SEED + 7,
        &run_engine,
        &engine,
        &journals,
        &[],
    );
    drop(journals);

    let records = (0..RUNS)
        .map(|r| read_journal(dir.join(format!("run{r}.jsonl"))).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (stats, records)
}

/// Zeroes the fields that legitimately vary with scheduling: the
/// manifest's worker count and the run summary's wall-clock timings.
/// Everything else — round records, actor losses, engine counter deltas,
/// near-sampling decisions — must match bitwise.
fn normalize(records: &mut [Record]) {
    for rec in records {
        match rec {
            Record::Manifest(m) => m.jobs = 0,
            Record::RunEnd(e) => e.zero_timing(),
            _ => {}
        }
    }
}

#[test]
fn nested_parallel_journals_match_serial_bitwise() {
    let run_jobs = env_jobs("MAOPT_INVARIANCE_RUN_JOBS", 4);
    let jobs = env_jobs("MAOPT_INVARIANCE_JOBS", 2);

    let (serial_stats, mut serial_journals) = run_protocol(1, 1, "serial");
    let (par_stats, mut par_journals) =
        run_protocol(run_jobs, jobs, &format!("par{run_jobs}x{jobs}"));

    for (r, (s, p)) in serial_journals
        .iter_mut()
        .zip(par_journals.iter_mut())
        .enumerate()
    {
        assert!(s.len() > 2, "run {r}: journal has rounds, not just ends");
        normalize(s);
        normalize(p);
        // Compare re-serialized lines rather than parsed records: a run
        // whose budget expires mid-round legitimately journals NaN fields
        // (e.g. an unsimulated proposal), and `NaN != NaN` under
        // `PartialEq` would fail the comparison even on identical bits.
        let lines = |recs: &[Record]| recs.iter().map(Record::to_json_line).collect::<Vec<_>>();
        assert_eq!(
            lines(s),
            lines(p),
            "run {r}: journals diverge between 1x1 and {run_jobs}x{jobs} workers"
        );
    }

    // The aggregate statistics must agree bitwise as well.
    assert_eq!(serial_stats.successes, par_stats.successes);
    assert_eq!(
        serial_stats
            .fom_curve
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        par_stats
            .fom_curve
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(serial_stats.exec.sims, par_stats.exec.sims);
    assert_eq!(serial_stats.exec.cache_hits, par_stats.exec.cache_hits);
    for (a, b) in serial_stats.results.iter().zip(&par_stats.results) {
        assert_eq!(a.best_fom().to_bits(), b.best_fom().to_bits());
    }
}

/// Same contract with operating-point warm-starting active: the problem
/// returns OP state, the optimizer's `OpStore` feeds seeds back into later
/// evaluations, and a seed perceptibly (if minutely) shifts the metrics —
/// yet journals must still match the serial run bitwise at any worker
/// count, because seeds are chosen deterministically on the main thread
/// and travel inside the evaluation requests.
#[test]
fn warm_started_journals_match_serial_bitwise() {
    let run_jobs = env_jobs("MAOPT_INVARIANCE_RUN_JOBS", 4);
    let jobs = env_jobs("MAOPT_INVARIANCE_JOBS", 2);

    let serial_problem = SeedSensitiveToy::new(2);
    let par_problem = SeedSensitiveToy::new(2);
    let (serial_stats, mut serial_journals) = run_protocol_on(&serial_problem, 1, 1, "warm-serial");
    let (par_stats, mut par_journals) = run_protocol_on(
        &par_problem,
        run_jobs,
        jobs,
        &format!("warm-par{run_jobs}x{jobs}"),
    );

    // The warm path must actually have been exercised, in both protocols:
    // a test where no seed ever arrives would vacuously pass.
    assert!(
        serial_problem.seeded_calls.load(Ordering::Relaxed) > 0,
        "serial protocol never received a warm-start seed"
    );
    assert!(
        par_problem.seeded_calls.load(Ordering::Relaxed) > 0,
        "parallel protocol never received a warm-start seed"
    );

    for (r, (s, p)) in serial_journals
        .iter_mut()
        .zip(par_journals.iter_mut())
        .enumerate()
    {
        assert!(s.len() > 2, "run {r}: journal has rounds, not just ends");
        normalize(s);
        normalize(p);
        let lines = |recs: &[Record]| recs.iter().map(Record::to_json_line).collect::<Vec<_>>();
        assert_eq!(
            lines(s),
            lines(p),
            "run {r}: warm-started journals diverge between 1x1 and {run_jobs}x{jobs} workers"
        );
    }

    assert_eq!(serial_stats.exec.sims, par_stats.exec.sims);
    for (a, b) in serial_stats.results.iter().zip(&par_stats.results) {
        assert_eq!(a.best_fom().to_bits(), b.best_fom().to_bits());
    }
}
