//! Experiment runner: the paper's protocol of 10 independent runs per
//! method with a shared initial sample set per run, producing the
//! statistics reported in Tables II/IV/VI and the FoM-vs-simulations curves
//! of Fig. 5.

use std::sync::Arc;
use std::time::Duration;

use maopt_exec::{CounterSnapshot, EvalEngine, SimCache};
use maopt_obs::{Journal, Manifest, Record, RunEnd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::RunCheckpointer;
use crate::maopt::{MaOpt, MaOptConfig, RunResult};
use crate::problem::{EngineProblem, SizingProblem};

/// Anything that can run the paper's optimization protocol — MA-Opt and its
/// ablations implement this here; the BO baseline implements it in
/// `maopt-bo`.
pub trait Optimizer: Send + Sync {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Runs one optimization with the given pre-simulated initial set,
    /// simulation budget and RNG seed.
    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
    ) -> RunResult;

    /// Like [`Optimizer::optimize`], but running every simulation and
    /// internal fan-out through the given [`EvalEngine`]. Implementations
    /// must keep the result bitwise identical for any worker count; the
    /// default ignores the engine and runs the plain serial path.
    fn optimize_with(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
    ) -> RunResult {
        let _ = engine;
        self.optimize(problem, init, budget, seed)
    }

    /// Like [`Optimizer::optimize_with`], additionally streaming run
    /// internals into the given [`Journal`]. The default wraps
    /// [`Optimizer::optimize_with`] between a [`Manifest`] and a
    /// [`RunEnd`] record — optimizers without internal instrumentation
    /// (e.g. the BO baseline) still produce a valid, if shallow, journal.
    /// Implementations must keep results bitwise identical to
    /// [`Optimizer::optimize_with`] whether or not the journal is enabled.
    fn optimize_observed(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
    ) -> RunResult {
        if !journal.enabled() {
            return self.optimize_with(problem, init, budget, seed, engine);
        }
        let (version, build) = Manifest::build_info();
        journal.write(&Record::Manifest(Manifest {
            label: self.name(),
            problem: problem.name().to_string(),
            dim: problem.dim(),
            num_metrics: problem.num_metrics(),
            seed,
            budget,
            init_size: init.len(),
            jobs: engine.jobs(),
            version,
            build,
            config: maopt_obs::json::Json::obj(vec![]),
        }));
        let before = engine.telemetry().snapshot();
        let result = self.optimize_with(problem, init, budget, seed, engine);
        let [total_s, training_s, simulation_s, near_sampling_s] = result.timings.as_secs();
        journal.write(&Record::RunEnd(RunEnd {
            rounds: 0, // unknown for un-instrumented optimizers
            sims: result.trace.num_sims(),
            best_fom: result.best_fom(),
            success: result.success(),
            total_s,
            training_s,
            simulation_s,
            near_sampling_s,
            engine: engine.telemetry().snapshot().since(&before),
        }));
        journal.flush();
        result
    }

    /// Like [`Optimizer::optimize_observed`], additionally persisting
    /// crash-recovery checkpoints through the given [`RunCheckpointer`]
    /// (see [`crate::MaOpt::run_resumable`]). The default ignores the
    /// checkpointer — optimizers without checkpoint support (e.g. the BO
    /// baseline) simply run un-checkpointed rather than failing.
    #[allow(clippy::too_many_arguments)]
    fn optimize_resumable(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
        ckpt: Option<&RunCheckpointer>,
    ) -> RunResult {
        let _ = ckpt;
        self.optimize_observed(problem, init, budget, seed, engine, journal)
    }
}

impl Optimizer for MaOptConfig {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
    ) -> RunResult {
        let config = MaOptConfig {
            seed,
            ..self.clone()
        };
        MaOpt::new(config).run(problem, init.to_vec(), budget)
    }

    fn optimize_with(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
    ) -> RunResult {
        let config = MaOptConfig {
            seed,
            ..self.clone()
        };
        MaOpt::new(config).run_with(problem, init.to_vec(), budget, engine)
    }

    fn optimize_observed(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
    ) -> RunResult {
        let config = MaOptConfig {
            seed,
            ..self.clone()
        };
        MaOpt::new(config).run_observed(problem, init.to_vec(), budget, engine, journal)
    }

    fn optimize_resumable(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
        ckpt: Option<&RunCheckpointer>,
    ) -> RunResult {
        let config = MaOptConfig {
            seed,
            ..self.clone()
        };
        MaOpt::new(config).run_resumable(problem, init.to_vec(), budget, engine, journal, ckpt)
    }
}

/// Samples and simulates `n` uniform random designs — the paper's `X_init`.
pub fn sample_initial_set(
    problem: &dyn SizingProblem,
    n: usize,
    seed: u64,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    sample_initial_set_with(problem, n, seed, &EvalEngine::default())
}

/// [`sample_initial_set`] running its simulations on the given engine's
/// worker pool. The designs come from a serial RNG stream, so the result
/// is identical for any worker count.
pub fn sample_initial_set_with(
    problem: &dyn SizingProblem,
    n: usize,
    seed: u64,
    engine: &EvalEngine,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = problem.dim();
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
        .collect();
    let _span = engine.telemetry().span("init_sampling");
    let metrics = engine.evaluate_batch(&EngineProblem(problem), &xs);
    xs.into_iter().zip(metrics).collect()
}

/// Aggregate statistics of one method over repeated runs — one row of the
/// paper's comparison tables.
#[derive(Debug, Clone)]
pub struct MethodStats {
    /// Method label.
    pub name: String,
    /// Runs that found a fully feasible design.
    pub successes: usize,
    /// Total runs.
    pub runs: usize,
    /// Best (minimum) target metric among feasible designs over all runs.
    pub min_target: Option<f64>,
    /// Mean of each run's final best FoM.
    pub avg_fom: f64,
    /// `log10` of the average FoM (the paper's reporting scale), or `None`
    /// when the average is non-positive and the logarithm is undefined
    /// (instead of a silent `NaN`/`-inf` poisoning downstream comparisons).
    pub log10_avg_fom: Option<f64>,
    /// Summed wall-clock runtime across runs.
    pub total_runtime: Duration,
    /// Mean best-FoM-so-far at each simulation count (Fig. 5 series).
    pub fom_curve: Vec<f64>,
    /// Evaluation-engine counters (simulations, cache hits/misses, retries,
    /// faults) accumulated while this method ran.
    pub exec: CounterSnapshot,
    /// The per-run results, for deeper inspection.
    pub results: Vec<RunResult>,
}

impl MethodStats {
    /// Success rate as a `"s/r"` string (paper notation).
    pub fn success_rate(&self) -> String {
        format!("{}/{}", self.successes, self.runs)
    }

    /// `log10(avg_fom)` with the undefined case mapped to `-inf` — the
    /// sentinel the report CSVs print (and `f64::from_str` round-trips).
    pub fn log10_avg_fom_or_neg_inf(&self) -> f64 {
        self.log10_avg_fom.unwrap_or(f64::NEG_INFINITY)
    }
}

/// Runs `runs` independent repetitions of one optimizer on a problem.
///
/// Run `r` uses the initial set `inits[r]` and seed `base_seed + r`, so that
/// different methods given the same `inits` see identical starting data —
/// the paper's protocol.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
pub fn run_method(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
) -> MethodStats {
    run_method_with(
        optimizer,
        problem,
        inits,
        runs,
        budget,
        base_seed,
        &EvalEngine::serial(),
    )
}

/// [`run_method`] with run-level parallelism and engine-backed simulations.
///
/// Runs are mutually independent (run `r` is fully determined by `inits[r]`
/// and `base_seed + r`), so executing them concurrently on the engine's
/// pool yields bitwise-identical per-run results to the serial loop; only
/// wall-clock changes. The returned [`MethodStats::exec`] holds the engine
/// counters accumulated by this method.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
pub fn run_method_with(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
    engine: &EvalEngine,
) -> MethodStats {
    run_method_observed(
        optimizer,
        problem,
        inits,
        runs,
        budget,
        base_seed,
        engine,
        &[],
    )
}

/// [`run_method_with`] with one run [`Journal`] per run: run `r` streams
/// its internals into `journals[r]`; runs beyond `journals.len()` (and all
/// runs, when `journals` is empty) get the disabled no-op journal.
/// Per-run results are bitwise identical to [`run_method_with`].
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
#[allow(clippy::too_many_arguments)]
pub fn run_method_observed(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
    engine: &EvalEngine,
    journals: &[Journal],
) -> MethodStats {
    run_method_nested(
        optimizer, problem, inits, runs, budget, base_seed, engine, engine, journals,
    )
}

/// [`run_method_observed`] with hierarchical job budgeting: repetitions
/// fan out over `run_engine`'s pool while each repetition's simulations
/// and training lanes fan out over `engine`'s pool, so up to
/// `run_engine.jobs() * engine.jobs()` simulations are in flight at once.
/// Passing the same engine for both levels collapses to the single-pool
/// behaviour (run-level fan-out with inline per-run simulation, since a
/// pool never re-enters itself).
///
/// Run `r` is fully determined by `inits[r]` and the per-run seed stream
/// `base_seed + r`, so per-run results — and every non-timing field of
/// the per-run journals — are bitwise identical for any worker count at
/// either level. To keep that true for the journals' engine counter
/// deltas, every run executes on a clone of `engine` carrying an
/// *isolated* [`maopt_exec::Telemetry`] — fresh counters and metrics,
/// but the same flight recorder when one is attached, so tracing never
/// perturbs journal bytes — and a fresh [`SimCache`] when `engine` has
/// one, at the cost of cross-run cache sharing. The per-run telemetry is
/// merged back into `engine`'s sink after each run, so aggregate
/// accounting is preserved.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
#[allow(clippy::too_many_arguments)]
pub fn run_method_nested(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
    run_engine: &EvalEngine,
    engine: &EvalEngine,
    journals: &[Journal],
) -> MethodStats {
    run_method_resumable(
        optimizer,
        problem,
        inits,
        runs,
        budget,
        base_seed,
        run_engine,
        engine,
        journals,
        &[],
    )
}

/// [`run_method_nested`] with crash-safe checkpointing: run `r` persists
/// its state through `ckpts[r]` after every round and — when that
/// checkpointer has resume enabled — continues from an existing snapshot.
/// Runs beyond `ckpts.len()` (and all runs, when `ckpts` is empty) are
/// un-checkpointed. Per-run results and journals are bitwise identical
/// (non-timing fields) to an un-checkpointed, uninterrupted run.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
#[allow(clippy::too_many_arguments)]
pub fn run_method_resumable(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
    run_engine: &EvalEngine,
    engine: &EvalEngine,
    journals: &[Journal],
    ckpts: &[RunCheckpointer],
) -> MethodStats {
    assert!(inits.len() >= runs, "need one initial set per run");
    let disabled = Journal::disabled();
    let before = engine.telemetry().snapshot();
    let results: Vec<RunResult> = {
        let _span = engine
            .telemetry()
            .span(&format!("method:{}", optimizer.name()));
        run_engine.map((0..runs).collect(), |_, r| {
            let journal = journals.get(r).unwrap_or(&disabled);
            // Isolated telemetry: fresh counters per run (journal counter
            // deltas stay independent of sibling runs) while the flight
            // recorder, when attached, keeps one global timeline.
            let mut run_eng = engine
                .clone()
                .with_telemetry(Arc::new(engine.telemetry().isolated()));
            if engine.cache().is_some() {
                run_eng = run_eng.with_cache(Arc::new(SimCache::new()));
            }
            let result = optimizer.optimize_resumable(
                problem,
                &inits[r],
                budget,
                base_seed + r as u64,
                &run_eng,
                journal,
                ckpts.get(r),
            );
            engine.telemetry().merge_from(run_eng.telemetry());
            result
        })
    };
    let exec = engine.telemetry().snapshot().since(&before);
    summarize(optimizer.name(), results, budget, exec)
}

/// Builds the aggregate statistics from raw run results.
pub fn summarize(
    name: String,
    results: Vec<RunResult>,
    budget: usize,
    exec: CounterSnapshot,
) -> MethodStats {
    let runs = results.len();
    let successes = results.iter().filter(|r| r.success()).count();
    let min_target = results
        .iter()
        .filter_map(RunResult::best_feasible_target)
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.min(t)))
        });
    let final_foms: Vec<f64> = results.iter().map(RunResult::best_fom).collect();
    let avg_fom = maopt_linalg::stats::mean(&final_foms);
    let total_runtime = results.iter().map(|r| r.timings.total).sum();

    let mut fom_curve = vec![0.0; budget];
    for r in &results {
        let series = r.trace.best_fom_series(budget);
        for (acc, v) in fom_curve.iter_mut().zip(series) {
            *acc += v;
        }
    }
    for v in &mut fom_curve {
        *v /= runs.max(1) as f64;
    }

    MethodStats {
        name,
        successes,
        runs,
        min_target,
        avg_fom,
        // log10 of a non-positive average is NaN (or -inf at exactly zero);
        // report that case as an explicit None instead.
        log10_avg_fom: (avg_fom > 0.0).then(|| avg_fom.log10()),
        total_runtime,
        fom_curve,
        exec,
        results,
    }
}

/// Pre-simulates one initial set per run (shared across methods).
pub fn make_initial_sets(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    make_initial_sets_with(problem, runs, init_size, base_seed, &EvalEngine::default())
}

/// [`make_initial_sets`] running its simulations on the given engine.
pub fn make_initial_sets_with(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
    engine: &EvalEngine,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    (0..runs)
        .map(|r| {
            sample_initial_set_with(
                problem,
                init_size,
                base_seed.wrapping_add(1000 * r as u64),
                engine,
            )
        })
        .collect()
}

/// [`make_initial_sets_with`] fanning the per-run sets over `run_engine`'s
/// pool while each set's simulations run on `engine` — the same
/// hierarchical budgeting as [`run_method_nested`]. Set `r` draws from the
/// serial seed stream `base_seed + 1000 * r` regardless of scheduling, so
/// the result is bitwise identical to the serial loop.
pub fn make_initial_sets_nested(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
    run_engine: &EvalEngine,
    engine: &EvalEngine,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    run_engine.map((0..runs).collect(), |_, r: usize| {
        sample_initial_set_with(
            problem,
            init_size,
            base_seed.wrapping_add(1000 * r as u64),
            engine,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{ConstrainedToy, Sphere};

    fn tiny(cfg: MaOptConfig) -> MaOptConfig {
        MaOptConfig {
            hidden: vec![16, 16],
            critic_steps: 15,
            actor_steps: 8,
            n_samples: 100,
            ..cfg
        }
    }

    #[test]
    fn initial_set_shapes_and_determinism() {
        let p = Sphere::new(3);
        let a = sample_initial_set(&p, 12, 5);
        let b = sample_initial_set(&p, 12, 5);
        assert_eq!(a.len(), 12);
        assert_eq!(a[0].0.len(), 3);
        assert_eq!(a[0].1.len(), 2);
        assert_eq!(a[3].0, b[3].0, "same seed, same designs");
        let c = sample_initial_set(&p, 12, 6);
        assert_ne!(a[0].0, c[0].0, "different seed, different designs");
    }

    #[test]
    fn run_method_aggregates_over_runs() {
        let p = ConstrainedToy::new(2);
        let inits = make_initial_sets(&p, 3, 15, 1);
        let stats = run_method(&tiny(MaOptConfig::ma_opt2(0)), &p, &inits, 3, 8, 100);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.results.len(), 3);
        assert_eq!(stats.fom_curve.len(), 8);
        assert!(stats.avg_fom.is_finite());
        assert!(stats.success_rate().ends_with("/3"));
        // Best-so-far curves are monotone non-increasing.
        for w in stats.fom_curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn min_target_only_counts_feasible_runs() {
        let p = ConstrainedToy::new(2);
        let inits = make_initial_sets(&p, 2, 25, 2);
        let stats = run_method(&tiny(MaOptConfig::ma_opt(1)), &p, &inits, 2, 16, 50);
        if stats.successes > 0 {
            let t = stats.min_target.unwrap();
            assert!(t.is_finite() && t > 0.0);
        } else {
            assert!(stats.min_target.is_none());
        }
    }

    #[test]
    fn optimizer_trait_respects_seed_override() {
        let p = Sphere::new(2);
        let init = sample_initial_set(&p, 10, 9);
        let cfg = tiny(MaOptConfig::ma_opt2(999));
        let a = cfg.optimize(&p, &init, 4, 1);
        let b = cfg.optimize(&p, &init, 4, 1);
        let c = cfg.optimize(&p, &init, 4, 2);
        assert_eq!(a.best_fom(), b.best_fom());
        // Different seeds usually explore differently; allow rare collision
        // by checking trace-level difference instead of strict inequality.
        let same = a.trace.best_fom_series(4) == c.trace.best_fom_series(4);
        assert!(!same || a.best_fom() == c.best_fom());
    }
}
