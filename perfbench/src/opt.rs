//! The optimizer workloads: `rl-tia`, `bo-ota` and `rl-ldo-durable`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maopt_bo::BoOptimizer;
use maopt_ckpt::{load_snapshot_gen, snapshot_store};
use maopt_core::runner::{sample_initial_set_with, Optimizer};
use maopt_core::{MaOptConfig, RunCheckpointer, RunResult, SizingProblem};
use maopt_exec::{CounterSnapshot, EvalEngine, MetricSnapshot, SimCache};
use maopt_obs::Journal;

use crate::out::{digest, median, process_cpu_s, quantile, ratio, Checks, Metrics};
use crate::probe::{CallSnapshot, CallStats, Probed, SpanLog};
use crate::{Ctx, Ran, JOBS};

/// Which optimizer a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full MA-Opt: three actors, shared elite set, near-sampling.
    MaOpt,
    /// The GP + expected-improvement baseline.
    Bo,
}

/// One optimizer workload.
#[derive(Debug, Clone, Copy)]
pub struct OptWorkload {
    pub method: Method,
    /// With a run journal and a per-round checkpoint, as
    /// `reproduce --journal-dir --checkpoint-dir` writes them.
    pub durable: bool,
}

/// What one optimizer run produced, measured from outside.
struct SeedRun {
    wall: Duration,
    /// CPU seconds of the whole process during the optimizer call.
    cpu: f64,
    result: RunResult,
    /// Telemetry span totals added during the run, by name.
    spans: Vec<(String, Duration)>,
    metrics: Vec<MetricSnapshot>,
    metrics_before: Vec<MetricSnapshot>,
    counters: CounterSnapshot,
    calls: CallSnapshot,
    durable: Option<DurableFiles>,
}

/// The files a durable run left behind.
struct DurableFiles {
    ckpt_base: PathBuf,
    journal_bytes: u64,
    saves: u64,
    snapshot_bytes: u64,
    write_failures: u64,
    rollbacks: u64,
}

impl SeedRun {
    fn span(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    }

    fn counter(&self, name: &str) -> f64 {
        counter_delta(&self.metrics_before, &self.metrics, name) as f64
    }

    fn digest(&self) -> u64 {
        digest(self.result.trace.entries().iter().map(|e| e.fom))
    }
}

/// How much counter `name` grew between two metric snapshots.
pub fn counter_delta(before: &[MetricSnapshot], after: &[MetricSnapshot], name: &str) -> u64 {
    counter(after, name) - counter(before, name)
}

fn counter(ms: &[MetricSnapshot], name: &str) -> u64 {
    ms.iter()
        .find_map(|m| match m {
            MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

pub fn gauge(ms: &[MetricSnapshot], name: &str) -> f64 {
    ms.iter()
        .find_map(|m| match m {
            MetricSnapshot::Gauge { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// `(count, sum)` of a histogram.
fn hist(ms: &[MetricSnapshot], name: &str) -> (u64, f64) {
    ms.iter()
        .find_map(|m| match m {
            MetricSnapshot::Histogram(h) if h.name == name => Some((h.count, h.sum)),
            _ => None,
        })
        .unwrap_or((0, 0.0))
}

/// Mean Newton iterations per DC solve between two metric snapshots.
pub fn newton_per_dc(before: &[MetricSnapshot], after: &[MetricSnapshot]) -> f64 {
    let (c0, s0) = hist(before, "sim.newton_iters");
    let (c1, s1) = hist(after, "sim.newton_iters");
    ratio(s1 - s0, (c1 - c0) as f64)
}

fn total_secs(spans: &[(String, Duration)], name: &str) -> Duration {
    spans
        .iter()
        .find(|(n, _)| n == name)
        .map_or(Duration::ZERO, |(_, d)| *d)
}

/// Initial-set and optimizer seeds of protocol run `r`, as `reproduce`
/// derives them from its `--seed`.
fn seeds(base: u64, r: usize) -> (u64, u64) {
    (
        base.wrapping_add(1000 * r as u64),
        base.wrapping_add(7 + r as u64),
    )
}

/// The set-up of one run: the circuit, a fresh engine, and the simulated
/// initial set.
struct Setup {
    problem: Box<dyn SizingProblem>,
    engine: EvalEngine,
    init: Vec<(Vec<f64>, Vec<f64>)>,
    newton_cold: f64,
}

impl Setup {
    fn init_digest(&self) -> u64 {
        digest(self.init.iter().flat_map(|(_, f)| f.iter().copied()))
    }
}

fn setup(
    make: fn() -> Box<dyn SizingProblem>,
    stats: &CallStats,
    spans: &SpanLog,
    ctx: &Ctx,
    r: usize,
) -> Setup {
    let problem = make();
    let engine = EvalEngine::new(JOBS);
    let before = engine.telemetry().metrics.snapshot();
    let probed = Probed::new(&*problem, stats, spans);
    let init = spans.span("init_sampling", || {
        sample_initial_set_with(&probed, ctx.init, seeds(ctx.seed, r).0, &engine)
    });
    let newton_cold = newton_per_dc(&before, &engine.telemetry().metrics.snapshot());
    Setup {
        problem,
        engine,
        init,
        newton_cold,
    }
}

/// The set-up of run 0 alone, as a `--setup-child` process performs it;
/// returns the digest of its initial set.
pub fn setup_only(make: fn() -> Box<dyn SizingProblem>, ctx: &Ctx) -> u64 {
    setup(make, &CallStats::default(), &SpanLog::new(false), ctx, 0).init_digest()
}

/// Runs one protocol seed. `durable_dir` turns on the journal and
/// checkpoints, written fresh under that directory.
fn run_seed(
    optimizer: &dyn Optimizer,
    setup: &Setup,
    stats: &CallStats,
    spans: &SpanLog,
    ctx: &Ctx,
    r: usize,
    durable_dir: Option<&Path>,
) -> SeedRun {
    let problem = Probed::new(&*setup.problem, stats, spans);
    let engine = setup.engine.clone().with_cache(Arc::new(SimCache::new()));
    let tm = engine.telemetry();
    let (spans0, metrics0, counters0, calls0) = (
        tm.spans(),
        tm.metrics.snapshot(),
        tm.snapshot(),
        problem.calls(),
    );
    let (journal, ckpt) = match durable_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create durable run dir");
            (
                Journal::create(dir.join("run.jsonl")).expect("create run journal"),
                Some(RunCheckpointer::new(dir.join("run.ckpt"))),
            )
        }
        None => (Journal::disabled(), None),
    };
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let result = spans.span("optimizer_run", || {
        optimizer.optimize_resumable(
            &problem,
            &setup.init,
            ctx.budget,
            seeds(ctx.seed, r).1,
            &engine,
            &journal,
            ckpt.as_ref(),
        )
    });
    let (wall, cpu) = (t0.elapsed(), process_cpu_s() - cpu0);
    journal.flush();
    let durable = ckpt.map(|c| {
        let dir = durable_dir.expect("checkpoints only with a durable dir");
        let newest = load_snapshot_gen(&snapshot_store(c.path()))
            .expect("snapshot store is readable")
            .expect("every round saved a snapshot");
        let gen_path = snapshot_store(c.path())
            .generation_path(newest.generation)
            .expect("generation path");
        DurableFiles {
            ckpt_base: c.path().to_path_buf(),
            journal_bytes: file_len(&dir.join("run.jsonl")),
            saves: newest.generation,
            snapshot_bytes: file_len(&gen_path),
            write_failures: c.write_failures(),
            rollbacks: c.rollbacks() + newest.rolled_back,
        }
    });
    let spans_after = tm.spans();
    let span_delta = spans_after
        .iter()
        .map(|(n, d)| (n.clone(), d.saturating_sub(total_secs(&spans0, n))))
        .collect();
    SeedRun {
        wall,
        cpu,
        result,
        spans: span_delta,
        metrics: tm.metrics.snapshot(),
        metrics_before: metrics0,
        counters: tm.snapshot().since(&counters0),
        calls: problem.calls().since(&calls0),
        durable,
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Runs the workload and fills `m` and `checks`.
pub fn run(
    w: OptWorkload,
    make: fn() -> Box<dyn SizingProblem>,
    ctx: &Ctx,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Ran {
    let optimizer: Box<dyn Optimizer> = match w.method {
        Method::MaOpt => Box::new(MaOptConfig::ma_opt(ctx.seed)),
        Method::Bo => Box::new(BoOptimizer::new()),
    };
    let stats = CallStats::default();
    let untraced = SpanLog::new(false);
    let durable_dir = |tag: &str| w.durable.then(|| ctx.out.join(format!("run-{tag}")));

    // Timed phase: `ctx.runs` protocol seeds, each after its own set-up.
    let mut newton_cold = Vec::new();
    let mut runs = Vec::new();
    let mut setups = Vec::new();
    for r in 0..ctx.runs {
        let s = setup(make, &stats, &untraced, ctx, r);
        newton_cold.push(s.newton_cold);
        let dir = durable_dir(&r.to_string());
        let run = run_seed(&*optimizer, &s, &stats, &untraced, ctx, r, dir.as_deref());
        println!(
            "run {r}: seed {} wall {:.3} s, CPU {:.3} s, best FoM {:.6}, success {}, digest {:016x}",
            seeds(ctx.seed, r).1,
            run.wall.as_secs_f64(),
            run.cpu,
            run.result.best_fom(),
            run.result.success(),
            run.digest()
        );
        runs.push(run);
        if r == 0 {
            setups.push(s);
        }
    }

    // End-to-end metrics and checks over the timed runs.
    let evaluations: u64 = runs
        .iter()
        .map(|r| r.counters.sims - r.counters.retries)
        .sum();
    let failures: u64 = runs.iter().map(|r| r.counters.failures).sum();
    let best: Vec<f64> = runs.iter().map(|r| r.result.best_fom()).collect();
    let successes = runs.iter().filter(|r| r.result.success()).count();
    let rate = |per: &dyn Fn(&SeedRun) -> f64| -> Vec<f64> {
        runs.iter()
            .map(|r| r.result.trace.num_sims() as f64 / per(r))
            .collect()
    };
    m.put("sims_per_cpu_s", median(&rate(&|r| r.cpu)), "1/s");
    m.put(
        "wall.sims_per_s",
        median(&rate(&|r| r.wall.as_secs_f64())),
        "1/s",
    );
    m.put("quality.best_fom.p50", median(&best), "fom");
    m.put(
        "quality.success_frac",
        successes as f64 / runs.len() as f64,
        "frac",
    );
    m.put(
        "quality.failed_frac",
        ratio(failures as f64, evaluations as f64),
        "frac",
    );
    println!(
        "timed phase: {} run(s), {:.3} s wall, {:.3} s CPU",
        runs.len(),
        runs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>(),
        runs.iter().map(|r| r.cpu).sum::<f64>()
    );
    for (r, run) in runs.iter().enumerate() {
        check_run(run, r, ctx, checks);
    }
    checks.check("no evaluation exhausted its retries", failures == 0);

    if ctx.trace {
        traced(
            &*optimizer,
            make,
            &runs[0],
            &setups[0],
            &newton_cold,
            w,
            ctx,
            m,
            checks,
            &durable_dir,
        );
    }
    Ran {
        attempted: evaluations,
        failed: failures,
        setup_digest: setups[0].init_digest(),
    }
}

fn check_run(run: &SeedRun, r: usize, ctx: &Ctx, checks: &mut Checks) {
    checks.check(
        format!("run {r} consumed exactly its budget"),
        run.result.trace.num_sims() == ctx.budget
            && run.result.population.len() == ctx.init + ctx.budget,
    );
    let finite = (0..run.result.population.len()).all(|i| {
        run.result
            .population
            .metrics(i)
            .iter()
            .all(|v| v.is_finite())
    });
    checks.check(format!("run {r} metric vectors are finite"), finite);
}

/// The traced repetition of run 0, its layer metrics and the replays.
#[allow(clippy::too_many_arguments)]
fn traced(
    optimizer: &dyn Optimizer,
    make: fn() -> Box<dyn SizingProblem>,
    untraced: &SeedRun,
    setup0: &Setup,
    newton_cold: &[f64],
    w: OptWorkload,
    ctx: &Ctx,
    m: &mut Metrics,
    checks: &mut Checks,
    durable_dir: &dyn Fn(&str) -> Option<PathBuf>,
) {
    let stats = CallStats::default();
    let spans = SpanLog::new(true);
    spans.set_run(1);
    let fresh = setup(make, &stats, &spans, ctx, 0);
    checks.check(
        "traced set-up reproduces run 0's initial set",
        fresh.init_digest() == setup0.init_digest(),
    );
    let problem = &*fresh.problem;
    let dir = durable_dir("traced");
    let run = run_seed(optimizer, &fresh, &stats, &spans, ctx, 0, dir.as_deref());
    checks.check(
        "traced run reproduces run 0 (FoM trace digest)",
        run.digest() == untraced.digest(),
    );
    check_run(&run, 0, ctx, checks);
    println!(
        "traced run 0: wall {:.3} s, CPU {:.3} s, digest {:016x}",
        run.wall.as_secs_f64(),
        run.cpu,
        run.digest()
    );
    m.put(
        "bench.trace_overhead_frac",
        run.cpu / untraced.cpu - 1.0,
        "frac",
    );

    // maopt-core / maopt-bo phase split from the program's own spans.
    let wall = run.wall.as_secs_f64();
    let (actor, ns, sim, acq) = (
        run.span("actor_training"),
        run.span("near_sampling"),
        run.span("simulation"),
        run.span("bo_acquisition"),
    );
    let rest = wall - actor - ns - sim - acq;
    let is_rl = w.method == Method::MaOpt;
    m.put("opt.method_s", wall, "s");
    m.put("opt.simulation_s", sim, "s");
    let (rounds, ns_rounds) = (run.counter("opt.rounds"), run.counter("opt.ns_rounds"));
    if is_rl {
        m.put("core.actor_training_s", actor, "s");
        m.put("core.near_sampling_s", ns, "s");
        m.put("core.other_s", rest, "s");
        m.put("core.rounds", rounds, "count");
        m.put("core.ns_rounds", ns_rounds, "count");
        m.put(
            "core.ns_accept_frac",
            ratio(run.counter("opt.ns_accepted"), ns_rounds),
            "frac",
        );
    } else {
        m.put("bo.acquisition_s", acq, "s");
        m.put("bo.fit_s", rest, "s");
    }

    // maopt-circuits through the wrapper, maopt-sim and maopt-exec through
    // the engine's telemetry.
    put_calls(&run.calls, m);
    m.put("sim.newton_per_dc.cold", median(newton_cold), "iters");
    m.put(
        "sim.newton_per_dc.warm",
        newton_per_dc(&run.metrics_before, &run.metrics),
        "iters",
    );
    let (hit, fallback) = (
        run.counter("sim.warmstart.hit"),
        run.counter("sim.warmstart.fallback"),
    );
    m.put("sim.warm_hit_frac", ratio(hit, hit + fallback), "frac");
    let c = &run.counters;
    m.put(
        "exec.cache_hit_frac",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        "frac",
    );
    m.put(
        "exec.pool_idle_frac",
        1.0 - ratio(run.calls.busy_ns as f64 * 1e-9, JOBS as f64 * sim),
        "frac",
    );
    m.put(
        "exec.queue_depth_peak",
        gauge(&run.metrics, "exec.pool.queue_depth_peak"),
        "count",
    );
    m.put("exec.retries", c.retries as f64, "count");

    // Replays on the run's own final state, each on its home workload.
    spans.set_run(2);
    let pop = &run.result.population;
    let mut critic_est = 0.0;
    if is_rl {
        crate::replay::core_rounds(problem, pop, &fresh.engine, &spans, m);
        crate::replay::gemm(problem, &spans, m);
        critic_est = rounds * m.get("core.critic_round_ms").unwrap_or(0.0) * 1e-3;
        m.put("core.critic_est_s", critic_est, "s");
    } else {
        crate::replay::bo_fit(pop, &spans, m);
    }

    // maopt-ckpt / maopt-obs.
    if let Some(files) = &run.durable {
        m.put("ckpt.saves", files.saves as f64, "count");
        m.put("ckpt.snapshot_bytes", files.snapshot_bytes as f64, "B");
        m.put("obs.journal_bytes", files.journal_bytes as f64, "B");
        m.put("ckpt.write_failures", files.write_failures as f64, "count");
        m.put("ckpt.rollbacks", files.rollbacks as f64, "count");
        checks.check(
            "durable run saved one snapshot per round",
            files.saves as f64 == rounds + ns_rounds,
        );
        crate::replay::ckpt(&files.ckpt_base, &ctx.out.join("replay"), &spans, m);
        // The same seed with durability off.
        let stats_off = CallStats::default();
        let off = SpanLog::new(false);
        let plain = run_seed(optimizer, setup0, &stats_off, &off, ctx, 0, None);
        checks.check(
            "run without durability reproduces run 0 (FoM trace digest)",
            plain.digest() == untraced.digest(),
        );
        m.put(
            "ckpt.overhead_frac",
            untraced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
            "frac",
        );
        println!(
            "durability: wall {:.3} s with, {:.3} s without; snapshot writes alone \
             {} saves x {:.3} ms = {:.3} s",
            untraced.wall.as_secs_f64(),
            plain.wall.as_secs_f64(),
            files.saves,
            m.get("ckpt.save_ms.p50").unwrap_or(0.0),
            files.saves as f64 * m.get("ckpt.save_ms.p50").unwrap_or(0.0) * 1e-3
        );
    }

    println!(
        "reconciliation: method {wall:.3} s = actor_training {actor:.3} + near_sampling {ns:.3} \
         + simulation {sim:.3} + bo_acquisition {acq:.3} + unattributed {rest:.3} s"
    );
    if is_rl {
        println!(
            "  unattributed {rest:.3} s vs rounds x critic round = {rounds} x {:.3} ms = {critic_est:.3} s",
            m.get("core.critic_round_ms").unwrap_or(0.0)
        );
    }
    crate::write_spans(&spans, ctx);
}

/// Circuit-call metrics from a wrapper snapshot.
pub fn put_calls(calls: &CallSnapshot, m: &mut Metrics) {
    let ms: Vec<f64> = calls
        .samples_ns
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    m.put("circuits.calls", calls.calls as f64, "count");
    m.put("circuits.busy_s", calls.busy_ns as f64 * 1e-9, "s");
    m.put("circuits.call_ms.p50", quantile(&ms, 0.5), "ms");
    m.put("circuits.call_ms.p99", quantile(&ms, 0.99), "ms");
    m.put("circuits.call_samples", ms.len() as f64, "count");
    m.put(
        "circuits.nonconverged_frac",
        ratio(calls.nonconverged as f64, calls.calls as f64),
        "frac",
    );
}
