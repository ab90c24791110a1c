//! The `sim-sweep` workload: the protocol's initial sets simulated cold,
//! then one near-sampling neighbour per design simulated warm from its
//! parent's operating point, then the same neighbour again cold.

use std::time::Instant;

use maopt_core::{EngineProblem, OpState, SizingProblem};
use maopt_exec::{CounterSnapshot, EvalEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::opt::{counter_delta, gauge, newton_per_dc, put_calls};
use crate::out::{digest, median, process_cpu_s, ratio, Checks, Metrics};
use crate::probe::{CallSnapshot, CallStats, Probed, SpanLog};
use crate::{Ctx, Ran, JOBS};

/// Near-sampling radius δ (`MaOptConfig::delta`).
const DELTA: f64 = 0.05;
/// Designs per circuit simulated by each set-up, to finish lazy set-up
/// (netlist parsing, symbolic factorization) before timing.
const WARMUP: usize = 30;

/// `n` uniform designs drawn exactly as `runner::sample_initial_set_with`
/// draws the protocol's initial set for `seed`.
fn initial_designs(d: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
        .collect()
}

/// One neighbour per design, uniform within δ per coordinate, clipped to
/// the unit box (as `NearSampler` draws its candidates).
fn neighbours(parents: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E16_4B0E);
    parents
        .iter()
        .map(|x| {
            x.iter()
                .map(|&xo| {
                    let (lo, hi) = ((xo - DELTA).max(0.0), (xo + DELTA).min(1.0));
                    if hi > lo {
                        rng.random_range(lo..hi)
                    } else {
                        lo
                    }
                })
                .collect()
        })
        .collect()
}

/// Whether a warm-seeded result differs from its cold re-evaluation by
/// more than 1e-9·(1+|cold|) in any metric.
fn mismatch(warm: &[f64], cold: &[f64]) -> bool {
    warm.iter().zip(cold).any(|(w, c)| {
        let close = (w - c).abs() <= 1e-9 * (1.0 + c.abs());
        !close
    })
}

/// Warm/cold disagreements of one circuit, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Mismatches {
    /// Converged warm, failed cold.
    warm_only: usize,
    /// Converged cold, failed warm.
    cold_only: usize,
    /// Converged both ways, to different metrics.
    differ: usize,
}

impl Mismatches {
    fn total(&self) -> usize {
        self.warm_only + self.cold_only + self.differ
    }
}

/// What one pass over the protocol runs measured.
struct Pass {
    wall: f64,
    cpu: f64,
    sim_wall: f64,
    /// Simulations per CPU second of each seed's sweep.
    cpu_rates: Vec<f64>,
    /// Simulations per wall second of each seed's sweep.
    wall_rates: Vec<f64>,
    sims: usize,
    warm_n: usize,
    /// Per circuit: designs whose warm result differs from the cold one.
    mismatches: Vec<Mismatches>,
    finite: bool,
    digests: Vec<u64>,
    newton_cold: Vec<f64>,
    newton_warm: Vec<f64>,
    warm_hit: u64,
    warm_fallback: u64,
    counters: CounterSnapshot,
    calls: CallSnapshot,
}

fn pass(
    probed: &[Probed],
    stats: &CallStats,
    spans: &SpanLog,
    engine: &EvalEngine,
    ctx: &Ctx,
) -> Pass {
    let tm = engine.telemetry();
    let (calls0, counters0) = (stats.snapshot(), tm.snapshot());
    let mut p = Pass {
        wall: 0.0,
        cpu: 0.0,
        sim_wall: 0.0,
        cpu_rates: Vec::new(),
        wall_rates: Vec::new(),
        sims: 0,
        warm_n: 0,
        mismatches: vec![Mismatches::default(); probed.len()],
        finite: true,
        digests: Vec::new(),
        newton_cold: Vec::new(),
        newton_warm: Vec::new(),
        warm_hit: 0,
        warm_fallback: 0,
        counters: CounterSnapshot::default(),
        calls: CallSnapshot::default(),
    };
    let (t_all, cpu_all) = (Instant::now(), process_cpu_s());
    for r in 0..ctx.runs {
        let seed = ctx.seed.wrapping_add(1000 * r as u64);
        let mut cold_metrics = Vec::new();
        let (t_seed, cpu_seed, sims_before) = (Instant::now(), process_cpu_s(), p.sims);
        for (c, problem) in probed.iter().enumerate() {
            let target = EngineProblem(problem);
            let parents = initial_designs(problem.dim(), ctx.init, seed);
            let kids = neighbours(&parents, seed);
            let unseeded: Vec<Option<&OpState>> = vec![None; parents.len()];
            let failure = problem.failure_metrics();

            let t0 = Instant::now();
            let m0 = tm.metrics.snapshot();
            let cold = spans.span("sweep.cold", || {
                engine.evaluate_batch_seeded(&target, &parents, &unseeded)
            });
            let m1 = tm.metrics.snapshot();
            let seeds: Vec<Option<&OpState>> = cold.iter().map(|(_, s)| s.as_ref()).collect();
            let warm = spans.span("sweep.warm", || {
                engine.evaluate_batch_seeded(&target, &kids, &seeds)
            });
            let m2 = tm.metrics.snapshot();
            let recheck = spans.span("sweep.recheck", || engine.evaluate_batch(&target, &kids));
            let m3 = tm.metrics.snapshot();
            p.sim_wall += t0.elapsed().as_secs_f64();
            p.sims += 3 * parents.len();

            p.newton_cold.push(newton_per_dc(&m0, &m1));
            p.newton_cold.push(newton_per_dc(&m2, &m3));
            p.newton_warm.push(newton_per_dc(&m1, &m2));
            p.warm_hit += counter_delta(&m1, &m2, "sim.warmstart.hit");
            p.warm_fallback += counter_delta(&m1, &m2, "sim.warmstart.fallback");
            for ((w, _), cold_again) in warm.iter().zip(&recheck) {
                p.warm_n += 1;
                if mismatch(w, cold_again) {
                    let kind = &mut p.mismatches[c];
                    match (*w == failure, *cold_again == failure) {
                        (false, true) => kind.warm_only += 1,
                        (true, false) => kind.cold_only += 1,
                        _ => kind.differ += 1,
                    }
                }
            }
            p.finite &= cold
                .iter()
                .map(|(f, _)| f)
                .chain(warm.iter().map(|(f, _)| f))
                .chain(&recheck)
                .all(|f| f.iter().all(|v| v.is_finite()));
            cold_metrics.extend(cold.iter().flat_map(|(f, _)| f.iter().copied()));
        }
        p.digests.push(digest(cold_metrics));
        let sims = (p.sims - sims_before) as f64;
        p.cpu_rates.push(sims / (process_cpu_s() - cpu_seed));
        p.wall_rates.push(sims / t_seed.elapsed().as_secs_f64());
    }
    p.wall = t_all.elapsed().as_secs_f64();
    p.cpu = process_cpu_s() - cpu_all;
    p.counters = tm.snapshot().since(&counters0);
    p.calls = stats.snapshot().since(&calls0);
    p
}

/// The set-up: the circuits, a fresh engine and one warm-up batch per
/// circuit, to finish lazy set-up (netlist parsing, symbolic
/// factorization) before timing. Returns the digest of the warm-up metrics.
fn setup(
    make: fn() -> Vec<Box<dyn SizingProblem>>,
    stats: &CallStats,
    spans: &SpanLog,
) -> (Vec<Box<dyn SizingProblem>>, EvalEngine, u64) {
    let circuits = make();
    let engine = EvalEngine::new(JOBS);
    let mut all = Vec::new();
    for c in &circuits {
        let xs = initial_designs(c.dim(), WARMUP, 1);
        let p = Probed::new(&**c, stats, spans);
        all.extend(
            engine
                .evaluate_batch(&EngineProblem(&p), &xs)
                .into_iter()
                .flatten(),
        );
    }
    (circuits, engine, digest(all))
}

/// The set-up alone, as a `--setup-child` process performs it; returns
/// the digest of its warm-up metrics.
pub fn setup_only(make: fn() -> Vec<Box<dyn SizingProblem>>) -> u64 {
    setup(make, &CallStats::default(), &SpanLog::new(false)).2
}

/// Runs the workload and fills `m` and `checks`.
pub fn run(
    make: fn() -> Vec<Box<dyn SizingProblem>>,
    ctx: &Ctx,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Ran {
    let stats = CallStats::default();
    let untraced = SpanLog::new(false);
    let (circuits, engine, setup_digest) = setup(make, &stats, &untraced);
    let probed: Vec<Probed> = circuits
        .iter()
        .map(|c| Probed::new(&**c, &stats, &untraced))
        .collect();

    let timed = pass(&probed, &stats, &untraced, &engine, ctx);
    for (r, dg) in timed.digests.iter().enumerate() {
        println!(
            "run {r}: seed {}, cold-metrics digest {dg:016x}",
            ctx.seed.wrapping_add(1000 * r as u64)
        );
    }
    for (p, k) in probed.iter().zip(&timed.mismatches) {
        println!(
            "warm/cold mismatches on {}: {} of {} designs ({} converge only warm, {} only cold, {} both but differ)",
            p.name(),
            k.total(),
            ctx.runs * ctx.init,
            k.warm_only,
            k.cold_only,
            k.differ
        );
    }
    let evaluations = timed.counters.sims - timed.counters.retries;
    m.put("sims_per_cpu_s", median(&timed.cpu_rates), "1/s");
    m.put("wall.sims_per_s", median(&timed.wall_rates), "1/s");
    m.put(
        "quality.warm_mismatch_frac",
        ratio(
            timed
                .mismatches
                .iter()
                .map(Mismatches::total)
                .sum::<usize>() as f64,
            timed.warm_n as f64,
        ),
        "frac",
    );
    m.put(
        "quality.failed_frac",
        ratio(timed.counters.failures as f64, evaluations as f64),
        "frac",
    );
    println!(
        "timed phase: {} seed(s), {:.3} s wall, {:.3} s CPU",
        ctx.runs, timed.wall, timed.cpu
    );
    check_pass(&timed, "", checks);

    if ctx.trace {
        let spans = SpanLog::new(true);
        spans.set_run(1);
        let probed: Vec<Probed> = circuits
            .iter()
            .map(|c| Probed::new(&**c, &stats, &spans))
            .collect();
        let traced = spans.span("sweep", || pass(&probed, &stats, &spans, &engine, ctx));
        check_pass(&traced, "traced ", checks);
        checks.check(
            "traced pass reproduces the timed pass (cold-metrics digests)",
            traced.digests == timed.digests && traced.mismatches == timed.mismatches,
        );
        m.put(
            "bench.trace_overhead_frac",
            traced.cpu / timed.cpu - 1.0,
            "frac",
        );
        put_calls(&traced.calls, m);
        m.put(
            "sim.newton_per_dc.cold",
            median(&traced.newton_cold),
            "iters",
        );
        m.put(
            "sim.newton_per_dc.warm",
            median(&traced.newton_warm),
            "iters",
        );
        m.put(
            "sim.warm_hit_frac",
            ratio(
                traced.warm_hit as f64,
                (traced.warm_hit + traced.warm_fallback) as f64,
            ),
            "frac",
        );
        m.put("exec.cache_hit_frac", 0.0, "frac");
        m.put(
            "exec.pool_idle_frac",
            1.0 - ratio(
                traced.calls.busy_ns as f64 * 1e-9,
                JOBS as f64 * traced.sim_wall,
            ),
            "frac",
        );
        m.put(
            "exec.queue_depth_peak",
            gauge(
                &engine.telemetry().metrics.snapshot(),
                "exec.pool.queue_depth_peak",
            ),
            "count",
        );
        m.put("exec.retries", traced.counters.retries as f64, "count");
        m.put("opt.simulation_s", traced.sim_wall, "s");
        crate::write_spans(&spans, ctx);
    }
    Ran {
        attempted: evaluations,
        failed: timed.counters.failures,
        setup_digest,
    }
}

fn check_pass(p: &Pass, label: &str, checks: &mut Checks) {
    let evaluations = p.counters.sims - p.counters.retries;
    checks.check(format!("{label}sweep metric vectors are finite"), p.finite);
    checks.check(
        format!("{label}sweep ran every simulation once"),
        evaluations as usize == p.sims && p.calls.calls as usize == p.sims,
    );
    checks.check(
        format!("{label}sweep: no evaluation exhausted its retries"),
        p.counters.failures == 0,
    );
}
