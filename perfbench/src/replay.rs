//! Layer replays: the public calls one optimizer round makes, re-run on a
//! run's own final state and timed one at a time.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use maopt_bo::GaussianProcess;
use maopt_ckpt::{load_snapshot_gen, save_snapshot_gen, snapshot_store};
use maopt_core::{
    Actor, CriticEnsemble, EliteSet, MaOptConfig, NearSampler, Population, SizingProblem,
};
use maopt_exec::EvalEngine;
use maopt_linalg::{kernels, Cholesky, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::out::{median, Metrics};
use crate::probe::SpanLog;

/// Repetitions of each replay; metrics report the median.
const REPS: usize = 5;
/// BO's candidate count per acquisition (`BoOptimizer::default`).
const EI_CANDIDATES: usize = 2000;

/// Median wall time of `REPS` calls of `f`, in milliseconds.
fn median_ms(spans: &SpanLog, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        spans.span(name, &mut f);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// Replays MA-Opt's critic round, actor round and near-sampling proposal
/// (`maopt-core`, through `maopt-nn`) on `pop`, with the paper's MA-Opt
/// hyperparameters.
pub fn core_rounds(
    problem: &dyn SizingProblem,
    pop: &Population,
    engine: &EvalEngine,
    spans: &SpanLog,
    m: &mut Metrics,
) {
    let cfg = MaOptConfig::ma_opt(0);
    let (d, m1, specs) = (problem.dim(), problem.num_metrics(), problem.specs());
    let mut rng = StdRng::seed_from_u64(0xC717);
    let mut critic = CriticEnsemble::new(1, d, m1, &cfg.hidden, cfg.critic_lr, 0xC717);
    let critic_ms = median_ms(spans, "replay.critic_round", || {
        critic.refit_scaler(pop);
        black_box(critic.train(pop, cfg.critic_steps, cfg.batch_size, &mut rng));
    });
    m.put("core.critic_round_ms", critic_ms, "ms");

    let mut elite = EliteSet::new(cfg.n_es);
    elite.rebuild(pop, None);
    let (lb, ub) = elite.bounds();
    let actor_ms = median_ms(spans, "replay.actor_round", || {
        let mut actor = Actor::new(d, &cfg.hidden, cfg.action_scale, cfg.actor_lr, 1);
        let mut local = critic.member(0).clone();
        actor.train(
            &mut local,
            pop,
            specs,
            cfg.fom,
            (&lb, &ub),
            cfg.lambda,
            cfg.actor_steps,
            cfg.batch_size,
            &mut rng,
        );
        black_box(actor.best_elite_proposal(&local, elite.designs(), specs, cfg.fom));
    });
    m.put("core.actor_round_ms", actor_ms, "ms");

    let best = pop.best().expect("non-empty population");
    let x_opt = pop.design(best).to_vec();
    let ns = NearSampler::new(cfg.n_samples, cfg.delta);
    let ns_ms = median_ms(spans, "replay.ns_propose", || {
        black_box(ns.propose_scored_with(&critic, &x_opt, specs, cfg.fom, &mut rng, engine));
    });
    m.put("core.ns_propose_ms", ns_ms, "ms");
}

/// Replays BO's GP fit at 100 and 300 designs, EI scoring of 2000
/// candidates at 300 (`maopt-bo`), and the Cholesky factorization of the
/// 300-design kernel matrix (`maopt-linalg`), all on `pop`'s own designs.
pub fn bo_fit(pop: &Population, spans: &SpanLog, m: &mut Metrics) {
    let n_all = pop.len();
    let xs = |n: usize| -> Vec<Vec<f64>> { (0..n).map(|i| pop.design(i).to_vec()).collect() };
    let ys = |n: usize| pop.foms()[..n].to_vec();
    let n100 = n_all.min(100);
    let n300 = n_all.min(300);
    let fit100 = median_ms(spans, "replay.gp_fit", || {
        black_box(GaussianProcess::fit(xs(n100), ys(n100)));
    });
    let fit300 = median_ms(spans, "replay.gp_fit", || {
        black_box(GaussianProcess::fit(xs(n300), ys(n300)));
    });
    m.put("bo.gp_fit_ms.n100", fit100, "ms");
    m.put("bo.gp_fit_ms.n300", fit300, "ms");

    let gp = GaussianProcess::fit(xs(n300), ys(n300));
    let d = pop.design(0).len();
    let mut rng = StdRng::seed_from_u64(0xB0);
    let candidates: Vec<Vec<f64>> = (0..EI_CANDIDATES)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
        .collect();
    let ei = median_ms(spans, "replay.ei", || {
        for c in &candidates {
            black_box(gp.predict(c));
        }
    });
    m.put("bo.ei_ms.n300", ei, "ms");

    // The kernel matrix the fitted GP factors, rebuilt from its length-scale.
    let train = xs(n300);
    let ell = gp.lengthscale();
    let k = Mat::from_fn(n300, n300, |i, j| {
        let d2: f64 = train[i]
            .iter()
            .zip(&train[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (-0.5 * d2 / (ell * ell)).exp() + if i == j { 1e-6 } else { 0.0 }
    });
    let chol = median_ms(spans, "replay.cholesky", || {
        black_box(Cholesky::new(&k).expect("kernel matrix is positive definite"));
    });
    m.put("linalg.cholesky_ms.n300", chol, "ms");
}

/// GEMM throughput of `kernels::matmul_into` at the critic's forward-pass
/// layer shapes for `problem` (batch 32, input 2d, hidden 100×100, output
/// m+1), and the flops of one critic training step at those shapes:
/// forward, weight gradient and input gradient are one GEMM each per layer.
pub fn gemm(problem: &dyn SizingProblem, spans: &SpanLog, m: &mut Metrics) {
    let cfg = MaOptConfig::ma_opt(0);
    let batch = cfg.batch_size;
    let mut widths = vec![2 * problem.dim()];
    widths.extend(&cfg.hidden);
    widths.push(problem.num_metrics());
    let layers: Vec<(Mat, Mat)> = widths
        .windows(2)
        .map(|w| {
            let a = Mat::from_fn(batch, w[0], |i, j| {
                ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.4
            });
            let b = Mat::from_fn(w[0], w[1], |i, j| {
                ((i * 5 + j * 13) % 17) as f64 / 17.0 - 0.5
            });
            (a, b)
        })
        .collect();
    let forward_flops: f64 = widths
        .windows(2)
        .map(|w| 2.0 * (batch * w[0] * w[1]) as f64)
        .sum();
    let mut out = Mat::default();
    // Enough passes for about 20 ms of work per repetition.
    let passes = (4e8 / forward_flops).ceil().max(1.0) as usize;
    let ms = median_ms(spans, "replay.gemm", || {
        for _ in 0..passes {
            for (a, b) in &layers {
                kernels::matmul_into(a, b, &mut out);
                black_box(&out);
            }
        }
    });
    m.put(
        "linalg.gemm_gflops",
        forward_flops * passes as f64 / (ms * 1e-3) / 1e9,
        "GFLOP/s",
    );
    m.put(
        "linalg.gemm_flops_per_critic_step",
        3.0 * forward_flops,
        "flop",
    );
}

/// Loads a run's newest snapshot generation and saves it into a scratch
/// store (`maopt-ckpt`), timing both.
pub fn ckpt(base: &Path, scratch: &Path, spans: &SpanLog, m: &mut Metrics) {
    let store = snapshot_store(base);
    let snap = load_snapshot_gen(&store)
        .expect("snapshot store is readable")
        .expect("the durable run wrote a snapshot")
        .value;
    let load_ms = median_ms(spans, "replay.ckpt_load", || {
        black_box(load_snapshot_gen(&store).expect("snapshot store is readable"));
    });
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create scratch snapshot dir");
    let scratch_store = snapshot_store(&scratch.join("replay.ckpt"));
    let save_ms = median_ms(spans, "replay.ckpt_save", || {
        save_snapshot_gen(&scratch_store, &snap).expect("scratch snapshot save");
    });
    m.put("ckpt.load_ms", load_ms, "ms");
    m.put("ckpt.save_ms.p50", save_ms, "ms");
}
