//! Ablation benches for the design choices §II of the paper calls out:
//!
//! * near-sampling rounds are cheaper than actor/critic training rounds
//!   (the paper's runtime argument for MA-Opt vs MA-Opt²),
//! * the BO baseline's O(N³) GP fit (the paper's argument against BO),
//! * pseudo-sample generation cost as the population grows,
//! * critic training cost vs network width (the 2×100 hidden choice).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use maopt_bo::GaussianProcess;
use maopt_core::problems::ConstrainedToy;
use maopt_core::{Actor, Critic, FomConfig, NearSampler, Population, SizingProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a population of `n` simulated toy designs.
fn toy_population(n: usize) -> (ConstrainedToy, Population) {
    let problem = ConstrainedToy::new(8);
    let mut rng = StdRng::seed_from_u64(5);
    let mut pop = Population::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..8).map(|_| rng.random_range(0.0..1.0)).collect();
        let m = problem.evaluate(&x);
        pop.push(x, m, problem.specs(), FomConfig::default());
    }
    (problem, pop)
}

/// Near-sampling proposal vs one actor / critic training round — the
/// paper's claim that NS rounds cost less than training rounds.
fn ablation_round_cost(c: &mut Criterion) {
    let (problem, pop) = toy_population(150);
    let mut critic = Critic::new(8, 3, &[100, 100], 1e-3, 1);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(2);
    critic.train(&pop, 50, 32, &mut rng);

    let mut group = c.benchmark_group("ablation_round_cost");
    group.sample_size(10);

    group.bench_function("near_sampling_2000", |b| {
        let ns = NearSampler::new(2000, 0.05);
        let x_opt = pop.design(pop.best().unwrap()).to_vec();
        b.iter(|| {
            black_box(ns.propose(
                &critic,
                &x_opt,
                problem.specs(),
                FomConfig::default(),
                &mut rng,
            ))
        })
    });

    group.bench_function("critic_train_50x32", |b| {
        b.iter(|| {
            let mut cr = critic.clone();
            black_box(cr.train(&pop, 50, 32, &mut rng))
        })
    });

    group.bench_function("actor_train_30x32", |b| {
        let lb = vec![0.0; 8];
        let ub = vec![1.0; 8];
        b.iter(|| {
            let mut actor = Actor::new(8, &[100, 100], 0.3, 1e-3, 3);
            let mut cr = critic.clone();
            black_box(actor.train(
                &mut cr,
                &pop,
                problem.specs(),
                FomConfig::default(),
                (&lb, &ub),
                10.0,
                30,
                32,
                &mut rng,
            ))
        })
    });
    group.finish();
}

/// The O(N³) growth of GP fitting that the paper holds against BO, against
/// the O(N²) step a BO iteration takes instead: appending the N-th design
/// to a GP grown to N − 1.
fn ablation_bo_cubic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bo_cubic");
    let samples = 10;
    group.sample_size(samples);
    for n in [50usize, 100, 200, 300] {
        let (_, pop) = toy_population(n);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| pop.design(i).to_vec()).collect();
        let ys: Vec<f64> = pop.foms().to_vec();
        group.bench_with_input(BenchmarkId::new("gp_fit", n), &n, |b, _| {
            b.iter(|| black_box(GaussianProcess::fit(xs.clone(), ys.clone())))
        });

        // One GP per timed call (plus the warm-up), so neither the fit nor
        // the drop is timed.
        let mut fresh: Vec<GaussianProcess> = (0..=samples)
            .map(|_| GaussianProcess::fit(xs[..n - 1].to_vec(), ys[..n - 1].to_vec()))
            .collect();
        let mut grown = Vec::with_capacity(fresh.len());
        group.bench_with_input(BenchmarkId::new("gp_push", n), &n, |b, _| {
            b.iter(|| {
                let mut gp = fresh.pop().expect("one GP per timed call");
                gp.push(black_box(xs[n - 1].clone()), ys[n - 1]);
                grown.push(gp);
            })
        });
    }
    group.finish();
}

/// Pseudo-sample batch generation (Eq. 3) as the total design set grows.
fn ablation_pseudo_samples(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pseudo_samples");
    for n in [100usize, 300] {
        let (_, pop) = toy_population(n);
        let mut rng = StdRng::seed_from_u64(9);
        group.bench_with_input(BenchmarkId::new("batch64", n), &n, |b, _| {
            b.iter(|| black_box(maopt_core::pseudo_batch(&pop, 64, &mut rng)))
        });
    }
    group.finish();
}

/// Critic step cost vs hidden width (the paper fixes 2 × 100).
fn ablation_network_width(c: &mut Criterion) {
    let (_, pop) = toy_population(150);
    let mut group = c.benchmark_group("ablation_network_width");
    group.sample_size(10);
    for width in [50usize, 100, 200] {
        let mut critic = Critic::new(8, 3, &[width, width], 1e-3, 4);
        critic.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(6);
        group.bench_with_input(
            BenchmarkId::new("critic_10_steps", width),
            &width,
            |b, _| b.iter(|| black_box(critic.train(&pop, 10, 32, &mut rng))),
        );
    }
    group.finish();
}

/// The multi-critic variant §II evaluates and rejects: ensemble training
/// cost and memory versus member count.
fn ablation_multi_critic(c: &mut Criterion) {
    use maopt_core::CriticEnsemble;
    let (_, pop) = toy_population(150);
    let mut group = c.benchmark_group("ablation_multi_critic");
    group.sample_size(10);
    for n in [1usize, 2, 4] {
        let mut ens = CriticEnsemble::new(n, 8, 3, &[100, 100], 1e-3, 7);
        ens.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(8);
        // Report the memory cost alongside (printed once per size).
        eprintln!("ensemble n={n}: {} parameters", ens.param_count());
        group.bench_with_input(BenchmarkId::new("train_10_steps", n), &n, |b, _| {
            b.iter(|| black_box(ens.train(&pop, 10, 32, &mut rng)))
        });
    }
    group.finish();
}

/// Near-sampling sensitivity: proposal cost versus candidate count
/// (the paper fixes N_samples = 2000) and radius δ.
fn ablation_near_sampling(c: &mut Criterion) {
    let (problem, pop) = toy_population(150);
    let mut critic = Critic::new(8, 3, &[100, 100], 1e-3, 12);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(13);
    critic.train(&pop, 50, 32, &mut rng);
    let x_opt = pop.design(pop.best().unwrap()).to_vec();

    let mut group = c.benchmark_group("ablation_near_sampling");
    group.sample_size(10);
    for n in [500usize, 2000, 8000] {
        group.bench_with_input(BenchmarkId::new("n_samples", n), &n, |b, &n| {
            let ns = NearSampler::new(n, 0.05);
            b.iter(|| {
                black_box(ns.propose(
                    &critic,
                    &x_opt,
                    problem.specs(),
                    FomConfig::default(),
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_round_cost,
    ablation_bo_cubic,
    ablation_pseudo_samples,
    ablation_network_width,
    ablation_multi_critic,
    ablation_near_sampling
);
criterion_main!(benches);
