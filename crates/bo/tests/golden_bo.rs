//! Golden BO numerics: short `BoOptimizer` runs must reproduce, bit for
//! bit, the FoM trajectories recorded before the GP moved to append-a-row
//! factors and blocked EI solves. Any later change to the GP's numerics
//! (kernel, factorization order, solve order, EI) fails here on the first
//! diverging bit instead of shifting results silently.

use maopt_bo::{BoOptimizer, GaussianProcess};
use maopt_core::problems::{ConstrainedToy, Sphere};
use maopt_core::runner::{sample_initial_set, Optimizer};
use maopt_core::SizingProblem;

/// Runs BO with 400 candidates and returns the bit patterns of the
/// best-so-far series and of every simulated design's FoM.
fn run_bits(
    problem: &dyn SizingProblem,
    init_n: usize,
    init_seed: u64,
    budget: usize,
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let init = sample_initial_set(problem, init_n, init_seed);
    let bo = BoOptimizer {
        n_candidates: 400,
        ..BoOptimizer::new()
    };
    let result = bo.optimize(problem, &init, budget, seed);
    let best = result.trace.best_fom_series(budget);
    let foms = &result.population.foms()[init_n..];
    (
        best.iter().map(|v| v.to_bits()).collect(),
        foms.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn sphere_trajectory_is_bitwise_golden() {
    let (best, foms) = run_bits(&Sphere::new(3), 15, 3, 12, 3);
    let golden_best: [u64; 12] = [
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f88368fea6c30f1,
        0x3f83f396828403e0,
        0x3f83f396828403e0,
        0x3f7cd46ed82e264c,
        0x3f7cd46ed82e264c,
    ];
    let golden_foms: [u64; 12] = [
        0x3f88368fea6c30f1,
        0x3fbb2a6ec2bd032c,
        0x3fa09fea9c3c7939,
        0x3f98db2fc04ad386,
        0x3fc5c3041b4c1c4a,
        0x3f8ba88653c4ed34,
        0x3fc94745a7233be9,
        0x3fbae3b908f92c41,
        0x3f83f396828403e0,
        0x3fe1201118f4bcf0,
        0x3f7cd46ed82e264c,
        0x3fee47cdfc8e5921,
    ];
    assert_eq!(best, golden_best);
    assert_eq!(foms, golden_foms);
}

#[test]
fn constrained_toy_trajectory_is_bitwise_golden() {
    let (best, foms) = run_bits(&ConstrainedToy::new(3), 20, 4, 12, 4);
    let golden_best: [u64; 12] = [
        0x3fe0917d1beb851c,
        0x3fe0917d1beb851c,
        0x3fe0917d1beb851c,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
        0x3fe084115fdf7682,
    ];
    let golden_foms: [u64; 12] = [
        0x3fe0917d1beb851c,
        0x3fe4240c4d403de0,
        0x3fe1ebe660b16722,
        0x3fe084115fdf7682,
        0x3fe84d6531db4f17,
        0x3fe1c196923ed523,
        0x3ffb7cd89598a50e,
        0x3ff7359a2c9832ce,
        0x3fe2ce438e187c44,
        0x3fe8c0a00d3a23ea,
        0x4005d52e2d86a1c7,
        0x3fe8f9fdd311421a,
    ];
    assert_eq!(best, golden_best);
    assert_eq!(foms, golden_foms);
}

/// Posterior of a 40-point, 3-dimensional GP at five query points.
#[test]
fn gp_posterior_is_bitwise_golden() {
    let mut s = 0x1234_5678u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 10_000) as f64 / 10_000.0
    };
    let xs: Vec<Vec<f64>> = (0..40).map(|_| vec![next(), next(), next()]).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (3.0 * x[0]).sin() + x[1] * x[2])
        .collect();
    let queries: Vec<Vec<f64>> = (0..5).map(|_| vec![next(), next(), next()]).collect();
    let gp = GaussianProcess::fit(xs, ys);
    assert_eq!(gp.lengthscale(), 0.4);
    let golden: [(u64, u64); 5] = [
        (0x3fe3fbecb26a7fa4, 0x3f39a97e9ed137c1),
        (0x3fe67fc8648d4b9c, 0x3f9c96aac5be3d53),
        (0x3fe45a5d630965a2, 0x3f692a495baaa416),
        (0x3ff337c70b013e24, 0x3f13a5ece41987f4),
        (0x3fecae0192e21a92, 0x3f5a27a45dceffd2),
    ];
    for (q, &(mean, var)) in queries.iter().zip(&golden) {
        let (m, v) = gp.predict(q);
        assert_eq!((m.to_bits(), v.to_bits()), (mean, var), "at {q:?}");
    }
}
