//! Cross-crate integration tests: optimizer against the real circuit
//! testbenches (sim → circuits → core). These use reduced budgets so the
//! suite stays fast; the full paper protocol lives in the `reproduce`
//! binary.

use ma_opt::circuits::{LdoRegulator, ThreeStageTia, TwoStageOta};
use ma_opt::core::runner::{sample_initial_set, Optimizer};
use ma_opt::core::{fom, FomConfig, MaOptConfig, SizingProblem};

fn small(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![32, 32],
        critic_steps: 40,
        actor_steps: 20,
        n_samples: 200,
        ..cfg
    }
}

#[test]
fn every_circuit_exposes_a_consistent_problem() {
    let problems: Vec<Box<dyn SizingProblem>> = vec![
        Box::new(TwoStageOta::new()),
        Box::new(ThreeStageTia::new()),
        Box::new(LdoRegulator::new()),
    ];
    for p in &problems {
        assert_eq!(p.params().len(), p.dim());
        let metrics = p.evaluate(&vec![0.5; p.dim()]);
        assert_eq!(metrics.len(), p.num_metrics());
        assert!(
            metrics.iter().all(|v| v.is_finite()),
            "{}: {metrics:?}",
            p.name()
        );
        // Every spec references a valid metric index.
        for s in p.specs() {
            assert!(
                s.metric_index < p.num_metrics(),
                "{} spec {}",
                p.name(),
                s.name
            );
        }
        // FoM is computable and finite.
        let g = fom(&metrics, p.specs(), FomConfig::default());
        assert!(g.is_finite());
    }
    // Paper dimensions: 16 / 15 / 16.
    assert_eq!(problems[0].dim(), 16);
    assert_eq!(problems[1].dim(), 15);
    assert_eq!(problems[2].dim(), 16);
}

/// Strict improvement within a tiny budget is seed-dependent (the paper's
/// protocol uses 100 init + 200 sims); require never-regressing on every
/// seed and strict improvement on at least one.
fn assert_improves_somewhere(problem: &dyn SizingProblem, seeds: &[u64], budget: usize) {
    let mut improved = 0;
    for &seed in seeds {
        let init = sample_initial_set(problem, 30, seed);
        let result = small(MaOptConfig::ma_opt(seed)).optimize(problem, &init, budget, seed);
        assert!(
            result.best_fom() <= result.trace.init_best_fom(),
            "{} seed {seed}: best-so-far regressed",
            problem.name()
        );
        if result.best_fom() < result.trace.init_best_fom() - 1e-12 {
            improved += 1;
        }
    }
    assert!(improved >= 1, "{}: no seed improved", problem.name());
}

#[test]
fn maopt_improves_the_ota_within_a_small_budget() {
    assert_improves_somewhere(&TwoStageOta::new(), &[21, 210], 24);
}

#[test]
fn maopt_improves_the_tia_within_a_small_budget() {
    assert_improves_somewhere(&ThreeStageTia::new(), &[22, 220], 18);
}

#[test]
fn evaluation_is_deterministic() {
    // Identical design vectors must give bit-identical metrics — required
    // for the paper's shared-initial-set protocol to be meaningful.
    let problem = TwoStageOta::new();
    let x = vec![0.37; problem.dim()];
    assert_eq!(problem.evaluate(&x), problem.evaluate(&x));
}

#[test]
fn parallel_evaluations_match_serial() {
    // MA-Opt evaluates actor proposals from worker threads; results must be
    // independent of threading.
    let problem = ThreeStageTia::new();
    let xs: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            (0..problem.dim())
                .map(|j| ((i * 31 + j * 7) % 10) as f64 / 10.0)
                .collect()
        })
        .collect();
    let serial: Vec<Vec<f64>> = xs.iter().map(|x| problem.evaluate(x)).collect();
    let parallel: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = xs.iter().map(|x| s.spawn(|| problem.evaluate(x))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel);
}

/// The full-budget LDO optimization is minutes-long in debug builds; run it
/// explicitly with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full LDO mini-optimization (run with --release -- --ignored)"]
fn maopt_improves_the_ldo() {
    let problem = LdoRegulator::new();
    let init = sample_initial_set(&problem, 30, 23);
    let result = small(MaOptConfig::ma_opt(23)).optimize(&problem, &init, 24, 23);
    assert!(result.best_fom() < result.trace.init_best_fom());
}
