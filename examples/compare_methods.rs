//! Head-to-head comparison of all five paper methods on the fast synthetic
//! constrained problem — the full experiment loop (shared initial sets,
//! repeated runs, aggregated statistics) without the circuit-simulation
//! cost.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```

use ma_opt::bo::BoOptimizer;
use ma_opt::core::baselines::{DifferentialEvolution, ParticleSwarm, RandomSearch};
use ma_opt::core::problems::ConstrainedToy;
use ma_opt::core::runner::{make_initial_sets, run_method, Optimizer};
use ma_opt::core::MaOptConfig;
use ma_opt::exec::EvalEngine;

fn main() {
    let problem = ConstrainedToy::new(8);
    let runs = 5;
    let budget = 60;
    let engine = EvalEngine::default();
    let inits = make_initial_sets(&problem, runs, 30, 3, &engine, &engine);

    let methods: Vec<Box<dyn Optimizer>> = vec![
        Box::new(RandomSearch::new()),
        Box::new(ParticleSwarm::new()),
        Box::new(DifferentialEvolution::new()),
        Box::new(BoOptimizer::new()),
        Box::new(MaOptConfig::dnn_opt(3)),
        Box::new(MaOptConfig::ma_opt1(3)),
        Box::new(MaOptConfig::ma_opt2(3)),
        Box::new(MaOptConfig::ma_opt(3)),
    ];

    println!(
        "{:>8} | {:>8} | {:>12} | {:>12} | {:>10}",
        "method", "success", "min target", "log10(aFoM)", "wall (s)"
    );
    println!("{}", "-".repeat(62));
    for method in methods {
        let stats = run_method(
            method.as_ref(),
            &problem,
            &inits,
            budget,
            99,
            &engine,
            &engine,
            &[],
            &[],
        );
        println!(
            "{:>8} | {:>8} | {:>12} | {:>12.2} | {:>10.2}",
            stats.name,
            stats.success_rate(),
            stats
                .min_target
                .map(|t| format!("{t:.4}"))
                .unwrap_or_else(|| "-".into()),
            stats.log10_avg_fom_or_neg_inf(),
            stats.total_runtime.as_secs_f64(),
        );
    }
    println!("\n(each method saw the same {runs} initial sample sets; budget {budget} sims)");
}
