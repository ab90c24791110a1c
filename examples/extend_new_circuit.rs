//! Extensibility demo: size the bonus folded-cascode OTA — a circuit the
//! paper never saw — with the unmodified MA-Opt optimizer, then print the
//! sizing report.
//!
//! ```text
//! cargo run --release --example extend_new_circuit
//! ```

use ma_opt::circuits::FoldedCascodeOta;
use ma_opt::core::export::sizing_report;
use ma_opt::core::runner::{sample_initial_set, Optimizer};
use ma_opt::core::{MaOptConfig, SizingProblem};

fn main() {
    let problem = FoldedCascodeOta::new();
    println!(
        "sizing {} ({} parameters, {} constraints) — not part of the paper's benchmark set",
        problem.name(),
        problem.dim(),
        problem.specs().len()
    );

    let init = sample_initial_set(&problem, 40, 17);
    let result = MaOptConfig::ma_opt(17).optimize(&problem, &init, 60, 17);

    println!(
        "\nbest FoM {:.4e} after {} simulations ({} near-sampling rounds)",
        result.best_fom(),
        result.trace.num_sims(),
        result.trace.near_sample_count()
    );
    print!("{}", sizing_report(&result, &problem));
}
