//! Facade for the MA-Opt reproduction workspace.
//!
//! This crate re-exports the workspace members under one roof so examples
//! and downstream users can depend on a single package:
//!
//! * [`core`] — the MA-Opt optimizer (actors, critic, elite sets,
//!   near-sampling, experiment runner),
//! * [`circuits`] — the paper's three sized testbenches (OTA, TIA, LDO),
//! * [`sim`] — the MNA circuit simulator substrate,
//! * [`nn`] — the neural-network stack,
//! * [`bo`] — the Bayesian-optimization baseline,
//! * [`exec`] — the parallel evaluation engine (worker pool, simulation
//!   cache, fault handling, telemetry),
//! * [`linalg`] — the shared linear algebra.
//!
//! # Example
//!
//! ```
//! use ma_opt::core::problems::Sphere;
//! use ma_opt::core::runner::{sample_initial_set, Optimizer};
//! use ma_opt::core::MaOptConfig;
//!
//! let problem = Sphere::new(3);
//! let init = sample_initial_set(&problem, 10, 1);
//! let config = MaOptConfig {
//!     hidden: vec![16, 16],
//!     critic_steps: 5,
//!     actor_steps: 5,
//!     ..MaOptConfig::ma_opt2(1)
//! };
//! let result = config.optimize(&problem, &init, 6, 1);
//! assert!(result.best_fom().is_finite());
//! ```

#![forbid(unsafe_code)]

pub use maopt_bo as bo;
pub use maopt_circuits as circuits;
pub use maopt_core as core;
pub use maopt_exec as exec;
pub use maopt_linalg as linalg;
pub use maopt_nn as nn;
pub use maopt_sim as sim;
