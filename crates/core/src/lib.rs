//! MA-Opt: an RL-inspired multi-actor analog circuit sizing optimizer.
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * the constrained sizing problem abstraction ([`SizingProblem`], Eq. 1),
//! * the figure-of-merit function ([`fom`], Eq. 2),
//! * pseudo-sample generation from the total design set (Eq. 3),
//! * the critic network trained as a SPICE regression ([`Critic`], Eq. 4),
//! * actor networks trained through the frozen critic with elite-set
//!   boundary penalties ([`Actor`], Eqs. 5–6),
//! * shared vs. individual elite solution sets ([`EliteSet`], Fig. 2),
//! * the near-sampling exploitation step ([`NearSampler`], Algorithm 2),
//! * the overall optimization loop ([`MaOpt`], Algorithms 1 & 3) with the
//!   paper's ablations ([`MaOptConfig::dnn_opt`], [`MaOptConfig::ma_opt1`],
//!   [`MaOptConfig::ma_opt2`], [`MaOptConfig::ma_opt`]),
//! * a statistics-collecting experiment [`runner`] reproducing the paper's
//!   tables and figures,
//! * the classic population baselines the paper's related work cites —
//!   PSO, differential evolution and random search ([`baselines`]).
//!
//! # Example: optimize a synthetic quadratic sizing problem
//!
//! ```
//! use maopt_core::runner::{sample_initial_set, Optimizer};
//! use maopt_core::{problems::Sphere, MaOptConfig};
//!
//! let problem = Sphere::new(4);
//! let config = MaOptConfig::ma_opt(7);
//! let init = sample_initial_set(&problem, 20, 7);
//! let result = config.optimize(&problem, &init, 30, 7);
//! assert!(result.best_fom() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod baselines;
pub mod chaos;
mod checkpoint;
mod critic;
mod elite;
pub mod export;
mod fom;
mod maopt;
mod near_sampling;
mod opstore;
mod population;
pub mod problem;
pub mod problems;
pub mod runner;
pub mod trace;

pub use actor::Actor;
pub use checkpoint::RunCheckpointer;
pub use critic::{Critic, CriticEnsemble, PredictScratch, Surrogate};
pub use elite::EliteSet;
pub use fom::{fom, is_feasible, spec_violations, FomConfig};
pub use maopt::{MaOpt, MaOptConfig, RunResult, RunTimings};
pub use maopt_exec::OpState;
pub use near_sampling::NearSampler;
pub use opstore::OpStore;
pub use population::{pseudo_batch, pseudo_batch_into, Population};
pub use problem::{EngineProblem, ParamScale, ParamSpec, SizingProblem, Spec, SpecKind};
