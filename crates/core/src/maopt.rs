//! The overall MA-Opt framework (Algorithms 1 and 3 of the paper), covering
//! all four experimental variants:
//!
//! | Variant  | Actors | Elite set  | Near-sampling |
//! |----------|--------|------------|---------------|
//! | DNN-Opt  | 1      | own        | no            |
//! | MA-Opt¹  | 3      | individual | no            |
//! | MA-Opt²  | 3      | shared     | no            |
//! | MA-Opt   | 3      | shared     | yes           |
//!
//! Actor training and proposal simulations run in parallel threads
//! (the paper uses multiprocessing over `N_act` CPU cores).

use std::time::{Duration, Instant};

use maopt_ckpt::RunSnapshot;
use maopt_exec::{quantize, span_delta, CounterSnapshot, EvalEngine, OpState};
use maopt_obs::json::Json;
use maopt_obs::{
    ActorRound, EliteStats, Journal, Manifest, NearSamplingRecord, Record, RoundRecord, RunEnd,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::Actor;
use crate::checkpoint::RunCheckpointer;
use crate::critic::{CriticEnsemble, PredictScratch, Surrogate};
use crate::elite::EliteSet;
use crate::fom::FomConfig;
use crate::near_sampling::NearSampler;
use crate::opstore::OpStore;
use crate::population::Population;
use crate::problem::{EngineProblem, SizingProblem};
use crate::trace::{SimKind, Trace};

/// How many recent simulated designs enter the critic-fidelity Spearman
/// correlation at near-sampling rounds.
const FIDELITY_WINDOW: usize = 64;

/// Full configuration of a MA-Opt run.
#[derive(Debug, Clone)]
pub struct MaOptConfig {
    /// Display label, e.g. `"MA-Opt"`.
    pub label: String,
    /// Number of actors `N_act`.
    pub n_actors: usize,
    /// Shared (`true`) vs individual (`false`) elite solution sets.
    pub shared_elite: bool,
    /// Whether the near-sampling method is enabled.
    pub near_sampling: bool,
    /// Elite set capacity `N_es`.
    pub n_es: usize,
    /// Pseudo-sample batch size `N_b`.
    pub batch_size: usize,
    /// Critic training steps per iteration.
    pub critic_steps: usize,
    /// Actor training steps per iteration.
    pub actor_steps: usize,
    /// Hidden layer widths (paper: two layers of 100).
    pub hidden: Vec<usize>,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Maximum |Δx| per coordinate (tanh output scaling), normalized units.
    pub action_scale: f64,
    /// Near-sampling period `T_NS`.
    pub t_ns: usize,
    /// Near-sampling candidate count `N_samples`.
    pub n_samples: usize,
    /// Near-sampling radius `δ`, normalized units.
    pub delta: f64,
    /// Boundary-violation weight `λ` (Eq. 5).
    pub lambda: f64,
    /// Number of critics in the surrogate ensemble. The paper adopts 1
    /// (§II: multiple critics "improve optimization, but consume more
    /// memory"); values > 1 enable the evaluated-but-rejected variant.
    pub n_critics: usize,
    /// FoM weights.
    pub fom: FomConfig,
    /// RNG seed.
    pub seed: u64,
}

impl MaOptConfig {
    fn base(label: &str, seed: u64) -> Self {
        MaOptConfig {
            label: label.into(),
            n_actors: 3,
            shared_elite: true,
            near_sampling: true,
            n_es: 10,
            batch_size: 32,
            critic_steps: 50,
            actor_steps: 30,
            hidden: vec![100, 100],
            critic_lr: 3e-3,
            actor_lr: 3e-3,
            action_scale: 0.3,
            t_ns: 5,
            n_samples: 2000,
            delta: 0.05,
            lambda: 10.0,
            n_critics: 1,
            fom: FomConfig::default(),
            seed,
        }
    }

    /// The multi-critic variant the paper evaluated and rejected on memory
    /// grounds: MA-Opt with an `n`-member critic ensemble.
    pub fn ma_opt_multi_critic(seed: u64, n_critics: usize) -> Self {
        MaOptConfig {
            label: format!("MA-Opt(c{n_critics})"),
            n_critics,
            ..Self::base("MA-Opt", seed)
        }
    }

    /// The DNN-Opt baseline: one actor, own elite set, no near-sampling.
    pub fn dnn_opt(seed: u64) -> Self {
        MaOptConfig {
            n_actors: 1,
            shared_elite: false,
            near_sampling: false,
            ..Self::base("DNN-Opt", seed)
        }
    }

    /// MA-Opt¹: three actors with individual elite sets, no near-sampling.
    pub fn ma_opt1(seed: u64) -> Self {
        MaOptConfig {
            shared_elite: false,
            near_sampling: false,
            ..Self::base("MA-Opt1", seed)
        }
    }

    /// MA-Opt²: three actors with a shared elite set, no near-sampling.
    pub fn ma_opt2(seed: u64) -> Self {
        MaOptConfig {
            near_sampling: false,
            ..Self::base("MA-Opt2", seed)
        }
    }

    /// Full MA-Opt: three actors, shared elite set, near-sampling.
    pub fn ma_opt(seed: u64) -> Self {
        Self::base("MA-Opt", seed)
    }
}

/// Timing breakdown of a run, used by the runtime comparisons (§III-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimings {
    /// Wall-clock total.
    pub total: Duration,
    /// Time spent training networks and fitting surrogates.
    pub training: Duration,
    /// Time spent in circuit simulations.
    pub simulation: Duration,
    /// Time spent in near-sampling proposal generation.
    pub near_sampling: Duration,
}

impl RunTimings {
    /// The phase times of one stretch of a run: how much the engine's
    /// span totals grew from `before` to `after` (two
    /// [`maopt_exec::Telemetry::spans`] readings), with `wall` as the
    /// total. Training is `critic_training + elite_rebuild +
    /// actor_training + gp_fit + bo_acquisition`; simulation and
    /// near-sampling are their namesake spans.
    ///
    /// Spans are per telemetry, so two runs sharing one telemetry at the
    /// same time would see each other's time; the runner gives each run
    /// its own ([`maopt_exec::Telemetry::isolated`]).
    pub fn from_spans(
        before: &[(String, Duration)],
        after: &[(String, Duration)],
        wall: Duration,
    ) -> RunTimings {
        let delta = |names: &[&str]| names.iter().map(|n| span_delta(before, after, n)).sum();
        RunTimings {
            total: wall,
            training: delta(&[
                "critic_training",
                "elite_rebuild",
                "actor_training",
                "gp_fit",
                "bo_acquisition",
            ]),
            simulation: delta(&["simulation"]),
            near_sampling: delta(&["near_sampling"]),
        }
    }

    /// `[total, training, simulation, near_sampling]` in seconds — the
    /// checkpoint and run-end layout.
    pub fn as_secs(&self) -> [f64; 4] {
        [
            self.total,
            self.training,
            self.simulation,
            self.near_sampling,
        ]
        .map(|d| d.as_secs_f64())
    }

    /// Phase-wise sum: a resumed run's timings are its checkpoint's plus
    /// the time since the resume.
    #[must_use]
    fn plus(self, other: RunTimings) -> RunTimings {
        RunTimings {
            total: self.total + other.total,
            training: self.training + other.training,
            simulation: self.simulation + other.simulation,
            near_sampling: self.near_sampling + other.near_sampling,
        }
    }
}

/// Outcome of one optimization run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method label.
    pub label: String,
    /// Per-simulation trace.
    pub trace: Trace,
    /// Every simulated design (init + optimization).
    pub population: Population,
    /// Timing breakdown.
    pub timings: RunTimings,
}

impl RunResult {
    /// Best FoM over the whole run.
    pub fn best_fom(&self) -> f64 {
        self.trace.best_fom()
    }

    /// Whether any simulated design met every spec.
    pub fn success(&self) -> bool {
        self.population.best_feasible().is_some()
    }

    /// Target metric of the best feasible design, if any.
    pub fn best_feasible_target(&self) -> Option<f64> {
        self.population
            .best_feasible()
            .map(|i| self.population.metrics(i)[0])
    }

    /// Normalized design vector of the best feasible design, if any.
    pub fn best_feasible_design(&self) -> Option<&[f64]> {
        self.population
            .best_feasible()
            .map(|i| self.population.design(i))
    }
}

/// The optimizer (Algorithms 1 & 3).
#[derive(Debug, Clone)]
pub struct MaOpt {
    config: MaOptConfig,
}

impl MaOpt {
    /// Creates an optimizer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero actor count or elite capacity.
    pub fn new(config: MaOptConfig) -> Self {
        assert!(config.n_actors > 0, "need at least one actor");
        assert!(config.n_es > 0, "elite capacity must be positive");
        assert!(config.n_critics > 0, "need at least one critic");
        MaOpt { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MaOptConfig {
        &self.config
    }

    /// Runs the optimization: `init` is the pre-simulated initial set
    /// `(x, f(x))` (shared across methods in the paper's protocol), `budget`
    /// the number of additional simulations allowed.
    ///
    /// Actor training, proposal simulations and near-sampling ranking are
    /// dispatched through `engine`. Every per-actor computation is seeded
    /// independently of scheduling (`iter_seed ^ (i << 17)`), so the result
    /// is bitwise identical for any engine worker count.
    ///
    /// Optimizer internals — a run manifest, per-round critic/actor/elite
    /// records, near-sampling decisions and engine counter deltas — stream
    /// into `journal`. Every journal-only computation (loss traces, elite
    /// geometry, Spearman fidelity) is gated on [`Journal::enabled`], none
    /// of it consumes RNG draws or perturbs optimization arithmetic, so
    /// results are bitwise identical whether or not journaling is on.
    ///
    /// With a [`RunCheckpointer`], the full optimizer state — RNG stream
    /// position, simulated population with trace provenance, per-actor
    /// and critic weights plus Adam moments, the fitted output scaler,
    /// elite bookkeeping, the simulation cache, the operating-point store
    /// (so warm runs resume warm) and the journal lines written so far —
    /// is atomically persisted after every completed round. With resume
    /// enabled, a run killed at any instant continues from its last
    /// durable round and produces a journal byte-identical to an
    /// uninterrupted run on every non-timing field.
    ///
    /// # Panics
    ///
    /// Panics if `init` is empty, if a snapshot cannot be persisted or a
    /// corrupt one is resumed from, or if a resumed snapshot disagrees
    /// with this configuration (label, seed, budget, problem, actor or
    /// critic count, or the initial sample set).
    pub fn run(
        &self,
        problem: &dyn SizingProblem,
        init: Vec<(Vec<f64>, Vec<f64>)>,
        budget: usize,
        engine: &EvalEngine,
        journal: &Journal,
        ckpt: Option<&RunCheckpointer>,
    ) -> RunResult {
        assert!(
            !init.is_empty(),
            "MA-Opt needs a non-empty initial sample set"
        );
        let sim_target = EngineProblem(problem);
        let cfg = &self.config;
        let t_start = Instant::now();
        let spans_start = engine.telemetry().spans();
        let specs = problem.specs().to_vec();
        let d = problem.dim();
        let m1 = problem.num_metrics();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let init_len = init.len();
        let mut pop = Population::new();
        let mut trace = Trace::new();

        // Networks (freshly constructed; overwritten below on resume).
        let mut critic = CriticEnsemble::new(
            cfg.n_critics,
            d,
            m1,
            &cfg.hidden,
            cfg.critic_lr,
            cfg.seed ^ 0xC717,
        );
        let mut actors: Vec<Actor> = (0..cfg.n_actors)
            .map(|i| {
                Actor::new(
                    d,
                    &cfg.hidden,
                    cfg.action_scale,
                    cfg.actor_lr,
                    cfg.seed ^ (i as u64 + 1),
                )
            })
            .collect();

        // Individual-elite bookkeeping: which population indices each actor
        // has "seen" (init set + its own simulations).
        let mut visible: Vec<Vec<usize>> =
            vec![(0..init_len).collect(); if cfg.shared_elite { 0 } else { cfg.n_actors }];

        let mut sims_used = 0usize;
        let mut t = 0usize;
        let mut critic_ready = false;
        // Journal-only state: engine counters at run start and the previous
        // round's representative elite designs (for the refresh rate).
        let run_counters = engine.telemetry().snapshot();
        let mut prev_elite: Vec<Vec<f64>> = Vec::new();

        // Operating-point store for cross-design Newton warm-starting.
        // Lives on this thread; seeds are selected here and travel inside
        // each evaluation request, so worker scheduling cannot influence
        // which seed a design sees (journal byte-identity at any --jobs).
        let mut op_store = OpStore::new();

        // Checkpoint bookkeeping: every journal line written so far (the
        // snapshot carries them; resume replays them verbatim so the
        // resumed journal is byte-identical), plus counter/timing bases
        // accumulated by the run's previous life.
        let mut journal_lines: Vec<String> = Vec::new();
        let mut counters_base = CounterSnapshot::default();
        let mut timings_base = RunTimings::default();

        if let Some(snap) = ckpt.and_then(|c| c.load_for_resume()) {
            assert_eq!(snap.label, cfg.label, "checkpoint label mismatch");
            assert_eq!(snap.problem, problem.name(), "checkpoint problem mismatch");
            assert_eq!(snap.seed, cfg.seed, "checkpoint seed mismatch");
            assert_eq!(snap.budget as usize, budget, "checkpoint budget mismatch");
            assert_eq!(
                snap.init_len as usize, init_len,
                "checkpoint initial-set size mismatch"
            );
            assert_eq!(
                snap.sim_kinds.len(),
                snap.population.len() - init_len,
                "checkpoint provenance does not cover its population"
            );
            for (i, (x, _)) in init.iter().enumerate() {
                assert_eq!(
                    &snap.population[i].0, x,
                    "checkpoint initial design {i} disagrees with the provided initial set"
                );
            }
            // Replay the population through the normal push path so FoM
            // and feasibility are recomputed exactly as during the run.
            for (i, (x, metrics)) in snap.population.iter().enumerate() {
                let idx = pop.push(x.clone(), metrics.clone(), &specs, cfg.fom);
                if i < init_len {
                    trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
                } else {
                    let kind = match snap.sim_kinds[i - init_len] {
                        1 => SimKind::Actor,
                        2 => SimKind::NearSample,
                        k => panic!("checkpoint records unknown simulation kind {k}"),
                    };
                    trace.record(kind, pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
                }
            }
            rng = StdRng::from_state(snap.rng);
            assert_eq!(
                snap.actors.len(),
                actors.len(),
                "checkpointed actor count does not match configuration"
            );
            for (actor, state) in actors.iter_mut().zip(&snap.actors) {
                actor.ckpt_restore(state);
            }
            critic.ckpt_restore(&snap.critics);
            assert_eq!(
                snap.visible.len(),
                visible.len(),
                "checkpointed elite visibility does not match configuration"
            );
            visible = snap
                .visible
                .iter()
                .map(|v| v.iter().map(|&i| i as usize).collect())
                .collect();
            t = snap.round as usize;
            sims_used = snap.sims_used as usize;
            critic_ready = snap.critic_ready;
            if let Some(cache) = engine.cache() {
                cache.restore(snap.cache);
            }
            counters_base = CounterSnapshot {
                sims: snap.counters[0],
                cache_hits: snap.counters[1],
                cache_misses: snap.counters[2],
                retries: snap.counters[3],
                panics: snap.counters[4],
                timeouts: snap.counters[5],
                non_finite: snap.counters[6],
                failures: snap.counters[7],
            };
            let [total, training, simulation, near_sampling] =
                snap.timings.map(Duration::from_secs_f64);
            timings_base = RunTimings {
                total,
                training,
                simulation,
                near_sampling,
            };
            prev_elite = snap.prev_elite;
            op_store = OpStore::restore(op_store.capacity(), snap.op_store);
            for line in &snap.journal_lines {
                journal.write_raw(line);
            }
            journal.flush();
            journal_lines = snap.journal_lines;
        } else {
            for (x, metrics) in init {
                let idx = pop.push(x, metrics, &specs, cfg.fom);
                trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
            }
            if journal.enabled() {
                let (version, build) = Manifest::build_info();
                emit(
                    journal,
                    &Record::Manifest(Manifest {
                        label: cfg.label.clone(),
                        problem: problem.name().to_string(),
                        dim: d,
                        num_metrics: m1,
                        seed: cfg.seed,
                        budget,
                        init_size: init_len,
                        jobs: engine.jobs(),
                        version,
                        build,
                        config: config_json(cfg),
                    }),
                    ckpt.and(Some(&mut journal_lines)),
                );
            }
        }
        // The run's timings so far: the previous life's plus this one's
        // span deltas.
        let timings = || {
            timings_base.plus(RunTimings::from_spans(
                &spans_start,
                &engine.telemetry().spans(),
                t_start.elapsed(),
            ))
        };

        while sims_used < budget {
            t += 1;
            let specs_met = pop.best_feasible().is_some();
            let do_ns =
                cfg.near_sampling && specs_met && critic_ready && t.is_multiple_of(cfg.t_ns);
            // A handful of atomic loads; cheap enough to take unconditionally.
            let round_counters = engine.telemetry().snapshot();

            if do_ns {
                // ---- Algorithm 2: near-sampling round (1 simulation). ----
                let ns = NearSampler::new(cfg.n_samples, cfg.delta);
                let best_idx = pop.best().expect("non-empty population");
                let incumbent_fom = pop.fom(best_idx);
                let x_opt = pop.design(best_idx).to_vec();
                let (cand, predicted_fom) = {
                    let _span = engine.telemetry().span("near_sampling");
                    ns.propose_scored_with(&critic, &x_opt, &specs, cfg.fom, &mut rng, engine)
                };

                // Near-sampling candidates live within δ of the incumbent, so
                // the incumbent's stored operating point is the natural seed.
                let ns_seed = op_store.get(&x_opt).cloned();
                let (metrics, op_state) = {
                    let _span = engine.telemetry().span("simulation");
                    engine.evaluate_one_seeded(&sim_target, &cand, ns_seed.as_ref())
                };

                if let Some(state) = op_state {
                    op_store.insert(&cand, state);
                }
                let idx = pop.push(cand, metrics, &specs, cfg.fom);
                let simulated_fom = pop.fom(idx);
                trace.record(
                    SimKind::NearSample,
                    simulated_fom,
                    pop.feasible(idx),
                    pop.metrics(idx)[0],
                );
                sims_used += 1;

                let tm = engine.telemetry();
                tm.metrics.inc("opt.ns_rounds", 1);
                if simulated_fom < incumbent_fom {
                    tm.metrics.inc("opt.ns_accepted", 1);
                }
                if journal.enabled() {
                    let (spearman, fidelity_n) = critic_fidelity(&critic, &pop, &specs, cfg.fom);
                    emit(
                        journal,
                        &Record::NearSampling(NearSamplingRecord {
                            round: t,
                            sims_used,
                            trigger: "period".to_string(),
                            n_candidates: cfg.n_samples,
                            predicted_fom,
                            simulated_fom,
                            incumbent_fom,
                            accepted: simulated_fom < incumbent_fom,
                            spearman,
                            fidelity_n,
                            engine: tm.snapshot().since(&round_counters),
                        }),
                        ckpt.and(Some(&mut journal_lines)),
                    );
                }
            } else {
                // ---- Algorithm 1: actor-critic round (N_act simulations). ----
                let mut critic_trace: Option<Vec<f64>> = journal.enabled().then(Vec::new);
                let critic_loss = {
                    let _span = engine.telemetry().span("critic_training");
                    critic.refit_scaler(&pop);
                    critic.train_traced(
                        &pop,
                        cfg.critic_steps,
                        cfg.batch_size,
                        &mut rng,
                        critic_trace.as_mut(),
                    )
                };
                critic_ready = true;

                // Elite sets (shared: one; individual: per actor).
                let (shared_elite, individual_elites) = {
                    let _span = engine.telemetry().span("elite_rebuild");
                    let build = |vis: Option<&[usize]>| {
                        let mut es = EliteSet::new(cfg.n_es);
                        es.rebuild(&pop, vis);
                        es
                    };
                    if cfg.shared_elite {
                        (Some(build(None)), Vec::new())
                    } else {
                        (None, visible.iter().map(|vis| build(Some(vis))).collect())
                    }
                };

                let n_props = cfg.n_actors.min(budget - sims_used);
                let iter_seed: u64 = rng.random();

                // Train actors and generate proposals on the engine's pool.
                // Each lane reads shared state immutably and owns its actor
                // mutably; results come back in actor order.
                let pop_ref = &pop;
                let specs_ref = &specs;
                let critic_ref = &critic;
                let shared_elite_ref = &shared_elite;
                let individual_elites_ref = &individual_elites;
                let actor_lanes: Vec<&mut Actor> = actors.iter_mut().collect();
                // Each lane returns (candidate, actor loss, predicted FoM,
                // the parent elite design the candidate stepped from).
                let lane_results: Vec<(Vec<f64>, f64, f64, Vec<f64>)> = {
                    let _span = engine.telemetry().span("actor_training");
                    engine.map(actor_lanes, |i, actor| {
                        let elite = if cfg.shared_elite {
                            shared_elite_ref.as_ref().expect("shared elite built")
                        } else {
                            &individual_elites_ref[i]
                        };
                        let fom_cfg = cfg.fom;
                        let (lambda, steps, batch) = (cfg.lambda, cfg.actor_steps, cfg.batch_size);
                        // Each actor trains through one ensemble member
                        // (round-robin); with one critic this is the
                        // paper's configuration.
                        let mut local_critic = critic_ref.member(i).clone();
                        let mut local_rng = StdRng::seed_from_u64(iter_seed ^ (i as u64) << 17);
                        let (lb, ub) = elite.bounds();
                        let loss = actor.train(
                            &mut local_critic,
                            pop_ref,
                            specs_ref,
                            fom_cfg,
                            (&lb, &ub),
                            lambda,
                            steps,
                            batch,
                            &mut local_rng,
                        );
                        // Line 8 of Algorithm 1: among elite states, pick
                        // the one whose actor-proposed successor has the
                        // best predicted FoM; simulate that successor.
                        let (cand, pred, parent) = actor.best_elite_proposal(
                            &local_critic,
                            elite.designs(),
                            specs_ref,
                            fom_cfg,
                        );
                        (cand, loss, pred, elite.designs()[parent].clone())
                    })
                };

                // Simulate the first `n_props` proposals on the pool.
                let to_run: Vec<Vec<f64>> = lane_results[..n_props]
                    .iter()
                    .map(|(cand, _, _, _)| cand.clone())
                    .collect();
                // Seed each proposal from its parent elite design's stored
                // operating point, chosen here on the main thread. Duplicate
                // designs within the batch share the first occurrence's seed:
                // the simulation cache is first-write-wins, and identical
                // inputs must compute identical results no matter which copy
                // races into the cache first (serial/parallel byte-identity).
                let mut seeds: Vec<Option<OpState>> = Vec::with_capacity(to_run.len());
                let mut seen: Vec<(Vec<i64>, usize)> = Vec::with_capacity(to_run.len());
                for (i, cand) in to_run.iter().enumerate() {
                    let key = quantize(cand);
                    if let Some(&(_, first)) = seen.iter().find(|(k, _)| *k == key) {
                        seeds.push(seeds[first].clone());
                    } else {
                        seen.push((key, i));
                        seeds.push(op_store.get(&lane_results[i].3).cloned());
                    }
                }
                let seed_refs: Vec<Option<&OpState>> = seeds.iter().map(Option::as_ref).collect();
                let results: Vec<(Vec<f64>, Option<OpState>)> = {
                    let _span = engine.telemetry().span("simulation");
                    engine.evaluate_batch_seeded(&sim_target, &to_run, &seed_refs)
                };

                let mut pushed = Vec::with_capacity(n_props);
                for (i, (cand, (metrics, op_state))) in to_run.into_iter().zip(results).enumerate()
                {
                    if let Some(state) = op_state {
                        op_store.insert(&cand, state);
                    }
                    let idx = pop.push(cand, metrics, &specs, cfg.fom);
                    trace.record(
                        SimKind::Actor,
                        pop.fom(idx),
                        pop.feasible(idx),
                        pop.metrics(idx)[0],
                    );
                    if !cfg.shared_elite {
                        visible[i].push(idx);
                    }
                    sims_used += 1;
                    pushed.push(idx);
                }

                let tm = engine.telemetry();
                tm.metrics.inc("opt.rounds", 1);
                tm.metrics.observe("opt.critic_loss", critic_loss);
                for (_, loss, _, _) in &lane_results {
                    tm.metrics.observe("opt.actor_loss", *loss);
                }
                if journal.enabled() {
                    // Representative elite set: the shared one, or actor 0's
                    // (exact for DNN-Opt, which has a single actor).
                    let elite_set = shared_elite
                        .as_ref()
                        .unwrap_or_else(|| &individual_elites[0]);
                    let refreshed = elite_set
                        .designs()
                        .iter()
                        .filter(|x| !prev_elite.contains(x))
                        .count();
                    prev_elite = elite_set.designs().to_vec();
                    let actors_obs = lane_results
                        .iter()
                        .enumerate()
                        .map(|(i, (_, loss, pred, _))| ActorRound {
                            id: i,
                            loss: *loss,
                            predicted_fom: *pred,
                            // Lanes beyond the budget cut never get simulated.
                            simulated_fom: pushed.get(i).map_or(f64::NAN, |&idx| pop.fom(idx)),
                            feasible: pushed.get(i).is_some_and(|&idx| pop.feasible(idx)),
                        })
                        .collect();
                    emit(
                        journal,
                        &Record::Round(RoundRecord {
                            round: t,
                            sims_used,
                            best_fom: pop.best().map(|i| pop.fom(i)).expect("non-empty"),
                            critic_loss: critic_trace.unwrap_or_default(),
                            actors: actors_obs,
                            elite: EliteStats {
                                size: elite_set.len(),
                                refreshed,
                                volume: elite_set.bbox_volume(),
                                diameter: elite_set.bbox_diameter(),
                                fom_spread: elite_set.fom_spread(),
                            },
                            engine: tm.snapshot().since(&round_counters),
                        }),
                        ckpt.and(Some(&mut journal_lines)),
                    );
                }
            }

            engine
                .telemetry()
                .metrics
                .set_gauge("opt.best_fom", trace.best_fom());

            if let Some(c) = ckpt {
                let counters =
                    counters_base.plus(&engine.telemetry().snapshot().since(&run_counters));
                let snap = RunSnapshot {
                    label: cfg.label.clone(),
                    problem: problem.name().to_string(),
                    seed: cfg.seed,
                    budget: budget as u64,
                    init_len: init_len as u64,
                    round: t as u64,
                    sims_used: sims_used as u64,
                    critic_ready,
                    rng: rng.state(),
                    population: (0..pop.len())
                        .map(|i| (pop.design(i).to_vec(), pop.metrics(i).to_vec()))
                        .collect(),
                    sim_kinds: trace.entries()[init_len..]
                        .iter()
                        .map(|e| match e.kind {
                            SimKind::Actor => 1u8,
                            SimKind::NearSample => 2u8,
                            k => panic!("unexpected {k:?} entry after the initial set"),
                        })
                        .collect(),
                    visible: visible
                        .iter()
                        .map(|v| v.iter().map(|&i| i as u64).collect())
                        .collect(),
                    prev_elite: prev_elite.clone(),
                    actors: actors.iter().map(Actor::ckpt_dump).collect(),
                    critics: critic.ckpt_dump(),
                    cache: engine.cache().map_or_else(Vec::new, |c| c.entries()),
                    counters: [
                        counters.sims,
                        counters.cache_hits,
                        counters.cache_misses,
                        counters.retries,
                        counters.panics,
                        counters.timeouts,
                        counters.non_finite,
                        counters.failures,
                    ],
                    timings: timings().as_secs(),
                    journal_lines: journal_lines.clone(),
                    op_store: op_store
                        .entries()
                        .map(|(k, s)| (k.to_vec(), s.slots.clone()))
                        .collect(),
                };
                // Journal durability before snapshot durability: a crash
                // between the two leaves a snapshot no newer than the file.
                journal.flush();
                c.save(&snap);
                // Both exits leave the same on-disk state a SIGKILL
                // between rounds would: a durable snapshot of round `t`
                // and a journal without a run-end record, resumable
                // bitwise-identically.
                if c.halt_after_round() == Some(t) || c.stop_requested() {
                    return RunResult {
                        label: cfg.label.clone(),
                        trace,
                        population: pop,
                        timings: timings(),
                    };
                }
            }
        }

        let timings = timings();
        if journal.enabled() {
            let [total_s, training_s, simulation_s, near_sampling_s] = timings.as_secs();
            emit(
                journal,
                &Record::RunEnd(RunEnd {
                    rounds: t,
                    sims: sims_used,
                    best_fom: trace.best_fom(),
                    success: pop.best_feasible().is_some(),
                    total_s,
                    training_s,
                    simulation_s,
                    near_sampling_s,
                    engine: counters_base.plus(&engine.telemetry().snapshot().since(&run_counters)),
                }),
                ckpt.and(Some(&mut journal_lines)),
            );
            journal.flush();
        }

        RunResult {
            label: cfg.label.clone(),
            trace,
            population: pop,
            timings,
        }
    }
}

/// Writes `record` to the journal and, when checkpointing, remembers the
/// exact line so a resumed run can replay the journal byte-for-byte.
fn emit(journal: &Journal, record: &Record, lines: Option<&mut Vec<String>>) {
    let line = record.to_json_line();
    journal.write_raw(&line);
    if let Some(lines) = lines {
        lines.push(line);
    }
}

/// The optimizer hyperparameters as a free-form JSON object for the run
/// manifest.
fn config_json(cfg: &MaOptConfig) -> Json {
    Json::obj(vec![
        ("n_actors", Json::num_u(cfg.n_actors as u64)),
        ("shared_elite", Json::Bool(cfg.shared_elite)),
        ("near_sampling", Json::Bool(cfg.near_sampling)),
        ("n_es", Json::num_u(cfg.n_es as u64)),
        ("batch_size", Json::num_u(cfg.batch_size as u64)),
        ("critic_steps", Json::num_u(cfg.critic_steps as u64)),
        ("actor_steps", Json::num_u(cfg.actor_steps as u64)),
        (
            "hidden",
            Json::Arr(cfg.hidden.iter().map(|&w| Json::num_u(w as u64)).collect()),
        ),
        ("critic_lr", Json::Num(cfg.critic_lr)),
        ("actor_lr", Json::Num(cfg.actor_lr)),
        ("action_scale", Json::Num(cfg.action_scale)),
        ("t_ns", Json::num_u(cfg.t_ns as u64)),
        ("n_samples", Json::num_u(cfg.n_samples as u64)),
        ("delta", Json::Num(cfg.delta)),
        ("lambda", Json::Num(cfg.lambda)),
        ("n_critics", Json::num_u(cfg.n_critics as u64)),
    ])
}

/// Critic-rank → simulated-FoM Spearman correlation over the (up to)
/// [`FIDELITY_WINDOW`] most recent simulated designs: the critic predicts
/// each design's metrics as the zero-action destination `(x, Δx = 0)`,
/// those predictions are FoM-scored, and the ranks are correlated with the
/// already-known simulated FoMs. Returns `(NaN, n)` when the correlation
/// is undefined (fewer than two clean pairs, or a constant side).
fn critic_fidelity(
    critic: &CriticEnsemble,
    pop: &Population,
    specs: &[crate::problem::Spec],
    fom_cfg: FomConfig,
) -> (f64, usize) {
    let n = pop.len().min(FIDELITY_WINDOW);
    let start = pop.len() - n;
    let zeros = vec![0.0; critic.dim()];
    let mut scratch = PredictScratch::default();
    let mut predicted = Vec::with_capacity(n);
    let mut simulated = Vec::with_capacity(n);
    for i in start..pop.len() {
        let pred = critic.predict_raw_with(pop.design(i), &zeros, &mut scratch);
        predicted.push(crate::fom::fom(pred, specs, fom_cfg));
        simulated.push(pop.fom(i));
    }
    let rho = maopt_obs::stats::spearman(&predicted, &simulated).unwrap_or(f64::NAN);
    (rho, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{ConstrainedToy, Sphere};
    use crate::runner::{sample_initial_set, Optimizer};

    fn small(cfg: MaOptConfig) -> MaOptConfig {
        MaOptConfig {
            hidden: vec![32, 32],
            critic_steps: 30,
            actor_steps: 15,
            n_samples: 200,
            ..cfg
        }
    }

    #[test]
    fn config_variants_match_paper_table() {
        let dnn = MaOptConfig::dnn_opt(0);
        assert_eq!(dnn.n_actors, 1);
        assert!(!dnn.near_sampling);
        let m1 = MaOptConfig::ma_opt1(0);
        assert_eq!(m1.n_actors, 3);
        assert!(!m1.shared_elite);
        assert!(!m1.near_sampling);
        let m2 = MaOptConfig::ma_opt2(0);
        assert!(m2.shared_elite);
        assert!(!m2.near_sampling);
        let ma = MaOptConfig::ma_opt(0);
        assert!(ma.shared_elite);
        assert!(ma.near_sampling);
        assert_eq!(ma.hidden, vec![100, 100]);
        assert_eq!(ma.t_ns, 5);
        assert_eq!(ma.n_samples, 2000);
    }

    #[test]
    fn sphere_improves_over_initial_set() {
        let problem = Sphere::new(4);
        let init = sample_initial_set(&problem, 20, 42);
        let result = small(MaOptConfig::ma_opt(42)).optimize(&problem, &init, 24, 42);
        assert_eq!(result.trace.num_sims(), 24);
        assert!(
            result.best_fom() < result.trace.init_best_fom(),
            "optimization must beat random init: {} vs {}",
            result.best_fom(),
            result.trace.init_best_fom()
        );
    }

    #[test]
    fn dnn_opt_uses_one_sim_per_iteration() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 10, 7);
        let result = small(MaOptConfig::dnn_opt(7)).optimize(&problem, &init, 5, 7);
        assert_eq!(result.trace.num_sims(), 5);
        assert_eq!(result.trace.near_sample_count(), 0);
    }

    #[test]
    fn budget_is_respected_exactly_with_multiple_actors() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 10, 8);
        // 3 actors, budget 7: 3 + 3 + 1 — must not overshoot.
        let result = small(MaOptConfig::ma_opt2(8)).optimize(&problem, &init, 7, 8);
        assert_eq!(result.trace.num_sims(), 7);
    }

    #[test]
    fn near_sampling_rounds_appear_once_feasible() {
        let problem = ConstrainedToy::new(3);
        let init = sample_initial_set(&problem, 30, 3);
        let result = small(MaOptConfig::ma_opt(3)).optimize(&problem, &init, 40, 3);
        // The toy problem is easy enough that specs get met and NS kicks in.
        assert!(result.success(), "toy problem should reach feasibility");
        assert!(
            result.trace.near_sample_count() > 0,
            "near-sampling rounds expected after feasibility"
        );
    }

    #[test]
    fn ma_opt2_never_near_samples() {
        let problem = ConstrainedToy::new(3);
        let init = sample_initial_set(&problem, 30, 4);
        let result = small(MaOptConfig::ma_opt2(4)).optimize(&problem, &init, 20, 4);
        assert_eq!(result.trace.near_sample_count(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 10, 11);
        let a = small(MaOptConfig::ma_opt2(11)).optimize(&problem, &init, 6, 11);
        let b = small(MaOptConfig::ma_opt2(11)).optimize(&problem, &init, 6, 11);
        assert_eq!(a.best_fom(), b.best_fom());
        let sa = a.trace.best_fom_series(6);
        let sb = b.trace.best_fom_series(6);
        assert_eq!(sa, sb);
    }

    #[test]
    fn result_reports_feasible_design() {
        let problem = ConstrainedToy::new(2);
        let init = sample_initial_set(&problem, 30, 5);
        let result = small(MaOptConfig::ma_opt(5)).optimize(&problem, &init, 20, 5);
        if result.success() {
            let x = result.best_feasible_design().unwrap();
            assert_eq!(x.len(), 2);
            assert!(result.best_feasible_target().unwrap().is_finite());
        }
    }

    #[test]
    fn multi_critic_variant_runs_and_improves() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 15, 13);
        let cfg = small(MaOptConfig::ma_opt_multi_critic(13, 3));
        assert_eq!(cfg.n_critics, 3);
        let result = cfg.optimize(&problem, &init, 12, 13);
        assert_eq!(result.trace.num_sims(), 12);
        assert!(result.best_fom() <= result.trace.init_best_fom());
        assert!(result.label.contains("c3"));
    }

    #[test]
    fn single_critic_ensemble_matches_paper_configuration() {
        // n_critics = 1 must reproduce exactly the plain MA-Opt² run.
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 12, 14);
        let a = small(MaOptConfig::ma_opt2(14)).optimize(&problem, &init, 6, 14);
        let b = small(MaOptConfig {
            n_critics: 1,
            ..MaOptConfig::ma_opt2(14)
        })
        .optimize(&problem, &init, 6, 14);
        assert_eq!(a.trace.best_fom_series(6), b.trace.best_fom_series(6));
    }

    #[test]
    fn timings_are_recorded() {
        let problem = Sphere::new(2);
        let init = sample_initial_set(&problem, 10, 6);
        let engine = EvalEngine::default();
        let result = small(MaOptConfig::ma_opt2(6)).optimize_with(&problem, &init, 4, 6, &engine);
        assert!(result.timings.total > Duration::ZERO);
        assert!(result.timings.training > Duration::ZERO);
        let spans = engine.telemetry().spans();
        for phase in ["critic_training", "actor_training"] {
            assert!(
                spans.iter().any(|(n, d)| n == phase && *d > Duration::ZERO),
                "{phase} span recorded: {spans:?}"
            );
        }
    }
}
