//! End-to-end observability tests: a real (tiny) optimization run must
//! produce a schema-valid journal, and journaling must not perturb the
//! optimization itself.

use std::sync::Arc;

use maopt_core::baselines::RandomSearch;
use maopt_core::problems::ConstrainedToy;
use maopt_core::runner::{make_initial_sets, run_method, sample_initial_set};
use maopt_core::{MaOpt, MaOptConfig, RunResult};
use maopt_exec::{EvalEngine, Telemetry, TraceRecorder};
use maopt_obs::{read_journal, Journal, Record};

fn tiny(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![16, 16],
        critic_steps: 15,
        actor_steps: 8,
        n_samples: 100,
        t_ns: 2,
        ..cfg
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("maopt-journal-{}-{name}", std::process::id()))
}

#[test]
fn journaled_run_is_bitwise_identical_to_plain_run() {
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 25, 31);
    let opt = MaOpt::new(tiny(MaOptConfig::ma_opt(31)));
    let engine = EvalEngine::serial();

    let path = tmp_dir("identity.jsonl");
    let journal = Journal::create(&path).unwrap();
    let observed = opt.run(&problem, init.clone(), 20, &engine, &journal, None);
    drop(journal);
    let plain = opt.run(&problem, init, 20, &engine, &Journal::disabled(), None);

    assert_eq!(
        observed.trace.best_fom_series(20),
        plain.trace.best_fom_series(20),
        "journaling must not change the optimization trajectory"
    );
    assert_eq!(observed.best_fom(), plain.best_fom());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_from_real_run_is_schema_valid_and_complete() {
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 25, 32);
    let opt = MaOpt::new(tiny(MaOptConfig::ma_opt(32)));
    let engine = EvalEngine::serial();

    let path = tmp_dir("complete.jsonl");
    let journal = Journal::create(&path).unwrap();
    let result = opt.run(&problem, init, 24, &engine, &journal, None);
    drop(journal);

    let records = read_journal(&path).unwrap();
    let Record::Manifest(m) = &records[0] else {
        panic!("first record must be the manifest");
    };
    assert_eq!(m.label, "MA-Opt");
    assert_eq!(m.dim, 3);
    assert_eq!(m.seed, 32);
    assert_eq!(m.budget, 24);
    assert_eq!(m.init_size, 25);
    assert!(m.config.get("n_actors").is_some(), "config in manifest");

    let Record::RunEnd(end) = records.last().unwrap() else {
        panic!("last record must be the run end");
    };
    assert_eq!(end.sims, 24);
    assert_eq!(end.best_fom, result.best_fom());
    assert_eq!(end.success, result.success());
    assert_eq!(end.engine.sims as usize, 24, "engine delta covers the run");

    let mut sims_seen = 0;
    let mut rounds = 0;
    let mut ns_rounds = 0;
    for r in &records[1..records.len() - 1] {
        match r {
            Record::Round(r) => {
                rounds += 1;
                sims_seen = r.sims_used;
                assert!(!r.critic_loss.is_empty(), "critic loss trajectory");
                assert!(!r.actors.is_empty());
                assert!(r.elite.size > 0);
                assert!(r.elite.diameter >= 0.0);
            }
            Record::NearSampling(r) => {
                ns_rounds += 1;
                sims_seen = r.sims_used;
                assert_eq!(r.trigger, "period");
                assert_eq!(r.n_candidates, 100);
                assert_eq!(r.accepted, r.simulated_fom < r.incumbent_fom);
                assert!(r.fidelity_n >= 2);
            }
            other => panic!("unexpected mid-run record {:?}", other.kind()),
        }
    }
    assert_eq!(sims_seen, 24, "round records account for the whole budget");
    assert_eq!(rounds + ns_rounds, end.rounds);
    assert!(
        ns_rounds > 0,
        "the toy problem reaches feasibility, so near-sampling rounds must appear"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_end_phase_times_are_the_engine_span_sums() {
    let problem = ConstrainedToy::new(3);
    let init_engine = EvalEngine::serial();
    let inits = make_initial_sets(&problem, 1, 25, 32, &init_engine, &init_engine);
    let opt = tiny(MaOptConfig::ma_opt(32));
    // A fresh engine: its spans hold this one run and nothing else.
    let engine = EvalEngine::serial();

    let dir = tmp_dir("span-sums");
    let journals = vec![Journal::create(dir.join("run0.jsonl")).unwrap()];
    run_method(
        &opt,
        &problem,
        &inits,
        24,
        32,
        &engine,
        &engine,
        &journals,
        &[],
    );
    drop(journals);

    let Some(Record::RunEnd(end)) = read_journal(dir.join("run0.jsonl")).unwrap().pop() else {
        panic!("the journal must end with a run end");
    };
    let spans = engine.telemetry().spans();
    let sum = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|(name, _)| names.contains(&name.as_str()))
            .map(|(_, total)| total.as_secs_f64())
            .sum()
    };
    let training = sum(&["critic_training", "elite_rebuild", "actor_training"]);
    assert!(
        end.near_sampling_s > 0.0,
        "near-sampling must fire: {end:?}"
    );
    for (field, value, spanned) in [
        ("training_s", end.training_s, training),
        ("simulation_s", end.simulation_s, sum(&["simulation"])),
        (
            "near_sampling_s",
            end.near_sampling_s,
            sum(&["near_sampling"]),
        ),
    ] {
        assert!(
            (value - spanned).abs() < 1e-6,
            "{field} {value} vs span sum {spanned}: {spans:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_method_writes_one_journal_per_run_and_matches_plain() {
    let problem = ConstrainedToy::new(2);
    let engine = EvalEngine::serial();
    let inits = make_initial_sets(&problem, 2, 15, 41, &engine, &engine);
    let opt = tiny(MaOptConfig::ma_opt2(41));

    let dir = tmp_dir("per-run");
    let journals: Vec<Journal> = (0..2)
        .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
        .collect();
    let observed = run_method(
        &opt,
        &problem,
        &inits,
        8,
        500,
        &engine,
        &engine,
        &journals,
        &[],
    );
    drop(journals);
    let plain = run_method(&opt, &problem, &inits, 8, 500, &engine, &engine, &[], &[]);

    assert_eq!(observed.fom_curve, plain.fom_curve);
    for r in 0..2 {
        let records = read_journal(dir.join(format!("run{r}.jsonl"))).unwrap();
        assert!(matches!(records[0], Record::Manifest(_)));
        assert!(matches!(records.last(), Some(Record::RunEnd(_))));
        let Record::Manifest(m) = &records[0] else {
            unreachable!()
        };
        assert_eq!(m.seed, 500 + r as u64, "run r gets seed base + r");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uninstrumented_optimizer_gets_a_shallow_journal() {
    // Random search writes no journal records of its own: the default
    // `Optimizer::optimize_resumable` wraps it in a manifest and a run end.
    let problem = ConstrainedToy::new(2);
    let engine = EvalEngine::serial();
    let inits = make_initial_sets(&problem, 1, 12, 51, &engine, &engine);
    let (opt, budget) = (RandomSearch::new(), 10);

    let dir = tmp_dir("shallow");
    let path = dir.join("run0.jsonl");
    let journals = vec![Journal::create(&path).unwrap()];
    let observed = run_method(
        &opt,
        &problem,
        &inits,
        budget,
        51,
        &engine,
        &engine,
        &journals,
        &[],
    );
    drop(journals);
    let plain = run_method(
        &opt,
        &problem,
        &inits,
        budget,
        51,
        &engine,
        &engine,
        &[],
        &[],
    );

    let records = read_journal(&path).unwrap();
    let [Record::Manifest(m), Record::RunEnd(end)] = records.as_slice() else {
        panic!("expected exactly a manifest and a run end: {records:?}");
    };
    assert_eq!(m.label, "Random");
    assert_eq!(m.budget, budget);
    assert_eq!(m.init_size, 12);
    let result = &observed.results[0];
    assert_eq!(end.sims, result.trace.num_sims());
    let trace_bits = |r: &RunResult| -> Vec<_> {
        r.trace
            .entries()
            .iter()
            .map(|e| {
                let bits = (e.fom.to_bits(), e.best_fom.to_bits(), e.target.to_bits());
                (e.sim, bits, e.feasible, e.kind)
            })
            .collect()
    };
    assert_eq!(
        trace_bits(result),
        trace_bits(&plain.results[0]),
        "journaling must not change the run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal lines with the `run_end` timing fields (explicitly outside the
/// byte-identity contract) zeroed; every other line is kept verbatim.
fn normalized_lines(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| match Record::parse(line) {
            Ok(Record::RunEnd(mut end)) => {
                end.zero_timing();
                Record::RunEnd(end).to_json_line()
            }
            _ => line.to_string(),
        })
        .collect()
}

#[test]
fn traced_run_journals_are_byte_identical_to_untraced() {
    // The flight recorder must stay entirely outside the journal
    // contract: attaching a tracer to the engine changes not a single
    // non-timing journal byte, even with pool workers recording spans.
    let problem = ConstrainedToy::new(2);
    let init_engine = EvalEngine::serial();
    let inits = make_initial_sets(&problem, 2, 15, 77, &init_engine, &init_engine);
    let opt = tiny(MaOptConfig::ma_opt2(77));

    let run = |tracer: Option<Arc<TraceRecorder>>, tag: &str| -> Vec<Vec<String>> {
        let mut telemetry = Telemetry::new();
        if let Some(tr) = tracer {
            telemetry = telemetry.with_tracer(tr);
        }
        let engine = EvalEngine::new(2).with_telemetry(Arc::new(telemetry));
        let run_engine = EvalEngine::serial();
        let dir = tmp_dir(&format!("traced-{tag}"));
        let journals: Vec<Journal> = (0..2)
            .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
            .collect();
        run_method(
            &opt,
            &problem,
            &inits,
            8,
            600,
            &run_engine,
            &engine,
            &journals,
            &[],
        );
        drop(journals);
        let lines = (0..2)
            .map(|r| normalized_lines(&dir.join(format!("run{r}.jsonl"))))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        lines
    };

    let tracer = TraceRecorder::new();
    let traced = run(Some(Arc::clone(&tracer)), "on");
    let untraced = run(None, "off");
    assert_eq!(
        traced, untraced,
        "tracing must not perturb journal bytes (non-timing fields)"
    );

    // And the recorder did actually see the run: spans from the method
    // phases and per-simulation spans from the workers.
    let snapshot = tracer.snapshot();
    let names: Vec<&str> = snapshot
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name.as_str()))
        .collect();
    assert!(
        names.contains(&"sim"),
        "worker simulation spans recorded: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("method:")),
        "method phase span recorded: {names:?}"
    );
}
