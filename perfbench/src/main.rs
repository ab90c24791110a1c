//! End-to-end and per-layer benchmark of the MA-Opt paper protocol.
//!
//! ```text
//! perfbench --workload rl-tia|bo-ota|sim-sweep|rl-ldo-durable|all
//!           [--seed N] [--seconds S] [--trace 0|1] [--protocol paper|tiny]
//!           [--out DIR]
//! ```
//!
//! Each workload runs on an `EvalEngine` with two workers. Its set-up is
//! timed in fresh child processes of this executable (`--setup-child 1`),
//! from process start to where the first timed operation would begin.
//! With `--trace 0` it runs enough protocol seeds to fill about `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it runs half as
//! many untraced, repeats the first with the benchmark's own spans
//! recorded, replays its final state through the crates' public
//! functions, and reports the per-layer metrics. Every report line reads
//! `metric <name> <value> <unit>`; the last line is one JSON object with
//! the verdict of the correctness checks. The exit code is 0 only when
//! every check passed. See `NOTES.md` for what each workload and metric
//! is for.

mod opt;
mod out;
mod probe;
mod replay;
mod sweep;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use maopt_circuits::{LdoRegulator, ThreeStageTia, TwoStageOta};
use maopt_core::SizingProblem;

use opt::{Method, OptWorkload};
use out::{median, peak_rss_mb, process_cpu_s, result_line, Checks, Metrics};
use probe::SpanLog;

/// Engine workers for every workload.
pub const JOBS: usize = 2;

/// Set-up child processes per workload; `setup_s` is their median.
const SETUP_CHILDREN: usize = 11;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["rl-tia", "bo-ota", "sim-sweep", "rl-ldo-durable"];

/// End-to-end metrics: the result line of an untraced run.
const END_TO_END: [&str; 2] = ["sims_per_cpu_s", "setup_s"];

/// Per-layer metrics with their units: the result line of a traced run.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.actor_training_s", "s"),
    ("core.other_s", "s"),
    ("core.critic_est_s", "s"),
    ("core.rounds", "count"),
    ("core.critic_round_ms", "ms"),
    ("core.actor_round_ms", "ms"),
    ("core.near_sampling_s", "s"),
    ("core.ns_rounds", "count"),
    ("core.ns_accept_frac", "frac"),
    ("core.ns_propose_ms", "ms"),
    ("opt.method_s", "s"),
    ("opt.simulation_s", "s"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.gemm_flops_per_critic_step", "flop"),
    ("linalg.cholesky_ms.n300", "ms"),
    ("bo.acquisition_s", "s"),
    ("bo.fit_s", "s"),
    ("bo.gp_fit_ms.n100", "ms"),
    ("bo.gp_fit_ms.n300", "ms"),
    ("bo.ei_ms.n300", "ms"),
    ("circuits.calls", "count"),
    ("circuits.busy_s", "s"),
    ("circuits.call_ms.p50", "ms"),
    ("circuits.call_ms.p99", "ms"),
    ("circuits.call_samples", "count"),
    ("circuits.nonconverged_frac", "frac"),
    ("sim.newton_per_dc.cold", "iters"),
    ("sim.newton_per_dc.warm", "iters"),
    ("sim.warm_hit_frac", "frac"),
    ("exec.cache_hit_frac", "frac"),
    ("exec.pool_idle_frac", "frac"),
    ("exec.queue_depth_peak", "count"),
    ("exec.retries", "count"),
    ("ckpt.saves", "count"),
    ("ckpt.snapshot_bytes", "B"),
    ("obs.journal_bytes", "B"),
    ("ckpt.save_ms.p50", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.write_failures", "count"),
    ("ckpt.rollbacks", "count"),
    ("ckpt.overhead_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("wall.sims_per_s", "1/s"),
    ("wall.setup_s", "s"),
    ("quality.best_fom.p50", "fom"),
    ("quality.success_frac", "frac"),
    ("quality.failed_frac", "frac"),
    ("quality.warm_mismatch_frac", "frac"),
];

/// Wall seconds of one protocol run (one seed; for `sim-sweep`, one
/// seed's three initial sets simulated three ways) on a 2-core x86-64
/// host. `--seconds` divided by this sizes the number of runs.
fn run_seconds(workload: &str) -> f64 {
    match workload {
        "rl-tia" => 7.5,
        "bo-ota" => 16.0,
        "sim-sweep" => 1.2,
        _ => 8.0,
    }
}

/// Per-layer metrics that a workload does not exercise; they read 0.
fn not_applicable(workload: &str, name: &str) -> bool {
    let durable = name.starts_with("ckpt.") || name == "obs.journal_bytes";
    let rl = name.starts_with("core.") || name.starts_with("linalg.gemm_");
    let bo = name.starts_with("bo.") || name == "linalg.cholesky_ms.n300";
    match workload {
        "sim-sweep" => {
            durable
                || rl
                || bo
                || matches!(
                    name,
                    "opt.method_s" | "quality.best_fom.p50" | "quality.success_frac"
                )
        }
        "rl-tia" => durable || bo || name == "quality.warm_mismatch_frac",
        "bo-ota" => durable || rl || name == "quality.warm_mismatch_frac",
        _ => bo || name == "quality.warm_mismatch_frac",
    }
}

/// The circuit of an optimizer workload.
fn circuit(workload: &str) -> fn() -> Box<dyn SizingProblem> {
    match workload {
        "rl-tia" => || Box::new(ThreeStageTia::new()),
        "bo-ota" => || Box::new(TwoStageOta::new()),
        _ => || Box::new(LdoRegulator::new()),
    }
}

/// The circuits of `sim-sweep`.
fn sweep_circuits() -> Vec<Box<dyn SizingProblem>> {
    vec![
        Box::new(TwoStageOta::new()),
        Box::new(ThreeStageTia::new()),
        Box::new(LdoRegulator::new()),
    ]
}

/// What a workload's timed phase did, and the digest of its in-process
/// set-up, which every set-up child must reproduce.
pub struct Ran {
    pub attempted: u64,
    pub failed: u64,
    pub setup_digest: u64,
}

/// One benchmark invocation's settings.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Initial designs per run (paper: 100).
    pub init: usize,
    /// Optimization simulations per run (paper: 200).
    pub budget: usize,
    /// Protocol runs (seeds) in the timed phase.
    pub runs: usize,
    pub trace: bool,
    /// Scratch directory for journals, checkpoints and span logs.
    pub out: PathBuf,
}

/// Writes a traced run's spans to the output directory.
pub fn write_spans(spans: &SpanLog, ctx: &Ctx) {
    let path = ctx
        .out
        .join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
    spans
        .write_jsonl(&path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("{} spans written to {}", spans.len(), path.display());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
    setup_child: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload rl-tia|bo-ota|sim-sweep|rl-ldo-durable|all \
         [--seed N] [--seconds S] [--trace 0|1] [--protocol paper|tiny] [--out DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 2023,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: PathBuf::from(".bench_out"),
        setup_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--protocol" => {
                args.tiny = match value.as_str() {
                    "paper" => false,
                    "tiny" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--setup-child" => args.setup_child = value == "1",
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage()
    }
    args
}

/// The set-up of `workload` alone, in this process; prints the process's
/// CPU seconds since it started and the set-up's digest.
fn setup_child(ctx: &Ctx) {
    let digest = match ctx.workload {
        "sim-sweep" => sweep::setup_only(sweep_circuits),
        w => opt::setup_only(circuit(w), ctx),
    };
    println!("setup {:?} {digest}", process_cpu_s());
}

/// Runs `SETUP_CHILDREN` set-up children one after another; returns each
/// one's `(CPU seconds, wall seconds from spawn to exit, digest)`.
fn setup_children(args: &Args, workload: &str) -> Vec<(f64, f64, u64)> {
    let exe = std::env::current_exe().expect("path of the running executable");
    let seed = args.seed.to_string();
    let protocol = if args.tiny { "tiny" } else { "paper" };
    (0..SETUP_CHILDREN)
        .map(|_| {
            let t0 = Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--protocol", protocol, "--setup-child", "1"])
                .output()
                .expect("run a set-up child");
            let wall = t0.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "set-up child failed: {stdout}");
            let (cpu, digest) = stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup "))
                .and_then(|l| l.split_once(' '))
                .expect("set-up child prints its set-up line");
            (
                cpu.parse().expect("set-up CPU seconds"),
                wall,
                digest.parse().expect("set-up digest"),
            )
        })
        .collect()
}

/// Runs one workload; returns its metrics, checks and the timed phase's
/// attempted / failed evaluation counts.
fn run_workload(args: &Args, workload: &'static str) -> (Metrics, Checks, u64, u64) {
    // A traced invocation runs everything twice (untraced, then traced),
    // so it sizes each pass to half of `--seconds`.
    let passes = if args.trace { 2.0 } else { 1.0 };
    let runs = ((args.seconds / passes / run_seconds(workload)).round() as usize).max(1);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        init: if args.tiny { 12 } else { 100 },
        budget: if args.tiny { 9 } else { 200 },
        runs,
        trace: args.trace,
        out: args.out.join(workload),
    };
    if args.setup_child {
        setup_child(&ctx);
        std::process::exit(0);
    }
    std::fs::create_dir_all(&ctx.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", ctx.out.display()));
    println!(
        "== {workload}: seed {}, {} run(s) of {} initial + {} optimization simulations, {JOBS} workers, trace {}",
        ctx.seed, ctx.runs, ctx.init, ctx.budget, ctx.trace
    );
    let mut m = Metrics::default();
    let mut checks = Checks::default();

    let children = setup_children(args, workload);
    let cpu: Vec<f64> = children.iter().map(|c| c.0).collect();
    let wall: Vec<f64> = children.iter().map(|c| c.1).collect();
    m.put("setup_s", median(&cpu), "s");
    m.put("wall.setup_s", median(&wall), "s");
    println!(
        "set-up: {SETUP_CHILDREN} processes, CPU {:?} s, wall {:?} s",
        cpu, wall
    );

    let opt = |method, durable| OptWorkload { method, durable };
    let ran = match workload {
        "rl-tia" => opt::run(
            opt(Method::MaOpt, false),
            circuit(workload),
            &ctx,
            &mut m,
            &mut checks,
        ),
        "bo-ota" => opt::run(
            opt(Method::Bo, false),
            circuit(workload),
            &ctx,
            &mut m,
            &mut checks,
        ),
        "rl-ldo-durable" => opt::run(
            opt(Method::MaOpt, true),
            circuit(workload),
            &ctx,
            &mut m,
            &mut checks,
        ),
        _ => sweep::run(sweep_circuits, &ctx, &mut m, &mut checks),
    };
    checks.check(
        "every set-up process reproduces the in-process set-up",
        children.iter().all(|c| c.2 == ran.setup_digest),
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            if m.get(name).is_none() && not_applicable(workload, name) {
                m.put(name, 0.0, unit);
            }
        }
    }
    let _ = std::fs::remove_dir_all(ctx.out.join("replay"));
    checks.check(
        "every metric is finite",
        m.iter().all(|(_, v, _)| v.is_finite()),
    );
    (m, checks, ran.attempted, ran.failed)
}

fn main() {
    let args = parse_args();
    let selected: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    // With one workload the result line names its metrics plainly; with
    // `all`, each is prefixed by its workload.
    let mut all = Metrics::default();
    let mut last = Metrics::default();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for workload in selected.iter().copied() {
        let (m, checks, a, f) = run_workload(&args, workload);
        for (name, ok) in checks.iter() {
            println!("check {} {name}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in m.iter() {
            println!("metric {name} {value} {unit}");
            all.put(&format!("{workload}.{name}"), *value, unit);
        }
        correct &= checks.all_ok();
        attempted += a;
        failed += f;
        last = m;
    }
    let line = if selected.len() == 1 {
        result_line(correct, attempted, failed, &last, &names)
    } else {
        let qualified: Vec<String> = selected
            .iter()
            .flat_map(|w| names.iter().map(move |n| format!("{w}.{n}")))
            .collect();
        let qualified: Vec<&str> = qualified.iter().map(String::as_str).collect();
        result_line(correct, attempted, failed, &all, &qualified)
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
