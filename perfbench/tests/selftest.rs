//! Self-test of the benchmark at a tiny protocol: every metric that
//! `BENCHMARK.json` names is emitted for every workload with its declared
//! unit, and every correctness check passes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let body = &text[text.find("\"workloads\"").expect("workloads")..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Runs every workload at the tiny protocol and returns standard output.
fn run_all(trace: u8) -> String {
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), &format!("selftest-{trace}")]
        .iter()
        .collect();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--protocol", "tiny", "--seconds", "1"])
        .args(["--seed", "5", "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "perfbench --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn assert_emitted(stdout: &str, list: &str) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("check FAILED")),
        "{stdout}"
    );
    let metrics = declared(list);
    assert!(!metrics.is_empty());
    for w in workloads() {
        for (name, unit) in &metrics {
            let entry = format!("\"{w}.{name}\": {{\"value\": ");
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{w}.{name} missing from the result line"));
            let rest = &last[at + entry.len()..];
            let value = &rest[..rest.find(',').expect("value ends")];
            assert!(
                value.parse::<f64>().is_ok_and(f64::is_finite),
                "{w}.{name} = {value}"
            );
            assert!(
                rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                "{w}.{name} lacks unit {unit}"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_emitted_and_checks_pass() {
    let stdout = run_all(0);
    assert_emitted(&stdout, "end_to_end");
    for w in workloads() {
        assert!(
            stdout.contains(&format!("== {w}: seed 5")),
            "{w} did not run"
        );
    }
    // The quality numbers are reported, not gated.
    for name in [
        "quality.best_fom.p50",
        "quality.success_frac",
        "quality.failed_frac",
    ] {
        assert!(
            stdout.contains(&format!("metric {name} ")),
            "{name} not reported"
        );
    }
    assert!(stdout.contains("metric quality.warm_mismatch_frac "));
}

#[test]
fn per_layer_metrics_are_emitted_and_checks_pass() {
    let stdout = run_all(1);
    assert_emitted(&stdout, "per_layer");
    assert!(stdout.contains("reconciliation: method "));
    assert!(stdout.contains("spans written to "));
}
