//! Table formatting, CSV output and ASCII charts for the reproduction
//! reports.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use maopt_core::runner::MethodStats;
use maopt_core::SizingProblem;

/// Renders a parameter-range table (paper Tables I / III / V) from the
/// problem definition.
pub fn param_table(problem: &dyn SizingProblem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Parameter ranges for {}:", problem.name());
    let _ = writeln!(
        out,
        "{:>6} | {:>6} | {:>12} | {:>12}",
        "name", "unit", "min", "max"
    );
    let _ = writeln!(out, "{}", "-".repeat(46));
    for p in problem.params() {
        let _ = writeln!(
            out,
            "{:>6} | {:>6} | {:>12.4} | {:>12.4}",
            p.name, p.unit, p.lo, p.hi
        );
    }
    out
}

/// One row of a comparison table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Method name.
    pub method: String,
    /// `s/r` success rate.
    pub success: String,
    /// Minimum feasible target metric, already unit-scaled for display.
    pub min_target: Option<f64>,
    /// `log10` of the average FoM (`-inf` when the average is
    /// non-positive and the logarithm is undefined).
    pub log10_avg_fom: f64,
    /// Measured wall-clock, seconds.
    pub measured_s: f64,
    /// Modeled testbed runtime, hours (§III-C model).
    pub modeled_h: f64,
    /// Simulator invocations the evaluation engine actually ran.
    pub sims: u64,
    /// Evaluations answered from the simulation cache.
    pub cache_hits: u64,
    /// Faulted-evaluation re-attempts.
    pub retries: u64,
    /// Mean Newton iterations per DC solve (`sim.newton_iters` histogram
    /// delta attributable to this method); `None` when the problem never
    /// touched the simulator.
    pub newton_iters: Option<f64>,
}

/// Formats a comparison table (paper Tables II / IV / VI), extended with
/// the evaluation-engine telemetry columns.
pub fn comparison_table(title: &str, target_label: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>10} | {:>8} | {:>14} | {:>12} | {:>11} | {:>10} | {:>6} | {:>6} | {:>7} | {:>7}",
        "method",
        "success",
        target_label,
        "log10(aFoM)",
        "measured(s)",
        "modeled(h)",
        "sims",
        "hits",
        "retries",
        "nwt/sim"
    );
    let _ = writeln!(out, "{}", "-".repeat(116));
    for r in rows {
        let target = r
            .min_target
            .map(|t| format!("{t:.3}"))
            .unwrap_or_else(|| "-".to_string());
        let newton = r
            .newton_iters
            .map(|n| format!("{n:.1}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:>10} | {:>8} | {:>14} | {:>12.2} | {:>11.1} | {:>10.2} | {:>6} | {:>6} | {:>7} | {:>7}",
            r.method,
            r.success,
            target,
            r.log10_avg_fom,
            r.measured_s,
            r.modeled_h,
            r.sims,
            r.cache_hits,
            r.retries,
            newton
        );
    }
    out
}

/// Renders a GitHub-flavored Markdown table. Every row must have one cell
/// per header; cells are used verbatim (pre-format numbers yourself).
///
/// # Panics
///
/// Panics if a row's cell count does not match the header count.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers
            .iter()
            .map(|_| " --- ")
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        assert_eq!(row.len(), headers.len(), "markdown row width mismatch");
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Writes the Fig. 5 series (`sim, method1, method2, …` per line) as CSV.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_fom_curves_csv(path: &Path, stats: &[MethodStats], budget: usize) -> io::Result<()> {
    let mut csv = String::from("sim");
    for s in stats {
        let _ = write!(csv, ",{}", s.name);
    }
    csv.push('\n');
    for k in 0..budget {
        let _ = write!(csv, "{}", k + 1);
        for s in stats {
            let _ = write!(csv, ",{:.6e}", s.fom_curve[k]);
        }
        csv.push('\n');
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, csv)
}

/// Renders the Fig. 5 curves as a `log10(FoM)` ASCII chart (x = simulation
/// count, one letter per method).
pub fn ascii_fom_chart(
    stats: &[MethodStats],
    budget: usize,
    width: usize,
    height: usize,
) -> String {
    let letters: Vec<char> = stats
        .iter()
        .map(|s| s.name.chars().next().unwrap_or('?'))
        .collect();
    // Collect log10 values.
    let series: Vec<Vec<f64>> = stats
        .iter()
        .map(|s| s.fom_curve.iter().map(|v| v.max(1e-12).log10()).collect())
        .collect();
    let lo = series
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .flatten()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        for (col, sim) in (0..width)
            .map(|c| ((c as f64 / (width - 1).max(1) as f64) * (budget - 1) as f64) as usize)
            .enumerate()
        {
            let v = s[sim.min(s.len() - 1)];
            let row = ((hi - v) / span * (height - 1) as f64).round() as usize;
            let row = row.min(height - 1);
            grid[row][col] = letters[si];
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "log10(average FoM) vs simulations (1..{budget})");
    for (ri, row) in grid.iter().enumerate() {
        let label = hi - span * ri as f64 / (height - 1) as f64;
        let _ = writeln!(out, "{label:>7.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "        +{}", "-".repeat(width));
    let mut legend = String::from("        ");
    for (s, l) in stats.iter().zip(&letters) {
        let _ = write!(legend, " {l}={}", s.name);
    }
    let _ = writeln!(out, "{legend}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_core::problems::Sphere;
    use maopt_core::runner::{make_initial_sets, run_method};
    use maopt_core::MaOptConfig;
    use maopt_exec::EvalEngine;

    fn tiny_stats() -> Vec<MethodStats> {
        let p = Sphere::new(2);
        let e = EvalEngine::serial();
        let inits = make_initial_sets(&p, 1, 6, 0, &e, &e);
        let cfg = MaOptConfig {
            hidden: vec![8],
            critic_steps: 2,
            actor_steps: 2,
            ..MaOptConfig::dnn_opt(0)
        };
        vec![run_method(&cfg, &p, &inits, 4, 0, &e, &e, &[], &[])]
    }

    #[test]
    fn param_table_lists_every_parameter() {
        let p = Sphere::new(3);
        let t = param_table(&p);
        assert!(t.contains("x0"));
        assert!(t.contains("x2"));
        assert_eq!(t.lines().count(), 3 + 3);
    }

    #[test]
    fn comparison_table_formats_rows() {
        let rows = vec![TableRow {
            method: "MA-Opt".into(),
            success: "10/10".into(),
            min_target: Some(0.737),
            log10_avg_fom: -2.92,
            measured_s: 12.5,
            modeled_h: 0.91,
            sims: 2100,
            cache_hits: 40,
            retries: 1,
            newton_iters: Some(9.4),
        }];
        let t = comparison_table("Table II", "min power (mW)", &rows);
        assert!(t.contains("MA-Opt"));
        assert!(t.contains("0.737"));
        assert!(t.contains("-2.92"));
        assert!(t.contains("9.4"), "mean Newton iterations column");
        let empty = comparison_table(
            "T",
            "x",
            &[TableRow {
                min_target: None,
                ..rows[0].clone()
            }],
        );
        assert!(empty.contains(" - "));
    }

    #[test]
    fn markdown_table_is_well_formed() {
        let t = markdown_table(
            &["method", "best FoM"],
            &[
                vec!["MA-Opt".into(), "1.2e-3".into()],
                vec!["DNN-Opt".into(), "4.5e-2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| method | best FoM |");
        assert_eq!(lines[1], "| --- | --- |");
        assert!(lines[2].contains("MA-Opt"));
    }

    #[test]
    fn csv_writer_emits_header_and_rows() {
        let stats = tiny_stats();
        let dir = std::env::temp_dir().join("maopt_test_csv");
        let path = dir.join("fig5.csv");
        write_fom_curves_csv(&path, &stats, 4).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("sim,DNN-Opt"));
        assert_eq!(content.lines().count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ascii_chart_contains_legend_and_axis() {
        let stats = tiny_stats();
        let chart = ascii_fom_chart(&stats, 4, 30, 8);
        assert!(chart.contains("D=DNN-Opt"));
        assert!(chart.contains("log10"));
        assert!(chart.lines().count() >= 10);
    }
}
