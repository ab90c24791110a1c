//! Metric collection, statistics helpers and the result line.

use std::fmt::Write;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(item) => {
                item.1 = value;
                item.2 = unit;
            }
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }
}

/// The correctness checks of one run: each with a name and whether it held.
#[derive(Debug, Default)]
pub struct Checks {
    items: Vec<(String, bool)>,
}

impl Checks {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.items.push((name.into(), ok));
    }

    pub fn all_ok(&self) -> bool {
        self.items.iter().all(|(_, ok)| *ok)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, bool)> {
        self.items.iter()
    }
}

/// Median of `v` (mean of the two middle values for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0,1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the bit patterns of `values`.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run since it started, over all its
/// threads, live or ended. On a virtual machine that accounts stolen
/// time, the time a vCPU waited for the host is not counted.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with the checks' verdict, the
/// attempted/failed evaluation counts and the selected metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in names.iter().enumerate() {
        let (_, value, unit) = metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        )
        .expect("write to string");
    }
    s.push_str("}}");
    s
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_requested_metrics_only() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        m.put("b", 2.0, "ms");
        let line = result_line(true, 3, 0, &m, &["b"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
