//! Samples, percentiles and the benchmark's result line.

use std::fmt::Write as _;

/// One reported metric: a named value with its unit and the number of
/// samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Which latency class an operation belongs to. Every workload splits its
/// queries into a light and a heavy class (see `SPEC.md`); writes and the
/// remaining queries are `Other`/`Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Light,
    Heavy,
    Other,
    Write,
}

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: Class,
    pub ms: f64,
    /// False when the operation failed or its answer did not match the
    /// reference.
    pub ok: bool,
}

/// The operations of one run plus what the run checked.
#[derive(Debug, Default)]
pub struct Ops {
    pub ops: Vec<Op>,
}

impl Ops {
    pub fn push(&mut self, class: Class, ms: f64, ok: bool) {
        self.ops.push(Op { class, ms, ok });
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    /// Latencies of the queries in `classes`. A failed operation counts as
    /// missing every latency limit, so it enters as +infinity.
    pub fn latencies(&self, classes: &[Class]) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| classes.contains(&op.class))
            .map(|op| if op.ok { op.ms } else { f64::INFINITY })
            .collect()
    }
}

/// The query classes (everything but writes).
pub const QUERIES: &[Class] = &[Class::Light, Class::Heavy, Class::Other];

/// Linear-interpolation percentile (`p` in 0..=100) of `values`; NaN when
/// there are none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    if low == high || sorted[high] == sorted[low] {
        return sorted[low];
    }
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with all their digits; a non-finite value (only possible
/// when operations failed) prints as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if metric.value.is_finite() {
            format!("{:?}", metric.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    line
}

/// The human-readable table printed before the result line.
pub fn report_table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for metric in metrics {
        let _ = writeln!(
            out,
            "  {:<26} {:>14.4} {:<6} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    out
}

/// Reads `VmHWM` (peak resident set) of a process from `/proc`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
    }

    #[test]
    fn failed_ops_miss_every_limit() {
        let mut ops = Ops::default();
        ops.push(Class::Light, 1.0, true);
        ops.push(Class::Light, 2.0, false);
        assert_eq!(ops.failed(), 1);
        assert_eq!(
            percentile(&ops.latencies(&[Class::Light]), 100.0),
            f64::INFINITY
        );
    }

    #[test]
    fn result_line_keeps_all_digits() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("query_p50_ms", 1.203456789, "ms", 3)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }
}
