//! Metric collection, correctness gates and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a report.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// A named correctness gate and whether it held.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What the gate checks.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness gates, in check order.
    pub gates: Vec<Gate>,
    /// Work items attempted over the whole invocation.
    pub attempted: u64,
    /// Work items that failed.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a gate.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
        });
    }

    /// Adds the report's own gates (well-formed, finite, unique metrics)
    /// and says whether every gate held.
    pub fn finish(&mut self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let well_formed = self
            .metrics
            .iter()
            .all(|m| valid_name(&m.name) && m.value.is_finite() && seen.insert(m.name.as_str()));
        self.gate("metrics-well-formed", well_formed);
        self.gate("attempted-nonzero", self.attempted > 0);
        self.gates.iter().all(|g| g.ok)
    }

    /// Human-readable lines: one per metric, then one per gate.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{:<34} {:>22} {}", m.name, m.value, m.unit);
        }
        for g in &self.gates {
            let _ = writeln!(
                s,
                "gate {:<44} {}",
                g.name,
                if g.ok { "ok" } else { "FAILED" }
            );
        }
        s
    }

    /// The one-line JSON result.
    pub fn json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values fail `metrics-well-formed`; print them as
            // JSON-safe 0 so the line still parses.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
