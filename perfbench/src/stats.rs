//! Order statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value is computed from.
    pub samples: usize,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Latency percentiles of `samples` (seconds) as `<prefix>p50_ms`,
    /// `<prefix>p95_ms` and `<prefix>p99_ms`; nothing when there are no
    /// samples. The report's `n` tells how many samples lie beyond each.
    pub fn latency(&mut self, prefix: &str, samples: Vec<f64>) {
        if samples.is_empty() {
            return;
        }
        let s = sorted(samples);
        for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            self.push(
                format!("{prefix}{name}_ms"),
                quantile(&s, q) * 1e3,
                "ms",
                s.len(),
            );
        }
    }

    /// Prints one human-readable line per metric.
    pub fn print_report(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            println!(
                "  {:<28} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
    /// with the metrics named in `keep`, in that order.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64, keep: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        let mut first = true;
        for name in keep {
            let Some(m) = self.0.iter().find(|m| m.name == *name) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            // JSON has no NaN or infinity.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
