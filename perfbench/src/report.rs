//! Metric values, summary statistics and the result line.

use perigap_math::stats::median;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// Everything one benchmark run produced.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Free-form facts recorded with the result (limits, ladders, modes).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The median of `values` as `name`. A metric with no successful
    /// measurement must not read as the best possible value, so an empty
    /// slice records a mismatch and fails the run.
    pub fn put_median(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        match median(values) {
            Some(m) => self.put(name, unit, m, values.len()),
            None => {
                self.put(name, unit, 0.0, 0);
                self.mismatch(format!("{name}: no successful measurement"));
            }
        }
    }

    /// Failed or refused operations over attempted ones.
    pub fn put_error_ratio(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("error_ratio", "ratio", ratio, self.attempted as usize);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The last line of every run's output: the listed `(name, unit)` metrics, in
    /// order; a metric the workload does not measure reads 0.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).map_or(0.0, |m| m.value);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
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
    fn an_empty_median_fails_the_run() {
        let mut r = Report::default();
        r.put_median("mine_s", "s", &[3.0, 1.0, 2.0]);
        assert_eq!(
            r.get("mine_s").map(|m| (m.value, m.samples)),
            Some((2.0, 3))
        );
        assert!(r.correct());
        r.put_median("mine_s", "s", &[]);
        assert!(!r.correct());
    }

    #[test]
    fn error_ratio_is_failed_over_attempted() {
        let mut r = Report {
            attempted: 8,
            failed: 2,
            ..Report::default()
        };
        r.put_error_ratio();
        assert_eq!(r.get("error_ratio").map(|m| m.value), Some(0.25));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", "s", 0.25, 3);
        r.attempted = 4;
        let line = r.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.mismatch("x");
        assert!(r
            .result_line(&[("setup_s", "s")])
            .starts_with("{\"correct\": false"));
    }
}
