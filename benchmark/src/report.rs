//! Metrics as the benchmark prints them: a table for people, and the
//! contract's one-line JSON object for the driver.

use crate::run::RunResult;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value was reduced from.
    pub samples: usize,
    /// For tails: the percentile the sample supported.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            percentile: None,
        }
    }

    /// Notes the percentile a tail metric was actually taken at.
    pub fn at(mut self, percentile: f64) -> Metric {
        self.percentile = Some(percentile);
        self
    }
}

/// The table: every metric by name, with its unit and sample count.
pub fn table(workload: &str, result: &RunResult) -> String {
    let mut out = format!(
        "== {workload}: attempted {} failed {} correct {}\n",
        result.attempted, result.failed, result.correct
    );
    for complaint in &result.complaints {
        out.push_str(&format!("!! {complaint}\n"));
    }
    for m in &result.metrics {
        let note = m
            .percentile
            .map_or(String::new(), |p| format!("  (p{p:.2})"));
        out.push_str(&format!(
            "{:<42} {:>16.4} {:<6} n={}{note}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out
}

/// A JSON number with all its digits; non-finite values (which no
/// metric should produce) become 0 so the line stays valid JSON.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The contract's result object, on one line.
pub fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}
