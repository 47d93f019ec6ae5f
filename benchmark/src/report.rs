//! The result line every run prints last on standard output.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit label (`s`, `ms`, `us`, `ratio`, `count`, `MiB`).
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations the run attempted (methods analysed, requests sent).
    pub attempted: u64,
    /// Operations that failed (methods ending `Failed`, error responses).
    pub failed: u64,
    /// Correctness checks that did not hold; empty on a correct run.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check held, nothing failed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
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
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement (`null` for a
/// non-finite value, which also makes the run incorrect).
fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_one_line_of_json() {
        let mut r = RunReport { attempted: 3, ..RunReport::default() };
        r.metric("setup_s", 0.8127, "s");
        r.metric("false_warnings", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"false_warnings\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        r.check(false, || "bug missed".to_string());
        assert!(!r.correct());
    }
}
