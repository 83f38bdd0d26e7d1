//! Metric bookkeeping, the result line, and the name-consistency check
//! against `BENCHMARK.json`.

use std::fmt::Write as _;
use std::path::Path;

use crate::jsonlite::Json;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: String,
}

/// What a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, passes, requests, cells).
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong result.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (workload-specific aliases, stamps).
    pub notes: Vec<String>,
    /// Benchmark spans as NDJSON (traced runs only).
    pub spans: String,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Count one checked operation; a `Some` problem marks it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Count `attempted` operations of which those with a problem
    /// failed (at most one failure per operation).
    pub fn absorb(&mut self, attempted: u64, problems: &[String]) {
        self.attempted += attempted;
        self.failed += (problems.len() as u64).min(attempted);
        self.problems.extend_from_slice(problems);
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// End-to-end metrics every workload reports with tracing off. What a
/// "task" is depends on the workload (see the crate README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("task_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports in its traced run.
pub const SHARED_LAYER: [(&str, &str); 2] = [
    ("protocols.compile_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// A workload's own per-layer metrics.
pub fn layer_metrics(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "giant-n" => crate::giant::LAYER,
        "paper-sweep" => crate::sweep::LAYER,
        "serve-mix" => crate::serve::LAYER,
        "verify-envelope" => crate::verify::LAYER,
        _ => &[],
    }
}

/// Every per-layer metric, in print order: the shared ones, then each
/// workload's own.
pub fn all_layer_metrics() -> Vec<(&'static str, &'static str)> {
    let mut all: Vec<_> = SHARED_LAYER.to_vec();
    for w in crate::WORKLOADS {
        all.extend_from_slice(layer_metrics(w));
    }
    all
}

/// The metric names and units `BENCHMARK.json` declares.
#[derive(Clone, Debug, Default)]
pub struct Declared {
    /// `end_to_end` entries.
    pub end_to_end: Vec<(String, String)>,
    /// `per_layer` entries.
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Read and parse `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Declared, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str);
                    let unit = m.get("unit").and_then(Json::as_str);
                    match (name, unit) {
                        (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                        _ => Err(format!("BENCHMARK.json {key} entry without name/unit")),
                    }
                })
                .collect()
        };
        Ok(Declared {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Complete and validate a run's metrics: a traced run's per-layer set
/// gains zeros for the other workloads' layers (idle on this workload),
/// then the printed set must equal the declared one exactly, names and
/// units, and every value must be finite.
pub fn finalize(
    workload: &str,
    trace: bool,
    produced: &[Metric],
    declared: &Declared,
) -> Result<Vec<Metric>, String> {
    let own: Vec<(&str, &str)> = if trace {
        SHARED_LAYER
            .iter()
            .chain(layer_metrics(workload))
            .copied()
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut problems = Vec::new();
    for m in produced {
        if !own.iter().any(|&(n, u)| n == m.name && u == m.unit) {
            problems.push(format!(
                "{workload} printed undeclared metric {} [{}]",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite ({})", m.name, m.value));
        }
    }
    for (n, _) in &own {
        if produced.iter().filter(|m| m.name == *n).count() != 1 {
            problems.push(format!("{workload} must print {n} exactly once"));
        }
    }
    let mut out = produced.to_vec();
    if trace {
        for (n, u) in all_layer_metrics() {
            if !own.iter().any(|&(o, _)| o == n) {
                out.push(Metric {
                    name: n.to_string(),
                    value: 0.0,
                    unit: u.to_string(),
                });
            }
        }
    }
    let want = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    for (n, u) in want {
        if !out.iter().any(|m| &m.name == n && &m.unit == u) {
            problems.push(format!(
                "BENCHMARK.json declares {n} [{u}], which this run does not print"
            ));
        }
    }
    for m in &out {
        if !want.iter().any(|(n, u)| n == &m.name && u == &m.unit) {
            problems.push(format!(
                "{} [{}] is not declared in BENCHMARK.json",
                m.name, m.unit
            ));
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("; "))
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let m = vec![Metric {
            name: "task_s".into(),
            value: 1.25,
            unit: "s".into(),
        }];
        let line = result_line(true, 3, 0, &m);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let task = v.get("metrics").and_then(|m| m.get("task_s")).unwrap();
        assert_eq!(task.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(task.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn undeclared_and_missing_metrics_are_refused() {
        let declared = Declared {
            end_to_end: END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect(),
            per_layer: vec![],
        };
        let mut produced: Vec<Metric> = END_TO_END
            .iter()
            .map(|(n, u)| Metric {
                name: n.to_string(),
                value: 1.0,
                unit: u.to_string(),
            })
            .collect();
        assert!(finalize("giant-n", false, &produced, &declared).is_ok());
        produced.push(Metric {
            name: "bogus_s".into(),
            value: 1.0,
            unit: "s".into(),
        });
        assert!(finalize("giant-n", false, &produced, &declared).is_err());
        produced.truncate(2);
        assert!(finalize("giant-n", false, &produced, &declared).is_err());
    }
}
