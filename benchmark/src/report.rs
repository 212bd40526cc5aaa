//! What a run reports: named metrics with units, the failure count, and
//! the problems its output checks found.

use serde::json::Value;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub type MetricDef = (&'static str, &'static str);

#[derive(Debug, Clone)]
pub struct Report {
    defs: &'static [MetricDef],
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    /// One operation is one step on one rank.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts and run lengths: context, not metrics.
    pub notes: Vec<(String, f64)>,
    pub problems: Vec<String>,
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl Report {
    /// A report that will carry exactly the metrics of `defs`.
    pub fn new(workload: &str, seed: u64, defs: &'static [MetricDef]) -> Report {
        Report {
            defs,
            workload: workload.to_owned(),
            seed,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Record the value of one of the report's defined metrics.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .defs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not defined for this report"));
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric `{name}` set twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_owned(), value));
    }

    /// A metric that could not be measured is a failed check, never a
    /// silent null in the output.
    pub fn seal(&mut self) {
        assert_eq!(
            self.metrics.len(),
            self.defs.len(),
            "a defined metric was never set"
        );
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite", m.name));
            }
        }
        self.correct = self.problems.is_empty();
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        // `seal` has already turned a non-finite value
                        // into a failed check; the driver needs a number.
                        (
                            "value",
                            Value::Float(if m.value.is_finite() { m.value } else { 0.0 }),
                        ),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(i128::from(self.attempted.max(1)))),
            ("failed", Value::Int(i128::from(self.failed))),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Every metric by name and unit, then notes and problems.
    pub fn print_table(&self) {
        println!("# workload {} seed {}", self.workload, self.seed);
        for m in &self.metrics {
            println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.notes {
            println!("# {k} = {v}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
    }
}
