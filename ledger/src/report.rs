//! What one run measured, and how it is printed: one human-readable
//! line per metric (value, unit, sample count), then the result object
//! as the last line of stdout.

use objectrunner_store::Json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (0 for a single reading).
    pub samples: usize,
    pub note: String,
}

/// The requests a run sent and how they ended.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Answered with `"ok":false` (other than a shed).
    pub errors: u64,
    /// Refused by admission control.
    pub shed: u64,
    /// Answered, but not what the serial reference answered.
    pub mismatched: u64,
    /// Never answered.
    pub unanswered: u64,
    /// Reasons the run's numbers cannot be trusted (a fixed-rate phase
    /// the generator sent late in every attempt, a metric that is not
    /// finite); any one makes the run fail.
    pub invalid: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        if !value.is_finite() {
            self.invalid
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            note: note.to_owned(),
        });
    }

    /// Account one answered request against its reference check.
    pub fn answered(&mut self, response: &str, correct: bool) {
        self.attempted += 1;
        if response.contains("\"error\":\"overloaded\"") {
            self.shed += 1;
        } else if !crate::check::ok(response) {
            self.errors += 1;
            self.note_first("error", response);
        } else if !correct {
            self.mismatched += 1;
            self.note_first("mismatch", response);
        }
    }

    fn note_first(&mut self, kind: &str, response: &str) {
        if self.errors + self.mismatched == 1 {
            let head: String = response.chars().take(300).collect();
            eprintln!("ledger: first {kind}: {head}");
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.mismatched + self.unanswered
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.mismatched == 0 && self.invalid.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print every metric, then the result object on the last line.
    pub fn print(&self) {
        for m in &self.metrics {
            let n = if m.samples > 0 {
                format!("n={}", m.samples)
            } else {
                "single reading".to_owned()
            };
            println!(
                "  {:<40} {:>14.4} {:<6} ({n}{}{})",
                m.name,
                m.value,
                m.unit,
                if m.note.is_empty() { "" } else { "; " },
                m.note
            );
        }
        println!(
            "  requests: {} attempted, {} errors, {} shed, {} mismatched, {} unanswered",
            self.attempted, self.errors, self.shed, self.mismatched, self.unanswered
        );
        for why in &self.invalid {
            println!("  INVALID: {why}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        (
                            "value".into(),
                            if m.value.is_finite() {
                                Json::Raw(format!("{}", m.value))
                            } else {
                                Json::Null
                            },
                        ),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::int(self.attempted)),
            ("failed".into(), Json::int(self.failed())),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}
