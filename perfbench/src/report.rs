//! Named metrics with units, the human-readable record and the final
//! JSON line.

use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Median, quartiles and count of the samples behind the value.
    pub spread: Option<Summary>,
    /// Extra context printed after the value (sample counts, targets).
    pub note: String,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) -> &mut Metric {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
            note: String::new(),
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Prints one line per metric: name, value, unit, then median and
    /// quartiles of its samples where it has them.
    pub fn print(&self) {
        for m in &self.metrics {
            let mut line = format!("metric {:<36} {:>14} {:<6}", m.name, fmt(m.value), m.unit);
            if let Some(s) = m.spread {
                line.push_str(&format!(
                    " median {} q1 {} q3 {} n {}",
                    fmt(s.median),
                    fmt(s.q1),
                    fmt(s.q3),
                    s.n
                ));
            }
            if !m.note.is_empty() {
                line.push_str(&format!("  # {}", m.note));
            }
            println!("{line}");
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

impl Metric {
    pub fn with(&mut self, spread: Option<Summary>, note: impl Into<String>) {
        self.spread = spread;
        self.note = note.into();
    }
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "inf".to_string()
    }
}

/// Every digit as measured; an infinite latency (refused, failed or
/// lost jobs past the percentile) becomes the largest finite double,
/// since JSON has no infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}
