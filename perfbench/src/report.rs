//! Metrics as one run reports them: a readable line per metric, then the
//! result object as the last line of standard output.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The figure; 0 when `note` says why it is absent.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples (or ops) behind the figure.
    pub n: u64,
    /// Extra context: the reported percentile, or why the figure is absent.
    pub note: String,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Ops attempted, verification reads included.
    pub attempted: u64,
    /// Ops that failed: BUSY, ERR, timeouts and output mismatches.
    pub failed: u64,
    /// Output mismatches (a subset of `failed`).
    pub mismatches: u64,
    /// The first few mismatch descriptions.
    pub first_mismatches: Vec<String>,
}

impl Report {
    /// Set `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.set_noted(name, value, unit, n, String::new());
    }

    /// Set `name` with a note.
    pub fn set_noted(&mut self, name: &str, value: f64, unit: &'static str, n: u64, note: String) {
        let (value, note) = if value.is_finite() {
            (value, note)
        } else {
            (0.0, format!("not measurable ({value}) {note}"))
        };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note,
        });
    }

    /// Mark `name` absent on this workload, saying why.
    pub fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.set_noted(name, 0.0, unit, 0, format!("absent: {why}"));
    }

    /// The figure set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record an output mismatch.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches += 1;
        if self.first_mismatches.len() < 8 {
            self.first_mismatches.push(what);
        }
    }

    /// Fold in another report's counts and mismatches (not its metrics).
    pub fn absorb_counts(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for m in other.first_mismatches {
            if self.first_mismatches.len() < 8 {
                self.first_mismatches.push(m);
            }
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Print the readable lines for `wanted` (name, unit) and then the
    /// result object. A wanted metric the workload never set is reported
    /// absent.
    pub fn print(&mut self, workload: &str, wanted: &[(&str, &'static str)]) {
        for &(name, unit) in wanted {
            if self.get(name).is_none() {
                self.absent(name, unit, "not produced by this workload");
            }
        }
        for m in &self.first_mismatches {
            println!("[{workload}] MISMATCH {m}");
        }
        println!(
            "[{workload}] attempted={} failed={} mismatches={}",
            self.attempted, self.failed, self.mismatches
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, _)) in wanted.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("every wanted metric was set above");
            println!(
                "[{workload}] {:<30} {:>16} {:<6} n={:<9} {}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.n,
                m.note
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A finite number in JSON form, with all its digits.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.125), "0.125");
        assert_eq!(num(1234.5678901), "1234.5678901");
    }

    #[test]
    fn non_finite_values_become_absent() {
        let mut r = Report::default();
        r.set("x", f64::NAN, "s", 1);
        assert_eq!(r.get("x"), Some(0.0));
    }
}
