//! What a run hands back: metrics, checks, and the three places they go
//! (a table on stderr, `benchmark/out/*.json`, the contract's last line
//! on stdout).

use std::fmt::Write as _;

use crate::workloads::Params;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub what: &'static str,
    pub passed: bool,
}

impl Check {
    pub fn new(what: &'static str, passed: bool) -> Self {
        Check { what, passed }
    }
}

pub struct Report {
    pub params: Params,
    pub traced: bool,
    /// Pop-epochs driven.
    pub attempted: u64,
    /// Pop-epochs the classifier failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Strings that are not metrics: digests, sample counts, exact
    /// counts kept for context.
    pub notes: Vec<(String, String)>,
}

/// A `notes` entry.
pub fn note(key: impl Into<String>, value: impl ToString) -> (String, String) {
    (key.into(), value.to_string())
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.passed)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable: every metric by name with its unit, every check.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} {} world {} seed {} seconds {} ==",
            self.params.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.params.world,
            self.params.seed,
            self.params.seconds
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (key, value) in &self.notes {
            let _ = writeln!(out, "  {key:<34} {value:>16}");
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {}",
                if c.passed { "ok" } else { "FAILED" },
                c.what
            );
        }
        let _ = writeln!(
            out,
            "  failed_ops / attempted_ops: {} / {} -> {}",
            self.failed,
            self.attempted,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
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
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The fuller record kept under `benchmark/out/`.
    pub fn out_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| format!("\"{}\": {}", json_escape(c.what), c.passed))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"traced\": {},\n  \"world\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"checks\": {{{}}},\n  \"notes\": {{{}}}\n}}\n",
            self.params.workload.name(),
            self.traced,
            self.params.world,
            self.params.seed,
            json_number(self.params.seconds),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(),
            checks.join(", "),
            notes.join(", ")
        )
    }
}

/// Every digit of a finite value; JSON has no NaN, so a non-finite value
/// (which also makes the run incorrect) is written as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn report(failed: u64, check_passes: bool) -> Report {
        Report {
            params: Params {
                workload: Workload::Steady,
                world: 7,
                seed: 3,
                seconds: 10.0,
            },
            traced: false,
            attempted: 100,
            failed,
            metrics: vec![
                Metric::new("epoch_ms_p50", 1.2034, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
            checks: vec![Check::new("overrides were installed", check_passes)],
            notes: vec![note("sim_digest", "ab\"cd")],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        assert_eq!(
            report(0, true).result_line(),
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"epoch_ms_p50\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_or_check_makes_the_run_incorrect() {
        assert!(report(0, true).correct());
        assert!(!report(1, true).correct());
        assert!(!report(0, false).correct());
        let mut r = report(0, true);
        r.metrics[0].value = f64::NAN;
        assert!(!r.correct());
        assert!(r.result_line().contains("\"value\": null"));
    }

    #[test]
    fn out_json_escapes_notes() {
        assert!(report(0, true).out_json().contains("ab\\\"cd"));
    }
}
