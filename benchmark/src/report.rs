//! What one workload run reports, and the two ways it is printed: a table
//! for people and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{unit_of, MetricDecl};
use crate::json::{number, quote, Json};
use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Spread of the repetitions behind it, when there were several.
    pub reps: Option<Summary>,
    /// A word on what the value is on this workload (table only).
    pub note: &'static str,
}

/// Everything one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions (children run, checks made) attempted.
    pub attempted: u64,
    /// Why each failed repetition or check failed.
    pub failures: Vec<String>,
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    /// Counts one attempted repetition or check; records `why` if it failed.
    pub fn attempt(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                eprintln!("FAILED: {why}");
                self.failures.push(why);
                false
            }
        }
    }

    /// [`attempt`](Self::attempt) for a repetition that produces something:
    /// hands the value back when it succeeded.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => {
                self.attempt(Ok(()));
                Some(value)
            }
            Err(why) => {
                self.attempt(Err(why));
                None
            }
        }
    }

    /// Failed repetitions and checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// True when nothing failed and something was attempted.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Reports `name` as `value`.
    pub fn set(&mut self, name: &'static str, value: f64, note: &'static str) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.metrics.insert(
            name,
            Metric {
                value,
                reps: None,
                note,
            },
        );
    }

    /// Reports `name` as the median of `samples` (nothing when empty).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64], note: &'static str) {
        if let Some(s) = Summary::of(samples) {
            self.set(name, s.median, note);
            self.metrics.get_mut(name).expect("just set").reps = Some(s);
        }
    }

    /// Reports `name` as the trimean of `samples`. For set-up times: a
    /// child's start and teardown wait on timers (the supervisor's 25 ms
    /// sweep, the obs server's 10 ms accept poll), so they come in two
    /// modes and their median flips between them from run to run.
    pub fn set_trimean(&mut self, name: &'static str, samples: &[f64], note: &'static str) {
        if let Some(s) = Summary::of(samples) {
            self.set(name, s.trimean(), note);
            self.metrics.get_mut(name).expect("just set").reps = Some(s);
        }
    }

    /// The reported value of `name`, 0 when the run did not report it.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// The table: every metric of `decls` by name, with its unit, and
    /// median, quartiles and repetition count where there were several.
    pub fn render(&self, decls: &[MetricDecl]) -> String {
        let mut out = String::new();
        for (name, unit) in decls {
            let Some(m) = self.metrics.get(name) else {
                let _ = writeln!(out, "  {name:<44} {:>16} {unit:<6} not exercised", "0");
                continue;
            };
            let _ = write!(out, "  {name:<44} {:>16} {unit:<6}", sig(m.value));
            if let Some(s) = m.reps {
                let _ = write!(
                    out,
                    " {} reps (q1 {} median {} q3 {} spread {:.3})",
                    s.n,
                    sig(s.q1),
                    sig(s.median),
                    sig(s.q3),
                    s.spread()
                );
            }
            if !m.note.is_empty() {
                let _ = write!(out, " [{}]", m.note);
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being exactly
    /// `decls` (0 for one this run did not exercise).
    pub fn result_line(&self, decls: &[MetricDecl]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed()
        );
        for (i, (name, unit)) in decls.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(self.value(name)),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Six significant digits, for the table.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".into();
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// The `(name, value)` pairs of a result line, and its `failed` count.
pub fn parse_result_line(line: &str) -> Option<(u64, Vec<(String, f64)>)> {
    let doc = Json::parse(line).ok()?;
    let failed = doc.get("failed")?.num()? as u64;
    let metrics = doc
        .get("metrics")?
        .members()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.num()?)))
        .collect();
    Some((failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};

    fn manifest_names(section: &str) -> Vec<String> {
        Json::parse(include_str!("../../BENCHMARK.json"))
            .unwrap()
            .get(section)
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_declared_names() {
        let mut o = Outcome::default();
        o.attempt(Ok(()));
        o.set("setup_s", 0.8127, "");
        o.set_median("ops_per_s", &[5.0e6, 7.0e6, 6.0e6], "decisions");
        o.set("sim.shard.windows", 12.0, "");
        for (section, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let line = o.result_line(decls);
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = doc
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let (failed, metrics) = parse_result_line(&line).unwrap();
            assert_eq!(failed, 0);
            let names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, manifest_names(section), "{section}");
            for (name, m) in doc.get("metrics").unwrap().members().unwrap() {
                assert_eq!(m.get("unit").and_then(Json::str), unit_of(name));
            }
        }
        let (_, e2e) = parse_result_line(&o.result_line(END_TO_END)).unwrap();
        assert_eq!(e2e[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(e2e[1], ("ops_per_s".to_string(), 6.0e6));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted is not correct");
        assert!(o.attempt(Ok(())));
        assert!(!o.attempt(Err("child exited 4".into())));
        assert_eq!(o.check(Ok(7)), Some(7));
        assert_eq!(o.check::<u8>(Err("timed out".into())), None);
        assert_eq!((o.attempted, o.failed()), (4, 2));
        assert!(!o.correct());
        let doc = Json::parse(&o.result_line(END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::num), Some(2.0));
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.set_median("op_p50_ns", &[60.0, 62.0, 61.0, 63.0], "admit call");
        let table = o.render(END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(table.contains(name) && table.contains(unit));
        }
        assert!(table.contains("4 reps (q1"));
        assert!(table.contains("[admit call]"));
        assert_eq!(sig(1234567.0), "1234567");
        assert_eq!(sig(0.000123456), "0.000123456");
        assert_eq!(sig(61.5), "61.5000");
    }
}
