//! Shared machinery of the `BENCH_*.json` harnesses.
//!
//! `bench_sim` and `bench_live` write the same two-level JSON shape
//! (sections of numeric leaves), parse it back with the same line
//! parser, and print the same non-failing baseline diff in CI. This
//! module is the single home of that machinery so the two reports
//! cannot drift in format.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use std::hint::black_box;

/// One measured number, in the unit its section implies.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Key within the JSON section.
    pub id: String,
    /// Events/sec for throughput entries, seconds for wall-clock entries.
    pub value: f64,
}

/// Repeats `workload` (which reports how many events it processed) until
/// the measurement budget is spent; returns events/sec. In smoke mode the
/// workload runs exactly once (CI validates the harness, not the
/// numbers).
pub fn measure_events_per_sec<F: FnMut() -> u64>(mut workload: F, smoke: bool) -> f64 {
    if smoke {
        let start = Instant::now();
        let events = workload();
        return events as f64 / start.elapsed().as_secs_f64().max(1e-9);
    }
    // Warmup invocation (fills caches, grows slabs/heaps to steady state).
    black_box(workload());
    let budget = Duration::from_millis(1_000);
    let start = Instant::now();
    let mut events = 0u64;
    loop {
        events += workload();
        if start.elapsed() >= budget {
            break;
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
}

/// Appends one `"name": { ... }` section of samples to the report.
pub fn json_section(out: &mut String, name: &str, samples: &[Sample], last: bool) {
    let _ = writeln!(out, "  \"{name}\": {{");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {:.1}{comma}", s.id, s.value);
    }
    let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
}

/// Looks up a sample by id (`NaN` when absent).
pub fn find(samples: &[Sample], id: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.id == id)
        .map(|s| s.value)
        .unwrap_or(f64::NAN)
}

/// Parses one of our own reports into `section/key -> value` pairs.
///
/// The format is the fixed subset the harnesses emit (two-level objects
/// of numeric leaves), so a line parser suffices — no JSON dependency.
pub fn parse_report(text: &str) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let rest = rest.trim();
        if rest == "{" {
            section = key;
        } else if let Ok(v) = rest.parse::<f64>() {
            if !section.is_empty() {
                entries.push((format!("{section}/{key}"), v));
            }
        }
    }
    entries
}

/// Extracts the top-level section names of a report (objects opened with
/// a `"name": {` line), in order of appearance.
pub fn section_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        if rest.trim() == "{" {
            names.push(key.trim().trim_matches('"').to_string());
        }
    }
    names
}

/// Compares the section sets of two reports. Returns a human-readable
/// drift description if either report carries a section the other lacks —
/// the schema gate that keeps a bench refactor from silently dropping a
/// whole comparison family (values may drift freely; section *names* may
/// not). `None` means the schemas agree.
pub fn section_drift(current: &str, baseline: &str) -> Option<String> {
    let cur = section_names(current);
    let base = section_names(baseline);
    let missing: Vec<&String> = base.iter().filter(|s| !cur.contains(s)).collect();
    let unknown: Vec<&String> = cur.iter().filter(|s| !base.contains(s)).collect();
    if missing.is_empty() && unknown.is_empty() {
        return None;
    }
    let mut msg = String::from("bench report schema drift:");
    if !missing.is_empty() {
        let _ = write!(msg, " missing sections {missing:?}");
    }
    if !unknown.is_empty() {
        let _ = write!(msg, " unknown sections {unknown:?}");
    }
    let _ = write!(
        msg,
        " (regenerate the committed baseline together with the harness change)"
    );
    Some(msg)
}

/// Prints a metric-by-metric comparison of `current` against the
/// baseline report at `baseline_path` (typically a committed
/// `BENCH_*.json`). Sections whose name starts with one of
/// `context_prefixes` are shown without a faster/slower verdict
/// (wall-clock, workload scale, ratios-of-ratios: context, not
/// verdicts). Value differences never fail the build: smoke-mode CI
/// values are single-shot and noisy; the report exists so perf movement
/// is *visible* in PR logs, with regressions left to human judgement.
/// **Schema** differences do fail: returns `false` when the two reports
/// disagree on section names (see [`section_drift`]), so a bench
/// refactor cannot silently drop comparisons. A missing baseline file
/// skips the diff and passes.
#[must_use]
pub fn diff_report(current: &str, baseline_path: &str, context_prefixes: &[&str]) -> bool {
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench: no baseline at {baseline_path} ({e}); skipping diff");
            return true;
        }
    };
    let baseline: Vec<(String, f64)> = parse_report(&baseline_text);
    let new: Vec<(String, f64)> = parse_report(current);
    println!("\n== bench diff vs {baseline_path} (informational, never fails) ==");
    println!(
        "{:<58} {:>14} {:>14} {:>7}",
        "metric", "baseline", "current", "ratio"
    );
    for (key, new_v) in &new {
        let Some((_, base_v)) = baseline.iter().find(|(k, _)| k == key) else {
            println!("{key:<58} {:>14} {new_v:>14.1} {:>7}", "-", "new");
            continue;
        };
        let ratio = if *base_v != 0.0 {
            new_v / base_v
        } else {
            f64::NAN
        };
        let marker = if context_prefixes.iter().any(|p| key.starts_with(p)) {
            ""
        } else if ratio < 0.9 {
            "  <-- slower"
        } else if ratio > 1.1 {
            "  <-- faster"
        } else {
            ""
        };
        println!("{key:<58} {base_v:>14.1} {new_v:>14.1} {ratio:>6.2}x{marker}");
    }
    for (key, _) in &baseline {
        if !new.iter().any(|(k, _)| k == key) {
            println!("{key:<58} (present in baseline only)");
        }
    }
    match section_drift(current, &baseline_text) {
        Some(drift) => {
            eprintln!("{drift}");
            false
        }
        None => true,
    }
}

/// Physical cores visible to this process — recorded in every report so
/// committed numbers carry their measurement context (a 1-core container
/// and a 32-core workstation are not comparable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_parser_roundtrips_own_format() {
        let text = "{\n  \"schema\": \"x\",\n  \"event_queue\": {\n    \"a/b\": 12.5,\n    \"c\": 3.0\n  },\n  \"sweep\": {\n    \"wall\": 0.5\n  }\n}\n";
        let entries = parse_report(text);
        assert_eq!(
            entries,
            vec![
                ("event_queue/a/b".to_string(), 12.5),
                ("event_queue/c".to_string(), 3.0),
                ("sweep/wall".to_string(), 0.5),
            ]
        );
    }

    #[test]
    fn diff_report_survives_missing_baseline() {
        // Must not panic or fail on a nonexistent path.
        assert!(diff_report("{}", "/nonexistent/baseline.json", &[]));
    }

    #[test]
    fn section_drift_detects_missing_and_unknown_sections() {
        let base = "{\n  \"a\": {\n    \"x\": 1.0\n  },\n  \"b\": {\n    \"y\": 2.0\n  }\n}\n";
        let same = base;
        assert_eq!(section_drift(same, base), None);
        let missing = "{\n  \"a\": {\n    \"x\": 1.0\n  }\n}\n";
        let drift = section_drift(missing, base).expect("missing section is drift");
        assert!(drift.contains("missing"), "{drift}");
        assert!(drift.contains('b'), "{drift}");
        let unknown = "{\n  \"a\": {\n    \"x\": 1.0\n  },\n  \"b\": {\n    \"y\": 2.0\n  },\n  \"c\": {\n    \"z\": 3.0\n  }\n}\n";
        let drift = section_drift(unknown, base).expect("unknown section is drift");
        assert!(drift.contains("unknown"), "{drift}");
        // One-line objects (the `units` header) are not sections.
        let with_units = "{\n  \"units\": { \"a\": \"x\" },\n  \"a\": {\n    \"x\": 1.0\n  },\n  \"b\": {\n    \"y\": 2.0\n  }\n}\n";
        assert_eq!(section_drift(with_units, base), None);
    }

    #[test]
    fn sections_render_and_find_works() {
        let samples = vec![
            Sample {
                id: "a".into(),
                value: 1.5,
            },
            Sample {
                id: "b".into(),
                value: 2.0,
            },
        ];
        let mut out = String::from("{\n");
        json_section(&mut out, "sec", &samples, true);
        out.push('}');
        assert!(out.contains("\"sec\""));
        assert_eq!(parse_report(&out).len(), 2);
        assert_eq!(find(&samples, "b"), 2.0);
        assert!(find(&samples, "zzz").is_nan());
        assert!(host_cores() >= 1);
    }
}
