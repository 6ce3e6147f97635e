//! The shared output grammar: `event=...` key-value diagnostic lines and
//! the schema-versioned JSON stats line.
//!
//! Both forms carry the same data model — an event name plus ordered
//! `key=value` pairs — so one parser covers every line the runtime
//! prints: diagnostics are logfmt (`event=recovery ok=true records=42`),
//! periodic stats are one JSON object per line with a `schema` tag
//! ([`STATS_SCHEMA`]) so downstream tooling can diff them across
//! versions.

use crate::Snapshot;

/// Schema tag of [`stats_line`] output. Bump the suffix when the line's
/// structure (not its counter catalog) changes shape. v2 extends v1
/// with a `histograms` section (sparse bucket counts + precomputed
/// percentiles per registered histogram).
pub const STATS_SCHEMA: &str = "ta-stats/v2";

/// Builder for one `event=<name> key=value ...` diagnostic line.
///
/// Values render bare when they contain no spaces, quotes, or `=`;
/// otherwise they are double-quoted with `\"`/`\\` escapes. Keys are
/// trusted (static, lowercase, no spaces).
#[derive(Debug, Clone)]
pub struct EventLine {
    buf: String,
}

impl EventLine {
    /// Starts a line for `event`.
    pub fn new(event: &str) -> Self {
        EventLine {
            buf: format!("event={event}"),
        }
    }

    /// Appends `key=value` using the value's `Display` form.
    pub fn kv(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        let v = value.to_string();
        self.buf.push(' ');
        self.buf.push_str(key);
        self.buf.push('=');
        if v.is_empty() || v.contains([' ', '"', '=']) {
            self.buf.push('"');
            for ch in v.chars() {
                if ch == '"' || ch == '\\' {
                    self.buf.push('\\');
                }
                self.buf.push(ch);
            }
            self.buf.push('"');
        } else {
            self.buf.push_str(&v);
        }
        self
    }

    /// The finished line (no trailing newline).
    pub fn finish(self) -> String {
        self.buf
    }

    /// Prints the line to stdout (see [`print_line`]).
    pub fn emit(self) {
        print_line(self.finish());
    }
}

/// Prints `line` and a newline to stdout. Where `println!` panics on a
/// closed stdout (a reader that went away, as in `live … | head -1`),
/// this drops the line: output ends quietly, and the process runs on to
/// the exit code it computes.
pub fn print_line(line: impl std::fmt::Display) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

/// Renders one self-describing stats line from a registry [`Snapshot`]:
///
/// ```json
/// {"schema":"ta-stats/v2","seq":3,"uptime_ms":600,
///  "counters":{"admit_requests":123,...},"gauges":{"journal_queue_depth":0,...},
///  "histograms":{"admit_ns":{"count":123,"sum":4567,"max":980,
///    "p50":35,"p90":62,"p99":240,"p999":720,"buckets":[[35,100],[62,23]]},...}}
/// ```
///
/// Counter/gauge/histogram keys come from the registry's static catalog
/// in slot order, so two lines from the same binary are machine-diffable
/// field-by-field; `seq` is the snapshot epoch (strictly increasing).
/// Histogram buckets are sparse `[index, count]` pairs over the shared
/// log-linear binning ([`crate::hist::bucket_value`] recovers each
/// bucket's lower bound); p50/p90/p99/p999 are precomputed so consumers
/// need no bucket math for the headline percentiles.
pub fn stats_line(snapshot: &Snapshot, uptime_ms: u64) -> String {
    stats_line_with(snapshot, uptime_ms, &[])
}

/// [`stats_line`] plus caller-supplied top-level sections.
///
/// Each `(key, value)` extra is appended after the `histograms` section
/// as `,"key":value` — `value` must already be valid JSON (an object,
/// array, string, or number). Extras are additive: consumers that read
/// only the known keys are unaffected, so the schema tag stays
/// [`STATS_SCHEMA`]. The live runtime uses this for its `health`
/// section.
pub fn stats_line_with(snapshot: &Snapshot, uptime_ms: u64, extras: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"schema\":\"");
    out.push_str(STATS_SCHEMA);
    out.push_str("\",\"seq\":");
    out.push_str(&snapshot.epoch.to_string());
    out.push_str(",\"uptime_ms\":");
    out.push_str(&uptime_ms.to_string());
    out.push_str(",\"counters\":{");
    for (i, (name, value)) in snapshot.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        out.push_str(&value.to_string());
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        out.push_str(&value.to_string());
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.hists().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":{\"count\":");
        out.push_str(&h.count().to_string());
        out.push_str(",\"sum\":");
        out.push_str(&h.sum().to_string());
        out.push_str(",\"max\":");
        out.push_str(&h.max().to_string());
        for (key, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&h.percentile(q).to_string());
        }
        out.push_str(",\"buckets\":[");
        for (j, (idx, count)) in h.nonzero_buckets().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&idx.to_string());
            out.push(',');
            out.push_str(&count.to_string());
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push('}');
    for (key, value) in extras {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(value);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn event_line_quotes_only_when_needed() {
        let line = EventLine::new("recovery")
            .kv("ok", true)
            .kv("records", 42)
            .kv("detail", "books closed")
            .kv("path", "/tmp/x")
            .kv("msg", "a \"b\" c")
            .finish();
        assert_eq!(
            line,
            "event=recovery ok=true records=42 detail=\"books closed\" path=/tmp/x msg=\"a \\\"b\\\" c\""
        );
    }

    #[test]
    fn empty_and_equals_values_are_quoted() {
        let line = EventLine::new("x").kv("a", "").kv("b", "k=v").finish();
        assert_eq!(line, "event=x a=\"\" b=\"k=v\"");
    }

    #[test]
    fn stats_line_is_schema_tagged_and_complete() {
        let reg = Registry::new(&["requests", "sent"], &["depth"], 2);
        reg.handle(0).add(0, 7);
        reg.handle(1).add(1, 2);
        reg.handle(1).gauge_add(0, -3);
        let line = stats_line(&reg.snapshot(), 1500);
        assert!(line.starts_with("{\"schema\":\"ta-stats/v2\",\"seq\":0,"));
        assert!(line.contains("\"uptime_ms\":1500"));
        assert!(line.contains("\"counters\":{\"requests\":7,\"sent\":2}"));
        assert!(line.contains("\"gauges\":{\"depth\":-3}"));
        // No registered histograms: the section is present but empty.
        assert!(line.ends_with("\"histograms\":{}}"));
    }

    #[test]
    fn stats_line_with_appends_extras_after_histograms() {
        let reg = Registry::new(&["requests"], &[], 1);
        let snap = reg.snapshot();
        let plain = stats_line(&snap, 5);
        let extras = [
            ("health", "{\"granter\":\"healthy\"}".to_string()),
            ("note", "7".to_string()),
        ];
        let line = stats_line_with(&snap, 5, &extras);
        // The extras ride after the histograms section, inside the root
        // object; with no extras the output is byte-identical to the
        // plain form.
        assert!(
            line.ends_with("\"histograms\":{},\"health\":{\"granter\":\"healthy\"},\"note\":7}")
        );
        assert_eq!(stats_line_with(&snap, 5, &[]), plain);
    }

    #[test]
    fn stats_line_histograms_carry_sparse_buckets_and_percentiles() {
        let reg = Registry::with_hists(&["requests"], &[], &["admit_ns", "idle_ns"], 1);
        let h = reg.handle(0);
        for v in [40u64, 40, 41, 900] {
            h.hist_record(0, v);
        }
        let line = stats_line(&reg.snapshot(), 10);
        assert!(
            line.contains("\"histograms\":{\"admit_ns\":{\"count\":4,\"sum\":1021,\"max\":900,")
        );
        assert!(line.contains("\"p50\":40,"));
        assert!(line.contains("\"p999\":"));
        // Sparse pairs: unit-width buckets in the 32..64 octave keep 40
        // and 41 distinct, 900 lands in a third bucket.
        let buckets = line
            .split("\"admit_ns\":")
            .nth(1)
            .and_then(|s| s.split("\"buckets\":[").nth(1))
            .and_then(|s| s.split("]}").next())
            .unwrap();
        assert_eq!(buckets.split("],[").count(), 3, "sparse pairs: {buckets}");
        assert!(buckets.starts_with("[40,2"), "bucket encoding: {buckets}");
        // The second (empty) histogram renders with zero buckets.
        assert!(line.contains("\"idle_ns\":{\"count\":0,\"sum\":0,\"max\":0"));
        assert!(line.contains("\"buckets\":[]}"));
    }
}
