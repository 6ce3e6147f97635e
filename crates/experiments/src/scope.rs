//! ta-scope: the client side of the live observability plane.
//!
//! Connects to a `live --obs-listen` server, speaks the line protocol
//! (`STATS` / `WATCH <ms>` / `TRACE <n>`), parses `ta-stats/v2` lines
//! with a small hand-rolled JSON reader (this path must stay
//! dependency-free, like everything else in the workspace), and diffs
//! consecutive snapshots into human-scale **rates**: decisions/sec,
//! reactive-held ratio, journal bytes/sec, fsync p99. The `live-top`
//! binary renders those as a refreshing table; `--once` makes it a
//! one-shot CI probe.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed JSON value (the subset of state `ta-stats/v2` can carry;
/// numbers are `f64`, exact for counters below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("eof in escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("eof in \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let s = &self.b[self.i..];
                    let ch = std::str::from_utf8(s)
                        .map_err(|_| "invalid utf-8")?
                        .chars()
                        .next()
                        .ok_or("eof in string")?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
                None => return Err("eof in string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

/// Headline percentiles + totals of one histogram in a stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistView {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Precomputed percentiles: p50, p90, p99, p999.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// One parsed `ta-stats/v2` line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Snapshot sequence number (strictly increasing per producer).
    pub seq: u64,
    /// Process uptime when the snapshot was swept.
    pub uptime_ms: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram views by name.
    pub histograms: BTreeMap<String, HistView>,
    /// Component health states (`journal_writer`, `granter`, …) plus
    /// the failure `policy` and `durability` status, when the producer
    /// runs under a supervision board. Empty otherwise.
    pub health: BTreeMap<String, String>,
}

impl Stats {
    /// Parses one stats line; rejects other schemas.
    pub fn parse(line: &str) -> Result<Stats, String> {
        let v = Json::parse(line.trim())?;
        let schema = match v.get("schema") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err("missing schema tag".into()),
        };
        if schema != "ta-stats/v2" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let need = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let mut stats = Stats {
            seq: need("seq")?,
            uptime_ms: need("uptime_ms")?,
            ..Stats::default()
        };
        if let Some(Json::Obj(members)) = v.get("counters") {
            for (name, val) in members {
                stats.counters.insert(
                    name.clone(),
                    val.as_u64().ok_or_else(|| format!("bad counter {name}"))?,
                );
            }
        }
        if let Some(Json::Obj(members)) = v.get("gauges") {
            for (name, val) in members {
                let g = val.as_f64().ok_or_else(|| format!("bad gauge {name}"))?;
                stats.gauges.insert(name.clone(), g as i64);
            }
        }
        if let Some(Json::Obj(members)) = v.get("histograms") {
            for (name, h) in members {
                let f = |key: &str| -> Result<u64, String> {
                    h.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("bad histogram field {name}.{key}"))
                };
                stats.histograms.insert(
                    name.clone(),
                    HistView {
                        count: f("count")?,
                        sum: f("sum")?,
                        max: f("max")?,
                        p50: f("p50")?,
                        p90: f("p90")?,
                        p99: f("p99")?,
                        p999: f("p999")?,
                    },
                );
            }
        }
        if let Some(Json::Obj(members)) = v.get("health") {
            for (name, val) in members {
                if let Json::Str(s) = val {
                    stats.health.insert(name.clone(), s.clone());
                }
            }
        }
        Ok(stats)
    }

    /// Whether any supervised component reports a non-healthy state.
    pub fn degraded(&self) -> bool {
        self.health
            .iter()
            .any(|(k, v)| k != "policy" && k != "durability" && v != "healthy")
            || self.health.get("durability").is_some_and(|v| v != "ok")
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Rates derived from two consecutive snapshots of one producer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Interval the rates cover.
    pub interval_ms: u64,
    /// Admission decisions per second.
    pub decisions_per_sec: f64,
    /// Fraction of decisions held (no token available).
    pub held_ratio: f64,
    /// Journal bytes (delta + grant frames) per second.
    pub journal_bytes_per_sec: f64,
    /// fsync p99 at the later snapshot, nanoseconds.
    pub fsync_p99_ns: u64,
    /// Admit-latency p99 at the later snapshot, nanoseconds.
    pub admit_p99_ns: u64,
}

impl Rates {
    /// Diffs `prev → cur`. Returns `None` when the interval is empty or
    /// the snapshots are out of order (stale scrape, producer restart).
    pub fn between(prev: &Stats, cur: &Stats) -> Option<Rates> {
        if cur.seq <= prev.seq || cur.uptime_ms <= prev.uptime_ms {
            return None;
        }
        let dt = (cur.uptime_ms - prev.uptime_ms) as f64 / 1000.0;
        let d = |name: &str| cur.counter(name).saturating_sub(prev.counter(name)) as f64;
        let decisions = d("admit_requests");
        let bytes = d("journal_bytes_delta") + d("journal_bytes_range");
        Some(Rates {
            interval_ms: cur.uptime_ms - prev.uptime_ms,
            decisions_per_sec: decisions / dt,
            held_ratio: if decisions > 0.0 {
                d("admit_reactive_held") / decisions
            } else {
                0.0
            },
            journal_bytes_per_sec: bytes / dt,
            fsync_p99_ns: cur.histograms.get("fsync_ns").map_or(0, |h| h.p99),
            admit_p99_ns: cur.histograms.get("admit_ns").map_or(0, |h| h.p99),
        })
    }
}

/// A connection to a `live --obs-listen` server.
#[derive(Debug)]
pub struct ScopeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ScopeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:9900`).
    pub fn connect(addr: &str) -> std::io::Result<ScopeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(ScopeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One `STATS` round trip.
    pub fn stats(&mut self) -> Result<Stats, String> {
        self.writer
            .write_all(b"STATS\n")
            .map_err(|e| e.to_string())?;
        Stats::parse(&self.read_line()?)
    }

    /// Switches the connection into `WATCH <ms>` mode; afterwards only
    /// [`next_line`](Self::next_line) is meaningful.
    pub fn watch(&mut self, every: Duration) -> Result<(), String> {
        self.writer
            .write_all(format!("WATCH {}\n", every.as_millis().max(1)).as_bytes())
            .map_err(|e| e.to_string())
    }

    /// Reads the next pushed line (empty string at EOF).
    pub fn next_line(&mut self) -> Result<String, String> {
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok(line.trim_end().to_string())
    }
}

/// Formats nanoseconds compactly (`840ns`, `3.2us`, `1.5ms`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// One rendered rate-view row (the `live-top` table body).
pub fn render_row(cur: &Stats, rates: &Rates) -> String {
    format!(
        "{:>8}  {:>9.0}  {:>6.1}%  {:>10.0}  {:>9}  {:>9}  {:>6}",
        cur.seq,
        rates.decisions_per_sec,
        rates.held_ratio * 100.0,
        rates.journal_bytes_per_sec,
        fmt_ns(rates.admit_p99_ns),
        fmt_ns(rates.fsync_p99_ns),
        cur.counter("trace_dropped"),
    )
}

/// The `live-top` table header matching [`render_row`].
pub fn render_header() -> String {
    format!(
        "{:>8}  {:>9}  {:>7}  {:>10}  {:>9}  {:>9}  {:>6}",
        "seq", "dec/s", "held", "jrnl B/s", "admit p99", "fsync p99", "drops"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_telemetry::{stats_line, Registry};

    #[test]
    fn json_parser_handles_the_wire_shapes() {
        let v =
            Json::parse(r#"{"a":1,"b":[1,2,3],"c":{"d":"x=\"y\"","e":-2.5},"f":true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Num(3.0)
            ]))
        );
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")),
            Some(&Json::Str("x=\"y\"".into()))
        );
        assert_eq!(
            v.get("c").and_then(|c| c.get("e")).and_then(Json::as_f64),
            Some(-2.5)
        );
        assert_eq!(v.get("f"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\":1}trailing").is_err());
        assert!(Json::parse("{\"a\"").is_err());
    }

    #[test]
    fn stats_parse_roundtrips_a_real_line() {
        let reg = Registry::with_hists(
            &["admit_requests", "admit_reactive_held"],
            &["journal_queue_depth"],
            &["admit_ns"],
            1,
        );
        let h = reg.handle(0);
        h.add(0, 1000);
        h.add(1, 250);
        h.gauge_add(0, -2);
        for v in [100u64, 200, 300, 40_000] {
            h.hist_record(0, v);
        }
        let line = stats_line(&reg.snapshot(), 1500);
        let stats = Stats::parse(&line).unwrap();
        assert_eq!(stats.seq, 0);
        assert_eq!(stats.uptime_ms, 1500);
        assert_eq!(stats.counters["admit_requests"], 1000);
        assert_eq!(stats.gauges["journal_queue_depth"], -2);
        let admit = &stats.histograms["admit_ns"];
        assert_eq!(admit.count, 4);
        assert!(admit.p99 >= admit.p50);
        assert!(admit.max >= 40_000);
        // Only v2 is understood.
        assert!(Stats::parse(&line.replace("ta-stats/v2", "ta-stats/v1")).is_err());
        // No health section → empty map, not an error.
        assert!(stats.health.is_empty());
        assert!(!stats.degraded());
    }

    #[test]
    fn health_section_parses_and_flags_degradation() {
        let reg = Registry::new(&["admit_requests"], &[], 1);
        let healthy = concat!(
            r#"{"policy":"degrade","journal_writer":"healthy","granter":"healthy","#,
            r#""trace_bus":"healthy","stats_pump":"healthy","durability":"ok"}"#
        );
        let line =
            ta_telemetry::stats_line_with(&reg.snapshot(), 900, &[("health", healthy.to_string())]);
        let stats = Stats::parse(&line).unwrap();
        assert_eq!(stats.health["policy"], "degrade");
        assert_eq!(stats.health["journal_writer"], "healthy");
        assert_eq!(stats.health.len(), 6);
        assert!(!stats.degraded());
        // A failed writer or suspended durability flips the flag; the
        // policy field alone never does.
        let degraded = Stats::parse(&line.replace(
            r#""journal_writer":"healthy""#,
            r#""journal_writer":"failed""#,
        ))
        .unwrap();
        assert!(degraded.degraded());
        let suspended =
            Stats::parse(&line.replace(r#""durability":"ok""#, r#""durability":"suspended""#))
                .unwrap();
        assert!(suspended.degraded());
    }

    fn synthetic(seq: u64, uptime_ms: u64, requests: u64, held: u64, bytes: u64) -> Stats {
        let mut s = Stats {
            seq,
            uptime_ms,
            ..Stats::default()
        };
        s.counters.insert("admit_requests".into(), requests);
        s.counters.insert("admit_reactive_held".into(), held);
        s.counters.insert("journal_bytes_delta".into(), bytes);
        s.histograms.insert(
            "fsync_ns".into(),
            HistView {
                p99: 500_000,
                ..HistView::default()
            },
        );
        s
    }

    #[test]
    fn rates_diff_consecutive_snapshots_exactly() {
        let a = synthetic(5, 1000, 10_000, 2_000, 4_096);
        let b = synthetic(6, 3000, 50_000, 12_000, 20_480);
        let r = Rates::between(&a, &b).unwrap();
        assert_eq!(r.interval_ms, 2000);
        assert!((r.decisions_per_sec - 20_000.0).abs() < 1e-9);
        assert!((r.held_ratio - 0.25).abs() < 1e-9);
        assert!((r.journal_bytes_per_sec - 8_192.0).abs() < 1e-9);
        assert_eq!(r.fsync_p99_ns, 500_000);
        // Out-of-order or same-instant snapshots yield no rates.
        assert!(Rates::between(&b, &a).is_none());
        assert!(Rates::between(&a, &a).is_none());
    }

    #[test]
    fn table_rendering_is_aligned_and_units_scale() {
        assert_eq!(fmt_ns(840), "840ns");
        assert_eq!(fmt_ns(3_200), "3.2us");
        assert_eq!(fmt_ns(1_500_000), "1.5ms");
        let cur = synthetic(7, 4000, 1, 0, 0);
        let rates = Rates::default();
        let header = render_header();
        let row = render_row(&cur, &rates);
        assert_eq!(header.len(), row.len(), "{header:?} vs {row:?}");
        assert!(header.contains("dec/s") && header.contains("fsync p99"));
    }
}
