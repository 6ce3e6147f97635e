//! Reading what the `live` binary prints: `ta-stats/v2` JSON lines and
//! `event=<name> key=value ...` lines.

use crate::json::Json;

/// Schema tag every stats line must carry.
pub const STATS_SCHEMA: &str = "ta-stats/v2";

/// One parsed `ta-stats/v2` line.
#[derive(Debug, Clone)]
pub struct StatsLine(Json);

impl StatsLine {
    /// Parses `line`; `None` unless it is a `ta-stats/v2` object.
    pub fn parse(line: &str) -> Option<StatsLine> {
        if !line.starts_with('{') {
            return None;
        }
        let doc = Json::parse(line).ok()?;
        (doc.get("schema").and_then(Json::str) == Some(STATS_SCHEMA)).then_some(StatsLine(doc))
    }

    /// Counter `name` (0 when the catalog does not have it).
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .at(&["counters", name])
            .and_then(Json::num)
            .unwrap_or(0.0)
    }

    /// Gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.0
            .at(&["gauges", name])
            .and_then(Json::num)
            .unwrap_or(0.0)
    }

    /// Histogram `name`, if the line carries it with at least one sample.
    pub fn hist(&self, name: &str) -> Option<Hist> {
        let h = self.0.at(&["histograms", name])?;
        let buckets: Vec<(usize, f64)> = h
            .get("buckets")?
            .arr()?
            .iter()
            .filter_map(|pair| {
                let pair = pair.arr()?;
                Some((pair.first()?.num()? as usize, pair.get(1)?.num()?))
            })
            .collect();
        let count = h.get("count")?.num()?;
        (count > 0.0 && !buckets.is_empty()).then_some(Hist { count, buckets })
    }
}

/// One histogram of a stats line: sparse `(bucket index, count)` pairs in
/// the log-linear layout of `ta_telemetry::hist` (32 linear sub-buckets
/// per power of two, exact below 32). The layout is part of the
/// `ta-stats/v2` wire format, so it is restated here, not imported.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Samples recorded.
    pub count: f64,
    /// Non-empty buckets in ascending index order.
    pub buckets: Vec<(usize, f64)>,
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Lower bound of bucket `idx` (the upper bound is the next bucket's).
pub fn bucket_lower(idx: usize) -> f64 {
    let octave = idx / SUB;
    let sub = (idx % SUB) as f64;
    if octave == 0 {
        return sub;
    }
    let shift = (octave - 1) as u32 + SUB_BITS;
    2f64.powi(shift as i32) + sub * 2f64.powi((shift - SUB_BITS) as i32)
}

impl Hist {
    /// Quantile `q` in `(0, 1)`, interpolated linearly inside the bucket
    /// that holds it. The line's own `p50`/`p99` fields are bucket lower
    /// bounds, ~3 % apart, and would read the same on most runs; the
    /// interpolated value moves with every sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: f64 = self.buckets.iter().map(|&(_, c)| c).sum();
        let rank = q.clamp(0.0, 1.0) * total;
        let mut seen = 0.0;
        for &(idx, count) in &self.buckets {
            if seen + count >= rank {
                let (lo, hi) = (bucket_lower(idx), bucket_lower(idx + 1));
                return lo + (hi - lo) * ((rank - seen) / count).clamp(0.0, 1.0);
            }
            seen += count;
        }
        self.buckets
            .last()
            .map_or(0.0, |&(i, _)| bucket_lower(i + 1))
    }
}

/// The `key=value` pairs of an `event=<name> ...` line, if `line` is the
/// event called `name`. Quoted values lose their quotes.
pub fn event_fields(line: &str, name: &str) -> Option<Vec<(String, String)>> {
    let rest = line.strip_prefix("event=")?;
    let (event, rest) = rest.split_once(' ').unwrap_or((rest, ""));
    if event != name {
        return None;
    }
    let mut fields = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        while chars.peek() == Some(&' ') {
            chars.next();
        }
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return Some(fields);
        }
        let mut value = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            while let Some(c) = chars.next() {
                match c {
                    '\\' => value.extend(chars.next()),
                    '"' => break,
                    c => value.push(c),
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ' ' {
                    break;
                }
                value.push(c);
                chars.next();
            }
        }
        fields.push((key, value));
    }
}

/// Field `key` of the first `event=<name>` line among `lines`.
pub fn event_field(lines: &[String], name: &str, key: &str) -> Option<String> {
    lines
        .iter()
        .find_map(|l| event_fields(l, name))
        .and_then(|fields| fields.into_iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
}

/// How far an open-loop generator kept up: decisions made as a share of
/// the decisions its schedule offers — `rate` arrivals per client per
/// second, each bringing `1 + burst_p * (burst_size - 1)` requests on
/// average — over `secs` seconds.
pub fn offered_rate_met(
    decisions: f64,
    rate: f64,
    clients: f64,
    burst_p: f64,
    burst_size: f64,
    secs: f64,
) -> f64 {
    decisions / (rate * clients * (1.0 + burst_p * (burst_size - 1.0)) * secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A final line captured from `live --duration-secs 1 --stats-every
    /// 60000 --trace-sample 0` (histogram buckets thinned by hand).
    const CAPTURED: &str = r#"{"schema":"ta-stats/v2","seq":0,"uptime_ms":1012,"counters":{"admit_requests":1000,"admit_reactive_sent":150,"admit_reactive_held":850,"round_rounds":2000000,"round_proactive_sent":11,"journal_fsyncs":0,"journal_dropped_records":0,"health_degradations":0},"gauges":{"journal_queue_depth":3,"durability_suspended":0},"histograms":{"admit_ns":{"count":1000,"sum":68000,"max":2277536,"p50":60,"p90":84,"p99":120,"p999":248,"buckets":[[40,100],[60,500],[64,390],[100,10]]},"fsync_ns":{"count":0,"sum":0,"max":0,"p50":0,"p90":0,"p99":0,"p999":0,"buckets":[]}},"health":{"policy":"degrade","granter":"healthy"}}"#;

    #[test]
    fn extracts_counters_gauges_and_histograms() {
        let s = StatsLine::parse(CAPTURED).expect("a v2 line");
        assert_eq!(s.counter("admit_requests"), 1000.0);
        assert_eq!(s.counter("admit_reactive_held"), 850.0);
        assert_eq!(s.counter("no_such_counter"), 0.0);
        assert_eq!(s.gauge("journal_queue_depth"), 3.0);
        let h = s.hist("admit_ns").expect("admit histogram");
        assert_eq!(h.count, 1000.0);
        assert_eq!(h.buckets.len(), 4);
        // An empty histogram is reported as absent, not as zeros.
        assert!(s.hist("fsync_ns").is_none());
        assert!(s.hist("nope").is_none());
        // Other lines are not stats lines.
        assert!(StatsLine::parse("event=conservation ok=true").is_none());
        assert!(StatsLine::parse(r#"{"schema":"ta-stats/v1"}"#).is_none());
    }

    #[test]
    fn bucket_bounds_follow_the_wire_layout() {
        // Exact below 32, then 32 sub-buckets per octave.
        assert_eq!(bucket_lower(0), 0.0);
        assert_eq!(bucket_lower(31), 31.0);
        assert_eq!(bucket_lower(32), 32.0);
        assert_eq!(bucket_lower(33), 33.0);
        assert_eq!(bucket_lower(64), 64.0);
        assert_eq!(bucket_lower(65), 66.0);
        assert_eq!(bucket_lower(96), 128.0);
        assert_eq!(bucket_lower(97), 132.0);
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let s = StatsLine::parse(CAPTURED).unwrap();
        let h = s.hist("admit_ns").unwrap();
        // Rank 500 of 1000: 100 samples below bucket 60, so 400/500 of
        // the way through bucket 60 = [60, 61).
        assert!((h.quantile(0.5) - 60.8).abs() < 1e-9);
        // Rank 990 is the last sample of bucket 64 = [64, 66).
        assert!((h.quantile(0.99) - 66.0).abs() < 1e-9);
        // The top of the histogram is the last bucket's upper bound.
        assert_eq!(h.quantile(1.0), bucket_lower(101));
    }

    #[test]
    fn event_lines_split_into_fields() {
        let line =
            r#"event=recovery ok=false reason=truncated detail="surviving prefix is \"ok\"" n=3"#;
        let f = event_fields(line, "recovery").unwrap();
        assert_eq!(f[0], ("ok".into(), "false".into()));
        assert_eq!(f[2].1, "surviving prefix is \"ok\"");
        assert_eq!(f[3], ("n".into(), "3".into()));
        assert!(event_fields(line, "recovered").is_none());
        assert!(event_fields("throughput: 5", "recovery").is_none());
        let lines = vec![
            "live: strategy".to_string(),
            "event=conservation ok=true balances_sum=166092 initial=0".to_string(),
        ];
        assert_eq!(
            event_field(&lines, "conservation", "balances_sum").as_deref(),
            Some("166092")
        );
        assert_eq!(event_field(&lines, "conservation", "nope"), None);
    }

    #[test]
    fn offered_rate_counts_bursts() {
        // 2 arrivals/client/s x 100k clients x (1 + 0.05 * 7) x 4 s = 1.08M.
        let met = offered_rate_met(1_080_000.0, 2.0, 100_000.0, 0.05, 8.0, 4.0);
        assert!((met - 1.0).abs() < 1e-12);
        let behind = offered_rate_met(540_000.0, 2.0, 100_000.0, 0.05, 8.0, 4.0);
        assert!((behind - 0.5).abs() < 1e-12);
    }
}
