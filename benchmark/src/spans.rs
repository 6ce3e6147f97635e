//! The benchmark's own span recorder.
//!
//! A span is one call the benchmark makes into a layer (a `live` child, a
//! `run_grid_prepared` call, one ladder rung, one `STATS` round trip):
//! name, start, end, the span that caused it, and how many operations it
//! covered. Spans stay in memory while the benchmark measures and are
//! written out when it ends. No spans are recorded inside the crates.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `experiments.run_grid`.
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End (equals `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operations the span covered (decisions, events, calls), 0 if none.
    pub ops: u64,
}

/// Time of every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus what children cover).
    pub self_ns: u64,
    /// Sum of their operation counts.
    pub ops: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, parent, now, now, 0)
    }

    /// Closes span `id` now, recording how many operations it covered.
    pub fn close(&mut self, id: usize, ops: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.ops = ops;
    }

    /// Records a finished span with explicit times.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            ops,
        });
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = span.start_ns;
        for (lo, hi) in covered {
            let lo = lo.max(reach);
            if hi > lo {
                union += hi - lo;
                reach = hi;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(union)
    }

    /// Total and self time per span name, in first-seen order.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut rows: Vec<LayerTime> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let row = match rows.iter().position(|r| r.name == span.name) {
                Some(i) => &mut rows[i],
                None => {
                    rows.push(LayerTime {
                        name: span.name.clone(),
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                        ops: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += span.end_ns - span.start_ns;
            row.self_ns += self.self_ns(id);
            row.ops += span.ops;
        }
        rows
    }

    /// The spans as `span <parent|-> <start_ns> <end_ns> <ops> <name>`
    /// lines, for a child process to hand its spans to its parent.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span {parent} {} {} {} {}",
                s.start_ns, s.end_ns, s.ops, s.name
            );
        }
        out
    }

    /// Adopts spans a child process [`export`](Spans::export)ed: parentless
    /// ones hang under `under`, and all times shift by `offset_ns` (when
    /// the child's clock started on this recorder's clock). Lines that are
    /// not span lines are skipped.
    pub fn import<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
        under: usize,
        offset_ns: u64,
    ) {
        let base = self.spans.len();
        for line in lines {
            let Some(rest) = line.strip_prefix("span ") else {
                continue;
            };
            let mut parts = rest.splitn(5, ' ');
            let (Some(parent), Some(start), Some(end), Some(ops), Some(name)) = (
                parts.next(),
                parts.next().and_then(|v| v.parse::<u64>().ok()),
                parts.next().and_then(|v| v.parse::<u64>().ok()),
                parts.next().and_then(|v| v.parse::<u64>().ok()),
                parts.next(),
            ) else {
                continue;
            };
            let parent = parent.parse::<usize>().map_or(under, |p| base + p);
            self.add(name, Some(parent), offset_ns + start, offset_ns + end, ops);
        }
    }

    /// One JSON object per span, newline-separated.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                quote(workload),
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.ops
            );
        }
        out
    }

    /// The per-name self-time table, one line per span name.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "  {:<50} {:>6} {:>12} {:>12} {:>14}\n",
            "span", "count", "total_ms", "self_ms", "ns_per_op"
        );
        for row in self.layer_times() {
            let per_op = if row.ops > 0 {
                format!("{:.1}", row.total_ns as f64 / row.ops as f64)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "  {:<50} {:>6} {:>12.3} {:>12.3} {:>14}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                per_op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// run[0,100] -> a[10,40], b[30,60] (overlaps a), c[70,80];
    /// a -> a1[15,25]; one span sticking out of its parent: d[90,120].
    fn tree() -> Spans {
        let mut s = Spans::new();
        let run = s.add("run", None, 0, 100, 0);
        let a = s.add("layer.a", Some(run), 10, 40, 3);
        s.add("layer.b", Some(run), 30, 60, 0);
        s.add("layer.a", Some(run), 70, 80, 2);
        s.add("layer.a1", Some(a), 15, 25, 0);
        s.add("layer.d", Some(run), 90, 120, 0);
        s
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let s = tree();
        // Children cover [10,60] + [70,80] + [90,100] = 70 of 100.
        assert_eq!(s.self_ns(0), 30);
        // a = 30 long, a1 covers 10.
        assert_eq!(s.self_ns(1), 20);
        // Leaves keep their whole duration.
        assert_eq!(s.self_ns(2), 30);
        assert_eq!(s.self_ns(4), 10);
    }

    #[test]
    fn layer_times_aggregate_by_name() {
        let rows = tree().layer_times();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["run", "layer.a", "layer.b", "layer.a1", "layer.d"]);
        let a = &rows[1];
        assert_eq!((a.count, a.total_ns, a.self_ns, a.ops), (2, 40, 30, 5));
        // Self times of a tree without overhang sum to the root's duration.
        let mut s = Spans::new();
        let root = s.add("root", None, 0, 50, 0);
        let k = s.add("kid", Some(root), 5, 45, 0);
        s.add("grandkid", Some(k), 10, 20, 0);
        let total: u64 = s.layer_times().iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn export_and_import_rebase_parents_and_times() {
        let child = tree();
        let mut parent = Spans::new();
        let top = parent.add("workload", None, 0, 1_000, 0);
        let proc_span = parent.add("child", Some(top), 100, 900, 0);
        let text = child.export();
        parent.import(
            text.lines().chain(["not a span", "span broken"]),
            proc_span,
            100,
        );
        assert_eq!(parent.spans().len(), 2 + 6);
        let run = &parent.spans()[2];
        assert_eq!(
            (run.parent, run.start_ns, run.end_ns),
            (Some(proc_span), 100, 200)
        );
        let a1 = &parent.spans()[6];
        assert_eq!(a1.name, "layer.a1");
        assert_eq!((a1.parent, a1.start_ns, a1.ops), (Some(3), 115, 0));
    }

    #[test]
    fn open_close_and_jsonl() {
        let mut s = Spans::new();
        let id = s.open("live.child", None);
        s.close(id, 42);
        assert!(s.spans()[id].end_ns >= s.spans()[id].start_ns);
        let text = s.to_jsonl("live_mem_closed");
        let doc = Json::parse(text.trim()).unwrap();
        assert_eq!(doc.get("name").and_then(Json::str), Some("live.child"));
        assert_eq!(
            doc.get("workload").and_then(Json::str),
            Some("live_mem_closed")
        );
        assert_eq!(doc.get("ops").and_then(Json::num), Some(42.0));
        assert_eq!(doc.get("parent"), Some(&Json::Null));
        assert!(s.render_table().contains("live.child"));
    }
}
