//! Shared pieces of the judged benchmark (see `README.md` beside
//! `Cargo.toml`, and `BENCHMARK.json` at the repository root).
//!
//! Nothing here calls into the workspace's crates: the two binaries do.
//! `ta-bench` drives the workloads through the shipped `live` binary and
//! `ta_experiments::runner`; `ta-bench-layers` is the layer ladder.

#![warn(missing_docs)]

pub mod catalog;
pub mod child;
pub mod json;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod statsline;

/// Default workload seed; the held-out seed for checking a claim is 29.
pub const DEFAULT_SEED: u64 = 17;

/// Parses `key=value` tokens of one whitespace-separated line (the format
/// the benchmark's own child processes report in).
pub fn kv_line(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.split_ascii_whitespace()
        .filter_map(|tok| tok.split_once('='))
}

/// Value of `key` in a `key=value` line, parsed.
pub fn kv_get<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    kv_line(line)
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_lines_parse() {
        let line = "rep wall_ns=1500 events=25560251 digest=9f3a ok";
        assert_eq!(kv_get::<u64>(line, "wall_ns"), Some(1500));
        assert_eq!(kv_get::<String>(line, "digest").as_deref(), Some("9f3a"));
        assert_eq!(kv_get::<u64>(line, "digest"), None);
        assert_eq!(kv_get::<u64>(line, "missing"), None);
    }
}
