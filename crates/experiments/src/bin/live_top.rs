//! `live-top`: a rate view over a running `live --obs-listen` server.
//!
//! ```text
//! cargo run --release -p ta-experiments --bin live_top -- \
//!     --addr 127.0.0.1:9900 --every 500
//! ```
//!
//! Subscribes with `WATCH <ms>`, diffs consecutive `ta-stats/v2`
//! snapshots into rates (decisions/sec, reactive-held ratio, journal
//! bytes/sec, admit/fsync p99), and renders a compact refreshing table.
//! `--once` prints a single header + row after one interval and exits —
//! the CI-friendly probe mode, failing fast when the server is
//! unreachable or speaks the wrong schema.
//!
//! Without `--once` the watch is **resilient**: a server that is not up
//! yet, restarts, or drops the connection is retried with capped
//! exponential backoff (250 ms doubling to 5 s), and the budget resets
//! after every session that rendered at least one row. A clean finalize
//! after a healthy session still exits 0.

use std::process::ExitCode;
use std::time::Duration;

use ta_experiments::cli::{self, TopOpts};
use ta_experiments::scope::{render_header, render_row, Rates, ScopeClient, Stats};
use ta_telemetry::print_line;

/// First reconnect delay; doubles per failed session up to
/// [`BACKOFF_CAP`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(250);
/// Reconnect delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(5);
/// Consecutive failed sessions before giving up for good.
const MAX_ATTEMPTS: u32 = 8;

/// The next reconnect delay: double, capped.
fn next_backoff(d: Duration) -> Duration {
    d.saturating_mul(2).min(BACKOFF_CAP)
}

/// One watch session: connect, subscribe, render rows until the stream
/// ends. Returns how many rate rows were rendered alongside the outcome
/// (`Ok` = the stream ended cleanly, `Err` = connect/stream/parse
/// failure).
fn run_session(opts: &TopOpts) -> (u64, Result<(), String>) {
    let mut rows = 0u64;
    let outcome = (|| {
        let mut client =
            ScopeClient::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
        client.watch(opts.every)?;
        let mut prev: Option<Stats> = None;
        print_line(render_header());
        loop {
            let line = client.next_line()?;
            if line.is_empty() {
                // EOF: the server finalized (run over) or went away.
                return Ok(());
            }
            let cur = Stats::parse(&line)?;
            if let Some(p) = prev.as_ref() {
                if let Some(rates) = Rates::between(p, &cur) {
                    print_line(render_row(&cur, &rates));
                    rows += 1;
                    if opts.once {
                        return Ok(());
                    }
                }
            }
            prev = Some(cur);
        }
    })();
    (rows, outcome)
}

/// Runs watch sessions until one ends cleanly after rendering a row.
/// `--once` stays fail-fast (the CI probe mode); the interactive watch
/// retries failed sessions with capped exponential backoff, forgiving
/// the spent budget after every session that rendered at least one row.
fn watch(opts: &TopOpts) -> Result<(), String> {
    let mut backoff = BACKOFF_INITIAL;
    let mut failures = 0u32;
    loop {
        let (rows, outcome) = run_session(opts);
        if rows > 0 {
            backoff = BACKOFF_INITIAL;
            failures = 0;
        }
        let err = match outcome {
            // A clean end after a healthy session: the run is over.
            Ok(()) if rows > 0 => return Ok(()),
            Ok(()) => "stream ended before two snapshots arrived".to_string(),
            Err(e) => e,
        };
        if opts.once {
            return Err(err);
        }
        failures += 1;
        if failures >= MAX_ATTEMPTS {
            return Err(format!("giving up after {failures} attempts: {err}"));
        }
        eprintln!("live-top: {err}; reconnecting in {}ms", backoff.as_millis());
        std::thread::sleep(backoff);
        backoff = next_backoff(backoff);
    }
}

fn main() -> ExitCode {
    let opts = match cli::from_args::<TopOpts>(|msg| eprintln!("{msg}")) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    match watch(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("live-top: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let mut d = BACKOFF_INITIAL;
        let mut seen = vec![d];
        for _ in 0..6 {
            d = next_backoff(d);
            seen.push(d);
        }
        assert_eq!(seen[0], Duration::from_millis(250));
        assert_eq!(seen[1], Duration::from_millis(500));
        assert_eq!(seen[2], Duration::from_millis(1000));
        assert!(seen.iter().all(|d| *d <= BACKOFF_CAP));
        assert_eq!(*seen.last().unwrap(), BACKOFF_CAP);
        assert_eq!(next_backoff(BACKOFF_CAP), BACKOFF_CAP);
    }
}
