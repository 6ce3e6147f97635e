//! Fuzzes the one command-line parser (`ta_experiments::cli`) with
//! arbitrary argv, for each of its three flag tables (`live`, the
//! figures, `live_top`):
//!
//! - parsing never panics;
//! - every error names a flag of the table, or the offending token;
//! - a parsed option set, rendered back to argv, parses to itself.
//!
//! Argv is drawn from the table's flag names, `--help`, edge numbers
//! (`nan`, `inf`, `-1`, `1e300`, `0`, `u64::MAX`, …), values of every
//! custom syntax, and junk; half the draws are a flag followed by one
//! such token, so that many argv parse and the round trip is exercised.

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{TestRng, TestRunner};
use ta_experiments::cli::{help, parse, FigureOpts, Kind, LiveOpts, Options, TopOpts};
use ta_live::loadgen::ArrivalMode;
use ta_live::persist::FaultPlan;
use token_account::StrategySpec;

/// Values a flag could be given: edge numbers, every custom syntax
/// (valid and not), addresses, paths and junk.
const TOKENS: &[&str] = &[
    "nan",
    "inf",
    "-inf",
    "-1",
    "1e300",
    "0",
    "1",
    "7",
    "0.5",
    "2.25",
    "0.0001",
    "18446744073709551615",
    "18446744073709551616",
    "4294967295",
    "4294967296",
    "",
    " ",
    "--help",
    "-h",
    "--",
    "--bogus",
    "x",
    "proactive",
    "reactive:3",
    "reactive:",
    "simple:10",
    "simple",
    "generalized:5,10",
    "generalized:5",
    "randomized:5,10",
    "randomized:a,b",
    "open",
    "closed",
    "sideways",
    "0.1,8",
    "0.5,abc",
    "nan,4",
    "1.5,4",
    "0,4",
    "torn_tail",
    "io_error_n:3",
    "io_error_n",
    "enospc_after:zero",
    "torn_tail,granter_stall",
    "degrade",
    "halt",
    "exit",
    "panic",
    "127.0.0.1:9900",
    "h:1",
    "9900",
    "/tmp/ta-cli-fuzz",
    "results",
];

/// Draws one argv for the table of `O`.
fn argv<O: Options>(rng: &mut TestRng) -> Vec<String> {
    let flags = O::FLAGS;
    let token = prop_oneof![
        4 => (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        3 => (0..flags.len()).prop_map(move |i| flags[i].name.to_string()),
        1 => any::<u64>().prop_map(|n| n.to_string()),
    ];
    let chunk = (any::<bool>(), 0..flags.len(), token).prop_map(move |(pair, i, tok)| {
        match (pair, &flags[i].kind) {
            (true, Kind::Switch(_)) => vec![flags[i].name.to_string()],
            (true, _) => vec![flags[i].name.to_string(), tok],
            (false, _) => vec![tok],
        }
    });
    vec(chunk, 0..10usize).generate(rng).concat()
}

/// Runs the three properties over 2000 argv for the table of `O`, each
/// led by `base`, with `render` mapping options back to argv. Returns
/// how many argv parsed, so the caller can check the round trip ran.
fn fuzz<O: Options + PartialEq + Debug>(
    name: &str,
    base: &[&str],
    render: fn(&O) -> Vec<String>,
) -> u32 {
    let mut parsed = 0;
    TestRunner::new(ProptestConfig::with_cases(2000)).run(name, |rng| {
        let args = [base.iter().map(|s| s.to_string()).collect(), argv::<O>(rng)].concat();
        match parse::<O>(args.clone()) {
            Ok(None) => assert!(args.iter().any(|a| a == "--help" || a == "-h")),
            Ok(Some(opts)) => {
                parsed += 1;
                let again = render(&opts);
                assert_eq!(
                    parse::<O>(again.clone()),
                    Ok(Some(opts)),
                    "{args:?} → {again:?}"
                );
            }
            Err(msg) => assert!(
                O::FLAGS.iter().any(|f| msg.contains(f.name))
                    || args.iter().any(|t| msg.contains(&format!("`{t}`"))),
                "{args:?}: `{msg}` names neither a flag nor a token"
            ),
        }
    });
    parsed
}

#[test]
fn figure_flags_fuzz() {
    assert!(fuzz::<FigureOpts>("figure_flags_fuzz", &[], figure_argv) > 100);
}

#[test]
fn live_flags_fuzz() {
    assert!(fuzz::<LiveOpts>("live_flags_fuzz", &[], live_argv) > 100);
}

#[test]
fn top_flags_fuzz() {
    // `--addr` is required, so the first run leads every argv with one;
    // the second draws argv bare.
    assert!(fuzz::<TopOpts>("top_flags_fuzz", &["--addr", "h:1"], top_argv) > 100);
    assert!(fuzz::<TopOpts>("top_flags_fuzz_bare", &[], top_argv) > 0);
}

/// `--help` lists every entry of each table exactly once, on a line of
/// its own (continuation lines of a help text are indented further).
#[test]
fn help_lists_every_flag_once() {
    fn check<O: Options>() {
        let text = help::<O>();
        let heads: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .filter(|l| !l.starts_with(' '))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let mut want: Vec<&str> = O::FLAGS.iter().map(|f| f.name).collect();
        want.push("--help");
        assert_eq!(heads, want, "{text}");
    }
    check::<FigureOpts>();
    check::<LiveOpts>();
    check::<TopOpts>();
}

fn pairs(args: &[(&str, Option<String>)]) -> Vec<String> {
    args.iter()
        .filter_map(|(flag, v)| v.as_ref().map(|v| [flag.to_string(), v.clone()]))
        .flatten()
        .collect()
}

fn switches(args: &[(&str, bool)]) -> Vec<String> {
    args.iter()
        .filter(|(_, on)| *on)
        .map(|(flag, _)| flag.to_string())
        .collect()
}

fn path(p: &std::path::Path) -> String {
    p.to_str().expect("argv paths are UTF-8").to_string()
}

fn figure_argv(o: &FigureOpts) -> Vec<String> {
    let mut a = pairs(&[
        ("--n", o.n.map(|v| v.to_string())),
        ("--runs", o.runs.map(|v| v.to_string())),
        ("--rounds", o.rounds.map(|v| v.to_string())),
        ("--seed", Some(o.seed.to_string())),
        ("--out", Some(path(&o.out_dir))),
    ]);
    a.extend(switches(&[("--full", o.full)]));
    a
}

fn strategy(s: StrategySpec) -> String {
    match s {
        StrategySpec::Proactive => "proactive".into(),
        StrategySpec::Reactive { k } => format!("reactive:{k}"),
        StrategySpec::Simple { c } => format!("simple:{c}"),
        StrategySpec::Generalized { a, c } => format!("generalized:{a},{c}"),
        StrategySpec::Randomized { a, c } => format!("randomized:{a},{c}"),
    }
}

fn faults(f: FaultPlan) -> String {
    let mut modes: Vec<String> = [
        ("kill_writer_mid_frame", f.kill_writer_mid_frame),
        ("drop_fsync", f.drop_fsync),
        ("crash_mid_snapshot", f.crash_mid_snapshot),
        ("poison_books", f.poison_books),
        ("torn_tail", f.torn_tail),
        ("corrupt_crc", f.corrupt_crc),
        ("corrupt_snapshot", f.corrupt_snapshot),
        ("writer_hang", f.writer_hang),
        ("granter_stall", f.granter_stall),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(m, _)| m.to_string())
    .collect();
    for (m, n) in [
        ("io_error_n", u64::from(f.io_error_n)),
        ("enospc_after", f.enospc_after),
        ("slow_io_ms", f.slow_io_ms),
    ] {
        if n > 0 {
            modes.push(format!("{m}:{n}"));
        }
    }
    modes.join(",")
}

fn live_argv(o: &LiveOpts) -> Vec<String> {
    let c = &o.cfg;
    let open = matches!(c.mode, ArrivalMode::Open { .. });
    let secs = |d: std::time::Duration| d.as_secs_f64().to_string();
    let mut a = pairs(&[
        ("--workers", Some(c.workers.to_string())),
        ("--clients", Some(o.clients.to_string())),
        ("--duration-secs", Some(secs(c.duration))),
        ("--strategy", Some(strategy(o.strategy))),
        ("--mode", Some(if open { "open" } else { "closed" }.into())),
        ("--rate", Some(o.rate.to_string())),
        (
            "--burst",
            c.burst.map(|b| format!("{},{}", b.probability, b.size)),
        ),
        ("--useful-prob", Some(c.useful_probability.to_string())),
        ("--shards", Some(o.shards.to_string())),
        (
            "--round-ms",
            Some(c.round_period.map_or(0, |d| d.as_millis()).to_string()),
        ),
        ("--seed", Some(c.seed.to_string())),
        ("--journal-dir", o.journal_dir.as_deref().map(path)),
        ("--snapshot-every", o.snapshot_every.map(secs)),
        ("--commit-ms", Some(o.commit.as_millis().to_string())),
        ("--fault", o.fault.map(faults)),
        ("--on-journal-fail", Some(o.on_journal_fail.to_string())),
        (
            "--stats-every",
            o.stats_every.map(|d| d.as_millis().to_string()),
        ),
        ("--trace-out", o.trace_out.as_deref().map(path)),
        ("--trace-sample", o.trace_sample.map(|n| n.to_string())),
        ("--obs-listen", o.obs_listen.clone()),
    ]);
    a.extend(switches(&[
        ("--crosscheck", o.crosscheck),
        ("--no-fsync", !o.fsync),
        ("--recover", o.recover_only),
    ]));
    a
}

fn top_argv(o: &TopOpts) -> Vec<String> {
    let mut a = pairs(&[
        ("--addr", Some(o.addr.clone())),
        ("--every", Some(o.every.as_millis().to_string())),
    ]);
    a.extend(switches(&[("--once", o.once)]));
    a
}
