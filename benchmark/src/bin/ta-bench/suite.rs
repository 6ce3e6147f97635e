//! The whole benchmark in one command: every workload in its own child
//! process, one table at the end, and `--sets k` to check that two
//! complete sets of runs of one commit agree within every bound.

use std::process::{Command, ExitCode};
use std::time::Duration;

use ta_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use ta_benchmark::child;
use ta_benchmark::json::Json;
use ta_benchmark::report::parse_result_line;
use ta_benchmark::stats::worsening;

use crate::Ctx;

fn manifest() -> Option<Json> {
    Json::parse(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

/// `run_seconds` of the `BENCHMARK.json` in the current directory.
pub fn manifest_run_seconds() -> Option<f64> {
    manifest()?.get("run_seconds")?.num()
}

/// `(name, higher is better, bound)` of every declared end-to-end metric.
fn bounds() -> Vec<(String, bool, f64)> {
    manifest()
        .as_ref()
        .and_then(|doc| doc.get("end_to_end")?.arr())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.str()?.to_string(),
                m.get("better")?.str()? == "higher",
                m.get("bound")?.num()?,
            ))
        })
        .collect()
}

/// One workload's result line, as a child of the suite produced it.
struct Row {
    workload: &'static str,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs every workload once; `None` for one whose child printed no result.
fn run_set(ctx: &Ctx) -> Vec<Option<Row>> {
    WORKLOADS
        .iter()
        .map(|&workload| {
            let mut cmd = Command::new(&ctx.self_bin);
            cmd.args(["--workload", workload, "--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .args(["--trace", if ctx.traced { "1" } else { "0" }]);
            if ctx.smoke {
                cmd.arg("--smoke");
            }
            println!("== {workload}");
            let run = child::run(
                cmd,
                Duration::from_secs_f64(ctx.seconds + 60.0),
                |line| {
                    if !line.starts_with("{\"correct\"") {
                        println!("{line}");
                    }
                },
                |_| (),
            );
            let (run, ()) = match run {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ta-bench: could not run {workload}: {e}");
                    return None;
                }
            };
            let (failed, metrics) = run.lines.last().and_then(|l| parse_result_line(l))?;
            Some(Row {
                workload,
                // A child that died after printing still counts as failed.
                failed: failed.max(u64::from(!run.ok())),
                metrics,
            })
        })
        .collect()
}

fn print_summary(rows: &[Option<Row>], traced: bool) {
    let decls = if traced { PER_LAYER } else { END_TO_END };
    println!(
        "\n== summary ({} metrics)",
        if traced { "per-layer" } else { "end-to-end" }
    );
    print!("  {:<44} {:<6}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {w:>16}");
    }
    println!();
    for (name, unit) in decls {
        print!("  {name:<44} {unit:<6}");
        for row in rows {
            let value = row
                .as_ref()
                .and_then(|r| r.metrics.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v);
            match value {
                Some(v) => print!(
                    " {:>16}",
                    format!("{v:.6}")
                        .trim_end_matches('0')
                        .trim_end_matches('.')
                ),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    print!("  {:<44} {:<6}", "failed", "count");
    for row in rows {
        match row {
            Some(r) => print!(" {:>16}", r.failed),
            None => print!(" {:>16}", "no result"),
        }
    }
    println!();
}

/// Runs the suite `sets` times. Fails if any workload failed, or if any
/// end-to-end value of a later set is worse than the first set's by more
/// than the metric's bound in `BENCHMARK.json`.
pub fn run(ctx: &Ctx, sets: usize) -> ExitCode {
    let mut ok = true;
    let mut all: Vec<Vec<Option<Row>>> = Vec::new();
    for set in 0..sets {
        if sets > 1 {
            println!("\n==== set {} of {sets}", set + 1);
        }
        let rows = run_set(ctx);
        print_summary(&rows, ctx.traced);
        ok &= rows
            .iter()
            .all(|r| r.as_ref().is_some_and(|r| r.failed == 0));
        all.push(rows);
    }
    if sets > 1 && !ctx.traced {
        println!("\n== sets compared with set 1 (worse by, as a share; bound)");
        let bounds = bounds();
        for (set, rows) in all.iter().enumerate().skip(1) {
            for (base, now) in all[0].iter().zip(rows) {
                let (Some(base), Some(now)) = (base, now) else {
                    continue;
                };
                for (name, higher, bound) in &bounds {
                    let find = |r: &Row| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
                    let (Some(b), Some(n)) = (find(base), find(now)) else {
                        continue;
                    };
                    // Either direction counts: the two sets ran the same
                    // commit, so neither is the "better" one.
                    let moved = worsening(b, n, *higher).abs();
                    let verdict = if moved > *bound {
                        ok = false;
                        "OUT OF BOUND"
                    } else {
                        "ok"
                    };
                    println!(
                        "  set {} {:<18} {name:<14} {b:>16.4} -> {n:>16.4}  {moved:>7.4} ({bound}) {verdict}",
                        set + 1,
                        base.workload
                    );
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ta-bench: the benchmark FAILED (see above)");
        ExitCode::from(2)
    }
}
