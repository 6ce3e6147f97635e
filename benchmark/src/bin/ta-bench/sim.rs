//! The two simulator workloads. They run in a child of this binary, so
//! that `TA_THREADS` and `TA_PROFILE` (both read once per process by the
//! runner) are set from outside, a runaway run can be killed, and peak
//! memory is the simulation's alone.
//!
//! The child reaches the simulator only through
//! `ta_experiments::runner::{prepare_topology, run_grid_prepared}` on
//! `ExperimentSpec::paper_defaults(..)` grids — the entry every figure
//! binary uses.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ta_benchmark::child;
use ta_benchmark::procfs;
use ta_benchmark::report::Outcome;
use ta_benchmark::spans::Spans;
use ta_benchmark::stats::{median, quartiles};
use ta_benchmark::{kv_get, kv_line};
use ta_experiments::runner::{prepare_topology, run_grid_prepared};
use ta_experiments::spec::{AppKind, ExperimentSpec};
use token_account::StrategySpec;

use crate::{run_ladder, Ctx};

/// Pool size exported to the child: the benchmark is sized for two cores.
const THREADS: usize = 2;

/// The strategies of the paper's figures, `proactive` first (the
/// baseline every token strategy must beat on gossip learning).
const STRATEGIES: [(&str, StrategySpec); 4] = [
    ("proactive", StrategySpec::Proactive),
    ("simple", StrategySpec::Simple { c: 10 }),
    ("generalized", StrategySpec::Generalized { a: 5, c: 10 }),
    ("randomized", StrategySpec::Randomized { a: 5, c: 10 }),
];

/// The grids of one repetition: each inner list shares one topology.
fn grids(workload: &str, seed: u64, smoke: bool) -> Vec<Vec<ExperimentSpec>> {
    match workload {
        // The paper's figures at reduced scale: three applications x four
        // strategies x two runs, failure-free. Eight jobs per grid fill
        // the two-worker pool, so every replica runs on the serial engine
        // and its working set stays in cache.
        "sim_paper_grid" => {
            let (n, rounds) = if smoke { (300, 40) } else { (2000, 150) };
            [
                AppKind::GossipLearning,
                AppKind::PushGossip,
                AppKind::ChaoticIteration,
            ]
            .into_iter()
            .map(|app| {
                STRATEGIES
                    .iter()
                    .map(|&(_, strategy)| {
                        ExperimentSpec::paper_defaults(app, strategy, n)
                            .with_rounds(rounds)
                            .with_runs(2)
                            .with_seed(seed)
                    })
                    .collect()
            })
            .collect()
        }
        // One big replica under churn: one job for two workers, so the
        // runner picks the sharded engine (S = 2); the working set is far
        // beyond L2 and churn callbacks and neighbour resampling are live.
        "sim_big_churn" => {
            let (n, rounds) = if smoke { (5000, 30) } else { (100_000, 40) };
            vec![vec![ExperimentSpec::paper_defaults(
                AppKind::PushGossip,
                StrategySpec::Randomized { a: 5, c: 10 },
                n,
            )
            .with_rounds(rounds)
            .with_runs(1)
            .with_seed(seed)
            .with_smartphone_churn()]]
        }
        other => unreachable!("`{other}` is not a simulator workload"),
    }
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The child: repeats the workload's grids until `seconds` of measured
/// time are spent (at least twice, so determinism can be checked) and
/// reports each repetition on one `rep` line.
pub fn child_main(workload: &str, seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    if !matches!(workload, "sim_paper_grid" | "sim_big_churn") {
        eprintln!("ta-bench: `{workload}` is not a simulator workload");
        return ExitCode::FAILURE;
    }
    let grids = grids(workload, seed, smoke);
    let mut spans = Spans::new();
    let mut measured = 0.0;
    let mut reps = 0;
    // What the runner returns when `TA_PROFILE=1` (all zero otherwise).
    let mut profiles = Vec::new();
    while reps < 2 || (!smoke && measured < seconds) {
        reps += 1;
        let rep_span = spans.open("benchmark.rep", None);
        let (mut prep_ns, mut wall_ns, mut cpu_ticks) = (0u64, 0u64, 0u64);
        let (mut events, mut jobs) = (0u64, 0usize);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut finals = Vec::new();
        for specs in &grids {
            let t0 = Instant::now();
            let span = spans.open("experiments.prepare_topology", Some(rep_span));
            let prepared = match prepare_topology(&specs[0]) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ta-bench: prepare_topology: {e}");
                    return ExitCode::FAILURE;
                }
            };
            spans.close(span, 0);
            prep_ns += t0.elapsed().as_nanos() as u64;

            let cpu0 = procfs::self_cpu_ticks();
            let t0 = Instant::now();
            let span = spans.open("experiments.run_grid", Some(rep_span));
            let results = match run_grid_prepared(specs, &prepared) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ta-bench: run_grid_prepared: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let grid_events: u64 = results
                .iter()
                .flat_map(|r| &r.runs)
                .map(|run| run.sim.events_processed)
                .sum();
            spans.close(span, grid_events);
            wall_ns += t0.elapsed().as_nanos() as u64;
            cpu_ticks += procfs::self_cpu_ticks() - cpu0;

            events += grid_events;
            for result in &results {
                jobs += result.runs.len();
                for run in &result.runs {
                    fnv1a(&mut digest, run.sim.events_processed);
                    fnv1a(
                        &mut digest,
                        run.metric.last_value().unwrap_or(0.0).to_bits(),
                    );
                }
                let label = STRATEGIES
                    .iter()
                    .find(|(_, strategy)| *strategy == result.spec.strategy);
                if let (AppKind::GossipLearning, Some((label, _))) = (result.spec.app, label) {
                    finals.push((label, result.metric.last_value().unwrap_or(0.0)));
                }
                profiles.push(result.profile);
            }
        }
        spans.close(rep_span, events);
        measured += wall_ns as f64 / 1e9;
        println!(
            "rep prep_ns={prep_ns} wall_ns={wall_ns} cpu_ns={} events={events} jobs={jobs} digest={digest:016x}",
            cpu_ticks as f64 * procfs::TICK_NS
        );
        if !finals.is_empty() {
            let line: Vec<String> = finals.iter().map(|(l, v)| format!("{l}={v}")).collect();
            println!("gossip_learning_final {}", line.join(" "));
        }
    }
    let mut total = profiles[0];
    for p in &profiles[1..] {
        total.merge(p);
    }
    println!(
        "profile reps={reps} batches={} batch_events={} windows={} window_ns={} claims={} \
         steals={} skipped_windows={} mailbox_messages={} mailbox_depth_max={}",
        total.batches,
        total.batch_events,
        total.windows,
        total.window_ns,
        total.claims,
        total.steals,
        total.skipped_windows,
        total.mailbox_messages,
        total.mailbox_depth_max
    );
    print!("{}", spans.export());
    println!("rss_kb={}", procfs::self_vm_hwm_kb());
    ExitCode::SUCCESS
}

/// One repetition as the child reported it.
#[derive(Debug)]
struct Rep {
    prep_s: f64,
    wall_s: f64,
    cpu_ns: f64,
    events: f64,
    jobs: f64,
    digest: String,
}

/// What one child run produced.
struct ChildReport {
    run: child::ChildRun,
    reps: Vec<Rep>,
}

fn run_child(name: &str, ctx: &Ctx, seconds: f64, profiled: bool) -> Result<ChildReport, String> {
    let mut cmd = Command::new(&ctx.self_bin);
    cmd.args(["--sim-child", name, "--seed", &ctx.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .env("TA_THREADS", THREADS.to_string())
        .env_remove("TA_SHARDS")
        .env_remove("TA_PIN")
        .env_remove("TA_PROFILE");
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    if profiled {
        cmd.env("TA_PROFILE", "1");
    }
    let run = child::run_plain(cmd, Duration::from_secs_f64(seconds + 15.0))
        .map_err(|e| format!("could not run the simulator child: {e}"))?;
    if !run.ok() {
        return Err(format!(
            "simulator child exited {:?}{}",
            run.exit_code,
            if run.timed_out {
                " (killed: overtime)"
            } else {
                ""
            }
        ));
    }
    let reps: Vec<Rep> = run
        .lines
        .iter()
        .filter(|l| l.starts_with("rep "))
        .filter_map(|l| {
            Some(Rep {
                prep_s: kv_get::<f64>(l, "prep_ns")? / 1e9,
                wall_s: kv_get::<f64>(l, "wall_ns")? / 1e9,
                cpu_ns: kv_get(l, "cpu_ns")?,
                events: kv_get(l, "events")?,
                jobs: kv_get(l, "jobs")?,
                digest: kv_get(l, "digest")?,
            })
        })
        .collect();
    if reps.is_empty() {
        return Err("simulator child reported no repetition".into());
    }
    Ok(ChildReport { run, reps })
}

/// `sim_paper_grid` and `sim_big_churn`.
pub fn run(name: &str, ctx: &Ctx, spans: &mut Spans, root: usize) -> Outcome {
    let mut out = Outcome::default();
    // A traced run spends half its seconds untraced and half under
    // `TA_PROFILE=1`; the difference is the tracing overhead.
    let plans: &[bool] = if ctx.traced { &[false, true] } else { &[false] };
    let mut reports = Vec::new();
    for &profiled in plans {
        let span = spans.open(
            if profiled {
                "benchmark.sim_child_profiled"
            } else {
                "benchmark.sim_child"
            },
            Some(root),
        );
        let started = spans.now_ns();
        let report = run_child(name, ctx, ctx.seconds / plans.len() as f64, profiled);
        spans.close(span, 0);
        if let Some(r) = out.check(report) {
            spans.import(r.run.lines.iter().map(String::as_str), span, started);
            reports.push((profiled, r));
        }
    }

    // Every repetition of a seed must process exactly the same events and
    // end on exactly the same metric values, traced or not.
    let reference = reports
        .first()
        .map(|(_, r)| (r.reps[0].digest.clone(), r.reps[0].events));
    for (_, report) in &reports {
        for (i, rep) in report.reps.iter().enumerate() {
            let same = reference
                .as_ref()
                .is_some_and(|(d, e)| *d == rep.digest && *e == rep.events);
            out.attempt(if same {
                Ok(())
            } else {
                Err(format!(
                    "rep {i}: digest {} / {} events differ from the first repetition's {reference:?}",
                    rep.digest, rep.events
                ))
            });
        }
        // Paper-shape sanity: every token strategy beats the proactive
        // baseline on gossip learning's final metric (higher is better).
        for line in report
            .run
            .lines
            .iter()
            .filter(|l| l.starts_with("gossip_learning_final "))
            .take(1)
        {
            let finals: Vec<(&str, f64)> = kv_line(line)
                .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
                .collect();
            let baseline = finals.iter().find(|(k, _)| *k == "proactive").map(|f| f.1);
            let beaten = baseline.is_some_and(|b| {
                finals.len() == STRATEGIES.len()
                    && finals.iter().all(|&(k, v)| k == "proactive" || v > b)
            });
            out.attempt(if beaten {
                Ok(())
            } else {
                Err(format!("a token strategy does not beat proactive: {line}"))
            });
        }
    }

    let Some((_, plain)) = reports.iter().find(|(profiled, _)| !profiled) else {
        return out;
    };
    let reps = &plain.reps;
    let per_s: Vec<f64> = reps.iter().map(|r| r.events / r.wall_s).collect();
    let wall_ns: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e9).collect();
    let preps: Vec<f64> = reps.iter().map(|r| r.prep_s).collect();
    // Child start and teardown: its wall that no repetition accounts for.
    let accounted: f64 = reps.iter().map(|r| r.prep_s + r.wall_s).sum();
    let overhead = (plain.run.wall.as_secs_f64() - accounted).max(0.0);
    let events: f64 = reps.iter().map(|r| r.events).sum();
    out.set_median(
        "ops_per_s",
        &per_s,
        "simulated events per second of run_grid_prepared",
    );
    out.set_median("op_p50_ns", &wall_ns, "one repetition of the grid");
    if let Some([_, _, q3]) = quartiles(&wall_ns) {
        out.set("op_tail_ns", q3, "upper quartile of the repetitions");
    }
    out.set(
        "cpu_ns_per_op",
        reps.iter().map(|r| r.cpu_ns).sum::<f64>() / events,
        "process user+sys CPU per event, all repetitions",
    );
    out.set_trimean(
        "setup_s",
        &preps.iter().map(|p| p + overhead).collect::<Vec<_>>(),
        "trimean of prepare_topology + child start and teardown",
    );
    let rss = plain
        .run
        .last_line_with("rss_kb=")
        .and_then(|l| kv_get::<f64>(l, "rss_kb"))
        .unwrap_or(plain.run.hwm_kb as f64);
    out.set("peak_rss_mb", rss / 1024.0, "");

    if ctx.traced {
        out.set(
            "sim.engine.events_total",
            reps[0].events,
            "exact, per repetition",
        );
        out.set("experiments.pool_jobs", reps[0].jobs, "per repetition");
        out.set_median(
            "experiments.prepare_topology_ms",
            &preps.iter().map(|p| p * 1e3).collect::<Vec<_>>(),
            "",
        );
        out.set_median(
            "experiments.run_grid_s",
            &reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
            "",
        );
        if let Some((_, profiled)) = reports.iter().find(|(p, _)| *p) {
            if let Some(line) = profiled.run.last_line_with("profile ") {
                let get = |key| kv_get::<f64>(line, key).unwrap_or(0.0);
                let n = get("reps").max(1.0);
                if get("batches") > 0.0 {
                    out.set(
                        "sim.engine.mean_batch",
                        get("batch_events") / get("batches"),
                        "",
                    );
                }
                out.set("sim.shard.windows", get("windows") / n, "per repetition");
                if get("windows") > 0.0 {
                    out.set(
                        "sim.shard.window_us_mean",
                        get("window_ns") / get("windows") / 1e3,
                        "",
                    );
                }
                out.set("sim.shard.claims", get("claims") / n, "per repetition");
                out.set("sim.shard.steals", get("steals") / n, "per repetition");
                out.set(
                    "sim.shard.skipped_windows",
                    get("skipped_windows") / n,
                    "per repetition",
                );
                out.set(
                    "sim.shard.mailbox_messages",
                    get("mailbox_messages") / n,
                    "per repetition",
                );
                out.set("sim.shard.mailbox_depth_max", get("mailbox_depth_max"), "");
            }
            let profiled_per_s: Vec<f64> =
                profiled.reps.iter().map(|r| r.events / r.wall_s).collect();
            if let (Some(p), Some(u)) = (median(&profiled_per_s), median(&per_s)) {
                out.set(
                    "benchmark.trace_overhead_share",
                    1.0 - p / u,
                    "TA_PROFILE=1 vs untraced events per second",
                );
            }
        }
        run_ladder(ctx, "sim", None, &mut out, spans, root);
        out.set(
            "apps.self_ns_per_event",
            1e9 * THREADS as f64 / out.value("ops_per_s").max(1.0)
                - out.value("sim.engine.dispatch_ns_per_event"),
            "thread-ns per event minus the echo-driver dispatch rung",
        );
    }
    out
}
