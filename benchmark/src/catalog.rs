//! Every name the benchmark prints, in one place. `BENCHMARK.json` at the
//! repository root declares the same names; a unit test keeps the two in
//! step.

/// A metric name and its unit.
pub type MetricDecl = (&'static str, &'static str);

/// The six workloads, in the order the full suite runs them.
pub const WORKLOADS: &[&str] = &[
    "live_mem_closed",
    "live_prod_closed",
    "live_prod_open",
    "live_recover",
    "sim_paper_grid",
    "sim_big_churn",
];

/// End-to-end metrics: every workload reports every one (`--trace 0`).
/// What "operation" means per workload is in README.md.
pub const END_TO_END: &[MetricDecl] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ns_per_op", "ns"),
    ("op_p50_ns", "ns"),
    ("op_tail_ns", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A workload reports 0 for a layer it
/// does not exercise.
pub const PER_LAYER: &[MetricDecl] = &[
    ("core.decide_message_ns", "ns"),
    ("core.decide_round_ns", "ns"),
    ("core.reactive_share", "ratio"),
    ("core.proactive_share", "ratio"),
    ("live.accounts.lookup_ns", "ns"),
    ("live.accounts.lookup_1m_ns", "ns"),
    ("live.runtime.admit_ns", "ns"),
    ("live.runtime.admit_journaled_ns", "ns"),
    ("live.runtime.sweep_ns_per_account", "ns"),
    ("live.runtime.sweep_journaled_ns_per_account", "ns"),
    ("live.loadgen.ns_per_decision", "ns"),
    ("live.loadgen.self_ns", "ns"),
    ("live.loadgen.offered_rate_met", "ratio"),
    ("live.loadgen.admit_p99_ns", "ns"),
    ("live.histogram.record_ns", "ns"),
    ("live.granter.sweep_p50_us", "us"),
    ("live.granter.sweep_p99_us", "us"),
    ("live.granter.round_jitter_p50_us", "us"),
    ("live.granter.round_jitter_p99_us", "us"),
    ("live.granter.accounts_swept", "count"),
    ("live.persist.journal.record_ns", "ns"),
    ("live.persist.journal.record_range_ns", "ns"),
    ("live.persist.journal.commit_p50_ms", "ms"),
    ("live.persist.journal.commit_p99_ms", "ms"),
    ("live.persist.journal.fsync_p50_ms", "ms"),
    ("live.persist.journal.fsync_p99_ms", "ms"),
    ("live.persist.journal.fsyncs", "count"),
    ("live.persist.journal.bytes_per_record", "B"),
    ("live.persist.journal.records_per_frame", "count"),
    ("live.persist.journal.queue_depth", "count"),
    ("live.persist.journal.io_retries", "count"),
    ("live.persist.journal.dropped_records", "count"),
    ("live.persist.snapshot.freezes", "count"),
    ("live.persist.snapshot.freeze_ms_mean", "ms"),
    ("live.persist.snapshot.write_ms", "ms"),
    ("live.persist.recovery.recover_ms", "ms"),
    ("live.persist.recovery.records_per_s", "1/s"),
    ("live.persist.recovery.snapshot_load_ms", "ms"),
    ("live.persist.recovery.scan_mb_per_s", "MB/s"),
    ("telemetry.counter_add_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.trace_sampled", "count"),
    ("telemetry.trace_dropped", "count"),
    ("live.obs.stats_rtt_us", "us"),
    ("live.obs.watch_lines_received", "count"),
    ("live.obs.dropped_watch", "count"),
    ("live.obs.dropped_trace", "count"),
    ("live.health.degradations", "count"),
    ("live.health.granter_restarts", "count"),
    ("live.health.writer_restarts", "count"),
    ("sim.queue.push_pop_ns", "ns"),
    ("sim.queue.push_pop_uniform_ns", "ns"),
    ("sim.queue.drain_ns_per_event", "ns"),
    ("sim.engine.dispatch_ns_per_event", "ns"),
    ("sim.engine.mean_batch", "count"),
    ("sim.engine.events_total", "count"),
    ("sim.shard.windows", "count"),
    ("sim.shard.window_us_mean", "us"),
    ("sim.shard.claims", "count"),
    ("sim.shard.steals", "count"),
    ("sim.shard.skipped_windows", "count"),
    ("sim.shard.mailbox_messages", "count"),
    ("sim.shard.mailbox_depth_max", "count"),
    ("apps.self_ns_per_event", "ns"),
    ("overlay.generate_ms", "ms"),
    ("overlay.sample_online_ns", "ns"),
    ("churn.schedule_build_ms", "ms"),
    ("experiments.prepare_topology_ms", "ms"),
    ("experiments.run_grid_s", "s"),
    ("experiments.pool_jobs", "count"),
    ("benchmark.trace_overhead_share", "ratio"),
    ("benchmark.host_cores", "count"),
];

/// The declaration of metric `name`, if the catalog has it.
pub fn declared(name: &str) -> Option<MetricDecl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    declared(name).map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` as committed at the repository root.
    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::arr)
            .expect("section present")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::str).unwrap().to_string(),
                    m.get("unit").and_then(Json::str).unwrap_or("").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = manifest();
        let own = |decls: &[MetricDecl]| -> Vec<(String, String)> {
            decls
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("paths").and_then(Json::arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert_eq!(unit_of("setup_s"), Some("s"));
        assert_eq!(unit_of("sim.shard.windows"), Some("count"));
        assert_eq!(unit_of("nope"), None);
    }
}
