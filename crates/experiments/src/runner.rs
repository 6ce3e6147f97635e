//! Executing experiment specs: build, run, replicate, average.
//!
//! One [`ExperimentSpec`] maps to `spec.runs` independent simulations that
//! differ only in their per-run seed (fresh protocol randomness, fresh
//! churn draws), sharing the topology — exactly the Section 4.2 procedure
//! ("10 independent runs for every parameter combination, and the average
//! of these runs is shown"). Replicas execute on the bounded worker pool of
//! [`crate::pool`]; [`run_grid_prepared`] additionally flattens a whole
//! *(spec × run)* grid — a figure panel or the Section 4.2 sweep — into one
//! job list so every core stays busy across cells, not just within one.
//!
//! Every replica runs on the one engine of `ta-sim`; what varies is into
//! how many shards it is cut ([`ShardOpts`]). One shard — the replica on
//! the thread of its pool worker — is the choice while the flattened grid
//! fills the pool. When it cannot (one huge-N spec, a straggler tail),
//! replicas of shardable applications are cut into several shards that run
//! side by side. The runner alone makes that trade, per grid, from the
//! number of jobs and of pool workers, and caps intra-run worker threads
//! so that *concurrent replicas × threads per replica* never exceeds the
//! pool size. The shard count never changes a result; failure-free specs
//! additionally share one frozen `OnlineNeighbors` mirror across all their
//! runs (built once per prepared topology instead of once per job). A run
//! under churn builds its own mirror, and a sharded one cuts it into
//! per-shard pieces rather than copying it. The mirror is a run's only
//! copy of the out-lists: the shared topology stores each edge once, as
//! an in-edge, and every mirror is built from those.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ta_apps::app::{Application, ShardableApplication};
use ta_apps::chaotic::ChaoticIteration;
use ta_apps::gossip_learning::GossipLearning;
use ta_apps::protocol::{ProtocolStats, TokenProtocol};
use ta_apps::push_gossip::PushGossip;
use ta_churn::schedule::AvailabilitySchedule;
use ta_churn::synthetic::SmartphoneTraceModel;
use ta_metrics::TimeSeries;
use ta_overlay::generators::{k_out_random, watts_strogatz_strongly_connected, GenerateError};
use ta_overlay::sampling::OnlineNeighbors;
use ta_overlay::spectral::{
    dominant_eigenvector, NotStochasticError, REFERENCE_MAX_ITERS, REFERENCE_TOL,
};
use ta_overlay::Topology;
use ta_sim::config::{InvalidConfigError, SimConfig};
use ta_sim::engine::{SimStats, Simulation};
use ta_sim::rng::{SplitMix64, Xoshiro256pp};
use ta_sim::shard::{ShardOpts, ShardedSimulation};
use ta_sim::NodeId;
use ta_telemetry::ProfileData;
use token_account::{InvalidStrategyError, Strategy};

use crate::spec::{AppKind, ChurnKind, ExperimentSpec, TopologyKind};

/// Error running an experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// Topology generation failed.
    Topology(GenerateError),
    /// Strategy parameters invalid.
    Strategy(InvalidStrategyError),
    /// Simulator configuration invalid.
    Config(InvalidConfigError),
    /// The chaotic-iteration matrix was not column-stochastic.
    Spectral(NotStochasticError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Topology(e) => write!(f, "topology generation failed: {e}"),
            RunError::Strategy(e) => write!(f, "invalid strategy: {e}"),
            RunError::Config(e) => write!(f, "invalid simulation config: {e}"),
            RunError::Spectral(e) => write!(f, "spectral setup failed: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Topology(e) => Some(e),
            RunError::Strategy(e) => Some(e),
            RunError::Config(e) => Some(e),
            RunError::Spectral(e) => Some(e),
        }
    }
}

impl From<GenerateError> for RunError {
    fn from(e: GenerateError) -> Self {
        RunError::Topology(e)
    }
}
impl From<InvalidStrategyError> for RunError {
    fn from(e: InvalidStrategyError) -> Self {
        RunError::Strategy(e)
    }
}
impl From<InvalidConfigError> for RunError {
    fn from(e: InvalidConfigError) -> Self {
        RunError::Config(e)
    }
}
impl From<NotStochasticError> for RunError {
    fn from(e: NotStochasticError) -> Self {
        RunError::Spectral(e)
    }
}

/// The outcome of a single simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Metric series of this run.
    pub metric: TimeSeries,
    /// Average-token series (empty unless recording was enabled).
    pub tokens: TimeSeries,
    /// Protocol message counters.
    pub protocol: ProtocolStats,
    /// Engine counters.
    pub sim: SimStats,
    /// Messages sent per transfer-time slot (burstiness histogram,
    /// Section 3.4; the paper's setup has 100 slots per round Δ).
    pub sends_per_slot: Vec<u64>,
    /// Engine self-profiling totals (all-zero unless `TA_PROFILE=1`).
    pub profile: ProfileData,
}

/// `TA_PROFILE=1` turns on engine self-profiling for every run in the
/// process (checked once; the per-event cost is a dead branch otherwise).
fn profiling_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("TA_PROFILE").is_ok_and(|v| v == "1"))
}

/// Process-wide profile accumulator: every profiled run merges here, and
/// [`take_profile`] drains it for the report's `profile` block.
static PROFILE: std::sync::Mutex<Option<ProfileData>> = std::sync::Mutex::new(None);

fn note_profile(p: &ProfileData) {
    let mut total = PROFILE.lock().expect("profile accumulator");
    total.get_or_insert_with(ProfileData::default).merge(p);
}

/// Drains the accumulated self-profiling totals of every run executed
/// since the last call (always empty unless `TA_PROFILE=1`).
pub fn take_profile() -> ProfileData {
    PROFILE
        .lock()
        .expect("profile accumulator")
        .take()
        .unwrap_or_default()
}

/// Aggregated counters over all runs of an experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateStats {
    /// Mean messages sent per run (all kinds).
    pub mean_messages_sent: f64,
    /// Mean proactive sends per run.
    pub mean_proactive: f64,
    /// Mean reactive sends per run.
    pub mean_reactive: f64,
    /// Mean round ticks per run.
    pub mean_ticks: f64,
}

/// The averaged result of an experiment.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The spec that produced it.
    pub spec: ExperimentSpec,
    /// Mean metric over runs (the paper's plotted curves).
    pub metric: TimeSeries,
    /// Mean token balance over runs (empty unless recorded).
    pub tokens: TimeSeries,
    /// Per-run outcomes.
    pub runs: Vec<RunOutcome>,
    /// Aggregated counters.
    pub stats: AggregateStats,
    /// Merged engine self-profiling totals over all runs (all-zero
    /// unless `TA_PROFILE=1`).
    pub profile: ProfileData,
}

/// Builds the topology for a spec (shared across runs, as in the paper:
/// "the same random 20-out network is used").
pub fn build_topology(spec: &ExperimentSpec) -> Result<Topology, GenerateError> {
    let mut topo_seed = SplitMix64::new(spec.seed ^ 0x7069_7065);
    match spec.topology {
        TopologyKind::KOut { k } => {
            let mut rng = Xoshiro256pp::stream(topo_seed.next_u64(), 0x70);
            k_out_random(spec.n, k, &mut rng)
        }
        TopologyKind::WattsStrogatz { k, p } => {
            watts_strogatz_strongly_connected(spec.n, k, p, topo_seed.next_u64(), 50)
        }
    }
}

/// Per-run master seed derivation (stable across spec changes).
fn run_seed(spec: &ExperimentSpec, run: usize) -> u64 {
    let mut mixer = SplitMix64::new(spec.seed.wrapping_add(0x9e37 * run as u64));
    mixer.next_u64()
}

/// Builds the availability schedule for one run.
fn build_schedule(spec: &ExperimentSpec, run: usize) -> AvailabilitySchedule {
    match spec.churn {
        ChurnKind::None => AvailabilitySchedule::always_on(spec.n),
        ChurnKind::SmartphoneTrace => SmartphoneTraceModel::default().generate(
            spec.n,
            spec.duration,
            run_seed(spec, run) ^ 0xc4a9,
        ),
    }
}

fn build_config(spec: &ExperimentSpec, run: usize) -> Result<SimConfig, InvalidConfigError> {
    let mut builder = SimConfig::builder(spec.n)
        .delta(spec.delta)
        .transfer_time(spec.transfer)
        .duration(spec.duration)
        .sample_period(spec.sample_period)
        .drop_probability(spec.drop_probability)
        .tick_phase(spec.tick_phase)
        .seed(run_seed(spec, run));
    if let Some(p) = spec.injection_period() {
        builder = builder.injection_period(p);
    }
    builder.build()
}

/// Which face of the engine a replica runs on, as a type: `A`'s
/// [`TokenProtocol`] in, the finished protocol and the engine's books out.
trait Face<A: Application> {
    fn run(
        self,
        cfg: SimConfig,
        schedule: &AvailabilitySchedule,
        proto: TokenProtocol<A>,
    ) -> (TokenProtocol<A>, SimStats, ProfileData);
}

/// The whole network as one block on the calling thread: any application.
struct Whole;

impl<A: Application> Face<A> for Whole {
    fn run(
        self,
        cfg: SimConfig,
        schedule: &AvailabilitySchedule,
        proto: TokenProtocol<A>,
    ) -> (TokenProtocol<A>, SimStats, ProfileData) {
        let mut sim = Simulation::new(cfg, schedule, proto);
        sim.run_to_end();
        let profile = *sim.profile().data();
        let (proto, stats) = sim.into_parts();
        (proto, stats, profile)
    }
}

/// Cut into `shards` blocks (one block is the same run as [`Whole`]):
/// shardable applications. Sharding never changes results, so this is
/// purely a wall-clock scheduling choice, made by [`layout`].
impl<A> Face<A> for ShardOpts
where
    A: ShardableApplication + Send,
    A::Msg: Send,
{
    fn run(
        self,
        cfg: SimConfig,
        schedule: &AvailabilitySchedule,
        proto: TokenProtocol<A>,
    ) -> (TokenProtocol<A>, SimStats, ProfileData) {
        let mut sim = ShardedSimulation::new(cfg, schedule, proto, self);
        sim.run_to_end();
        let profile = sim.profile();
        let (proto, stats) = sim.into_parts();
        (proto, stats, profile)
    }
}

/// One replica: the strategy is built from the declarative
/// [`StrategySpec`](token_account::StrategySpec) and compiled by the
/// protocol into its decision table.
fn single_run<A: Application>(
    spec: &ExperimentSpec,
    run: usize,
    topo: &Arc<Topology>,
    mirror: Option<&Arc<OnlineNeighbors>>,
    make_app: impl FnOnce(&[bool]) -> A,
    face: impl Face<A>,
) -> Result<RunOutcome, RunError> {
    let strategy = spec.strategy.build().map_err(RunError::Strategy)?;
    let cfg = build_config(spec, run)?;
    let schedule = build_schedule(spec, run);
    let proto = build_protocol(spec, topo, mirror, &schedule, make_app, strategy);
    let (proto, sim, profile) = face.run(cfg, &schedule, proto);
    // The gate's claim counts are collected regardless; they are only
    // reported when profiling was asked for.
    let profile = if profiling_enabled() {
        note_profile(&profile);
        profile
    } else {
        ProfileData::default()
    };
    let results = proto.into_results();
    Ok(RunOutcome {
        metric: results.metric,
        tokens: results.tokens,
        protocol: results.stats,
        sim,
        sends_per_slot: results.sends_per_slot,
        profile,
    })
}

/// Construction of the Algorithm-4 driver. Failure-free specs reuse the
/// prepared grid's frozen online-neighbour `mirror` (an O(E) build
/// otherwise), which no transition ever mutates.
fn build_protocol<A: Application>(
    spec: &ExperimentSpec,
    topo: &Arc<Topology>,
    mirror: Option<&Arc<OnlineNeighbors>>,
    schedule: &AvailabilitySchedule,
    make_app: impl FnOnce(&[bool]) -> A,
    strategy: impl Strategy + 'static,
) -> TokenProtocol<A> {
    let initial_online: Vec<bool> = (0..spec.n)
        .map(|i| schedule.segment(NodeId::from_index(i)).initial_online)
        .collect();
    let app = make_app(&initial_online);
    let mut proto = match (mirror, spec.churn) {
        (Some(m), ChurnKind::None) => TokenProtocol::with_shared_peers(
            Arc::clone(topo),
            strategy,
            app,
            initial_online,
            Arc::clone(m),
        ),
        _ => TokenProtocol::new(Arc::clone(topo), strategy, app, initial_online),
    };
    proto = proto.with_reply_policy(spec.reply_policy);
    if spec.record_tokens {
        proto = proto.with_token_recording();
    }
    if spec.react_to_injections {
        proto = proto.with_injection_reaction();
    }
    if matches!(spec.app, AppKind::PushGossip) && matches!(spec.churn, ChurnKind::SmartphoneTrace) {
        proto = proto.with_pull_on_rejoin();
    }
    proto
}

/// Runs replica `run` of `spec`, cut as `opts` says where the application
/// can be cut at all (chaotic iteration cannot; it always runs whole).
fn dispatch_run(
    spec: &ExperimentSpec,
    run: usize,
    topo: &Arc<Topology>,
    reference: &Option<Arc<Vec<f64>>>,
    mirror: Option<&Arc<OnlineNeighbors>>,
    opts: ShardOpts,
) -> Result<RunOutcome, RunError> {
    match spec.app {
        AppKind::GossipLearning => {
            let make = |online: &[bool]| GossipLearning::new(spec.n, spec.transfer, online);
            single_run(spec, run, topo, mirror, make, opts)
        }
        AppKind::PushGossip => {
            let make = |online: &[bool]| PushGossip::new(spec.n, online);
            single_run(spec, run, topo, mirror, make, opts)
        }
        AppKind::ChaoticIteration => {
            let reference = reference
                .as_ref()
                .expect("reference eigenvector precomputed for chaotic runs");
            let make = |_online: &[bool]| {
                let mut app =
                    ChaoticIteration::with_reference(Arc::clone(topo), reference.as_ref().clone());
                // Algorithm 3 starts from "any positive value"; a random
                // start makes the convergence race measurable (constant
                // buffers begin almost at the fixed point).
                let mut rng = Xoshiro256pp::stream(run_seed(spec, run), 0xb0f);
                app.randomize_buffers(&mut rng);
                app
            };
            single_run(spec, run, topo, mirror, make, Whole)
        }
    }
}

/// A topology (and, for chaotic iteration, its reference eigenvector)
/// prepared once and shared across the experiments of a panel or sweep.
#[derive(Debug, Clone)]
pub struct PreparedTopology {
    /// The shared overlay.
    pub topo: Arc<Topology>,
    /// Reference dominant eigenvector (chaotic iteration only).
    pub reference: Option<Arc<Vec<f64>>>,
    /// Frozen all-online neighbour mirror, shared by every run of a
    /// failure-free spec (the O(E) build — one pass over the edge set —
    /// would otherwise repeat once per (spec × run) job). Only failure-free
    /// specs get one, so no transition ever mutates it; runs under churn
    /// build their own.
    pub frozen_mirror: Option<Arc<OnlineNeighbors>>,
}

/// Builds the topology for `spec` and, for chaotic iteration, computes the
/// reference eigenvector once. Failure-free specs also get the frozen
/// all-online neighbour mirror shared across their runs.
///
/// # Errors
///
/// Returns [`RunError`] on generation or spectral failures.
pub fn prepare_topology(spec: &ExperimentSpec) -> Result<PreparedTopology, RunError> {
    let topo = Arc::new(build_topology(spec)?);
    let reference = match spec.app {
        AppKind::ChaoticIteration => Some(Arc::new(dominant_eigenvector(
            &topo,
            REFERENCE_MAX_ITERS,
            REFERENCE_TOL,
        )?)),
        _ => None,
    };
    let frozen_mirror = match spec.churn {
        ChurnKind::None => Some(Arc::new(OnlineNeighbors::new(&topo, &vec![true; spec.n]))),
        ChurnKind::SmartphoneTrace => None,
    };
    Ok(PreparedTopology {
        topo,
        reference,
        frozen_mirror,
    })
}

/// Runs all replicas of `spec` (in parallel) and averages the series.
///
/// # Errors
///
/// Returns [`RunError`] if the topology, strategy, or configuration is
/// invalid; individual runs cannot fail once those are validated.
pub fn run_experiment(spec: &ExperimentSpec) -> Result<ExperimentResult, RunError> {
    let prepared = prepare_topology(spec)?;
    run_experiment_prepared(spec, &prepared)
}

/// Runs `spec` over an already-prepared topology (sweeps over the `(A, C)`
/// grid share one overlay and one reference eigenvector, as in the paper).
///
/// # Errors
///
/// Returns [`RunError`] on invalid strategy or configuration.
///
/// # Panics
///
/// Panics if `prepared` does not match the spec's network size, or if a
/// chaotic spec is given a prepared topology without a reference vector.
pub fn run_experiment_prepared(
    spec: &ExperimentSpec,
    prepared: &PreparedTopology,
) -> Result<ExperimentResult, RunError> {
    let mut results = run_grid_prepared(std::slice::from_ref(spec), prepared)?;
    Ok(results.pop().expect("one spec yields one result"))
}

/// Runs a whole grid of specs — a sweep, a figure panel — over one shared
/// prepared topology, parallelizing across the flattened *(spec × run)* job
/// list on the bounded worker pool.
///
/// This is the preferred entry point for anything with more than one cell:
/// scheduling the whole grid at once keeps every worker busy until the last
/// job drains, instead of hitting a join barrier after each cell's replicas.
/// Results come back in spec order and are bit-identical to running each
/// spec alone (per-run seeds depend only on `(spec.seed, run)`).
///
/// # Errors
///
/// Returns [`RunError`] if any spec's strategy or configuration is invalid
/// (validated up front; jobs themselves cannot fail afterwards).
///
/// # Panics
///
/// Panics if `prepared` does not match a spec's network size, or if a
/// chaotic spec is given a prepared topology without a reference vector.
pub fn run_grid_prepared(
    specs: &[ExperimentSpec],
    prepared: &PreparedTopology,
) -> Result<Vec<ExperimentResult>, RunError> {
    // Validate every spec up front so pool jobs can't hit construction
    // errors mid-grid.
    for spec in specs {
        assert!(spec.runs > 0, "an experiment needs at least one run");
        assert_eq!(
            prepared.topo.n(),
            spec.n,
            "prepared topology size does not match the spec"
        );
        if matches!(spec.app, AppKind::ChaoticIteration) {
            assert!(
                prepared.reference.is_some(),
                "chaotic iteration needs a prepared reference eigenvector"
            );
        }
        spec.strategy.build()?;
        build_config(spec, 0)?;
    }

    // Flatten the (spec × run) grid into one job list.
    let jobs: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(s, spec)| (0..spec.runs).map(move |r| (s, r)))
        .collect();
    let opts = layout(jobs.len(), crate::pool::max_workers());
    let topo = Arc::clone(&prepared.topo);
    let reference = prepared.reference.clone();
    let mirror = prepared.frozen_mirror.clone();
    let mut outcomes = crate::pool::run_indexed(jobs.len(), |j| {
        let (s, run) = jobs[j];
        dispatch_run(&specs[s], run, &topo, &reference, mirror.as_ref(), opts)
            .expect("validated spec cannot fail at run time")
    });

    // Regroup per spec (jobs are flattened in spec order) and average.
    let mut results = Vec::with_capacity(specs.len());
    for spec in specs {
        let rest = outcomes.split_off(spec.runs);
        let runs: Vec<RunOutcome> = std::mem::replace(&mut outcomes, rest);
        results.push(aggregate(spec, runs));
    }
    Ok(results)
}

/// The shard layout of every replica of a grid of `jobs` replicas on a
/// pool of `workers` workers: across-run against intra-run parallelism.
///
/// While the job list alone can fill the pool, every replica is one shard
/// on its pool worker's thread. Once there are fewer jobs than workers
/// (one huge-N spec, a tail of stragglers), each replica is cut into
/// shards so the machine stays saturated. The pool runs
/// `min(workers, jobs)` replicas concurrently, so each replica's shards
/// get a thread budget of `workers / min(workers, jobs)`: the product
/// never exceeds the pool size. Results are byte-identical for every
/// layout.
fn layout(jobs: usize, workers: usize) -> ShardOpts {
    let budget = (workers / workers.min(jobs).max(1)).max(1);
    let shards = if jobs >= workers { 1 } else { budget.min(8) };
    ShardOpts {
        shards,
        threads: shards.min(budget),
    }
}

/// Averages one spec's replica outcomes into an [`ExperimentResult`].
fn aggregate(spec: &ExperimentSpec, runs: Vec<RunOutcome>) -> ExperimentResult {
    let metric = TimeSeries::mean_of_iter(runs.iter().map(|r| &r.metric));
    let tokens = if spec.record_tokens {
        TimeSeries::mean_of_iter(runs.iter().map(|r| &r.tokens))
    } else {
        TimeSeries::new()
    };
    let n_runs = runs.len() as f64;
    let stats = AggregateStats {
        mean_messages_sent: runs.iter().map(|r| r.sim.messages_sent as f64).sum::<f64>() / n_runs,
        mean_proactive: runs
            .iter()
            .map(|r| r.protocol.proactive_sent as f64)
            .sum::<f64>()
            / n_runs,
        mean_reactive: runs
            .iter()
            .map(|r| r.protocol.reactive_sent as f64)
            .sum::<f64>()
            / n_runs,
        mean_ticks: runs.iter().map(|r| r.sim.ticks_fired as f64).sum::<f64>() / n_runs,
    };
    let mut profile = ProfileData::default();
    for r in &runs {
        profile.merge(&r.profile);
    }
    ExperimentResult {
        spec: spec.clone(),
        metric,
        tokens,
        runs,
        stats,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use token_account::StrategySpec;

    const ONE_SHARD: ShardOpts = ShardOpts {
        shards: 1,
        threads: 1,
    };

    fn tiny(app: AppKind, strategy: StrategySpec) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_defaults(app, strategy, 60)
            .with_rounds(40)
            .with_runs(2)
            .with_seed(5);
        // Small networks need a smaller out-degree.
        if !matches!(app, AppKind::ChaoticIteration) {
            spec.topology = TopologyKind::KOut { k: 8 };
        }
        spec
    }

    #[test]
    fn gossip_learning_beats_proactive_baseline() {
        let baseline =
            run_experiment(&tiny(AppKind::GossipLearning, StrategySpec::Proactive)).unwrap();
        let token = run_experiment(&tiny(
            AppKind::GossipLearning,
            StrategySpec::Randomized { a: 5, c: 10 },
        ))
        .unwrap();
        let b = baseline.metric.last_value().unwrap();
        let t = token.metric.last_value().unwrap();
        assert!(
            t > b * 1.5,
            "token account ({t}) should clearly beat proactive ({b})"
        );
    }

    #[test]
    fn push_gossip_reduces_lag() {
        let baseline = run_experiment(&tiny(AppKind::PushGossip, StrategySpec::Proactive)).unwrap();
        let token = run_experiment(&tiny(
            AppKind::PushGossip,
            StrategySpec::Generalized { a: 5, c: 10 },
        ))
        .unwrap();
        let b = baseline.metric.mean_value_from(1000.0).unwrap();
        let t = token.metric.mean_value_from(1000.0).unwrap();
        assert!(t < b, "token account lag {t} should be below proactive {b}");
    }

    #[test]
    fn chaotic_iteration_runs_and_converges_downward() {
        let result = run_experiment(&tiny(
            AppKind::ChaoticIteration,
            StrategySpec::Simple { c: 10 },
        ))
        .unwrap();
        let first = result.metric.values()[0];
        let last = result.metric.last_value().unwrap();
        assert!(last < first, "angle should decrease: {first} -> {last}");
    }

    #[test]
    fn results_are_deterministic() {
        let spec = tiny(AppKind::PushGossip, StrategySpec::Simple { c: 5 });
        let a = run_experiment(&spec).unwrap();
        let b = run_experiment(&spec).unwrap();
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.runs[0].protocol, b.runs[0].protocol);
    }

    #[test]
    fn seeds_change_results() {
        let spec = tiny(AppKind::PushGossip, StrategySpec::Simple { c: 5 });
        let a = run_experiment(&spec).unwrap();
        let b = run_experiment(&spec.clone().with_seed(6)).unwrap();
        assert_ne!(a.metric, b.metric);
    }

    #[test]
    fn smartphone_churn_scenario_runs() {
        let spec =
            tiny(AppKind::PushGossip, StrategySpec::Simple { c: 10 }).with_smartphone_churn();
        let result = run_experiment(&spec).unwrap();
        assert!(!result.metric.is_empty());
        // Pull requests are wired in under churn.
        let pulls: u64 = result.runs.iter().map(|r| r.protocol.pull_requests).sum();
        assert!(pulls > 0, "rejoining nodes should send pull requests");
    }

    #[test]
    fn token_recording_produces_series() {
        let spec = tiny(
            AppKind::GossipLearning,
            StrategySpec::Randomized { a: 2, c: 5 },
        )
        .with_token_recording();
        let result = run_experiment(&spec).unwrap();
        assert_eq!(result.tokens.len(), result.metric.len());
        for &v in result.tokens.values() {
            assert!((0.0..=5.0).contains(&v));
        }
    }

    #[test]
    fn rate_limit_holds_across_all_runs() {
        // Section 3.4: per node at most rounds + C messages; globally
        // N·(rounds + C). Pull replies also burn tokens so they count.
        let spec = tiny(
            AppKind::PushGossip,
            StrategySpec::Generalized { a: 1, c: 10 },
        );
        let result = run_experiment(&spec).unwrap();
        for run in &result.runs {
            let bound = run.sim.ticks_fired + 10 * spec.n as u64;
            assert!(
                run.protocol.total_sent() <= bound,
                "sent {} > bound {}",
                run.protocol.total_sent(),
                bound
            );
        }
    }

    #[test]
    fn sharded_replicas_match_serial_bit_for_bit() {
        // A replica cut into shards must reproduce the one-shard replica
        // exactly — metric series included — for every shard count and
        // both shardable applications.
        for (app, churn) in [
            (AppKind::GossipLearning, false),
            (AppKind::GossipLearning, true),
            (AppKind::PushGossip, false),
            (AppKind::PushGossip, true),
        ] {
            let mut spec =
                tiny(app, StrategySpec::Randomized { a: 5, c: 10 }).with_token_recording();
            if churn {
                spec = spec.with_smartphone_churn();
            }
            let prepared = prepare_topology(&spec).unwrap();
            let serial = dispatch_run(
                &spec,
                0,
                &prepared.topo,
                &prepared.reference,
                prepared.frozen_mirror.as_ref(),
                ONE_SHARD,
            )
            .unwrap();
            for shards in [2, 3, 4] {
                let sharded = dispatch_run(
                    &spec,
                    0,
                    &prepared.topo,
                    &prepared.reference,
                    prepared.frozen_mirror.as_ref(),
                    ShardOpts { shards, threads: 2 },
                )
                .unwrap();
                assert_eq!(serial.metric, sharded.metric, "churn={churn} S={shards}");
                assert_eq!(serial.tokens, sharded.tokens, "churn={churn} S={shards}");
                assert_eq!(
                    serial.protocol, sharded.protocol,
                    "churn={churn} S={shards}"
                );
                assert_eq!(serial.sim, sharded.sim, "churn={churn} S={shards}");
                assert_eq!(serial.sends_per_slot, sharded.sends_per_slot);
            }
        }
    }

    #[test]
    fn layout_trades_replicas_against_shards() {
        for ((jobs, workers), (shards, threads)) in [
            ((8, 2), (1, 1)), // sim_paper_grid: the grid fills the pool
            ((1, 2), (2, 2)), // sim_big_churn: one replica, two workers
            ((2, 4), (2, 2)),
            ((1, 16), (8, 8)), // capped at eight shards
            ((3, 8), (2, 2)),
            ((0, 2), (2, 2)), // an empty grid runs nothing, but must not panic
        ] {
            assert_eq!(
                layout(jobs, workers),
                ShardOpts { shards, threads },
                "jobs={jobs} workers={workers}"
            );
        }
    }

    #[test]
    fn frozen_mirror_sharing_does_not_change_results() {
        let spec = tiny(AppKind::PushGossip, StrategySpec::Simple { c: 5 });
        let prepared = prepare_topology(&spec).unwrap();
        assert!(
            prepared.frozen_mirror.is_some(),
            "failure-free specs get a shared mirror"
        );
        let with_mirror = dispatch_run(
            &spec,
            1,
            &prepared.topo,
            &prepared.reference,
            prepared.frozen_mirror.as_ref(),
            ONE_SHARD,
        )
        .unwrap();
        let without = dispatch_run(
            &spec,
            1,
            &prepared.topo,
            &prepared.reference,
            None,
            ONE_SHARD,
        )
        .unwrap();
        assert_eq!(with_mirror.metric, without.metric);
        assert_eq!(with_mirror.protocol, without.protocol);
        assert_eq!(with_mirror.sim, without.sim);
        // Churn specs must not share (per-run initial states differ).
        let churny =
            tiny(AppKind::PushGossip, StrategySpec::Simple { c: 5 }).with_smartphone_churn();
        assert!(prepare_topology(&churny).unwrap().frozen_mirror.is_none());
    }

    #[test]
    fn invalid_strategy_is_reported() {
        let spec = tiny(
            AppKind::PushGossip,
            StrategySpec::Generalized { a: 9, c: 3 },
        );
        assert!(matches!(
            run_experiment(&spec).unwrap_err(),
            RunError::Strategy(_)
        ));
    }
}
