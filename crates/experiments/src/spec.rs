//! Experiment specifications.
//!
//! An [`ExperimentSpec`] is the declarative description of one curve in one
//! panel of the paper: application, strategy, topology, churn model,
//! network size, horizon, and replication. The [runner](crate::runner)
//! turns it into an averaged time series.

use ta_apps::protocol::ReplyPolicy;
use ta_sim::config::TickPhase;
use ta_sim::paper;
use ta_sim::time::SimDuration;
use token_account::StrategySpec;

/// Which of the paper's three applications to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Gossip learning (Section 2.2, metric eq. 6 — higher is better).
    GossipLearning,
    /// Push gossip (Section 2.3, metric eq. 7 — lower is better).
    PushGossip,
    /// Chaotic power iteration (Section 2.4, angle metric — lower is
    /// better).
    ChaoticIteration,
}

impl AppKind {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::GossipLearning => "gossip-learning",
            AppKind::PushGossip => "push-gossip",
            AppKind::ChaoticIteration => "chaotic-iteration",
        }
    }

    /// Whether larger metric values mean better performance.
    pub fn higher_is_better(self) -> bool {
        matches!(self, AppKind::GossipLearning)
    }
}

/// The overlay topology of the experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Fixed random k-out digraph (paper: k = 20 for gossip learning and
    /// push gossip).
    KOut {
        /// Out-degree.
        k: usize,
    },
    /// Watts–Strogatz ring with rewiring (paper: k = 4, p = 0.01 for
    /// chaotic iteration).
    WattsStrogatz {
        /// Ring degree (nearest neighbours).
        k: usize,
        /// Rewiring probability.
        p: f64,
    },
}

/// The availability scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnKind {
    /// Failure-free: all nodes online throughout (Figure 2/4/5).
    None,
    /// The synthetic smartphone trace calibrated to Figure 1 (Figure 3).
    SmartphoneTrace,
}

/// A full experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Application under test.
    pub app: AppKind,
    /// Token account strategy.
    pub strategy: StrategySpec,
    /// Overlay topology.
    pub topology: TopologyKind,
    /// Availability scenario.
    pub churn: ChurnKind,
    /// Network size.
    pub n: usize,
    /// Independent runs to average (paper: 10).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Round length Δ.
    pub delta: SimDuration,
    /// Message transfer time.
    pub transfer: SimDuration,
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Metric sampling period.
    pub sample_period: SimDuration,
    /// Message drop probability (fault-injection extension; paper: 0).
    pub drop_probability: f64,
    /// Record the average token balance (Figure 5).
    pub record_tokens: bool,
    /// Round phasing (paper: unsynchronized; ablation option).
    pub tick_phase: TickPhase,
    /// Reactive addressing (paper: random peer; push–pull extension).
    pub reply_policy: ReplyPolicy,
    /// Whether injections trigger the reactive function (used for the
    /// purely reactive reference, which reacts to any state change).
    pub react_to_injections: bool,
}

impl ExperimentSpec {
    /// A spec with the paper's defaults for the given application: 20-out
    /// overlay (WS 4/0.01 for chaotic), failure-free, Δ = 172.8 s, transfer
    /// 1.728 s, two-day horizon, sampling every Δ.
    pub fn paper_defaults(app: AppKind, strategy: StrategySpec, n: usize) -> Self {
        let topology = match app {
            AppKind::ChaoticIteration => TopologyKind::WattsStrogatz { k: 4, p: 0.01 },
            _ => TopologyKind::KOut {
                k: paper::OUT_DEGREE,
            },
        };
        ExperimentSpec {
            app,
            strategy,
            topology,
            churn: ChurnKind::None,
            n,
            runs: 10,
            seed: 1,
            delta: paper::DELTA,
            transfer: paper::TRANSFER_TIME,
            duration: paper::TWO_DAYS,
            sample_period: paper::DELTA,
            drop_probability: 0.0,
            record_tokens: false,
            tick_phase: TickPhase::default(),
            reply_policy: ReplyPolicy::default(),
            react_to_injections: false,
        }
    }

    /// Shortens the experiment to `rounds` proactive rounds (scaled-down
    /// reproductions; the paper runs 1000).
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.duration = self.delta * rounds;
        self
    }

    /// Sets the number of independent runs.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to the smartphone-trace churn scenario.
    pub fn with_smartphone_churn(mut self) -> Self {
        self.churn = ChurnKind::SmartphoneTrace;
        self
    }

    /// Enables token-balance recording (Figure 5).
    pub fn with_token_recording(mut self) -> Self {
        self.record_tokens = true;
        self
    }

    /// Sets the fault-injection drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the round phasing (ablation: synchronized vs. unsynchronized).
    pub fn with_tick_phase(mut self, phase: TickPhase) -> Self {
        self.tick_phase = phase;
        self
    }

    /// Sets the reactive addressing policy (push–pull extension).
    pub fn with_reply_policy(mut self, policy: ReplyPolicy) -> Self {
        self.reply_policy = policy;
        self
    }

    /// Makes injections trigger the reactive function (purely reactive
    /// reference semantics; see `TokenProtocol::with_injection_reaction`).
    pub fn with_injection_reaction(mut self) -> Self {
        self.react_to_injections = true;
        self
    }

    /// A one-line label for tables: `app / strategy`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.app.name(), self.strategy.label())
    }

    /// Update injection period (push gossip only): Δ/10 as in the paper.
    pub fn injection_period(&self) -> Option<SimDuration> {
        match self.app {
            AppKind::PushGossip => Some(self.delta / 10),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let spec =
            ExperimentSpec::paper_defaults(AppKind::GossipLearning, StrategySpec::Proactive, 5000);
        assert_eq!(spec.delta, paper::DELTA);
        assert_eq!(spec.transfer, paper::TRANSFER_TIME);
        assert_eq!(spec.duration, paper::TWO_DAYS);
        assert_eq!(spec.runs, 10);
        assert_eq!(spec.topology, TopologyKind::KOut { k: 20 });
        assert_eq!(spec.churn, ChurnKind::None);
        assert_eq!(spec.injection_period(), None);
    }

    #[test]
    fn chaotic_uses_watts_strogatz() {
        let spec = ExperimentSpec::paper_defaults(
            AppKind::ChaoticIteration,
            StrategySpec::Simple { c: 10 },
            5000,
        );
        assert_eq!(spec.topology, TopologyKind::WattsStrogatz { k: 4, p: 0.01 });
    }

    #[test]
    fn push_gossip_injects_ten_per_round() {
        let spec =
            ExperimentSpec::paper_defaults(AppKind::PushGossip, StrategySpec::Proactive, 100);
        assert_eq!(
            spec.injection_period(),
            Some(paper::UPDATE_INJECTION_PERIOD)
        );
    }

    #[test]
    fn with_rounds_scales_duration() {
        let spec =
            ExperimentSpec::paper_defaults(AppKind::GossipLearning, StrategySpec::Proactive, 100)
                .with_rounds(250);
        assert_eq!(spec.duration, paper::DELTA * 250);
    }

    #[test]
    fn builder_style_setters() {
        let spec = ExperimentSpec::paper_defaults(
            AppKind::PushGossip,
            StrategySpec::Simple { c: 20 },
            100,
        )
        .with_runs(3)
        .with_seed(9)
        .with_smartphone_churn()
        .with_token_recording()
        .with_drop_probability(0.25);
        assert_eq!(spec.runs, 3);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.churn, ChurnKind::SmartphoneTrace);
        assert!(spec.record_tokens);
        assert_eq!(spec.drop_probability, 0.25);
        assert!(spec.label().contains("push-gossip"));
        assert!(spec.label().contains("simple(C=20)"));
    }
}
