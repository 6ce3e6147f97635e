//! Simulation configuration.

use std::error::Error;
use std::fmt;

use crate::paper;
use crate::time::SimDuration;

/// How the first round tick of a node is phased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TickPhase {
    /// Each node's first tick fires after a uniform random fraction of Δ
    /// (and again after each rejoin). This models unsynchronized rounds,
    /// the realistic default of the paper's system model.
    #[default]
    UniformRandom,
    /// All nodes tick in lockstep, first at exactly Δ. Useful for tests and
    /// for reproducing classical synchronous-round behaviour.
    Synchronized,
}

/// Validated simulation parameters.
///
/// Construct through [`SimConfig::builder`]; defaults follow the paper's
/// setup (Δ = 172.8 s, transfer time 1.728 s, two-day horizon).
///
/// ```
/// use ta_sim::config::SimConfig;
/// use ta_sim::time::SimDuration;
///
/// let cfg = SimConfig::builder(1_000)
///     .seed(42)
///     .sample_period(SimDuration::from_secs(600))
///     .build()?;
/// assert_eq!(cfg.n(), 1_000);
/// # Ok::<(), ta_sim::config::InvalidConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    n: usize,
    delta: SimDuration,
    transfer_time: SimDuration,
    duration: SimDuration,
    seed: u64,
    tick_phase: TickPhase,
    sample_period: Option<SimDuration>,
    injection_period: Option<SimDuration>,
    drop_probability: f64,
}

impl SimConfig {
    /// Starts building a configuration for a network of `n` nodes.
    pub fn builder(n: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            n,
            delta: paper::DELTA,
            transfer_time: paper::TRANSFER_TIME,
            duration: paper::TWO_DAYS,
            seed: 0,
            tick_phase: TickPhase::default(),
            sample_period: None,
            injection_period: None,
            drop_probability: 0.0,
        }
    }

    /// Network size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Proactive round length Δ (one token granted per Δ).
    #[inline]
    pub fn delta(&self) -> SimDuration {
        self.delta
    }

    /// One-message transfer time.
    #[inline]
    pub fn transfer_time(&self) -> SimDuration {
        self.transfer_time
    }

    /// Simulated horizon; the engine stops at this virtual time.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Master seed; all randomness in a run derives from it.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Round phasing policy.
    #[inline]
    pub fn tick_phase(&self) -> TickPhase {
        self.tick_phase
    }

    /// Period of metric sampling callbacks, if enabled.
    #[inline]
    pub fn sample_period(&self) -> Option<SimDuration> {
        self.sample_period
    }

    /// Period of injection callbacks (push gossip updates), if enabled.
    #[inline]
    pub fn injection_period(&self) -> Option<SimDuration> {
        self.injection_period
    }

    /// Probability that a sent message is silently dropped (fault
    /// injection extension; the paper's scenarios use 0).
    #[inline]
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }
}

/// Builder for [`SimConfig`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    n: usize,
    delta: SimDuration,
    transfer_time: SimDuration,
    duration: SimDuration,
    seed: u64,
    tick_phase: TickPhase,
    sample_period: Option<SimDuration>,
    injection_period: Option<SimDuration>,
    drop_probability: f64,
}

impl SimConfigBuilder {
    /// Sets the proactive round length Δ.
    pub fn delta(mut self, delta: SimDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the one-message transfer time.
    pub fn transfer_time(mut self, transfer_time: SimDuration) -> Self {
        self.transfer_time = transfer_time;
        self
    }

    /// Sets the simulated horizon.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the round phasing policy.
    pub fn tick_phase(mut self, tick_phase: TickPhase) -> Self {
        self.tick_phase = tick_phase;
        self
    }

    /// Enables periodic metric sampling.
    pub fn sample_period(mut self, period: SimDuration) -> Self {
        self.sample_period = Some(period);
        self
    }

    /// Enables periodic injection callbacks.
    pub fn injection_period(mut self, period: SimDuration) -> Self {
        self.injection_period = Some(period);
        self
    }

    /// Sets the message drop probability (fault injection).
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] if the network is empty, any period is
    /// zero, or the drop probability is outside `[0, 1]`.
    pub fn build(self) -> Result<SimConfig, InvalidConfigError> {
        if self.n == 0 {
            return Err(InvalidConfigError::EmptyNetwork);
        }
        if u32::try_from(self.n).is_err() {
            return Err(InvalidConfigError::NetworkTooLarge(self.n));
        }
        if self.delta.is_zero() {
            return Err(InvalidConfigError::ZeroPeriod("delta"));
        }
        if self.transfer_time.is_zero() {
            // A positive transfer time is what makes cross-node effects
            // non-instantaneous — the engine's tie-breaking contract (and
            // the sharded engine's lookahead window) both rely on it.
            return Err(InvalidConfigError::ZeroPeriod("transfer_time"));
        }
        if self.sample_period.is_some_and(|p| p.is_zero()) {
            return Err(InvalidConfigError::ZeroPeriod("sample_period"));
        }
        if self.injection_period.is_some_and(|p| p.is_zero()) {
            return Err(InvalidConfigError::ZeroPeriod("injection_period"));
        }
        if !(0.0..=1.0).contains(&self.drop_probability) || self.drop_probability.is_nan() {
            return Err(InvalidConfigError::InvalidProbability(
                self.drop_probability,
            ));
        }
        Ok(SimConfig {
            n: self.n,
            delta: self.delta,
            transfer_time: self.transfer_time,
            duration: self.duration,
            seed: self.seed,
            tick_phase: self.tick_phase,
            sample_period: self.sample_period,
            injection_period: self.injection_period,
            drop_probability: self.drop_probability,
        })
    }
}

/// Error returned when a [`SimConfigBuilder`] holds invalid parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InvalidConfigError {
    /// The network has zero nodes.
    EmptyNetwork,
    /// More nodes than node ids (`u32`) can address.
    NetworkTooLarge(usize),
    /// A period parameter was zero.
    ZeroPeriod(&'static str),
    /// The drop probability was outside `[0, 1]`.
    InvalidProbability(f64),
}

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfigError::EmptyNetwork => write!(f, "network must have at least one node"),
            InvalidConfigError::NetworkTooLarge(n) => {
                write!(f, "network size {n} exceeds the u32 node id space")
            }
            InvalidConfigError::ZeroPeriod(which) => {
                write!(f, "period parameter `{which}` must be positive")
            }
            InvalidConfigError::InvalidProbability(p) => {
                write!(f, "probability {p} is outside [0, 1]")
            }
        }
    }
}

impl Error for InvalidConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = SimConfig::builder(10).build().unwrap();
        assert_eq!(cfg.delta(), paper::DELTA);
        assert_eq!(cfg.transfer_time(), paper::TRANSFER_TIME);
        assert_eq!(cfg.duration(), paper::TWO_DAYS);
        assert_eq!(cfg.tick_phase(), TickPhase::UniformRandom);
        assert_eq!(cfg.drop_probability(), 0.0);
        assert_eq!(cfg.sample_period(), None);
    }

    #[test]
    fn rejects_empty_network() {
        assert_eq!(
            SimConfig::builder(0).build().unwrap_err(),
            InvalidConfigError::EmptyNetwork
        );
    }

    #[test]
    fn rejects_zero_delta() {
        let err = SimConfig::builder(5)
            .delta(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, InvalidConfigError::ZeroPeriod("delta"));
    }

    #[test]
    fn rejects_zero_transfer_time() {
        let err = SimConfig::builder(5)
            .transfer_time(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, InvalidConfigError::ZeroPeriod("transfer_time"));
    }

    #[test]
    fn rejects_zero_sample_period() {
        let err = SimConfig::builder(5)
            .sample_period(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, InvalidConfigError::ZeroPeriod("sample_period"));
    }

    #[test]
    fn rejects_bad_probability() {
        for p in [-0.1, 1.5, f64::NAN] {
            let err = SimConfig::builder(5)
                .drop_probability(p)
                .build()
                .unwrap_err();
            assert!(matches!(err, InvalidConfigError::InvalidProbability(_)));
        }
    }

    #[test]
    fn accepts_boundary_probabilities() {
        assert!(SimConfig::builder(5).drop_probability(0.0).build().is_ok());
        assert!(SimConfig::builder(5).drop_probability(1.0).build().is_ok());
    }

    #[test]
    fn builder_sets_all_fields() {
        let cfg = SimConfig::builder(7)
            .delta(SimDuration::from_secs(10))
            .transfer_time(SimDuration::from_millis(5))
            .duration(SimDuration::from_secs(1000))
            .seed(99)
            .tick_phase(TickPhase::Synchronized)
            .sample_period(SimDuration::from_secs(10))
            .injection_period(SimDuration::from_secs(1))
            .drop_probability(0.25)
            .build()
            .unwrap();
        assert_eq!(cfg.n(), 7);
        assert_eq!(cfg.delta(), SimDuration::from_secs(10));
        assert_eq!(cfg.transfer_time(), SimDuration::from_millis(5));
        assert_eq!(cfg.duration(), SimDuration::from_secs(1000));
        assert_eq!(cfg.seed(), 99);
        assert_eq!(cfg.tick_phase(), TickPhase::Synchronized);
        assert_eq!(cfg.sample_period(), Some(SimDuration::from_secs(10)));
        assert_eq!(cfg.injection_period(), Some(SimDuration::from_secs(1)));
        assert_eq!(cfg.drop_probability(), 0.25);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(InvalidConfigError::EmptyNetwork
            .to_string()
            .contains("at least one node"));
        assert!(InvalidConfigError::ZeroPeriod("delta")
            .to_string()
            .contains("delta"));
    }
}
