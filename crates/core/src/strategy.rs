//! The strategy abstraction: the `PROACTIVE(a)` / `REACTIVE(a, u)` pair.
//!
//! A token account algorithm is fully specified by two functions
//! (Section 3.1):
//!
//! * `PROACTIVE(a)` — the probability of sending a proactive message in a
//!   round, given the account balance `a`; monotone non-decreasing in `a`.
//! * `REACTIVE(a, u)` — the (possibly fractional) number of messages to
//!   send in reaction to an incoming message of usefulness `u`; monotone
//!   non-decreasing in both arguments, and at most `a` ("we do not allow
//!   overspending") unless the strategy explicitly allows debt.
//!
//! Section 3.4 defines the **token capacity** `C`: the smallest balance at
//! which `PROACTIVE` returns 1. A finite capacity bounds bursts — a node can
//! send at most `t/Δ + C` messages in any window of length `t`. Strategies
//! report theirs via [`Strategy::capacity`].

use std::fmt;

use crate::usefulness::Usefulness;

/// The token capacity of a strategy (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capacity {
    /// `PROACTIVE(c) = 1`: at most `c` tokens can ever accumulate.
    Finite(u64),
    /// `PROACTIVE` never reaches 1; the balance may grow without bound.
    /// "Not a desirable property" — only the purely reactive reference
    /// strategy has it.
    Unbounded,
}

impl Capacity {
    /// The finite capacity value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            Capacity::Finite(c) => Some(c),
            Capacity::Unbounded => None,
        }
    }

    /// Upper bound on messages sent in a window of `rounds` round lengths
    /// (Section 3.4: `t/Δ + C`), or `None` for unbounded strategies.
    pub fn burst_bound(self, rounds: u64) -> Option<u64> {
        self.finite().map(|c| rounds + c)
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Finite(c) => write!(f, "C={c}"),
            Capacity::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A token account strategy: an implementation of the proactive/reactive
/// function pair.
///
/// # Contract
///
/// Implementations must satisfy, for all balances `a <= b` and usefulness
/// `u <= v` (by [`Usefulness::value`]):
///
/// * `0 <= proactive(a) <= 1` and `proactive(a) <= proactive(b)`;
/// * `reactive(a, u) >= 0`, `reactive(a, u) <= reactive(b, u)`, and
///   `reactive(a, u) <= reactive(a, v)`;
/// * `reactive(a, u) <= max(a, 0)` unless [`allows_debt`](Self::allows_debt),
///   in which case neither function depends on the balance (a
///   [`DecisionTable`](crate::table::DecisionTable) compiles it to one row);
/// * if `capacity()` is [`Capacity::Finite`]`(c)`, then `proactive(c) = 1`
///   and `c` is the smallest such balance.
///
/// [`crate::validate::check_strategy_contract`] verifies these numerically;
/// the workspace property tests run it over the whole parameter grid.
pub trait Strategy: fmt::Debug + Send + Sync {
    /// Probability of sending a proactive message at balance `balance`.
    fn proactive(&self, balance: i64) -> f64;

    /// Number of reactive messages (possibly fractional; the framework
    /// applies probabilistic rounding) for a message of usefulness
    /// `usefulness` at balance `balance`.
    fn reactive(&self, balance: i64, usefulness: Usefulness) -> f64;

    /// The token capacity (Section 3.4).
    fn capacity(&self) -> Capacity;

    /// Short machine-friendly family name (`"simple"`, `"randomized"`, ...).
    fn name(&self) -> &'static str;

    /// Human-readable label including parameters, e.g. `generalized(A=5,C=10)`.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Whether the strategy may spend tokens it does not have (only the
    /// purely reactive reference does).
    fn allows_debt(&self) -> bool {
        false
    }

    /// Continuous extension of [`proactive`](Self::proactive) used by the
    /// mean-field analysis (Section 4.3). Defaults to the step evaluation
    /// at `⌊a⌋`.
    fn proactive_smooth(&self, balance: f64) -> f64 {
        self.proactive(balance.floor() as i64)
    }

    /// Continuous extension of [`reactive`](Self::reactive) used by the
    /// mean-field analysis. Defaults to the step evaluation at `⌊a⌋`.
    fn reactive_smooth(&self, balance: f64, usefulness: Usefulness) -> f64 {
        self.reactive(balance.floor() as i64, usefulness)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    fn proactive(&self, balance: i64) -> f64 {
        (**self).proactive(balance)
    }
    fn reactive(&self, balance: i64, usefulness: Usefulness) -> f64 {
        (**self).reactive(balance, usefulness)
    }
    fn capacity(&self) -> Capacity {
        (**self).capacity()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn allows_debt(&self) -> bool {
        (**self).allows_debt()
    }
    fn proactive_smooth(&self, balance: f64) -> f64 {
        (**self).proactive_smooth(balance)
    }
    fn reactive_smooth(&self, balance: f64, usefulness: Usefulness) -> f64 {
        (**self).reactive_smooth(balance, usefulness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::RandomizedTokenAccount;

    #[test]
    fn box_delegates_all_methods() {
        let concrete = RandomizedTokenAccount::new(5, 10).unwrap();
        let by_ref: &dyn Strategy = &concrete;
        let boxed: Box<dyn Strategy> = Box::new(concrete);
        for a in [-1i64, 0, 3, 7, 10, 50] {
            assert_eq!(by_ref.proactive(a), concrete.proactive(a));
            assert_eq!(boxed.proactive(a), concrete.proactive(a));
            for u in [Usefulness::NotUseful, Usefulness::Useful] {
                assert_eq!(by_ref.reactive(a, u), concrete.reactive(a, u));
                assert_eq!(boxed.reactive(a, u), concrete.reactive(a, u));
                assert_eq!(
                    boxed.reactive_smooth(a as f64 + 0.5, u),
                    concrete.reactive_smooth(a as f64 + 0.5, u)
                );
            }
            assert_eq!(
                boxed.proactive_smooth(a as f64 + 0.5),
                concrete.proactive_smooth(a as f64 + 0.5)
            );
        }
        assert_eq!(by_ref.capacity(), concrete.capacity());
        assert_eq!(boxed.capacity(), concrete.capacity());
        assert_eq!(by_ref.name(), concrete.name());
        assert_eq!(boxed.label(), concrete.label());
        assert_eq!(boxed.allows_debt(), concrete.allows_debt());
        // A double indirection also works (&Box<S>).
        let double: &dyn Strategy = &boxed;
        assert_eq!(double.label(), concrete.label());
    }

    #[test]
    fn strategies_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Box<dyn Strategy>>();
        assert_send_sync::<RandomizedTokenAccount>();
    }

    #[test]
    fn capacity_accessors() {
        assert_eq!(Capacity::Finite(5).finite(), Some(5));
        assert_eq!(Capacity::Unbounded.finite(), None);
    }

    #[test]
    fn burst_bound_follows_section_3_4() {
        // A node cannot send more than t/Δ + C messages in time t.
        assert_eq!(Capacity::Finite(20).burst_bound(1000), Some(1020));
        assert_eq!(Capacity::Unbounded.burst_bound(1000), None);
    }

    #[test]
    fn capacity_display() {
        assert_eq!(Capacity::Finite(7).to_string(), "C=7");
        assert_eq!(Capacity::Unbounded.to_string(), "unbounded");
    }
}
