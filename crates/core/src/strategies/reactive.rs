//! The purely reactive reference strategy (flooding).

use crate::error::InvalidStrategyError;
use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// The purely reactive strategy: `PROACTIVE(a) ≡ 0`,
/// `REACTIVE(a, u) ≡ k` or `≡ u·k` (Section 3.1).
///
/// Requires "relaxing the non-negativity constraint of the balance"
/// ([`allows_debt`](Strategy::allows_debt) is true) and has
/// [`Capacity::Unbounded`] — it provides **no rate limiting** and is
/// excluded from the paper's experiments as "obviously not a viable
/// strategy" (Section 4.1). It exists here as the speed-of-light reference
/// (flooding / hot-potato random walks).
///
/// ```
/// use token_account::strategies::PurelyReactive;
/// use token_account::strategy::Strategy;
/// use token_account::usefulness::Usefulness;
///
/// let s = PurelyReactive::if_useful(2)?;
/// assert_eq!(s.reactive(0, Usefulness::Useful), 2.0);
/// assert_eq!(s.reactive(0, Usefulness::NotUseful), 0.0);
/// assert_eq!(s.proactive(100), 0.0);
/// # Ok::<(), token_account::error::InvalidStrategyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PurelyReactive {
    burst: u64,
    respond_to_useless: bool,
}

impl PurelyReactive {
    /// The `REACTIVE(a, u) ≡ u·k` variant: only useful messages trigger
    /// responses.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStrategyError::ZeroBurst`] when `k == 0`.
    pub fn if_useful(k: u64) -> Result<Self, InvalidStrategyError> {
        if k == 0 {
            return Err(InvalidStrategyError::ZeroBurst);
        }
        Ok(PurelyReactive {
            burst: k,
            respond_to_useless: false,
        })
    }

    /// The `REACTIVE(a, u) ≡ k` variant: every message triggers `k`
    /// responses regardless of usefulness.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStrategyError::ZeroBurst`] when `k == 0`.
    pub fn unconditional(k: u64) -> Result<Self, InvalidStrategyError> {
        if k == 0 {
            return Err(InvalidStrategyError::ZeroBurst);
        }
        Ok(PurelyReactive {
            burst: k,
            respond_to_useless: true,
        })
    }

    /// The burst size `k`.
    pub fn burst(&self) -> u64 {
        self.burst
    }
}

impl Strategy for PurelyReactive {
    fn proactive(&self, _balance: i64) -> f64 {
        0.0
    }

    fn reactive(&self, _balance: i64, usefulness: Usefulness) -> f64 {
        if self.respond_to_useless {
            self.burst as f64
        } else {
            self.burst as f64 * usefulness.value()
        }
    }

    fn capacity(&self) -> Capacity {
        Capacity::Unbounded
    }

    fn name(&self) -> &'static str {
        "reactive"
    }

    fn label(&self) -> String {
        if self.respond_to_useless {
            format!("reactive(k={})", self.burst)
        } else {
            format!("reactive(k={},useful-only)", self.burst)
        }
    }

    fn allows_debt(&self) -> bool {
        true
    }

    fn proactive_smooth(&self, _balance: f64) -> f64 {
        0.0
    }

    fn reactive_smooth(&self, _balance: f64, usefulness: Usefulness) -> f64 {
        self.reactive(0, usefulness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_useful_scales_with_usefulness() {
        let s = PurelyReactive::if_useful(3).unwrap();
        assert_eq!(s.reactive(0, Usefulness::Useful), 3.0);
        assert_eq!(s.reactive(0, Usefulness::NotUseful), 0.0);
        // Balance-independent.
        assert_eq!(s.reactive(-10, Usefulness::Useful), 3.0);
    }

    #[test]
    fn unconditional_ignores_usefulness() {
        let s = PurelyReactive::unconditional(2).unwrap();
        assert_eq!(s.reactive(0, Usefulness::NotUseful), 2.0);
        assert_eq!(s.reactive(5, Usefulness::Useful), 2.0);
    }

    #[test]
    fn rejects_zero_burst() {
        assert_eq!(
            PurelyReactive::if_useful(0).unwrap_err(),
            InvalidStrategyError::ZeroBurst
        );
        assert_eq!(
            PurelyReactive::unconditional(0).unwrap_err(),
            InvalidStrategyError::ZeroBurst
        );
    }

    #[test]
    fn metadata() {
        let s = PurelyReactive::if_useful(1).unwrap();
        assert_eq!(s.capacity(), Capacity::Unbounded);
        assert!(s.allows_debt());
        assert_eq!(s.name(), "reactive");
        assert!(s.label().contains("k=1"));
        assert_eq!(s.burst(), 1);
    }

    #[test]
    fn never_proactive() {
        let s = PurelyReactive::unconditional(1).unwrap();
        for a in [-3i64, 0, 1000] {
            assert_eq!(s.proactive(a), 0.0);
        }
    }
}
