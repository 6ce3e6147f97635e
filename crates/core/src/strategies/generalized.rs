//! The generalized token account strategy (Section 3.3.2).

use crate::error::InvalidStrategyError;
use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// The generalized token account strategy of Section 3.3.2:
///
/// ```text
/// PROACTIVE(a)  = 1 if a >= C, else 0            (eq. 1)
/// REACTIVE(a,u) = ⌊(A − 1 + a) / A⌋    if u      (eq. 3)
///               = ⌊(A − 1 + a) / (2A)⌋ otherwise
/// ```
///
/// `A` controls "what proportion of the available tokens we wish to use":
/// `A = 1` spends everything on a useful message, larger `A` spends a
/// `1/A`-ish fraction; `A = C` degenerates to the simple strategy. Useless
/// messages earn half the response, and none at all while tokens are scarce
/// (`a <= A` ⇒ the halved value floors to 0) — "when the tokens are scarce,
/// we do not waste them for reacting to messages that are not useful".
///
/// Both cases are `⌊(A − 1 + a)(1 + u)/(2A)⌋` for `u ∈ {0, 1}`.
///
/// ```
/// use token_account::strategies::GeneralizedTokenAccount;
/// use token_account::strategy::Strategy;
/// use token_account::usefulness::Usefulness;
///
/// let s = GeneralizedTokenAccount::new(1, 10)?; // A = 1: spend everything
/// assert_eq!(s.reactive(7, Usefulness::Useful), 7.0);
/// let s = GeneralizedTokenAccount::new(5, 10)?;
/// assert_eq!(s.reactive(3, Usefulness::Useful), 1.0); // A >= a ⇒ 1
/// assert_eq!(s.reactive(3, Usefulness::NotUseful), 0.0); // scarce ⇒ 0
/// # Ok::<(), token_account::error::InvalidStrategyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneralizedTokenAccount {
    spend_rate: u64,
    capacity: u64,
}

impl GeneralizedTokenAccount {
    /// Creates the strategy with spend rate `A` and capacity `C`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStrategyError::ZeroSpendRate`] when `A == 0` and
    /// [`InvalidStrategyError::CapacityBelowSpendRate`] when `C < A` (the
    /// paper's parameter space requires `A <= C`).
    pub fn new(spend_rate: u64, capacity: u64) -> Result<Self, InvalidStrategyError> {
        if spend_rate == 0 {
            return Err(InvalidStrategyError::ZeroSpendRate);
        }
        if capacity < spend_rate {
            return Err(InvalidStrategyError::CapacityBelowSpendRate {
                spend_rate,
                capacity,
            });
        }
        Ok(GeneralizedTokenAccount {
            spend_rate,
            capacity,
        })
    }

    /// The spend rate parameter `A`.
    pub fn spend_rate(&self) -> u64 {
        self.spend_rate
    }

    /// The capacity parameter `C`.
    pub fn capacity_param(&self) -> u64 {
        self.capacity
    }

    fn reactive_raw(&self, balance: f64, usefulness: Usefulness) -> f64 {
        if balance <= 0.0 {
            return 0.0;
        }
        let a = self.spend_rate as f64;
        let base = a - 1.0 + balance;
        let raw = (base * (1.0 + usefulness.value()) / (2.0 * a)).floor();
        raw.min(balance).max(0.0)
    }
}

impl Strategy for GeneralizedTokenAccount {
    fn proactive(&self, balance: i64) -> f64 {
        if balance >= self.capacity as i64 {
            1.0
        } else {
            0.0
        }
    }

    fn reactive(&self, balance: i64, usefulness: Usefulness) -> f64 {
        self.reactive_raw(balance as f64, usefulness)
    }

    fn capacity(&self) -> Capacity {
        Capacity::Finite(self.capacity)
    }

    fn name(&self) -> &'static str {
        "generalized"
    }

    fn label(&self) -> String {
        format!("generalized(A={},C={})", self.spend_rate, self.capacity)
    }

    fn proactive_smooth(&self, balance: f64) -> f64 {
        if balance >= self.capacity as f64 {
            1.0
        } else {
            0.0
        }
    }

    fn reactive_smooth(&self, balance: f64, usefulness: Usefulness) -> f64 {
        // Continuous: same formula without the floor.
        if balance <= 0.0 {
            return 0.0;
        }
        let a = self.spend_rate as f64;
        let base = a - 1.0 + balance;
        (base * (1.0 + usefulness.value()) / (2.0 * a))
            .min(balance)
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_equal_one_spends_everything_on_useful() {
        let s = GeneralizedTokenAccount::new(1, 40).unwrap();
        for a in 0..=40i64 {
            assert_eq!(s.reactive(a, Usefulness::Useful), a as f64);
        }
    }

    #[test]
    fn a_at_least_balance_returns_one_for_useful() {
        // "When A >= a, the function returns 1."
        for a_param in [5u64, 10, 40] {
            let s = GeneralizedTokenAccount::new(a_param, 100).unwrap();
            for balance in 1..=a_param as i64 {
                assert_eq!(
                    s.reactive(balance, Usefulness::Useful),
                    1.0,
                    "A={a_param}, a={balance}"
                );
            }
        }
    }

    #[test]
    fn a_equals_c_degenerates_to_simple() {
        // "The maximal meaningful value for A is A = C in which case the
        // reactive function will be equivalent to equation (2)."
        let s = GeneralizedTokenAccount::new(10, 10).unwrap();
        let simple = crate::strategies::SimpleTokenAccount::new(10);
        for balance in 0..=10i64 {
            assert_eq!(
                s.reactive(balance, Usefulness::Useful),
                simple.reactive(balance, Usefulness::Useful),
                "balance {balance}"
            );
        }
    }

    #[test]
    fn useless_messages_get_half_rounded_down() {
        let s = GeneralizedTokenAccount::new(5, 100).unwrap();
        // a=5: useful ⌊9/5⌋=1, useless ⌊9/10⌋=0.
        assert_eq!(s.reactive(5, Usefulness::Useful), 1.0);
        assert_eq!(s.reactive(5, Usefulness::NotUseful), 0.0);
        // a=26: useful ⌊30/5⌋=6, useless ⌊30/10⌋=3.
        assert_eq!(s.reactive(26, Usefulness::Useful), 6.0);
        assert_eq!(s.reactive(26, Usefulness::NotUseful), 3.0);
    }

    #[test]
    fn useless_returns_zero_when_scarce() {
        // "The function will return 0 when A >= a."
        let s = GeneralizedTokenAccount::new(10, 100).unwrap();
        for balance in 0..=10i64 {
            assert_eq!(s.reactive(balance, Usefulness::NotUseful), 0.0);
        }
        assert!(s.reactive(12, Usefulness::NotUseful) >= 1.0);
    }

    #[test]
    fn never_overspends() {
        let s = GeneralizedTokenAccount::new(2, 80).unwrap();
        for balance in 0..=80i64 {
            for u in [Usefulness::NotUseful, Usefulness::Useful] {
                assert!(s.reactive(balance, u) <= balance.max(0) as f64);
            }
        }
    }

    #[test]
    fn negative_balance_yields_zero() {
        let s = GeneralizedTokenAccount::new(3, 10).unwrap();
        assert_eq!(s.reactive(-5, Usefulness::Useful), 0.0);
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(
            GeneralizedTokenAccount::new(0, 10).unwrap_err(),
            InvalidStrategyError::ZeroSpendRate
        );
        assert_eq!(
            GeneralizedTokenAccount::new(5, 4).unwrap_err(),
            InvalidStrategyError::CapacityBelowSpendRate {
                spend_rate: 5,
                capacity: 4
            }
        );
        assert!(GeneralizedTokenAccount::new(5, 5).is_ok());
    }

    #[test]
    fn metadata() {
        let s = GeneralizedTokenAccount::new(5, 10).unwrap();
        assert_eq!(s.capacity(), Capacity::Finite(10));
        assert_eq!(s.label(), "generalized(A=5,C=10)");
        assert_eq!(s.spend_rate(), 5);
        assert_eq!(s.capacity_param(), 10);
    }

    #[test]
    fn smooth_variant_drops_the_floor() {
        let s = GeneralizedTokenAccount::new(5, 100).unwrap();
        // (5-1+6)/5 = 2.0 ; smooth at 6.5: (4+6.5)/5 = 2.1
        assert!((s.reactive_smooth(6.5, Usefulness::Useful) - 2.1).abs() < 1e-12);
        assert_eq!(s.reactive(6, Usefulness::Useful), 2.0);
    }
}
