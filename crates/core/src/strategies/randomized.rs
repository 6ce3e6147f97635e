//! The randomized token account strategy (Section 3.3.3).

use crate::error::InvalidStrategyError;
use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// The randomized token account strategy of Section 3.3.3:
///
/// ```text
///                ⎧ 0                       if a < A − 1
/// PROACTIVE(a) = ⎨ (a − A + 1)/(C − A + 1) if A − 1 <= a <= C   (eq. 4)
///                ⎩ 1                       otherwise
///
/// REACTIVE(a, u) = u · a / A                                    (eq. 5)
/// ```
///
/// The proactive probability ramps up linearly once the balance can fund at
/// least one expected reactive message (`a >= A − 1`); below that the node
/// stays purely reactive, hoarding tokens "to be able to respond to
/// important messages". The reactive value is fractional and the framework
/// applies probabilistic rounding, so the *expected* spend is exactly
/// `a/A`. The mean-field equilibrium balance is `A·C/(C + 1) ≈ A`
/// (Section 4.3, validated in Figure 5).
///
/// ```
/// use token_account::strategies::RandomizedTokenAccount;
/// use token_account::strategy::Strategy;
/// use token_account::usefulness::Usefulness;
///
/// let s = RandomizedTokenAccount::new(10, 20)?;
/// assert_eq!(s.proactive(8), 0.0);                 // below A − 1
/// assert!((s.proactive(15) - 6.0 / 11.0).abs() < 1e-12);
/// assert_eq!(s.proactive(20), 1.0);
/// assert_eq!(s.reactive(15, Usefulness::Useful), 1.5);
/// assert_eq!(s.reactive(15, Usefulness::NotUseful), 0.0);
/// # Ok::<(), token_account::error::InvalidStrategyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RandomizedTokenAccount {
    spend_rate: u64,
    capacity: u64,
}

impl RandomizedTokenAccount {
    /// Creates the strategy with spend rate `A` and capacity `C`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStrategyError::ZeroSpendRate`] when `A == 0` and
    /// [`InvalidStrategyError::CapacityBelowSpendRate`] when `C < A`
    /// (eq. 4 needs `C − A + 1 >= 1`).
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
        Ok(RandomizedTokenAccount {
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

    /// The mean-field equilibrium balance `A·C/(C + 1)` for `u = 1`
    /// (Section 4.3).
    pub fn predicted_equilibrium(&self) -> f64 {
        let a = self.spend_rate as f64;
        let c = self.capacity as f64;
        a * c / (c + 1.0)
    }

    fn proactive_at(&self, balance: f64) -> f64 {
        let a = self.spend_rate as f64;
        let c = self.capacity as f64;
        if balance < a - 1.0 {
            0.0
        } else if balance <= c {
            (balance - a + 1.0) / (c - a + 1.0)
        } else {
            1.0
        }
    }

    fn reactive_at(&self, balance: f64, usefulness: Usefulness) -> f64 {
        if balance <= 0.0 {
            return 0.0;
        }
        (usefulness.value() * balance / self.spend_rate as f64).min(balance)
    }
}

impl Strategy for RandomizedTokenAccount {
    fn proactive(&self, balance: i64) -> f64 {
        self.proactive_at(balance as f64)
    }

    fn reactive(&self, balance: i64, usefulness: Usefulness) -> f64 {
        self.reactive_at(balance as f64, usefulness)
    }

    fn capacity(&self) -> Capacity {
        Capacity::Finite(self.capacity)
    }

    fn name(&self) -> &'static str {
        "randomized"
    }

    fn label(&self) -> String {
        format!("randomized(A={},C={})", self.spend_rate, self.capacity)
    }

    fn proactive_smooth(&self, balance: f64) -> f64 {
        self.proactive_at(balance)
    }

    fn reactive_smooth(&self, balance: f64, usefulness: Usefulness) -> f64 {
        self.reactive_at(balance, usefulness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proactive_is_a_linear_ramp() {
        let s = RandomizedTokenAccount::new(5, 15).unwrap();
        assert_eq!(s.proactive(3), 0.0);
        // a = A − 1 = 4 is the ramp start: (4−5+1)/(15−5+1) = 0.
        assert_eq!(s.proactive(4), 0.0);
        assert!((s.proactive(9) - 5.0 / 11.0).abs() < 1e-12);
        assert_eq!(s.proactive(15), 1.0);
        assert_eq!(s.proactive(100), 1.0);
    }

    #[test]
    fn proactive_is_monotone() {
        let s = RandomizedTokenAccount::new(10, 30).unwrap();
        let mut prev = -1.0;
        for a in -5..=40i64 {
            let p = s.proactive(a);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev, "not monotone at a={a}");
            prev = p;
        }
    }

    #[test]
    fn reactive_spends_balance_over_a() {
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        assert_eq!(s.reactive(20, Usefulness::Useful), 2.0);
        assert_eq!(s.reactive(5, Usefulness::Useful), 0.5);
        assert_eq!(s.reactive(0, Usefulness::Useful), 0.0);
        assert_eq!(s.reactive(-3, Usefulness::Useful), 0.0);
    }

    #[test]
    fn useless_messages_get_nothing() {
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        for a in 0..=20i64 {
            assert_eq!(s.reactive(a, Usefulness::NotUseful), 0.0);
        }
    }

    #[test]
    fn a_equals_one_floods() {
        // A = 1: spend the entire balance on every useful message.
        let s = RandomizedTokenAccount::new(1, 10).unwrap();
        assert_eq!(s.reactive(7, Usefulness::Useful), 7.0);
        // Ramp spans [A − 1, C] = [0, 10]: proactive(0) = 0, proactive(5) = 1/2.
        assert_eq!(s.proactive(0), 0.0);
        assert!((s.proactive(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_overspends() {
        let s = RandomizedTokenAccount::new(2, 40).unwrap();
        for balance in 0..=40i64 {
            assert!(s.reactive(balance, Usefulness::Useful) <= balance as f64);
        }
    }

    #[test]
    fn a_equals_c_boundary() {
        let s = RandomizedTokenAccount::new(10, 10).unwrap();
        // Denominator C − A + 1 = 1: step from 0 to 1 over [9, 10].
        assert_eq!(s.proactive(8), 0.0);
        assert_eq!(s.proactive(9), 0.0);
        assert_eq!(s.proactive(10), 1.0);
    }

    #[test]
    fn predicted_equilibrium_matches_paper_formula() {
        // a = A·C/(C+1) ≈ A (Section 4.3).
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        assert!((s.predicted_equilibrium() - 10.0 * 20.0 / 21.0).abs() < 1e-12);
        assert!((s.predicted_equilibrium() - 9.52).abs() < 0.01);
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(
            RandomizedTokenAccount::new(0, 5).unwrap_err(),
            InvalidStrategyError::ZeroSpendRate
        );
        assert_eq!(
            RandomizedTokenAccount::new(6, 5).unwrap_err(),
            InvalidStrategyError::CapacityBelowSpendRate {
                spend_rate: 6,
                capacity: 5
            }
        );
    }

    #[test]
    fn metadata() {
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        assert_eq!(s.capacity(), Capacity::Finite(20));
        assert_eq!(s.label(), "randomized(A=10,C=20)");
        assert!(!s.allows_debt());
    }

    #[test]
    fn smooth_matches_integer_grid() {
        let s = RandomizedTokenAccount::new(5, 15).unwrap();
        for a in 0..=15i64 {
            assert_eq!(s.proactive(a), s.proactive_smooth(a as f64));
            assert_eq!(
                s.reactive(a, Usefulness::Useful),
                s.reactive_smooth(a as f64, Usefulness::Useful)
            );
        }
    }
}
