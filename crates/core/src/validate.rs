//! Numerical verification of the strategy contract.
//!
//! Section 3.1 imposes monotonicity and no-overspending requirements on the
//! proactive/reactive pair, and Section 3.4 defines the capacity in terms
//! of the proactive function. [`check_strategy_contract`] verifies all of
//! them over an integer balance grid; the workspace property tests run it
//! across the whole `(A, C)` parameter space, and strategy authors can use
//! it as a self-test.

use std::error::Error;
use std::fmt;

use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// A violation of the strategy contract found by
/// [`check_strategy_contract`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ContractViolation {
    /// `proactive(a)` left `[0, 1]`.
    ProactiveOutOfRange {
        /// Balance at which it happened.
        balance: i64,
        /// Offending value.
        value: f64,
    },
    /// `proactive` decreased as the balance grew.
    ProactiveNotMonotone {
        /// Balance at which it happened.
        balance: i64,
    },
    /// `reactive` returned a negative or non-finite value.
    ReactiveInvalid {
        /// Balance at which it happened.
        balance: i64,
        /// Offending value.
        value: f64,
    },
    /// `reactive` decreased as the balance grew.
    ReactiveNotMonotoneInBalance {
        /// Balance at which it happened.
        balance: i64,
    },
    /// `reactive` decreased as usefulness grew.
    ReactiveNotMonotoneInUsefulness {
        /// Balance at which it happened.
        balance: i64,
    },
    /// `reactive(a, u) > a` for a strategy that does not allow debt.
    Overspend {
        /// Balance at which it happened.
        balance: i64,
        /// Offending value.
        value: f64,
    },
    /// `capacity()` reported `Finite(c)` but `proactive(c) != 1`.
    CapacityNotSaturating {
        /// Reported capacity.
        capacity: u64,
    },
    /// `capacity()` reported `Finite(c)` but some smaller balance already
    /// saturates, so `c` is not the smallest.
    CapacityNotTight {
        /// Reported capacity.
        capacity: u64,
        /// Smaller balance with `proactive = 1`.
        smaller: i64,
    },
    /// `capacity()` reported `Unbounded` but `proactive` reached 1 on the
    /// grid.
    UnexpectedSaturation {
        /// Balance at which `proactive` hit 1.
        balance: i64,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::ProactiveOutOfRange { balance, value } => {
                write!(f, "proactive({balance}) = {value} outside [0, 1]")
            }
            ContractViolation::ProactiveNotMonotone { balance } => {
                write!(f, "proactive decreases at balance {balance}")
            }
            ContractViolation::ReactiveInvalid { balance, value } => {
                write!(f, "reactive({balance}) = {value} is invalid")
            }
            ContractViolation::ReactiveNotMonotoneInBalance { balance } => {
                write!(f, "reactive decreases in balance at {balance}")
            }
            ContractViolation::ReactiveNotMonotoneInUsefulness { balance } => {
                write!(f, "reactive decreases in usefulness at balance {balance}")
            }
            ContractViolation::Overspend { balance, value } => {
                write!(f, "reactive({balance}) = {value} overspends")
            }
            ContractViolation::CapacityNotSaturating { capacity } => {
                write!(f, "proactive(C = {capacity}) != 1")
            }
            ContractViolation::CapacityNotTight { capacity, smaller } => {
                write!(
                    f,
                    "capacity {capacity} is not tight: proactive({smaller}) = 1"
                )
            }
            ContractViolation::UnexpectedSaturation { balance } => {
                write!(f, "unbounded strategy saturates at balance {balance}")
            }
        }
    }
}

impl Error for ContractViolation {}

/// Checks the Section 3.1/3.4 contract of `strategy` over balances
/// `0..=max_balance` (plus a few negative probes).
///
/// # Errors
///
/// Returns the first [`ContractViolation`] found.
pub fn check_strategy_contract<S: Strategy + ?Sized>(
    strategy: &S,
    max_balance: i64,
) -> Result<(), ContractViolation> {
    let usefulness_grid = [Usefulness::NotUseful, Usefulness::Useful];

    let mut prev_proactive = f64::NEG_INFINITY;
    let mut prev_reactive = [f64::NEG_INFINITY; 2];

    for balance in -2..=max_balance {
        let p = strategy.proactive(balance);
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(ContractViolation::ProactiveOutOfRange { balance, value: p });
        }
        if p < prev_proactive {
            return Err(ContractViolation::ProactiveNotMonotone { balance });
        }
        prev_proactive = p;

        let mut prev_u = f64::NEG_INFINITY;
        for (i, u) in usefulness_grid.into_iter().enumerate() {
            let r = strategy.reactive(balance, u);
            if r < 0.0 || !r.is_finite() {
                return Err(ContractViolation::ReactiveInvalid { balance, value: r });
            }
            if !strategy.allows_debt() && r > balance.max(0) as f64 {
                return Err(ContractViolation::Overspend { balance, value: r });
            }
            if r < prev_reactive[i] {
                return Err(ContractViolation::ReactiveNotMonotoneInBalance { balance });
            }
            prev_reactive[i] = r;
            if r < prev_u {
                return Err(ContractViolation::ReactiveNotMonotoneInUsefulness { balance });
            }
            prev_u = r;
        }
    }

    match strategy.capacity() {
        Capacity::Finite(c) => {
            let c_i = c as i64;
            if strategy.proactive(c_i) != 1.0 {
                return Err(ContractViolation::CapacityNotSaturating { capacity: c });
            }
            // Tightness: no smaller non-negative balance saturates.
            for smaller in 0..c_i {
                if strategy.proactive(smaller) >= 1.0 {
                    return Err(ContractViolation::CapacityNotTight {
                        capacity: c,
                        smaller,
                    });
                }
            }
        }
        Capacity::Unbounded => {
            for balance in 0..=max_balance {
                if strategy.proactive(balance) >= 1.0 {
                    return Err(ContractViolation::UnexpectedSaturation { balance });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{
        GeneralizedTokenAccount, PurelyProactive, PurelyReactive, RandomizedTokenAccount,
        SimpleTokenAccount,
    };

    #[test]
    fn all_paper_strategies_satisfy_the_contract() {
        check_strategy_contract(&PurelyProactive, 200).unwrap();
        check_strategy_contract(&PurelyReactive::if_useful(3).unwrap(), 200).unwrap();
        check_strategy_contract(&PurelyReactive::unconditional(2).unwrap(), 200).unwrap();
        check_strategy_contract(&SimpleTokenAccount::new(0), 200).unwrap();
        check_strategy_contract(&SimpleTokenAccount::new(20), 200).unwrap();
        for (a, c) in [(1, 1), (1, 10), (5, 10), (10, 20), (40, 120)] {
            check_strategy_contract(&GeneralizedTokenAccount::new(a, c).unwrap(), 200).unwrap();
            check_strategy_contract(&RandomizedTokenAccount::new(a, c).unwrap(), 200).unwrap();
        }
    }

    /// A deliberately broken strategy for negative tests.
    #[derive(Debug)]
    struct Broken(u8);

    impl Strategy for Broken {
        fn proactive(&self, balance: i64) -> f64 {
            match self.0 {
                0 => 1.5,                       // out of range
                1 => -(balance as f64) / 100.0, // decreasing
                _ => 0.0,
            }
        }
        fn reactive(&self, balance: i64, u: Usefulness) -> f64 {
            match self.0 {
                2 => -1.0,                          // negative
                3 => (balance.max(0) as f64) + 1.0, // overspend
                // Anti-monotone in u but within the balance, so only the
                // usefulness check can trip.
                4 => (balance.max(0) as f64).min(1.0) * (1.0 - u.value()),
                _ => 0.0,
            }
        }
        fn capacity(&self) -> Capacity {
            match self.0 {
                5 => Capacity::Finite(10), // but proactive never 1
                _ => Capacity::Unbounded,
            }
        }
        fn name(&self) -> &'static str {
            "broken"
        }
        fn allows_debt(&self) -> bool {
            false
        }
    }

    #[test]
    fn detects_out_of_range_proactive() {
        assert!(matches!(
            check_strategy_contract(&Broken(0), 10).unwrap_err(),
            ContractViolation::ProactiveOutOfRange { .. }
        ));
    }

    #[test]
    fn detects_non_monotone_proactive() {
        assert!(matches!(
            check_strategy_contract(&Broken(1), 10).unwrap_err(),
            ContractViolation::ProactiveNotMonotone { .. }
        ));
    }

    #[test]
    fn detects_negative_reactive() {
        assert!(matches!(
            check_strategy_contract(&Broken(2), 10).unwrap_err(),
            ContractViolation::ReactiveInvalid { .. }
        ));
    }

    #[test]
    fn detects_overspend() {
        assert!(matches!(
            check_strategy_contract(&Broken(3), 10).unwrap_err(),
            ContractViolation::Overspend { .. }
        ));
    }

    #[test]
    fn detects_usefulness_anti_monotonicity() {
        assert!(matches!(
            check_strategy_contract(&Broken(4), 10).unwrap_err(),
            ContractViolation::ReactiveNotMonotoneInUsefulness { .. }
        ));
    }

    #[test]
    fn detects_non_saturating_capacity() {
        assert!(matches!(
            check_strategy_contract(&Broken(5), 10).unwrap_err(),
            ContractViolation::CapacityNotSaturating { .. }
        ));
    }

    #[test]
    fn violations_display() {
        let v = ContractViolation::Overspend {
            balance: 3,
            value: 4.0,
        };
        assert!(v.to_string().contains("overspends"));
    }
}
