//! The token account itself.
//!
//! "Each node has an account, which can hold a non-negative integer number
//! of tokens" (Section 3.1). One token is granted per round Δ unless the
//! round sends a proactive message; reactive sends burn tokens. The purely
//! reactive reference strategy "relax\[es\] the non-negativity constraint",
//! which [`TokenAccount::force_spend`] supports (the balance is signed).

use std::fmt;

/// A node's token balance.
///
/// ```
/// use token_account::account::TokenAccount;
///
/// let mut acct = TokenAccount::new(0);
/// acct.grant();
/// acct.grant();
/// assert_eq!(acct.balance(), 2);
/// assert!(acct.try_spend(2));
/// assert!(!acct.try_spend(1)); // empty: spending is refused
/// assert_eq!(acct.balance(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TokenAccount {
    balance: i64,
}

impl TokenAccount {
    /// Creates an account with the given starting balance.
    ///
    /// The paper's experiments start all accounts at zero tokens
    /// (Section 4.1).
    #[inline]
    pub const fn new(initial: i64) -> Self {
        TokenAccount { balance: initial }
    }

    /// Current balance. Negative only if [`force_spend`](Self::force_spend)
    /// was used (purely reactive reference).
    #[inline]
    pub const fn balance(&self) -> i64 {
        self.balance
    }

    /// Grants one token (the `a ← a + 1` branch of Algorithm 4).
    #[inline]
    pub fn grant(&mut self) {
        self.balance += 1;
    }

    /// Spends `amount` tokens if the balance covers them; returns whether
    /// the spend happened. Never drives the balance negative.
    #[inline]
    pub fn try_spend(&mut self, amount: u64) -> bool {
        let amount = amount as i64;
        if self.balance >= amount {
            self.balance -= amount;
            true
        } else {
            false
        }
    }

    /// Spends up to `amount` tokens, never going below zero; returns how
    /// many were actually spent.
    #[inline]
    pub fn spend_up_to(&mut self, amount: u64) -> u64 {
        let available = self.balance.max(0) as u64;
        let spent = amount.min(available);
        self.balance -= spent as i64;
        spent
    }

    /// Spends `amount` tokens unconditionally, allowing debt (used only by
    /// strategies with [`allows_debt`](crate::strategy::Strategy::allows_debt)).
    #[inline]
    pub fn force_spend(&mut self, amount: u64) {
        self.balance -= amount as i64;
    }

    /// True if no token can be spent.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.balance <= 0
    }
}

impl fmt::Display for TokenAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tokens", self.balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_accumulates() {
        let mut a = TokenAccount::new(0);
        for _ in 0..5 {
            a.grant();
        }
        assert_eq!(a.balance(), 5);
    }

    #[test]
    fn try_spend_refuses_overdraft() {
        let mut a = TokenAccount::new(3);
        assert!(a.try_spend(3));
        assert!(!a.try_spend(1));
        assert_eq!(a.balance(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn try_spend_zero_always_succeeds() {
        let mut a = TokenAccount::new(0);
        assert!(a.try_spend(0));
        assert_eq!(a.balance(), 0);
    }

    #[test]
    fn spend_up_to_clamps() {
        let mut a = TokenAccount::new(2);
        assert_eq!(a.spend_up_to(5), 2);
        assert_eq!(a.balance(), 0);
        assert_eq!(a.spend_up_to(5), 0);
    }

    #[test]
    fn spend_up_to_with_negative_balance_spends_nothing() {
        let mut a = TokenAccount::new(-2);
        assert_eq!(a.spend_up_to(3), 0);
        assert_eq!(a.balance(), -2);
    }

    #[test]
    fn force_spend_allows_debt() {
        let mut a = TokenAccount::new(1);
        a.force_spend(3);
        assert_eq!(a.balance(), -2);
        assert!(a.is_empty());
        a.grant();
        assert_eq!(a.balance(), -1);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(TokenAccount::default().balance(), 0);
    }

    #[test]
    fn display_shows_balance() {
        assert_eq!(TokenAccount::new(7).to_string(), "7 tokens");
    }
}
