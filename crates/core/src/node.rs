//! Per-node framework logic: Algorithm 4 of the paper.
//!
//! [`TokenNode`] is deliberately substrate-agnostic: it owns only the token
//! account and applies the *decisions* of Algorithm 4, as a compiled
//! [`DecisionTable`] makes them — whether a round sends a proactive message
//! or banks the token, and how many reactive messages an incoming message
//! triggers. Scheduling, peer selection, and
//! message construction belong to the integration layer (`ta-apps` in this
//! workspace, or a real network stack in a deployment).

use rand::Rng;

use crate::account::TokenAccount;
use crate::table::{Decision, DecisionTable};
use crate::usefulness::Usefulness;

/// What a round tick resolves to (lines 4–10 of Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundAction {
    /// Send one proactive message (the granted token is consumed by it).
    SendProactive,
    /// Bank the token (`a ← a + 1`).
    SaveToken,
}

/// The token-account state machine of one node.
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use token_account::node::{RoundAction, TokenNode};
/// use token_account::strategies::SimpleTokenAccount;
/// use token_account::table::DecisionTable;
/// use token_account::usefulness::Usefulness;
///
/// let strategy = DecisionTable::new(SimpleTokenAccount::new(10));
/// let mut node = TokenNode::new(0);
/// let mut rng = StdRng::seed_from_u64(1);
///
/// // Empty account: the round banks a token.
/// assert_eq!(node.on_round(&strategy, &mut rng), RoundAction::SaveToken);
/// assert_eq!(node.balance(), 1);
///
/// // A useful message triggers one reactive send, burning the token.
/// let sends = node.on_message(&strategy, Usefulness::Useful, &mut rng);
/// assert_eq!(sends, 1);
/// assert_eq!(node.balance(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TokenNode {
    account: TokenAccount,
}

impl TokenNode {
    /// Creates a node with `initial` tokens (the paper starts at zero).
    pub fn new(initial: i64) -> Self {
        TokenNode {
            account: TokenAccount::new(initial),
        }
    }

    /// Current token balance.
    #[inline]
    pub fn balance(&self) -> i64 {
        self.account.balance()
    }

    /// The underlying account.
    #[inline]
    pub fn account(&self) -> &TokenAccount {
        &self.account
    }

    /// One round tick (lines 3–10 of Algorithm 4): with probability
    /// `PROACTIVE(a)` the node sends a proactive message, otherwise it
    /// banks the token.
    #[inline]
    pub fn on_round<R: Rng + ?Sized>(&mut self, table: &DecisionTable, rng: &mut R) -> RoundAction {
        match table.decide_round(&mut self.account, rng) {
            Decision::ProactiveSend => RoundAction::SendProactive,
            _ => RoundAction::SaveToken,
        }
    }

    /// Reaction to an incoming message (lines 11–18 of Algorithm 4, after
    /// the application's `updateState` determined `usefulness`): returns
    /// the number of reactive messages to send, with the same number of
    /// tokens already removed from the account.
    #[inline]
    pub fn on_message<R: Rng + ?Sized>(
        &mut self,
        table: &DecisionTable,
        usefulness: Usefulness,
        rng: &mut R,
    ) -> u64 {
        table
            .decide_message(&mut self.account, usefulness, rng)
            .burned()
    }

    /// Spends one token if available (used by the push gossip pull-request
    /// extension: a rejoining node's pull is answered only "if this
    /// neighbor has tokens", Section 4.1.2).
    pub fn try_spend_one(&mut self) -> bool {
        self.account.try_spend(1)
    }

    /// Banks one token outside the round flow.
    ///
    /// Integrations call this when a send decided by Algorithm 4 cannot be
    /// performed (e.g. no neighbour is online): the proactive token is
    /// banked instead of lost, and a burned reactive token is refunded,
    /// keeping the one-token-per-Δ accounting exact.
    pub fn bank_token(&mut self) {
        self.account.grant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{
        GeneralizedTokenAccount, PurelyProactive, PurelyReactive, RandomizedTokenAccount,
        SimpleTokenAccount,
    };
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn purely_proactive_always_sends_and_never_accumulates() {
        let s = DecisionTable::new(PurelyProactive);
        let mut node = TokenNode::new(0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(node.on_round(&s, &mut rng), RoundAction::SendProactive);
        }
        assert_eq!(node.balance(), 0);
        assert_eq!(node.on_message(&s, Usefulness::Useful, &mut rng), 0);
    }

    #[test]
    fn purely_reactive_goes_into_debt() {
        let s = DecisionTable::new(PurelyReactive::if_useful(2).unwrap());
        let mut node = TokenNode::new(0);
        let mut rng = StdRng::seed_from_u64(2);
        // Rounds only bank tokens.
        assert_eq!(node.on_round(&s, &mut rng), RoundAction::SaveToken);
        assert_eq!(node.balance(), 1);
        // Useful message bursts k = 2 regardless of balance.
        assert_eq!(node.on_message(&s, Usefulness::Useful, &mut rng), 2);
        assert_eq!(node.balance(), -1);
    }

    #[test]
    fn simple_account_fills_to_capacity_then_sends() {
        let s = DecisionTable::new(SimpleTokenAccount::new(3));
        let mut node = TokenNode::new(0);
        let mut rng = StdRng::seed_from_u64(3);
        for expected in 1..=3i64 {
            assert_eq!(node.on_round(&s, &mut rng), RoundAction::SaveToken);
            assert_eq!(node.balance(), expected);
        }
        // Full: every further round sends proactively, balance stays at C.
        for _ in 0..10 {
            assert_eq!(node.on_round(&s, &mut rng), RoundAction::SendProactive);
        }
        assert_eq!(node.balance(), 3);
    }

    #[test]
    fn balance_never_exceeds_capacity() {
        // Section 3.4: C is the maximal number of tokens accumulable.
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(SimpleTokenAccount::new(5)),
            Box::new(GeneralizedTokenAccount::new(2, 5).unwrap()),
            Box::new(RandomizedTokenAccount::new(2, 5).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        for s in strategies {
            let label = s.label();
            let s = DecisionTable::new(s);
            let mut node = TokenNode::new(0);
            for step in 0..1000 {
                if step % 3 == 0 {
                    node.on_message(&s, Usefulness::Useful, &mut rng);
                } else {
                    node.on_round(&s, &mut rng);
                }
                assert!(
                    node.balance() <= 5,
                    "{label} exceeded capacity: {}",
                    node.balance()
                );
                assert!(node.balance() >= 0);
            }
        }
    }

    #[test]
    fn reactive_spend_reduces_balance_by_messages_sent() {
        let s = DecisionTable::new(GeneralizedTokenAccount::new(1, 40).unwrap());
        let mut node = TokenNode::new(0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..7 {
            node.on_round(&s, &mut rng);
        }
        let before = node.balance();
        let sent = node.on_message(&s, Usefulness::Useful, &mut rng);
        assert_eq!(sent as i64, before - node.balance());
        // A = 1 spends everything.
        assert_eq!(node.balance(), 0);
        assert_eq!(sent as i64, before);
    }

    #[test]
    fn randomized_expected_spend_is_balance_over_a() {
        let s = DecisionTable::new(RandomizedTokenAccount::new(10, 1000).unwrap());
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 20_000;
        let mut total = 0u64;
        for _ in 0..trials {
            let mut node = TokenNode::new(15);
            total += node.on_message(&s, Usefulness::Useful, &mut rng);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.5).abs() < 0.05, "mean spend {mean}");
    }

    #[test]
    fn try_spend_one_for_pull_replies() {
        let mut node = TokenNode::new(1);
        assert!(node.try_spend_one());
        assert!(!node.try_spend_one());
        assert_eq!(node.balance(), 0);
    }

    #[test]
    fn proactive_probability_is_respected_statistically() {
        // Randomized with A=1, C=9: ramp over [0, 9], so
        // proactive(5) = (5 − 1 + 1)/(9 − 1 + 1) = 5/9.
        let s = DecisionTable::new(RandomizedTokenAccount::new(1, 9).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 40_000;
        let mut sends = 0;
        for _ in 0..trials {
            let mut node = TokenNode::new(5);
            if node.on_round(&s, &mut rng) == RoundAction::SendProactive {
                sends += 1;
            }
        }
        let rate = sends as f64 / trials as f64;
        assert!((rate - 5.0 / 9.0).abs() < 0.02, "send rate {rate}");
    }
}
