//! Thread-safe admission decisions: Algorithm 4 over atomic accounts.
//!
//! A live runtime serving concurrent traffic cannot hand out `&mut`
//! accounts, so it decides against an
//! [`AtomicTokenAccount`](crate::atomic::AtomicTokenAccount) through
//! `&self`: any number of worker threads can decide admissions for
//! disjoint (or even shared) accounts without locks. [`LiveStrategy`] is
//! the name the live runtime knows a [`DecisionTable`] by; its
//! `decide_round` and `decide_message` take the atomic account as their
//! [`Account`](crate::table::Account).
//!
//! **Equivalence contract.** There is one Algorithm 4:
//! [`DecisionTable::decide_round`] and [`DecisionTable::decide_message`].
//! The simulator's [`TokenNode`](crate::node::TokenNode) runs it over a
//! plain [`TokenAccount`](crate::account::TokenAccount), the live runtime
//! over an atomic one, and the two accounts differ only in how a burn is
//! applied (a subtraction, or a CAS loop that clamps to what a concurrent
//! spender left). Driven sequentially with the same RNG and the same
//! starting balance, the two therefore consume the same draws and leave
//! the same balance by construction. The `ta-live` crate's live-vs-sim
//! harness tests the runtimes around it end to end: a
//! discrete-event-engine run and a live replay of the same trace must
//! produce *equal* send/burn/grant counters.

pub use crate::table::Decision;
use crate::table::DecisionTable;

/// Algorithm 4 for concurrent, atomic-account decisions: a
/// [`DecisionTable`]. It is `Sync`, so one instance serves every worker
/// thread.
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use token_account::atomic::AtomicTokenAccount;
/// use token_account::live::{Decision, LiveStrategy};
/// use token_account::strategies::SimpleTokenAccount;
/// use token_account::usefulness::Usefulness;
///
/// let live = LiveStrategy::new(SimpleTokenAccount::new(10));
/// let acct = AtomicTokenAccount::new(0);
/// let mut rng = StdRng::seed_from_u64(1);
///
/// // Empty account: the round banks a token.
/// assert_eq!(live.decide_round(&acct, &mut rng), Decision::Hold);
/// assert_eq!(acct.balance(), 1);
///
/// // A useful message triggers one reactive send, burning the token.
/// let d = live.decide_message(&acct, Usefulness::Useful, &mut rng);
/// assert_eq!(d, Decision::ReactiveSend(1));
/// assert_eq!(acct.balance(), 0);
/// ```
pub type LiveStrategy = DecisionTable;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicTokenAccount;
    use crate::node::{RoundAction, TokenNode};
    use crate::strategies::{
        GeneralizedTokenAccount, PurelyProactive, PurelyReactive, RandomizedTokenAccount,
        SimpleTokenAccount,
    };
    use crate::strategy::Strategy;
    use crate::usefulness::Usefulness;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sequentially, with the same RNG, the atomic and the plain account
    /// make identical decisions and leave identical balances — for every
    /// strategy family, including the debt-allowing reactive reference.
    #[test]
    fn live_decisions_match_token_node_bitwise() {
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(PurelyProactive),
            Box::new(PurelyReactive::if_useful(3).unwrap()),
            Box::new(SimpleTokenAccount::new(5)),
            Box::new(GeneralizedTokenAccount::new(2, 7).unwrap()),
            Box::new(RandomizedTokenAccount::new(3, 9).unwrap()),
        ];
        for s in strategies {
            let label = s.label();
            let live = LiveStrategy::new(s);
            let acct = AtomicTokenAccount::new(0);
            let mut node = TokenNode::new(0);
            let mut rng_live = StdRng::seed_from_u64(99);
            let mut rng_node = StdRng::seed_from_u64(99);
            let mut step_rng = StdRng::seed_from_u64(7);
            for step in 0..3_000 {
                if step % 3 == 0 {
                    let u = Usefulness::from_bool(step_rng.gen::<f64>() < 0.6);
                    let d = live.decide_message(&acct, u, &mut rng_live);
                    let burst = node.on_message(&live, u, &mut rng_node);
                    assert_eq!(d.burned(), burst, "burn diverged for {label}");
                } else {
                    let d = live.decide_round(&acct, &mut rng_live);
                    let expect = match node.on_round(&live, &mut rng_node) {
                        RoundAction::SendProactive => Decision::ProactiveSend,
                        RoundAction::SaveToken => Decision::Hold,
                    };
                    assert_eq!(d, expect, "round diverged for {label}");
                }
                assert_eq!(
                    acct.balance(),
                    node.balance(),
                    "balance diverged for {label}"
                );
            }
        }
    }

    #[test]
    fn zero_burst_is_reported_as_hold() {
        let live = LiveStrategy::new(SimpleTokenAccount::new(5));
        let acct = AtomicTokenAccount::new(0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            live.decide_message(&acct, Usefulness::Useful, &mut rng),
            Decision::Hold
        );
        assert_eq!(Decision::Hold.burned(), 0);
        assert_eq!(Decision::ReactiveSend(4).burned(), 4);
        assert_eq!(Decision::ProactiveSend.burned(), 0);
    }

    #[test]
    fn adapter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LiveStrategy>();
        assert_send_sync::<AtomicTokenAccount>();
    }
}
