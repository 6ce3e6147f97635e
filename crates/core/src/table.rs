//! Algorithm 4, compiled: one [`DecisionTable`] per strategy.
//!
//! Every paper strategy is a function of two small inputs, an integer
//! balance in `[0, C]` and a Boolean usefulness (Sections 3.1 and 3.3), so
//! [`DecisionTable::new`] evaluates it once per input and keeps, per
//! balance, a [`Row`]:
//!
//! * the proactive threshold `⌈PROACTIVE(a) · 2⁵³⌉`;
//! * per usefulness, `REACTIVE(a, u)` split into its floor and the
//!   threshold `⌈frac · 2⁵³⌉` of its fractional part.
//!
//! A decision compares the top 53 bits of one raw draw `x` with a
//! threshold. The vendored `rng.gen::<f64>()` is exactly
//! `(x >> 11) · 2⁻⁵³`, so `(x >> 11) < ⌈p · 2⁵³⌉` decides exactly what
//! `rng.gen::<f64>() < p` decides for the same draw. The table also draws
//! exactly when the formulas do: once per round, and once per message only
//! when the fractional part is non-zero (a zero threshold draws nothing).
//! A run through the table is therefore bit-identical to a run through the
//! formulas. Each entry's contract check (finite, `≥ 0`, `≤ balance`) runs
//! once, here, instead of on every decision.
//!
//! Balances without a row are decided by the formulas themselves, on a
//! cold path: balances above `C` (the simulator banks the token of a
//! proactive send that found no online peer, so they do occur, but
//! rarely: about 3 decisions in a million of a 100 000-node smartphone
//! churn run, none in a failure-free one), and every balance of an
//! unbounded strategy that does not allow debt. The
//! debt-allowing reactive reference is one constant row that answers every
//! balance.
//!
//! [`decide_round`](DecisionTable::decide_round) and
//! [`decide_message`](DecisionTable::decide_message) are Algorithm 4,
//! written once over an [`Account`]: the simulator's plain
//! [`TokenAccount`] and the live runtime's [`AtomicTokenAccount`] both
//! decide through them.

use std::sync::Arc;

use rand::Rng;

use crate::account::TokenAccount;
use crate::atomic::AtomicTokenAccount;
use crate::rounding::rand_round;
use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// Most balances a table holds rows for; past it the formulas decide.
const MAX_BALANCE: u64 = 1 << 16;

/// What a decision resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Send one proactive message; the round's token is consumed by it
    /// (the balance is left unchanged, exactly as in Algorithm 4 lines
    /// 4–7).
    ProactiveSend,
    /// Send this many reactive messages, with the same number of tokens
    /// already burned from the account. Always ≥ 1 — a zero burst is
    /// reported as [`Decision::Hold`].
    ReactiveSend(u64),
    /// Do nothing observable: a round that banked its token, or a message
    /// the strategy declined to amplify.
    Hold,
}

impl Decision {
    /// Tokens burned by this decision (0 except for reactive sends).
    #[inline]
    pub fn burned(self) -> u64 {
        match self {
            Decision::ReactiveSend(x) => x,
            _ => 0,
        }
    }
}

/// The account operations Algorithm 4 needs: a plain cell (`&mut`
/// [`TokenAccount`]) or a CAS loop (`&` [`AtomicTokenAccount`]).
pub trait Account {
    /// Current balance.
    fn balance(&self) -> i64;
    /// Banks one token.
    fn grant(&mut self);
    /// Burns `amount` tokens, all of them when `debt` and at most the
    /// balance otherwise; returns how many were burned.
    fn burn(&mut self, amount: u64, debt: bool) -> u64;
}

impl Account for &mut TokenAccount {
    #[inline]
    fn balance(&self) -> i64 {
        (**self).balance()
    }
    #[inline]
    fn grant(&mut self) {
        (**self).grant();
    }
    #[inline]
    fn burn(&mut self, amount: u64, debt: bool) -> u64 {
        if debt {
            self.force_spend(amount);
            amount
        } else {
            self.spend_up_to(amount)
        }
    }
}

impl Account for &AtomicTokenAccount {
    #[inline]
    fn balance(&self) -> i64 {
        (**self).balance()
    }
    #[inline]
    fn grant(&mut self) {
        (**self).grant();
    }
    /// Under contention the account may have been drained since the
    /// balance was read: the burn is then clamped to what is there, so the
    /// decision reports the tokens really burned.
    #[inline]
    fn burn(&mut self, amount: u64, debt: bool) -> u64 {
        if debt {
            self.force_spend(amount);
            amount
        } else {
            self.spend_up_to(amount)
        }
    }
}

/// `REACTIVE(a, u)` compiled: `floor` tokens, plus one more when the
/// 53-bit draw falls below `thr`. `thr == 0` means no draw at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reactive {
    /// `⌊REACTIVE(a, u)⌋`.
    pub floor: u64,
    /// `⌈frac(REACTIVE(a, u)) · 2⁵³⌉`.
    pub thr: u64,
}

/// Both decisions at one balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// `⌈PROACTIVE(a) · 2⁵³⌉`: the round sends iff its draw is below.
    pub proactive: u64,
    /// Indexed by [`Usefulness`] (`NotUseful = 0`, `Useful = 1`).
    pub reactive: [Reactive; 2],
}

impl Row {
    /// Evaluates and checks the strategy at `balance`.
    ///
    /// # Panics
    ///
    /// If an entry breaks the Section 3.1 contract.
    fn compile(s: &dyn Strategy, balance: i64, debt: bool) -> Row {
        let p = s.proactive(balance);
        assert!(
            (0.0..=1.0).contains(&p),
            "PROACTIVE({balance}) = {p} outside [0, 1] for {}",
            s.label()
        );
        let reactive = [Usefulness::NotUseful, Usefulness::Useful].map(|u| {
            let r = s.reactive(balance, u);
            assert!(
                r.is_finite() && r >= 0.0 && (debt || r <= balance as f64),
                "REACTIVE({balance}, {u}) = {r} is negative, not finite or overspends for {}",
                s.label()
            );
            let floor = r.floor();
            Reactive {
                floor: floor as u64,
                thr: threshold(r - floor),
            }
        });
        Row {
            proactive: threshold(p),
            reactive,
        }
    }
}

/// `⌈p · 2⁵³⌉` for `p ∈ [0, 1]`: scaling by a power of two is exact, and
/// an integer draw is below `p · 2⁵³` iff it is below its ceiling.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The 53 bits `gen::<f64>()` would turn into `[0, 1)`, from one draw.
#[inline]
fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// A strategy compiled into per-balance thresholds (see the
/// [module docs](self)). Cloning shares the rows.
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use token_account::account::TokenAccount;
/// use token_account::strategies::SimpleTokenAccount;
/// use token_account::table::{Decision, DecisionTable};
/// use token_account::usefulness::Usefulness;
///
/// let table = DecisionTable::new(SimpleTokenAccount::new(10));
/// let mut account = TokenAccount::new(0);
/// let mut rng = StdRng::seed_from_u64(1);
///
/// // Empty account: the round banks a token.
/// assert_eq!(table.decide_round(&mut account, &mut rng), Decision::Hold);
/// // A useful message triggers one reactive send, burning it.
/// let d = table.decide_message(&mut account, Usefulness::Useful, &mut rng);
/// assert_eq!(d, Decision::ReactiveSend(1));
/// assert_eq!(account.balance(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTable {
    /// Row `a` decides at balance `a`; a debt table's one row decides at
    /// every balance.
    rows: Arc<[Row]>,
    debt: bool,
    /// The formulas, for balances without a row.
    formula: Arc<dyn Strategy>,
}

impl DecisionTable {
    /// Compiles `strategy`: rows for the balances `0..=C` of a finite
    /// capacity, one row for a debt-allowing strategy, none for an
    /// unbounded one.
    ///
    /// # Panics
    ///
    /// If an entry breaks the Section 3.1 contract, or a debt-allowing
    /// strategy depends on the balance.
    pub fn new(strategy: impl Strategy + 'static) -> Self {
        let formula: Arc<dyn Strategy> = Arc::new(strategy);
        let debt = formula.allows_debt();
        let top = match formula.capacity() {
            _ if debt => Some(0),
            Capacity::Finite(c) => Some(c.min(MAX_BALANCE) as i64),
            Capacity::Unbounded => None,
        };
        let rows: Arc<[Row]> = top
            .map_or_else(Vec::new, |top| {
                (0..=top)
                    .map(|b| Row::compile(&*formula, b, debt))
                    .collect()
            })
            .into();
        if debt {
            for probe in [-1, 1, 1 << 20] {
                assert!(
                    Row::compile(&*formula, probe, debt) == rows[0],
                    "{} allows debt but depends on the balance",
                    formula.label()
                );
            }
        }
        DecisionTable {
            rows,
            debt,
            formula,
        }
    }

    /// The strategy the table was compiled from.
    pub fn strategy(&self) -> &dyn Strategy {
        &*self.formula
    }

    /// The row deciding at `balance`, or `None` where the formulas decide.
    #[inline]
    pub fn row(&self, balance: i64) -> Option<&Row> {
        // A negative balance wraps past every row.
        let i = if self.debt { 0 } else { balance as u64 };
        self.rows.get(i as usize)
    }

    /// One round tick (Algorithm 4 lines 3–10): with probability
    /// `PROACTIVE(a)` the decision is [`Decision::ProactiveSend`] (balance
    /// unchanged: the granted token funds the send), otherwise the token
    /// is banked and the decision is [`Decision::Hold`]. One draw.
    #[inline]
    pub fn decide_round<A: Account, R: Rng + ?Sized>(
        &self,
        mut account: A,
        rng: &mut R,
    ) -> Decision {
        let balance = account.balance();
        let send = match self.row(balance) {
            Some(row) => draw(rng) < row.proactive,
            None => self.formula_round(balance, rng),
        };
        if send {
            Decision::ProactiveSend
        } else {
            account.grant();
            Decision::Hold
        }
    }

    /// Reaction to a message of the given usefulness (Algorithm 4 lines
    /// 11–18): `REACTIVE(a, u)`, probabilistically rounded, burned from
    /// the account. One draw when `REACTIVE(a, u)` is fractional, none
    /// otherwise.
    #[inline]
    pub fn decide_message<A: Account, R: Rng + ?Sized>(
        &self,
        mut account: A,
        usefulness: Usefulness,
        rng: &mut R,
    ) -> Decision {
        let balance = account.balance();
        let tokens = match self.row(balance) {
            Some(row) => {
                let r = row.reactive[usefulness as usize];
                r.floor + u64::from(r.thr != 0 && draw(rng) < r.thr)
            }
            None => self.formula_message(balance, usefulness, rng),
        };
        match tokens {
            0 => Decision::Hold,
            x => match account.burn(x, self.debt) {
                0 => Decision::Hold,
                burned => Decision::ReactiveSend(burned),
            },
        }
    }

    #[cold]
    fn formula_round<R: Rng + ?Sized>(&self, balance: i64, rng: &mut R) -> bool {
        let p = self.formula.proactive(balance);
        debug_assert!((0.0..=1.0).contains(&p), "PROACTIVE({balance}) = {p}");
        rng.gen::<f64>() < p
    }

    #[cold]
    fn formula_message<R: Rng + ?Sized>(
        &self,
        balance: i64,
        usefulness: Usefulness,
        rng: &mut R,
    ) -> u64 {
        let r = self.formula.reactive(balance, usefulness);
        debug_assert!(
            self.debt || r <= balance.max(0) as f64,
            "REACTIVE({balance}, {usefulness}) = {r} overspends"
        );
        rand_round(r, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{PurelyReactive, RandomizedTokenAccount, SimpleTokenAccount};

    #[test]
    fn rows_cover_the_capacity_and_nothing_else() {
        let t = DecisionTable::new(RandomizedTokenAccount::new(2, 6).unwrap());
        assert!(t.row(-1).is_none());
        assert!(t.row(7).is_none());
        assert_eq!(t.row(6).unwrap().proactive, 1 << 53);
        assert_eq!(t.row(0).unwrap().proactive, 0);
        // REACTIVE(3, useful) = 1.5: one token, plus one on half the draws.
        assert_eq!(
            t.row(3).unwrap().reactive[1],
            Reactive {
                floor: 1,
                thr: 1 << 52
            }
        );
        assert_eq!(t.strategy().label(), "randomized(A=2,C=6)");
    }

    #[test]
    fn the_debt_row_answers_every_balance() {
        let t = DecisionTable::new(PurelyReactive::if_useful(3).unwrap());
        for balance in [-50, 0, 1 << 30] {
            let row = t.row(balance).unwrap();
            assert_eq!(row.proactive, 0);
            assert_eq!(row.reactive[1], Reactive { floor: 3, thr: 0 });
        }
    }

    #[derive(Debug)]
    struct Overspender;

    impl Strategy for Overspender {
        fn proactive(&self, _: i64) -> f64 {
            0.0
        }
        fn reactive(&self, balance: i64, _: Usefulness) -> f64 {
            balance as f64 + 0.5
        }
        fn capacity(&self) -> Capacity {
            Capacity::Finite(3)
        }
        fn name(&self) -> &'static str {
            "overspender"
        }
    }

    #[test]
    #[should_panic(expected = "overspends for overspender")]
    fn contract_breaches_fail_at_compile_time() {
        let _ = DecisionTable::new(Overspender);
    }

    #[test]
    fn zero_capacity_compiles_one_row() {
        let t = DecisionTable::new(SimpleTokenAccount::new(0));
        assert_eq!(t.row(0).unwrap().proactive, 1 << 53);
        assert!(t.row(1).is_none());
    }
}
