//! The compiled table decides exactly what the formulas decide.
//!
//! The reference is Algorithm 4 evaluated the slow way, as `TokenNode` did
//! before tables: `rng.gen::<f64>() < PROACTIVE(a)` for a round, and
//! `rand_round(REACTIVE(a, u))` for a message. For every family over the
//! Section 4.2 `(A, C)` grid, every balance in `[0, C + 3]` (the rows and
//! the formula-decided balances above `C`) and both usefulness values, the
//! table must make the same decision, leave the same balance and consume
//! the same draws, on the plain and on the atomic account, at the draws
//! `0`, `thr − 1`, `thr` and `2⁵³ − 1` around each threshold.

use rand::rngs::StdRng;
use rand::{Error, Rng, RngCore, SeedableRng};

use token_account::prelude::*;
use token_account::table::Row;

/// The `A` values of the Section 4.2 grid.
const A_VALUES: &[u64] = &[1, 2, 5, 10, 15, 20, 40];
/// Its `C − A` values.
const C_MINUS_A_VALUES: &[u64] = &[0, 1, 2, 5, 10, 15, 20, 40, 80];
/// Largest 53-bit draw.
const TOP: u64 = (1 << 53) - 1;

/// Returns one fixed raw value on every call and counts the calls: the
/// count is the generator's whole state.
struct Fixed {
    x: u64,
    draws: u32,
}

impl Fixed {
    fn new(x: u64) -> Self {
        Fixed { x, draws: 0 }
    }
}

impl RngCore for Fixed {
    fn next_u32(&mut self) -> u32 {
        unreachable!("decisions draw 64 bits")
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.x
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("decisions draw 64 bits")
    }
    fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Error> {
        unreachable!("decisions draw 64 bits")
    }
}

/// The formula path of a round: the decision and the balance after it.
fn formula_round<R: Rng + ?Sized>(s: &dyn Strategy, balance: i64, rng: &mut R) -> (bool, i64) {
    if rng.gen::<f64>() < s.proactive(balance) {
        (true, balance)
    } else {
        (false, balance + 1)
    }
}

/// The formula path of a message: tokens burned and the balance after.
fn formula_message<R: Rng + ?Sized>(
    s: &dyn Strategy,
    balance: i64,
    u: Usefulness,
    rng: &mut R,
) -> (u64, i64) {
    let x = rand_round(s.reactive(balance, u), rng);
    let mut account = TokenAccount::new(balance);
    let burned = if s.allows_debt() {
        account.force_spend(x);
        x
    } else {
        account.spend_up_to(x)
    };
    (burned, account.balance())
}

/// Raw 64-bit draws whose top 53 bits are `y`, with the 11 discarded bits
/// clear and set.
fn raw(y: u64) -> [u64; 2] {
    [y << 11, (y << 11) | 0x7ff]
}

/// `0`, `thr − 1`, `thr` and `2⁵³ − 1`, kept inside the 53-bit range.
fn draws_around(thr: u64) -> impl Iterator<Item = u64> {
    [0, thr.saturating_sub(1), thr.min(TOP), TOP]
        .into_iter()
        .flat_map(raw)
}

/// Checks one strategy at one balance.
fn check_balance(s: &dyn Strategy, table: &DecisionTable, balance: i64) {
    let label = s.label();
    let row: Option<Row> = table.row(balance).copied();
    // A balance without a row is decided by the formulas; probe around a
    // mid-range threshold there.
    let proactive_thr = row.map_or(1 << 52, |r| r.proactive);
    for x in draws_around(proactive_thr) {
        let (mut want_rng, mut plain_rng, mut atomic_rng) =
            (Fixed::new(x), Fixed::new(x), Fixed::new(x));
        let (send, after) = formula_round(s, balance, &mut want_rng);
        let want = if send {
            Decision::ProactiveSend
        } else {
            Decision::Hold
        };

        let mut plain = TokenAccount::new(balance);
        let atomic = AtomicTokenAccount::new(balance);
        let got_plain = table.decide_round(&mut plain, &mut plain_rng);
        let got_atomic = table.decide_round(&atomic, &mut atomic_rng);
        let ctx = format!("{label} round at balance {balance}, draw {x:#x}");
        assert_eq!((got_plain, plain.balance()), (want, after), "{ctx}");
        assert_eq!(
            (got_atomic, atomic.balance()),
            (want, after),
            "{ctx} (atomic)"
        );
        assert_eq!(plain_rng.draws, want_rng.draws, "{ctx}: draws");
        assert_eq!(atomic_rng.draws, want_rng.draws, "{ctx}: draws (atomic)");
    }

    for u in [Usefulness::NotUseful, Usefulness::Useful] {
        let thr = row.map_or(1 << 52, |r| r.reactive[u as usize].thr);
        for x in draws_around(thr) {
            let (mut want_rng, mut plain_rng, mut atomic_rng) =
                (Fixed::new(x), Fixed::new(x), Fixed::new(x));
            let (burned, after) = formula_message(s, balance, u, &mut want_rng);

            let mut plain = TokenAccount::new(balance);
            let atomic = AtomicTokenAccount::new(balance);
            let got_plain = table.decide_message(&mut plain, u, &mut plain_rng);
            let got_atomic = table.decide_message(&atomic, u, &mut atomic_rng);
            let ctx = format!("{label} {u} message at balance {balance}, draw {x:#x}");
            assert_eq!(
                (got_plain.burned(), plain.balance()),
                (burned, after),
                "{ctx}"
            );
            assert_eq!(
                (got_atomic.burned(), atomic.balance()),
                (burned, after),
                "{ctx} (atomic)"
            );
            assert_eq!(plain_rng.draws, want_rng.draws, "{ctx}: draws");
            assert_eq!(atomic_rng.draws, want_rng.draws, "{ctx}: draws (atomic)");
        }
    }
}

/// The families: `A` is also the reactive reference's burst.
const FAMILIES: usize = 6;

/// Family `i` at the grid cell `(a, c)`.
fn family(i: usize, a: u64, c: u64) -> Box<dyn Strategy> {
    match i {
        0 => Box::new(PurelyProactive),
        1 => Box::new(PurelyReactive::if_useful(a).unwrap()),
        2 => Box::new(PurelyReactive::unconditional(a).unwrap()),
        3 => Box::new(SimpleTokenAccount::new(c)),
        4 => Box::new(GeneralizedTokenAccount::new(a, c).unwrap()),
        _ => Box::new(RandomizedTokenAccount::new(a, c).unwrap()),
    }
}

#[test]
fn table_matches_the_formulas_on_the_whole_grid() {
    for &a in A_VALUES {
        for &d in C_MINUS_A_VALUES {
            let c = a + d;
            for i in 0..FAMILIES {
                let s = family(i, a, c);
                let table = DecisionTable::new(family(i, a, c));
                // The debt reference also goes below zero.
                let low = if s.allows_debt() { -3 } else { 0 };
                for balance in low..=c as i64 + 3 {
                    check_balance(&*s, &table, balance);
                }
            }
        }
    }
}

/// Random walks: interleaved rounds and messages from one generator
/// leave the table and the formulas with equal balances and equal
/// generator states after every step.
#[test]
fn random_walks_keep_the_generators_in_lockstep() {
    for (a, c) in [(1, 1), (2, 6), (5, 10), (10, 50), (40, 120)] {
        for i in 0..FAMILIES {
            let formula = family(i, a, c);
            let label = formula.label();
            let table = DecisionTable::new(family(i, a, c));
            let mut account = TokenAccount::new(0);
            let mut balance = 0;
            let mut table_rng = StdRng::seed_from_u64(a * 1000 + c);
            let mut formula_rng = table_rng.clone();
            let mut steps = StdRng::seed_from_u64(c);
            for step in 0..20_000 {
                if steps.gen::<f64>() < 0.4 {
                    table.decide_round(&mut account, &mut table_rng);
                    balance = formula_round(&*formula, balance, &mut formula_rng).1;
                } else {
                    let u = Usefulness::from_bool(steps.gen::<f64>() < 0.7);
                    table.decide_message(&mut account, u, &mut table_rng);
                    balance = formula_message(&*formula, balance, u, &mut formula_rng).1;
                }
                assert_eq!(account.balance(), balance, "{label}, step {step}");
                assert_eq!(
                    table_rng, formula_rng,
                    "{label}, step {step}: generator state"
                );
            }
        }
    }
}
