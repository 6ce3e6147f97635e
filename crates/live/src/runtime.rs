//! The concurrent admission runtime: strategy + sharded accounts.
//!
//! [`LiveRuntime`] is the shared, immutable heart of the live system: the
//! strategy compiled into a [`LiveStrategy`] (a
//! [`DecisionTable`](token_account::table::DecisionTable)) plus the
//! [`ShardedAccounts`] map. All
//! methods take `&self`; worker threads and the granter share one
//! instance behind a plain reference (scoped threads) or an `Arc`.
//!
//! Two entry points mirror Algorithm 4's two events:
//!
//! * [`admit`](LiveRuntime::admit) — a request arrived for a client;
//!   look `REACTIVE` up and burn tokens. This is the worker hot path:
//!   one slice index, one atomic load, one table row, at most one RNG
//!   draw and one CAS loop, a few counter increments — no float math, no
//!   division, no allocation, no locks, no dispatch.
//! * [`round`](LiveRuntime::round) / [`round_sweep`](LiveRuntime::round_sweep)
//!   — one client's round tick, or a whole shard's. The granter thread
//!   calls `round_sweep` once per shard per Δ, walking the shard's
//!   contiguous accounts; the virtual-clock replay calls `round` per
//!   recorded tick instead.
//!
//! Callers pass their own RNG and [`LiveCounters`]; the runtime never
//! owns mutable state, which is what makes exact cross-validation
//! possible (the replay hands per-client RNG streams to the very same
//! code the wall-clock load generator runs).

use rand::Rng;

use token_account::live::{Decision, LiveStrategy};
use token_account::{Strategy, Usefulness};

use crate::accounts::ShardedAccounts;
use crate::counters::LiveCounters;
use crate::persist::journal::{GRANT_SPAN, GRANT_WORDS};
use crate::persist::{JournalHandle, RecoveredState};

/// Accounts swept per epoch-fence window in
/// [`LiveRuntime::round_sweep_journaled`]: between windows the sweep
/// steps out of its epoch so a concurrent snapshotter can freeze the
/// shard without waiting for the whole sweep. One grant record covers
/// one window.
const SWEEP_FENCE_CHUNK: usize = GRANT_SPAN;

/// The shared admission runtime (see the [module docs](self)).
#[derive(Debug)]
pub struct LiveRuntime {
    strategy: LiveStrategy,
    accounts: ShardedAccounts,
}

impl LiveRuntime {
    /// Compiles `strategy` and builds the runtime for `clients`
    /// zero-balance accounts in `shards` blocks.
    pub fn new(strategy: impl Strategy + 'static, clients: usize, shards: usize) -> Self {
        LiveRuntime {
            strategy: LiveStrategy::new(strategy),
            accounts: ShardedAccounts::new(clients, shards),
        }
    }

    /// The account map.
    #[inline]
    pub fn accounts(&self) -> &ShardedAccounts {
        &self.accounts
    }

    /// The compiled strategy.
    #[inline]
    pub fn strategy(&self) -> &LiveStrategy {
        &self.strategy
    }

    /// Admission decision for a request at `client` (the worker hot
    /// path). Burns tokens for reactive sends; updates `counters`.
    #[inline]
    pub fn admit<R: Rng + ?Sized>(
        &self,
        client: usize,
        usefulness: Usefulness,
        rng: &mut R,
        counters: &mut LiveCounters,
    ) -> Decision {
        counters.requests += 1;
        let decision = self
            .strategy
            .decide_message(self.accounts.account(client), usefulness, rng);
        match decision {
            Decision::ReactiveSend(x) => counters.reactive_sent += x,
            _ => counters.reactive_held += 1,
        }
        decision
    }

    /// One round tick for `client`: grant-or-send per Algorithm 4.
    #[inline]
    pub fn round<R: Rng + ?Sized>(
        &self,
        client: usize,
        rng: &mut R,
        counters: &mut LiveCounters,
    ) -> Decision {
        counters.rounds += 1;
        let decision = self
            .strategy
            .decide_round(self.accounts.account(client), rng);
        match decision {
            Decision::ProactiveSend => counters.proactive_sent += 1,
            _ => counters.tokens_banked += 1,
        }
        decision
    }

    /// Applies one round Δ to every account of shard `s` in a contiguous
    /// batch (the granter path); `on_proactive` is invoked with each
    /// client id whose round resolved to a proactive send. Returns the
    /// number of accounts swept.
    pub fn round_sweep<R, F>(
        &self,
        s: usize,
        rng: &mut R,
        counters: &mut LiveCounters,
        mut on_proactive: F,
    ) -> u64
    where
        R: Rng + ?Sized,
        F: FnMut(usize),
    {
        let base = self.accounts.shard_range(s).start;
        let accounts = self.accounts.shard_accounts(s);
        for (i, account) in accounts.iter().enumerate() {
            counters.rounds += 1;
            match self.strategy.decide_round(account, rng) {
                Decision::ProactiveSend => {
                    counters.proactive_sent += 1;
                    on_proactive(base + i);
                }
                _ => counters.tokens_banked += 1,
            }
        }
        accounts.len() as u64
    }

    /// [`admit`](Self::admit) with durability: the decision runs inside
    /// the owning shard's epoch fence and any burned tokens are
    /// published to the journal as one negative delta.
    #[inline]
    pub fn admit_journaled<R: Rng + ?Sized>(
        &self,
        client: usize,
        usefulness: Usefulness,
        rng: &mut R,
        counters: &mut LiveCounters,
        journal: &mut JournalHandle,
    ) -> Decision {
        let shard = self.accounts.shard_of(client);
        journal.enter(shard);
        let decision = self.admit(client, usefulness, rng, counters);
        if let Decision::ReactiveSend(x) = decision {
            debug_assert!(x <= i32::MAX as u64, "reactive burst overflows a record");
            journal.record(shard, client as u32, -(x as i32));
        }
        journal.exit();
        decision
    }

    /// [`round_sweep`](Self::round_sweep) with durability: every banked
    /// token is published as one bit of a grant record, one record per
    /// [`SWEEP_FENCE_CHUNK`] accounts however the chunk's rounds split
    /// between banking and proactive sends (at the paper's operating
    /// point both are common, so the banked accounts are scattered). The
    /// sweep re-takes the epoch fence every chunk so a snapshotter never
    /// waits for a whole multi-million-account shard walk, and stamps
    /// each chunk's record inside the epoch that applied its grants. The
    /// shard's records go to the journal writer before the sweep
    /// returns.
    pub fn round_sweep_journaled<R, F>(
        &self,
        s: usize,
        rng: &mut R,
        counters: &mut LiveCounters,
        mut on_proactive: F,
        journal: &mut JournalHandle,
    ) -> u64
    where
        R: Rng + ?Sized,
        F: FnMut(usize),
    {
        let base = self.accounts.shard_range(s).start;
        let accounts = self.accounts.shard_accounts(s);
        for (c, chunk) in accounts.chunks(SWEEP_FENCE_CHUNK).enumerate() {
            let lo = base + c * SWEEP_FENCE_CHUNK;
            let mut bits = [0u64; GRANT_WORDS];
            journal.enter(s);
            for (i, account) in chunk.iter().enumerate() {
                counters.rounds += 1;
                match self.strategy.decide_round(account, rng) {
                    Decision::ProactiveSend => {
                        counters.proactive_sent += 1;
                        on_proactive(lo + i);
                    }
                    _ => {
                        counters.tokens_banked += 1;
                        bits[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            journal.record_grants(s, lo as u32, chunk.len() as u32, &bits);
            journal.exit();
        }
        journal.flush_grants(s);
        accounts.len() as u64
    }

    /// Rebuilds a runtime from a verified [`RecoveredState`]: same
    /// client→shard layout, balances restored exactly.
    pub fn from_recovered(strategy: impl Strategy + 'static, state: &RecoveredState) -> Self {
        LiveRuntime {
            strategy: LiveStrategy::new(strategy),
            accounts: ShardedAccounts::from_balances(&state.balances, state.shards),
        }
    }

    /// Sum of the final balances (conservation checks).
    pub fn balances_sum(&self) -> i64 {
        self.accounts.balances_sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ta_sim::rng::Xoshiro256pp;
    use token_account::prelude::*;

    #[test]
    fn counters_follow_decisions_and_conserve() {
        let rt = LiveRuntime::new(RandomizedTokenAccount::new(2, 6).unwrap(), 64, 4);
        let mut rng = Xoshiro256pp::stream(1, 0);
        let mut c = LiveCounters::default();
        for step in 0..10_000usize {
            let client = step % 64;
            if step % 3 == 0 {
                rt.admit(client, Usefulness::Useful, &mut rng, &mut c);
            } else {
                rt.round(client, &mut rng, &mut c);
            }
        }
        assert!(c.is_consistent());
        assert!(c.conserves(rt.balances_sum()), "books must close: {c:?}");
        assert!(c.reactive_sent > 0 && c.proactive_sent > 0);
    }

    #[test]
    fn round_sweep_equals_per_client_rounds() {
        // One sweep with a fresh RNG equals calling `round` on each client
        // of the shard in order with the same RNG.
        let sweep_rt = LiveRuntime::new(SimpleTokenAccount::new(3), 40, 4);
        let single_rt = LiveRuntime::new(SimpleTokenAccount::new(3), 40, 4);
        for pass in 0..5u64 {
            let mut rng_a = Xoshiro256pp::stream(7, pass);
            let mut rng_b = Xoshiro256pp::stream(7, pass);
            let mut ca = LiveCounters::default();
            let mut cb = LiveCounters::default();
            let mut sent_a = Vec::new();
            for s in 0..sweep_rt.accounts().shard_count() {
                sweep_rt.round_sweep(s, &mut rng_a, &mut ca, |c| sent_a.push(c));
            }
            for client in 0..40 {
                single_rt.round(client, &mut rng_b, &mut cb);
            }
            assert_eq!(ca, cb, "pass {pass}");
        }
        for client in 0..40 {
            assert_eq!(
                sweep_rt.accounts().account(client).balance(),
                single_rt.accounts().account(client).balance()
            );
        }
    }
}
