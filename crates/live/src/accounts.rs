//! Token accounts in one contiguous allocation, partitioned into shards.
//!
//! [`ShardedAccounts`] holds one [`AtomicTokenAccount`] per virtual
//! client, all of them in one flat slice; a shard is a contiguous range of
//! it. The layout serves two masters:
//!
//! * **The decision hot path** finds a client's account by indexing the
//!   flat slice, `&flat[client]` (no division, no pointer to follow), and
//!   then operates purely on that one `AtomicI64`: wait-free grants,
//!   lock-free conditional spends, no shared metadata touched.
//! * **The granter** applies the per-round Δ grant shard by shard; a
//!   shard's sweep is a linear walk over packed 8-byte cells, and
//!   independent shards can be swept by different threads.
//!
//! The partition is the live-runtime mirror of the sharded simulator's
//! contiguous node blocks (`ta_sim::shard::ShardPlan`): client `i` of a
//! run maps to the same block in both worlds, which keeps the
//! live-vs-sim cross-validation a pure index translation, and journal
//! shard ids stable across recovery.

use std::ops::Range;

use token_account::atomic::AtomicTokenAccount;

/// The partition rule: `n` clients in `shards` contiguous blocks of
/// `⌈n / shards⌉` (the last blocks may be shorter, or empty). Recovery
/// rebuilds it from `(clients, shards)` alone, without a live map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    n: usize,
    block: usize,
    shards: usize,
}

impl ShardLayout {
    /// The layout of `n` clients; `shards` is clamped to `[1, n]` (an
    /// empty map keeps one empty shard).
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        ShardLayout {
            n,
            // `max(1)` keeps `shard_of` total on the empty map.
            block: n.div_ceil(shards).max(1),
            shards,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `client`.
    #[inline]
    pub fn shard_of(&self, client: usize) -> usize {
        client / self.block
    }

    /// Client-id range of shard `s` (empty past the last shard).
    #[inline]
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        debug_assert!(s < self.shards, "shard {s} out of range");
        (s * self.block).min(self.n)..((s + 1) * self.block).min(self.n)
    }
}

/// All client accounts in one slice, partitioned by a [`ShardLayout`].
///
/// ```
/// use ta_live::accounts::ShardedAccounts;
///
/// let accounts = ShardedAccounts::new(10, 4);
/// accounts.account(7).grant();
/// assert_eq!(accounts.account(7).balance(), 1);
/// assert_eq!(accounts.balances_sum(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedAccounts {
    flat: Box<[AtomicTokenAccount]>,
    layout: ShardLayout,
}

impl ShardedAccounts {
    /// Creates `n` zero-balance accounts in `shards` contiguous blocks
    /// (see [`ShardLayout::new`]).
    pub fn new(n: usize, shards: usize) -> Self {
        ShardedAccounts {
            flat: (0..n).map(|_| AtomicTokenAccount::new(0)).collect(),
            layout: ShardLayout::new(n, shards),
        }
    }

    /// Rebuilds a map from recovered balances with the layout of
    /// [`new`](Self::new) (same `n` and `shards` → identical client→shard
    /// partition, so journal shard ids stay valid).
    pub fn from_balances(balances: &[i64], shards: usize) -> Self {
        ShardedAccounts {
            flat: balances
                .iter()
                .map(|&b| AtomicTokenAccount::new(b))
                .collect(),
            layout: ShardLayout::new(balances.len(), shards),
        }
    }

    /// Number of accounts.
    #[inline]
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.layout.shard_count()
    }

    /// The shard owning `client`.
    #[inline]
    pub fn shard_of(&self, client: usize) -> usize {
        self.layout.shard_of(client)
    }

    /// Client-id range of shard `s`.
    #[inline]
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        self.layout.shard_range(s)
    }

    /// The account of `client` — the decision hot path.
    ///
    /// # Panics
    ///
    /// Panics if `client >= len()`.
    #[inline]
    pub fn account(&self, client: usize) -> &AtomicTokenAccount {
        &self.flat[client]
    }

    /// The contiguous accounts of shard `s` (granter sweeps).
    #[inline]
    pub fn shard_accounts(&self, s: usize) -> &[AtomicTokenAccount] {
        &self.flat[self.shard_range(s)]
    }

    /// Sum of all balances — one side of the token-conservation books
    /// (`tokens_banked − tokens_burned == balances_sum` when accounts
    /// start at zero).
    pub fn balances_sum(&self) -> i64 {
        self.flat.iter().map(AtomicTokenAccount::balance).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_total() {
        for (n, shards) in [(10, 4), (10, 1), (1, 8), (7, 7), (64, 3)] {
            let a = ShardedAccounts::new(n, shards);
            assert_eq!(a.len(), n);
            assert!(a.shard_count() <= shards.max(1));
            let mut seen = 0;
            for s in 0..a.shard_count() {
                let range = a.shard_range(s);
                assert_eq!(range.start, seen, "shards must be contiguous");
                assert_eq!(range.len(), a.shard_accounts(s).len());
                for c in range.clone() {
                    assert_eq!(a.shard_of(c), s);
                    // The flat view and the shard view alias the same cell.
                    a.account(c).grant();
                    assert_eq!(a.shard_accounts(s)[c - range.start].balance(), 1);
                }
                seen = range.end;
            }
            assert_eq!(seen, n);
            assert_eq!(a.balances_sum(), n as i64);
        }
    }

    #[test]
    fn empty_map_is_harmless() {
        let a = ShardedAccounts::new(0, 4);
        assert!(a.is_empty());
        assert_eq!(a.balances_sum(), 0);
        assert_eq!(a.shard_count(), 1);
        assert!(a.shard_accounts(0).is_empty());
        // Indexing arithmetic stays total: no divide-by-zero.
        assert_eq!(a.shard_of(0), 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn empty_map_account_lookup_panics_on_index() {
        let _ = ShardedAccounts::new(0, 4).account(0);
    }

    #[test]
    fn from_balances_preserves_layout_and_values() {
        let balances: Vec<i64> = (0..10).map(|i| i as i64 - 3).collect();
        let a = ShardedAccounts::from_balances(&balances, 4);
        let b = ShardedAccounts::new(10, 4);
        assert_eq!(a.shard_count(), b.shard_count());
        for s in 0..a.shard_count() {
            assert_eq!(a.shard_range(s), b.shard_range(s));
        }
        for (c, &want) in balances.iter().enumerate() {
            assert_eq!(a.account(c).balance(), want);
        }
        assert_eq!(a.balances_sum(), balances.iter().sum::<i64>());
    }

    #[test]
    fn shards_are_ranges_of_one_allocation() {
        // ⌈10/7⌉ = 2 per shard: shards 5 and 6 start past the end, empty.
        let a = ShardedAccounts::new(10, 7);
        assert_eq!(a.shard_count(), 7);
        assert_eq!(a.shard_range(4), 8..10);
        assert!(a.shard_accounts(5).is_empty() && a.shard_accounts(6).is_empty());
        let whole = a.shard_accounts(0).as_ptr_range().start;
        assert!(std::ptr::eq(a.account(9), whole.wrapping_add(9)));
    }
}
