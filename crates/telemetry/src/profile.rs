//! Engine self-profiling: batch-size histograms, scheduler lane share,
//! window wall time, shard-window claims and steals, empty-window skips,
//! mailbox depths.
//!
//! A [`Profile`] is owned by one engine (or worker) and mutated with
//! plain stores — no atomics, because the sim engines are single-writer
//! per instance. Every record method starts with a branch on the
//! `enabled` flag, so a disabled profile (the default unless
//! `TA_PROFILE=1`) costs one well-predicted branch per call site; the
//! engine hot loops keep their current shape.
//!
//! Profiles merge (worker → run → grid) into an aggregate
//! [`ProfileData`], which renders as the `profile` block of figure and
//! runner reports.

/// Log₂ batch-size histogram buckets: bucket `i` counts batches with
/// `len` in `[2^i, 2^(i+1))`; the last bucket is open-ended.
pub const BATCH_BUCKETS: usize = 17;

/// Aggregated profiling totals (merge of any number of [`Profile`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileData {
    /// Batches dispatched (serial `run_until` + sharded `run_window`).
    pub batches: u64,
    /// Events across those batches.
    pub batch_events: u64,
    /// Log₂ histogram of batch sizes.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Events the scheduler appended to a fixed-delay lane.
    pub lane_pushes: u64,
    /// Events the scheduler handed to its fallback heap.
    pub fallback_pushes: u64,
    /// Windows processed by sharded workers (shard-window drains).
    pub windows: u64,
    /// Wall time spent inside window drains, nanoseconds.
    pub window_ns: u64,
    /// Shard-window claims handed out by the sharded engine's gate.
    pub claims: u64,
    /// Claims that were steals: the claiming worker was not the shard's
    /// home worker (`shard % workers`), so the shard changed threads for
    /// that window.
    pub steals: u64,
    /// Windows skipped by the empty-window fast-forward.
    pub skipped_windows: u64,
    /// Mailbox drains performed.
    pub mailbox_drains: u64,
    /// Messages moved by those drains.
    pub mailbox_messages: u64,
    /// Deepest mailbox observed at a drain.
    pub mailbox_depth_max: u64,
}

impl ProfileData {
    /// Merges `other` into `self` (sums; max for the depth high-water).
    pub fn merge(&mut self, other: &ProfileData) {
        self.batches += other.batches;
        self.batch_events += other.batch_events;
        for (a, b) in self.batch_hist.iter_mut().zip(other.batch_hist.iter()) {
            *a += b;
        }
        self.lane_pushes += other.lane_pushes;
        self.fallback_pushes += other.fallback_pushes;
        self.windows += other.windows;
        self.window_ns += other.window_ns;
        self.claims += other.claims;
        self.steals += other.steals;
        self.skipped_windows += other.skipped_windows;
        self.mailbox_drains += other.mailbox_drains;
        self.mailbox_messages += other.mailbox_messages;
        self.mailbox_depth_max = self.mailbox_depth_max.max(other.mailbox_depth_max);
    }

    /// Mean events per batch (0 when nothing was recorded).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_events as f64 / self.batches as f64
        }
    }

    /// True when nothing was recorded (e.g. profiling was disabled).
    pub fn is_empty(&self) -> bool {
        self == &ProfileData::default()
    }

    /// Renders the `profile` block shown in figure/runner reports: one
    /// `key=value` line per populated family, sharing the event-line
    /// grammar, plus the non-empty histogram buckets.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "event=profile batches={} events={} mean_batch={:.3}\n",
            self.batches,
            self.batch_events,
            self.mean_batch()
        ));
        let pushes = self.lane_pushes + self.fallback_pushes;
        if pushes > 0 {
            out.push_str(&format!(
                "event=profile_pushes lane_pushes={} fallback_pushes={} lane_share={:.4}\n",
                self.lane_pushes,
                self.fallback_pushes,
                self.lane_pushes as f64 / pushes as f64
            ));
        }
        if self.windows > 0 || self.skipped_windows > 0 {
            out.push_str(&format!(
                "event=profile_windows windows={} skipped={} window_ms={:.3} claims={} steals={}\n",
                self.windows,
                self.skipped_windows,
                self.window_ns as f64 / 1e6,
                self.claims,
                self.steals
            ));
        }
        if self.mailbox_drains > 0 {
            out.push_str(&format!(
                "event=profile_mailboxes drains={} messages={} depth_max={}\n",
                self.mailbox_drains, self.mailbox_messages, self.mailbox_depth_max
            ));
        }
        let mut hist = String::new();
        for (i, &n) in self.batch_hist.iter().enumerate() {
            if n > 0 {
                hist.push_str(&format!(" b{}={}", 1u64 << i, n));
            }
        }
        if !hist.is_empty() {
            out.push_str(&format!("event=profile_batch_hist{hist}\n"));
        }
        out
    }
}

/// A single engine's (or worker's) profiling handle.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    enabled: bool,
    data: ProfileData,
}

impl Profile {
    /// Enabled iff `TA_PROFILE=1` in the environment.
    pub fn from_env() -> Self {
        Profile::forced(std::env::var("TA_PROFILE").is_ok_and(|v| v == "1"))
    }

    /// Explicitly enabled or disabled (benches force this on so profiled
    /// collection runs don't depend on process-global env state).
    pub fn forced(enabled: bool) -> Self {
        Profile {
            enabled,
            data: ProfileData::default(),
        }
    }

    /// Whether record calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one dispatched batch of `len` events.
    #[inline]
    pub fn batch(&mut self, len: usize) {
        if self.enabled {
            self.data.batches += 1;
            self.data.batch_events += len as u64;
            let bucket = (usize::BITS - 1 - len.max(1).leading_zeros()) as usize;
            self.data.batch_hist[bucket.min(BATCH_BUCKETS - 1)] += 1;
        }
    }

    /// Records `total` scheduler pushes of which `fallback` missed every
    /// lane.
    #[inline]
    pub fn pushes(&mut self, total: usize, fallback: usize) {
        if self.enabled {
            self.data.lane_pushes += (total - fallback) as u64;
            self.data.fallback_pushes += fallback as u64;
        }
    }

    /// Records one shard-window drain taking `ns` wall nanoseconds.
    #[inline]
    pub fn window(&mut self, ns: u64) {
        if self.enabled {
            self.data.windows += 1;
            self.data.window_ns += ns;
        }
    }

    /// Records one shard-window claim (`stolen` when the claimer was not
    /// the shard's home worker).
    #[inline]
    pub fn claim(&mut self, stolen: bool) {
        if self.enabled {
            self.data.claims += 1;
            self.data.steals += u64::from(stolen);
        }
    }

    /// Records `count` windows skipped by the empty-window fast-forward.
    #[inline]
    pub fn skip(&mut self, count: u64) {
        if self.enabled {
            self.data.skipped_windows += count;
        }
    }

    /// Records one mailbox drain of `depth` messages.
    #[inline]
    pub fn mailbox(&mut self, depth: usize) {
        if self.enabled {
            self.data.mailbox_drains += 1;
            self.data.mailbox_messages += depth as u64;
            self.data.mailbox_depth_max = self.data.mailbox_depth_max.max(depth as u64);
        }
    }

    /// Merges another profile's totals into this one (keeps `enabled`).
    pub fn merge(&mut self, other: &Profile) {
        self.data.merge(&other.data);
    }

    /// The totals recorded so far.
    pub fn data(&self) -> &ProfileData {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = Profile::forced(false);
        p.batch(8);
        p.pushes(5, 2);
        p.window(100);
        p.claim(true);
        p.skip(3);
        p.mailbox(5);
        assert!(p.data().is_empty());
    }

    #[test]
    fn batch_histogram_buckets_by_log2() {
        let mut p = Profile::forced(true);
        p.batch(1);
        p.batch(2);
        p.batch(3);
        p.batch(1 << 16);
        p.batch(1 << 20); // clamps into the open-ended last bucket
        let d = p.data();
        assert_eq!(d.batch_hist[0], 1); // len 1
        assert_eq!(d.batch_hist[1], 2); // len 2, 3
        assert_eq!(d.batch_hist[16], 2); // 65536 and the clamp
        assert_eq!(d.batches, 5);
        assert!((d.mean_batch() - (d.batch_events as f64 / 5.0)).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Profile::forced(true);
        a.window(10);
        a.claim(false);
        a.mailbox(3);
        a.pushes(10, 1);
        let mut b = Profile::forced(true);
        b.pushes(4, 4);
        b.window(20);
        b.claim(true);
        b.mailbox(9);
        b.skip(2);
        a.merge(&b);
        let d = a.data();
        assert_eq!(d.windows, 2);
        assert_eq!(d.window_ns, 30);
        assert_eq!((d.claims, d.steals), (2, 1));
        assert_eq!(d.mailbox_depth_max, 9);
        assert_eq!(d.skipped_windows, 2);
        assert_eq!((d.lane_pushes, d.fallback_pushes), (9, 5));
    }

    #[test]
    fn render_mentions_each_populated_family() {
        let mut p = Profile::forced(true);
        p.batch(4);
        p.pushes(4, 1);
        p.window(1_000_000);
        p.mailbox(2);
        p.skip(1);
        let text = p.data().render();
        assert!(text.contains("event=profile "));
        assert!(text.contains("lane_pushes=3 fallback_pushes=1 lane_share=0.7500"));
        assert!(text.contains("event=profile_windows"));
        assert!(text.contains("event=profile_mailboxes"));
        assert!(text.contains("b4=1"));
        assert!(Profile::forced(false).data().render().contains("batches=0"));
    }
}
