//! The counter/gauge registry: per-lane padded atomic cells, swept into
//! consistent snapshots.
//!
//! A [`Registry`] is built once with a static catalog of counter and
//! gauge names and a fixed number of *lanes* (one per worker, shard, or
//! helper thread). Each lane owns a cache-line-aligned block of atomic
//! cells, so the single writer of a lane never contends or false-shares
//! with its neighbors; updates are relaxed `fetch_add`s on an exclusive
//! line — a few nanoseconds, cheap enough to leave on in the admission
//! hot path.
//!
//! **Consistency contract.** Counters are monotonic and single-writer
//! per cell. A [`snapshot`](Registry::snapshot) sweep reads every cell
//! with a relaxed load and sums across lanes; because 64-bit atomic
//! loads cannot tear and each cell never decreases, the total for any
//! counter is non-decreasing across successive sweeps — the same
//! guarantee `LiveCounters` gets from merging per-thread counters at
//! stop, here available continuously. Gauges are signed deltas (a lane
//! may increment what another decrements, e.g. a queue depth split
//! between producer and consumer lanes); their per-lane cells are not
//! monotonic, so only the cross-lane *sum* is meaningful.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{bucket_index, LatencyHistogram, BUCKETS};

/// Atomic cells per lane block. Counter and gauge slots share the block;
/// a registry asserts `counters + gauges <= SLOTS` at construction.
const SLOTS: usize = 48;

/// One lane's cells, aligned so lanes never share a cache line
/// (48 × 8 = 384 bytes, a multiple of the 128-byte alignment).
#[repr(C, align(128))]
struct LaneBlock {
    cells: [AtomicU64; SLOTS],
}

impl LaneBlock {
    fn new() -> Self {
        LaneBlock {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One lane's buckets for one registered histogram, aligned like
/// [`LaneBlock`] so two lanes' hot buckets never share a cache line.
/// The same monotonic single-writer contract as counters applies
/// bucket-wise: `sum` is monotonic, `max` only ever rises (`fetch_max`).
#[repr(C, align(128))]
struct HistBlock {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistBlock {
    fn new() -> Self {
        HistBlock {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A named set of per-lane counters, gauges, and histograms (see the
/// [module docs](self)).
pub struct Registry {
    counter_names: &'static [&'static str],
    gauge_names: &'static [&'static str],
    hist_names: &'static [&'static str],
    lanes: Box<[LaneBlock]>,
    /// Lane-major: `hists[lane * hist_names.len() + h]`.
    hists: Box<[HistBlock]>,
    /// Sweep sequence number: bumped per snapshot so emitted stats lines
    /// carry a total order even when intervals jitter.
    epoch: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counter_names)
            .field("gauges", &self.gauge_names)
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl Registry {
    /// Builds a registry with the given static catalogs and lane count.
    ///
    /// # Panics
    /// If the combined catalog exceeds the per-lane slot budget or any
    /// name is duplicated.
    pub fn new(
        counter_names: &'static [&'static str],
        gauge_names: &'static [&'static str],
        lanes: usize,
    ) -> Arc<Self> {
        Self::with_hists(counter_names, gauge_names, &[], lanes)
    }

    /// [`Registry::new`] plus a catalog of registered histogram
    /// instruments: each lane gets a padded block of relaxed atomic
    /// buckets per histogram (one writer per lane, swept like counters).
    ///
    /// # Panics
    /// Like [`Registry::new`], on slot overflow or any duplicated name
    /// across the three catalogs.
    pub fn with_hists(
        counter_names: &'static [&'static str],
        gauge_names: &'static [&'static str],
        hist_names: &'static [&'static str],
        lanes: usize,
    ) -> Arc<Self> {
        assert!(
            counter_names.len() + gauge_names.len() <= SLOTS,
            "catalog exceeds {SLOTS} slots"
        );
        let mut seen = Vec::new();
        for name in counter_names.iter().chain(gauge_names).chain(hist_names) {
            assert!(!seen.contains(name), "duplicate telemetry name {name:?}");
            seen.push(name);
        }
        let lanes = lanes.max(1);
        Arc::new(Registry {
            counter_names,
            gauge_names,
            hist_names,
            lanes: (0..lanes).map(|_| LaneBlock::new()).collect(),
            hists: (0..lanes * hist_names.len())
                .map(|_| HistBlock::new())
                .collect(),
            epoch: AtomicU64::new(0),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The counter catalog, in slot order.
    pub fn counter_names(&self) -> &'static [&'static str] {
        self.counter_names
    }

    /// The gauge catalog, in slot order.
    pub fn gauge_names(&self) -> &'static [&'static str] {
        self.gauge_names
    }

    /// Slot index of a counter name (for tests and generic tooling; hot
    /// paths use compile-time constants instead).
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counter_names.iter().position(|n| *n == name)
    }

    /// Slot index of a gauge name.
    pub fn gauge_index(&self, name: &str) -> Option<usize> {
        self.gauge_names.iter().position(|n| *n == name)
    }

    /// The histogram catalog, in slot order.
    pub fn hist_names(&self) -> &'static [&'static str] {
        self.hist_names
    }

    /// Slot index of a histogram name.
    pub fn hist_index(&self, name: &str) -> Option<usize> {
        self.hist_names.iter().position(|n| *n == name)
    }

    /// The update handle for `lane`.
    ///
    /// # Panics
    /// If `lane` is out of range.
    pub fn handle(self: &Arc<Self>, lane: usize) -> Handle {
        assert!(lane < self.lanes.len(), "lane {lane} out of range");
        Handle {
            registry: Arc::clone(self),
            lane,
        }
    }

    /// One epoch-consistent sweep over every lane: relaxed loads of
    /// monotonic single-writer cells, summed per name (histogram blocks
    /// are merged bucket-wise the same way).
    pub fn snapshot(&self) -> Snapshot {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let n = self.counter_names.len();
        let mut counters = vec![0u64; n];
        let mut gauges = vec![0u64; self.gauge_names.len()];
        for lane in self.lanes.iter() {
            for (i, total) in counters.iter_mut().enumerate() {
                *total = total.wrapping_add(lane.cells[i].load(Ordering::Relaxed));
            }
            for (j, total) in gauges.iter_mut().enumerate() {
                *total = total.wrapping_add(lane.cells[n + j].load(Ordering::Relaxed));
            }
        }
        let nh = self.hist_names.len();
        let mut hists = Vec::with_capacity(nh);
        let mut buckets = vec![0u64; BUCKETS];
        for h in 0..nh {
            buckets.iter_mut().for_each(|b| *b = 0);
            let mut sum = 0u64;
            let mut max = 0u64;
            for lane in 0..self.lanes.len() {
                let block = &self.hists[lane * nh + h];
                for (total, cell) in buckets.iter_mut().zip(block.counts.iter()) {
                    *total += cell.load(Ordering::Relaxed);
                }
                sum = sum.wrapping_add(block.sum.load(Ordering::Relaxed));
                max = max.max(block.max.load(Ordering::Relaxed));
            }
            hists.push(LatencyHistogram::from_parts(&buckets, sum, max));
        }
        Snapshot {
            epoch,
            counter_names: self.counter_names,
            gauge_names: self.gauge_names,
            hist_names: self.hist_names,
            counters,
            gauges: gauges.into_iter().map(|g| g as i64).collect(),
            hists,
        }
    }
}

/// A lane's update handle: relaxed adds on that lane's exclusive cells.
/// Cloning keeps the same lane; clone per thread only when the lane
/// genuinely has one writer at a time.
#[derive(Clone, Debug)]
pub struct Handle {
    registry: Arc<Registry>,
    lane: usize,
}

impl Handle {
    /// Adds `v` to counter slot `c` (monotonic; relaxed).
    #[inline]
    pub fn add(&self, c: usize, v: u64) {
        self.registry.lanes[self.lane].cells[c].fetch_add(v, Ordering::Relaxed);
    }

    /// Adds `1` to counter slot `c`.
    #[inline]
    pub fn incr(&self, c: usize) {
        self.add(c, 1);
    }

    /// Adds a signed delta to gauge slot `g` (two's-complement wrapping;
    /// only the cross-lane sum is meaningful).
    #[inline]
    pub fn gauge_add(&self, g: usize, v: i64) {
        let slot = self.registry.counter_names.len() + g;
        self.registry.lanes[self.lane].cells[slot].fetch_add(v as u64, Ordering::Relaxed);
    }

    /// Records one sample into histogram slot `h` on this lane: one
    /// relaxed bucket increment, one relaxed sum add, one `fetch_max`, all
    /// on the lane's own cache lines. Cheap enough for cold sites (fsyncs,
    /// sweeps) and for sampled hot-path timings (one decision in 64).
    #[inline]
    pub fn hist_record(&self, h: usize, value: u64) {
        let block = self.hist_block(h);
        block.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        block.sum.fetch_add(value, Ordering::Relaxed);
        block.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges an owned histogram's samples into histogram slot `h`:
    /// bucket-wise adds of the non-empty buckets. Pass a *delta* (what
    /// was recorded since the last merge), not a running total.
    pub fn hist_merge(&self, h: usize, delta: &LatencyHistogram) {
        let block = self.hist_block(h);
        for (idx, c) in delta.nonzero_buckets() {
            block.counts[idx].fetch_add(c, Ordering::Relaxed);
        }
        block.sum.fetch_add(delta.sum(), Ordering::Relaxed);
        block.max.fetch_max(delta.max(), Ordering::Relaxed);
    }

    #[inline]
    fn hist_block(&self, h: usize) -> &HistBlock {
        let nh = self.registry.hist_names.len();
        &self.registry.hists[self.lane * nh + h]
    }

    /// The registry this handle writes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// This handle's lane index.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

/// One sweep's totals, keyed by the registry's static names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Sweep sequence number (total order over snapshots of a registry).
    pub epoch: u64,
    counter_names: &'static [&'static str],
    gauge_names: &'static [&'static str],
    hist_names: &'static [&'static str],
    counters: Vec<u64>,
    gauges: Vec<i64>,
    hists: Vec<LatencyHistogram>,
}

impl Snapshot {
    /// Total of counter slot `c`.
    #[inline]
    pub fn counter(&self, c: usize) -> u64 {
        self.counters[c]
    }

    /// Total of the named counter (`None` if not in the catalog).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counter_names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.counters[i])
    }

    /// Total of gauge slot `g`.
    #[inline]
    pub fn gauge(&self, g: usize) -> i64 {
        self.gauges[g]
    }

    /// `(name, total)` pairs for every counter, in slot order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// `(name, total)` pairs for every gauge, in slot order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauge_names
            .iter()
            .copied()
            .zip(self.gauges.iter().copied())
    }

    /// The merged histogram of slot `h` (all lanes summed bucket-wise).
    #[inline]
    pub fn hist(&self, h: usize) -> &LatencyHistogram {
        &self.hists[h]
    }

    /// The named merged histogram (`None` if not in the catalog).
    pub fn hist_by_name(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hist_names
            .iter()
            .position(|n| *n == name)
            .map(|i| &self.hists[i])
    }

    /// `(name, histogram)` pairs for every histogram, in slot order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> + '_ {
        self.hist_names.iter().copied().zip(self.hists.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &[&str] = &["requests", "sent"];
    const GAUGES: &[&str] = &["depth"];

    #[test]
    fn totals_sum_across_lanes() {
        let reg = Registry::new(COUNTERS, GAUGES, 3);
        for lane in 0..3 {
            let h = reg.handle(lane);
            h.add(0, 10 * (lane as u64 + 1));
            h.incr(1);
            h.gauge_add(0, 5);
            h.gauge_add(0, -2);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(0), 60);
        assert_eq!(snap.counter(1), 3);
        assert_eq!(snap.gauge(0), 9);
        assert_eq!(snap.counter_by_name("requests"), Some(60));
        assert_eq!(snap.counter_by_name("missing"), None);
    }

    #[test]
    fn gauge_sum_can_cross_lanes_and_go_negative_transiently() {
        let reg = Registry::new(COUNTERS, GAUGES, 2);
        reg.handle(0).gauge_add(0, 7);
        reg.handle(1).gauge_add(0, -7);
        assert_eq!(reg.snapshot().gauge(0), 0);
        reg.handle(1).gauge_add(0, -1);
        assert_eq!(reg.snapshot().gauge(0), -1);
    }

    #[test]
    fn epochs_are_strictly_increasing() {
        let reg = Registry::new(COUNTERS, GAUGES, 1);
        let a = reg.snapshot().epoch;
        let b = reg.snapshot().epoch;
        assert!(b > a);
    }

    #[test]
    fn name_lookup_matches_slot_order() {
        let reg = Registry::new(COUNTERS, GAUGES, 1);
        assert_eq!(reg.counter_index("sent"), Some(1));
        assert_eq!(reg.gauge_index("depth"), Some(0));
        assert_eq!(reg.counter_index("depth"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let _ = Registry::new(&["a", "a"], &[], 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_hist_names_panic() {
        let _ = Registry::with_hists(&["a"], &[], &["a"], 1);
    }

    const HISTS: &[&str] = &["admit_ns", "sweep_ns"];

    #[test]
    fn hist_record_and_merge_sum_across_lanes() {
        let reg = Registry::with_hists(COUNTERS, GAUGES, HISTS, 2);
        reg.handle(0).hist_record(0, 100);
        reg.handle(0).hist_record(0, 200);
        reg.handle(1).hist_record(0, 10_000);
        reg.handle(1).hist_record(1, 7);

        let mut owned = LatencyHistogram::new();
        owned.record(100);
        owned.record(200);
        owned.record(10_000);

        let snap = reg.snapshot();
        let h = snap.hist(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), owned.sum());
        assert_eq!(h.max(), 10_000);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.percentile(q), owned.percentile(q));
        }
        assert_eq!(snap.hist(1).count(), 1);
        assert_eq!(snap.hist_by_name("sweep_ns").unwrap().max(), 7);
        assert!(snap.hist_by_name("missing").is_none());
        assert_eq!(snap.hists().count(), 2);
        assert_eq!(reg.hist_index("sweep_ns"), Some(1));
        assert_eq!(reg.hist_names(), HISTS);
    }
}
