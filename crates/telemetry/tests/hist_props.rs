//! Property coverage: registered histograms bin, merge, and report
//! percentiles exactly like an oracle computed from the raw samples.
//!
//! The registered instrument has two publication paths — per-sample
//! [`Handle::hist_record`] and owned-delta [`Handle::hist_merge`] — and a
//! snapshot merges every lane. Whatever mix of paths and lanes the samples
//! take, the merged result must be byte-identical to one owned
//! [`LatencyHistogram`] that recorded everything, and its percentiles
//! must equal the bucket lower bound of the true rank-selected sample.
//!
//! [`Handle::hist_record`]: ta_telemetry::Handle::hist_record
//! [`Handle::hist_merge`]: ta_telemetry::Handle::hist_merge

use proptest::prelude::*;

use ta_telemetry::hist::{bucket_index, bucket_value};
use ta_telemetry::{LatencyHistogram, Registry};

const HISTS: &[&str] = &["lat"];

/// The exact value a histogram must report for quantile `q`: the bucket
/// lower bound of the rank-th smallest raw sample, under the same
/// ceil-rank rule [`LatencyHistogram::percentile`] documents. Binning is
/// monotone, so the rank-th sample's bucket is exactly the bucket where
/// the cumulative count reaches the rank.
fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    bucket_value(bucket_index(sorted[rank - 1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Samples published through every path, spread over several lanes,
    /// snapshot to the same books and percentiles as the raw samples.
    #[test]
    fn registered_hist_matches_raw_sample_oracle(
        samples in proptest::collection::vec(0u64..50_000_000, 1..400),
        lanes in 1usize..5,
        merge_every in 1usize..9,
    ) {
        let reg = Registry::with_hists(&[], &[], HISTS, lanes);
        // Path B state: owned per-lane deltas, merged every few samples
        // and once at the end.
        let mut owned: Vec<LatencyHistogram> =
            (0..lanes).map(|_| LatencyHistogram::new()).collect();
        let mut whole = LatencyHistogram::new();

        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            let lane = i % lanes;
            if i % 2 == 0 {
                reg.handle(lane).hist_record(0, v);
            } else {
                owned[lane].record(v);
                if i % merge_every == 0 {
                    reg.handle(lane).hist_merge(0, &std::mem::take(&mut owned[lane]));
                }
            }
        }
        for (lane, rest) in owned.iter().enumerate() {
            reg.handle(lane).hist_merge(0, rest);
        }

        let snap = reg.snapshot();
        let merged = snap.hist(0);
        // Exact books: the lane-merged instrument is indistinguishable
        // from one owned histogram that saw every sample.
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert_eq!(merged.buckets(), whole.buckets());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            prop_assert_eq!(merged.percentile(q), oracle_percentile(&sorted, q));
        }
    }

    /// Percentile reports are never above the true quantile value and
    /// never more than one sub-bucket (~3%) below it.
    #[test]
    fn percentiles_are_tight_lower_bounds(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];
        let reported = h.percentile(q);
        prop_assert!(reported <= exact);
        prop_assert!(reported as f64 >= exact as f64 * (1.0 - 1.0 / 32.0) - 1.0,
            "reported {} too far below exact {}", reported, exact);
    }
}
