//! Property tests for the journal's read side: the frame grammar lives
//! in `fold_segment` alone, so the owning collector (`scan_segment`) and
//! a direct `fold_segment` walk that decodes record bytes by hand from
//! the documented layout must agree — on frames, `valid_len` and `error`
//! — for every prefix of a random segment and for every damaged copy,
//! and no input at all may panic either. Recovery's windowed reader
//! (`fold_file`, whose window size is crate-private) is held to the
//! whole-buffer walk, prefix by prefix and flip by flip, by the
//! `windowed_*` properties in `journal.rs`'s unit tests.

use proptest::prelude::*;

use ta_live::persist::journal::{
    encode_frame, encode_grant_frame, fold_segment, grant_records, scan_segment, DeltaRec,
    FrameError, FramePayload, FrameView, GrantRec, ParsedFrame, GRANT_MAGIC,
};

/// A frame before encoding.
#[derive(Clone, Debug)]
enum Fr {
    /// `(shard, base seq, records as (seq gap, client, delta))`
    Deltas(u32, u64, Vec<(u16, u32, i16)>),
    /// `(shard, records as (seq, lo, len, 16 bitmap words))`
    Grants(u32, Vec<(u64, u32, u32, Vec<u64>)>),
}

fn frame_strategy() -> impl Strategy<Value = Fr> {
    prop_oneof![
        (
            0u32..64,
            0u64..1 << 40,
            proptest::collection::vec((0u16..400, any::<u32>(), any::<i16>()), 0..12),
        )
            .prop_map(|(shard, base, recs)| Fr::Deltas(shard, base, recs)),
        (
            0u32..64,
            proptest::collection::vec(
                (
                    any::<u64>(),
                    any::<u32>(),
                    0u32..1100,
                    proptest::collection::vec(any::<u64>(), 16),
                ),
                0..4,
            ),
        )
            .prop_map(|(shard, recs)| Fr::Grants(shard, recs)),
    ]
}

/// Encodes `frames`, returning the bytes, the frames as a reader must
/// see them, and every frame boundary (`0` first, the length last).
fn encode(frames: &[Fr]) -> (Vec<u8>, Vec<ParsedFrame>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut want = Vec::new();
    let mut bounds = vec![0];
    for f in frames {
        match f {
            Fr::Deltas(shard, base, recs) => {
                let mut seq = *base;
                let recs: Vec<DeltaRec> = recs
                    .iter()
                    .map(|&(gap, client, delta)| {
                        seq += u64::from(gap);
                        DeltaRec {
                            seq,
                            client,
                            delta: i32::from(delta),
                        }
                    })
                    .collect();
                // ≤ 12 gaps of < 400 stay inside one u16 window.
                assert_eq!(encode_frame(*shard, &recs, &mut bytes), 1);
                want.push(ParsedFrame {
                    shard: *shard,
                    payload: FramePayload::Deltas(recs),
                });
            }
            Fr::Grants(shard, recs) => {
                let recs: Vec<GrantRec> = recs
                    .iter()
                    .map(|(seq, lo, len, words)| GrantRec {
                        seq: *seq,
                        lo: *lo,
                        len: *len,
                        bits: words.as_slice().try_into().unwrap(),
                    })
                    .collect();
                encode_grant_frame(*shard, &recs, &mut bytes);
                want.push(ParsedFrame {
                    shard: *shard,
                    payload: FramePayload::Grants(recs),
                });
            }
        }
        bounds.push(bytes.len());
    }
    (bytes, want, bounds)
}

/// A collector written against `fold_segment` and the byte layout in
/// the `journal.rs` header, sharing nothing else with `scan_segment`.
fn direct_walk(bytes: &[u8]) -> (Vec<ParsedFrame>, usize, Option<FrameError>) {
    let u16_at = |b: &[u8], at: usize| u16::from_le_bytes([b[at], b[at + 1]]);
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut frames = Vec::new();
    let end = fold_segment(bytes, |shard, view| {
        let payload = match view {
            FrameView::Deltas { base, recs } => {
                assert_eq!(recs.len() % 8, 0);
                FramePayload::Deltas(
                    recs.chunks(8)
                        .map(|r| DeltaRec {
                            seq: base + u64::from(u16_at(r, 0)),
                            delta: i32::from(u16_at(r, 2) as i16),
                            client: u32_at(r, 4),
                        })
                        .collect(),
                )
            }
            FrameView::Grants { recs } => {
                assert_eq!(recs.len() % 144, 0);
                FramePayload::Grants(
                    recs.chunks(144)
                        .map(|r| GrantRec {
                            seq: u64_at(r, 0),
                            lo: u32_at(r, 8),
                            len: u32_at(r, 12),
                            bits: std::array::from_fn(|k| u64_at(r, 16 + 8 * k)),
                        })
                        .collect(),
                )
            }
        };
        frames.push(ParsedFrame { shard, payload });
        true
    });
    (frames, end.valid_len, end.error)
}

/// Index of the frame that contains byte `at`.
fn frame_of(bounds: &[usize], at: usize) -> usize {
    bounds.iter().rposition(|&b| b <= at).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every truncation point: both readers keep exactly the whole
    /// frames before the cut and call anything else a torn tail.
    #[test]
    fn collector_and_direct_walk_agree_at_every_truncation(
        frames in proptest::collection::vec(frame_strategy(), 0..7),
    ) {
        let (bytes, want, bounds) = encode(&frames);
        for cut in 0..=bytes.len() {
            let scan = scan_segment(&bytes[..cut]);
            let (frames, valid_len, error) = direct_walk(&bytes[..cut]);
            prop_assert_eq!(&scan.frames, &frames, "cut {}", cut);
            prop_assert_eq!((scan.valid_len, scan.error), (valid_len, error), "cut {}", cut);

            let whole = frame_of(&bounds, cut);
            prop_assert_eq!(&frames[..], &want[..whole], "cut {}", cut);
            prop_assert_eq!(valid_len, bounds[whole], "cut {}", cut);
            let torn = (cut != bounds[whole]).then_some(FrameError::Torn);
            prop_assert_eq!(error, torn, "cut {}", cut);
        }
    }

    /// Every single-byte flip (one bit of every byte): the readers
    /// agree, keep exactly the frames before the damaged one, and stop
    /// there with a grammar error.
    #[test]
    fn collector_and_direct_walk_agree_on_single_byte_flips(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        bit in 0u32..8,
    ) {
        let (mut bytes, want, bounds) = encode(&frames);
        for at in 0..bytes.len() {
            bytes[at] ^= 1 << bit;
            let scan = scan_segment(&bytes);
            let (frames, valid_len, error) = direct_walk(&bytes);
            bytes[at] ^= 1 << bit;
            prop_assert_eq!(&scan.frames, &frames, "flip {}", at);
            prop_assert_eq!((scan.valid_len, scan.error), (valid_len, error), "flip {}", at);

            let hit = frame_of(&bounds, at);
            prop_assert_eq!(&frames[..], &want[..hit], "flip {}", at);
            prop_assert_eq!(valid_len, bounds[hit], "flip {}", at);
            prop_assert!(
                matches!(
                    error,
                    Some(FrameError::Torn | FrameError::BadMagic | FrameError::BadCrc)
                ),
                "flip {}: {:?}", at, error
            );
        }
    }

    /// Arbitrary bytes — bare, or behind a grant-frame header whose count
    /// is small enough for the CRC check to be reached — never panic a
    /// reader: the walk ends inside the input with some verdict, and any
    /// frame it lends decodes (shape checks included) without panicking.
    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        garbage in proptest::collection::vec(any::<u8>(), 0..700),
        count in 0u32..6,
        headed in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if headed {
            bytes.extend_from_slice(&GRANT_MAGIC.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes.extend_from_slice(&garbage);
        let scan = scan_segment(&bytes);
        prop_assert!(scan.valid_len <= bytes.len());
        prop_assert_eq!(scan.error.is_none(), scan.valid_len == bytes.len());
        let end = fold_segment(&bytes, |_, view| {
            if let FrameView::Grants { recs } = view {
                for r in grant_records(recs) {
                    let _ = (r.is_well_formed(), r.grants());
                }
            }
            true
        });
        prop_assert_eq!((end.valid_len, end.error), (scan.valid_len, scan.error));
    }

    /// A visitor that refuses frame `k` stops the walk *before* it.
    #[test]
    fn a_rejected_frame_ends_the_walk_before_it(
        frames in proptest::collection::vec(frame_strategy(), 1..7),
        pick in any::<u64>(),
    ) {
        let (bytes, _, bounds) = encode(&frames);
        let k = (pick % frames.len() as u64) as usize;
        let mut seen = 0usize;
        let end = fold_segment(&bytes, |_, _| {
            seen += 1;
            seen <= k
        });
        prop_assert_eq!(seen, k + 1);
        prop_assert_eq!(end.valid_len, bounds[k]);
        prop_assert_eq!(end.error, Some(FrameError::Rejected));
    }
}
