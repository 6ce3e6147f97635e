//! Restart path: snapshot + journal tail → verified account state.
//!
//! [`recover`] never serves a silently-wrong state. Its contract:
//!
//! 1. **Pick a base.** Allocate the balance array once, then stream the
//!    newest snapshot into it, falling back past torn, corrupt,
//!    partially-written, or wrongly-shaped files (each skip is reported
//!    as a [`Truncation`]). A file is checked against the manifest's
//!    layout — its length before a byte is read, each shard's `count` as
//!    it comes — and its CRC when it ends; a file rejected late has
//!    written some balances, which the next snapshot overwrites or the
//!    zero state clears. No valid snapshot → start from zero balances
//!    with zero watermarks.
//! 2. **Replay the tail.** Walk the journal segments at or above the
//!    base's `first_segment` in id order — the snapshot format
//!    guarantees every record it does not already contain lives there,
//!    so older segments are not opened at all, and damage inside one is
//!    neither noticed nor reported: it cannot change the result.
//!    (Falling back to an older snapshot lowers the bound with it;
//!    retention keeps every segment the older retained snapshot needs.)
//!    Each segment streams through one fixed window (`fold_file`), and
//!    each CRC-verified frame is folded straight from it: a record
//!    applies iff its `seq` is at or above its shard's snapshot
//!    watermark (deltas on distinct sequence numbers commute,
//!    so order within a shard is irrelevant; duplicates cannot exist
//!    because the sequence is stamped once per record). The first torn,
//!    corrupt, or geometry-contradicting frame ends the usable journal:
//!    later frames — even valid ones — are dropped and reported,
//!    because the gap makes their prefix unknowable.
//! 3. **Verify conservation.** For every shard the recovered books must
//!    balance exactly: `granted − burned == Σ balances`, and the same
//!    globally. A mismatch is [`RecoveryError::Conservation`] — the
//!    caller must refuse to serve.
//!
//! The recovered state is exactly the fold of the surviving record
//! prefix — the acceptance oracle the crash tests check against.

use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use super::journal::{self, FrameError, FrameView};
use super::{read_manifest, snapshot, Manifest};
use crate::accounts::ShardLayout;

/// One event where recovery discarded data it could not trust.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// The file involved.
    pub file: PathBuf,
    /// What was wrong.
    pub reason: TruncationReason,
}

/// Why a file (or its tail) was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruncationReason {
    /// A journal segment ended inside a frame; `kept` bytes survive.
    TornTail {
        /// Usable prefix length in bytes.
        kept: u64,
    },
    /// A journal frame failed its CRC, had a bad magic, or named a shard
    /// or client the manifest rules out; the rest of the journal is
    /// dropped.
    CorruptFrame {
        /// Usable prefix length in bytes.
        kept: u64,
    },
    /// A later journal segment was ignored because an earlier one was
    /// cut short.
    UnreachableSegment,
    /// A snapshot file failed to load and was skipped.
    BadSnapshot {
        /// The loader's diagnosis.
        error: String,
    },
    /// A leftover `.tmp` file from an interrupted atomic write.
    AbandonedTmp,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.file.file_name().unwrap_or_default().to_string_lossy();
        match &self.reason {
            TruncationReason::TornTail { kept } => {
                write!(f, "{name}: torn tail, kept {kept} bytes")
            }
            TruncationReason::CorruptFrame { kept } => {
                write!(f, "{name}: corrupt frame, kept {kept} bytes")
            }
            TruncationReason::UnreachableSegment => {
                write!(f, "{name}: unreachable past an earlier truncation")
            }
            TruncationReason::BadSnapshot { error } => write!(f, "{name}: {error}"),
            TruncationReason::AbandonedTmp => write!(f, "{name}: abandoned tmp file"),
        }
    }
}

/// A fully-verified recovered state, ready for
/// [`Persistence::resume`](super::Persistence::resume) and
/// [`LiveRuntime`](crate::runtime::LiveRuntime) reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Client count (from the manifest).
    pub clients: usize,
    /// Shard count (from the manifest).
    pub shards: usize,
    /// All balances, in client order.
    pub balances: Vec<i64>,
    /// Per-shard cumulative granted tokens.
    pub granted: Vec<u64>,
    /// Per-shard cumulative burned tokens.
    pub burned: Vec<u64>,
    /// Per-shard next sequence number (for resuming the journal).
    pub next_seq: Vec<u64>,
    /// Snapshot the state was based on (`None` = journal-only).
    pub snapshot_id: Option<u64>,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Data recovery had to discard (torn tails, corrupt frames, bad
    /// snapshots). Empty after a clean shutdown.
    pub truncations: Vec<Truncation>,
}

impl RecoveredState {
    /// Sum of all recovered balances.
    pub fn balances_sum(&self) -> i64 {
        self.balances.iter().sum()
    }

    /// Total granted across shards.
    pub fn granted_total(&self) -> u64 {
        self.granted.iter().sum()
    }

    /// Total burned across shards.
    pub fn burned_total(&self) -> u64 {
        self.burned.iter().sum()
    }
}

/// Why recovery refused to produce a state.
#[derive(Debug)]
pub enum RecoveryError {
    /// The recovered books do not balance: serving them would violate
    /// token conservation.
    Conservation {
        /// Human-readable diagnosis (which shard, expected vs got).
        detail: String,
    },
    /// The directory is not a recoverable domain (missing/corrupt
    /// manifest) or another I/O failure.
    Io(io::Error),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Conservation { detail } => {
                write!(f, "conservation mismatch: {detail}")
            }
            RecoveryError::Io(e) => write!(f, "recovery i/o: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Recovers the durability domain in `dir`.
///
/// # Errors
///
/// [`RecoveryError::Conservation`] if the recovered books do not
/// balance (the caller must not serve); [`RecoveryError::Io`] if the
/// manifest is missing/corrupt or the filesystem fails. Torn tails and
/// corrupt files are *not* errors — they are truncations, reported in
/// [`RecoveredState::truncations`].
pub fn recover(dir: &Path) -> Result<RecoveredState, RecoveryError> {
    let manifest = read_manifest(dir)?;
    let mut truncations = Vec::new();

    // Leftover tmp files are evidence of an interrupted atomic write;
    // report (and ignore) them.
    for entry in std::fs::read_dir(dir).map_err(RecoveryError::Io)? {
        let entry = entry.map_err(RecoveryError::Io)?;
        if entry.file_name().to_string_lossy().ends_with(".tmp") {
            truncations.push(Truncation {
                file: entry.path(),
                reason: TruncationReason::AbandonedTmp,
            });
        }
    }

    // Recovery touches two buffers: the balance array it returns, which
    // the base snapshot is read straight into, and one window every
    // segment streams through.
    let mut balances = vec![0; manifest.clients];
    advise_huge_pages(&mut balances);
    let base = pick_base(dir, &manifest, &mut balances, &mut truncations)?;
    let (snapshot_id, first_segment) = (base.snapshot_id, base.first_segment);
    let mut fold = Fold::new(&manifest, base, balances);
    let mut window = vec![0; journal::WINDOW];

    // Replay every surviving record with seq >= its shard's watermark.
    // Segments below the base's `first_segment` hold none (see
    // `snapshot.rs`) and are not opened.
    let mut dead = false;
    for (id, path) in journal::list_segments(dir)? {
        if id < first_segment {
            continue;
        }
        if dead {
            truncations.push(Truncation {
                file: path,
                reason: TruncationReason::UnreachableSegment,
            });
            continue;
        }
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        let end = journal::fold_file(&mut file, len, &mut window, |shard, view| {
            fold.frame(shard, view)
        })?;
        if let Some(err) = end.error {
            let kept = end.valid_len as u64;
            truncations.push(Truncation {
                file: path,
                reason: match err {
                    FrameError::Torn => TruncationReason::TornTail { kept },
                    // A frame the fold rejects (unknown shard, record
                    // outside its shard) cannot be applied: CRC-valid
                    // or not, it is corruption.
                    FrameError::BadMagic | FrameError::BadCrc | FrameError::Rejected => {
                        TruncationReason::CorruptFrame { kept }
                    }
                },
            });
            dead = true;
        }
    }

    // Conservation: per shard and globally, granted − burned must equal
    // the sum of balances. This must hold by construction of the fold —
    // if it doesn't, the files lied (bit rot, poisoned books) and the
    // state must not be served.
    for s in 0..manifest.shards {
        let range = fold.geometry.shard_range(s);
        let sum: i64 = fold.balances[range].iter().sum();
        let books = fold.granted[s] as i64 - fold.burned[s] as i64;
        if books != sum {
            return Err(RecoveryError::Conservation {
                detail: format!(
                    "shard {s}: granted {} − burned {} = {books} but balances sum to {sum}",
                    fold.granted[s], fold.burned[s]
                ),
            });
        }
    }

    Ok(RecoveredState {
        clients: manifest.clients,
        shards: manifest.shards,
        balances: fold.balances,
        granted: fold.granted,
        burned: fold.burned,
        next_seq: fold.next_seq,
        snapshot_id,
        replayed: fold.replayed,
        truncations,
    })
}

/// The state replay starts from, besides the balances: a snapshot's
/// books and watermarks, or zero.
struct Base {
    snapshot_id: Option<u64>,
    /// No record at or above a watermark lives in a segment below this.
    first_segment: u64,
    granted: Vec<u64>,
    burned: Vec<u64>,
    watermarks: Vec<u64>,
}

/// Reads the newest valid snapshot into `balances` (recording a
/// truncation per skipped file) or falls back to the zero state. An
/// older snapshot brings its own, lower `first_segment`, and retention
/// keeps every segment from the *older* retained snapshot's bound on —
/// so the fallback still sees every record it needs. A rejected file
/// may have written some of `balances` before its fault showed: the
/// next snapshot overwrites every shard, and the zero state clears them.
fn pick_base(
    dir: &Path,
    manifest: &Manifest,
    balances: &mut [i64],
    truncations: &mut Vec<Truncation>,
) -> Result<Base, RecoveryError> {
    let read = |path: &Path, balances: &mut [i64]| -> io::Result<Base> {
        let mut snap = snapshot::Reader::open(path, Some(manifest))?;
        let layout = snap.layout();
        let books = (0..layout.shard_count())
            .map(|s| snap.shard(&mut balances[layout.shard_range(s)]))
            .collect::<io::Result<Vec<_>>>()?;
        let (snapshot_id, first_segment) = (Some(snap.id), snap.first_segment);
        snap.finish()?;
        Ok(Base {
            snapshot_id,
            first_segment,
            granted: books.iter().map(|b| b.granted).collect(),
            burned: books.iter().map(|b| b.burned).collect(),
            watermarks: books.iter().map(|b| b.watermark).collect(),
        })
    };
    let mut files = snapshot::list_snapshot_files(dir)?;
    let skipped = !files.is_empty();
    while let Some((_, path)) = files.pop() {
        match read(&path, balances) {
            Ok(base) => return Ok(base),
            Err(e) => truncations.push(Truncation {
                file: path,
                reason: TruncationReason::BadSnapshot {
                    error: e.to_string(),
                },
            }),
        }
    }
    if skipped {
        balances.fill(0);
    }
    Ok(Base {
        snapshot_id: None,
        first_segment: 0,
        granted: vec![0; manifest.shards],
        burned: vec![0; manifest.shards],
        watermarks: vec![0; manifest.shards],
    })
}

/// Asks the kernel to back `balances` with transparent huge pages
/// before anything is written to it: the array is the one large thing
/// recovery touches, and at 4 KiB a page its first-touch faults are a
/// visible share of time-to-serve (an 8 MB array is ~2,000 of them,
/// against a handful of 2 MiB ones). Only whole 2 MiB pages inside the
/// array are advised. A no-op off Linux, and where huge pages are off.
fn advise_huge_pages(balances: &mut [i64]) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            // int madvise(void *addr, size_t length, int advice);
            fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        const HUGE: usize = 2 << 20;
        let start = balances.as_mut_ptr() as usize;
        let lo = start.next_multiple_of(HUGE);
        let hi = (start + std::mem::size_of_val(balances)) / HUGE * HUGE;
        if lo < hi {
            // SAFETY: `lo..hi` lies inside `balances`, which this call
            // borrows mutably; the advice changes how the kernel backs
            // those pages, never their contents. A refusal (no THP
            // support) leaves them as they were.
            unsafe {
                madvise(lo as *mut _, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = balances;
}

/// The replay accumulator: the base plus every record folded so far.
struct Fold {
    geometry: ShardLayout,
    watermarks: Vec<u64>,
    balances: Vec<i64>,
    granted: Vec<u64>,
    burned: Vec<u64>,
    next_seq: Vec<u64>,
    replayed: u64,
}

impl Fold {
    fn new(manifest: &Manifest, base: Base, balances: Vec<i64>) -> Self {
        Fold {
            geometry: ShardLayout::new(manifest.clients, manifest.shards),
            next_seq: base.watermarks.clone(),
            watermarks: base.watermarks,
            balances,
            granted: base.granted,
            burned: base.burned,
            replayed: 0,
        }
    }

    /// Folds one CRC-verified frame straight from its bytes, applying
    /// each record at or above the shard's watermark. Returns `false`,
    /// with nothing applied, for a frame that contradicts the manifest:
    /// an unknown shard, a delta record at or above the watermark for a
    /// client outside the shard, or any grant record that is not
    /// well-formed or whose `lo..lo + len` leaves the shard.
    fn frame(&mut self, shard: u32, view: FrameView<'_>) -> bool {
        let s = shard as usize;
        if s >= self.watermarks.len() {
            return false;
        }
        let w = self.watermarks[s];
        let range = self.geometry.shard_range(s);
        let (first, n) = (range.start, range.len());
        let accounts = &mut self.balances[range];
        let in_shard = |lo: usize, len: usize| lo >= first && len <= n && lo - first <= n - len;
        // The books stay in registers for the frame and land once.
        let (mut granted, mut burned, mut replayed) = (0u64, 0u64, 0u64);
        let mut next_seq = self.next_seq[s];
        match view {
            FrameView::Deltas { base, recs } => {
                let recs = || journal::delta_records(base, recs).filter(|r| r.seq >= w);
                if !recs().all(|r| in_shard(r.client as usize, 1)) {
                    return false;
                }
                for r in recs() {
                    accounts[r.client as usize - first] += i64::from(r.delta);
                    if r.delta >= 0 {
                        granted += u64::from(r.delta.unsigned_abs());
                    } else {
                        burned += u64::from(r.delta.unsigned_abs());
                    }
                    next_seq = next_seq.max(r.seq.saturating_add(1));
                    replayed += 1;
                }
            }
            FrameView::Grants { recs } => {
                let recs = || journal::grant_records(recs);
                if !recs().all(|r| r.is_well_formed() && in_shard(r.lo as usize, r.len as usize)) {
                    return false;
                }
                for r in recs().filter(|r| r.seq >= w) {
                    let lo = r.lo as usize - first;
                    for (k, &word) in r.bits.iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            accounts[lo + k * 64 + word.trailing_zeros() as usize] += 1;
                            word &= word - 1;
                        }
                    }
                    granted += r.grants();
                    next_seq = next_seq.max(r.seq.saturating_add(1));
                    replayed += 1;
                }
            }
        }
        self.granted[s] += granted;
        self.burned[s] += burned;
        self.next_seq[s] = next_seq;
        self.replayed += replayed;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{write_manifest, Manifest};
    use super::*;

    #[test]
    fn empty_domain_recovers_to_zero() {
        let dir = std::env::temp_dir().join(format!("ta-rec-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(
            &dir,
            &Manifest {
                clients: 5,
                shards: 2,
            },
        )
        .unwrap();
        let state = recover(&dir).unwrap();
        assert_eq!(state.balances, vec![0; 5]);
        assert_eq!(state.replayed, 0);
        assert_eq!(state.snapshot_id, None);
        assert!(state.truncations.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// CRC-valid frames whose contents contradict the manifest — bytes a
    /// buggy or hostile writer could leave on disk — must condemn the
    /// segment like any other corruption (the `live` binary's exit 4),
    /// not abort the process.
    #[test]
    fn crc_valid_garbage_is_a_corrupt_frame_not_a_panic() {
        use super::super::journal::{
            encode_frame, encode_grant_frame, segment_path, DeltaRec, GrantRec,
        };
        fn delta(seq: u64, client: u32, delta: i32) -> DeltaRec {
            DeltaRec { seq, client, delta }
        }
        /// A grant record setting bits `set` of `lo..lo + len`.
        fn grant(seq: u64, lo: u32, len: u32, set: &[usize]) -> GrantRec {
            let mut bits = [0; 16];
            for &i in set {
                bits[i / 64] |= 1 << (i % 64);
            }
            GrantRec { seq, lo, len, bits }
        }
        // 10 clients over 2 shards: shard 0 owns 0..5, shard 1 owns 5..10.
        // In-shard records come first: a rejected frame applies nothing.
        type EncodeBad = fn(&mut Vec<u8>);
        let cases: [(&str, EncodeBad); 5] = [
            ("client", |out| {
                encode_frame(0, &[delta(1, 2, 9), delta(2, 7, 1)], out);
            }),
            ("grant-past-shard", |out| {
                let recs = [grant(1, 0, 2, &[0, 1]), grant(2, 3, 4, &[0])];
                encode_grant_frame(0, &recs, out);
            }),
            ("grant-bit-at-len", |out| {
                let recs = [grant(1, 0, 5, &[0, 4]), grant(2, 0, 2, &[0, 2])];
                encode_grant_frame(0, &recs, out);
            }),
            ("grant-too-long", |out| {
                let recs = [grant(1, 5, 5, &[3]), grant(2, 5, 1025, &[0])];
                encode_grant_frame(1, &recs, out);
            }),
            ("shard", |out| {
                encode_frame(9, &[], out);
            }),
        ];
        for (tag, encode_bad) in cases {
            let dir =
                std::env::temp_dir().join(format!("ta-rec-garbage-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            write_manifest(
                &dir,
                &Manifest {
                    clients: 10,
                    shards: 2,
                },
            )
            .unwrap();
            let mut seg = Vec::new();
            encode_frame(0, &[delta(0, 1, 4)], &mut seg);
            let kept = seg.len() as u64;
            encode_bad(&mut seg);
            encode_frame(1, &[delta(0, 6, 2)], &mut seg);
            std::fs::write(segment_path(&dir, 0), &seg).unwrap();
            std::fs::write(segment_path(&dir, 1), b"").unwrap();

            let state = recover(&dir).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(
                state.truncations,
                vec![
                    Truncation {
                        file: segment_path(&dir, 0),
                        reason: TruncationReason::CorruptFrame { kept },
                    },
                    Truncation {
                        file: segment_path(&dir, 1),
                        reason: TruncationReason::UnreachableSegment,
                    },
                ],
                "{tag}"
            );
            // Exactly the prefix before the bad frame was folded.
            let mut want = vec![0i64; 10];
            want[1] = 4;
            assert_eq!(state.balances, want, "{tag}");
            assert_eq!((state.granted_total(), state.replayed), (4, 1), "{tag}");
            assert_eq!(state.next_seq, vec![1, 0], "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A snapshot or a segment whose name points at an endless device is
    /// read no further than its own bounds: the snapshot by the length
    /// the manifest implies, the segment by the frame grammar.
    #[cfg(unix)]
    #[test]
    fn files_that_never_end_are_bad_not_endless() {
        use super::super::journal::segment_path;
        let dir = std::env::temp_dir().join(format!("ta-rec-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest {
            clients: 10,
            shards: 2,
        };
        write_manifest(&dir, &manifest).unwrap();
        let snap = snapshot::snapshot_path(&dir, 0);
        let seg = segment_path(&dir, 0);
        std::os::unix::fs::symlink("/dev/zero", &snap).unwrap();
        std::os::unix::fs::symlink("/dev/zero", &seg).unwrap();

        let state = recover(&dir).unwrap();
        assert_eq!(state.truncations.len(), 2, "{:?}", state.truncations);
        assert_eq!(state.truncations[0].file, snap);
        assert!(matches!(
            state.truncations[0].reason,
            TruncationReason::BadSnapshot { .. }
        ));
        assert_eq!(
            state.truncations[1],
            Truncation {
                file: seg,
                reason: TruncationReason::CorruptFrame { kept: 0 },
            }
        );
        assert_eq!((state.balances, state.snapshot_id), (vec![0; 10], None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = std::env::temp_dir().join(format!("ta-rec-noman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(recover(&dir), Err(RecoveryError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
