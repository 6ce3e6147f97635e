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
//!    The replay runs as one fold per contiguous group of shards, each
//!    on its own slice of the balance array: one group per core for a
//!    domain of 2¹⁸ clients or more (`GROUPED_FROM_CLIENTS`), one group
//!    below. Every group streams every segment through its own window
//!    (`fold_file`)
//!    and checks every frame — grammar, CRC, and the geometry of every
//!    record at or above its shard's watermark — but applies only the
//!    frames of its own shards, straight from the window: a record
//!    applies iff its `seq` is at or above its shard's snapshot
//!    watermark (deltas on distinct sequence numbers commute,
//!    so order within a shard is irrelevant; duplicates cannot exist
//!    because the sequence is stamped once per record). The first torn,
//!    corrupt, or geometry-contradicting frame ends the usable journal:
//!    later frames — even valid ones — are dropped and reported,
//!    because the gap makes their prefix unknowable. Because every group
//!    sees every frame, all groups stop at the same one, and the result
//!    does not depend on how many groups there are. Recovery expects a
//!    directory nobody writes; if the files change between the groups'
//!    reads, the groups see the journal end in different places, and
//!    recovery runs again in one group, as it does when a group's
//!    thread cannot start.
//! 3. **Verify conservation.** For every shard the recovered books must
//!    balance exactly: `granted − burned == Σ balances` (which makes it
//!    hold globally too). Each group checks its own shards; a mismatch
//!    is [`RecoveryError::Conservation`], naming the lowest failing
//!    shard — the caller must refuse to serve.
//!
//! The recovered state is exactly the fold of the surviving record
//! prefix — the acceptance oracle the crash tests check against.

use std::fmt;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::thread;

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

/// The smallest domain whose tail [`recover`] folds in more than one
/// group: 2¹⁸ clients, a 2 MiB balance array. The groups split the
/// applies, which pay a cache miss a record once the array outgrows a
/// core's cache; below that the applies are cheap, and the groups'
/// fixed costs (a thread start, and every group reading, checksumming
/// and checking the whole tail) outweigh them. Direct alternating A/Bs
/// of `live --recover` on `live_recover`-shaped directories (64 shards,
/// a 2-core VM) put the crossover there: two groups lost at 100k–200k
/// clients (×0.84–0.95), broke even at 250k–300k (×0.99–1.07), and won
/// from 400k (×1.07) to 1M (×1.25).
const GROUPED_FROM_CLIENTS: usize = 1 << 18;

/// Recovers the durability domain in `dir`. The tail of a domain of 2¹⁸
/// clients or more (`GROUPED_FROM_CLIENTS`) is folded in one shard group
/// per core (`available_parallelism()`, which honours the process's CPU
/// mask); a smaller domain's in one.
///
/// # Errors
///
/// [`RecoveryError::Conservation`] if the recovered books do not
/// balance (the caller must not serve); [`RecoveryError::Io`] if the
/// manifest is missing/corrupt, the balance array does not fit in
/// memory, or the filesystem fails. Torn tails and corrupt files are
/// *not* errors — they are truncations, reported in
/// [`RecoveredState::truncations`].
pub fn recover(dir: &Path) -> Result<RecoveredState, RecoveryError> {
    recover_in(dir, host_groups)
}

/// The group count [`recover`] folds a domain of `clients` in.
fn host_groups(clients: usize) -> usize {
    if clients < GROUPED_FROM_CLIENTS {
        1
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// [`recover`] with the tail folded in `groups(clients)` contiguous
/// shard groups, clamped to `1..=shards`. Group 0 runs on the calling
/// thread and each other group on its own, so one group spawns nothing.
/// The result does not depend on the group count: if a group's thread
/// cannot start (the host is out of threads), or the groups saw the
/// journal end in different places (the directory changed while they
/// read it), the whole recovery runs again in one group, whose single
/// walk folds one prefix of what is on disk.
pub(crate) fn recover_in(
    dir: &Path,
    groups: impl FnOnce(usize) -> usize,
) -> Result<RecoveredState, RecoveryError> {
    let manifest = read_manifest(dir)?;
    match recover_grouped(dir, &manifest, groups(manifest.clients))? {
        Some(state) => Ok(state),
        None => Ok(recover_grouped(dir, &manifest, 1)?
            .expect("one group starts no thread and agrees with itself")),
    }
}

/// One recovery of `dir` in `groups` groups; `None` if a group's thread
/// could not start or the groups disagree on where the journal ends.
fn recover_grouped(
    dir: &Path,
    manifest: &Manifest,
    groups: usize,
) -> Result<Option<RecoveredState>, RecoveryError> {
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

    // Recovery touches the balance array it returns, which the base
    // snapshot is read straight into, and one window per group that
    // every segment streams through.
    let mut balances = zeroed_balances(manifest.clients)?;
    let base = pick_base(dir, manifest, &mut balances, &mut truncations)?;
    // Segments below the base's `first_segment` hold no record at or
    // above a watermark (see `snapshot.rs`) and are not opened.
    let mut segments = journal::list_segments(dir)?;
    segments.retain(|&(id, _)| id >= base.first_segment);

    // Replay every surviving record with seq >= its shard's watermark,
    // one contiguous shard group per thread: a frame belongs to one
    // shard and the shards' balances are disjoint slices, so the groups
    // share nothing but what they read.
    let geometry = ShardLayout::new(manifest.clients, manifest.shards);
    let cuts = group_cuts(&geometry, groups);
    // The groups share the one window's bytes (a page each at least,
    // which only a host of hundreds of cores would reach).
    let window = (journal::WINDOW / (cuts.len() - 1)).max(4096);
    let ends = thread::scope(|scope| {
        let mut rest = &mut balances[..];
        let mut folds = cuts.windows(2).map(|cut| {
            let (first, end) = (client_at(&geometry, cut[0]), client_at(&geometry, cut[1]));
            let (mine, later) = std::mem::take(&mut rest).split_at_mut(end - first);
            rest = later;
            Fold::new(geometry, &base, cut[0]..cut[1], first, mine)
        });
        let own = folds.next().expect("at least one group");
        let spawned: Vec<_> = folds
            .enumerate()
            .map(|(g, fold)| spawn_group(scope, g + 1, || fold.walk(&segments, window)))
            .collect();
        let mut ends = vec![Some(own.walk(&segments, window))];
        // A thread that did not start took its group's fold with it.
        ends.extend(spawned.into_iter().map(|handle| {
            let handle = handle.ok()?;
            Some(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            )
        }));
        ends
    });

    // An I/O failure anywhere ends recovery, as it would have stopped a
    // walk of every shard. Every group checks every frame, so on a
    // directory nobody writes they stop at the same one; then the
    // lowest shard that does not conserve is the one reported.
    let Some(ends) = ends.into_iter().collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    let ends = ends.into_iter().collect::<io::Result<Vec<_>>>()?;
    if ends
        .iter()
        .any(|end| (&end.walked, &end.truncations) != (&ends[0].walked, &ends[0].truncations))
    {
        return Ok(None);
    }
    if let Some(detail) = ends.iter().find_map(|end| end.imbalance.clone()) {
        return Err(RecoveryError::Conservation { detail });
    }
    let mut state = RecoveredState {
        clients: manifest.clients,
        shards: manifest.shards,
        balances,
        granted: Vec::with_capacity(manifest.shards),
        burned: Vec::with_capacity(manifest.shards),
        next_seq: Vec::with_capacity(manifest.shards),
        snapshot_id: base.snapshot_id,
        replayed: 0,
        truncations,
    };
    for (g, end) in ends.into_iter().enumerate() {
        if g == 0 {
            state.truncations.extend(end.truncations);
        }
        state.granted.extend(end.granted);
        state.burned.extend(end.burned);
        state.next_seq.extend(end.next_seq);
        state.replayed += end.replayed;
    }
    Ok(Some(state))
}

/// Starts group `g`'s walk on a thread of `scope`. A host out of threads
/// (`EAGAIN` under a pids cgroup or `RLIMIT_NPROC`) refuses with an
/// error, and the walk is dropped unrun.
fn spawn_group<'scope, T: Send + 'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    g: usize,
    walk: impl FnOnce() -> T + Send + 'scope,
) -> io::Result<thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    if tests::REFUSE_SPAWNS.with(|left| left.replace(left.get().saturating_sub(1))) > 0 {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    thread::Builder::new()
        .name(format!("ta-recover-{g}"))
        .spawn_scoped(scope, walk)
}

/// Cuts the shards of `geometry` into `groups` (clamped to
/// `1..=shards`) contiguous runs of near-equal client counts: returns
/// the runs' shard boundaries, `0` first and the shard count last. Each
/// inner cut is the shard boundary nearest its share of the clients,
/// moved only as far as it takes to leave every group a shard.
fn group_cuts(geometry: &ShardLayout, groups: usize) -> Vec<usize> {
    let shards = geometry.shard_count();
    let clients = client_at(geometry, shards);
    let t = groups.clamp(1, shards);
    let mut cuts = vec![0];
    for g in 1..t {
        let target = (clients as u64 * g as u64 / t as u64) as usize;
        let s = geometry.shard_of(target);
        let range = geometry.shard_range(s);
        let nearest = if target - range.start <= range.end - target {
            s
        } else {
            s + 1
        };
        cuts.push(nearest.clamp(cuts[g - 1] + 1, shards - (t - g)));
    }
    cuts.push(shards);
    cuts
}

/// The first client of shard `s`, or the client count at `s == shards`.
fn client_at(geometry: &ShardLayout, s: usize) -> usize {
    s.checked_sub(1)
        .map_or(0, |last| geometry.shard_range(last).end)
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

/// Allocates `clients` zero balances, advised onto huge pages before the
/// first write. A manifest the reader accepts may still state an array
/// this host cannot hold: that is an [`io::ErrorKind::OutOfMemory`]
/// error, which recovery reports, not an abort.
fn zeroed_balances(clients: usize) -> io::Result<Vec<i64>> {
    let mut balances = Vec::new();
    balances.try_reserve_exact(clients).map_err(|e| {
        io::Error::new(
            io::ErrorKind::OutOfMemory,
            format!("balance array of {clients} clients: {e}"),
        )
    })?;
    advise_huge_pages(balances.spare_capacity_mut());
    balances.resize(clients, 0);
    Ok(balances)
}

/// Asks the kernel to back `memory` with transparent huge pages before
/// anything is written to it: the balance array is the one large thing
/// recovery touches, and at 4 KiB a page its first-touch faults are a
/// visible share of time-to-serve (an 8 MB array is ~2,000 of them,
/// against a handful of 2 MiB ones). Only whole 2 MiB pages inside
/// `memory` are advised. A no-op off Linux, and where huge pages are off.
fn advise_huge_pages<T>(memory: &mut [T]) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            // int madvise(void *addr, size_t length, int advice);
            fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        const HUGE: usize = 2 << 20;
        let start = memory.as_mut_ptr() as usize;
        let lo = start.next_multiple_of(HUGE);
        let hi = (start + std::mem::size_of_val(memory)) / HUGE * HUGE;
        if lo < hi {
            // SAFETY: `lo..hi` lies inside `memory`, which this call
            // borrows mutably; the advice changes how the kernel backs
            // those pages, never their contents. A refusal (no THP
            // support) leaves them as they were.
            unsafe {
                madvise(lo as *mut _, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = memory;
}

/// One shard group's replay accumulator: the base plus every record of
/// the group's shards folded so far.
struct Fold<'a> {
    geometry: ShardLayout,
    /// Every shard's watermark: the group checks every frame.
    watermarks: &'a [u64],
    /// The shards the group applies, and their clients' balances, which
    /// start at client `first`.
    shards: Range<usize>,
    first: usize,
    balances: &'a mut [i64],
    /// The group's books, indexed from `shards.start`.
    granted: Vec<u64>,
    burned: Vec<u64>,
    next_seq: Vec<u64>,
    replayed: u64,
}

/// What one group's walk of the tail found.
struct GroupEnd {
    granted: Vec<u64>,
    burned: Vec<u64>,
    next_seq: Vec<u64>,
    replayed: u64,
    /// The usable length of every segment walked, and where the journal
    /// ended: the same in every group, unless the files changed between
    /// the groups' reads.
    walked: Vec<u64>,
    truncations: Vec<Truncation>,
    /// The diagnosis of the group's lowest shard whose books do not
    /// balance.
    imbalance: Option<String>,
}

impl<'a> Fold<'a> {
    fn new(
        geometry: ShardLayout,
        base: &'a Base,
        shards: Range<usize>,
        first: usize,
        balances: &'a mut [i64],
    ) -> Self {
        Fold {
            geometry,
            watermarks: &base.watermarks,
            next_seq: base.watermarks[shards.clone()].to_vec(),
            granted: base.granted[shards.clone()].to_vec(),
            burned: base.burned[shards.clone()].to_vec(),
            shards,
            first,
            balances,
            replayed: 0,
        }
    }

    /// Walks the tail `segments` in id order through a window of
    /// `window` bytes, folding the group's frames, then checks the
    /// group's conservation. The first torn, corrupt, or
    /// geometry-contradicting frame — in any shard — ends the usable
    /// journal.
    fn walk(mut self, segments: &[(u64, PathBuf)], window: usize) -> io::Result<GroupEnd> {
        let mut window = vec![0; window];
        let (mut walked, mut truncations) = (Vec::new(), Vec::new());
        for (_, path) in segments {
            if !truncations.is_empty() {
                truncations.push(Truncation {
                    file: path.clone(),
                    reason: TruncationReason::UnreachableSegment,
                });
                continue;
            }
            let mut file = File::open(path)?;
            let len = file.metadata()?.len();
            let end = journal::fold_file(&mut file, len, &mut window, |shard, view| {
                self.frame(shard, view)
            })?;
            walked.push(end.valid_len as u64);
            if let Some(err) = end.error {
                let kept = end.valid_len as u64;
                truncations.push(Truncation {
                    file: path.clone(),
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
            }
        }

        // Conservation: per shard, granted − burned must equal the sum
        // of balances. This must hold by construction of the fold — if
        // it doesn't, the files lied (bit rot, poisoned books) and the
        // state must not be served.
        let imbalance = self.shards.clone().find_map(|s| {
            let i = s - self.shards.start;
            let range = self.geometry.shard_range(s);
            let sum: i64 = self.balances[range.start - self.first..range.end - self.first]
                .iter()
                .sum();
            let books = self.granted[i] as i64 - self.burned[i] as i64;
            (books != sum).then(|| {
                format!(
                    "shard {s}: granted {} − burned {} = {books} but balances sum to {sum}",
                    self.granted[i], self.burned[i]
                )
            })
        });
        Ok(GroupEnd {
            granted: self.granted,
            burned: self.burned,
            next_seq: self.next_seq,
            replayed: self.replayed,
            walked,
            truncations,
            imbalance,
        })
    }

    /// Checks one CRC-verified frame straight from its bytes and, if its
    /// shard is the group's, folds it, applying each record at or above
    /// the shard's watermark. Returns `false`, with nothing applied, for
    /// a frame that contradicts the manifest: an unknown shard, a delta
    /// record at or above the watermark for a client outside the shard,
    /// or any grant record that is not well-formed or whose
    /// `lo..lo + len` leaves the shard. Every group makes that check on
    /// every frame, so all groups stop at the same frame.
    fn frame(&mut self, shard: u32, view: FrameView<'_>) -> bool {
        let s = shard as usize;
        if s >= self.watermarks.len() {
            return false;
        }
        let w = self.watermarks[s];
        let range = self.geometry.shard_range(s);
        let (first, n) = (range.start, range.len());
        let in_shard = |lo: usize, len: usize| lo >= first && len <= n && lo - first <= n - len;
        let valid = match view {
            FrameView::Deltas { base, recs } => journal::delta_records(base, recs)
                .filter(|r| r.seq >= w)
                .all(|r| in_shard(r.client as usize, 1)),
            FrameView::Grants { recs } => journal::grant_records(recs)
                .all(|r| r.is_well_formed() && in_shard(r.lo as usize, r.len as usize)),
        };
        if !valid || !self.shards.contains(&s) {
            return valid;
        }
        let i = s - self.shards.start;
        let accounts = &mut self.balances[first - self.first..range.end - self.first];
        // The books stay in registers for the frame and land once.
        let (mut granted, mut burned, mut replayed) = (0u64, 0u64, 0u64);
        let mut next_seq = self.next_seq[i];
        match view {
            FrameView::Deltas { base, recs } => {
                for r in journal::delta_records(base, recs).filter(|r| r.seq >= w) {
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
                for r in journal::grant_records(recs).filter(|r| r.seq >= w) {
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
        self.granted[i] += granted;
        self.burned[i] += burned;
        self.next_seq[i] = next_seq;
        self.replayed += replayed;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{write_manifest, Manifest};
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// How many more group threads `spawn_group` refuses to start on
        /// this thread, as a host out of threads would.
        pub(super) static REFUSE_SPAWNS: Cell<usize> = const { Cell::new(0) };
    }

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

    /// A request past what any allocator can grant is an I/O error the
    /// caller reports, not an abort.
    #[test]
    fn zeroed_balances_reports_an_impossible_array_as_out_of_memory() {
        let err = zeroed_balances(usize::MAX / 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        assert_eq!(zeroed_balances(3).unwrap(), vec![0; 3]);
    }

    /// The groups of `clients` over `shards` for every `groups`: contiguous,
    /// covering, a shard at least each, and never more than the shards.
    #[test]
    fn group_cuts_cover_every_shard_once() {
        for (clients, shards) in [(0, 1), (1, 1), (10, 8), (10, 4), (200, 8), (1_000_000, 64)] {
            let geometry = ShardLayout::new(clients, shards);
            for groups in 0..=shards + 2 {
                let cuts = group_cuts(&geometry, groups);
                let t = groups.clamp(1, geometry.shard_count());
                assert_eq!(cuts.len(), t + 1, "{clients}/{shards}/{groups}");
                assert_eq!((cuts[0], cuts[t]), (0, geometry.shard_count()));
                assert!(cuts.windows(2).all(|c| c[0] < c[1]), "{cuts:?}");
            }
        }
        // Equal blocks split evenly; 3 groups over 8 shards split 3 + 2 + 3.
        assert_eq!(group_cuts(&ShardLayout::new(1_000_000, 64), 2), [0, 32, 64]);
        assert_eq!(group_cuts(&ShardLayout::new(800, 8), 3), [0, 3, 5, 8]);
        // Over 10 clients, shards 5..8 are empty: the cut follows clients.
        assert_eq!(client_at(&ShardLayout::new(10, 8), 8), 10);
        assert_eq!(group_cuts(&ShardLayout::new(10, 8), 2), [0, 2, 8]);
    }

    /// A deterministic stream of test choices (splitmix64).
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// A segment's bytes and the offsets its frames start and end at.
    type Segment = (Vec<u8>, Vec<usize>);

    /// Writes a random small domain to `dir`: delta and grant traffic
    /// over a random number of segments, and up to `snapshots`
    /// snapshots, each taken a few frames after the rotation that bounds
    /// it (so its first segment opens with records it already holds).
    /// Returns the balances the whole journal folds to, and the segments.
    fn random_domain(
        dir: &Path,
        draw: &mut Draw,
        clients: usize,
        shards: usize,
        snapshots: usize,
    ) -> (Vec<i64>, Vec<Segment>) {
        use super::super::journal::{encode_frame, encode_grant_frame, segment_path};
        use super::super::journal::{DeltaRec, GrantRec, GRANT_SPAN};
        let geometry = ShardLayout::new(clients, shards);
        let shards = geometry.shard_count();
        write_manifest(dir, &Manifest { clients, shards }).unwrap();
        let mut balances = vec![0i64; clients];
        let (mut granted, mut burned) = (vec![0u64; shards], vec![0u64; shards]);
        let mut seq = vec![0u64; shards];
        let mut segments: Vec<Segment> = vec![(Vec::new(), vec![0])];
        // Frame counts after which a snapshot rotates, and freezes.
        let frames = 4 + draw.below(16);
        let mut plan: Vec<(usize, usize)> = (0..snapshots)
            .map(|_| {
                let at = draw.below(frames);
                (at, at + draw.below(3))
            })
            .collect();
        plan.sort_unstable();
        let mut pending = None;
        for f in 0..=frames + 3 {
            if plan.first().is_some_and(|&(at, _)| at == f) {
                let (_, freeze) = plan.remove(0);
                segments.push((Vec::new(), vec![0]));
                pending = Some((segments.len() as u64 - 1, freeze.max(f)));
            } else if draw.below(6) == 0 {
                segments.push((Vec::new(), vec![0]));
            }
            if let Some((first_segment, _)) = pending.filter(|&(_, freeze)| freeze <= f) {
                let shard_snaps: Vec<_> = (0..shards)
                    .map(|s| snapshot::ShardSnap {
                        watermark: seq[s],
                        granted: granted[s],
                        burned: burned[s],
                        balances: balances[geometry.shard_range(s)].to_vec(),
                    })
                    .collect();
                let id = f as u64;
                let bytes =
                    snapshot::encode(id, first_segment, clients as u64, &shard_snaps, false);
                std::fs::write(snapshot::snapshot_path(dir, id), bytes).unwrap();
                pending = None;
            }
            if f >= frames {
                continue;
            }
            let s = draw.below(shards);
            let range = geometry.shard_range(s);
            let (out, bounds) = segments.last_mut().unwrap();
            if range.is_empty() || draw.below(3) > 0 {
                let recs: Vec<DeltaRec> = (0..draw.below(7))
                    .filter(|_| !range.is_empty())
                    .map(|_| {
                        let client = range.start + draw.below(range.len());
                        let delta = draw.below(11) as i32 - 5;
                        balances[client] += i64::from(delta);
                        if delta >= 0 {
                            granted[s] += delta as u64;
                        } else {
                            burned[s] += delta.unsigned_abs() as u64;
                        }
                        seq[s] += 1;
                        DeltaRec {
                            seq: seq[s] - 1,
                            client: client as u32,
                            delta,
                        }
                    })
                    .collect();
                encode_frame(s as u32, &recs, out);
            } else {
                let recs: Vec<GrantRec> = (0..1 + draw.below(3))
                    .map(|_| {
                        let lo = range.start + draw.below(range.len());
                        let len = 1 + draw.below((range.end - lo).min(GRANT_SPAN));
                        let mut bits = [0u64; 16];
                        for i in (0..len).filter(|_| draw.below(2) == 0) {
                            bits[i / 64] |= 1 << (i % 64);
                            balances[lo + i] += 1;
                            granted[s] += 1;
                        }
                        seq[s] += 1;
                        GrantRec {
                            seq: seq[s] - 1,
                            lo: lo as u32,
                            len: len as u32,
                            bits,
                        }
                    })
                    .collect();
                encode_grant_frame(s as u32, &recs, out);
            }
            bounds.push(out.len());
        }
        for (id, (bytes, _)) in segments.iter().enumerate() {
            std::fs::write(segment_path(dir, id as u64), bytes).unwrap();
        }
        (balances, segments)
    }

    /// What recovery in `groups` groups returns, errors as their text.
    fn recover_text(dir: &Path, groups: usize) -> Result<RecoveredState, String> {
        recover_in(dir, |_| groups).map_err(|e| e.to_string())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Whatever the directory holds, every group count recovers
        /// exactly what one group does: the same state and truncations,
        /// or the same error. Each case mutilates a random domain once:
        /// a cut at a random byte, a flipped bit in any file, a CRC-valid
        /// frame that contradicts the geometry of a random shard, or a
        /// bad newest snapshot (corrupt, or CRC-valid with books that do
        /// not balance).
        #[test]
        fn grouped_recovery_equals_one_group(
            seed in proptest::prelude::any::<u64>(),
            clients in 1usize..=200,
            shards in 1usize..=8,
            snapshots in 0usize..=2,
            mutilation in 0usize..4,
        ) {
            use super::super::journal::{encode_frame, encode_grant_frame, segment_path};
            use super::super::journal::{DeltaRec, GrantRec};
            let dir = std::env::temp_dir()
                .join(format!("ta-rec-groups-{}-{seed:x}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let draw = &mut Draw(seed);
            let (want, mut segments) = random_domain(&dir, draw, clients, shards, snapshots);
            let geometry = ShardLayout::new(clients, shards);
            let shards = geometry.shard_count();

            // Intact, every group count folds the whole journal.
            let one = recover_text(&dir, 1).unwrap();
            proptest::prop_assert_eq!(&one.balances, &want);
            proptest::prop_assert!(one.truncations.is_empty());
            for t in 2..=shards + 1 {
                proptest::prop_assert_eq!(recover_text(&dir, t), Ok(one.clone()), "intact, {} groups", t);
            }

            let seg = draw.below(segments.len());
            let snaps = snapshot::list_snapshot_files(&dir).unwrap();
            match mutilation {
                0 => {
                    let bytes = &segments[seg].0;
                    let cut = draw.below(bytes.len() + 1);
                    std::fs::write(segment_path(&dir, seg as u64), &bytes[..cut]).unwrap();
                }
                1 => {
                    let mut files: Vec<PathBuf> = snaps.into_iter().map(|(_, p)| p).collect();
                    files.extend((0..segments.len()).map(|id| segment_path(&dir, id as u64)));
                    let path = &files[draw.below(files.len())];
                    let mut bytes = std::fs::read(path).unwrap();
                    if !bytes.is_empty() {
                        let at = draw.below(bytes.len());
                        bytes[at] ^= 1 << draw.below(8);
                    }
                    std::fs::write(path, bytes).unwrap();
                }
                2 => {
                    // A shard past the last, or a record leaving its shard.
                    let s = draw.below(shards + 1);
                    let mut bad = Vec::new();
                    if s == shards {
                        encode_frame(s as u32, &[], &mut bad);
                    } else if draw.below(2) == 0 {
                        let range = geometry.shard_range(s);
                        let outside = if range.end < clients { range.end } else { clients + draw.below(3) };
                        let rec = DeltaRec { seq: u64::MAX / 2, client: outside as u32, delta: 1 };
                        encode_frame(s as u32, &[rec], &mut bad);
                    } else {
                        let range = geometry.shard_range(s);
                        let mut bits = [0u64; 16];
                        bits[0] = 1;
                        let rec = GrantRec { seq: 0, lo: range.start as u32, len: range.len() as u32 + 1, bits };
                        encode_grant_frame(s as u32, &[rec], &mut bad);
                    }
                    let (bytes, bounds) = &mut segments[seg];
                    let at = bounds[draw.below(bounds.len())];
                    bytes.splice(at..at, bad);
                    std::fs::write(segment_path(&dir, seg as u64), bytes).unwrap();
                }
                _ => match snaps.last() {
                    Some((id, path)) if draw.below(2) == 0 => {
                        // Books off by one in random shards: the lowest is
                        // the one reported, whichever group holds it.
                        let mut snap = snapshot::load(path).unwrap();
                        let off = 1 + draw.below((1 << shards) - 1);
                        for (s, shard) in snap.shards.iter_mut().enumerate() {
                            shard.granted += (off >> s & 1) as u64;
                        }
                        let bytes = snapshot::encode(*id, snap.first_segment, clients as u64, &snap.shards, false);
                        std::fs::write(path, bytes).unwrap();
                    }
                    Some((_, path)) => {
                        let mut bytes = std::fs::read(path).unwrap();
                        let at = draw.below(bytes.len());
                        bytes[at] ^= 1 << draw.below(8);
                        std::fs::write(path, bytes).unwrap();
                    }
                    None => {
                        std::fs::write(snapshot::snapshot_path(&dir, 9), b"not a snapshot").unwrap();
                    }
                },
            }

            let one = recover_text(&dir, 1);
            for t in 2..=shards + 1 {
                proptest::prop_assert_eq!(&recover_text(&dir, t), &one, "mutilation {}, {} groups", mutilation, t);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A group whose thread cannot start does not fail recovery: it runs
    /// again in one group, and returns what one group does.
    #[test]
    fn a_refused_thread_recovers_in_one_group() {
        let dir = std::env::temp_dir().join(format!("ta-rec-nothread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (want, _) = random_domain(&dir, &mut Draw(7), 200, 8, 1);
        let one = recover_in(&dir, |_| 1).unwrap();
        assert_eq!(one.balances, want);
        for (groups, refused) in [(2, 1), (4, 1), (4, 3)] {
            REFUSE_SPAWNS.set(refused);
            let state = recover_in(&dir, |_| groups).unwrap();
            assert_eq!(REFUSE_SPAWNS.get(), 0, "{groups} groups, {refused} refused");
            assert_eq!(state, one, "{groups} groups, {refused} refused");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `recover` folds a domain below the crossover in one group, and a
    /// larger one in a group per core.
    #[test]
    fn recover_groups_only_a_large_domain() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(host_groups(10_000), 1);
        assert_eq!(host_groups(GROUPED_FROM_CLIENTS - 1), 1);
        assert_eq!(host_groups(GROUPED_FROM_CLIENTS), cores);
        assert_eq!(host_groups(1_000_000), cores);
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
