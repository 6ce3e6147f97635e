//! Durability for the live runtime: journal, snapshots, recovery, faults.
//!
//! A process holding millions of in-RAM [`AtomicTokenAccount`] balances
//! must be able to die and restart without violating the
//! token-conservation invariant CI gates on. This module tree is that
//! durability story:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`journal`] | append-only CRC-framed grant/spend journal: per-producer bounded buffers, a dedicated group-commit writer thread |
//! | [`snapshot`] | copy-on-write snapshots of the account shards under per-shard epoch fences, atomic-rename files, segment retirement |
//! | [`recovery`] | restart path: latest valid snapshot + per-shard journal-tail replay + exact conservation verification |
//! | [`faults`] | fault-injection plan (`TA_FAULT`): torn tails, CRC corruption, dropped fsyncs, writer/snapshot crashes, poisoned books |
//!
//! **Shape of the guarantee.** Every balance-changing decision is
//! published under a per-shard monotonic sequence number: a reactive
//! burn as one signed delta record `(client, delta, seq)`, a granter
//! sweep as one grant record per 1024 accounts (a bitmap of the
//! accounts that banked a token). The admit hot path never takes a
//! lock or a syscall: records go into producer-local bounded buffers
//! that are handed to the writer thread over a channel, and the
//! sequence stamp is one `fetch_add`. A snapshot walks shards one at a
//! time: it fences exactly one shard (admits and sweeps on all other
//! shards keep running; producers touching the fenced shard spin for
//! the microseconds the balance copy takes), waits for in-flight
//! operations to drain via per-producer epoch cells, and reads the
//! shard's balances plus its sequence watermark `W` — the copy then
//! contains *exactly* the deltas with `seq < W`. Recovery loads the
//! newest CRC-valid snapshot (falling back past torn or corrupt files),
//! replays every surviving journal record with `seq >= W` for its
//! shard, and refuses to serve unless `granted − burned == Σ balances`
//! holds per shard and globally.
//!
//! **Cost of a restart.** Recovery reads the base snapshot plus the
//! segments from that snapshot's `first_segment` on — the tail, not the
//! history. Its memory is the balance array it returns plus 1 MiB of
//! windows: the snapshot streams straight into the array, shard by shard,
//! checksummed as it passes, and every segment streams through the
//! windows. Faults are why: each fresh 4 KiB page costs a first-touch
//! fault (~2.4 µs measured), so a file-sized buffer is ~2,000 faults per
//! 8 MB — reading a 1M-client snapshot into one buffer and copying it
//! into a second once cost more than folding the tail. On Linux the
//! array is advised onto transparent huge pages before its first write,
//! which turns most of its faults into a few 2 MiB ones. A snapshot
//! rotates the journal *before* it freezes the first shard and names
//! the fresh segment as its bound, so that tail holds only records
//! stamped after the freeze began, never the segment written between
//! two snapshots. Every byte read is checksummed; [`crc32`] folds by
//! carry-less multiply where the CPU has it (several GB/s, near the
//! speed of reading the bytes at all), so the checksum is no longer the
//! floor under time-to-serve.
//! The tail folds on every core. A journal frame belongs to one shard,
//! a shard's whole state is its books and its clients' balances
//! (Algorithm 4 keeps nothing else per account), and the shards'
//! balances are disjoint slices of the array — so the fold splits
//! exactly by shard. Recovery cuts the shards into one contiguous group
//! per core, of near-equal client counts, and each group walks every
//! segment through its own share of the 1 MiB, checking every frame but
//! applying only its own shards'. Each group pays for reading and
//! checksumming the whole tail (~2 ms on the 1M-client benchmark
//! directory); the fold, most of the tail's cost, is what splits. That
//! holds while the balance array outgrows a core's cache and the fold
//! misses on every record. Below that the fold is cheap, and on a
//! 100k-client directory (an 0.8 MB array) two groups took ~0.4 ms
//! longer than one; measured on directories of 100k to 1M clients, the
//! groups broke even at 250k–300k. So a domain under 2¹⁸ clients (a
//! 2 MiB array) folds in one group whatever the core count. The
//! snapshot read stays serial. One group runs on the calling thread
//! and spawns nothing; a group whose thread the host refuses, or groups
//! that find the journal ending in different places (files changed
//! under a recovery, which expects a directory nobody writes), make
//! recovery run again in one group.
//! The tail is small because a granter round costs at most one bit per
//! account: 144 bytes per 1024 accounts of a sweep, whether the accounts
//! that banked are contiguous or scattered among proactive senders (a
//! run-length encoding paid 16 bytes per run, up to one run per two
//! accounts at the paper's operating point). What remains is mostly the
//! reactive burns' 8-byte delta records.
//!
//! After a kill, records still sitting in producer-local buffers or in
//! the writer's un-synced batch are lost; the recovered state is the
//! exact fold of the records that survived on disk — a legal state of
//! the system, never a silently-wrong one.
//!
//! [`AtomicTokenAccount`]: token_account::atomic::AtomicTokenAccount

mod crc;
pub mod faults;
pub mod journal;
pub mod recovery;
pub mod snapshot;

pub use crc::crc32;
pub use faults::FaultPlan;
pub use journal::{DeltaRec, GrantRec, JournalHandle, JournalStats};
pub use recovery::{recover, RecoveredState, RecoveryError, Truncation, TruncationReason};
pub use snapshot::SnapshotInfo;

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::accounts::ShardLayout;
use journal::WriterMsg;
use ta_telemetry::Handle as TelemetryHandle;

/// Configuration of one durability domain (one journal directory).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistConfig {
    /// Directory holding the manifest, journal segments, and snapshots.
    pub dir: PathBuf,
    /// Group-commit interval: the writer batches frames and issues one
    /// write + fsync per interval (and on shutdown/rotation).
    pub group_commit: Duration,
    /// Snapshot cadence of a [`run_loadgen`](crate::loadgen::run_loadgen)
    /// run: a snapshotter checkpoints the accounts this often; `None`
    /// takes no snapshots.
    pub snapshot_every: Option<Duration>,
    /// Whether the writer fsyncs at commit points. Disabling trades
    /// durability of the tail for speed; recovery semantics are
    /// unchanged (the surviving prefix is still recovered exactly).
    pub fsync: bool,
    /// Producer-local records buffered per shard before the buffer is
    /// handed to the writer (bounds hot-path memory and loss window).
    pub buffer_cap: usize,
    /// Injected faults (none in production).
    pub faults: FaultPlan,
}

impl PersistConfig {
    /// Defaults: 20 ms group commit, no snapshots, fsync on, 4096-record
    /// buffers.
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        PersistConfig {
            dir: dir.into(),
            group_commit: Duration::from_millis(20),
            snapshot_every: None,
            fsync: true,
            buffer_cap: 4096,
            faults: FaultPlan::default(),
        }
    }
}

/// Per-shard persistence state, one cache line each: the monotonic
/// record sequence, the cumulative grant/burn books, and the snapshot
/// fence flag.
#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Next record sequence number (stamped via `fetch_add`).
    pub(crate) seq: AtomicU64,
    /// Cumulative tokens granted to this shard's accounts (sum of
    /// positive deltas), maintained by producers inside the fence.
    pub(crate) granted: AtomicU64,
    /// Cumulative tokens burned (sum of |negative deltas|).
    pub(crate) burned: AtomicU64,
    /// Raised by the snapshotter while this shard's balances are copied.
    pub(crate) fenced: AtomicBool,
}

impl ShardState {
    fn new(seq: u64, granted: u64, burned: u64) -> Self {
        ShardState {
            seq: AtomicU64::new(seq),
            granted: AtomicU64::new(granted),
            burned: AtomicU64::new(burned),
            fenced: AtomicBool::new(false),
        }
    }
}

/// One producer's epoch cell: odd while the producer is inside a
/// fenced operation (decision + record publication), even otherwise.
/// The snapshotter waits for every cell to read even after raising a
/// shard fence; the cell lives on its own cache line and is written
/// only by its owner, so the hot path pays an uncontended RMW.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct EpochCell {
    epoch: AtomicU64,
}

impl EpochCell {
    /// Enters an operation (full fence: the subsequent shard-fence load
    /// cannot be reordered before the epoch becomes visible).
    #[inline]
    pub(crate) fn set_busy(&self) {
        self.epoch.swap(1, Ordering::SeqCst);
    }

    /// Leaves the operation, publishing all its effects.
    #[inline]
    pub(crate) fn set_idle(&self) {
        self.epoch.store(0, Ordering::Release);
    }

    fn is_idle(&self) -> bool {
        self.epoch.load(Ordering::Acquire) == 0
    }
}

/// State shared between producers (journal handles), the snapshotter,
/// and the runtime: per-shard fences plus the producer registry.
#[derive(Debug)]
pub struct PersistShared {
    pub(crate) shards: Box<[ShardState]>,
    pub(crate) epochs: Mutex<Vec<Arc<EpochCell>>>,
    pub(crate) buffer_cap: usize,
    /// Number of shard fences currently raised. Bulk producers (which
    /// hold their epoch across a run of operations touching arbitrary
    /// shards) check this single counter instead of every per-shard
    /// fence when re-entering.
    pub(crate) snap_pending: AtomicUsize,
    /// Telemetry handle for the persistence lane, set at most once per
    /// domain (see [`Persistence::attach_telemetry`]). Producers, the
    /// writer, and the snapshotter all publish through it; its cells
    /// tolerate the multi-writer `fetch_add`s because every touch is on
    /// a cold path (per batch / commit / freeze, never per record).
    pub(crate) telem: OnceLock<TelemetryHandle>,
    /// Health board for the supervised runtime, set at most once per
    /// domain (see [`Persistence::attach_health`]). With a board
    /// attached, the journal writer heartbeats, retries transient IO
    /// errors, and enacts the journal failure policy instead of dying;
    /// without one it propagates the first error exactly as before.
    pub(crate) health: OnceLock<Arc<crate::health::HealthBoard>>,
}

impl PersistShared {
    /// Number of shards in this domain.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Waits until every registered producer has left its current
    /// operation. Callers must have raised the relevant fence first so
    /// no new operation can enter the frozen shard.
    fn quiesce(&self) {
        let cells: Vec<Arc<EpochCell>> = self.epochs.lock().expect("epoch registry").clone();
        for cell in cells {
            while !cell.is_idle() {
                std::hint::spin_loop();
            }
        }
    }
}

const MANIFEST_MAGIC: u32 = 0x5441_4D46; // "TAMF"
/// Version 2: granter sweeps are journalled as bitmap grant frames
/// ("TAJG"). Version 1 directories hold run-length range frames, which
/// no reader decodes any more; they are refused, not misread as
/// corruption.
const MANIFEST_VERSION: u32 = 2;

/// The manifest file name inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.tam";

/// Fixed geometry of a durability domain, written once at
/// [`Persistence::open`] and required by recovery (the journal frames
/// carry shard ids, not totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Number of client accounts.
    pub clients: usize,
    /// Number of account shards.
    pub shards: usize,
}

/// Writes `bytes` to `path` atomically: tmp file, fsync, rename, then
/// directory fsync — the `atomic_write_json` idiom of SNIPPETS.md
/// Snippet 1, binary flavour.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs a directory so renames/creates within it are durable
/// (no-op off Unix).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Reads from `r` until `buf` is full or the input ends, returning the
/// bytes read: every read on the recovery path is bounded by the buffer
/// it lands in, whatever the file (or the device a file name points at)
/// holds.
pub(crate) fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Writes the domain manifest.
pub(crate) fn write_manifest(dir: &Path, m: &Manifest) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(m.clients as u64).to_le_bytes());
    bytes.extend_from_slice(&(m.shards as u32).to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    atomic_write(&dir.join(MANIFEST_FILE), &bytes)
}

/// Reads and validates the domain manifest. Reads at most one byte past
/// its 24: a longer (or endless) file is the wrong length, not a reason
/// to read on.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    let mut bytes = [0u8; 25];
    let len = read_full(&mut File::open(dir.join(MANIFEST_FILE))?, &mut bytes)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {what}"));
    if len != 24 {
        return Err(bad("wrong length"));
    }
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if crc != crc32(&bytes[..20]) {
        return Err(bad("bad crc"));
    }
    if u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != MANIFEST_MAGIC {
        return Err(bad("bad magic"));
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != MANIFEST_VERSION {
        return Err(bad("unsupported version"));
    }
    // Client ids are `u32` on the wire, and every writer stores its
    // layout's own shard count ([`Persistence::open`]): recovery sizes
    // its array and cuts its shard groups by these two numbers.
    let clients = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let shards = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    match usize::try_from(clients) {
        Ok(clients)
            if clients <= u32::MAX as usize
                && ShardLayout::new(clients, shards).shard_count() == shards =>
        {
            Ok(Manifest { clients, shards })
        }
        _ => Err(bad("geometry out of range")),
    }
}

/// Metadata of one snapshot retained on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapMeta {
    pub(crate) id: u64,
    /// Journal segment this snapshot rotated onto before its first
    /// freeze; every record the snapshot does *not* cover lives in this
    /// segment or a later one.
    pub(crate) first_segment: u64,
}

/// One open durability domain: the writer thread, the shared fences,
/// and the snapshot machinery. Build with [`Persistence::open`] (fresh
/// directory) or [`Persistence::resume`] (after [`recover`]); producers
/// get a [`JournalHandle`] each via [`Persistence::handle`].
#[derive(Debug)]
pub struct Persistence {
    shared: Arc<PersistShared>,
    tx: Sender<WriterMsg>,
    writer: Option<JoinHandle<io::Result<JournalStats>>>,
    cfg: PersistConfig,
    manifest: Manifest,
    active_segment: Arc<AtomicU64>,
    next_snapshot_id: AtomicU64,
    snapshots: Mutex<Vec<SnapMeta>>,
    /// Set once a `crash_mid_snapshot` fault fired; later snapshots are
    /// refused so the partial tmp file stays the newest snapshot state.
    snapshot_poisoned: AtomicBool,
}

impl Persistence {
    /// Opens a *fresh* durability domain: creates the directory, writes
    /// the manifest, and starts the writer on segment 0. The manifest
    /// records the layout a runtime of `clients` builds: `shards` clamped
    /// to `[1, clients]` ([`ShardLayout::new`]).
    ///
    /// # Errors
    ///
    /// Fails if the directory already contains a manifest (an existing
    /// domain must go through [`recover`] + [`Persistence::resume`], so
    /// sequence watermarks cannot collide), or on any I/O error.
    pub fn open(cfg: &PersistConfig, clients: usize, shards: usize) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        if cfg.dir.join(MANIFEST_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "journal directory already holds a domain: recover + resume instead",
            ));
        }
        let shards = ShardLayout::new(clients, shards).shard_count();
        let manifest = Manifest { clients, shards };
        write_manifest(&cfg.dir, &manifest)?;
        let states = (0..shards).map(|_| ShardState::new(0, 0, 0)).collect();
        Self::build(cfg, manifest, states, 0, 0, Vec::new())
    }

    /// Re-opens a domain from a recovered state: fences resume at the
    /// recovered per-shard sequence/books, the writer starts a fresh
    /// segment after the highest existing one, and snapshot ids continue
    /// past the newest file on disk.
    ///
    /// # Errors
    ///
    /// Fails if the manifest is missing or disagrees with the recovered
    /// geometry, or on any I/O error.
    pub fn resume(cfg: &PersistConfig, state: &RecoveredState) -> io::Result<Self> {
        let manifest = read_manifest(&cfg.dir)?;
        if manifest.clients != state.clients || manifest.shards != state.shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "recovered state does not match the on-disk manifest",
            ));
        }
        let states = (0..state.shards)
            .map(|s| ShardState::new(state.next_seq[s], state.granted[s], state.burned[s]))
            .collect();
        let next_segment = journal::list_segments(&cfg.dir)?
            .last()
            .map(|&(id, _)| id + 1)
            .unwrap_or(0);
        let snaps = snapshot::list_metas(&cfg.dir, &manifest);
        let next_snapshot = snaps.last().map(|m| m.id + 1).unwrap_or(0);
        Self::build(cfg, manifest, states, next_segment, next_snapshot, snaps)
    }

    fn build(
        cfg: &PersistConfig,
        manifest: Manifest,
        states: Box<[ShardState]>,
        first_segment: u64,
        next_snapshot: u64,
        snaps: Vec<SnapMeta>,
    ) -> io::Result<Self> {
        let shared = Arc::new(PersistShared {
            shards: states,
            epochs: Mutex::new(Vec::new()),
            buffer_cap: cfg.buffer_cap.max(1),
            snap_pending: AtomicUsize::new(0),
            telem: OnceLock::new(),
            health: OnceLock::new(),
        });
        let (tx, rx) = channel();
        let active_segment = Arc::new(AtomicU64::new(first_segment));
        let writer = journal::spawn_writer(
            cfg.clone(),
            rx,
            first_segment,
            Arc::clone(&active_segment),
            Arc::clone(&shared),
        )?;
        Ok(Persistence {
            shared,
            tx,
            writer: Some(writer),
            cfg: cfg.clone(),
            manifest,
            active_segment,
            next_snapshot_id: AtomicU64::new(next_snapshot),
            snapshots: Mutex::new(snaps),
            snapshot_poisoned: AtomicBool::new(false),
        })
    }

    /// The domain geometry.
    pub fn manifest(&self) -> Manifest {
        self.manifest
    }

    /// The shared fence state (attachable to runtimes and handles).
    pub fn shared(&self) -> &Arc<PersistShared> {
        &self.shared
    }

    /// Creates a journal handle for one producer thread (a loadgen
    /// worker, the granter, or a test driver).
    pub fn handle(&self) -> JournalHandle {
        JournalHandle::new(Arc::clone(&self.shared), self.tx.clone())
    }

    /// Attaches a telemetry lane handle to this domain: the journal
    /// writer starts reporting frame/flush/fsync counters, producers
    /// report batch hand-offs and queue depth, and snapshots report
    /// freeze durations — all against [`crate::telem`]'s catalog.
    /// Subsequent calls are ignored (the first handle wins).
    pub fn attach_telemetry(&self, handle: TelemetryHandle) {
        let _ = self.shared.telem.set(handle);
    }

    /// Attaches a health board to this domain, arming the journal
    /// writer's self-healing path: heartbeats, retry/backoff on
    /// transient IO errors, and the configured `--on-journal-fail`
    /// policy on persistent failure (instead of thread death).
    /// Subsequent calls are ignored (the first board wins).
    pub fn attach_health(&self, board: Arc<crate::health::HealthBoard>) {
        let _ = self.shared.health.set(board);
    }

    /// Takes one copy-on-write snapshot of `accounts` (which must be the
    /// account map the journal records describe): the journal rotates
    /// onto a fresh segment (the snapshot's replay bound), shards are
    /// frozen one at a time, the file is written via atomic rename, old
    /// snapshots beyond the newest two are deleted, and journal segments
    /// covered by *both* retained snapshots are retired.
    ///
    /// # Errors
    ///
    /// Any I/O error; also an injected `crash_mid_snapshot` fault, which
    /// leaves a partial tmp file behind (recovery must fall back). A
    /// writer that refuses the rotation (degraded or gone) still gets
    /// the snapshot written, bounded by the segment it is on, and the
    /// rotation's error is returned after.
    ///
    /// # Panics
    ///
    /// Panics if `accounts` disagrees with the domain geometry.
    pub fn snapshot(
        &self,
        accounts: &crate::accounts::ShardedAccounts,
    ) -> io::Result<SnapshotInfo> {
        snapshot::take(self, accounts)
    }

    /// Asks the writer to flush and fsync everything received so far,
    /// blocking until done (tests and orderly checkpoints).
    ///
    /// # Errors
    ///
    /// Fails if the writer is gone (crashed or killed by a fault).
    pub fn sync(&self) -> io::Result<()> {
        let (ack, done) = channel();
        self.tx
            .send(WriterMsg::Sync(ack))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer is gone"))?;
        done.recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer died"))?
    }

    /// Shuts the domain down cleanly: final write + fsync, then joins
    /// the writer and returns its lifetime stats.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors (a writer killed by an injected
    /// fault reports its stats anyway).
    pub fn shutdown(mut self) -> io::Result<JournalStats> {
        let _ = self.tx.send(WriterMsg::Shutdown);
        match self.writer.take() {
            Some(w) => w.join().expect("journal writer panicked"),
            None => Ok(JournalStats::default()),
        }
    }

    /// Simulates a crash: the writer discards everything not yet written
    /// to the OS and exits immediately — no final write, no fsync. What
    /// recovery finds afterwards is exactly what a kill would have left.
    pub fn simulate_crash(mut self) {
        let _ = self.tx.send(WriterMsg::Crash);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }

    pub(crate) fn cfg(&self) -> &PersistConfig {
        &self.cfg
    }

    pub(crate) fn active_segment(&self) -> &Arc<AtomicU64> {
        &self.active_segment
    }

    pub(crate) fn next_snapshot_id(&self) -> &AtomicU64 {
        &self.next_snapshot_id
    }

    pub(crate) fn snapshots(&self) -> &Mutex<Vec<SnapMeta>> {
        &self.snapshots
    }

    pub(crate) fn snapshot_poisoned(&self) -> &AtomicBool {
        &self.snapshot_poisoned
    }

    pub(crate) fn writer_tx(&self) -> &Sender<WriterMsg> {
        &self.tx
    }

    /// Freezes shard `s`: raises the fence, waits for every in-flight
    /// producer operation to drain, and returns the consistent
    /// `(watermark, granted, burned)` triple. The caller must copy the
    /// balances *before* calling [`Self::unfreeze_shard`].
    pub(crate) fn freeze_shard(&self, s: usize) -> (u64, u64, u64) {
        let st = &self.shared.shards[s];
        self.shared.snap_pending.fetch_add(1, Ordering::SeqCst);
        st.fenced.store(true, Ordering::SeqCst);
        self.shared.quiesce();
        (
            st.seq.load(Ordering::Relaxed),
            st.granted.load(Ordering::Relaxed),
            st.burned.load(Ordering::Relaxed),
        )
    }

    /// Lifts the fence of shard `s`.
    pub(crate) fn unfreeze_shard(&self, s: usize) {
        self.shared.shards[s].fenced.store(false, Ordering::SeqCst);
        self.shared.snap_pending.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for Persistence {
    fn drop(&mut self) {
        // Best-effort clean shutdown if the caller forgot.
        let _ = self.tx.send(WriterMsg::Shutdown);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A 5-client / 2-shard domain with snapshot 7 (`first_segment` 3),
    /// one delta frame and one grant frame. The delta frame and the
    /// snapshot are bytes written before the read side was rebuilt
    /// (byte-wise CRC, two-pass scan); the grant frame and the version-2
    /// manifest were written from the layout in `journal.rs` by an
    /// independent encoder. They must decode, re-encode identically, and
    /// recover to the state the delta + range-frame domain of version 1
    /// recovered to (the grant records carry the same `+1`s).
    #[test]
    fn golden_bytes_decode_reencode_and_recover() {
        let delta = unhex(
            "464a4154010000000300000026000000000000000000fbff03000000\
             02000300040000000300ffff0300000027f5dac6",
        );
        // Header, two records (`seq | lo | len | bitmap`: 0b111 from
        // client 0, 0b11 from client 1; the bitmap's last 127 bytes are
        // zero), CRC.
        let grant = unhex(&format!(
            "474a41540000000002000000\
             6300000000000000000000000300000007{zeros}\
             6400000000000000010000000200000003{zeros}\
             976f9126",
            zeros = "0".repeat(254),
        ));
        let snap = unhex(
            "4e534154010000000700000000000000030000000000000005000000\
             00000000020000000000000064000000000000007800000000000000\
             140000000000000003000000000000000a0000000000000014000000\
             00000000460000000000000028000000000000000900000000000000\
             070000000000000002000000000000000300000000000000ffffffff\
             ffffffffbb6cbc84",
        );
        let manifest = unhex("464d415402000000050000000000000002000000665de71d");

        let delta_recs = [
            DeltaRec {
                seq: 38,
                client: 3,
                delta: -5,
            },
            DeltaRec {
                seq: 40,
                client: 4,
                delta: 3,
            },
            DeltaRec {
                seq: 41,
                client: 3,
                delta: -1,
            },
        ];
        let bitmap = |low: u64| std::array::from_fn(|k| if k == 0 { low } else { 0 });
        let grant_recs = [
            GrantRec {
                seq: 99,
                lo: 0,
                len: 3,
                bits: bitmap(0b111),
            },
            GrantRec {
                seq: 100,
                lo: 1,
                len: 2,
                bits: bitmap(0b11),
            },
        ];
        let shards = [
            snapshot::ShardSnap {
                watermark: 100,
                granted: 120,
                burned: 20,
                balances: vec![10, 20, 70],
            },
            snapshot::ShardSnap {
                watermark: 40,
                granted: 9,
                burned: 7,
                balances: vec![3, -1],
            },
        ];

        // Today's encoders emit these bytes.
        let mut segment = Vec::new();
        journal::encode_frame(1, &delta_recs, &mut segment);
        assert_eq!(segment, delta);
        journal::encode_grant_frame(0, &grant_recs, &mut segment);
        assert_eq!(segment[delta.len()..], grant[..]);
        assert_eq!(snapshot::encode(7, 3, 5, &shards, false), snap);

        // The reader decodes them.
        let scan = journal::scan_segment(&segment);
        assert_eq!((scan.valid_len, scan.error), (segment.len(), None));
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].shard, 1);
        assert_eq!(
            scan.frames[0].payload,
            journal::FramePayload::Deltas(delta_recs.to_vec())
        );
        assert_eq!(scan.frames[1].shard, 0);
        assert_eq!(
            scan.frames[1].payload,
            journal::FramePayload::Grants(grant_recs.to_vec())
        );

        let dir = std::env::temp_dir().join(format!("ta-persist-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), &manifest).unwrap();
        std::fs::write(snapshot::snapshot_path(&dir, 7), &snap).unwrap();
        std::fs::write(journal::segment_path(&dir, 3), &segment).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap(),
            Manifest {
                clients: 5,
                shards: 2
            }
        );
        let loaded = snapshot::load(&snapshot::snapshot_path(&dir, 7)).unwrap();
        assert_eq!((loaded.id, loaded.first_segment, loaded.clients), (7, 3, 5));
        assert_eq!(loaded.shards, shards);
        assert_eq!(
            snapshot::list_metas(&dir, &read_manifest(&dir).unwrap()),
            vec![SnapMeta {
                id: 7,
                first_segment: 3
            }]
        );

        let state = recover(&dir).unwrap();
        assert_eq!(state.balances, vec![10, 21, 71, 2, 2]);
        assert_eq!(state.granted, vec![122, 12]);
        assert_eq!(state.burned, vec![20, 8]);
        assert_eq!(state.next_seq, vec![101, 42]);
        assert_eq!((state.snapshot_id, state.replayed), (Some(7), 3));
        assert!(state.truncations.is_empty());

        // The snapshot reader streams balances straight into the array
        // recovery returns, so a file it rejects late has already written
        // some. Snapshot 6 replays the same segment from zero watermarks.
        // Every cut of snapshot 7, a flipped bit at sampled offsets, and a
        // CRC-valid copy whose shards split the clients 2 + 3 instead of
        // the layout's 3 + 2 must each be a bad snapshot that leaves
        // exactly the state snapshot 6 alone recovers to.
        let older = [
            snapshot::ShardSnap {
                watermark: 0,
                granted: 3,
                burned: 0,
                balances: vec![1, 1, 1],
            },
            snapshot::ShardSnap {
                watermark: 0,
                granted: 0,
                burned: 0,
                balances: vec![0, 0],
            },
        ];
        let (path6, path7) = (
            snapshot::snapshot_path(&dir, 6),
            snapshot::snapshot_path(&dir, 7),
        );
        std::fs::write(&path6, snapshot::encode(6, 3, 5, &older, false)).unwrap();
        std::fs::remove_file(&path7).unwrap();
        let alone = recover(&dir).unwrap();
        assert_eq!(alone.balances, vec![2, 3, 3, -6, 3]);
        assert_eq!((alone.snapshot_id, alone.replayed), (Some(6), 5));
        // Recovers `dir` with `bytes` as snapshot 7: the state must be
        // `want`, and snapshot 7 the one truncation. Returns its error.
        let with_bad_7 = |bytes: &[u8], want: &RecoveredState, what: &str| -> String {
            std::fs::write(&path7, bytes).unwrap();
            let got = recover(&dir).unwrap_or_else(|e| panic!("{what}: {e}"));
            let error = match &got.truncations[..] {
                [Truncation {
                    file,
                    reason: TruncationReason::BadSnapshot { error },
                }] if *file == path7 => error.clone(),
                other => panic!("{what}: {other:?}"),
            };
            let got = RecoveredState {
                truncations: Vec::new(),
                ..got
            };
            assert_eq!(&got, want, "{what}");
            error
        };
        for cut in 0..snap.len() {
            with_bad_7(&snap[..cut], &alone, &format!("cut at {cut}"));
        }
        for at in (0..snap.len()).step_by(7) {
            let mut flipped = snap.clone();
            flipped[at] ^= 1 << (at % 8);
            with_bad_7(&flipped, &alone, &format!("flip at {at}"));
        }
        let mut split = shards.clone();
        let moved = split[0].balances.pop().unwrap();
        split[1].balances.insert(0, moved);
        let swapped = snapshot::encode(7, 3, 5, &split, false);
        assert_eq!(swapped.len(), snap.len());
        let error = with_bad_7(&swapped, &alone, "shards split 2 + 3");
        assert!(
            error.contains("geometry disagrees with manifest"),
            "{error}"
        );
        // With no older snapshot to overwrite them, the zero state must
        // clear what a file rejected at its CRC wrote.
        std::fs::remove_file(&path6).unwrap();
        std::fs::remove_file(&path7).unwrap();
        let zero = recover(&dir).unwrap();
        assert_eq!(zero.snapshot_id, None);
        let mut bad_crc = snap.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        let error = with_bad_7(&bad_crc, &zero, "bad crc, no older snapshot");
        assert!(error.contains("bad crc"), "{error}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest is read no further than one byte past its length,
    /// even when its name points at a device that never ends.
    #[cfg(unix)]
    #[test]
    fn read_manifest_of_an_endless_file_is_the_wrong_length() {
        let dir = std::env::temp_dir().join(format!("ta-persist-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/zero", dir.join(MANIFEST_FILE)).unwrap();
        let (tx, rx) = channel();
        let reader = dir.clone();
        std::thread::spawn(move || tx.send(read_manifest(&reader).map_err(|e| e.to_string())));
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("read_manifest must return within 5 s");
        assert_eq!(got, Err("manifest: wrong length".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-1 directory journals sweeps as range frames, which
    /// this reader no longer decodes: its manifest is refused by name.
    #[test]
    fn read_manifest_refuses_version_1() {
        let dir = std::env::temp_dir().join(format!("ta-persist-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A 5-client / 2-shard manifest as version 1 wrote it.
        let v1 = unhex("464d41540100000005000000000000000200000094e92f34");
        std::fs::write(dir.join(MANIFEST_FILE), v1).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "manifest: unsupported version");
        match recover(&dir) {
            Err(RecoveryError::Io(e)) => assert_eq!(e.to_string(), err.to_string()),
            other => panic!("recovery must refuse a version-1 domain: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A CRC-valid manifest stating a geometry no writer produces is
    /// refused by name, by the reader and by recovery alike.
    fn refuses_geometry(tag: &str, clients: usize, shards: usize) {
        let dir = std::env::temp_dir().join(format!("ta-persist-geo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, &Manifest { clients, shards }).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "manifest: geometry out of range");
        match recover(&dir) {
            Err(RecoveryError::Io(e)) => assert_eq!(e.to_string(), err.to_string()),
            other => panic!("recovery must refuse {clients} clients / {shards} shards: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Client ids are `u32`: a larger domain would have recovery allocate
    /// (and abort on) an array no writer could have filled.
    #[test]
    fn read_manifest_refuses_more_clients_than_u32_ids() {
        refuses_geometry("clients", (1 << 32) + 5, 64);
        // The largest legal domain is still accepted by the reader.
        let dir = std::env::temp_dir().join(format!("ta-persist-geo-max-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let max = Manifest {
            clients: u32::MAX as usize,
            shards: 64,
        };
        write_manifest(&dir, &max).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), max);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_manifest_refuses_zero_shards() {
        refuses_geometry("zero", 10, 0);
    }

    /// `Persistence::open` stores the clamped count: 64 shards over 10
    /// clients is written as 10.
    #[test]
    fn read_manifest_refuses_a_shard_count_the_layout_clamps() {
        refuses_geometry("clamped", 10, 64);
    }

    #[test]
    fn manifest_roundtrips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("ta-persist-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            clients: 12_345,
            shards: 16,
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
        // Flip one byte: the CRC must catch it.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = [0u8; 24];
        File::open(&path).unwrap().read_exact(&mut bytes).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_an_existing_domain() {
        let dir = std::env::temp_dir().join(format!("ta-persist-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PersistConfig::new(&dir);
        let p = Persistence::open(&cfg, 100, 4).unwrap();
        p.shutdown().unwrap();
        assert_eq!(
            Persistence::open(&cfg, 100, 4).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
