//! Copy-on-write snapshots of [`ShardedAccounts`].
//!
//! ## On-disk format
//!
//! Snapshot files are `snapshot-<id:08x>.tas`, written to a `.tmp`
//! sibling, fsynced, renamed into place, and the directory fsynced —
//! the `atomic_write_json` idiom of SNIPPETS.md Snippet 1, binary
//! flavour. Layout (little-endian):
//!
//! ```text
//! magic u32 | version u32 | id u64 | first_segment u64
//! clients u64 | shards u32 | pad u32
//! per shard: watermark u64 | granted u64 | burned u64 | count u64
//!            | count × balance i64
//! crc32 u32   (over everything before it)
//! ```
//!
//! `first_segment` is the fresh journal segment the snapshot rotated the
//! writer onto before freezing its first shard: every record in an
//! earlier segment was stamped before the freeze and is already in the
//! copy, and every record the copy does not contain lives in that
//! segment or a later one. That makes recovery read only the tail and
//! makes segment retirement safe. (If the writer refused the rotation,
//! it is the segment that was active instead — looser, still safe.)
//!
//! ## Consistency
//!
//! [`take`] freezes shards **one at a time**: it raises the shard's
//! fence, waits for every producer's epoch cell to read idle, then
//! reads the watermark `W`, the grant/burn books, and the balances.
//! Because producers stamp sequence numbers and apply balance deltas
//! strictly inside their epoch (enter → stamp+apply → exit), quiescence
//! means the copy reflects *exactly* the deltas with `seq < W` — the
//! replay cutoff recovery uses. All other shards keep admitting
//! throughout; the journal keeps running even for the fenced shard's
//! writer-side batches.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;

use super::journal::WriterMsg;
use super::{atomic_write, crc32, read_into, sync_dir, tmp_path, Persistence, SnapMeta};
use crate::accounts::ShardedAccounts;

/// Snapshot magic: "TASN".
pub const SNAPSHOT_MAGIC: u32 = 0x5441_534E;
const SNAPSHOT_VERSION: u32 = 1;
/// Bytes before the first shard (`magic .. pad` in the layout above).
const HEADER_BYTES: usize = 40;

/// Path of snapshot `id` inside `dir`.
pub fn snapshot_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("snapshot-{id:08x}.tas"))
}

/// Lists snapshot files in `dir`, sorted by id (no validation).
pub fn list_snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".tas"))
        {
            if let Ok(id) = u64::from_str_radix(hex, 16) {
                out.push((id, entry.path()));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// One shard's slice of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnap {
    /// Sequence watermark: the snapshot contains exactly the deltas
    /// with `seq < watermark`; replay applies records with
    /// `seq >= watermark`.
    pub watermark: u64,
    /// Cumulative granted tokens at the watermark.
    pub granted: u64,
    /// Cumulative burned tokens at the watermark.
    pub burned: u64,
    /// The shard's balances, in client order.
    pub balances: Vec<i64>,
}

/// A decoded snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Snapshot id (monotonic per domain).
    pub id: u64,
    /// Journal segment the snapshot rotated onto before its first freeze:
    /// replay from this snapshot starts here.
    pub first_segment: u64,
    /// Total client count (must match the manifest).
    pub clients: u64,
    /// Per-shard state.
    pub shards: Vec<ShardSnap>,
}

/// Summary of one completed snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot id.
    pub id: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Journal segments deleted during retirement.
    pub retired_segments: u64,
}

pub(crate) fn encode(
    id: u64,
    first_segment: u64,
    clients: u64,
    shards: &[ShardSnap],
    poison_books: bool,
) -> Vec<u8> {
    let payload: usize = shards.iter().map(|s| 32 + 8 * s.balances.len()).sum();
    let mut out = Vec::with_capacity(HEADER_BYTES + payload + 4);
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&first_segment.to_le_bytes());
    out.extend_from_slice(&clients.to_le_bytes());
    out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for (i, s) in shards.iter().enumerate() {
        out.extend_from_slice(&s.watermark.to_le_bytes());
        // `poison_books` writes a CRC-valid snapshot whose books are off
        // by one token on shard 0 — the fault that proves the
        // conservation gate actually fires.
        let granted = if poison_books && i == 0 {
            s.granted + 1
        } else {
            s.granted
        };
        out.extend_from_slice(&granted.to_le_bytes());
        out.extend_from_slice(&s.burned.to_le_bytes());
        out.extend_from_slice(&(s.balances.len() as u64).to_le_bytes());
        for &b in &s.balances {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A validated snapshot, borrowed from the file's bytes: the header and,
/// per shard, the books plus the still-encoded balances. [`parse`] has
/// checked the CRC, magic, version and geometry, so readers pick what
/// they need — the header alone, per-shard vectors, or one flat decode —
/// without a second grammar.
pub(crate) struct SnapshotView<'a> {
    pub(crate) id: u64,
    pub(crate) first_segment: u64,
    pub(crate) clients: u64,
    pub(crate) shards: Vec<ShardView<'a>>,
}

/// One shard of a [`SnapshotView`].
pub(crate) struct ShardView<'a> {
    pub(crate) watermark: u64,
    pub(crate) granted: u64,
    pub(crate) burned: u64,
    /// `count × 8` bytes of little-endian `i64` balances.
    balances: &'a [u8],
}

impl ShardView<'_> {
    /// The shard's balances, in client order.
    pub(crate) fn balances(&self) -> impl Iterator<Item = i64> + '_ {
        self.balances
            .chunks_exact(8)
            .map(|b| i64::from_le_bytes(b.try_into().expect("chunks_exact")))
    }
}

/// Validates the bytes of one snapshot file.
///
/// # Errors
///
/// `InvalidData` for truncation, bad magic, version, CRC, or internal
/// inconsistencies — the recovery path treats all of these as "fall
/// back to an older snapshot".
pub(crate) fn parse(bytes: &[u8]) -> io::Result<SnapshotView<'_>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"));
    if bytes.len() < HEADER_BYTES + 4 {
        return Err(bad("truncated header"));
    }
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    if u32::from_le_bytes(crc.try_into().expect("4 bytes")) != crc32(body) {
        return Err(bad("bad crc"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    if u32_at(0) != SNAPSHOT_MAGIC {
        return Err(bad("bad magic"));
    }
    if u32_at(4) != SNAPSHOT_VERSION {
        return Err(bad("unsupported version"));
    }
    let clients = u64_at(24);
    let shard_count = u32_at(32) as usize;
    let mut pos = HEADER_BYTES;
    // Each shard needs a 32-byte header: bound the allocation by what
    // the file can actually hold, not by the count it claims.
    let mut shards = Vec::with_capacity(shard_count.min(body.len() / 32));
    let mut total = 0u64;
    for _ in 0..shard_count {
        if body.len() - pos < 32 {
            return Err(bad("truncated shard header"));
        }
        let count = u64_at(pos + 24);
        let start = pos + 32;
        if ((body.len() - start) as u64) / 8 < count {
            return Err(bad("truncated balances"));
        }
        let end = start + 8 * count as usize;
        shards.push(ShardView {
            watermark: u64_at(pos),
            granted: u64_at(pos + 8),
            burned: u64_at(pos + 16),
            balances: &body[start..end],
        });
        pos = end;
        total += count;
    }
    if pos != body.len() || total != clients {
        return Err(bad("inconsistent geometry"));
    }
    Ok(SnapshotView {
        id: u64_at(8),
        first_segment: u64_at(16),
        clients,
        shards,
    })
}

/// Loads and validates one snapshot file.
///
/// # Errors
///
/// Any I/O error, plus `InvalidData` for everything [`parse`] rejects.
pub fn load(path: &Path) -> io::Result<SnapshotData> {
    let bytes = fs::read(path)?;
    let view = parse(&bytes)?;
    Ok(SnapshotData {
        id: view.id,
        first_segment: view.first_segment,
        clients: view.clients,
        shards: view
            .shards
            .iter()
            .map(|sh| ShardSnap {
                watermark: sh.watermark,
                granted: sh.granted,
                burned: sh.burned,
                balances: sh.balances().collect(),
            })
            .collect(),
    })
}

/// Metadata of every *valid* snapshot in `dir` (invalid files are
/// skipped — recovery decides what invalidity means). Validates each
/// file in full but decodes only its header: `resume` runs right after
/// `recover` already built the balances from the same files.
pub(crate) fn list_metas(dir: &Path) -> Vec<SnapMeta> {
    let mut out = Vec::new();
    let mut bytes = Vec::new();
    for (_, path) in list_snapshot_files(dir).unwrap_or_default() {
        if let Ok(view) = read_into(&path, &mut bytes).and_then(|()| parse(&bytes)) {
            out.push(SnapMeta {
                id: view.id,
                first_segment: view.first_segment,
            });
        }
    }
    out.sort_unstable_by_key(|m| m.id);
    out
}

/// Takes one snapshot (see [`Persistence::snapshot`]): rotates the
/// journal, reads the fresh segment's id as the snapshot's
/// `first_segment`, freezes and copies the shards one at a time, writes
/// the file atomically, then deletes snapshots beyond the newest two and
/// the segments only older ones needed.
pub(crate) fn take(p: &Persistence, accounts: &ShardedAccounts) -> io::Result<SnapshotInfo> {
    let manifest = p.manifest();
    assert_eq!(
        accounts.len(),
        manifest.clients,
        "snapshot: client count mismatch"
    );
    assert_eq!(
        accounts.shard_count(),
        manifest.shards,
        "snapshot: shard count mismatch"
    );
    if p.snapshot_poisoned().load(Ordering::SeqCst) {
        return Err(io::Error::other(
            "snapshotting disabled after an injected mid-snapshot crash",
        ));
    }

    let id = p.next_snapshot_id().fetch_add(1, Ordering::SeqCst);
    // Rotate *before* freezing anything: every record in the segments
    // the writer closes was sent before the rotation, so it was stamped
    // before any freeze below and lies under its shard's watermark. The
    // fresh segment is then a tight bound: recovery from this snapshot
    // reads only records it does not already contain. A refused
    // rotation (a degraded or dead writer) still yields a snapshot,
    // bounded by the un-rotated segment; its error is returned after.
    let rotated = rotate(p);
    let first_segment = p.active_segment().load(Ordering::SeqCst);

    let mut shards = Vec::with_capacity(manifest.shards);
    for s in 0..manifest.shards {
        let t0 = std::time::Instant::now();
        let (watermark, granted, burned) = p.freeze_shard(s);
        let balances: Vec<i64> = accounts
            .shard_accounts(s)
            .iter()
            .map(|a| a.balance())
            .collect();
        p.unfreeze_shard(s);
        if let Some(h) = p.shared().telem.get() {
            h.incr(crate::telem::c::SNAPSHOT_FREEZES);
            h.add(
                crate::telem::c::SNAPSHOT_FREEZE_NS,
                t0.elapsed().as_nanos() as u64,
            );
        }
        shards.push(ShardSnap {
            watermark,
            granted,
            burned,
            balances,
        });
    }

    let bytes = encode(
        id,
        first_segment,
        manifest.clients as u64,
        &shards,
        p.cfg().faults.poison_books,
    );
    let dir = &p.cfg().dir;
    let path = snapshot_path(dir, id);

    if p.cfg().faults.crash_mid_snapshot {
        // Die half-way through the tmp write: no rename, and no further
        // snapshots — recovery must fall back past the partial file.
        let tmp = tmp_path(&path);
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes[..bytes.len() / 2])?;
        f.sync_data()?;
        p.snapshot_poisoned().store(true, Ordering::SeqCst);
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "fault: crash_mid_snapshot",
        ));
    }

    atomic_write(&path, &bytes)?;

    // Retention: keep the newest two snapshots; retire segments older
    // than the *older* retained snapshot's first segment, so even if the
    // newest snapshot file is later corrupted, the previous snapshot
    // plus the surviving segments still reconstruct the full state. That
    // bound is never above this snapshot's, so the writer's active
    // segment is never among them.
    let (delete_below, drop_snaps) = {
        let mut snaps = p.snapshots().lock().expect("snapshot registry");
        snaps.push(SnapMeta { id, first_segment });
        snaps.sort_unstable_by_key(|m| m.id);
        let keep_from = snaps.len().saturating_sub(2);
        let dropped: Vec<SnapMeta> = snaps.drain(..keep_from).collect();
        let delete_below = if snaps.len() == 2 {
            snaps[0].first_segment
        } else {
            0
        };
        (delete_below, dropped)
    };
    for m in &drop_snaps {
        let _ = fs::remove_file(snapshot_path(dir, m.id));
    }
    let mut retired_segments = 0;
    for (seg, seg_path) in super::journal::list_segments(dir)? {
        if seg < delete_below {
            fs::remove_file(seg_path)?;
            retired_segments += 1;
        }
    }
    if !drop_snaps.is_empty() || retired_segments > 0 {
        sync_dir(dir)?;
    }
    rotated?;

    Ok(SnapshotInfo {
        id,
        bytes: bytes.len() as u64,
        retired_segments,
    })
}

/// Asks the journal writer to commit and move onto a fresh segment,
/// waiting for its answer.
fn rotate(p: &Persistence) -> io::Result<()> {
    let (ack, done) = channel();
    p.writer_tx()
        .send(WriterMsg::Rotate(ack))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer is gone"))?;
    done.recv()
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer died"))?
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        SnapshotData {
            id: 7,
            first_segment: 3,
            clients: 5,
            shards: vec![
                ShardSnap {
                    watermark: 100,
                    granted: 120,
                    burned: 20,
                    balances: vec![10, 20, 70],
                },
                ShardSnap {
                    watermark: 40,
                    granted: 9,
                    burned: 2,
                    balances: vec![3, -1],
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ta-snap-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let want = sample();
        let bytes = encode(
            want.id,
            want.first_segment,
            want.clients,
            &want.shards,
            false,
        );
        let path = snapshot_path(&dir, want.id);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_truncated_snapshots_are_rejected() {
        let dir = std::env::temp_dir().join(format!("ta-snap-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let want = sample();
        let bytes = encode(
            want.id,
            want.first_segment,
            want.clients,
            &want.shards,
            false,
        );
        let path = snapshot_path(&dir, 1);
        // Truncations at every length must fail (never half-load).
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load(&path).is_err(), "cut at {cut}");
        }
        // Any single flipped byte must fail the CRC.
        for i in (0..bytes.len()).step_by(13) {
            let mut b = bytes.clone();
            b[i] ^= 0x10;
            std::fs::write(&path, &b).unwrap();
            assert!(load(&path).is_err(), "flip at {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_books_still_crc_valid() {
        let dir = std::env::temp_dir().join(format!("ta-snap-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let want = sample();
        let bytes = encode(
            want.id,
            want.first_segment,
            want.clients,
            &want.shards,
            true,
        );
        let path = snapshot_path(&dir, 2);
        std::fs::write(&path, &bytes).unwrap();
        let got = load(&path).unwrap();
        assert_eq!(got.shards[0].granted, want.shards[0].granted + 1);
        assert_eq!(got.shards[1], want.shards[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
