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
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;

use super::journal::WriterMsg;
use super::{atomic_write, crc, crc32, sync_dir, tmp_path, Manifest, Persistence, SnapMeta};
use crate::accounts::{ShardLayout, ShardedAccounts};

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

/// Bytes of one shard's books (`watermark .. count` in the layout above).
const SHARD_HEADER_BYTES: usize = 32;

/// Balances read (and checksummed) per piece: one journal window, so
/// each piece is still in cache when the CRC walks it.
const PIECE: usize = super::journal::WINDOW / 8;

/// The file length a snapshot of `geometry` has (`u64::MAX` if that does
/// not fit in a `u64`, which no file has).
fn implied_len(geometry: &Manifest) -> u64 {
    (geometry.clients as u64)
        .checked_mul(8)
        .and_then(|b| b.checked_add(geometry.shards as u64 * SHARD_HEADER_BYTES as u64))
        .and_then(|b| b.checked_add(HEADER_BYTES as u64 + 4))
        .unwrap_or(u64::MAX)
}

fn bad(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"))
}

/// One shard's books, as [`Reader::shard`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Books {
    pub(crate) watermark: u64,
    pub(crate) granted: u64,
    pub(crate) burned: u64,
}

/// The snapshot decoder: streams one file straight into the caller's
/// balance slices, checksumming as it goes. [`open`](Self::open) checks
/// the file's length and header against a geometry,
/// [`shard`](Self::shard) reads the next shard's books and balances, and
/// [`finish`](Self::finish) checks the CRC. Until `finish` succeeds,
/// everything the reader produced — books and balances alike — is
/// untrusted, and a caller that gives up on the file must discard it.
pub(crate) struct Reader {
    file: BufReader<File>,
    /// Raw CRC state over every byte read so far.
    crc: u32,
    layout: ShardLayout,
    /// The next shard [`shard`](Self::shard) reads.
    next: usize,
    /// What a shard `count` the layout contradicts is called.
    mismatch: &'static str,
    /// Snapshot id.
    pub(crate) id: u64,
    /// See [`SnapshotData::first_segment`].
    pub(crate) first_segment: u64,
}

impl Reader {
    /// Opens snapshot `path` and checks its header. Given the manifest
    /// (`expect`), a file whose length differs from the one its geometry
    /// implies is refused before a byte of it is read, and the header
    /// must state that geometry; without it, the header's own geometry
    /// must imply the file's length.
    pub(crate) fn open(path: &Path, expect: Option<&Manifest>) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        match expect {
            Some(m) if len != implied_len(m) => {
                return Err(bad(format_args!(
                    "{len} bytes, but the manifest's geometry implies {}",
                    implied_len(m)
                )))
            }
            None if len < HEADER_BYTES as u64 + 4 => return Err(bad("truncated header")),
            _ => {}
        }
        let mut file = BufReader::new(file);
        let mut head = [0u8; HEADER_BYTES];
        file.read_exact(&mut head)?;
        let u32_at = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 B"));
        let u64_at = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 B"));
        if u32_at(0) != SNAPSHOT_MAGIC {
            return Err(bad("bad magic"));
        }
        if u32_at(4) != SNAPSHOT_VERSION {
            return Err(bad("unsupported version"));
        }
        let geometry = Manifest {
            clients: usize::try_from(u64_at(24)).unwrap_or(usize::MAX),
            shards: u32_at(32) as usize,
        };
        let mismatch = match expect {
            Some(m) if *m != geometry => return Err(bad("geometry disagrees with manifest")),
            Some(_) => "geometry disagrees with manifest",
            None if len != implied_len(&geometry) => {
                return Err(bad("length disagrees with header"))
            }
            None => "inconsistent geometry",
        };
        let layout = ShardLayout::new(geometry.clients, geometry.shards);
        if layout.shard_count() != geometry.shards {
            return Err(bad(mismatch));
        }
        Ok(Reader {
            file,
            crc: crc::update(!0, &head),
            layout,
            next: 0,
            mismatch,
            id: u64_at(8),
            first_segment: u64_at(16),
        })
    }

    /// The partition the file's shards follow.
    pub(crate) fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Reads the next shard's books, and its balances into `balances`,
    /// which must be exactly as long as that shard's range in
    /// [`layout`](Self::layout).
    ///
    /// # Panics
    ///
    /// If every shard has been read, or `balances` has the wrong length.
    pub(crate) fn shard(&mut self, balances: &mut [i64]) -> io::Result<Books> {
        let range = self.layout.shard_range(self.next);
        assert_eq!(balances.len(), range.len(), "the shard's own slice");
        let mut head = [0u8; SHARD_HEADER_BYTES];
        self.read(&mut head)?;
        let u64_at = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 B"));
        if u64_at(24) != range.len() as u64 {
            return Err(bad(self.mismatch));
        }
        for piece in balances.chunks_mut(PIECE) {
            self.read(as_bytes_mut(piece))?;
            for b in piece {
                *b = i64::from_le(*b);
            }
        }
        self.next += 1;
        Ok(Books {
            watermark: u64_at(0),
            granted: u64_at(8),
            burned: u64_at(16),
        })
    }

    /// Checks the CRC over everything read, once every shard has been.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        debug_assert_eq!(self.next, self.layout.shard_count(), "unread shards");
        let mut crc = [0u8; 4];
        self.file.read_exact(&mut crc)?;
        if u32::from_le_bytes(crc) != !self.crc {
            return Err(bad("bad crc"));
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact(buf)?;
        self.crc = crc::update(self.crc, buf);
        Ok(())
    }
}

/// `v`'s memory as bytes, to read little-endian balances straight into.
fn as_bytes_mut(v: &mut [i64]) -> &mut [u8] {
    // SAFETY: the byte slice covers exactly `v`'s memory and holds its
    // unique borrow for as long; `u8` needs no alignment, and every byte
    // pattern is a valid `i64`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), std::mem::size_of_val(v)) }
}

/// Loads and validates one snapshot file, its geometry taken from its
/// own header.
///
/// # Errors
///
/// Any I/O error, plus `InvalidData` for truncation, bad magic, version,
/// CRC, or a geometry the file's length or shards contradict.
pub fn load(path: &Path) -> io::Result<SnapshotData> {
    let mut r = Reader::open(path, None)?;
    let layout = r.layout();
    let mut shards = Vec::with_capacity(layout.shard_count());
    for s in 0..layout.shard_count() {
        let mut balances = vec![0; layout.shard_range(s).len()];
        let books = r.shard(&mut balances)?;
        shards.push(ShardSnap {
            watermark: books.watermark,
            granted: books.granted,
            burned: books.burned,
            balances,
        });
    }
    let (id, first_segment) = (r.id, r.first_segment);
    r.finish()?;
    Ok(SnapshotData {
        id,
        first_segment,
        clients: shards.iter().map(|s| s.balances.len() as u64).sum(),
        shards,
    })
}

/// Metadata of every snapshot in `dir` that recovery could base a
/// `manifest` domain on (others are skipped — recovery decides what
/// invalidity means). Validates each file in full through one shard's
/// worth of scratch: `resume` runs right after `recover` already built
/// the balances from the same files.
pub(crate) fn list_metas(dir: &Path, manifest: &Manifest) -> Vec<SnapMeta> {
    let mut scratch = Vec::new();
    let mut meta = |path: &Path| -> io::Result<SnapMeta> {
        let mut r = Reader::open(path, Some(manifest))?;
        let layout = r.layout();
        for s in 0..layout.shard_count() {
            scratch.resize(layout.shard_range(s).len(), 0);
            r.shard(&mut scratch)?;
        }
        let meta = SnapMeta {
            id: r.id,
            first_segment: r.first_segment,
        };
        r.finish()?;
        Ok(meta)
    };
    let mut out: Vec<SnapMeta> = list_snapshot_files(dir)
        .unwrap_or_default()
        .iter()
        .filter_map(|(_, path)| meta(path).ok())
        .collect();
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
