//! Fault injection for the durability subsystem.
//!
//! A [`FaultPlan`] is parsed from a comma-separated list (the `TA_FAULT`
//! environment variable or the `live` bin's `--fault` flag) and has
//! three kinds of members:
//!
//! * **In-process faults** consulted while the domain runs:
//!   `kill_writer_mid_frame` (the writer makes a half-written frame
//!   durable and dies), `drop_fsync` (commits skip fsync),
//!   `crash_mid_snapshot` (the snapshotter writes half a tmp file and
//!   gives up), `poison_books` (snapshots carry CRC-valid but
//!   off-by-one grant books — the fault that must trip the conservation
//!   gate, because no torn tail can).
//! * **Transient faults** fed to the journal writer's IO shim (the
//!   self-healing path): `io_error_n:<k>` (the next `k` writes fail
//!   with a retryable `EINTR`-style error), `enospc_after:<bytes>` (the
//!   disk "fills" after that many journal bytes and stays full for a
//!   fixed number of attempts before space returns), `slow_io_ms:<d>`
//!   (every write stalls `d` ms), `writer_hang` (the writer sleeps once
//!   long enough to miss its heartbeat deadline), `granter_stall` (the
//!   granter does the same). All are deterministic in attempt counts,
//!   so CI can assert health-counter/injection agreement.
//! * **Post-mortem mutilations** applied to the directory after the
//!   process is gone, simulating sector loss the page cache hid:
//!   `torn_tail` (cut bytes off the newest non-empty segment recovery
//!   reads, i.e. at or above the newest valid snapshot's bound),
//!   `corrupt_crc` (flip a byte inside it), `corrupt_snapshot` (flip a
//!   byte in the newest snapshot).
//!
//! Every mode must leave recovery either exact (fold of the surviving
//! records) or loudly failing — the fault sweep in CI checks both.

use std::fmt;
use std::io;
use std::path::Path;

use super::{journal, snapshot};

/// Which faults to inject. Parsed with [`FaultPlan::parse`];
/// `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Writer syncs a half-written frame and exits after two committed
    /// frames.
    pub kill_writer_mid_frame: bool,
    /// Journal commits skip fsync.
    pub drop_fsync: bool,
    /// The snapshotter dies halfway through the tmp write; no further
    /// snapshots are taken.
    pub crash_mid_snapshot: bool,
    /// Snapshots are written with grant books off by one (CRC-valid).
    pub poison_books: bool,
    /// Post-mortem: cut bytes off the newest non-empty journal segment
    /// recovery reads.
    pub torn_tail: bool,
    /// Post-mortem: flip a byte inside the newest non-empty journal
    /// segment recovery reads.
    pub corrupt_crc: bool,
    /// Post-mortem: flip a byte inside the newest snapshot file.
    pub corrupt_snapshot: bool,
    /// Transient: the next `k` journal writes fail with a retryable
    /// error (`io_error_n:<k>`; 0 = off).
    pub io_error_n: u32,
    /// Transient: journal writes fail with `StorageFull` once this many
    /// bytes have been written (`enospc_after:<bytes>`; 0 = off). The
    /// outage lasts a fixed number of failed attempts, then space
    /// "returns" for good.
    pub enospc_after: u64,
    /// Transient: every journal write stalls this many milliseconds
    /// (`slow_io_ms:<d>`; 0 = off).
    pub slow_io_ms: u64,
    /// Transient: the journal writer sleeps once, long enough to miss
    /// its heartbeat deadline, then resumes.
    pub writer_hang: bool,
    /// Transient: the granter sleeps once past its round deadline, long
    /// enough for the watchdog to restart it.
    pub granter_stall: bool,
}

impl FaultPlan {
    /// All recognised mode names (parameterised modes are listed
    /// without their `:<arg>` suffix).
    pub const MODES: [&'static str; 12] = [
        "kill_writer_mid_frame",
        "drop_fsync",
        "crash_mid_snapshot",
        "poison_books",
        "torn_tail",
        "corrupt_crc",
        "corrupt_snapshot",
        "io_error_n",
        "enospc_after",
        "slow_io_ms",
        "writer_hang",
        "granter_stall",
    ];

    /// Parses a comma-separated mode list ("" → no faults).
    /// Parameterised modes take a `:<number>` argument
    /// (`io_error_n:3`, `enospc_after:30000`, `slow_io_ms:2`).
    ///
    /// # Errors
    ///
    /// Returns the offending token for anything not in [`Self::MODES`],
    /// for a parameterised mode with a missing/zero/malformed argument,
    /// and for an argument on a mode that takes none.
    pub fn parse(list: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for tok in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, arg) = match tok.split_once(':') {
                Some((name, arg)) => (name.trim(), Some(arg.trim())),
                None => (tok, None),
            };
            fn numeric<T: std::str::FromStr + PartialEq + Default>(
                name: &str,
                arg: Option<&str>,
            ) -> Result<T, String> {
                let arg =
                    arg.ok_or_else(|| format!("fault mode `{name}` needs a `:<n>` argument"))?;
                match arg.parse::<T>() {
                    Ok(v) if v != T::default() => Ok(v),
                    _ => Err(format!("bad fault argument `{arg}` for `{name}`")),
                }
            }
            if arg.is_some() && !matches!(name, "io_error_n" | "enospc_after" | "slow_io_ms") {
                return Err(format!("fault mode `{name}` takes no argument"));
            }
            match name {
                "kill_writer_mid_frame" => plan.kill_writer_mid_frame = true,
                "drop_fsync" => plan.drop_fsync = true,
                "crash_mid_snapshot" => plan.crash_mid_snapshot = true,
                "poison_books" => plan.poison_books = true,
                "torn_tail" => plan.torn_tail = true,
                "corrupt_crc" => plan.corrupt_crc = true,
                "corrupt_snapshot" => plan.corrupt_snapshot = true,
                "io_error_n" => plan.io_error_n = numeric(name, arg)?,
                "enospc_after" => plan.enospc_after = numeric(name, arg)?,
                "slow_io_ms" => plan.slow_io_ms = numeric(name, arg)?,
                "writer_hang" => plan.writer_hang = true,
                "granter_stall" => plan.granter_stall = true,
                other => return Err(format!("unknown fault mode `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Parses the `TA_FAULT` environment variable (unset → no faults).
    ///
    /// # Errors
    ///
    /// Same as [`Self::parse`].
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("TA_FAULT") {
            Ok(list) => Self::parse(&list),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// True if any post-mortem mutilation is requested.
    pub fn wants_post_mortem(&self) -> bool {
        self.torn_tail || self.corrupt_crc || self.corrupt_snapshot
    }

    /// Applies the post-mortem mutilations to a dead domain directory,
    /// returning a description of each wound inflicted.
    ///
    /// # Errors
    ///
    /// Any I/O error while mutilating.
    pub fn apply_post_mortem(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut wounds = Vec::new();
        if self.torn_tail {
            if let Some((id, path, len)) = newest_replayed_segment(dir)? {
                // Frames are ≥ 16 bytes, so shaving 5 always tears the
                // final frame rather than landing on a boundary.
                let cut = len.saturating_sub(5);
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(cut)?;
                f.sync_data()?;
                wounds.push(format!(
                    "torn_tail: segment {id:08x} cut {len} → {cut} bytes"
                ));
            }
        }
        if self.corrupt_crc {
            if let Some((id, path, len)) = newest_replayed_segment(dir)? {
                flip_byte(&path, len / 2)?;
                wounds.push(format!(
                    "corrupt_crc: segment {id:08x} byte {} flipped",
                    len / 2
                ));
            }
        }
        if self.corrupt_snapshot {
            let mut snaps = snapshot::list_snapshot_files(dir)?;
            if let Some((id, path)) = snaps.pop() {
                let len = std::fs::metadata(&path)?.len();
                if len > 0 {
                    flip_byte(&path, len / 2)?;
                    wounds.push(format!(
                        "corrupt_snapshot: snapshot {id:08x} byte {} flipped",
                        len / 2
                    ));
                }
            }
        }
        Ok(wounds)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, on: bool, name: &str| -> fmt::Result {
            if on {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
            Ok(())
        };
        put(f, self.kill_writer_mid_frame, "kill_writer_mid_frame")?;
        put(f, self.drop_fsync, "drop_fsync")?;
        put(f, self.crash_mid_snapshot, "crash_mid_snapshot")?;
        put(f, self.poison_books, "poison_books")?;
        put(f, self.torn_tail, "torn_tail")?;
        put(f, self.corrupt_crc, "corrupt_crc")?;
        put(f, self.corrupt_snapshot, "corrupt_snapshot")?;
        let mut put_arg = |f: &mut fmt::Formatter<'_>, value: u64, name: &str| -> fmt::Result {
            if value != 0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}:{value}")?;
                first = false;
            }
            Ok(())
        };
        put_arg(f, u64::from(self.io_error_n), "io_error_n")?;
        put_arg(f, self.enospc_after, "enospc_after")?;
        put_arg(f, self.slow_io_ms, "slow_io_ms")?;
        let mut put = |f: &mut fmt::Formatter<'_>, on: bool, name: &str| -> fmt::Result {
            if on {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
            Ok(())
        };
        put(f, self.writer_hang, "writer_hang")?;
        put(f, self.granter_stall, "granter_stall")?;
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// The newest non-empty segment recovery reads: one at or above the
/// newest valid snapshot's `first_segment`. Recovery never opens a
/// segment below that bound, so a wound there would go unnoticed.
fn newest_replayed_segment(dir: &Path) -> io::Result<Option<(u64, std::path::PathBuf, u64)>> {
    let bound = snapshot::list_snapshot_files(dir)?
        .into_iter()
        .rev()
        .find_map(|(_, path)| snapshot::load(&path).ok())
        .map_or(0, |snap| snap.first_segment);
    for (id, path) in journal::list_segments(dir)?.into_iter().rev() {
        if id < bound {
            break;
        }
        let len = std::fs::metadata(&path)?.len();
        if len > 0 {
            return Ok(Some((id, path, len)));
        }
    }
    Ok(None)
}

fn flip_byte(path: &Path, offset: u64) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let i = (offset as usize).min(bytes.len().saturating_sub(1));
    bytes[i] ^= 0x55;
    std::fs::write(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_all_modes() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let all = "kill_writer_mid_frame,drop_fsync,crash_mid_snapshot,poison_books,torn_tail,\
                   corrupt_crc,corrupt_snapshot,io_error_n:3,enospc_after:30000,slow_io_ms:2,\
                   writer_hang,granter_stall";
        let plan = FaultPlan::parse(all).unwrap();
        assert!(plan.kill_writer_mid_frame && plan.drop_fsync && plan.crash_mid_snapshot);
        assert!(plan.poison_books && plan.torn_tail && plan.corrupt_crc && plan.corrupt_snapshot);
        assert_eq!(plan.io_error_n, 3);
        assert_eq!(plan.enospc_after, 30_000);
        assert_eq!(plan.slow_io_ms, 2);
        assert!(plan.writer_hang && plan.granter_stall);
        assert_eq!(plan.to_string(), all);
        assert_eq!(FaultPlan::default().to_string(), "none");
        assert!(FaultPlan::parse("torn_tail, bogus").is_err());
        assert_eq!(
            FaultPlan::parse(" torn_tail , corrupt_crc ").unwrap(),
            FaultPlan {
                torn_tail: true,
                corrupt_crc: true,
                ..FaultPlan::default()
            }
        );
    }

    /// The tail-damaging modes aim at a segment recovery opens: never
    /// one below the newest valid snapshot's `first_segment`, even when
    /// every segment from that bound on is still empty.
    #[test]
    fn tail_wounds_land_at_or_above_the_snapshot_bound() {
        let dir = std::env::temp_dir().join(format!("ta-faults-bound-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shard = snapshot::ShardSnap {
            watermark: 0,
            granted: 0,
            burned: 0,
            balances: vec![0; 4],
        };
        let snap = snapshot::encode(0, 2, 4, &[shard], false);
        std::fs::write(snapshot::snapshot_path(&dir, 0), snap).unwrap();
        let frame = [0xAB; 64];
        for (id, bytes) in [(0, &frame[..]), (1, &frame[..]), (2, &[][..])] {
            std::fs::write(journal::segment_path(&dir, id), bytes).unwrap();
        }
        let plan = FaultPlan::parse("torn_tail,corrupt_crc").unwrap();
        // Segment 1 holds bytes but lies below the bound: nothing to aim at.
        assert_eq!(plan.apply_post_mortem(&dir).unwrap(), Vec::<String>::new());
        assert_eq!(
            std::fs::read(journal::segment_path(&dir, 1)).unwrap(),
            frame
        );

        std::fs::write(journal::segment_path(&dir, 2), frame).unwrap();
        std::fs::write(journal::segment_path(&dir, 3), b"").unwrap();
        let wounds = plan.apply_post_mortem(&dir).unwrap();
        assert_eq!(wounds.len(), 2);
        assert!(
            wounds.iter().all(|w| w.contains("segment 00000002")),
            "{wounds:?}"
        );
        assert_eq!(
            std::fs::read(journal::segment_path(&dir, 1)).unwrap(),
            frame
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parameterised_modes_validate_their_arguments() {
        // Missing, zero, and malformed arguments are all rejected with
        // the offending token in the message.
        for bad in [
            "io_error_n",
            "io_error_n:",
            "io_error_n:0",
            "io_error_n:-1",
            "io_error_n:many",
            "enospc_after:0x10",
            "slow_io_ms:1.5",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains('`'), "{bad}: {err}");
        }
        // Arguments on argument-less modes are rejected too.
        assert!(FaultPlan::parse("writer_hang:5").is_err());
        assert!(FaultPlan::parse("torn_tail:1").is_err());
        // Whitespace around the colon is tolerated.
        let plan = FaultPlan::parse(" io_error_n : 7 ").unwrap();
        assert_eq!(plan.io_error_n, 7);
        assert_eq!(plan.to_string(), "io_error_n:7");
    }
}
