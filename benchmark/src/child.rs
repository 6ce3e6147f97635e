//! Running one child process under supervision: its stdout is read line
//! by line, its peak memory is polled from `/proc`, its CPU time is taken
//! from this process's reaped-children clock, and it is killed when it
//! runs past three times its expected time.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::procfs;

/// How often the watchdog looks at the child. A `live --recover` process
/// lives 0.4 s and grows until it exits, so the last look has to be close
/// to the end; one look costs a few tens of microseconds.
const POLL: Duration = Duration::from_millis(10);

/// What one supervised child did.
#[derive(Debug)]
pub struct ChildRun {
    /// Exit code; `None` when a signal ended it (including our own kill).
    pub exit_code: Option<i32>,
    /// Whether the watchdog had to kill it.
    pub timed_out: bool,
    /// Spawn to reaped.
    pub wall: Duration,
    /// User + system CPU of the child and its threads, in nanoseconds
    /// (10 ms resolution).
    pub cpu_ns: f64,
    /// Peak resident set in kB, as last polled.
    pub hwm_kb: u64,
    /// Everything it printed to stdout.
    pub lines: Vec<String>,
}

impl ChildRun {
    /// Exited with code 0 and was not killed.
    pub fn ok(&self) -> bool {
        self.exit_code == Some(0) && !self.timed_out
    }

    /// The last stdout line starting with `prefix`.
    pub fn last_line_with(&self, prefix: &str) -> Option<&str> {
        self.lines
            .iter()
            .rev()
            .find(|l| l.starts_with(prefix))
            .map(String::as_str)
    }
}

/// Kills process `pid` outright. `std` can only kill through the `Child`
/// handle, which the waiting thread holds; the child stays unreaped until
/// that wait returns, so the pid cannot have been reused.
pub fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Runs `cmd` to completion. `on_line` sees every stdout line as it
/// arrives (on a reader thread); `alongside` runs on its own thread for
/// the life of the child with the child's pid (an obs client, say) and
/// must return once the child's sockets close. Stderr passes through.
///
/// Only one supervised child may run at a time per process: the CPU time
/// is the growth of this process's reaped-children clock across the wait.
pub fn run<T: Send>(
    mut cmd: Command,
    expected: Duration,
    mut on_line: impl FnMut(&str) + Send,
    alongside: impl FnOnce(u32) -> T + Send,
) -> std::io::Result<(ChildRun, T)> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let cpu_before = procfs::reaped_children_cpu_ticks();
    let started = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout was piped");
    let done = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let hwm_kb = AtomicU64::new(0);
    let limit = expected * 3;

    let (exit, wall, lines, side) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                on_line(&line);
                lines.push(line);
            }
            lines
        });
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(kb) = procfs::vm_hwm_kb(pid) {
                    hwm_kb.fetch_max(kb, Ordering::Relaxed);
                }
                if started.elapsed() > limit {
                    timed_out.store(true, Ordering::Release);
                    kill(pid);
                    return;
                }
                std::thread::sleep(POLL);
            }
        });
        let side = scope.spawn(move || alongside(pid));
        let exit = child.wait();
        let wall = started.elapsed();
        done.store(true, Ordering::Release);
        (
            exit,
            wall,
            reader.join().expect("stdout reader panicked"),
            side.join().expect("alongside task panicked"),
        )
    });
    let cpu_ticks = procfs::reaped_children_cpu_ticks().saturating_sub(cpu_before);
    Ok((
        ChildRun {
            exit_code: exit?.code(),
            timed_out: timed_out.load(Ordering::Acquire),
            wall,
            cpu_ns: cpu_ticks as f64 * procfs::TICK_NS,
            hwm_kb: hwm_kb.load(Ordering::Relaxed),
            lines,
        },
        side,
    ))
}

/// [`run`] with nothing running alongside and no line callback.
pub fn run_plain(cmd: Command, expected: Duration) -> std::io::Result<ChildRun> {
    run(cmd, expected, |_| {}, |_| ()).map(|(r, ())| r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn collects_lines_and_exit_code() {
        let mut seen = 0;
        let (r, pid) = run(
            sh("echo one; echo event=obs listen=127.0.0.1:9; exit 3"),
            Duration::from_secs(5),
            |_| seen += 1,
            |pid| pid,
        )
        .unwrap();
        assert_eq!(r.exit_code, Some(3));
        assert!(!r.ok() && !r.timed_out);
        assert_eq!(r.lines.len(), 2);
        assert_eq!(seen, 2);
        assert!(pid > 0);
        assert_eq!(
            r.last_line_with("event=obs"),
            Some("event=obs listen=127.0.0.1:9")
        );
    }

    #[test]
    fn kills_a_child_that_overstays() {
        let r = run_plain(sh("exec sleep 30"), Duration::from_millis(100)).unwrap();
        assert!(r.timed_out && !r.ok());
        assert!(r.wall < Duration::from_secs(10));
    }
}
