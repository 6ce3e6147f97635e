//! CPU time and peak memory from `/proc`, with no `libc` in the build.

use std::fs;

/// Nanoseconds per clock tick of `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux the workspace supports, and `sysconf` is out of reach
/// without `libc`.
pub const TICK_NS: f64 = 1e7;

/// Fields `from..=to` (1-based, as numbered in proc(5)) of a
/// `/proc/<pid>/stat` line, summed. The command name in field 2 may hold
/// spaces, so counting starts after its closing parenthesis.
fn stat_fields_sum(stat: &str, from: usize, to: usize) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3.
    after_comm
        .split_ascii_whitespace()
        .skip(from - 3)
        .take(to - from + 1)
        .map(|f| f.parse::<u64>().ok())
        .sum()
}

/// User + system CPU ticks of this process, all threads (fields 14-15).
pub fn self_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_fields_sum(&s, 14, 15))
        .unwrap_or(0)
}

/// User + system CPU ticks of every child this process has waited for
/// (fields 16-17). The difference across one `wait` is that child's CPU
/// time, threads included.
pub fn reaped_children_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_fields_sum(&s, 16, 17))
        .unwrap_or(0)
}

fn vm_hwm_of(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of process `pid` in kB, while it is alive.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    vm_hwm_of(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Peak resident set of this process in kB.
pub fn self_vm_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_of(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_the_command_name() {
        let stat = "4242 (ta bench) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    12 3 40 5 20 0 3 0 100 1000 200";
        assert_eq!(stat_fields_sum(stat, 14, 15), Some(15));
        assert_eq!(stat_fields_sum(stat, 16, 17), Some(45));
        assert_eq!(stat_fields_sum("garbage", 14, 15), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(self_vm_hwm_kb() > 0);
        assert!(vm_hwm_kb(std::process::id()).is_some());
        assert_eq!(
            vm_hwm_of("Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"),
            Some(12345)
        );
        // Monotone and readable.
        let a = self_cpu_ticks();
        assert!(self_cpu_ticks() >= a);
        let _ = reaped_children_cpu_ticks();
    }
}
