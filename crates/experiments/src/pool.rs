//! Bounded worker pool for embarrassingly parallel job grids.
//!
//! The paper's experiment procedure multiplies three axes — figure panels ×
//! parameter cells × independent replicas — into hundreds of simulations.
//! Earlier revisions spawned one OS thread per replica of the *current*
//! spec, which both oversubscribed the machine (replicas × panels threads at
//! peak) and serialized across cells. This module instead runs any number of
//! independent jobs on a fixed-size pool: `min(available_parallelism,
//! jobs)` workers pull indices from a shared atomic injector until the grid
//! is drained, so a whole sweep saturates every core exactly once.
//!
//! Jobs are identified by index; results are returned in index order, so
//! output is deterministic regardless of scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Maximum workers the pool will use: `available_parallelism`, clamped by
/// the `TA_THREADS` environment variable when set (useful on shared CI).
pub fn max_workers() -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    match std::env::var("TA_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => hw,
        },
        Err(_) => hw,
    }
}

/// Tells glibc's allocator to keep freed memory mapped for the rest of the
/// process (once; a no-op elsewhere).
///
/// A replica builds and frees its whole state — ~60 MB at n = 100 000 —
/// and the next one asks for the same again. By default glibc hands every
/// large free back to the kernel (`brk` shrink, `munmap`), so each replica
/// re-faults its working set page by page, and whether a caller's own
/// buffers between two grids (a prepared topology) are unmapped with it
/// depends on where a few small allocations happened to land: measured on
/// `sim_big_churn`, 0 or 2 ms per repetition to drop the topology and
/// 52 or 60 ms to build the next one, flipping with changes that touch no
/// allocation on the timed path. A batch simulator wants neither the cost
/// nor the coin toss: freed memory stays in the heap until the process
/// exits. Both parameters are needed — setting either one freezes glibc's
/// dynamic `mmap` threshold at its 128 KB default, which alone would send
/// every per-node array through `mmap`/`munmap`.
fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            extern "C" {
                // int mallopt(int param, int value);
                fn mallopt(param: i32, value: i32) -> i32;
            }
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_MMAP_THRESHOLD: i32 = -3;
            // SAFETY: mallopt only stores the two integers in the
            // allocator's parameter block; 32 MB is the largest mmap
            // threshold glibc accepts. A refusal (return 0) leaves the
            // defaults in place.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, i32::MAX);
            }
        });
    }
}

/// Runs `jobs` independent closures `f(0..jobs)` on a bounded pool and
/// returns their results in job order.
///
/// Workers claim indices from a shared atomic counter (a minimal injector
/// queue): no job is ever run twice, no worker idles while work remains,
/// and at most [`max_workers`] OS threads exist at any instant.
///
/// # Panics
///
/// If jobs panic, re-raises the panic of the lowest-indexed one that did,
/// with its own payload, once every worker has been joined; workers stop
/// claiming further jobs as soon as one has failed.
pub fn run_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    keep_freed_memory();
    let workers = max_workers().min(jobs);
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // One worker: the results of the jobs it ran, or the first job of its
    // own that panicked.
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(result) => done.push((i, result)),
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    return Err((i, payload));
                }
            }
        }
        Ok(done)
    };
    let mut results = Vec::with_capacity(jobs);
    let mut first_panic = None;
    std::thread::scope(|scope| {
        // Joined by hand: the scope's own join re-panics with a fixed
        // message and drops the job's payload.
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            match handle
                .join()
                .expect("a pool worker catches its job's panic")
            {
                Ok(done) => results.extend(done),
                Err((i, payload)) => {
                    if first_panic.as_ref().is_none_or(|&(j, _)| i < j) {
                        first_panic = Some((i, payload));
                    }
                }
            }
        }
    });
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    debug_assert_eq!(results.len(), jobs);
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_job_order() {
        let out = run_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = run_indexed(0, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        const JOBS: usize = 257;
        let counters: Vec<AtomicUsize> = (0..JOBS).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(JOBS, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "job {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn pool_is_bounded_by_max_workers() {
        use std::sync::atomic::AtomicIsize;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let _ = run_indexed(64, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(peak.load(Ordering::SeqCst) <= max_workers() as isize);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn job_panics_propagate() {
        let _ = run_indexed(8, |i| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            i
        });
    }
}
