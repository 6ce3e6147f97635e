//! The one stop signal every helper thread waits on.
//!
//! Algorithm 4 has one periodic event, the round tick. Every other helper
//! of the runtime — snapshotter, supervisor, stats pump, trace bus, obs
//! server — only reacts, so none of them polls: each waits on a
//! [`StopSignal`] until its next duty is due, and [`StopSignal::stop`]
//! wakes them all at once instead of each finishing a sleep slice.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A wakeable stop flag: a `Mutex` + `Condvar` pair with a lock-free
/// [`is_stopped`](Self::is_stopped) mirror for loops that only peek.
#[derive(Debug, Default)]
pub struct StopSignal {
    stopped: AtomicBool,
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct State {
    stopped: bool,
    /// A [`StopSignal::wake`] no wait has consumed yet.
    woken: bool,
}

impl StopSignal {
    /// A signal that has not been stopped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether [`stop`](Self::stop) has been called (no lock taken).
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Stops for good and wakes every waiter.
    pub fn stop(&self) {
        let mut state = self.lock();
        state.stopped = true;
        self.stopped.store(true, Ordering::Release);
        drop(state);
        self.cv.notify_all();
    }

    /// Wakes the waiters without stopping: their waits return `false`
    /// early. A wake that finds nobody waiting is kept for the next wait,
    /// so a waiter that is between reading its schedule and waiting on
    /// it cannot miss one. Meant for a signal with one waiter.
    pub fn wake(&self) {
        self.lock().woken = true;
        self.cv.notify_all();
    }

    /// Waits until `deadline`, a [`wake`](Self::wake) or a
    /// [`stop`](Self::stop); returns whether the signal is stopped. A
    /// deadline in the past returns at once.
    pub fn wait_until(&self, deadline: Instant) -> bool {
        let mut state = self.lock();
        loop {
            if state.stopped {
                return true;
            }
            if std::mem::take(&mut state.woken) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// [`wait_until`](Self::wait_until) `timeout` from now; a timeout past
    /// what an [`Instant`] can hold waits for a wake or a stop only.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let far = || Instant::now() + Duration::from_secs(1 << 32);
        self.wait_until(Instant::now().checked_add(timeout).unwrap_or_else(far))
    }

    /// Every update of the state is one field store, so a guard a panic
    /// poisoned still holds valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stop_wakes_a_waiter_blocked_on_a_long_deadline() {
        let signal = Arc::new(StopSignal::new());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                (signal.wait_for(Duration::from_secs(60)), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        signal.stop();
        let (stopped, waited) = waiter.join().unwrap();
        assert!(stopped);
        assert!(waited < Duration::from_secs(10), "{waited:?}");
        assert!(signal.is_stopped());
        // Once stopped, every wait returns at once and says so.
        assert!(signal.wait_for(Duration::from_secs(60)));
    }

    #[test]
    fn a_wake_returns_false_and_is_kept_for_the_next_wait() {
        let signal = Arc::new(StopSignal::new());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait_for(Duration::from_secs(60)))
        };
        std::thread::sleep(Duration::from_millis(20));
        signal.wake();
        assert!(!waiter.join().unwrap());
        assert!(!signal.is_stopped());
        // Nobody waits: the wake is kept, and consumed by one wait only.
        signal.wake();
        let t0 = Instant::now();
        assert!(!signal.wait_for(Duration::from_secs(60)));
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(!signal.wait_for(Duration::from_millis(5)));
    }

    #[test]
    fn a_deadline_in_the_past_returns_at_once() {
        let signal = StopSignal::new();
        let past = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        assert!(!signal.wait_until(past));
        assert!(!signal.wait_for(Duration::ZERO));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // A timeout no `Instant` can hold still ends on a stop.
        signal.stop();
        assert!(signal.wait_for(Duration::MAX));
    }
}
