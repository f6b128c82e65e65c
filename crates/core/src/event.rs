//! Named wake-up events for the component loops.
//!
//! Every blocking wait in the AppManager ends on an event somebody fires,
//! not on a poll timeout running out. An [`Event`] is a generation counter
//! under a mutex plus a condvar: a waiter reads the generation *before*
//! checking its condition, and [`Event::wait_past`] returns as soon as the
//! generation has moved on — so a notification that lands between the check
//! and the wait is never lost.

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on any single blocking wait in a component loop. Every wait
/// ends on its event — a message, a queue delete, an RTS wake-up, a
/// `progress` or `halt` notification — long before this, so it never
/// expires on the normal path; it only bounds the cost of a lost wake-up.
pub(crate) const SAFETY_WAIT: Duration = Duration::from_secs(5);

/// A generation-counted wake-up event.
#[derive(Default)]
pub(crate) struct Event {
    generation: Mutex<u64>,
    cond: Condvar,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event(generation {})", self.generation())
    }
}

impl Event {
    /// Fire the event: bump the generation and wake every waiter.
    pub(crate) fn notify(&self) {
        *self.generation.lock() += 1;
        self.cond.notify_all();
    }

    /// The current generation; read it before checking the condition the
    /// event guards.
    pub(crate) fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// Block until the generation moves past `seen` or `deadline` passes;
    /// returns the generation at wake-up.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Instant) -> u64 {
        let mut generation = self.generation.lock();
        while *generation == seen {
            if self.cond.wait_until(&mut generation, deadline).timed_out() {
                break;
            }
        }
        *generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_before_wait_is_not_lost() {
        let e = Event::default();
        let seen = e.generation();
        e.notify();
        let t0 = Instant::now();
        assert_eq!(e.wait_past(seen, t0 + Duration::from_secs(10)), seen + 1);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_ends_on_notify_from_another_thread() {
        let e = Arc::new(Event::default());
        let seen = e.generation();
        let e2 = Arc::clone(&e);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            e2.notify();
        });
        let t0 = Instant::now();
        e.wait_past(seen, t0 + Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
    }

    #[test]
    fn wait_ends_at_deadline_without_notify() {
        let e = Event::default();
        let seen = e.generation();
        assert_eq!(
            e.wait_past(seen, Instant::now() + Duration::from_millis(5)),
            seen
        );
    }
}
