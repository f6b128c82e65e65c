//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap cloneable flag shared between an
//! [`crate::AppManager`] run and whoever may want to stop it — the user's
//! thread, or the service's `cancel` request. Cancellation is cooperative:
//! components observe the token at their loop boundaries, stop scheduling
//! and submitting new work, and the AppManager settles every in-flight task
//! to `Canceled` so the run completes promptly instead of blocking until its
//! timeout. Cancelling also fires the wake-up event of every run watching
//! the token, so a run blocked waiting for progress reacts at once.

use crate::event::Event;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    /// Events of the runs watching this token, fired on `cancel`.
    watchers: Mutex<Vec<Weak<Event>>>,
}

impl CancelToken {
    /// A fresh, uncanceled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
        for watcher in self.inner.watchers.lock().iter() {
            if let Some(event) = watcher.upgrade() {
                event.notify();
            }
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// Fire `event` whenever this token is canceled (from now on). Watchers
    /// of finished runs are pruned here.
    pub(crate) fn watch(&self, event: &Arc<Event>) {
        let mut watchers = self.inner.watchers.lock();
        watchers.retain(|w| w.strong_count() > 0);
        watchers.push(Arc::downgrade(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_canceled());
        t2.cancel();
        assert!(t.is_canceled());
        t.cancel(); // idempotent
        assert!(t2.is_canceled());
    }

    #[test]
    fn cancel_fires_watching_events() {
        let t = CancelToken::new();
        let event = Arc::new(Event::default());
        t.watch(&event);
        let seen = event.generation();
        t.clone().cancel();
        assert!(event.generation() > seen);
    }
}
