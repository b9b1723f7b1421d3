//! The workspace's one scheduling protocol: [`WorkQueue`], a closeable FIFO
//! whose consumers park until the next item or the close. `MalivaServer`'s
//! drain loop admits request indices into one and scoped workers pop them.
//! It sits on the [`crate::sync`] facade and is model-checked as the
//! production type (`tests/model_queue.rs`).

use std::collections::VecDeque;

use crate::sync::{Condvar, Mutex};

struct QueueState<T> {
    items: VecDeque<T>,
    /// Items ever admitted (never decremented).
    pushed: u64,
    closed: bool,
}

/// A closeable multi-producer multi-consumer FIFO: items, the admitted count
/// and the closed flag live under **one** mutex, so every observation of them
/// is mutually consistent.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkQueue<T> {
    /// An open, empty queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::with_name(
                QueueState {
                    items: VecDeque::new(),
                    pushed: 0,
                    closed: false,
                },
                "work-queue.state",
            ),
            ready: Condvar::with_name("work-queue.ready"),
        }
    }

    /// Enqueues `item` unconditionally and wakes one blocked [`Self::pop`].
    pub fn push(&self, item: T) {
        let _admitted = self.try_push(item, usize::MAX, || {});
    }

    /// Enqueues `item` unless `capacity` items are already waiting. On a full
    /// queue `item` is dropped, `false` is returned and `on_shed` runs **under
    /// the queue lock**, so what it records moves atomically with the shed
    /// decision: a rejection is never visible before it is counted.
    #[must_use]
    pub fn try_push(&self, item: T, capacity: usize, on_shed: impl FnOnce()) -> bool {
        let mut st = self.state.lock();
        if st.items.len() >= capacity {
            on_shed();
            return false;
        }
        st.items.push_back(item);
        st.pushed += 1;
        drop(st);
        // Any consumer may take any item, so waking one waiter suffices.
        self.ready.notify_one();
        true
    }

    /// Takes the oldest item, blocking while the queue is empty and open.
    /// `None` means closed **and** drained: everything pushed before
    /// [`Self::close`] is handed out first.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st);
        }
    }

    /// Closes the queue and wakes every blocked [`Self::pop`] — both under the
    /// lock: a consumer checks `closed` under it right before parking, so an
    /// unlocked store + notify could land in between and be lost.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.ready.notify_all();
    }

    /// `(items ever admitted, items waiting now)`, read under one lock
    /// acquisition — `waiting <= admitted` holds in every snapshot.
    pub fn snapshot(&self) -> (u64, usize) {
        let st = self.state.lock();
        (st.pushed, st.items.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo_sheds_at_capacity_and_drains_before_none() {
        let q = WorkQueue::new();
        let mut shed = 0;
        q.push('a');
        assert!(q.try_push('b', 2, || shed += 1));
        assert!(!q.try_push('c', 2, || shed += 1), "full at 2 waiting");
        assert_eq!((shed, q.snapshot()), (1, (2, 2)), "a shed is not admitted");
        q.close();
        // Closing does not discard what was already admitted.
        assert_eq!([q.pop(), q.pop(), q.pop()], [Some('a'), Some('b'), None]);
        assert_eq!(q.snapshot(), (2, 0), "admissions, not depth");
    }
}
