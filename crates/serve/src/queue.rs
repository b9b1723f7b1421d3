//! The workspace's one scheduling protocol. [`WorkQueue`] is a closeable
//! FIFO whose consumers park until the next item or the close. [`Helpers`]
//! keeps threads alive for as long as their owner, each parked on a
//! `WorkQueue` of help tokens; [`Helpers::serve`] is the drain loop behind
//! `MalivaServer::serve_batch` and `serve_queued`: the caller admits indices
//! into a queue of its own, wakes helpers onto it, serves on its own thread
//! too, and returns once every admitted index is answered.
//! Both sit on the [`crate::sync`] facade and are model-checked as the
//! production types (`tests/model_queue.rs`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::sync::thread::{self, JoinHandle};
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

/// What serving one index gave: its value, or the payload of its panic.
pub type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// Work a helper thread can join. A helper woken with a token calls `help`
/// once and then parks again, so `help` returns when the job has nothing
/// left to hand out.
pub trait Help: Send + Sync {
    /// Serves the job until it has nothing left to hand out.
    fn help(&self);
}

/// Threads that serve calls alongside their callers and live as long as the
/// `Helpers` does. Each parks on one shared [`WorkQueue`] of help tokens;
/// threads start on the first call that wants them, at most `most` of them
/// and never more than a call has requests for. Dropping it closes the token
/// queue and joins every helper.
pub struct Helpers {
    most: usize,
    tokens: Arc<WorkQueue<Arc<dyn Help>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Helpers {
    /// A pool that lends each call at most `most` helper threads; none start
    /// until a call wants them.
    pub fn new(most: usize) -> Self {
        Self {
            most,
            tokens: Arc::new(WorkQueue::new()),
            threads: Mutex::with_name(Vec::new(), "helpers.threads"),
        }
    }

    /// Helper threads started so far.
    pub fn started(&self) -> usize {
        self.threads.lock().len()
    }

    /// Wakes `wanted` helpers (at most `most`) onto `job`, first starting
    /// threads until that many exist. A thread that fails to start is not an
    /// error: the caller serves whatever no helper takes, so this wakes fewer.
    pub fn wake(&self, job: &Arc<dyn Help>, wanted: usize) {
        let wanted = wanted.min(self.most);
        let mut threads = self.threads.lock();
        while threads.len() < wanted {
            let tokens = Arc::clone(&self.tokens);
            let started = thread::Builder::new()
                .name("maliva-serve-helper".into())
                .spawn(move || {
                    while let Some(job) = tokens.pop() {
                        job.help();
                    }
                });
            match started {
                Ok(handle) => threads.push(handle),
                Err(_) => break,
            }
        }
        let woken = wanted.min(threads.len());
        drop(threads);
        for _ in 0..woken {
            self.tokens.push(Arc::clone(job));
        }
    }

    /// Serves indices `0..n` through admission control and returns, in index
    /// order, `None` for an index shed at admission, else what `serve`
    /// returned or the panic it raised.
    ///
    /// The caller admits each index into a [`WorkQueue`] of `capacity`
    /// (`on_shed` runs under its lock for each shed) and closes it, then wakes
    /// one helper per admitted index beyond the first and pops the queue on
    /// its own thread until it is drained. It returns once every admitted
    /// index has left `serve`, without waiting for the helpers: one that
    /// wakes late finds the queue closed and drained, and parks again.
    pub fn serve<T, F>(
        &self,
        n: usize,
        capacity: usize,
        on_shed: impl Fn(),
        serve: F,
    ) -> Vec<Option<Outcome<T>>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let queue = WorkQueue::new();
        let admitted = (0..n)
            .filter(|&i| queue.try_push(i, capacity, &on_shed))
            .count();
        queue.close();
        let batch = Arc::new(Batch {
            queue,
            serve,
            admitted,
            answers: Mutex::with_name(
                Answers {
                    slots: (0..n).map(|_| None).collect(),
                    answered: 0,
                },
                "batch.answers",
            ),
            all_answered: Condvar::with_name("batch.all-answered"),
        });
        let job: Arc<dyn Help> = batch.clone();
        self.wake(&job, admitted.saturating_sub(1));
        batch.help();
        let mut answers = batch.answers.lock();
        while answers.answered < batch.admitted {
            answers = batch.all_answered.wait(answers);
        }
        std::mem::take(&mut answers.slots)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        self.tokens.close();
        for handle in self.threads.get_mut().drain(..) {
            // Every answer a helper computes is caught in `Batch::help`; a
            // helper that died anyway has nothing left to report.
            let _ = handle.join();
        }
    }
}

/// The outcomes of one call's admitted indices, and how many have landed.
struct Answers<T> {
    slots: Vec<Option<Outcome<T>>>,
    answered: usize,
}

/// One call of [`Helpers::serve`]: its closed queue of admitted indices,
/// shared by the caller and every helper it woke.
struct Batch<T, F> {
    queue: WorkQueue<usize>,
    serve: F,
    admitted: usize,
    /// The count moves with the slots under one lock, so the caller cannot
    /// see every answer counted before it is stored, nor miss the wakeup.
    answers: Mutex<Answers<T>>,
    all_answered: Condvar,
}

impl<T, F> Help for Batch<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn help(&self) {
        while let Some(i) = self.queue.pop() {
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.serve)(i)));
            let mut answers = self.answers.lock();
            answers.slots[i] = Some(outcome);
            answers.answered += 1;
            if answers.answered == self.admitted {
                self.all_answered.notify_one();
            }
        }
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
