//! The two scheduling protocols every concurrent loop in the workspace calls.
//!
//! * [`WorkQueue`] — a closeable FIFO for work that arrives over time while
//!   its consumers wait: `MalivaServer::serve_queued`'s admission queue.
//! * The **claim-cursor crew** ([`run_morsels`]) — a fixed range `0..total`
//!   handed out by a `fetch_add` cursor to scoped workers that borrow the
//!   caller's data. Its one caller is `MalivaServer::serve_batch`, which hands
//!   a batch's requests to the serve workers.
//!
//! They stay two because the work differs. A crew's range is known up front,
//! so a lock-free cursor hands it out; a queue's items arrive one by one, so a
//! consumer must park until the next item or the close. A request itself uses
//! neither: its chunk kernels, and a sharded request's shards one after
//! another, run on the thread serving it.
//!
//! Both sit on the [`crate::sync`] facade and are model-checked as the
//! production types (`tests/model_queue.rs`, `tests/model_crew.rs`; loomlite
//! cannot schedule `std::thread::scope`, so the latter spawns
//! [`drain_worker`] on facade threads).

use std::collections::VecDeque;

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// One unit's outcome: the computed value, or the panic payload caught while
/// computing it.
pub type MorselResult<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;

/// The state one crew run shares between workers: a monotonically increasing
/// claim cursor (each index is handed out exactly once) and a poison flag
/// raised when any unit panics.
pub struct MorselRun {
    cursor: AtomicUsize,
    poisoned: AtomicBool,
}

impl MorselRun {
    /// A fresh run with nothing claimed.
    pub fn new() -> Self {
        Self {
            cursor: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Claims the next unclaimed index below `total`, or `None` when the run
    /// is exhausted or poisoned. The `fetch_add` hands out each index to
    /// exactly one caller.
    pub fn claim(&self, total: usize) -> Option<usize> {
        if self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        (idx < total).then_some(idx)
    }

    /// Stops further claims; units already claimed run to completion.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`MorselRun::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

impl Default for MorselRun {
    fn default() -> Self {
        Self::new()
    }
}

/// One worker's loop: claim indices until the run is exhausted or poisoned,
/// run `f` on each under `catch_unwind`, and return the `(index, outcome)`
/// pairs in claim order. A panicking unit poisons the run (other workers stop
/// claiming *new* indices, in-flight ones complete) and ends this worker's
/// loop with the payload recorded under its index, so [`merge_ordered`] can
/// re-raise the earliest panic deterministically.
pub fn drain_worker<T, F>(run: &MorselRun, total: usize, f: &F) -> Vec<(usize, MorselResult<T>)>
where
    F: Fn(usize) -> T + ?Sized,
{
    let mut out = Vec::new();
    while let Some(idx) = run.claim(total) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx))) {
            Ok(v) => out.push((idx, Ok(v))),
            Err(payload) => {
                run.poison();
                out.push((idx, Err(payload)));
                break;
            }
        }
    }
    out
}

/// Puts the workers' parts back **in index order** and re-raises the earliest
/// panic, if any. Claims are handed out in increasing order, so every index
/// below a claimed one was claimed: sorted, the parts are a gapless prefix up
/// to the earliest panic — the one a sequential left-to-right pass would hit.
pub fn merge_ordered<T>(mut parts: Vec<(usize, MorselResult<T>)>) -> Vec<T> {
    parts.sort_by_key(|&(idx, _)| idx);
    parts
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Runs `worker` on `workers` scoped threads — the calling thread is one of
/// them — and returns every worker's result once **all** have joined.
fn crew<R: Send>(workers: usize, worker: impl Fn() -> R + Sync) -> Vec<MorselResult<R>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(&worker)).collect();
        let mut out = vec![Ok(worker())];
        out.extend(handles.into_iter().map(|h| h.join()));
        out
    })
}

/// Runs `f` over every index in `0..total` on up to `threads` workers (the
/// calling thread is one of them; `threads <= 1` spawns nothing) and returns
/// the results **in index order**. If any unit panicked, the earliest index's
/// payload is re-raised after all workers have joined, with no thread leaked.
pub fn run_morsels<T, F>(total: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(total);
    if workers <= 1 {
        return (0..total).map(f).collect();
    }
    let run = MorselRun::new();
    let mut parts = Vec::with_capacity(total);
    for joined in crew(workers, || drain_worker(&run, total, &f)) {
        match joined {
            Ok(part) => parts.extend(part),
            // A worker can only die outside `catch_unwind` on claim/poison
            // bookkeeping, which does not panic; keep the payload anyway so
            // it surfaces rather than being dropped.
            Err(payload) => parts.push((usize::MAX, Err(payload))),
        }
    }
    merge_ordered(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_morsels_returns_in_order_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let got = run_morsels(37, threads, |m| m * 3);
            let want: Vec<usize> = (0..37).map(|m| m * 3).collect();
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(run_morsels(0, 4, |m| m).is_empty());
    }

    #[test]
    fn panicking_morsel_resumes_earliest_payload_after_join() {
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_morsels(16, threads, |m| {
                    if m >= 5 {
                        std::panic::panic_any(m);
                    }
                    m
                })
            });
            let payload = caught.expect_err("must panic");
            let &idx = payload.downcast_ref::<usize>().expect("usize payload");
            // Workers may claim later morsels concurrently, but the merge must
            // re-raise the earliest panicking index every time.
            assert_eq!(idx, 5, "{threads} threads");
        }
    }

    #[test]
    fn poisoned_run_stops_claims() {
        let run = MorselRun::new();
        assert_eq!(run.claim(10), Some(0));
        run.poison();
        assert!(run.is_poisoned());
        assert_eq!(run.claim(10), None);
    }

    #[test]
    fn drain_worker_records_claim_order_and_panic() {
        let run = MorselRun::new();
        let f = |m: usize| {
            if m == 2 {
                std::panic::panic_any("boom");
            }
            m * 10
        };
        let parts = drain_worker(&run, 5, &f);
        assert_eq!(parts.len(), 3); // 0, 1, then the panic at 2 stops the loop
        assert!(matches!(parts[0], (0, Ok(0))));
        assert!(matches!(parts[1], (1, Ok(10))));
        assert!(parts[2].1.is_err() && parts[2].0 == 2);
        assert!(run.is_poisoned());
        assert_eq!(run.claim(5), None);
    }

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
