//! The persistent shard worker pool: one [`WorkQueue`] of `'static` jobs and
//! N threads spawned once when the backend is built, each running
//! `while let Some(job) = queue.pop()`.
//!
//! Jobs close over the owning shard's `Arc`, so any worker may run any job
//! and the pool needs no per-shard queue: a burst of jobs for one hot shard
//! drains across every idle worker in dispatch order. The queue protocol is
//! [`crate::sched`]'s; the pool adds panic isolation and join-on-drop, and
//! `tests/model_queue.rs` model-checks both.

use std::sync::Arc;

use crate::sched::WorkQueue;
use crate::sync::thread;

/// A job dispatched to the pool on behalf of a shard.
pub type ShardJob = Box<dyn FnOnce() + Send + 'static>;

/// The persistent shard worker pool (see the module docs).
///
/// Public so the model-check suite can explore its dispatch/shutdown
/// interleavings directly; not part of the stable API.
pub struct ShardWorkerPool {
    queue: Arc<WorkQueue<ShardJob>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ShardWorkerPool {
    /// Spawns `workers` persistent worker threads over one shared queue.
    pub fn start(workers: usize) -> Self {
        let queue = Arc::new(WorkQueue::new());
        let handles = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        // A panicking job must not take the worker down: it
                        // serves future requests. The job's result sender drops
                        // during unwinding, so the in-flight request surfaces
                        // an internal error instead.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
            })
            .collect();
        Self { queue, handles }
    }

    /// Enqueues `job`; the first idle worker runs it.
    pub fn dispatch(&self, job: ShardJob) {
        self.queue.push(job);
    }

    /// Worker threads (fixed at start).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// `(jobs dispatched since start, jobs not yet picked up)` — one
    /// [`WorkQueue::snapshot`], so the pair is mutually consistent.
    pub fn snapshot(&self) -> (u64, usize) {
        self.queue.snapshot()
    }
}

impl Drop for ShardWorkerPool {
    /// Closes the queue — workers finish every job already dispatched, then
    /// see `None` — and joins them.
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A panicking job must not kill its worker: the thread serves every
    /// future request, so it swallows the panic and keeps draining the queue.
    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = ShardWorkerPool::start(1);
        pool.dispatch(Box::new(|| panic!("job blew up")));
        let (tx, rx) = mpsc::channel();
        pool.dispatch(Box::new(move || {
            tx.send(42u32).unwrap();
        }));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(42),
            "the worker must keep serving jobs after one panics"
        );
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.snapshot().0, 2);
    }

    /// With one worker held inside a job, a job queued afterwards runs on the
    /// other worker instead of waiting behind the blocked one. The first job
    /// blocks until released, so the interleaving is forced, not timed.
    #[test]
    fn a_job_queued_while_one_worker_is_blocked_runs_on_another() {
        let pool = ShardWorkerPool::start(2);
        let (started_tx, started_rx) = mpsc::channel::<std::thread::ThreadId>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let started = started_tx.clone();
        pool.dispatch(Box::new(move || {
            started.send(std::thread::current().id()).unwrap();
            let _ = release_rx.recv_timeout(Duration::from_secs(5));
        }));
        let blocked_on = started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the first job must start");
        pool.dispatch(Box::new(move || {
            started_tx.send(std::thread::current().id()).unwrap();
        }));
        let ran_on = started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the second job must run while the first still holds its worker");
        assert_ne!(ran_on, blocked_on, "the idle worker must have taken it");
        assert_eq!(pool.snapshot(), (2, 0), "both dispatched, none waiting");
        let _ = release_tx.send(());
    }
}
