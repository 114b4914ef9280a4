//! A hand-rolled fixed-size worker pool on `std::thread` + channels.
//!
//! The workspace's `rayon` pool is persistent too (its helpers park between
//! calls); the serving layer keeps its own threads until its fan-out moves
//! onto that pool and this file goes (ROADMAP N7's second half). N OS
//! threads pull boxed jobs from one shared channel, and the thread calling
//! [`WorkerPool::run`] runs the last job itself instead of parking. Results
//! are returned **in job order** regardless of who finishes first, so every
//! caller is deterministic by construction.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool-id generator (0 is reserved for "not a worker thread").
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// The id of the pool this thread serves, if it is a worker thread.
    static SERVING_POOL: Cell<usize> = const { Cell::new(0) };
}

/// A fixed pool of worker threads executing boxed jobs.
///
/// Jobs are distributed through one multi-consumer queue; [`Self::run`]
/// scatters a job list and gathers results back into submission order.
/// Dropping the pool closes the queue and joins every worker.
pub struct WorkerPool {
    id: usize,
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("serving-worker-{i}"))
                    .spawn(move || {
                        SERVING_POOL.with(|p| p.set(id));
                        worker_loop(&receiver);
                    })
                    .expect("failed to spawn serving worker thread")
            })
            .collect();
        Self {
            id,
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one fire-and-forget job ([`Self::run`] is the surface).
    ///
    /// # Panics
    /// Panics if every worker has died (only possible after a job panic).
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("worker pool has shut down");
    }

    /// Runs every job (the last on the calling thread, which would otherwise
    /// only wait) and returns their results **in job order** — scheduling
    /// order never leaks into the output: scatter-gather is deterministic.
    ///
    /// Re-entrant: when called *from one of this pool's own workers* (a
    /// nested `ShardedIndex` sharing the pool, or a job that fans out
    /// again), the jobs run inline on the current thread instead of being
    /// enqueued — enqueue-and-block from a worker would deadlock once
    /// every worker waits on sub-jobs that no free worker can run.
    ///
    /// # Panics
    /// Panics if a job panics (the panic is surfaced here, not swallowed).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if SERVING_POOL.with(|p| p.get()) == self.id {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        let mut jobs = jobs.into_iter().enumerate();
        let inline = jobs.next_back();
        for (i, job) in jobs {
            let tx = tx.clone();
            self.execute(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                // The receiver may be gone if an earlier job panicked and
                // the caller already unwound; nothing useful to do then.
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        if let Some((i, job)) = inline {
            slots[i] = Some(job()); // a panic here unwinds the caller directly
        }
        for _ in 1..n {
            let (i, result) = rx.recv().expect("a worker died without reporting");
            match result {
                Ok(v) => slots[i] = Some(v),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reported exactly once"))
            .collect()
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the queue lock only while dequeuing, never while running.
        let job = match receiver.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // queue closed: pool is shutting down
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the queue
        for worker in self.workers.drain(..) {
            let _ = worker.join(); // a panicked worker already unwound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_in_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let results = pool.run(jobs);
        assert_eq!(results, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkerPool::new(0); // clamped to 1
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(vec![|| 7]), vec![7]);
    }

    #[test]
    fn execute_actually_parallelizes_state() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || c.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let _ = pool.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop waits for the queue to drain
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let pool = WorkerPool::new(2);
        let results: Vec<u8> = pool.run(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn nested_run_on_same_pool_executes_inline() {
        // A job that fans out on its own pool must not deadlock: with 2
        // workers and 4 outer jobs each blocking on 3 inner jobs, the
        // enqueue-and-wait strategy would starve; inline execution runs
        // the inner jobs on the occupied worker instead.
        let pool = Arc::new(WorkerPool::new(2));
        let jobs: Vec<_> = (0..4u64)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner: Vec<u64> = pool.run((0..3u64).map(|j| move || i * 10 + j).collect());
                    inner.iter().sum::<u64>()
                }
            })
            .collect();
        let results = pool.run(jobs);
        assert_eq!(results, vec![3, 33, 63, 93]);
    }

    #[test]
    fn the_caller_runs_the_last_job_and_order_holds_over_fewer_workers() {
        let pool = WorkerPool::new(2);
        let here = std::thread::current().id();
        // A single job never leaves the calling thread.
        assert_eq!(pool.run(vec![|| std::thread::current().id()]), vec![here]);
        // Seven jobs over two workers: job order, and only the last inline.
        let jobs: Vec<_> = (0..7)
            .map(|i| move || (i, std::thread::current().id()))
            .collect();
        let results = pool.run(jobs);
        assert_eq!(
            results.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        for (i, ran_on) in results {
            assert_eq!(ran_on == here, i == 6, "job {i}");
        }
    }

    #[test]
    fn inline_job_panic_propagates_and_the_pool_serves_the_next_run() {
        let pool = WorkerPool::new(2);
        // The last job is the one the caller runs itself.
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
            vec![Box::new(|| 1), Box::new(|| 2), Box::new(|| panic!("boom"))];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        assert!(caught.is_err());
        assert_eq!(pool.run(vec![|| 5, || 6]), vec![5, 6]);
    }

    #[test]
    fn job_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        assert!(caught.is_err());
    }
}
