//! The serving layer's fan-out width.
//!
//! A [`WorkerPool`] owns no threads. [`WorkerPool::run`] starts its jobs
//! on the workspace's one `rayon` pool (`rayon::fan_out`) at the width
//! given to [`WorkerPool::new`]: the caller runs the first job, and up to
//! `threads - 1` of the pool's parked `rayon-helper` threads, woken at
//! once, run the others. Results are returned **in job order** whoever ran
//! them, so every caller is deterministic by construction.

/// How wide a serving fan-out runs on the `rayon` pool.
pub struct WorkerPool {
    threads: usize,
    width: rayon::ThreadPool,
}

impl WorkerPool {
    /// A fan-out `threads` wide, clamped to at least 1 (rayon reads a
    /// width of 0 as the default width).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let width = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the rayon shim's builder never fails");
        Self { threads, width }
    }

    /// Threads a fan-out runs on, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job at once and returns their results **in job order** —
    /// scheduling order never leaks into the output: scatter-gather is
    /// deterministic.
    ///
    /// Re-entrant: a call made inside a job (a nested `ShardedIndex`, or a
    /// shard's LSM search fanning out over its segments) runs inline on
    /// that job's thread, so nesting neither deadlocks nor adds threads.
    ///
    /// # Panics
    /// Re-raises a job's panic once every started job has finished; the
    /// next run is served as usual.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.width.install(|| rayon::fan_out(jobs))
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
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| || counter.fetch_add(1, Ordering::SeqCst))
            .collect();
        let _ = pool.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
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
        // threads and 4 outer jobs each blocking on 3 inner jobs, the
        // enqueue-and-wait strategy would starve; inline execution runs
        // the inner jobs on the occupied thread instead.
        let pool = WorkerPool::new(2);
        let jobs: Vec<_> = (0..4u64)
            .map(|i| {
                let pool = &pool;
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
    fn inline_job_panic_propagates_and_the_pool_serves_the_next_run() {
        let pool = WorkerPool::new(2);
        // The first job is the one the caller claims.
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
            vec![Box::new(|| panic!("boom")), Box::new(|| 2), Box::new(|| 3)];
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
