//! Offline stand-in for `rayon`: the `par_iter` / `into_par_iter` /
//! `par_iter_mut` surface the workspace uses, `join`, and [`fan_out`] (a
//! list of jobs started at once), on one persistent pool. A parallel call
//! runs on its caller, as worker 0, plus helper threads (`rayon-helper`)
//! that are spawned the first time a call wants them and park on a condvar
//! between calls; the caller never waits for a helper to start, only for
//! the pieces helpers have claimed. A call is
//! `std::thread::available_parallelism()` wide; only rayon's own
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)` sets
//! another width (tests do, and `serving::WorkerPool` does for its
//! fan-out) — no variable or option does. The pool holds `width - 1`
//! helpers for the widest call so far, and a call never uses more than its
//! own width.
//!
//! Output never depends on the thread count: a source (an integer range or
//! a slice) is cut into pieces by its length alone, workers claim pieces
//! dynamically, and the caller reassembles the results in index order —
//! `collect` keeps the sequential order, and `reduce` / `sum` fold on the
//! caller in index order, the sequential fold bit for bit. A call made
//! inside a job runs inline, so nesting neither deadlocks nor adds threads;
//! only a call that runs on one thread anyway leaves its jobs free to spread.

use std::cell::Cell;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};
use std::thread;
use std::time::Duration;

mod pool;

/// Pieces a source is cut into: enough for dynamic balance across the core
/// counts this runs on, few enough that the claim lock stays cold.
const PIECES: usize = 64;

/// Length of each piece of a `len`-item source.
fn piece_len(len: usize) -> usize {
    len.div_ceil(PIECES).max(1)
}

/// A thread's pool state: the width installed by [`ThreadPool::install`]
/// (on a helper, its caller's), and whether it is running a job.
type State = (Option<usize>, bool);

thread_local! {
    static STATE: Cell<State> = const { Cell::new((None, false)) };
}

/// Runs `f` with this thread's state set to `state`; the old state is back
/// afterwards, also when `f` panics.
fn with_state<R>(state: State, f: impl FnOnce() -> R) -> R {
    struct Restore(State);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(STATE.with(|s| s.replace(state)));
    f()
}

fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Threads a parallel call made on this thread runs on: the installed
/// pool's width, else `available_parallelism`.
pub fn current_num_threads() -> usize {
    STATE.with(Cell::get).0.unwrap_or_else(default_width)
}

/// The state a job of this thread's pool runs in, and how many threads a
/// call with `jobs` independent jobs uses: one inside a job. The lone job of
/// a call that uses one thread runs as its caller would, so a call inside
/// it may still spread.
fn job_state(jobs: usize) -> (State, usize) {
    let width = current_num_threads();
    let in_job = STATE.with(Cell::get).1;
    let threads = if in_job { 1 } else { width.min(jobs).max(1) };
    ((Some(width), in_job || threads > 1), threads)
}

/// Work left, at the caller's pace so far, below which a call finishes on
/// its caller alone: a parked helper has to be woken and reach a free core
/// before it does any of it. On a 2-vCPU AVX-512 VM a helper parked for
/// 2 ms claimed its first piece a median 34 µs after the wake (p10 21 µs),
/// one parked for 200 µs after 14 µs (`examples/wake_latency.rs`).
const HELPER_WORTH: Duration = Duration::from_micros(40);

/// Runs `job` on every piece across the pool, waking helpers once `worth`
/// of work is left, and returns its results in piece order. A panic in any
/// job is re-raised here.
fn run<I: Send, R: Send>(pieces: Vec<I>, worth: Duration, job: impl Fn(I) -> R + Sync) -> Vec<R> {
    let (state, threads) = job_state(pieces.len());
    if threads == 1 {
        return with_state(state, || pieces.into_iter().map(job).collect());
    }
    let total = pieces.len();
    let pieces: Vec<Mutex<Option<I>>> = pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    // No job runs while a slot's lock is held, so none is ever poisoned.
    pool::pool().call(total, threads - 1, worth, &|i| {
        let piece = pieces[i]
            .lock()
            .expect("slot lock is never poisoned")
            .take();
        let result = with_state(state, || job(piece.expect("each piece is claimed once")));
        *results[i].lock().expect("slot lock is never poisoned") = Some(result);
    });
    (results.into_iter())
        .map(|r| (r.into_inner().expect("slot lock is never poisoned")).expect("every piece ran"))
        .collect()
}

pub mod iter {
    //! Parallel iterators: a source cut into pieces, plus the adapters
    //! applied so far.

    use crate::{piece_len, run, HELPER_WORTH};
    use std::iter::Zip;
    use std::ops::Range;
    use std::slice::{Iter, IterMut};

    /// A parallel iterator: the `pieces` a call distributes, and `f`, the
    /// adapter chain each item goes through (`None` drops it).
    pub struct ParIter<I, F> {
        pieces: Vec<I>,
        f: F,
    }

    /// A parallel iterator with no adapters yet.
    pub type Source<I> = ParIter<I, fn(<I as Iterator>::Item) -> Option<<I as Iterator>::Item>>;

    fn source<I: Iterator>(pieces: impl Iterator<Item = I>) -> Source<I> {
        ParIter {
            pieces: pieces.collect(),
            f: Some,
        }
    }

    impl<I: ExactSizeIterator> Source<I> {
        /// rayon's `enumerate`: pairs each item with its index.
        pub fn enumerate(self) -> Source<Zip<Range<usize>, I>> {
            let mut offset = 0;
            source(self.pieces.into_iter().map(|piece| {
                let start = offset;
                offset += piece.len();
                (start..offset).zip(piece)
            }))
        }
    }

    impl<I, F, T> ParIter<I, F>
    where
        I: Iterator + Send,
        F: Fn(I::Item) -> Option<T> + Sync,
    {
        /// rayon's `map`.
        pub fn map<B, G>(self, g: G) -> ParIter<I, impl Fn(I::Item) -> Option<B> + Sync>
        where
            G: Fn(T) -> B + Sync,
        {
            let f = self.f;
            ParIter {
                pieces: self.pieces,
                f: move |x| f(x).map(&g),
            }
        }

        /// rayon's `filter`.
        pub fn filter<P>(self, p: P) -> ParIter<I, impl Fn(I::Item) -> Option<T> + Sync>
        where
            P: Fn(&T) -> bool + Sync,
        {
            let f = self.f;
            ParIter {
                pieces: self.pieces,
                f: move |x| f(x).filter(&p),
            }
        }

        /// Runs `g` on every item.
        pub fn for_each<G: Fn(T) + Sync>(self, g: G) {
            let f = &self.f;
            run(self.pieces, HELPER_WORTH, |piece| {
                piece.filter_map(f).for_each(&g)
            });
        }

        /// Collects the items in index order.
        pub fn collect<C: FromIterator<T>>(self) -> C
        where
            T: Send,
        {
            let f = &self.f;
            let pieces = run(self.pieces, HELPER_WORTH, |piece| {
                let mut out = Vec::with_capacity(piece.size_hint().0);
                out.extend(piece.filter_map(f));
                out
            });
            let mut all = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
            pieces
                .into_iter()
                .for_each(|mut piece| all.append(&mut piece));
            all.into_iter().collect()
        }

        /// rayon's identity-seeded reduce, folded on the caller in index
        /// order: exactly the sequential `fold(identity(), op)`.
        pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
        where
            T: Send,
            ID: Fn() -> T,
            OP: Fn(T, T) -> T,
        {
            self.collect::<Vec<T>>().into_iter().fold(identity(), op)
        }

        /// The sum, added on the caller in index order: exactly the
        /// sequential sum, floats included.
        pub fn sum<S: std::iter::Sum<T>>(self) -> S
        where
            T: Send,
        {
            self.collect::<Vec<T>>().into_iter().sum()
        }
    }

    /// `into_par_iter()` on integer ranges.
    pub trait IntoParallelIterator {
        /// One piece's sequential iterator.
        type Iter: Iterator;
        /// The parallel iterator over `self`.
        fn into_par_iter(self) -> Source<Self::Iter>;
    }

    macro_rules! ranges {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for Range<$t> {
                type Iter = Self;
                fn into_par_iter(self) -> Source<Self> {
                    let (end, piece) = (self.end, piece_len(self.len()));
                    let step = piece as $t;
                    source(self.step_by(piece).map(move |at| at..end.min(at.saturating_add(step))))
                }
            }
        )*};
    }
    ranges!(u32, usize);

    /// `par_iter()` on slices (and, through `Deref`, vectors).
    pub trait IntoParallelRefIterator<T: Sync> {
        /// The parallel iterator over `&self`.
        fn par_iter(&self) -> Source<Iter<'_, T>>;
    }

    impl<T: Sync> IntoParallelRefIterator<T> for [T] {
        fn par_iter(&self) -> Source<Iter<'_, T>> {
            source(self.chunks(piece_len(self.len())).map(<[T]>::iter))
        }
    }

    /// `par_iter_mut()` on slices (and, through `DerefMut`, vectors).
    pub trait IntoParallelRefMutIterator<T: Send> {
        /// The parallel iterator over `&mut self`.
        fn par_iter_mut(&mut self) -> Source<IterMut<'_, T>>;
    }

    impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
        fn par_iter_mut(&mut self) -> Source<IterMut<'_, T>> {
            let piece = piece_len(self.len());
            source(self.chunks_mut(piece).map(<[T]>::iter_mut))
        }
    }
}

pub mod prelude {
    //! Everything call sites import via `use rayon::prelude::*`.
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
}

/// Runs every job at once and returns their results in job order. As the
/// caller claims the first job it wakes a helper for each other job, at
/// most `width - 1`, and whoever is free claims the next. A panic in any
/// job is re-raised here once every claimed job has finished; a call
/// inside a job runs inline.
///
/// Unlike a parallel iterator, it does not wait until [`HELPER_WORTH`] of
/// work is left before waking helpers. That wait is read off the jobs the
/// caller has finished, and a caller cannot time a blocking job, such as a
/// remote shard exchange, before that job ends: a `par_iter` over two
/// shards would run both, one after the other, on the caller.
pub fn fan_out<R: Send, F: FnOnce() -> R + Send>(jobs: Vec<F>) -> Vec<R> {
    run(jobs, Duration::ZERO, |job| job())
}

/// Runs both closures, `oper_b` on a helper when the pool has two and one
/// claims it before the caller is done with `oper_a`, and returns both
/// results.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (mut ra, mut rb) = (None, None);
    let opers: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
        Box::new(|| ra = Some(oper_a())),
        Box::new(|| rb = Some(oper_b())),
    ];
    fan_out(opers);
    (ra.expect("ran"), rb.expect("ran"))
}

/// rayon's pool builder, reduced to its one setting, the width.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default width.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's width; `0` keeps the default (`available_parallelism`).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The pool. Never fails; the `Result` is rayon's signature.
    pub fn build(self) -> Result<ThreadPool, Infallible> {
        let width = match self.num_threads {
            0 => default_width(),
            n => n,
        };
        Ok(ThreadPool { width })
    }
}

/// A pool width to run parallel calls at.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with every parallel call inside it
    /// spread over this pool's width.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let in_job = STATE.with(Cell::get).1;
        with_state((Some(self.width), in_job), op)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Runs `f(n)` inside an installed pool of each width 1–4.
    fn at_widths(f: impl Fn(usize)) {
        for n in 1..=4 {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            pool.install(|| f(n));
        }
    }

    /// Burns a little time, more on early items, so late pieces finish
    /// before early ones.
    fn uneven(i: usize) -> usize {
        (0..(2000 - i.min(2000)) * 20).fold(i, |a, b| a ^ b.rotate_left(3))
    }

    #[test]
    fn into_par_iter_over_range() {
        let total: u32 = (0u32..10).into_par_iter().filter(|&x| x % 2 == 0).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn par_iter_and_mut() {
        let mut v = vec![1, 2, 3];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 6);
        v.par_iter_mut().for_each(|x| *x *= 2);
        assert_eq!(v, vec![2, 4, 6]);
    }

    #[test]
    fn join_returns_both() {
        at_widths(|_| assert_eq!(super::join(|| 1, || "x"), (1, "x")));
    }

    #[test]
    fn map_collect_keeps_index_order() {
        let expect: Vec<(usize, usize)> = (0..5000).map(|i| (i, uneven(i))).collect();
        at_widths(|_| {
            let got: Vec<(usize, usize)> = (0..5000usize)
                .into_par_iter()
                .map(|i| (i, uneven(i)))
                .collect();
            assert_eq!(got, expect);
            let odd: Vec<usize> = (0..5000usize)
                .into_par_iter()
                .filter(|i| i % 2 == 1)
                .collect();
            assert_eq!(odd, (0..5000).filter(|i| i % 2 == 1).collect::<Vec<_>>());
        });
    }

    #[test]
    fn reduce_returns_the_earliest_maximum() {
        // Heavy ties, the shape of k-means' worst-served-point search.
        let dists: Vec<f32> = (0..3000).map(|i| ((i * 7919) % 13) as f32).collect();
        let op = |x: (usize, f32), y: (usize, f32)| if x.1 >= y.1 { x } else { y };
        let expect = (0..dists.len())
            .map(|i| (i, dists[i]))
            .fold((0, f32::NEG_INFINITY), op);
        assert_eq!(expect.1, 12.0);
        assert_eq!(expect.0, dists.iter().position(|&d| d == 12.0).unwrap());
        at_widths(|_| {
            let got = (0..dists.len())
                .into_par_iter()
                .map(|i| (i, dists[i]))
                .reduce(|| (0, f32::NEG_INFINITY), op);
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn par_iter_mut_enumerate_touches_each_element_once() {
        at_widths(|_| {
            let mut v = vec![0usize; 4099];
            v.par_iter_mut().enumerate().for_each(|(i, x)| *x += i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        });
    }

    #[test]
    fn f64_sum_is_bit_identical_at_every_width() {
        let terms: Vec<f64> = (0..10_000)
            .map(|i| 1.0 / f64::from(i * 37 % 1001 + 1))
            .collect();
        let expect: f64 = terms.iter().sum();
        at_widths(|_| {
            let got = terms.par_iter().map(|&t| t).sum::<f64>();
            assert_eq!(got.to_bits(), expect.to_bits());
        });
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        at_widths(|n| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                (0..100usize).into_par_iter().for_each(|i| {
                    uneven(i);
                    if i == 73 {
                        panic!("job {i} at width {n}");
                    }
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(*message, format!("job 73 at width {n}"));
        });
    }

    #[test]
    fn a_panic_on_a_helper_panics_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = thread::current().id();
        let helped = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..100usize).into_par_iter().for_each(|i| {
                    if thread::current().id() != caller {
                        helped.store(true, Ordering::SeqCst);
                        panic!("helper job {i}");
                    }
                    // The caller's first piece leaves more than a helper's
                    // worth of work; past it, it waits until a helper has
                    // claimed a piece.
                    thread::sleep(super::HELPER_WORTH);
                    while i >= super::piece_len(100) && !helped.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                })
            })
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(message.starts_with("helper job "), "{message}");
    }

    #[test]
    fn a_helper_panic_is_raised_after_every_claimed_piece_finished() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caller = thread::current().id();
        let arrivals = AtomicUsize::new(0);
        let (slow_started, slow_finished) = (AtomicBool::new(false), AtomicBool::new(false));
        let panicked = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..100usize).into_par_iter().for_each(|i| {
                    if thread::current().id() == caller {
                        // Past its first piece, the caller waits for the panic.
                        thread::sleep(super::HELPER_WORTH);
                        while i >= super::piece_len(100)
                            && !panicked.load(Ordering::SeqCst)
                            && Instant::now() < deadline
                        {
                            thread::yield_now();
                        }
                    } else if arrivals.fetch_add(1, Ordering::SeqCst) == 0 {
                        slow_started.store(true, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(50));
                        slow_finished.store(true, Ordering::SeqCst);
                    } else {
                        while !slow_started.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                        panicked.store(true, Ordering::SeqCst);
                        panic!("helper job {i}");
                    }
                })
            })
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(message.starts_with("helper job "), "{message}");
        assert!(
            slow_finished.load(Ordering::SeqCst),
            "the caller left while a claimed piece still ran"
        );
        let next: Vec<usize> =
            pool.install(|| (0..1000usize).into_par_iter().map(uneven).collect());
        assert_eq!(next, (0..1000).map(uneven).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_index_order() {
        let expect: Vec<(usize, usize)> = (0..3000).map(|i| (i, uneven(i))).collect();
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
                    for _ in 0..10 {
                        let got: Vec<(usize, usize)> = pool.install(|| {
                            (0..3000usize)
                                .into_par_iter()
                                .map(|i| (i, uneven(i)))
                                .collect()
                        });
                        assert_eq!(got, expect);
                    }
                });
            }
        });
    }

    #[test]
    fn a_call_inside_the_lone_job_of_a_call_still_spreads() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = thread::current().id();
        let helped = AtomicBool::new(false);
        // Inline, the nested call would wait out the deadline on the caller.
        let deadline = Instant::now() + Duration::from_secs(5);
        pool.install(|| {
            (0..1usize).into_par_iter().for_each(|_| {
                (0..100usize).into_par_iter().for_each(|i| {
                    if thread::current().id() != caller {
                        helped.store(true, Ordering::SeqCst);
                        return;
                    }
                    thread::sleep(super::HELPER_WORTH);
                    while i >= super::piece_len(100)
                        && !helped.load(Ordering::SeqCst)
                        && Instant::now() < deadline
                    {
                        thread::yield_now();
                    }
                })
            })
        });
        assert!(
            helped.load(Ordering::SeqCst),
            "no helper joined the nested call"
        );
    }

    #[test]
    fn nested_calls_run_inline_on_the_job_thread() {
        at_widths(|n| {
            let outer: Vec<(ThreadId, Vec<ThreadId>)> = (0..16usize)
                .into_par_iter()
                .map(|i| {
                    uneven(i);
                    let inner = (0..256usize)
                        .into_par_iter()
                        .map(|_| thread::current().id())
                        .collect();
                    (thread::current().id(), inner)
                })
                .collect();
            let mut threads = HashSet::new();
            for (me, inner) in &outer {
                assert!(
                    inner.iter().all(|t| t == me),
                    "a nested job left its thread"
                );
                threads.insert(*me);
            }
            assert!(threads.len() <= n, "{} threads at width {n}", threads.len());
        });
    }

    #[test]
    fn current_num_threads_reports_the_installed_width() {
        at_widths(|n| {
            assert_eq!(current_num_threads(), n);
            let seen: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            assert!(seen.iter().all(|&w| w == n));
        });
    }
}
