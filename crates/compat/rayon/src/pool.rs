//! The persistent helpers every parallel call shares.
//!
//! A caller posts its call (a piece count and a function that runs piece
//! `i`) and claims pieces itself, as worker 0. Helpers are spawned the
//! first time a call wants them, never more than the widest call has
//! wanted, and park on a condvar between calls. A woken helper takes one of
//! the call's seats and claims pieces until none is left. The caller leaves
//! only once no piece is unclaimed and every claimed one has finished.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A caught panic, re-raised on the caller.
type Panic = Box<dyn Any + Send>;

/// A posted call as the pool sees it.
struct Posted {
    key: u64,
    /// Runs piece `i`. The borrow's real lifetime is the caller's frame; see
    /// [`Pool::call`].
    run: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed piece; `total` once none is left or a piece panicked.
    next: usize,
    total: usize,
    /// Helpers that may still join.
    seats: usize,
    /// Pieces helpers have claimed and not finished.
    running: usize,
    /// The first panic of any piece.
    panic: Option<Panic>,
}

impl Posted {
    /// Claims the next piece, if one is left.
    fn claim(&mut self) -> Option<usize> {
        (self.next < self.total).then(|| {
            self.next += 1;
            self.next - 1
        })
    }

    /// Records a piece's panic and stops further claims.
    fn fail(&mut self, panic: Panic) {
        self.panic.get_or_insert(panic);
        self.next = self.total;
    }
}

#[derive(Default)]
struct Shared {
    calls: Vec<Posted>,
    /// Helper threads spawned so far.
    helpers: usize,
    next_key: u64,
}

impl Shared {
    fn call(&mut self, key: u64) -> &mut Posted {
        (self.calls.iter_mut())
            .find(|call| call.key == key)
            .expect("a call stays posted until its caller closes it")
    }
}

#[derive(Default)]
pub(crate) struct Pool {
    shared: Mutex<Shared>,
    /// Parked helpers wait here for a call with a free seat.
    work: Condvar,
    /// Callers wait here for their helpers' pieces.
    done: Condvar,
}

/// The process's one pool.
pub(crate) fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::default)
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        // No user code runs under the lock, so it is never poisoned.
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `run(i)` for every `i < total` on the caller and at most `seats`
    /// helpers, and returns once all have finished; a panic in any piece is
    /// re-raised here after that. The caller wakes the helpers once the
    /// unclaimed work, at its own pace so far, reaches `worth` (with a zero
    /// `worth`, as it claims its first piece).
    pub(crate) fn call(
        &'static self,
        total: usize,
        seats: usize,
        worth: Duration,
        run: &(dyn Fn(usize) + Sync),
    ) {
        // SAFETY: only the lifetime changes. `run` borrows the caller's
        // frame, and the `'static` copy lives in the `Posted` entry, which a
        // helper reads only under the lock while claiming a piece, counting
        // it in `running`. `Close` runs when this function returns or
        // unwinds: under the same lock it stops all claims and waits until
        // `running` is zero, and only then removes the entry and lets the
        // caller go. So no helper can call `run` after the frame is gone.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let key = {
            let mut shared = self.lock();
            let key = shared.next_key;
            shared.next_key += 1;
            shared.calls.push(Posted {
                key,
                run,
                next: 0,
                total,
                seats,
                running: 0,
                panic: None,
            });
            key
        };
        let close = Close { pool: self, key };
        let start = Instant::now();
        let (mut woken, mut finished) = (false, 0u32);
        loop {
            let (piece, left) = {
                let mut shared = self.lock();
                let call = shared.call(key);
                match call.claim() {
                    Some(piece) => (piece, call.total - call.next),
                    None => break,
                }
            };
            if !woken && left > 0 && start.elapsed() * left as u32 >= worth * finished.max(1) {
                self.wake(seats);
                woken = true;
            }
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run(piece))) {
                self.lock().call(key).fail(panic);
            }
            finished += 1;
        }
        if let Some(panic) = close.wait() {
            resume_unwind(panic);
        }
    }

    /// Wakes up to `seats` parked helpers, spawning the ones the pool lacks.
    fn wake(&'static self, seats: usize) {
        let missing = {
            let mut shared = self.lock();
            let missing = seats.saturating_sub(shared.helpers);
            shared.helpers += missing;
            missing
        };
        // Helpers are never joined: they live as long as the process, and
        // every panic of a piece they run is caught and goes to its caller.
        let mut failed = 0;
        for _ in 0..missing {
            let spawned = thread::Builder::new()
                .name("rayon-helper".into())
                .spawn(move || self.help());
            failed += usize::from(spawned.is_err());
        }
        if failed > 0 {
            // Fewer helpers than seats: the calls still finish, on fewer.
            self.lock().helpers -= failed;
        }
        for _ in 0..seats {
            self.work.notify_one();
        }
    }

    /// A helper's life: join a call with a free seat, claim its pieces
    /// until none is left, park while no call has a seat.
    fn help(&self) {
        let mut shared = self.lock();
        loop {
            let Some(call) = (shared.calls.iter_mut()).find(|c| c.seats > 0 && c.next < c.total)
            else {
                shared = self
                    .work
                    .wait(shared)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            call.seats -= 1;
            let key = call.key;
            loop {
                let call = shared.call(key);
                let Some(piece) = call.claim() else { break };
                call.running += 1;
                let run = call.run;
                drop(shared);
                let outcome = catch_unwind(AssertUnwindSafe(|| run(piece)));
                shared = self.lock();
                let call = shared.call(key);
                if let Err(panic) = outcome {
                    call.fail(panic);
                }
                call.running -= 1;
                if call.running == 0 && call.next == call.total {
                    self.done.notify_all();
                }
            }
        }
    }
}

/// Closes a posted call when its caller leaves [`Pool::call`], by return or
/// by unwinding.
struct Close {
    pool: &'static Pool,
    key: u64,
}

impl Close {
    /// Stops all claims, waits for the helpers' pieces, removes the call and
    /// returns its first panic.
    fn wait(self) -> Option<Panic> {
        let mut shared = self.pool.lock();
        loop {
            let call = shared.call(self.key);
            call.next = call.total;
            if call.running == 0 {
                break;
            }
            shared = (self.pool.done.wait(shared)).unwrap_or_else(PoisonError::into_inner);
        }
        let at = (shared.calls.iter()).position(|call| call.key == self.key);
        let call = shared.calls.swap_remove(at.expect("posted above"));
        std::mem::forget(self);
        call.panic
    }
}

impl Drop for Close {
    fn drop(&mut self) {
        // Only reached when the caller unwinds past `wait`.
        let _ = Close {
            pool: self.pool,
            key: self.key,
        }
        .wait();
    }
}
