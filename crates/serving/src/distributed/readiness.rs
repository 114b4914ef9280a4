//! The one readiness wait under both socket servers: `poll(2)` through
//! `extern "C"` against the libc `std` already links (no crate), and the
//! [`Waker`] that ends it at shutdown. [`wait`] only blocks: the loops
//! re-derive everything from their sockets, so a spurious return is a pass
//! that finds nothing to do.

#[cfg(unix)]
use std::os::{fd::AsRawFd, unix::net::UnixStream};
use std::time::Duration;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

/// A listener whose `accept` failed stays readable: out of the wait this long.
pub(crate) const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// One `struct pollfd`: `fd`, `events`, `revents`.
#[repr(C)]
pub(crate) struct PollFd(i32, i16, i16);

impl PollFd {
    #[cfg(unix)]
    pub(crate) fn new(source: &impl AsRawFd, events: i16) -> Self {
        Self(source.as_raw_fd(), events, 0)
    }

    #[cfg(not(unix))]
    pub(crate) fn new<T>(_source: &T, events: i16) -> Self {
        Self(-1, events, 0)
    }
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the BSDs.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(all(unix, not(target_os = "linux")))]
type Nfds = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

/// Blocks until a descriptor in `fds` is ready for what it asked or `timeout`
/// passes (`None`: never); returns how many were ready (`EINTR` and errors
/// read as `0`: a plain wake). `poll` counts milliseconds, so the timeout is
/// rounded **up**: rounded down, the end of a deadline would be a spin.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    #[cfg(unix)]
    {
        let ms = timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(1 << 30) as i32);
        // SAFETY: pointer and length come from one exclusively borrowed
        // slice of `#[repr(C)]` structs laid out as `struct pollfd`; `poll`
        // writes only their `revents` fields, and only during the call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        usize::try_from(ready).unwrap_or(0)
    }
    #[cfg(not(unix))]
    {
        let (_, tick) = (fds, Duration::from_micros(200));
        std::thread::sleep(timeout.map_or(tick, |t| t.min(tick)));
        0
    }
}

/// One-shot shutdown wake: [`Waker::wake`] writes a byte that is **never
/// drained**, so every thread with [`Waker::pollfd`] in its set returns
/// from its current [`wait`] and from every later one.
pub(crate) struct Waker(#[cfg(unix)] (UnixStream, UnixStream));

impl Waker {
    pub(crate) fn new() -> std::io::Result<Self> {
        #[cfg(unix)]
        let waker = Self(UnixStream::pair()?);
        #[cfg(not(unix))]
        let waker = Self();
        Ok(waker)
    }

    pub(crate) fn wake(&self) {
        #[cfg(unix)]
        let _ = std::io::Write::write(&mut &self.0 .1, &[1]);
    }

    pub(crate) fn pollfd(&self) -> PollFd {
        #[cfg(unix)]
        let source = &self.0 .0;
        #[cfg(not(unix))]
        let source = self;
        PollFd::new(source, POLLIN)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn timeout_is_honoured_and_rounded_up() {
        let waker = Waker::new().unwrap();
        let started = Instant::now();
        let ready = wait(&mut [waker.pollfd()], Some(Duration::from_micros(20_300)));
        assert_eq!(ready, 0, "nothing woke it");
        assert!(started.elapsed() >= Duration::from_micros(20_300));
        // Zero stays zero: a deadline already past must not block.
        assert_eq!(wait(&mut [waker.pollfd()], Some(Duration::ZERO)), 0);
    }

    #[test]
    fn a_ready_socket_ends_the_wait() {
        use std::io::Write;
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        // Writable at once; readable only after the peer writes.
        assert_eq!(wait(&mut [PollFd::new(&b, POLLOUT)], None), 1);
        assert_eq!(
            wait(
                &mut [PollFd::new(&b, POLLIN)],
                Some(Duration::from_millis(5))
            ),
            0
        );
        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut [PollFd::new(&b, POLLIN)], None), 1);
        // No interest, no wake — what keeps a connection at its quota
        // from spinning the loop.
        assert_eq!(
            wait(&mut [PollFd::new(&b, 0)], Some(Duration::from_millis(5))),
            0
        );
    }

    #[test]
    fn waker_wakes_two_threads_and_stays_readable() {
        let waker = Arc::new(Waker::new().unwrap());
        let (blocked_tx, blocked_rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let waker = Arc::clone(&waker);
                let blocked_tx = blocked_tx.clone();
                std::thread::spawn(move || {
                    // Not woken yet: a bounded wait times out…
                    let early = wait(&mut [waker.pollfd()], Some(Duration::from_millis(5)));
                    blocked_tx.send(()).unwrap();
                    // …and an unbounded one returns only on the wake.
                    (early, wait(&mut [waker.pollfd()], None))
                })
            })
            .collect();
        blocked_rx.recv().unwrap();
        blocked_rx.recv().unwrap();
        waker.wake();
        for thread in threads {
            assert_eq!(thread.join().unwrap(), (0, 1));
        }
        // Never drained: every later wait returns at once, as does a
        // second wake.
        waker.wake();
        assert_eq!(wait(&mut [waker.pollfd()], None), 1);
    }
}
