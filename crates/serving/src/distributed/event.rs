//! The socket server: one readiness loop per thread multiplexing many
//! client connections, with admission control.
//!
//! [`EventServer`] puts a [`NodeHandler`] behind a listener. Each loop
//! thread works its **non-blocking** sockets until a pass makes no progress,
//! then blocks in `poll(2)` — no timer sits between a request and its reply
//! (`readiness.rs`; hand-rolled, no mio/tokio) — so capacity does not stop
//! at `threads` concurrent clients: hundreds of connections share a
//! handful of threads, and frames **pipeline** — a client may write N
//! request frames back to back and read N replies, in order, without
//! waiting for each round trip. A strict request/response client (a
//! coordinator's [`super::SocketTransport`]) is simply a pipeline of
//! depth 1.
//!
//! On top of the loop sit the production-traffic controls
//! ([`EventConfig`]):
//!
//! * **adaptive batching** — parsed requests queue per connection and are
//!   executed when the batch reaches `batch_max` frames, the oldest has
//!   waited `batch_deadline`, or the input goes quiescent (no partial
//!   frame pending), whichever is first — size *or* deadline closes the
//!   batch, idleness never waits for either;
//! * **per-client quotas with backpressure** — a connection with
//!   `client_quota` requests in flight is not read from until it drains,
//!   so the kernel's socket buffer (and ultimately the client) absorbs
//!   the excess instead of the node's memory;
//! * **deadline-aware load shedding** — a request that waited longer
//!   than `queue_deadline` in the admission queue is answered with a
//!   structured [`ErrorCode::Overloaded`] frame instead of being served
//!   late. The client maps it to a retryable transient fault, so a
//!   replica layer routes around the saturated node.
//!
//! Observability: every admission decision updates the global metrics
//! registry (`serving.frontend.queue_depth` gauge,
//! `serving.frontend.admitted` / `serving.frontend.shed` counters, and
//! the `serving.frontend.admission_wait_ns` histogram; wake-ups ÷ admitted,
//! from `serving.frontend.wakeups`, is the loop's figure of merit), and traced
//! requests get a `queue_wait` span (depth at enqueue, waited
//! nanoseconds) recorded into the handler's ring next to the usual
//! `wire_exchange` span.

use super::node::NodeHandler;
use super::readiness::{self, PollFd, Waker, ACCEPT_RETRY, POLLIN, POLLOUT};
use super::transport::WireStream;
use super::wire::{frame_bounds, ErrorCode, Message, WireFault};
use super::{NodeAddr, TransportError};
use engine::WireError;
use metrics::{Counter, Gauge, Log2Histogram, MetricsRegistry, SpanKind, TransportCounters};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes read from one connection per poll pass, and the cap on buffered
/// unparsed input per connection — past it, reading stops and the
/// kernel's socket buffer pushes back on the client.
const READ_CHUNK: usize = 16 * 1024;
const READ_BUF_CAP: usize = 1 << 20;

/// The admission-control knobs of an [`EventServer`].
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Readiness-loop threads; each multiplexes its own connection set.
    pub threads: usize,
    /// A batch closes when this many requests are queued…
    pub batch_max: usize,
    /// …or when the oldest queued request has waited this long —
    /// whichever comes first (quiescent input closes immediately).
    pub batch_deadline: Duration,
    /// In-flight (parsed, unanswered) requests allowed per connection;
    /// at the cap the connection is not read from until it drains.
    pub client_quota: usize,
    /// A request still queued after this long is answered
    /// [`ErrorCode::Overloaded`] instead of served late.
    pub queue_deadline: Duration,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            batch_max: 32,
            batch_deadline: Duration::from_micros(500),
            client_quota: 64,
            queue_deadline: Duration::from_millis(100),
        }
    }
}

/// Admission-control outcomes since the server started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests executed (admitted within their deadline).
    pub admitted: u64,
    /// Requests answered `Overloaded` past their queue deadline.
    pub shed: u64,
}

/// Everything the loop threads and the [`EventServer`] handle share.
struct Shared {
    handler: Arc<NodeHandler>,
    counters: Arc<TransportCounters>,
    config: EventConfig,
    shutdown: AtomicBool,
    waker: Waker,
    admitted: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    wakeups: AtomicU64,
    // Global-registry mirrors of the same counts.
    admitted_total: Counter,
    shed_total: Counter,
    wakeups_total: Counter,
    queue_depth: Gauge,
    admission_wait: Arc<Log2Histogram>,
}

/// Either listener family, non-blocking.
enum EventListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl EventListener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            EventListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            EventListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            EventListener::Tcp(l) => l.try_clone().map(EventListener::Tcp),
            #[cfg(unix)]
            EventListener::Unix(l) => l.try_clone().map(EventListener::Unix),
        }
    }

    fn pollfd(&self) -> PollFd {
        match self {
            EventListener::Tcp(l) => PollFd::new(l, POLLIN),
            #[cfg(unix)]
            EventListener::Unix(l) => PollFd::new(l, POLLIN),
        }
    }

    fn accept(&self) -> std::io::Result<WireStream> {
        match self {
            EventListener::Tcp(l) => l.accept().map(|(s, _)| {
                // Framed RPC with pipelining: Nagle + delayed ACK would
                // hold small reply frames for up to 40ms.
                s.set_nodelay(true).ok();
                WireStream::Tcp(s)
            }),
            #[cfg(unix)]
            EventListener::Unix(l) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        }
    }
}

/// One parsed-but-unanswered request in a connection's admission queue.
struct Pending {
    /// `None` after a malformed frame: the reply is pre-resolved.
    request: Option<Message>,
    /// The pre-resolved reply for frames that never reached the handler.
    resolved: Option<Message>,
    trace_id: u64,
    received: u64,
    enqueued: Instant,
    /// Queue depth observed at enqueue (the `queue_wait` span payload).
    depth: u64,
}

/// One multiplexed connection's state.
struct Conn {
    stream: WireStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    eof: bool,
    dead: bool,
    /// Set after a malformed frame: answer what's queued, then hang up
    /// (framing state is unrecoverable).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: WireStream) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            pending: VecDeque::new(),
            eof: false,
            dead: false,
            close_after_flush: false,
        }
    }

    /// Whether [`Self::fill`] reads. Quota backpressure: a connection at
    /// its in-flight cap (or with a large unparsed backlog) is not read
    /// from — the socket buffer fills and the client blocks, instead of
    /// this node queuing without bound.
    fn wants_input(&self, shared: &Shared) -> bool {
        !(self.eof || self.dead || self.close_after_flush)
            && self.pending.len() < shared.config.client_quota
            && self.read_buf.len() < READ_BUF_CAP
    }

    /// What the idle wait asks of this socket: what the next pass acts on.
    /// Input it would not read (at quota) or writability with nothing staged
    /// would spin; with nothing to ask, so would a hang-up: left out.
    fn interest(&self, shared: &Shared) -> Option<PollFd> {
        let (read, staged) = (self.wants_input(shared), !self.write_buf.is_empty());
        let events = if read { POLLIN } else { 0 } | if staged { POLLOUT } else { 0 };
        (events != 0).then(|| self.stream.pollfd(events))
    }

    /// Pulls available bytes (up to the backpressure caps) off the socket
    /// through the loop's `chunk`. Returns whether any arrived.
    fn fill(&mut self, shared: &Shared, chunk: &mut [u8]) -> bool {
        let mut progressed = false;
        while self.wants_input(shared) {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    shared.counters.record_error();
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Frames the buffered bytes into the admission queue (up to the
    /// per-client quota; whole frames past it stay buffered).
    fn parse(&mut self, shared: &Shared) {
        while !self.close_after_flush && self.pending.len() < shared.config.client_quota {
            match frame_bounds(&self.read_buf) {
                Ok(None) => break, // partial frame: need more bytes
                Ok(Some(total)) => {
                    let result = Message::decode_traced(&self.read_buf[..total]);
                    self.read_buf.drain(..total);
                    match result {
                        Ok((message, trace_id, _)) => {
                            shared.counters.record_received(total as u64);
                            self.enqueue(shared, Some(message), None, trace_id, total as u64);
                        }
                        Err(e) => self.reject(shared, &e),
                    }
                }
                Err(e) => self.reject(shared, &e),
            }
        }
    }

    /// Queues one best-effort `BadRequest` answer for an undecodable
    /// frame and schedules the hang-up.
    fn reject(&mut self, shared: &Shared, error: &WireError) {
        shared.counters.record_error();
        let reply = Message::Error(WireFault {
            code: ErrorCode::BadRequest,
            message: error.to_string(),
        });
        // An undecodable frame has no recoverable trace id.
        self.enqueue(shared, None, Some(reply), 0, 0);
        self.read_buf.clear();
        self.close_after_flush = true;
    }

    fn enqueue(
        &mut self,
        shared: &Shared,
        request: Option<Message>,
        resolved: Option<Message>,
        trace_id: u64,
        received: u64,
    ) {
        let depth = self.pending.len() as u64;
        shared.queue_depth.add(1);
        self.pending.push_back(Pending {
            request,
            resolved,
            trace_id,
            received,
            enqueued: Instant::now(),
            depth,
        });
    }

    /// Serves every queued request in arrival order: shed past-deadline
    /// requests with `Overloaded`, run the rest through the handler, and
    /// stage each reply frame (pipelined replies keep request order).
    fn execute(&mut self, shared: &Shared) {
        while let Some(mut p) = self.pending.pop_front() {
            shared.queue_depth.add(-1);
            let waited = p.enqueued.elapsed();
            let reply = if let Some(reply) = p.resolved.take() {
                reply
            } else if waited >= shared.config.queue_deadline {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                shared.shed_total.inc();
                Message::Error(WireFault {
                    code: ErrorCode::Overloaded,
                    message: format!("request shed after {waited:?} in the admission queue"),
                })
            } else {
                shared.admitted.fetch_add(1, Ordering::Relaxed);
                shared.admitted_total.inc();
                shared.admission_wait.observe(waited.as_nanos() as u64);
                shared.handler.handle(
                    p.request
                        .take()
                        .expect("unresolved pendings carry a request"),
                )
            };
            if p.trace_id != 0 {
                shared.handler.ring().record(
                    p.trace_id,
                    None,
                    SpanKind::QueueWait { depth: p.depth },
                    waited.as_nanos() as u64,
                );
            }
            match reply.encode_traced(p.trace_id) {
                Ok(frame) => {
                    shared.counters.record_sent(frame.len() as u64);
                    if p.trace_id != 0 {
                        shared.handler.ring().record(
                            p.trace_id,
                            None,
                            SpanKind::WireExchange {
                                bytes_out: frame.len() as u64,
                                bytes_in: p.received,
                            },
                            0,
                        );
                    }
                    self.write_buf.extend_from_slice(&frame);
                }
                Err(_) => {
                    // A reply with no wire form (cannot happen for the
                    // kinds a handler emits, but never hang the client).
                    shared.counters.record_error();
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Pushes staged reply bytes until the socket would block. Returns
    /// whether any left.
    fn flush(&mut self, shared: &Shared) -> bool {
        let mut progressed = false;
        while !self.write_buf.is_empty() && !self.dead {
            match self.stream.write(&self.write_buf) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.write_buf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    shared.counters.record_error();
                    self.dead = true;
                }
            }
        }
        if self.write_buf.is_empty()
            && (self.close_after_flush || (self.eof && self.pending.is_empty()))
        {
            self.dead = true;
        }
        progressed
    }
}

/// Hosts any [`engine::AnnIndex`] (through its [`NodeHandler`]) behind a
/// socket listener: `threads` readiness loops multiplex all client
/// connections, pipeline frames per connection, batch adaptively, and
/// shed overload (see the module docs).
///
/// [`Self::shutdown`] (also run on drop) severs live connections — clients
/// see an I/O error, exactly like a crashed process — and joins every loop
/// thread; tests and demos use it to kill a node mid-run and watch the
/// replica layer route around the corpse. Shutdown wakes every loop out of
/// its readiness wait, so it is bounded by one pass on any bind interface.
pub struct EventServer {
    addr: NodeAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
    unix_path: Option<PathBuf>,
}

impl EventServer {
    /// Binds `addr` and starts `config.threads` readiness loops serving
    /// `handler`.
    ///
    /// Fails (with the address in the message) if the socket cannot be
    /// bound — a TCP port in use, or a Unix socket path that already
    /// exists from a previous run.
    pub fn bind(
        addr: &NodeAddr,
        handler: NodeHandler,
        config: EventConfig,
    ) -> Result<Self, TransportError> {
        let (listener, bound_addr, unix_path) = match addr {
            NodeAddr::Tcp(a) => {
                let listener = TcpListener::bind(a.as_str())
                    .map_err(|e| TransportError::Io(format!("bind {addr}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| TransportError::Io(format!("local_addr {addr}: {e}")))?;
                (
                    EventListener::Tcp(listener),
                    NodeAddr::Tcp(local.to_string()),
                    None,
                )
            }
            #[cfg(unix)]
            NodeAddr::Unix(path) => {
                let listener = UnixListener::bind(path)
                    .map_err(|e| TransportError::Io(format!("bind {addr}: {e}")))?;
                (
                    EventListener::Unix(listener),
                    addr.clone(),
                    Some(path.clone()),
                )
            }
        };
        // A Unix bind created the socket file: a failure from here on
        // must remove it, or every later bind at that path is refused
        // with "address in use".
        let fail = |what: &str, e: std::io::Error| {
            if let Some(path) = &unix_path {
                let _ = std::fs::remove_file(path);
            }
            TransportError::Io(format!("{what} {addr}: {e}"))
        };
        listener
            .set_nonblocking()
            .map_err(|e| fail("set_nonblocking", e))?;
        let registry = MetricsRegistry::global();
        let shared = Arc::new(Shared {
            counters: Arc::clone(handler.counters()),
            handler: Arc::new(handler),
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            waker: Waker::new().map_err(|e| fail("open the shutdown waker", e))?,
            admitted: Arc::default(),
            shed: Arc::default(),
            wakeups: AtomicU64::new(0),
            admitted_total: registry.counter("serving.frontend.admitted"),
            shed_total: registry.counter("serving.frontend.shed"),
            wakeups_total: registry.counter("serving.frontend.wakeups"),
            queue_depth: registry.gauge("serving.frontend.queue_depth"),
            admission_wait: registry.histogram("serving.frontend.admission_wait_ns"),
        });
        // The original handle serves loop 0; clones serve the rest (all
        // non-blocking, so the kernel distributes accepts across them).
        let mut listeners = Vec::new();
        for _ in 1..config.threads.max(1) {
            listeners.push(
                listener
                    .try_clone()
                    .map_err(|e| fail("clone listener", e))?,
            );
        }
        listeners.insert(0, listener);
        let mut handles = Vec::new();
        for (t, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("node-event-{t}"))
                .spawn(move || event_loop(listener, &shared))
                .expect("failed to spawn node-event thread");
            handles.push(handle);
        }
        Ok(Self {
            addr: bound_addr,
            shared,
            loops: handles,
            unix_path,
        })
    }

    /// The hosted handler (what a [`super::ScrapeServer`] answers `/varz`
    /// from).
    pub fn handler(&self) -> &Arc<NodeHandler> {
        &self.shared.handler
    }

    /// Shared handles to the live `(admitted, shed)` counters — the
    /// cumulative samples an SLO shed-fraction guard reads.
    pub fn admission_counters(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        let shared = &self.shared;
        (Arc::clone(&shared.admitted), Arc::clone(&shared.shed))
    }

    /// This server's share of `serving.frontend.wakeups`, over all its loops.
    #[doc(hidden)]
    pub fn wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// The bound address (with TCP port 0 resolved) — what clients dial.
    pub fn addr(&self) -> &NodeAddr {
        &self.addr
    }

    /// Server-side frame/byte counters (the handler's ledger, same as a
    /// `StatsRequest` scrape).
    pub fn stats(&self) -> metrics::TransportStats {
        self.shared.counters.snapshot()
    }

    /// Admission-control outcomes so far.
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
        }
    }

    /// Stops the server: loop threads are woken, sever their connections,
    /// exit and are joined; a Unix socket file is removed. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.waker.wake();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One readiness loop: accept, read, frame, batch, execute, flush —
/// blocking in the readiness wait only when a full pass made no progress.
fn event_loop(listener: EventListener, shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            for conn in &conns {
                shared.queue_depth.add(-(conn.pending.len() as i64));
                conn.stream.shutdown();
            }
            break;
        }
        let mut progressed = false;
        // Accept everything waiting (the kernel spreads accepts across
        // the cloned handles). A failure other than `WouldBlock` is
        // transient (fd pressure): retry after the idle wait below, which
        // then leaves the still-readable listener out.
        let accept_failed = loop {
            match listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        stream.shutdown();
                        continue;
                    }
                    conns.push(Conn::new(stream));
                    progressed = true;
                }
                Err(e) => break e.kind() != ErrorKind::WouldBlock,
            }
        };
        // Read + frame.
        for conn in conns.iter_mut() {
            progressed |= conn.fill(shared, &mut chunk);
            conn.parse(shared);
        }
        // Adaptive batch close: size, deadline, or quiescent input.
        let queued: usize = conns.iter().map(|c| c.pending.len()).sum();
        if queued > 0 {
            let now = Instant::now();
            let deadline_hit = conns
                .iter()
                .filter_map(|c| c.pending.front())
                .any(|p| now.duration_since(p.enqueued) >= shared.config.batch_deadline);
            let quiescent = conns.iter().all(|c| c.read_buf.is_empty());
            if queued >= shared.config.batch_max || deadline_hit || quiescent {
                for conn in conns.iter_mut() {
                    conn.execute(shared);
                }
                progressed = true;
            }
        }
        // Flush + prune.
        for conn in conns.iter_mut() {
            progressed |= conn.flush(shared);
        }
        conns.retain(|conn| {
            if conn.dead {
                shared.queue_depth.add(-(conn.pending.len() as i64));
                conn.stream.shutdown();
            }
            !conn.dead
        });
        if !progressed {
            // Until a socket is ready, shutdown, or the oldest request held
            // behind input that is not quiescent reaches its batch deadline.
            fds.clear();
            fds.push(shared.waker.pollfd());
            if !accept_failed {
                fds.push(listener.pollfd());
            }
            fds.extend(conns.iter().filter_map(|c| c.interest(shared)));
            let now = Instant::now();
            let timeout = conns
                .iter()
                .filter_map(|c| c.pending.front())
                .map(|p| (p.enqueued + shared.config.batch_deadline).saturating_duration_since(now))
                .chain(accept_failed.then_some(ACCEPT_RETRY))
                .min();
            readiness::wait(&mut fds, timeout);
            shared.wakeups.fetch_add(1, Ordering::Relaxed);
            shared.wakeups_total.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = EventConfig::default();
        assert!(config.threads >= 1);
        assert!(config.batch_max >= 1);
        assert!(config.client_quota >= 1);
        assert!(config.queue_deadline > config.batch_deadline);
    }
}
