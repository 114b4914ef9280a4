//! Transports: how one [`Message`] exchange reaches a node.
//!
//! [`Transport`] is deliberately tiny — one blocking request/response
//! exchange — because that is all the serving stack needs: retries,
//! mark-down, and probing already live in [`crate::ReplicaGroup`], and a
//! transport failure is just another [`crate::FaultError`] to route
//! around. Two implementations work with no network at all:
//!
//! * [`LoopbackTransport`] — the node lives in this process. Every call
//!   still encodes and decodes both frames, so tests exercise the full
//!   codec deterministically, and the handler's index can carry a
//!   [`crate::FaultPlan`];
//! * [`SocketTransport`] — the node is another process behind a
//!   [`super::NodeAddr`] (Unix or TCP socket). One persistent connection,
//!   re-dialed after any failure; optional per-call deadline.

use super::node::NodeHandler;
use super::readiness::PollFd;
use super::wire::{read_message, write_message, Message};
use super::{NodeAddr, TransportError};
use metrics::{SpanKind, TraceContext, TransportCounters, TransportStats};
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One blocking request/response exchange with a node.
pub trait Transport: Send + Sync {
    /// Sends `message` in a frame carrying `trace`'s id (untraced when
    /// `None`) and returns the node's answer, recording one
    /// `wire_exchange` span with the exact frame byte counts into the
    /// trace. An `Err` means the exchange itself failed
    /// (connect/read/write/decode); a node that *answered* with an error
    /// decodes to [`Message::Error`], which is an `Ok` here.
    fn exchange_traced(
        &self,
        trace: Option<&TraceContext>,
        message: &Message,
    ) -> Result<Message, TransportError>;

    /// [`Self::exchange_traced`] with no trace attached.
    fn exchange(&self, message: &Message) -> Result<Message, TransportError> {
        self.exchange_traced(None, message)
    }

    /// Snapshot of this endpoint's frame/byte/failure counters.
    fn stats(&self) -> TransportStats;
}

/// An in-process node behind the full codec: requests and responses are
/// encoded and re-decoded on every call, so the loopback proves exactly
/// what a socket would carry — deterministically, with no I/O.
pub struct LoopbackTransport {
    handler: NodeHandler,
    counters: TransportCounters,
}

impl LoopbackTransport {
    /// A loopback to `handler` (wrap the handler's index in a
    /// [`crate::FaultyIndex`] via [`NodeHandler::with_faults`] to script
    /// node failures).
    pub fn new(handler: NodeHandler) -> Self {
        Self {
            handler,
            counters: TransportCounters::new(),
        }
    }

    /// The served node handler.
    pub fn handler(&self) -> &NodeHandler {
        &self.handler
    }
}

impl Transport for LoopbackTransport {
    fn exchange_traced(
        &self,
        trace: Option<&TraceContext>,
        message: &Message,
    ) -> Result<Message, TransportError> {
        let started = Instant::now();
        let trace_id = trace.map_or(0, TraceContext::trace_id);
        // Outbound trip through the codec.
        let request_bytes = message.encode_traced(trace_id)?;
        self.counters.record_sent(request_bytes.len() as u64);
        let (request, node_trace, _) = Message::decode_traced(&request_bytes)?;
        // The node side counts and serves the frame exactly as a socket
        // server would, so loopback stats scrapes are faithful.
        self.handler
            .counters()
            .record_received(request_bytes.len() as u64);
        let reply = self.handler.handle(request);
        let reply_bytes = reply.encode_traced(node_trace)?;
        self.handler
            .counters()
            .record_sent(reply_bytes.len() as u64);
        if node_trace != 0 {
            self.handler.ring().record(
                node_trace,
                None,
                SpanKind::WireExchange {
                    bytes_out: reply_bytes.len() as u64,
                    bytes_in: request_bytes.len() as u64,
                },
                0,
            );
        }
        let (reply, _, _) = Message::decode_traced(&reply_bytes)?;
        self.counters.record_received(reply_bytes.len() as u64);
        if let Some(ctx) = trace {
            ctx.record_timed(
                SpanKind::WireExchange {
                    bytes_out: request_bytes.len() as u64,
                    bytes_in: reply_bytes.len() as u64,
                },
                started.elapsed().as_nanos() as u64,
            );
        }
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

/// Either socket family under one `Read`/`Write` surface.
pub(crate) enum WireStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Dials `addr`.
    pub(crate) fn connect(addr: &NodeAddr) -> Result<Self, TransportError> {
        match addr {
            NodeAddr::Tcp(a) => TcpStream::connect(a.as_str())
                .map(|s| {
                    // Framed RPC: Nagle + delayed ACK would hold small
                    // request frames for up to 40ms.
                    s.set_nodelay(true).ok();
                    WireStream::Tcp(s)
                })
                .map_err(|e| TransportError::from_io(&format!("connect {addr}"), &e)),
            #[cfg(unix)]
            NodeAddr::Unix(path) => UnixStream::connect(path)
                .map(WireStream::Unix)
                .map_err(|e| TransportError::from_io(&format!("connect {addr}"), &e)),
        }
    }

    /// Applies one deadline to both directions (`None` blocks forever).
    pub(crate) fn set_deadline(&self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let apply = |r: std::io::Result<()>, w: std::io::Result<()>| {
            r.and(w)
                .map_err(|e| TransportError::from_io("set deadline", &e))
        };
        match self {
            WireStream::Tcp(s) => apply(s.set_read_timeout(timeout), s.set_write_timeout(timeout)),
            #[cfg(unix)]
            WireStream::Unix(s) => apply(s.set_read_timeout(timeout), s.set_write_timeout(timeout)),
        }
    }

    /// Switches the stream between blocking and readiness-loop mode (the
    /// socket server polls with `WouldBlock`).
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn pollfd(&self, events: i16) -> PollFd {
        match self {
            WireStream::Tcp(s) => PollFd::new(s, events),
            #[cfg(unix)]
            WireStream::Unix(s) => PollFd::new(s, events),
        }
    }

    /// Severs both directions.
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            WireStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            WireStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// A node in another process, one persistent connection per transport.
///
/// Calls are serialized on the connection (the protocol is strict
/// request/response); after any failure the connection is dropped and the
/// next call re-dials, so a restarted node is picked back up by the very
/// probe that the replica health model sends. A dead node keeps failing
/// fast with connect errors — exactly the signal mark-down needs.
pub struct SocketTransport {
    addr: NodeAddr,
    timeout: Option<Duration>,
    conn: Mutex<Option<WireStream>>,
    counters: Arc<TransportCounters>,
    ever_connected: std::sync::atomic::AtomicBool,
}

impl SocketTransport {
    /// A transport to `addr`; the first exchange dials. No deadline by
    /// default — see [`Self::with_timeout`].
    pub fn new(addr: NodeAddr) -> Self {
        Self {
            addr,
            timeout: None,
            conn: Mutex::new(None),
            counters: Arc::new(TransportCounters::new()),
            ever_connected: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Dials eagerly so a wrong address fails at construction, not on the
    /// first query.
    pub fn connect(addr: NodeAddr) -> Result<Self, TransportError> {
        let transport = Self::new(addr);
        let stream = transport.dial()?;
        *transport.conn.lock().unwrap() = Some(stream);
        Ok(transport)
    }

    /// Applies one deadline to every read and write of every call,
    /// including on an already-established connection. If the live
    /// connection refuses the deadline, it is dropped so the next call
    /// re-dials with the deadline applied — a connection that can block
    /// forever must not survive a caller asking for a timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        let conn = self.conn.get_mut().unwrap();
        if let Some(stream) = conn.as_ref() {
            if stream.set_deadline(self.timeout).is_err() {
                *conn = None;
            }
        }
        self
    }

    /// The node's address.
    pub fn addr(&self) -> &NodeAddr {
        &self.addr
    }

    fn dial(&self) -> Result<WireStream, TransportError> {
        let stream = WireStream::connect(&self.addr)?;
        stream.set_deadline(self.timeout)?;
        if self
            .ever_connected
            .swap(true, std::sync::atomic::Ordering::Relaxed)
        {
            self.counters.record_reconnect();
        }
        Ok(stream)
    }
}

impl Transport for SocketTransport {
    fn exchange_traced(
        &self,
        trace: Option<&TraceContext>,
        message: &Message,
    ) -> Result<Message, TransportError> {
        let started = Instant::now();
        let trace_id = trace.map_or(0, TraceContext::trace_id);
        let mut conn = self.conn.lock().unwrap();
        if conn.is_none() {
            match self.dial() {
                Ok(stream) => *conn = Some(stream),
                Err(e) => {
                    self.counters.record_error();
                    if matches!(e, TransportError::Timeout(_)) {
                        self.counters.record_timeout();
                    }
                    return Err(e);
                }
            }
        }
        let stream = conn.as_mut().expect("dialed above");
        let result = write_message(stream, message, trace_id).and_then(|sent| {
            self.counters.record_sent(sent as u64);
            match read_message(stream)? {
                Some((reply, _, received)) => {
                    self.counters.record_received(received as u64);
                    if let Some(ctx) = trace {
                        ctx.record_timed(
                            SpanKind::WireExchange {
                                bytes_out: sent as u64,
                                bytes_in: received as u64,
                            },
                            started.elapsed().as_nanos() as u64,
                        );
                    }
                    Ok(reply)
                }
                None => Err(TransportError::Io(format!(
                    "{}: connection closed before the reply",
                    self.addr
                ))),
            }
        });
        if let Err(e) = &result {
            // Poisoned framing state: drop the connection, re-dial next call.
            *conn = None;
            self.counters.record_error();
            if matches!(e, TransportError::Timeout(_)) {
                self.counters.record_timeout();
            }
        }
        result
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}
